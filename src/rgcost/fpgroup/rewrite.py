"""Subgroup presentations and presentation simplification.

Reidemeister-Schreier rewrites a complete coset table into a presentation
of the subgroup on its Schreier generators (one per coset-table edge
outside a breadth-first spanning tree).  Tietze simplification eliminates
generators that occur exactly once in some relator, which is what collapses
those presentations down to useful generator counts.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from operator import mul

from .coset import CosetTable, inv_col, word_to_cols
from .presentation import Presentation, Word, cyclic_reduce, free_reduce, invert_word
from .snf import smith_normal_form


@dataclass(frozen=True)
class AbelianInvariants:
    """Abelianization: free rank plus the invariant factors > 1, each
    dividing the next."""

    free_rank: int
    factors: tuple[int, ...]

    @property
    def min_generators(self) -> int:
        return self.free_rank + len(self.factors)


def relation_matrix(pres: Presentation) -> list[list[int]]:
    """Exponent-sum matrix, rows = relators, columns = generators."""
    rows = []
    for rel in pres.relators:
        row = [0] * pres.num_generators
        for x in rel:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    if not pres.relators:
        return AbelianInvariants(free_rank=pres.num_generators, factors=())
    snf = smith_normal_form(relation_matrix(pres))
    return AbelianInvariants(
        free_rank=pres.num_generators - snf.rank,
        factors=tuple(d for d in snf.factors if d > 1),
    )


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def _root_length(word: Word) -> int:
    """Length of the primitive root w of a nonempty word w^j."""
    n = len(word)
    return next(p for p in range(1, n + 1) if n % p == 0 and word[p:] == word[:n - p])


def reidemeister_schreier(pres: Presentation, table: CosetTable) -> Presentation:
    """Presentation of the subgroup a complete coset table describes.

    One breadth-first pass from coset 0, columns in order, labels every
    table entry: 0 on the edges of the spanning tree it grows, +k on the
    k-th Schreier generator's edge and -k on its inverse entry.  Generators
    s1, s2,... are numbered in the order the pass meets them, which is
    (coset, generator) order on a standardized table.  Relators: each
    relator of the ambient presentation rewritten from each coset, freely
    reduced, nonempty, in (coset, relator) order.  A proper power r = w^j
    (w its primitive root) is rewritten only from the smallest coset of
    each orbit under w: its rewrite from c.w is a rotation of its rewrite
    from c, a conjugate that Tietze simplification would drop as a later
    duplicate, so the subgroup and the simplified presentation are
    unchanged.
    """
    rows = table.rows
    labels = [[None] * len(row) for row in rows]
    seen = [False] * table.index
    seen[0] = True
    order = [0]
    count = 0
    for a in order:
        for col, b in enumerate(rows[a]):
            if not seen[b]:
                seen[b] = True
                order.append(b)
                labels[a][col] = labels[b][inv_col(col)] = 0
            elif col % 2 == 0 and labels[a][col] is None:
                count += 1
                labels[a][col], labels[b][inv_col(col)] = count, -count

    def rewrite(start: int, cols) -> Word:
        out = []
        coset = start
        for col in cols:
            k = labels[coset][col]
            if k:
                out.append(k)
            coset = rows[coset][col]
        return free_reduce(out)

    # firsts[k][c]: coset c is the smallest of its orbit under the root of
    # relator k (every coset, for a relator that is not a proper power)
    firsts = []
    for rel in pres.relators:
        root = rel[:_root_length(rel)]
        first = [True] * table.index
        if len(root) < len(rel):
            for c in range(table.index):
                if first[c]:
                    d = table.trace(c, root)
                    while d != c:
                        first[d] = False
                        d = table.trace(d, root)
        firsts.append(first)

    relator_cols = [word_to_cols(rel) for rel in pres.relators]
    relators = []
    for coset in range(table.index):
        for cols, first in zip(relator_cols, firsts):
            if first[coset]:
                w = rewrite(coset, cols)
                if w:
                    relators.append(w)
    names = tuple(f"s{i}" for i in range(1, count + 1))
    return Presentation(names, relators)


# ---------------------------------------------------------------------------
# Tietze simplification


def _least_rotation(word: Word) -> Word:
    """Lexicographically least rotation of a nonempty word, in linear time
    (Duval's Lyndon factorization run over the doubled word)."""
    n = len(word)
    s = word + word
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start:start + n]


def _rotation_key(word: Word) -> Word:
    """Canonical form of a cyclic word up to rotation and inversion: the
    least rotation of the word or of its inverse.  Words of one and two
    letters, most of what Reidemeister-Schreier emits on congruence
    kernels, take a closed form: the least candidate starts with the
    larger generator's inverse."""
    n = len(word)
    if n == 1:
        return (-abs(word[0]),)
    if n == 2:
        # the candidates are (x, y), (y, x), (-y, -x) and (-x, -y)
        x, y = word
        if abs(x) >= abs(y):
            return (x, y) if x < 0 else (-x, -y)
        return (y, x) if y < 0 else (-y, -x)
    return min(_least_rotation(word), _least_rotation(invert_word(word)))


# Tietze counts a word this long or longer with Counter's C loop, and a
# shorter one with a plain dict, which skips Counter's set-up cost.
_COUNTER_FROM = 48


def tietze_simplify(pres: Presentation) -> Presentation:
    """Iteratively eliminate generators occurring exactly once in a relator.

    Relators are kept cyclically reduced and free of duplicates up to
    rotation and inversion (the earliest copy stays).  Each step eliminates
    the smallest generator occurring once in the shortest such relator,
    ties broken by list position.  Deterministic; stops at a fixpoint.

    The pass is incremental (after Havas, Kenne, Richardson and Robertson,
    "A Tietze transformation program", 1984): a generator -> relator
    occurrence index limits substitution to the relators that contain the
    eliminated generator, and eligible relators wait in a heap keyed
    (length, position) whose stale entries are skipped when popped.  The
    image of the eliminated generator is read off its relator u g^e v as
    a rotation, v u, already reduced.  A substitution splices each touched
    relator in one scan: the runs between occurrences of the generator and
    the images are copied whole, and free cancellation is tried only at
    the junctions, where a run's or an image's head meets the output's
    tail (both are reduced, so nothing cancels inside them).

    Placing a relator counts its letters once, into a dict (Counter's C
    loop from _COUNTER_FROM letters on), which gives its distinct
    generators, kept by position so that dropping it recounts nothing, its
    smallest once-occurring generator and its bucket.  A relator of one or
    two letters is bucketed by its closed-form rotation key, so a bucket
    it shares is a copy; a longer one by (length, sum of |letters|), which
    rotation and inversion preserve, and its key is computed only when its
    bucket collides with another live relator's, and kept until the
    relator changes.  Generators keep their input numbers until one
    monotone renumbering at the end, so every choice is the one a
    whole-list pass would make.
    """
    n = len(pres.relators)
    words: list[Word | None] = [None] * n  # by list position; None once dropped
    keys: list[Word | None] = [None] * n  # rotation keys; past two letters, on first need
    once = [0] * n  # smallest generator occurring once in the relator, 0 if none
    bucket_of: list[tuple | None] = [None] * n  # a live relator's bucket
    gens_of: list[dict[int, int] | None] = [None] * n  # generator -> count
    buckets: dict[tuple, list[int]] = {}  # live positions by bucket
    occ: dict[int, set[int]] = {g: set() for g in range(1, pres.num_generators + 1)}
    heap: list[tuple[int, int]] = []

    def key_of(pos: int) -> Word:
        if keys[pos] is None:
            keys[pos] = _rotation_key(words[pos])
        return keys[pos]

    def drop(pos: int) -> None:
        for g in gens_of[pos]:
            occ[g].discard(pos)
        b = bucket_of[pos]
        buckets[b].remove(pos)
        if not buckets[b]:
            del buckets[b]
        words[pos] = keys[pos] = gens_of[pos] = None

    def place(pos: int, word: Word) -> None:
        size = len(word)
        if not size:
            return
        if size < _COUNTER_FROM:
            counts: dict[int, int] = {}
            total = 0
            for x in word:
                g = x if x > 0 else -x
                counts[g] = counts.get(g, 0) + 1
                total += g
        else:
            counts = Counter(map(abs, word))
            total = sum(map(mul, counts.keys(), counts.values()))
        if size <= 2:
            # the bucket is the key itself, so a live relator in it is a copy
            b = key = _rotation_key(word)
            other = buckets[b][0] if b in buckets else None
        else:
            b = size, total
            if b in buckets:
                # live relators are pairwise distinct, so at most one matches
                key = _rotation_key(word)
                other = next((o for o in buckets[b] if key_of(o) == key), None)
            else:
                key = other = None
        if other is not None:
            if other < pos:
                return
            drop(other)
        buckets.setdefault(b, []).append(pos)
        words[pos] = word
        keys[pos] = key
        bucket_of[pos] = b
        gens_of[pos] = counts
        single = 0
        for g, c in counts.items():
            occ[g].add(pos)
            if c == 1 and (not single or g < single):
                single = g
        once[pos] = single
        if single:
            heapq.heappush(heap, (size, pos))

    for pos, rel in enumerate(pres.relators):
        # relators are freely reduced, so only inverse end letters need work
        place(pos, cyclic_reduce(rel) if rel[0] == -rel[-1] else rel)

    while heap:
        length, pos = heapq.heappop(heap)
        rel = words[pos]
        if rel is None or len(rel) != length or not once[pos]:
            continue  # stale: dropped or rewritten since it was pushed
        gen = once[pos]
        i = 0
        while rel[i] != gen and rel[i] != -gen:
            i += 1
        # rel = u g^e v is cyclically reduced, so v u is reduced:
        # u g v = 1 gives g = (v u)^-1 and u g^-1 v = 1 gives g = v u
        vu = rel[i + 1:] + rel[:i]
        vu_inv = invert_word(vu)
        replacement, inverse = (vu_inv, vu) if rel[i] > 0 else (vu, vu_inv)
        m = len(replacement)
        drop(pos)
        # drop every relator the substitution rewrites before placing any,
        # so none of them collides with another's outdated word
        touched = sorted(occ[gen])
        old = [words[t] for t in touched]
        for t in touched:
            drop(t)
        del occ[gen]
        neg = -gen
        for t, word in zip(touched, old):
            # splice: the sentinel 0 at out[0] never cancels; the word and
            # both images are reduced, so a run or an image cancels only
            # from its head, against the output's tail
            out = [0]
            start = 0
            for i, x in enumerate(word):
                if x == gen or x == neg:
                    k = start
                    while k < i and out[-1] == -word[k]:
                        out.pop()
                        k += 1
                    out.extend(word[k:i])
                    image = replacement if x == gen else inverse
                    k = 0
                    while k < m and out[-1] == -image[k]:
                        out.pop()
                        k += 1
                    out.extend(image[k:])
                    start = i + 1
            k, end = start, len(word)
            while k < end and out[-1] == -word[k]:
                out.pop()
                k += 1
            out.extend(word[k:])
            i, j = 1, len(out) - 1
            while i < j and out[i] == -out[j]:
                i += 1
                j -= 1
            place(t, tuple(out[i:j + 1]))

    survivors = sorted(occ)
    number = {g: k for k, g in enumerate(survivors, start=1)}
    relators = [tuple(number[x] if x > 0 else -number[-x] for x in w)
                for w in words if w is not None]
    return Presentation(tuple(pres.generators[g - 1] for g in survivors), relators)


def d_bounds(pres: Presentation) -> tuple[int, int]:
    """Bounds on the minimal number of generators.

    Both bounds come from one Tietze simplification.  Upper bound: its
    generator count.  Lower bound: minimal generators of the
    abelianization (free rank plus the number of invariant factors > 1),
    read from the simplified presentation: Tietze moves preserve the
    isomorphism type, so it presents the same group with the same
    abelianization, through a much smaller relation matrix.  Exact d is
    not computable in general; callers get the honest interval.
    """
    simplified = tietze_simplify(pres)
    return abelian_invariants(simplified).min_generators, simplified.num_generators

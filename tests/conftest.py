"""Shared test helpers: graph generators and independent brute-force
oracles.  The oracles deliberately take different routes from the library
code they check (vertex deletion + recount, exhaustive cycle enumeration,
Kuratowski subdivision search, k x k minor gcds)."""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from rgcost import groupexpr as ge
from rgcost.coxeter import CoxeterTrace, EliminationStep, HypothesisError
from rgcost.exprparse import ExprParseError
from rgcost.fpgroup.chains import NotHomomorphism
from rgcost.fpgroup.coset import (
    CosetTable,
    EnumerationLimit,
    inv_col,
    letter_to_col,
    standardize_rows,
    word_to_cols,
)
from rgcost.fpgroup.presentation import (
    Presentation,
    Word,
    _alternating,
    cyclic_reduce,
    free_reduce,
    invert_word,
    parse_presentation,
)
from rgcost.groupexpr import (
    INFINITE,
    AmalgamAmenable,
    AmalgamFinite,
    Amenable,
    ArtinGraph,
    CoxeterGraph,
    Cyclic,
    Free,
    FreeAbelian,
    Generation,
    GroupExpr,
    GroupOrder,
    IntegersZ,
    PriceResult,
    Surface,
    TrivialGroup,
    Unknown,
    is_known,
    recip_order,
)
from rgcost.lgraph import (
    GraphError,
    LabelledGraph,
    components,
    girth,
    is_planar,
    parse_graph,
)
from rgcost.numread import LimitExceeded


# ---------------------------------------------------------------------------
# the number rule, by a regular expression and `int()`


def reference_count(text, least, cap):
    """What `read_count` gives, by a regular expression and `int()`: the
    value, or the class of the refusal."""
    m = re.fullmatch(r" *([+-]?)([0-9]+) *", text)
    if m is None:
        return ValueError
    sign, digits = m.group(1), m.group(2).lstrip("0")
    if sign == "-" and digits:
        return ValueError
    if len(digits) > (sys.get_int_max_str_digits() or len(digits)):
        return LimitExceeded
    value = int(digits or "0")
    if value < least:
        return ValueError
    return LimitExceeded if cap is not None and value > cap else value


# Text over digits, signs, "_", spaces, "x" and a non-ASCII digit, and
# signed, zero-padded digit runs on both sides of the conversion limit.
COUNT_TEXT = st.one_of(
    st.text(alphabet="0123456789+-_ x\u0663", max_size=5000),
    st.builds(lambda pad, sign, zeros, digits, end: pad + sign + "0" * zeros + digits + end,
              st.sampled_from(["", " "]), st.sampled_from(["", "+", "-"]),
              st.integers(0, 30),
              st.one_of(st.text("0123456789", max_size=30),
                        st.integers(4290, 4310).map(lambda n: "7" * n)),
              st.sampled_from(["", " ", "x"])),
)


def reference_quote(text: str) -> str:
    """A token as a refusal quotes it: its first 20 characters."""
    return repr(text[:20] + "..." if len(text) > 20 else text)


# ---------------------------------------------------------------------------
# graph helpers


def degree(g: LabelledGraph, v: str) -> int:
    return len(g.neighbors(v))


def induced(g: LabelledGraph, keep) -> LabelledGraph:
    """Induced subgraph on `keep`, preserving relative vertex order."""
    keep_set = set(keep)
    vs = [v for v in g.vertices if v in keep_set]
    missing = keep_set - set(vs)
    if missing:
        raise GraphError(f"unknown vertices {sorted(missing)!r}")
    es = [(u, v, lab) for u, v, lab in g.edges() if u in keep_set and v in keep_set]
    return LabelledGraph(vs, es)


# ---------------------------------------------------------------------------
# random graph generators


def random_graph(rng, n_min=1, n_max=8, p=0.4, label_range=(2, 6)) -> LabelledGraph:
    n = rng.randint(n_min, n_max)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            edges.append((vertices[i], vertices[j], rng.randint(*label_range)))
    return LabelledGraph(vertices, edges)


def random_connected_graph(rng, n_min=1, n_max=12, extra_p=0.2, label_range=(2, 6)) -> LabelledGraph:
    n = rng.randint(n_min, n_max)
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[(j, i)] = rng.randint(*label_range)
    for i, j in combinations(range(n), 2):
        if (i, j) not in edges and rng.random() < extra_p:
            edges[(i, j)] = rng.randint(*label_range)
    return LabelledGraph(vertices, [(vertices[i], vertices[j], lab)
                                    for (i, j), lab in edges.items()])


def path_graph(labels) -> LabelledGraph:
    n = len(labels) + 1
    vertices = [f"v{i}" for i in range(n)]
    edges = [(vertices[i], vertices[i + 1], labels[i]) for i in range(len(labels))]
    return LabelledGraph(vertices, edges)


def cycle_graph(labels) -> LabelledGraph:
    n = len(labels)
    vertices = [f"v{i}" for i in range(n)]
    edges = [(vertices[i], vertices[(i + 1) % n], labels[i]) for i in range(n)]
    return LabelledGraph(vertices, edges)


def complete_graph(n, label=2) -> LabelledGraph:
    vertices = [f"v{i}" for i in range(n)]
    return LabelledGraph(vertices, [(vertices[i], vertices[j], label)
                                    for i, j in combinations(range(n), 2)])


def random_tree(rng, n_min=1, n_max=12, label_range=(2, 6)) -> LabelledGraph:
    n = rng.randint(n_min, n_max)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((vertices[rng.randrange(i)], vertices[i], rng.randint(*label_range)))
    return LabelledGraph(vertices, edges)


def hex_chain(h, rng=None, label_range=(2, 6)) -> LabelledGraph:
    """h fused hexagons in a row: two paths of 2h+1 vertices with rungs at
    every even position.  Planar, girth 6."""
    top = [f"t{i}" for i in range(2 * h + 1)]
    bot = [f"b{i}" for i in range(2 * h + 1)]

    def lab():
        return rng.randint(*label_range) if rng is not None else 2

    edges = []
    for i in range(2 * h):
        edges.append((top[i], top[i + 1], lab()))
        edges.append((bot[i], bot[i + 1], lab()))
    for i in range(0, 2 * h + 1, 2):
        edges.append((top[i], bot[i], lab()))
    return LabelledGraph(top + bot, edges)


# ---------------------------------------------------------------------------
# brute-force graph oracles


def brute_girth(g: LabelledGraph):
    """Oracle: exhaustive simple-cycle search by DFS over index-increasing
    start vertices."""
    n = g.num_vertices
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = {i: [index[w] for w in g.neighbors(g.vertices[i])] for i in range(n)}
    best = math.inf

    def extend(start, current, visited, length):
        nonlocal best
        if length + 1 >= best:
            return
        for nxt in adj[current]:
            if nxt == start and length >= 2:
                best = min(best, length + 1)
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                extend(start, nxt, visited, length + 1)
                visited.discard(nxt)

    for start in range(n):
        extend(start, start, {start}, 0)
    return best


def reference_reduction_order(g: LabelledGraph) -> tuple[str, ...]:
    """Oracle: the greedy 2-degeneracy elimination by a full rescan per
    step (quadratic): repeatedly remove the smallest-index vertex of
    current degree <= 2; when none is left, return the vertices removed
    so far."""
    n = g.num_vertices
    index = {v: i for i, v in enumerate(g.vertices)}
    alive = [True] * n
    deg = [degree(g, v) for v in g.vertices]
    order = []
    for _ in range(n):
        pick = next((i for i in range(n) if alive[i] and deg[i] <= 2), -1)
        if pick == -1:
            break
        alive[pick] = False
        order.append(g.vertices[pick])
        for w in g.neighbors(g.vertices[pick]):
            j = index[w]
            if alive[j]:
                deg[j] -= 1
    return tuple(order)


def _simple_paths(adj, src, dst, banned, max_len):
    """All simple src->dst paths avoiding `banned` in the interior; yields
    frozensets of interior vertices."""
    out = []

    def walk(current, visited, interior):
        if len(interior) > max_len:
            return
        for nxt in adj[current]:
            if nxt == dst:
                out.append(frozenset(interior))
            elif nxt not in visited and nxt not in banned and nxt != src:
                visited.add(nxt)
                interior.append(nxt)
                walk(nxt, visited, interior)
                interior.pop()
                visited.discard(nxt)

    walk(src, {src}, [])
    return out


def _has_subdivision(g: LabelledGraph, branch_sets, pattern_edges) -> bool:
    n = g.num_vertices
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = {i: [index[w] for w in g.neighbors(g.vertices[i])] for i in range(n)}

    def assign(edge_idx, used, branch):
        if edge_idx == len(pattern_edges):
            return True
        a, b = pattern_edges[edge_idx]
        u, v = branch[a], branch[b]
        banned = (set(branch) - {u, v}) | used
        for interior in _simple_paths(adj, u, v, banned, n):
            if interior & used:
                continue
            if assign(edge_idx + 1, used | interior, branch):
                return True
        return False

    for branch in branch_sets:
        if assign(0, set(), branch):
            return True
    return False


def brute_planar(g: LabelledGraph) -> bool:
    """Oracle: no subdivision of K5 or K3,3 (Kuratowski)."""
    n = g.num_vertices
    verts = list(range(n))
    k5_patterns = [tuple(branch) for branch in combinations(verts, 5)]
    if _has_subdivision(g, k5_patterns, list(combinations(range(5), 2))):
        return False
    k33_edges = [(i, j + 3) for i in range(3) for j in range(3)]
    k33_branches = []
    for six in combinations(verts, 6):
        for left in combinations(range(6), 3):
            if 0 not in left:
                continue  # fix side of vertex six[0] to kill the mirror symmetry
            right = [k for k in range(6) if k not in left]
            k33_branches.append(tuple(six[k] for k in left) + tuple(six[k] for k in right))
    if _has_subdivision(g, k33_branches, k33_edges):
        return False
    return True


# ---------------------------------------------------------------------------
# exact linear algebra oracle


def det_int(matrix) -> int:
    """Fraction-free (Bareiss) integer determinant."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minors_gcd(matrix, k: int) -> int:
    """Oracle: gcd of all k x k minors (0 when all vanish)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    g = 0
    for rows in combinations(range(nrows), k):
        for cols in combinations(range(ncols), k):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            g = math.gcd(g, abs(det_int(sub)))
    return g


def brute_sl2_order(n: int) -> int:
    """Oracle: count 2x2 matrices over Z/n with determinant 1."""
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1 % n:
                        count += 1
    return count


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration, relator-based (HLT) with lookahead, and
# Coxeter presentations: no command reaches them, so they live here as
# oracles that build the subgroup tables the tests need.
#
# The scan/define/coincidence machinery follows the classical description
# in Holt, Eick, O'Brien, "Handbook of Computational Group Theory", ch. 5.
# Enumeration is deterministic: cosets are processed in increasing order,
# relators in declaration order, and the finished table is standardized by
# breadth-first renumbering from the subgroup coset, so equal inputs always
# produce byte-identical tables.


def coxeter_presentation(g: LabelledGraph) -> Presentation:
    """Artin presentation plus squared generators; with the involutions the
    edge relators take the form (a_u a_v)^label."""
    index = {v: i + 1 for i, v in enumerate(g.vertices)}
    relators = [[index[v], index[v]] for v in g.vertices]
    for u, v, lab in g.edges():
        relators.append(_alternating(index[u], index[v], 2 * lab))
    return Presentation(g.vertices, relators)


class _LimitHit(Exception):
    pass


class _Enumerator:
    def __init__(self, pres: Presentation, subgroup_cols, coset_limit: int):
        self.pres = pres
        self.ncols = 2 * pres.num_generators
        self.relator_cols = [word_to_cols(r) for r in pres.relators]
        self.subgroup_cols = list(subgroup_cols)
        self.limit = coset_limit
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]
        self.live = 1

    # -- union-find ---------------------------------------------------

    def rep(self, k: int) -> int:
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while k != l:
            p[k], k = l, p[k]
        return l

    def _merge(self, k: int, l: int, queue: list[int]) -> None:
        k, l = self.rep(k), self.rep(l)
        if k != l:
            mu, nu = min(k, l), max(k, l)
            self.p[nu] = mu
            self.live -= 1
            queue.append(nu)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        i = 0
        while i < len(queue):
            gamma = queue[i]
            i += 1
            for col in range(self.ncols):
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                self.table[delta][inv_col(col)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.table[mu][col], queue)
                elif self.table[nu][inv_col(col)] is not None:
                    self._merge(mu, self.table[nu][inv_col(col)], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][inv_col(col)] = mu

    # -- definitions and scanning --------------------------------------

    def define(self, alpha: int, col: int) -> None:
        if self.live >= self.limit:
            raise _LimitHit
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.live += 1
        self.table[alpha][col] = beta
        self.table[beta][inv_col(col)] = alpha

    def scan(self, alpha: int, cols, fill: bool) -> None:
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][inv_col(cols[j])] is not None:
                b = table[b][inv_col(cols[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closing the gap
                table[f][cols[i]] = b
                table[b][inv_col(cols[i])] = f
                return
            if not fill:
                return
            self.define(f, cols[i])

    def lookahead(self) -> None:
        for alpha in range(len(self.table)):
            if self.p[alpha] != alpha:
                continue
            for cols in self.relator_cols:
                if self.p[alpha] != alpha:
                    break
                self.scan(alpha, cols, fill=False)

    # -- main loop ------------------------------------------------------

    def run(self) -> list[list[int]]:
        for cols in self.subgroup_cols:
            self._guarded(0, cols)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            try:
                for cols in self.relator_cols:
                    if self.p[alpha] != alpha:
                        break
                    self.scan(alpha, cols, fill=True)
                if self.p[alpha] == alpha:
                    for col in range(self.ncols):
                        if self.table[alpha][col] is None:
                            self.define(alpha, col)
                alpha += 1
            except _LimitHit:
                before = self.live
                self.lookahead()
                if self.live >= self.limit or self.live >= before:
                    raise EnumerationLimit(self.live, self.limit, "live cosets") from None
                # retry the same coset after the lookahead freed space
        return self._compressed()

    def _guarded(self, alpha: int, cols) -> None:
        while True:
            try:
                self.scan(alpha, cols, fill=True)
                return
            except _LimitHit:
                before = self.live
                self.lookahead()
                if self.live >= self.limit or self.live >= before:
                    raise EnumerationLimit(self.live, self.limit, "live cosets") from None

    def _compressed(self) -> list[list[int]]:
        live = [k for k in range(len(self.table)) if self.p[k] == k]
        new_of_old = {old: new for new, old in enumerate(live)}
        rows = []
        for old in live:
            row = []
            for col in range(self.ncols):
                entry = self.table[old][col]
                if entry is None:
                    raise RuntimeError("internal error: incomplete table after enumeration")
                row.append(new_of_old[self.rep(entry)])
            rows.append(row)
        return rows


def todd_coxeter(pres: Presentation, subgroup=(), coset_limit: int = 100_000) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the given words.

    Returns the standardized complete table, or raises EnumerationLimit
    (inconclusive) when more than coset_limit live cosets would be needed.
    Subgroup generators may be words (tuples of signed indices) or strings
    in the presentation's token format.
    """
    if coset_limit < 1:
        raise ValueError("coset_limit must be >= 1")
    words = []
    for w in subgroup:
        if isinstance(w, str):
            w = word_from_tokens(pres, w.split())
        else:
            w = free_reduce(w)
        for x in w:
            if not 1 <= abs(x) <= pres.num_generators:
                raise ValueError(f"subgroup word letter {x} out of range")
        words.append(w)
    enum = _Enumerator(pres, [word_to_cols(w) for w in words], coset_limit)
    rows = enum.run()
    table = CosetTable(generators=pres.generators, rows=standardize_rows(rows))
    table.validate(pres)
    for w in words:
        if table.trace(0, w) != 0:
            raise ValueError("subgroup generator word moves the subgroup coset")
    return table


# ---------------------------------------------------------------------------
# reference Reidemeister-Schreier


def _edge_of(table: CosetTable, coset: int, col: int) -> tuple[int, int]:
    """An entry's edge, named by its (source coset, generator column)."""
    if col % 2 == 0:
        return (coset, col)
    return (table.rows[coset][col], col - 1)


def reference_tree(table: CosetTable, reverse: bool = False):
    """Breadth-first spanning tree from coset 0, the columns in forward or
    reverse order: (tree edges, transversal words u_c, non-tree edges in
    (coset, generator) order)."""
    ncols = 2 * len(table.generators)
    col_order = range(ncols - 1, -1, -1) if reverse else range(ncols)
    tree: set[tuple[int, int]] = set()
    transversal: dict[int, Word] = {0: ()}
    level = [0]
    while level:
        below = []
        for a in level:
            for col in col_order:
                b = table.rows[a][col]
                if b not in transversal:
                    letter = col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1)
                    transversal[b] = transversal[a] + (letter,)
                    tree.add(_edge_of(table, a, col))
                    below.append(b)
        level = below
    edges = [(c, col) for c in range(table.index) for col in range(0, ncols, 2)
             if (c, col) not in tree]
    return tree, [transversal[c] for c in range(table.index)], edges


def schreier_words(table: CosetTable) -> list[Word]:
    """The word u_a g u_b^-1 in the ambient generators for each non-tree
    edge a -g-> b of the forward tree, in generator order."""
    _, transversal, edges = reference_tree(table)
    return [free_reduce(transversal[c] + (col // 2 + 1,)
                        + invert_word(transversal[table.rows[c][col]]))
            for c, col in edges]


# Every relator from every coset, proper powers included.  The library
# drops the rewrites of a proper power that are rotations of an earlier
# one; Tietze must not see the difference.
def reference_reidemeister_schreier(pres: Presentation, table: CosetTable,
                                    reverse: bool = False) -> Presentation:
    """Presentation of the subgroup a complete coset table describes, over
    reference_tree(table, reverse).

    Generators: one per non-tree edge of the coset graph, named s1, s2,...
    in (coset, generator) order.  Relators: every relator of the ambient
    presentation rewritten from every coset, freely reduced, nonempty.
    """
    tree, _, edges = reference_tree(table, reverse)
    gen_index = {edge: k for k, edge in enumerate(edges, start=1)}

    def rewrite(start: int, word) -> Word:
        out = []
        coset = start
        for x in word:
            col = letter_to_col(x)
            eid = _edge_of(table, coset, col)
            if eid not in tree:
                out.append(gen_index[eid] if col % 2 == 0 else -gen_index[eid])
            coset = table.rows[coset][col]
        return free_reduce(out)

    relators = []
    for coset in range(table.index):
        for rel in pres.relators:
            w = rewrite(coset, rel)
            if w:
                relators.append(w)
    names = tuple(f"s{i}" for i in range(1, len(edges) + 1))
    return Presentation(names, relators)


# ---------------------------------------------------------------------------
# reference Tietze simplification


# The original whole-list Tietze pass: every step re-reduces, re-keys and
# re-sorts every relator.  The incremental library version must make the
# same elimination choices, so its output is compared to this one exactly.
def _rotation_key(word: Word) -> Word:
    candidates = []
    for w in (word, invert_word(word)):
        for k in range(len(w)):
            candidates.append(w[k:] + w[:k])
    return min(candidates) if candidates else word


def _substitute(word: Word, gen: int, replacement: Word) -> Word:
    inv_repl = invert_word(replacement)
    out: list[int] = []
    for x in word:
        if x == gen:
            out.extend(replacement)
        elif x == -gen:
            out.extend(inv_repl)
        else:
            out.append(x)
    return free_reduce(out)


def _renumber(word: Word, removed: int) -> Word:
    return tuple(x - 1 if x > removed else (x + 1 if x < -removed else x) for x in word)


def reference_tietze_simplify(pres: Presentation) -> Presentation:
    """Iteratively eliminate generators occurring exactly once in a relator.

    Each pass cyclically reduces relators, drops empties and duplicates (up
    to rotation and inversion), then eliminates through the shortest
    eligible relator.  Deterministic; stops at a fixpoint.
    """
    names = list(pres.generators)
    relators = [cyclic_reduce(r) for r in pres.relators]

    while True:
        relators = [cyclic_reduce(r) for r in relators if cyclic_reduce(r)]
        seen: set[Word] = set()
        deduped = []
        for r in relators:
            key = _rotation_key(r)
            if key not in seen:
                seen.add(key)
                deduped.append(r)
        relators = deduped

        target = None
        for ridx in sorted(range(len(relators)), key=lambda k: (len(relators[k]), k)):
            counts: dict[int, int] = {}
            for x in relators[ridx]:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            once = [g for g, c in counts.items() if c == 1]
            if once:
                target = (ridx, min(once))
                break
        if target is None:
            break

        ridx, gen = target
        rel = relators[ridx]
        pos = next(i for i, x in enumerate(rel) if abs(x) == gen)
        u, v = rel[:pos], rel[pos + 1:]
        if rel[pos] > 0:
            # u g v = 1  =>  g = u^-1 v^-1
            replacement = free_reduce(invert_word(u) + invert_word(v))
        else:
            # u g^-1 v = 1  =>  g = v u
            replacement = free_reduce(v + u)
        del relators[ridx]
        relators = [_substitute(r, gen, replacement) for r in relators]
        relators = [_renumber(r, gen) for r in relators]
        del names[gen - 1]

    return Presentation(tuple(names), relators)


# ---------------------------------------------------------------------------
# reference low-index search


# The original search: enumerate every subgroup of index <= max_index by
# unpruned backtracking, then keep the regular actions.  The pruned library
# search must return exactly these tables, in the same order.
REFERENCE_HARD_CAP = 64


def reference_low_index_normal(pres: Presentation, max_index: int) -> list[CosetTable]:
    """All normal subgroups of index <= max_index, as coset tables sorted
    by (index, table).  Index 1 (the whole group) is included."""
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if max_index > REFERENCE_HARD_CAP:
        raise ValueError(f"max_index {max_index} exceeds the hard cap {REFERENCE_HARD_CAP}")
    ncols = 2 * pres.num_generators
    relator_cols = [word_to_cols(r) for r in pres.relators]

    complete: dict[tuple, CosetTable] = {}

    def propagate(table) -> bool:
        """Deduction closure: scan every relator at every coset, filling
        single gaps; False on contradiction."""
        changed = True
        while changed:
            changed = False
            for alpha in range(len(table)):
                for cols in relator_cols:
                    state = _scan(table, alpha, cols)
                    if state == "dead":
                        return False
                    if state == "deduced":
                        changed = True
        return True

    def first_hole(table):
        for alpha in range(len(table)):
            for col in range(ncols):
                if table[alpha][col] is None:
                    return alpha, col
        return None

    def search(table):
        if not propagate(table):
            return
        hole = first_hole(table)
        if hole is None:
            rows = standardize_rows([list(r) for r in table])
            if rows not in complete:
                complete[rows] = CosetTable(generators=pres.generators, rows=rows)
            return
        alpha, col = hole
        candidates = [b for b in range(len(table)) if table[b][inv_col(col)] is None]
        if len(table) < max_index:
            candidates.append(len(table))
        for beta in candidates:
            branch = [row[:] for row in table]
            if beta == len(table):
                branch.append([None] * ncols)
            branch[alpha][col] = beta
            branch[beta][inv_col(col)] = alpha
            search(branch)

    search([[None] * ncols])

    out = []
    for rows, table in complete.items():
        if _is_regular(table):
            table.validate(pres)
            out.append(table)
    out.sort(key=lambda t: (t.index, t.rows))
    return out


def _scan(table, alpha: int, cols) -> str:
    """Scan one relator at one coset on a partial table.

    Returns "dead" on contradiction, "deduced" when a single gap was
    filled, "ok" otherwise (complete or still open).
    """
    f, i = alpha, 0
    b, j = alpha, len(cols) - 1
    while i <= j and table[f][cols[i]] is not None:
        f = table[f][cols[i]]
        i += 1
    if i > j:
        return "ok" if f == b else "dead"
    while j >= i and table[b][inv_col(cols[j])] is not None:
        b = table[b][inv_col(cols[j])]
        j -= 1
    if j < i:
        return "dead"
    if j == i:
        existing = table[f][cols[i]]
        if existing is not None:
            return "ok" if existing == b else "dead"
        back = table[b][inv_col(cols[i])]
        if back is not None:
            return "ok" if back == f else "dead"
        table[f][cols[i]] = b
        table[b][inv_col(cols[i])] = f
        return "deduced"
    return "ok"


def _is_regular(table: CosetTable) -> bool:
    """True when the permutation group generated by the generator columns
    has order exactly the index (closure capped just above it)."""
    k = table.index
    gens = [tuple(row[2 * g] for row in table.rows) for g in range(len(table.generators))]
    identity = tuple(range(k))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for q in frontier:
            for p in gens:
                prod = tuple(p[x] for x in q)
                if prod not in seen:
                    if len(seen) >= k:
                        return False
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen) == k


# ---------------------------------------------------------------------------
# reference kernel tables: closure of the image group under right
# multiplication by the generator images, O(|G|^2) but valid for any
# permutation images.  The library builds the point-0 Schreier graph of a
# regular action instead, and must give exactly these tables.

Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left: apply p first, then q."""
    return tuple(q[x] for x in p)


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _check_perm(p, degree) -> Perm:
    p = tuple(p)
    if sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {p!r}")
    return p


def reference_cayley_table(pres: Presentation, images: dict[str, Perm],
                           limit: int | None = None) -> CosetTable:
    """Coset table of the kernel of the map sending generators to the given
    permutations: the right-multiplication action on the image group.

    Checks first that every relator maps to the identity permutation.
    With a limit, closure enumeration past that many image elements raises
    EnumerationLimit (inconclusive) instead of growing without bound.
    """
    if set(images) != set(pres.generators):
        raise ValueError("images must cover exactly the presentation's generators")
    if not pres.generators:
        return CosetTable(generators=(), rows=((),))
    degree = len(next(iter(images.values())))
    gen_perms = [_check_perm(images[name], degree) for name in pres.generators]
    identity = tuple(range(degree))
    inv_perms = [_invert(p) for p in gen_perms]

    for rel in pres.relators:
        img = identity
        for x in rel:
            img = _compose(img, gen_perms[x - 1] if x > 0 else inv_perms[-x - 1])
        if img != identity:
            raise NotHomomorphism(pres.word_to_text(rel))

    elements: list[Perm] = [identity]
    index_of: dict[Perm, int] = {identity: 0}
    rows: list[list[int]] = []
    i = 0
    while i < len(elements):
        q = elements[i]
        row = []
        for g in range(len(gen_perms)):
            for p in (gen_perms[g], inv_perms[g]):
                target = _compose(q, p)
                if target not in index_of:
                    if limit is not None and len(elements) >= limit:
                        raise EnumerationLimit(len(elements), limit, "live cosets")
                    index_of[target] = len(elements)
                    elements.append(target)
                row.append(index_of[target])
        rows.append(row)
        i += 1

    table = CosetTable(generators=pres.generators, rows=standardize_rows(rows))
    table.validate(pres)
    return table


# ---------------------------------------------------------------------------
# the recursive expression evaluator and parser, kept verbatim (renamed) as
# oracles for the iterative ones: they re-walk subtrees and re-print whole
# subexpressions, so they are quadratic, and they recurse once or twice per
# level, so keep their inputs shallow


# Subgroup leaves the reference evaluator takes as betti1 = 0 witnesses
# without evaluating them.
AMENABLE_LEAF_KINDS = (TrivialGroup, Cyclic, IntegersZ, FreeAbelian, Amenable)


def reference_infer_order(e: GroupExpr) -> GroupOrder | None:
    """Best-effort group order of an expression; None when undetermined.

    Amalgams and generations are treated as infinite: an amalgam is proper
    unless its subgroup's order is undetermined or reaches a factor's order
    (flagged as degenerate and left undetermined), and a generation node
    contains its infinite intersection.
    """
    if isinstance(e, TrivialGroup):
        return GroupOrder(1)
    if isinstance(e, Cyclic):
        return GroupOrder(e.n)
    if isinstance(e, (IntegersZ, Free, FreeAbelian, Surface, ArtinGraph)):
        return INFINITE
    if isinstance(e, Amenable):
        return e.order
    if isinstance(e, CoxeterGraph):
        from rgcost.coxeter import coxeter_order

        try:
            return coxeter_order(e.graph)
        except GraphError:
            return None
    if isinstance(e, AmalgamFinite):
        lo, ro = reference_infer_order(e.left), reference_infer_order(e.right)
        if _reference_degenerate_amalgam(lo, ro, GroupOrder(e.amalgam_order)):
            return None
        return INFINITE
    if isinstance(e, AmalgamAmenable):
        lo, ro = reference_infer_order(e.left), reference_infer_order(e.right)
        if _reference_degenerate_amalgam(lo, ro, reference_infer_order(e.amalgam)):
            return None
        return INFINITE
    if isinstance(e, Generation):
        return INFINITE
    return None


def _reference_degenerate_amalgam(left: GroupOrder | None, right: GroupOrder | None,
                                  amalgam: GroupOrder | None) -> bool:
    """True when the subgroup order is undetermined or reaches a factor's
    order, so the amalgam may not properly split and the amalgam formulas
    may fail."""
    if amalgam is None:
        return True
    if not amalgam.is_finite:
        return False
    for side in (left, right):
        if side is not None and side.is_finite and amalgam.value >= side.value:
            return True
    return False


def _reference_unknown_from(*values, fallback: str) -> Unknown:
    for v in values:
        if isinstance(v, Unknown):
            return v
    return Unknown(fallback)


def reference_evaluate(e: GroupExpr) -> PriceResult:
    """Evaluate cost, rank gradient and betti1 for an expression.

    Each applied rule appends a trace entry naming the rule and subterm.
    fixed_price is True exactly when a cost rule fired; every rule of the
    calculus yields fixed price.
    """
    trace: list[str] = []
    cost, betti = _reference_eval(e, trace)
    return PriceResult(cost=cost, betti1=betti, rule_trace=trace)


def _reference_eval(e: GroupExpr, trace: list[str]) -> tuple[Fraction | Unknown, Fraction | Unknown]:
    """Recursive evaluation returning (cost, betti1)."""
    d = e.describe()

    if isinstance(e, TrivialGroup):
        trace.append(f"finite-price {d}: cost 0, betti1 0")
        return Fraction(0), Fraction(0)

    if isinstance(e, Cyclic):
        c = 1 - Fraction(1, e.n)
        trace.append(f"finite-price {d}: cost 1 - 1/{e.n} = {c}, betti1 0")
        return c, Fraction(0)

    if isinstance(e, Amenable):
        if e.order.is_finite:
            c = 1 - Fraction(1, e.order.value)
            trace.append(f"finite-price {d}: cost {c}, betti1 0")
            return c, Fraction(0)
        trace.append(f"amenable-price {d}: cost 1, betti1 0")
        return Fraction(1), Fraction(0)

    if isinstance(e, (IntegersZ, FreeAbelian)):
        trace.append(f"amenable-price {d}: cost 1, betti1 0")
        return Fraction(1), Fraction(0)

    if isinstance(e, Free):
        c = Fraction(e.rank)
        trace.append(f"free-price {d}: cost {c}, betti1 {c - 1}")
        return c, c - 1

    if isinstance(e, Surface):
        c = Fraction(2 * e.genus - 1)
        trace.append(f"surface-price {d}: cost {c}, betti1 {c - 1}")
        return c, c - 1

    if isinstance(e, ArtinGraph):
        b = len(components(e.graph))
        trace.append(
            f"artin-components-price {d}: {b} component(s), cost {b}, betti1 {b - 1}"
        )
        return Fraction(b), Fraction(b - 1)

    if isinstance(e, CoxeterGraph):
        return _reference_eval_coxeter_leaf(e, trace)

    if isinstance(e, AmalgamFinite):
        lc, lb = _reference_eval(e.left, trace)
        rc, rb = _reference_eval(e.right, trace)
        m = e.amalgam_order
        c_sub = 1 - Fraction(1, m)
        if is_known(lc) and is_known(rc):
            cost = lc + rc - c_sub
            trace.append(f"amalgam-price {d}: cost {lc} + {rc} - {c_sub} = {cost}")
        else:
            cost = _reference_unknown_from(lc, rc, fallback="factor cost unknown")
        betti = _reference_amalgam_betti(
            e, lb, rb, reference_infer_order(e.left), reference_infer_order(e.right),
            GroupOrder(m), Fraction(0), trace,
        )
        return cost, betti

    if isinstance(e, AmalgamAmenable):
        lc, lb = _reference_eval(e.left, trace)
        rc, rb = _reference_eval(e.right, trace)
        sub_betti = _reference_betti_zero_witness(e.amalgam)
        if sub_betti is None:
            reason = f"amalgam subgroup {e.amalgam.describe()} carries no betti1 = 0 witness"
            trace.append(f"rule-not-applicable {d}: {reason}")
            return Unknown(reason), Unknown(reason)
        sub_order = reference_infer_order(e.amalgam)
        c_sub = 1 - recip_order(sub_order)
        if is_known(lc) and is_known(rc):
            cost = lc + rc - c_sub
            trace.append(f"amalgam-price {d}: cost {lc} + {rc} - {c_sub} = {cost}")
        else:
            cost = _reference_unknown_from(lc, rc, fallback="factor cost unknown")
        betti = _reference_amalgam_betti(
            e, lb, rb, reference_infer_order(e.left), reference_infer_order(e.right),
            sub_order, sub_betti, trace,
        )
        return cost, betti

    if isinstance(e, Generation):
        lc, lb = _reference_eval(e.left, trace)
        rc, rb = _reference_eval(e.right, trace)
        if is_known(lc) and is_known(rc) and lc == 1 and rc == 1:
            trace.append(
                f"generation-price {d}: both factors have price 1; "
                f"intersection justification: {e.justification}"
            )
            # Gradient sandwich: the sum bound gives rg <= 0 while
            # betti1 >= 0 bounds it below, so rg = betti1 = 0.
            trace.append(
                f"generation-sandwich {d}: gradient upper bound 0 meets betti1 lower bound 0"
            )
            return Fraction(1), Fraction(0)
        if is_known(lc) and is_known(rc):
            reason = f"generation rule needs both factors of price 1 (got {lc} and {rc})"
        else:
            reason = _reference_unknown_from(lc, rc, fallback="factor cost unknown").reason
        trace.append(f"rule-not-applicable {d}: {reason}")
        return Unknown(reason), Unknown(reason)

    raise TypeError(f"unsupported expression node {type(e).__name__}")


def _reference_eval_coxeter_leaf(e: CoxeterGraph, trace: list[str]):
    from rgcost.coxeter import HypothesisError, rg_coxeter_planar

    try:
        price, _ = rg_coxeter_planar(e.graph)
    except HypothesisError as exc:
        reason = f"coxeter graph outside supported class: {exc}"
        trace.append(f"rule-not-applicable {e.describe()}: {reason}")
        return Unknown(reason), Unknown(reason)
    trace.append(
        f"coxeter-planar-girth6 {e.describe()}: cost {price.cost}, betti1 {price.betti1}"
    )
    return price.cost, price.betti1


def _reference_betti_zero_witness(sub: GroupExpr) -> Fraction | None:
    """Betti1 of an amalgamated subgroup when it demonstrably vanishes.

    Accepts amenable-kind leaves, finite leaves, or any subexpression whose
    evaluated betti1 is exactly 0.  Returns None when no witness exists.
    """
    if isinstance(sub, AMENABLE_LEAF_KINDS):
        return Fraction(0)
    side_trace: list[str] = []
    _, b = _reference_eval(sub, side_trace)
    if is_known(b) and b == 0:
        return Fraction(0)
    return None


def _reference_amalgam_betti(e, lb, rb, left_order, right_order, amalgam_order, sub_betti, trace):
    """First L2-Betti number of an amalgam over a betti1 = 0 subgroup:
    betti1(left) - 1/|left| + betti1(right) - 1/|right| + 1/|subgroup|."""
    d = e.describe()
    if _reference_degenerate_amalgam(left_order, right_order, amalgam_order):
        reason = (
            "degenerate amalgam: declared subgroup order reaches a factor order, "
            "so the splitting formula does not apply"
        )
        trace.append(f"rule-not-applicable {d}: {reason}")
        return Unknown(reason)
    if not (is_known(lb) and is_known(rb)):
        return _reference_unknown_from(lb, rb, fallback="factor betti1 unknown")
    if left_order is None or right_order is None:
        reason = "factor order undetermined"
        trace.append(f"rule-not-applicable {d}: {reason}")
        return Unknown(reason)
    value = lb - recip_order(left_order) + rb - recip_order(right_order) + recip_order(amalgam_order)
    trace.append(
        f"amalgam-betti {d}: {lb} - {recip_order(left_order)} + {rb} - "
        f"{recip_order(right_order)} + {recip_order(amalgam_order)} = {value}"
    )
    return value


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "atom", "string"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    """The reference parser's own tokenizer: one character at a time."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
        elif c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ExprParseError("unterminated string", start_line, start_col)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ExprParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
        else:
            start_line, start_col = line, col
            buf = []
            while i < n and text[i] not in ' \t\r\n();"':
                buf.append(text[i])
                i += 1
                col += 1
            tokens.append(_Token("atom", "".join(buf), start_line, start_col))
    return tokens


# The number of arguments each head takes, written out here rather than
# read from the node classes.
REFERENCE_ARITY = {
    "trivial": 0, "z": 0, "cyclic": 1, "free": 1, "free-abelian": 1, "surface": 1,
    "amenable": 2, "artin": 1, "coxeter": 1, "amalgam-finite": 3, "amalgam-amenable": 3,
    "generation": 3,
}


class _ReferenceParser:
    def __init__(self, tokens: list[_Token], base_dir: str):
        self.tokens = tokens
        self.pos = 0
        self.base_dir = base_dir

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("atom", "", 1, 1)
            raise ExprParseError("unexpected end of input", last.line, last.col)
        if expect is not None and tok.kind != expect:
            raise ExprParseError(f"expected {expect}, got {reference_quote(tok.text)}",
                                 tok.line, tok.col)
        self.pos += 1
        return tok

    def parse(self) -> ge.GroupExpr:
        expr = self._expr()
        trailing = self._peek()
        if trailing is not None:
            raise ExprParseError(
                f"trailing input {reference_quote(trailing.text)}", trailing.line, trailing.col
            )
        return expr

    def _expr(self) -> ge.GroupExpr:
        tok = self._next()
        if tok.kind == "atom":
            if tok.text == "z":
                return ge.IntegersZ()
            if tok.text == "trivial":
                return ge.TrivialGroup()
            raise ExprParseError(f"unknown atom {reference_quote(tok.text)}", tok.line, tok.col)
        if tok.kind != "(":
            raise ExprParseError(f"expected expression, got {reference_quote(tok.text)}",
                                 tok.line, tok.col)
        head = self._next("atom")
        try:
            expr = self._form(head)
        except ValueError as exc:
            if isinstance(exc, ExprParseError):
                raise
            raise ExprParseError(str(exc), head.line, head.col) from None
        close = self._next()
        if close.kind != ")":
            n = REFERENCE_ARITY[head.text]
            raise ExprParseError(
                f"{head.text} takes {n} argument{'' if n == 1 else 's'}, "
                f"got {reference_quote(close.text)}", close.line, close.col)
        return expr

    def _form(self, head: _Token) -> ge.GroupExpr:
        name = head.text
        if name == "trivial":
            return ge.TrivialGroup()
        if name == "z":
            return ge.IntegersZ()
        if name == "cyclic":
            return ge.Cyclic(self._int("cyclic n", minimum=2))
        if name == "free":
            return ge.Free(self._int("free rank", minimum=1))
        if name == "free-abelian":
            return ge.FreeAbelian(self._int("free-abelian rank", minimum=1))
        if name == "surface":
            return ge.Surface(self._int("surface genus", minimum=2))
        if name == "amenable":
            tag = self._next("string").text
            return ge.Amenable(tag, self._order("amenable order"))
        if name in ("artin", "coxeter"):
            path_tok = self._next("string")
            graph = self._graph(path_tok)
            return ge.ArtinGraph(graph) if name == "artin" else ge.CoxeterGraph(graph)
        if name == "amalgam-finite":
            left = self._expr()
            right = self._expr()
            return ge.AmalgamFinite(left, right, self._int("amalgam-finite amalgam_order", 1))
        if name == "amalgam-amenable":
            left = self._expr()
            right = self._expr()
            return ge.AmalgamAmenable(left, right, self._expr())
        if name == "generation":
            left = self._expr()
            right = self._expr()
            justification = self._next("string").text
            return ge.Generation(left, right, justification)
        raise ExprParseError(f"unknown construction {reference_quote(name)}",
                             head.line, head.col)

    def _graph(self, path_tok: _Token) -> LabelledGraph:
        """The graph file named by `path_tok`; its errors are reported at
        the path."""
        name = path_tok.text
        try:
            with open(os.path.join(self.base_dir, name), encoding="utf-8") as fh:
                return parse_graph(fh.read())
        except OSError as exc:
            message = f"cannot read graph file {reference_quote(name)}: {exc.strerror}"
        except ValueError as exc:
            message = f"graph file {reference_quote(name)}: {exc}"
        except LimitExceeded as exc:
            raise LimitExceeded(f"line {path_tok.line}, col {path_tok.col}: "
                                f"graph file {reference_quote(name)}: {exc}") from None
        raise ExprParseError(message, path_tok.line, path_tok.col)

    def _int(self, what: str, minimum: int) -> int:
        return self._count(self._next("atom"), what, minimum)

    def _order(self, what: str) -> ge.GroupOrder:
        tok = self._next("atom")
        return ge.INFINITE if tok.text == "inf" else ge.GroupOrder(self._count(tok, what, 1))

    def _count(self, tok: _Token, what: str, minimum: int) -> int:
        """The integer `tok` names, through `reference_count`."""
        value = reference_count(tok.text, minimum, None)
        if value is ValueError:
            if re.fullmatch(r"[+-]?[0-9]+", tok.text):
                message = f"{what} must be >= {minimum}"
            else:
                message = f"{what} must be an integer, not {reference_quote(tok.text)}"
            raise ExprParseError(message, tok.line, tok.col)
        if value is LimitExceeded:
            digits = len(tok.text.lstrip("+-").lstrip("0"))
            raise LimitExceeded(f"line {tok.line}, col {tok.col}: {what} of {digits} "
                                "digits is past every limit")
        return value


def reference_parse_expr(text: str, base_dir: str = ".") -> ge.GroupExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise ExprParseError("empty expression", 1, 1)
    return _ReferenceParser(tokens, base_dir).parse()


# ---------------------------------------------------------------------------
# the evaluator of the amalgamation-closed class, moved out of the library
# because no command reaches it: it recurses, prints a full describe() at
# every amalgam and re-checks the Coxeter hypotheses at every leaf


CHAIN_QUALIFIER = (
    "value holds for every normal chain of finite-index subgroups with trivial intersection"
)

CLASS_C_LEAVES = (
    ge.TrivialGroup,
    ge.Cyclic,
    ge.IntegersZ,
    ge.FreeAbelian,
    ge.Free,
    ge.Surface,
    ge.Amenable,
)


def eval_class_C(e: ge.GroupExpr) -> ge.PriceResult:
    """Evaluate an expression in the amalgamation-closed class.

    The class contains the basic leaves (finite, free abelian, free,
    surface, declared amenable) together with planar girth->=6 Coxeter
    graphs, and is closed under amalgamation over subgroups with vanishing
    betti1.  For these groups the rank gradient equals betti1: over a
    finite subgroup by the amalgam gradient formula, over an infinite one
    because the generation upper bound meets the betti1 lower bound.
    """
    trace: list[str] = []
    problem = _class_c_validate(e, trace)
    if problem is not None:
        unknown = ge.Unknown(problem)
        return ge.PriceResult(
            cost=unknown,
            betti1=unknown,
            rule_trace=trace + [f"rule-not-applicable: {problem}"],
        )
    inner = ge.evaluate(e)
    if not ge.is_known(inner.betti1):
        return ge.PriceResult(
            cost=inner.betti1,
            betti1=inner.betti1,
            rule_trace=trace + inner.rule_trace,
        )
    value = inner.betti1
    return ge.PriceResult(
        cost=value + 1,
        betti1=value,
        rule_trace=trace + inner.rule_trace + [CHAIN_QUALIFIER],
    )


def _class_c_validate(e: ge.GroupExpr, trace: list[str]) -> str | None:
    """Check membership in the supported class; returns a reason when the
    expression falls outside, appending sandwich notes for infinite
    amalgam subgroups along the way."""
    if isinstance(e, CLASS_C_LEAVES):
        return None
    if isinstance(e, ge.CoxeterGraph):
        gv = girth(e.graph)
        planar = is_planar(e.graph)
        if gv < 6 or not planar:
            return (
                f"coxeter leaf outside the planar girth->=6 class "
                f"({HypothesisError(gv, planar)})"
            )
        return None
    if isinstance(e, ge.AmalgamFinite):
        trace.append(
            f"class-amalgam {e.describe()}: finite subgroup of order {e.amalgam_order}; "
            f"gradient evaluated by the amalgam sum formula"
        )
        return (_class_c_validate(e.left, trace)
                or _class_c_validate(e.right, trace))
    if isinstance(e, ge.AmalgamAmenable):
        if not (isinstance(e.amalgam, AMENABLE_LEAF_KINDS)
                or ge.evaluate(e.amalgam).betti1 == 0):
            return f"amalgam subgroup {e.amalgam.describe()} carries no betti1 = 0 witness"
        if not reference_infer_order(e.amalgam).is_finite:
            trace.append(
                f"class-amalgam {e.describe()}: infinite subgroup; generation upper "
                f"bound meets the betti1 lower bound, pinching the gradient"
            )
        else:
            trace.append(
                f"class-amalgam {e.describe()}: finite subgroup; gradient evaluated "
                f"by the amalgam sum formula"
            )
        return (_class_c_validate(e.left, trace)
                or _class_c_validate(e.right, trace))
    return f"leaf {e.describe()} outside the supported class"


# ---------------------------------------------------------------------------
# helpers over library internals that only the tests call


def infer_order(e: GroupExpr) -> GroupOrder | None:
    """The order `evaluate` gives an expression: `groupexpr._price` applied
    in post-order on an explicit stack, each node from its children's
    (cost, betti1, order)."""
    values: list[tuple] = []
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if node.steps and not ready:
            stack.append((node, True))
            stack += [(getattr(node, step), False) for step in reversed(node.steps)]
            continue
        kids = values[len(values) - len(node.steps):]
        del values[len(values) - len(node.steps):]
        values.append(ge._price(node, kids, ge._ROOT)[:3])
    return values[0][2]


def word_from_tokens(pres: Presentation, tokens) -> Word:
    """The freely reduced word of generator tokens, an inverse written as
    the swapcase of its generator's name, read as a presentation file's
    relator."""
    text = f"gens: {' '.join(pres.generators)}\nrel: {' '.join(tokens)}\n"
    return next(iter(parse_presentation(text).relators), ())


def trace_from_json(text: str) -> CoxeterTrace:
    doc = json.loads(text)
    if doc.get("format") != "rgcost-certificate/1" or doc.get("kind") != "coxeter-trace":
        raise ValueError("not a coxeter trace document")
    steps = tuple(
        EliminationStep(
            vertex=s["vertex"],
            valence=s["valence"],
            labels=tuple(s["labels"]),
            amalgam=s["amalgam"],
            star=tuple(s["star"]),
            contribution=Fraction(s["contribution"]),
        )
        for s in doc["steps"]
    )
    return CoxeterTrace(steps=steps, terminal_correction=Fraction(doc["terminal_correction"]))

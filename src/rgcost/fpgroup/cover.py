"""Exponent kernels of odd-labelled Artin trees, through the infinite
cyclic cover.

Let G be presented on x_1, ..., x_n, every relator of exponent sum 0, and
H_k the kernel of the exponent-sum map G -> Z/k.  Take t = x_1, y_i =
x_i t^-1 and y_(i,h) = t^h y_i t^-h.  A relator read from height 0 lifts
to a word in the y_(i,h), h its exponent height before an x_i and after
an x_i^-1 (y_(1,h) = 1 drops out).  Reidemeister-Schreier on the
transversal t^0, ..., t^(k-1) then presents H_k on y_(i,h), 0 <= h < k,
and tau = t^k, by every lifted relator shifted by s = 0, ..., k - 1, a
letter y_(i,h) with h >= k written tau y_(i,h-k) tau^-1 (Magnus, Karrass
and Solitar, "Combinatorial Group Theory", 1966, section 2.3; Brown,
Invent. Math. 1987).

On the Artin group of a tree whose labels are all odd that presentation
collapses without a k-fold Tietze pass.  The relator of edge {a, b} with
label m lifts to a word in families a and b at heights 0 .. m-1, and each
family's letter at height m-1 occurs once.  So, walking the tree from
x_1, the edge that reaches family i gives y_(i,h+m-1) from y_(i,h .. h+m-2)
and the parent family: shifts s = 0 .. k-m eliminate y_(i,m-1 .. k-1),
leaving the window y_(i,0 .. m-2).  The w = sum (m_e - 1) window
generators and tau present H_k, with relators the wrap relations, shifts
k-m+1 .. k-1 of each edge's relator, where the top letters pass height k.
"""

from __future__ import annotations

from .presentation import Presentation, Word, _alternating, free_reduce, invert_word


def _odd_edge(word: Word) -> tuple[int, int, int] | None:
    """(a, b, m) when `word` is alt(a,b,m) alt(b,a,m)^-1 with m odd, the
    relator `artin_presentation` writes for an edge labelled m; else None."""
    m, odd = divmod(len(word), 2)
    a, b = word[0], -word[-1]
    if odd or m % 2 == 0 or a == b or a < 0 or b < 0:
        return None
    if word != tuple(_alternating(a, b, m)) + invert_word(_alternating(b, a, m)):
        return None
    return a, b, m


def _lift(word: Word) -> list[tuple[int, int, int]]:
    """The word's letters in the cover, (sign, family, height), letters of
    family 1 dropped.  Needs exponent sum 0."""
    out, h = [], 0
    for x in word:
        if x < 0:
            h -= 1
        if abs(x) != 1:
            out.append((1 if x > 0 else -1, abs(x), h))
        if x > 0:
            h += 1
    return out


def _join(pieces) -> tuple[Word, Word]:
    """The freely reduced product of reduced words, each given as a
    (word, inverse) pair, as such a pair.  A piece cancels only from its
    head, against the product's tail, which is the head of the product's
    inverse; the cancelled length is found by bisecting on slice equality,
    so letters are compared and copied whole slices at a time."""
    word, inverse = (), ()
    for w, w_inv in pieces:
        lo, hi = 0, min(len(inverse), len(w))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if inverse[lo:mid] == w[lo:mid]:
                lo = mid
            else:
                hi = mid - 1
        word = word[:len(word) - lo] + w[lo:]
        inverse = w_inv[:len(w_inv) - lo] + inverse[lo:]
    return word, inverse


class OddTreeCover:
    """The plan of eliminations for one presentation: for each family
    other than x_1, in the order the tree walk from x_1 meets them, its
    window size m - 1, the lifted relator of the edge that reaches it and
    the position there of its top letter y_(i,m-1).
    """

    def __init__(self, names, plan):
        self.names = names
        self.plan = plan  # (family, window, lifted relator, top), walk order
        self.width = sum(window for _, window, _, _ in plan)

    @classmethod
    def of(cls, pres: Presentation) -> OddTreeCover | None:
        """The plan for `pres`, or None unless every relator is an odd
        edge relator and the edges form a tree on all the generators."""
        n = pres.num_generators
        edges = [_odd_edge(rel) for rel in pres.relators]
        if len(edges) != n - 1 or None in edges:
            return None
        reached = {1}
        plan = []
        pending = list(zip(edges, pres.relators))
        while pending:
            step = next(((e, rel) for e, rel in pending
                         if len(reached & {e[0], e[1]}) == 1), None)
            if step is None:
                return None  # a cycle: n - 1 edges cannot then reach every family
            pending.remove(step)
            (a, b, m), rel = step
            family = b if a in reached else a
            reached.add(family)
            lifted = _lift(rel)
            top = next(i for i, (_, f, h) in enumerate(lifted) if f == family and h == m - 1)
            plan.append((family, m - 1, lifted, top))
        return cls(pres.generators, plan)

    def kernel(self, k: int) -> Presentation:
        """A presentation of H_k on the window generators, in walk order
        and height order, and tau last.  Needs k > the widest window."""
        tau = self.width + 1
        widest = max((window for _, window, _, _ in self.plan), default=0)
        # words[i][h]: y_(i,h) as a (word, inverse) pair over the window and
        # tau, kept for h < widest (wrapped letters) and for the last
        # widest heights (the next shift); None once neither needs it
        words: dict[int, list] = {}
        gens = []
        for family, window, _, _ in self.plan:
            start = len(gens) + 1
            gens.extend(f"{self.names[family - 1]}_{h}" for h in range(window))
            words[family] = [((start + h,), (-start - h,)) for h in range(window)]
            words[family].extend([None] * (k - window))

        def image(sign: int, family: int, height: int):
            q, h = divmod(height, k)
            word, inverse = words[family][h]
            if q:
                word = (tau,) * q + word + (-tau,) * q
                inverse = (tau,) * q + inverse + (-tau,) * q
            return (word, inverse) if sign > 0 else (inverse, word)

        def product(letters, shift: int):
            return _join(image(sign, family, height + shift) for sign, family, height in letters)

        for h in range(k):
            for family, window, lifted, top in self.plan:
                if h >= window:
                    # u y^sign v = 1: y = u^-1 v^-1, or v u when sign is -1
                    u, v = product(lifted[:top], h - window), product(lifted[top + 1:], h - window)
                    words[family][h] = _join((u[::-1], v[::-1]) if lifted[top][0] > 0 else (v, u))
            if h >= 2 * widest:
                for family in words:
                    words[family][h - widest] = None
        relators = [product(lifted, s)[0] for _, window, lifted, _ in self.plan
                    for s in range(k - window, k)]
        return Presentation((*gens, "tau"), relators)

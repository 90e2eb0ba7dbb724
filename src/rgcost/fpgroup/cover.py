"""Exponent kernels of odd-labelled Artin trees, in closed form.

On the Artin group G of a tree whose labels are all odd, K = ker(G -> Z)
is the free product of the torus-knot fibres, free of rank w = sum (m_e -
1), and as a module over Z[t, t^-1] (t a vertex generator, acting by
conjugation) K^ab is the sum of the Alexander modules Z[t]/(D_m), D_m(t)
= (t^m + 1)/(t + 1) (Milnor, "Infinite cyclic coverings", 1968).  The
kernel H_k of the exponent-sum map to Z/k is K x| <t^k>, so H1(H_k) is Z
plus the cokernel of t^k - 1 on each module, and H_k is generated by t^k
and a free basis of K: d(H_k) lies in [1 + the number of non-unit
invariant factors of their sum, w + 1], with no presentation of H_k
written.  `tests/test_exponent_kernels.py` proves the H1 formula, and
`tests/test_witness.py` enumerates a basis of K and t^k back to index k.
"""

from __future__ import annotations

from .presentation import Presentation, Word, _alternating, invert_word
from .snf import smith_normal_form


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


def odd_tree_labels(pres: Presentation) -> list[int] | None:
    """The edge labels, one per relator, or None unless every relator is
    an odd edge relator and the edges form a tree on all the generators:
    n - 1 edges without a cycle."""
    edges = [_odd_edge(rel) for rel in pres.relators]
    if len(edges) != pres.num_generators - 1 or None in edges:
        return None
    parent = list(range(pres.num_generators + 1))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x] = parent[parent[x]]
        return x

    for a, b, _ in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return None
        parent[ra] = rb
    return [m for _, _, m in edges]


def _fibre_block(m: int, k: int) -> list[list[int]]:
    """t^k - 1 on Z[t]/(D_m) in the basis 1, t, ..., t^(m-2), one row per
    basis element: C^k - I for C the companion matrix of D_m.  There
    t^m = -1, so t^(qm + r) = (-1)^q t^r, and t^(m-1) = -(1 - t + ... -
    t^(m-2))."""
    rows = []
    for i in range(m - 1):
        q, r = divmod(i + k, m)
        sign = -1 if q % 2 else 1
        row = ([sign * (-1) ** (j + 1) for j in range(m - 1)] if r == m - 1
               else [sign * (j == r) for j in range(m - 1)])
        row[i] -= 1
        rows.append(row)
    return rows


def odd_tree_bounds(labels: list[int], k: int) -> tuple[int, int]:
    """(d_lower, d_upper) for H_k on the tree with these labels: one Smith
    normal form of the w x w block-diagonal matrix of t^k - 1, so O(w^3)
    work whatever k is.  Needs k >= 1."""
    w = sum(m - 1 for m in labels)
    matrix = [[0] * w for _ in range(w)]
    start = 0
    for m in labels:
        for i, row in enumerate(_fibre_block(m, k)):
            matrix[start + i][start:start + m - 1] = row
        start += m - 1
    snf = smith_normal_form(matrix)
    return 1 + w - snf.rank + sum(f > 1 for f in snf.factors), w + 1

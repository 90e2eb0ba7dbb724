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

from collections import Counter
from math import gcd, lcm

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


def _insert(chain: list[list[int]], x: int) -> None:
    """Put x into `chain`, invariant factors as ascending [value, count]
    runs, each value dividing the next.  For each prime p this inserts x's
    p-exponent into the sorted exponents: each run keeps the smaller (a
    gcd) and passes the larger (an lcm) up.  0 has every exponent
    infinite, so the zero factors stay at the top."""
    runs = []
    for y, count in chain:
        runs += [(gcd(x, y), 1), (y, count - 1)]
        x = lcm(x, y)
    runs.append((x, 1))
    chain.clear()
    for value, count in runs:
        if chain and chain[-1][0] == value:
            chain[-1][1] += count
        elif count:
            chain.append([value, count])


def odd_tree_bounds(labels: list[int], k: int) -> tuple[int, int]:
    """(d_lower, d_upper) for H_k on the tree with these labels.  The
    matrix of t^k - 1 is block-diagonal, one block per edge, so each
    distinct label's block has one Smith normal form, O(m^3), and the
    blocks' invariant factors merge into the whole matrix's chain by gcd
    and lcm.  Needs k >= 1."""
    chain: list[list[int]] = []
    for m, edges in Counter(labels).items():
        snf = smith_normal_form(_fibre_block(m, k))
        for factor in [f for f in snf.factors if f > 1] + [0] * (m - 1 - snf.rank):
            for _ in range(edges):
                _insert(chain, factor)
    w = sum(m - 1 for m in labels)
    return 1 + sum(count for value, count in chain if value != 1), w + 1

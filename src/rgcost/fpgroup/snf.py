"""Exact Smith normal form over the integers.

Diagonalization by elementary row/column operations with minimal-absolute-
value pivoting; Python integers keep everything exact at any size.  The
resulting nonzero diagonal entries are positive and form a divisibility
chain d1 | d2 | ... (the invariant factors).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SNFResult:
    factors: tuple[int, ...]  # nonzero invariant factors, each dividing the next
    nrows: int
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(matrix) -> SNFResult:
    """Needs a rectangular matrix, as `rewrite.relation_matrix` builds."""
    m = [[int(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0

    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        pivot = _find_pivot(m, t, nrows, ncols)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            _swap_rows(m, t, pi)
            _swap_cols(m, t, pj)
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
            p = m[t][t]
            # clear the pivot column and row by floor division; leftover
            # residues are smaller than the pivot, so re-pivoting terminates
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // p
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // p
                    if q:
                        for i in range(nrows):
                            m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        dirty = True
            if dirty:
                pivot = _find_pivot(m, t, nrows, ncols)
                continue
            # pivot must divide the rest of the submatrix for the
            # divisibility chain; fold an offending row in and retry
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if m[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            pivot = (t, t)
        factors.append(m[t][t])
        t += 1

    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, "invariant factors must form a divisibility chain"
    return SNFResult(factors=tuple(factors), nrows=nrows, ncols=ncols)


def _find_pivot(m, t, nrows, ncols):
    best = None
    best_val = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            v = abs(m[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def _swap_rows(m, a, b):
    if a != b:
        m[a], m[b] = m[b], m[a]


def _swap_cols(m, a, b):
    if a != b:
        for row in m:
            row[a], row[b] = row[b], row[a]

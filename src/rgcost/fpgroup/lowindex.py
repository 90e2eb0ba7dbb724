"""Normal subgroups of small index by coset-table backtracking.

This is the low-index method (Sims, *Computation with Finitely Presented
Groups*, 1994; Holt, Eick, O'Brien, *Handbook of Computational Group
Theory*, 2005, §5.4) cut down to normal subgroups.  The search fills
partial coset tables on at most max_index cosets depth-first, always at
the first undefined entry in row-major order, with new cosets numbered in
order of definition, and closes each node under relator deductions.
Every complete table it reaches is therefore already standardized, and
distinct branches give distinct tables.

Translation test.  The complete table of a normal subgroup N is the
Cayley graph of G/N, whose colour-preserving automorphisms act regularly.
So for every coset a, the assignment 0 -> a must extend, breadth-first
along the edges x.c for which phi(x).c is defined too, to a partial map
that is consistent and injective; a node where some a fails has no normal
completion and is cut, with its whole subtree.  On a complete table the
test is exact: each extended map is then an automorphism, and the
automorphisms of a transitive action (its centralizer, N_G(H)/H) are
transitive exactly when the point stabilizer H is normal.

Budget.  The search counts every coset it opens, summed over all
branches, and raises EnumerationLimit (inconclusive) when that count
would pass the limit.
"""

from __future__ import annotations

from .coset import CosetTable, EnumerationLimit, inv_col, word_to_cols
from .presentation import Presentation

HARD_CAP = 64


def low_index_normal(pres: Presentation, max_index: int,
                     limit: int = 100_000) -> list[CosetTable]:
    """All normal subgroups of index <= max_index, as coset tables sorted
    by (index, table).  Index 1 (the whole group) is included.  Raises
    EnumerationLimit when the search would open more than limit cosets."""
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if max_index > HARD_CAP:
        raise ValueError(f"max_index {max_index} exceeds the hard cap {HARD_CAP}")
    ncols = 2 * pres.num_generators
    relator_cols = [(cols, tuple(inv_col(c) for c in cols))
                    for cols in map(word_to_cols, pres.relators)]

    out = []
    opened = 1
    stack = [[[None] * ncols]]
    while stack:
        table = stack.pop()
        if (not _propagate(table, relator_cols)
                or not _has_translations(table, range(1, len(table)))):
            continue
        hole = _first_hole(table)
        if hole is None:
            found = CosetTable(generators=pres.generators,
                               rows=tuple(tuple(row) for row in table))
            found.validate(pres)
            out.append(found)
            continue
        alpha, col = hole
        candidates = [b for b in range(len(table)) if table[b][inv_col(col)] is None]
        if len(table) < max_index:
            opened += 1
            if opened > limit:
                raise EnumerationLimit(opened, limit, "cosets opened by the low-index search")
            candidates.append(len(table))
        # pushed in reverse so branches are explored in candidate order
        for beta in reversed(candidates):
            branch = [row[:] for row in table]
            if beta == len(table):
                branch.append([None] * ncols)
            branch[alpha][col] = beta
            branch[beta][inv_col(col)] = alpha
            stack.append(branch)

    out.sort(key=lambda t: (t.index, t.rows))
    return out


def _propagate(table, relator_cols) -> bool:
    """Deduction closure: scan every relator at every coset, filling
    single gaps; False on contradiction."""
    changed = True
    while changed:
        changed = False
        for alpha in range(len(table)):
            for cols, inv_cols in relator_cols:
                state = _scan(table, alpha, cols, inv_cols)
                if state == "dead":
                    return False
                if state == "deduced":
                    changed = True
    return True


def _first_hole(table):
    for alpha, row in enumerate(table):
        for col, entry in enumerate(row):
            if entry is None:
                return alpha, col
    return None


def _scan(table, alpha: int, cols, inv_cols) -> str:
    """Scan one relator (columns, and their inverse columns) at one coset
    on a partial table.

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
    while j >= i and table[b][inv_cols[j]] is not None:
        b = table[b][inv_cols[j]]
        j -= 1
    if j < i:
        return "dead"
    if j == i:
        # both scans stopped at this entry, so it and its inverse are empty
        table[f][cols[i]] = b
        table[b][inv_cols[i]] = f
        return "deduced"
    return "ok"


def _has_translations(table, targets) -> bool:
    """True when, for every coset a in targets, the map 0 -> a extends along
    the edges defined at both ends (x.c and phi(x).c) to a consistent,
    injective partial map.  With every coset as a target, a partial table
    failing this has no regular completion."""
    n = len(table)
    for a in targets:
        phi = [None] * n
        used = [False] * n
        phi[0] = a
        used[a] = True
        queue = [0]
        for x in queue:
            row, image_row = table[x], table[phi[x]]
            for col, y in enumerate(row):
                z = image_row[col]
                if y is None or z is None:
                    continue
                if phi[y] is None:
                    if used[z]:
                        return False
                    phi[y] = z
                    used[z] = True
                    queue.append(y)
                elif phi[y] != z:
                    return False
    return True

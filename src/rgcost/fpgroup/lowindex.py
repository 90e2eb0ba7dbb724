"""Normal subgroups of small index by coset-table backtracking.

This is the low-index method (Sims, *Computation with Finitely Presented
Groups*, 1994; Holt, Eick, O'Brien, *Handbook of Computational Group
Theory*, 2005, §5.4) cut down to normal subgroups.  The search fills
partial coset tables on at most max_index cosets depth-first, always at
the first undefined entry in row-major order, with new cosets numbered in
order of definition, and closes each node under relator deductions.
Every complete table it reaches is therefore already standardized, and
distinct branches give distinct tables.

Deduction queue.  Every cyclic rotation of each relator and of its
inverse is indexed by its first column.  An entry (a, c) filled by the
branch or by a deduction is scanned at a against the rotations starting
with c only: a relator scan can change its verdict only through an entry
on its cycle.  A newly opened coset also scans the whole relators once,
since a one-letter relator deduces from an empty row.  Deductions are
forced, so the closure, and whether it is contradictory, do not depend on
the order of the queue.

One table, searched in place.  The search keeps a single table with room
for max_index cosets and a trail of the entries filled since the root.
Each choice point holds its hole, its candidates, the next candidate to
try, the trail marks and the coset count; returning to it clears the
entries filled since its marks.  The loop is iterative, so a deep search
needs no Python recursion.

Translation test.  The complete table of a normal subgroup N is the
Cayley graph of G/N, whose colour-preserving automorphisms act regularly.
So for every coset a, the assignment 0 -> a must extend, breadth-first
along the edges x.c for which phi(x).c is defined too, to a partial map
that is consistent and injective; a node where some a fails has no normal
completion and is cut, with its whole subtree.  On a complete table the
test is exact: each extended map is then an automorphism, and the
automorphisms of a transitive action (its centralizer, N_G(H)/H) are
transitive exactly when the point stabilizer H is normal.  Each extension
step is forced, so a child's map contains its parent's: the search keeps
phi_a and its inverse for every coset a and grows them from the entries
filled at the node, recording the new pairs on a second trail, and builds
a map in full only for a newly opened coset.

Budget.  The search counts every node it enters (each candidate tried),
summed over all branches, and raises EnumerationLimit (inconclusive) when
that count would pass the limit; each node is one closure, so the count
bounds the work.  The queue and the trail change how a node is closed,
not which nodes exist, so the count is that of the rescanning search
they replaced.
"""

from __future__ import annotations

from .coset import CosetTable, EnumerationLimit, inv_col, word_to_cols
from .presentation import Presentation

# The largest max_index `verify --low-index` accepts.
HARD_CAP = 64


def low_index_normal(pres: Presentation, max_index: int,
                     limit: int = 100_000) -> list[CosetTable]:
    """All normal subgroups of index <= max_index, as coset tables sorted
    by (index, table).  Index 1 (the whole group) is included.  Raises
    EnumerationLimit past limit nodes (candidates tried; the root is not
    one).  Needs 1 <= max_index <= HARD_CAP, which the caller checks."""
    ncols = 2 * pres.num_generators
    whole = [(cols, tuple(map(inv_col, cols)))
             for cols in map(word_to_cols, pres.relators) if cols]
    rotations = _rotations(whole, ncols)

    table = [[None] * ncols for _ in range(max_index)]
    trail = []        # filled entries (a, c, b): a.c = b, and so b.c^1 = a
    grown = []        # (phi, psi, points newly mapped by phi)
    maps = [None] * max_index  # (phi, psi) of the translation 0 -> a at a
    stack = []        # choice points [alpha, col, candidates, next, marks, n]
    out = []
    nodes, n = 0, 1
    alive = _deduce(table, trail, [(0, whole)], rotations)
    alpha = 0
    while True:
        if alive:
            hole = _first_hole(table, n, alpha)
            if hole is None:
                found = CosetTable(generators=pres.generators,
                                   rows=tuple(map(tuple, table[:n])))
                found.validate(pres)
                out.append(found)
            else:
                alpha, col = hole
                candidates = [b for b in range(n) if table[b][col ^ 1] is None]
                if n < max_index:
                    candidates.append(n)
                stack.append([alpha, col, candidates, 0, len(trail), len(grown), n])
        while stack:
            point = stack[-1]
            alpha, col, candidates, k, mark, grown_mark, n = point
            _undo(table, trail, mark, grown, grown_mark)
            if k < len(candidates):
                break
            stack.pop()
        else:
            break
        beta = candidates[k]
        point[3] = k + 1
        nodes += 1
        if nodes > limit:
            raise EnumerationLimit(nodes, limit, "low-index search nodes")

        table[alpha][col] = beta
        table[beta][col ^ 1] = alpha
        trail.append((alpha, col, beta))
        scans = [(alpha, rotations[col])]
        fresh = beta == n
        if fresh:
            scans.append((beta, whole))
        alive = _deduce(table, trail, scans, rotations)
        if alive:
            # each new entry a.c = b as an edge both ways
            edges = trail[mark:]
            edges += [(b, c ^ 1, a) for a, c, b in edges]
            for a in range(1, n):
                phi, psi = maps[a]
                mapped = []
                grown.append((phi, psi, mapped))
                if not _grow(table, phi, psi, edges, mapped):
                    alive = False
                    break
        if fresh:
            n += 1
            if alive:
                maps[beta] = _translation(table, beta, max_index)
                alive = maps[beta] is not None

    out.sort(key=lambda t: (t.index, t.rows))
    return out


def _rotations(relators, ncols):
    """For each column c, the distinct cyclic rotations of every relator
    and of its inverse that start with c, as (columns, inverse columns)."""
    by_col = [{} for _ in range(ncols)]
    for cols, inv_cols in relators:
        for word, inv_word in ((cols, inv_cols), (inv_cols[::-1], cols[::-1])):
            for k in range(len(word)):
                rotated = word[k:] + word[:k]
                by_col[rotated[0]][rotated] = inv_word[k:] + inv_word[:k]
    return [list(d.items()) for d in by_col]


def _deduce(table, trail, scans, rotations) -> bool:
    """Scan each (coset, relators) in scans, filling single gaps; each
    filled entry f.c = b goes on the trail and queues the rotations starting
    with c at f.  False on contradiction."""
    for alpha, relators in scans:
        for cols, inv_cols in relators:
            f, i = alpha, 0
            b, j = alpha, len(cols) - 1
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    return False
                continue
            while j >= i and table[b][inv_cols[j]] is not None:
                b = table[b][inv_cols[j]]
                j -= 1
            if j < i:
                return False
            if j == i:
                # both scans stopped at this entry, so it and its inverse are empty
                c = cols[i]
                table[f][c] = b
                table[b][inv_cols[i]] = f
                trail.append((f, c, b))
                scans.append((f, rotations[c]))
    return True


def _first_hole(table, n, alpha):
    """The first empty entry in row-major order, searching from row alpha
    (every earlier row is full)."""
    for a in range(alpha, n):
        row = table[a]
        if None in row:
            return a, row.index(None)
    return None


def _undo(table, trail, mark, grown, grown_mark):
    """Clear the entries and the map pairs recorded since the marks."""
    for a, c, b in trail[mark:]:
        table[a][c] = None
        table[b][c ^ 1] = None
    del trail[mark:]
    for phi, psi, mapped in grown[grown_mark:]:
        for y in mapped:
            psi[phi[y]] = None
            phi[y] = None
    del grown[grown_mark:]


def _grow(table, phi, psi, edges, mapped) -> bool:
    """Extend the closed partial map phi (psi its inverse) over the new
    edges, each (p, c, q) with p.c = q: map the pairs they force, then
    close phi from the points newly mapped, which go on mapped.  False
    when phi would be inconsistent or not injective."""
    pairs = []
    for p, c, q in edges:
        # x.c = y and phi(x).c = z force phi(y) = z, and the new edge
        # p.c = q is x.c for x = p, or phi(x).c for x = psi(p)
        x = phi[p]
        if x is not None:
            pairs.append((q, table[x][c]))
        x = psi[p]
        if x is not None:
            pairs.append((table[x][c], q))
    for y, z in pairs:
        if y is None or z is None:
            continue
        w = phi[y]
        if w is None:
            if psi[z] is not None:
                return False
            phi[y] = z
            psi[z] = y
            mapped.append(y)
        elif w != z:
            return False
    return _close(table, phi, psi, mapped)


def _close(table, phi, psi, queue) -> bool:
    """Breadth-first closure of phi (psi its inverse) from the mapped
    points in queue, which grows with each point newly mapped: x.c = y and
    phi(x).c = z give phi(y) = z.  False when phi would be inconsistent or
    not injective."""
    for x in queue:
        image_row = table[phi[x]]
        for col, y in enumerate(table[x]):
            z = image_row[col]
            if y is None or z is None:
                continue
            w = phi[y]
            if w is None:
                if psi[z] is not None:
                    return False
                phi[y] = z
                psi[z] = y
                queue.append(y)
            elif w != z:
                return False
    return True


def _translation(table, a, size):
    """The map 0 -> a closed breadth-first, as (phi, psi) over points
    below size; None when it is inconsistent or not injective."""
    phi = [None] * size
    psi = [None] * size
    phi[0] = a
    psi[a] = 0
    return (phi, psi) if _close(table, phi, psi, [0]) else None


def _has_translations(table, targets) -> bool:
    """True when, for every coset a in targets, the map 0 -> a extends along
    the edges defined at both ends (x.c and phi(x).c) to a consistent,
    injective partial map.  With every coset as a target, a partial table
    failing this has no regular completion."""
    return all(_translation(table, a, len(table)) is not None for a in targets)

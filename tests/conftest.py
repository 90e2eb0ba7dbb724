"""Shared test helpers: graph generators and independent brute-force
oracles.  The oracles deliberately take different routes from the library
code they check (vertex deletion + recount, exhaustive cycle enumeration,
Kuratowski subdivision search, k x k minor gcds)."""

from __future__ import annotations

import math
from itertools import combinations

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
    cyclic_reduce,
    free_reduce,
    invert_word,
)
from rgcost.fpgroup.rewrite import _edge_id, _spanning_tree
from rgcost.lgraph import LabelledGraph


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
    adj = {i: [g.vertex_index(w) for w in g.neighbors(g.vertices[i])] for i in range(n)}
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
    adj = {i: [g.vertex_index(w) for w in g.neighbors(g.vertices[i])] for i in range(n)}

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
# reference Reidemeister-Schreier


# The original rewrite: every relator from every coset, proper powers
# included.  The library drops the rewrites of a proper power that are
# rotations of an earlier one; Tietze must not see the difference.
def reference_reidemeister_schreier(pres: Presentation, table: CosetTable,
                                    policy: str = "forward") -> Presentation:
    """Presentation of the subgroup a complete coset table describes.

    Generators: one per non-tree edge of the coset graph, named s1, s2,...
    in (coset, generator) order.  Relators: every relator of the ambient
    presentation rewritten from every coset, freely reduced, nonempty.
    """
    tree = _spanning_tree(table, policy)
    gen_index: dict[tuple[int, int], int] = {}
    for coset in range(table.index):
        for g in range(len(table.generators)):
            eid = (coset, 2 * g)
            if eid not in tree:
                gen_index[eid] = len(gen_index) + 1

    def rewrite(start: int, word) -> Word:
        out = []
        coset = start
        for x in word:
            col = letter_to_col(x)
            eid = _edge_id(table, coset, col)
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
    names = tuple(f"s{i}" for i in range(1, len(gen_index) + 1))
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
                complete[rows] = CosetTable(
                    generators=pres.generators, rows=rows, subgroup_words=())
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
    gens = [table.perm(g + 1) for g in range(len(table.generators))]
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
        return CosetTable(generators=(), rows=((),), subgroup_words=())
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
                        raise EnumerationLimit(len(elements), limit)
                    index_of[target] = len(elements)
                    elements.append(target)
                row.append(index_of[target])
        rows.append(row)
        i += 1

    table = CosetTable(
        generators=pres.generators,
        rows=standardize_rows(rows),
        subgroup_words=(),
    )
    table.validate(pres)
    return table

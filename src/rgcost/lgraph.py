"""Labelled defining graphs of Artin and Coxeter groups.

A labelled graph is a finite simple graph whose edges carry integer labels
>= 2.  Vertices are kept in declaration order and every algorithm in this
package breaks ties by that order, so downstream certificates and traces
are reproducible byte for byte.
"""

from __future__ import annotations

import heapq
import math

from .numread import LimitExceeded, quote, read_count

NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"


class GraphError(ValueError):
    """Malformed graph input or a violated structural precondition."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _valid_name(name: str) -> bool:
    return isinstance(name, str) and bool(name) and all(c in NAME_CHARS for c in name)


class LabelledGraph:
    """Finite simple graph with ordered vertices and edge labels >= 2.

    Immutable after construction; safe to share between threads.  Derived
    invariants (girth, planarity) are memoised on first use; two threads
    may both compute one, but they store the same value.
    """

    def __init__(self, vertices, edges):
        self._open()
        for v in vertices:
            self._add_vertex(v)
        for u, v, lab in edges:
            self._add_edge(u, v, lab)
        self._close()

    # The graph rules, each written once; `parse_graph` applies them line
    # by line between `_open` and `_close`.

    def _open(self) -> None:
        self._index: dict[str, int] = {}
        self._labels: dict[tuple[int, int], int] = {}

    def _add_vertex(self, v) -> None:
        if not _valid_name(v):
            raise GraphError(f"invalid vertex name {quote(v)}")
        if v in self._index:
            raise GraphError(f"duplicate vertex {quote(v)}")
        self._index[v] = len(self._index)

    def _add_edge(self, u, v, lab) -> None:
        if u == v:
            raise GraphError(f"self-loop at {quote(u)}")
        for end in (u, v):
            if not isinstance(end, str) or end not in self._index:
                raise GraphError(f"undeclared endpoint {quote(end)}")
        if not isinstance(lab, int):
            raise GraphError(f"label must be an integer, not {quote(lab)}")
        if lab < 2:
            raise GraphError("label must be >= 2")
        i, j = sorted((self._index[u], self._index[v]))
        if (i, j) in self._labels:
            raise GraphError(f"duplicate edge {quote(u)} {quote(v)}")
        self._labels[(i, j)] = lab

    def _close(self) -> None:
        if not self._index:
            raise GraphError("graph must declare at least one vertex")
        self._vertices = tuple(self._index)
        self._labels = dict(sorted(self._labels.items()))
        adj: dict[int, list[int]] = {i: [] for i in range(len(self._vertices))}
        for (i, j) in self._labels:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {i: tuple(sorted(ns)) for i, ns in adj.items()}
        self._memo: dict[str, object] = {}

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    def edges(self) -> tuple[tuple[str, str, int], ...]:
        """Edges as (u, v, label), endpoints and edge list in index order."""
        vs = self._vertices
        return tuple((vs[i], vs[j], lab) for (i, j), lab in self._labels.items())

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._labels)

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self._index[u], self._index[v]
        return (min(i, j), max(i, j)) in self._labels

    def label(self, u: str, v: str) -> int:
        i, j = self._index[u], self._index[v]
        try:
            return self._labels[(min(i, j), max(i, j))]
        except KeyError:
            raise GraphError(f"no edge {u!r} {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self._vertices[i] for i in self._adj[self._index[v]])

    def __eq__(self, other):
        if not isinstance(other, LabelledGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._labels == other._labels

    def __hash__(self):
        return hash((self._vertices, tuple(self._labels.items())))

    def __repr__(self):
        return f"LabelledGraph({self.num_vertices} vertices, {self.num_edges} edges)"


def parse_graph(text: str) -> LabelledGraph:
    """Parse the line-based graph format.

    Lines are `vertex <name>` or `edge <name1> <name2> <label>`; `#` starts
    a comment.  Vertex declaration order fixes vertex indices; endpoints
    must be declared before the edges that use them.  Each line goes
    through `LabelledGraph`'s rules as it is read, and an error names its
    line.
    """
    g = LabelledGraph.__new__(LabelledGraph)
    g._open()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "vertex":
                if len(parts) != 2:
                    raise GraphError("vertex line must be `vertex <name>`")
                g._add_vertex(parts[1])
            elif parts[0] == "edge":
                if len(parts) != 4:
                    raise GraphError("edge line must be `edge <name1> <name2> <label>`")
                g._add_edge(parts[1], parts[2], read_count(parts[3], "label", 2))
            else:
                raise GraphError(f"malformed line {quote(line)}")
        except ValueError as exc:
            raise GraphError(str(exc), lineno) from None
        except LimitExceeded as exc:
            raise LimitExceeded(f"line {lineno}: {exc}") from None
    g._close()
    return g


def components(g: LabelledGraph) -> tuple[tuple[str, ...], ...]:
    """Connected components, ordered by smallest vertex index; vertices of
    each block in declaration order."""
    n = g.num_vertices
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        block = []
        while stack:
            i = stack.pop()
            block.append(i)
            for j in g._adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(g.vertices[i] for i in sorted(block)))
    return tuple(blocks)


def girth(g: LabelledGraph):
    """Length of a shortest cycle, or math.inf for forests.

    Computed once per graph and memoised on it, so every hypothesis check
    of one graph shares a single search.
    """
    memo = g._memo
    if "girth" not in memo:
        memo["girth"] = _shortest_cycle(g)
    return memo["girth"]


def _shortest_cycle(g: LabelledGraph):
    """Shortest cycle by one breadth-first search per root (Itai & Rodeh,
    SIAM J. Comput. 1978).

    In the BFS from a root, every edge outside the BFS tree closes a walk
    of length dist[a] + dist[b] + 1 that contains a cycle; a cycle through
    the root of length L has an edge outside the tree whose walk is no
    longer than L.  So the least walk bounds the girth from above, and
    after its search the root can be deleted: the graph's girth is the
    lesser of that walk and the girth of the rest.  Vertices of degree
    <= 1 lie on no cycle and are deleted too, as they appear; a forest
    vanishes without a search and gets math.inf.  Every walk of length 2d
    is met while depth d - 1 is scanned, so scanning depth d can only find
    lengths >= 2d + 1, and a root's search stops at the first depth with
    2d + 1 >= the best length found so far.
    """
    n = g.num_vertices
    adj = g._adj
    deg = [len(adj[i]) for i in range(n)]
    live = [d >= 2 for d in deg]

    def delete(stack):
        # Propagate the deletion of the vertices on the stack, already
        # marked dead: each neighbour left with degree <= 1 dies too.
        while stack:
            for j in adj[stack.pop()]:
                if live[j]:
                    deg[j] -= 1
                    if deg[j] < 2:
                        live[j] = False
                        stack.append(j)

    delete([i for i in range(n) if not live[i]])
    best = math.inf
    for root in range(n):
        if not live[root]:
            continue
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        depth = 0
        while frontier and 2 * depth + 1 < best:
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b not in dist:
                        if live[b]:
                            dist[b] = depth + 1
                            parent[b] = a
                            nxt.append(b)
                    elif b != parent[a] and depth + dist[b] + 1 < best:
                        best = depth + dist[b] + 1
                        if best == 3:
                            return 3
            frontier = nxt
            depth += 1
        live[root] = False
        delete([root])
    return best


def is_planar(g: LabelledGraph) -> bool:
    """Planarity by the left-right test (`planarity.left_right_planar`),
    computed once per graph and memoised on it."""
    memo = g._memo
    if "planar" not in memo:
        from .planarity import left_right_planar  # deferred: needed only here

        memo["planar"] = left_right_planar(g._adj)
    return memo["planar"]


def reduction_order(g: LabelledGraph) -> tuple[str, ...]:
    """Greedy 2-degeneracy elimination: the eliminated vertices in order.

    Repeatedly removes the smallest-index vertex of current degree <= 2,
    so each vertex has at most two neighbours among the vertices after
    it.  Degrees only fall, so a vertex stays eligible once it is; the
    eligible vertices sit in a min-heap, each pushed once, and the whole
    elimination takes O((n + m) log n).  The tuple lists every vertex
    exactly when the graph is 2-degenerate; otherwise the vertices it
    leaves out are the stuck set, whose induced subgraph has every degree
    >= 3.
    """
    n = g.num_vertices
    alive = [True] * n
    deg = [len(g._adj[i]) for i in range(n)]
    heap = [i for i in range(n) if deg[i] <= 2]  # ascending, so a heap
    order = []
    while heap:
        pick = heapq.heappop(heap)
        alive[pick] = False
        order.append(g.vertices[pick])
        for j in g._adj[pick]:
            if alive[j]:
                deg[j] -= 1
                if deg[j] == 2:
                    heapq.heappush(heap, j)
    return tuple(order)

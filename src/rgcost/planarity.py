"""Planarity by the left-right criterion (de Fraysseix and Rosenstiehl,
Combinatorica 1985), in the test-only form of Brandes, "The Left-Right
Planarity Test" (2009): no embedding is built.

A graph is planar exactly when the back edges of a depth-first search can
be split between the two sides of the search tree so that no two on one
side cross.  The first search orients every edge away from the root and
computes, for each edge, the lowest and second-lowest heights its return
edges reach; they give each edge its nesting depth.  The second search
visits the edges out of each vertex in nesting order and keeps the
unresolved return edges on a stack of conflict pairs, each a left and a
right interval of return edges that must lie on opposite sides.  It fails
exactly when a new return edge must go on both sides of one pair.

Both searches keep their own stack, so any depth runs within the
interpreter's recursion limit.  What only serves the embedding is left
out: Brandes' `side` marks, `lowpt_edge`, and the `ref` links that only
fix sides.  The `ref` links that chain the return edges of an interval,
which trimming follows, are kept.
"""

from __future__ import annotations


def left_right_planar(adj) -> bool:
    """Whether the simple graph on vertices 0..n-1 is planar, where
    `adj[v]` lists the neighbours of v and n = len(adj)."""
    n = len(adj)
    if n > 2 and sum(len(adj[v]) for v in range(n)) > 2 * (3 * n - 6):
        return False  # Euler's formula: a simple planar graph has m <= 3n - 6

    # Orientation.  Edges are numbered as they are oriented; head[e] is the
    # vertex e points to, out[v] the edges oriented out of v.
    height = [-1] * n
    parent_edge = [-1] * n
    head: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    pos = [0] * n

    def orient(v: int, w: int, low: int) -> int:
        e = len(head)
        head.append(w)
        lowpt.append(low)
        lowpt2.append(height[v])
        nesting.append(0)
        out[v].append(e)
        return e

    def finish(e: int, v: int) -> None:
        # e, out of v, has its lowpoints: set its nesting depth (odd when
        # chordal) and fold them into the lowpoints of v's parent edge.
        low, low2 = lowpt[e], lowpt2[e]
        nesting[e] = 2 * low + (low2 < height[v])
        p = parent_edge[v]
        if p < 0:
            return
        if low < lowpt[p]:
            lowpt2[p] = min(lowpt[p], low2)
            lowpt[p] = low
        elif low > lowpt[p]:
            lowpt2[p] = min(lowpt2[p], low)
        else:
            lowpt2[p] = min(lowpt2[p], low2)

    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            nbrs = adj[v]
            i = pos[v]
            if i == len(nbrs):
                stack.pop()
                if parent_edge[v] >= 0:
                    finish(parent_edge[v], stack[-1])
                continue
            pos[v] = i + 1
            w = nbrs[i]
            if height[w] < 0:  # tree edge; finished when w is
                parent_edge[w] = orient(v, w, height[v])
                height[w] = height[v] + 1
                stack.append(w)
            elif height[w] < height[v] - 1:  # back edge to a proper ancestor
                finish(orient(v, w, height[w]), v)
            # else the edge to v's parent, or a back edge from a descendant,
            # already oriented

    # Testing.  A conflict pair is [left low, left high, right low, right
    # high]; an interval with both ends None is empty.  ref[e] is the next
    # lower return edge of e's interval.
    for edges in out:
        edges.sort(key=nesting.__getitem__)
    ref: list[int | None] = [None] * len(head)
    bottom: list[list | None] = [None] * len(head)
    S: list[list] = []

    def conflicting(low, high, b: int) -> bool:
        return not (low is None and high is None) and lowpt[high] > lowpt[b]

    def lowest(P) -> int:
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def add_constraints(ei: int, e: int) -> bool:
        P = [None, None, None, None]
        # Merge the return edges of ei into P's right interval.
        while True:
            Q = S.pop()
            if not (Q[0] is None and Q[1] is None):
                Q = [Q[2], Q[3], Q[0], Q[1]]
            if not (Q[0] is None and Q[1] is None):
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            # else all of Q returns to lowpt(e) and takes the side of e's
            # lowest return edge, which stands for it on the stack
            if (S[-1] if S else None) is bottom[ei]:
                break
        # Merge the return edges of earlier siblings that conflict with ei
        # into P's left interval.
        while S and (conflicting(S[-1][0], S[-1][1], ei)
                     or conflicting(S[-1][2], S[-1][3], ei)):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q = [Q[2], Q[3], Q[0], Q[1]]
            if conflicting(Q[2], Q[3], ei):
                return False
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def trim(u: int) -> None:
        # Drop the return edges that end at u, whose subtree is finished.
        hu = height[u]
        while S and lowest(S[-1]) == hu:
            S.pop()
        if S:
            P = S[-1]
            while P[1] is not None and head[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None:
                P[0] = None
            while P[3] is not None and head[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None:
                P[2] = None

    pos = [0] * n
    for root in range(n):
        if height[root]:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            edges = out[v]
            i = pos[v]
            if i < len(edges):
                pos[v] = i + 1
                ei = edges[i]
                bottom[ei] = S[-1] if S else None
                w = head[ei]
                if parent_edge[w] == ei:  # tree edge: integrated when w is finished
                    stack.append(w)
                    continue
                S.append([None, None, ei, ei])
            else:
                stack.pop()
                ei = parent_edge[v]
                if ei < 0:
                    continue
                v = stack[-1]
                i = pos[v] - 1
                trim(v)
            # Integrate ei's return edges; those of v's first edge need no
            # constraint.
            if i and lowpt[ei] < height[v] and not add_constraints(ei, parent_edge[v]):
                return False
    return True

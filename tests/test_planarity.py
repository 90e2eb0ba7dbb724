"""The left-right planarity test against networkx's, used only as an
oracle, on random graphs, planar graphs with a few edges added, and
subdivided Kuratowski graphs with pendant trees, each under shuffled
vertex numbers and adjacency order."""

import networkx
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcost.planarity import left_right_planar

ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def adjacency(n, pairs):
    """The simple graph on 0..n-1 with the given pairs as adjacency lists,
    loops and repeats dropped, each list in the order its pairs come."""
    adj = {v: [] for v in range(n)}
    for u, v in pairs:
        if u != v and v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def oracle(adj) -> bool:
    G = networkx.Graph()
    G.add_nodes_from(adj)
    G.add_edges_from((u, v) for u in adj for v in adj[u])
    return networkx.check_planarity(G)[0]


@st.composite
def shuffled(draw, n, pairs):
    """The graph with its vertices renumbered and its pairs reordered."""
    perm = draw(st.permutations(range(n)))
    pairs = draw(st.permutations([(perm[u], perm[v]) for u, v in pairs]))
    return adjacency(n, pairs)


@st.composite
def random_graphs(draw, max_vertices=40):
    """Between n and 3n pairs, so many graphs sit near the planar edge
    bound."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(n, 3 * n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=m, max_size=m))
    return adjacency(n, pairs)


@st.composite
def planar_plus_edges(draw, max_vertices=40):
    """A stacked triangulation (each new vertex joins the three corners of
    a face, which it splits), thinned, plus one to three random pairs."""
    n = draw(st.integers(4, max_vertices))
    faces = [(0, 1, 2)]
    pairs = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
        faces += [(a, b, v), (b, c, v), (a, c, v)]
        pairs += [(a, v), (b, v), (c, v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [p for p, k in zip(pairs, keep) if k]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=3))
    return draw(shuffled(n, pairs))


@st.composite
def subdivided_kuratowski(draw):
    """K5 or K3,3 with each edge subdivided up to three times, pendant
    trees hung anywhere, and sometimes one edge of the result deleted."""
    if draw(st.booleans()):
        base = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        n = 5
    else:
        base = [(u, v) for u in range(3) for v in range(3, 6)]
        n = 6
    pairs = []
    for u, v in base:
        for _ in range(draw(st.integers(0, 3))):
            pairs.append((u, n))
            u, n = n, n + 1
        pairs.append((u, v))
    for _ in range(draw(st.integers(0, 8))):
        pairs.append((draw(st.integers(0, n - 1)), n))
        n += 1
    if draw(st.booleans()):
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    return draw(shuffled(n, pairs))


class TestAgainstNetworkx:
    @ORACLE
    @given(random_graphs())
    def test_random_graphs(self, adj):
        assert left_right_planar(adj) == oracle(adj)

    @ORACLE
    @given(planar_plus_edges())
    def test_planar_graphs_plus_edges(self, adj):
        assert left_right_planar(adj) == oracle(adj)

    @ORACLE
    @given(subdivided_kuratowski())
    def test_subdivided_kuratowski_graphs(self, adj):
        assert left_right_planar(adj) == oracle(adj)

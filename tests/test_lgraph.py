import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_girth,
    brute_planar,
    complete_graph,
    cycle_graph,
    degree,
    hex_chain,
    induced,
    path_graph,
    random_graph,
    random_tree,
    reference_reduction_order,
)
from rgcost.coxeter import build_trace
from rgcost.lgraph import (
    GraphError,
    LabelledGraph,
    components,
    girth,
    is_planar,
    parse_graph,
    reduction_order,
)


class TestParse:
    def test_basic(self):
        g = parse_graph("vertex a\nvertex b\nedge a b 3\n")
        assert g.vertices == ("a", "b")
        assert g.edges() == (("a", "b", 3),)

    def test_comments_and_blanks(self):
        g = parse_graph("# heading\nvertex a # trailing\n\nvertex b\nedge a b 2\n")
        assert g.num_vertices == 2
        assert g.label("a", "b") == 2

    @pytest.mark.parametrize("text,fragment,line", [
        ("vertex a\nvertex a\n", "duplicate vertex", 2),
        ("vertex a\nedge a b 2\n", "undeclared endpoint", 2),
        ("vertex a\nvertex b\nedge a b 1\n", "label must be >= 2", 3),
        ("vertex a\nvertex b\nedge a b 2\nedge b a 3\n", "duplicate edge", 4),
        ("vertex a\nedge a a 2\n", "self-loop", 2),
        ("vertex a\nfoo bar\n", "malformed line", 2),
        ("vertex a\nvertex b\nedge a b x\n", "label must be an integer, not 'x'", 3),
        ("vertex a b\n", "vertex line", 1),
        ("vertex a\nvertex b\nedge a b\n", "edge line", 3),
    ])
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(GraphError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)
        assert exc.value.line == line

    @pytest.mark.parametrize("text,vertices,edges", [
        ("vertex a-b\n", ["a-b"], []),
        ("vertex a\nvertex a\n", ["a", "a"], []),
        ("vertex a\nedge a a 2\n", ["a"], [("a", "a", 2)]),
        ("vertex a\nedge a b 2\n", ["a"], [("a", "b", 2)]),
        ("vertex a\nvertex b\nedge a b x\n", ["a", "b"], [("a", "b", "x")]),
        ("vertex a\nvertex b\nedge a b 1\n", ["a", "b"], [("a", "b", 1)]),
        ("vertex a\nvertex b\nedge a b 2\nedge b a 3\n", ["a", "b"],
         [("a", "b", 2), ("b", "a", 3)]),
        ("# nothing\n", [], []),
    ], ids=["name", "duplicate-vertex", "self-loop", "undeclared", "malformed-label",
            "small-label", "duplicate-edge", "empty"])
    def test_file_and_constructor_share_each_rule(self, text, vertices, edges):
        with pytest.raises(GraphError) as from_file:
            parse_graph(text)
        with pytest.raises(GraphError) as built:
            LabelledGraph(vertices, edges)
        assert built.value.line is None
        line = from_file.value.line
        prefix = "" if line is None else f"line {line}: "
        assert str(from_file.value) == prefix + str(built.value)

    def test_non_string_vertex_name(self):
        with pytest.raises(GraphError, match="invalid vertex name"):
            LabelledGraph([["a"], "b"], [])

    def test_non_string_endpoint(self):
        with pytest.raises(GraphError, match="undeclared endpoint"):
            LabelledGraph(["ab", "b"], [(["ab"], "b", 2)])
        with pytest.raises(GraphError, match="undeclared endpoint"):
            LabelledGraph(["ab", "b"], [("b", ("ab",), 2)])

    def test_label_of_a_non_edge(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\n")
        with pytest.raises(GraphError, match="no edge 'a' 'c'"):
            g.label("a", "c")

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            parse_graph("# nothing\n")

    def test_declaration_order_fixes_indices(self):
        g = parse_graph("vertex z\nvertex a\nedge z a 5\n")
        assert g.vertices == ("z", "a")
        assert g.vertices.index("z") == 0


class TestComponents:
    def test_single_vertex(self):
        assert components(parse_graph("vertex a\n")) == (("a",),)

    def test_two_isolated(self):
        assert components(parse_graph("vertex a\nvertex b\n")) == (("a",), ("b",))

    def test_path(self):
        g = path_graph([2, 3])
        assert components(g) == (("v0", "v1", "v2"),)

    def test_blocks_partition_and_are_disconnected(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, n_max=8)
            blocks = components(g)
            seen = [v for block in blocks for v in block]
            assert sorted(seen) == sorted(g.vertices)
            for i, b1 in enumerate(blocks):
                for b2 in blocks[i + 1:]:
                    for u in b1:
                        for v in b2:
                            assert not g.has_edge(u, v)
            # ordered by smallest vertex index
            firsts = [min(g.vertices.index(v) for v in block) for block in blocks]
            assert firsts == sorted(firsts)


class TestGirth:
    def test_hexagon(self):
        assert girth(cycle_graph([2] * 6)) == 6

    def test_tree_infinite(self):
        assert girth(path_graph([3, 4, 5])) == math.inf
        assert girth(parse_graph("vertex a\n")) == math.inf

    def test_hexagon_with_chord(self):
        # chord v0-v3 splits the 6-cycle into a 4-cycle and a 5-cycle;
        # brute-force cycle enumeration gives 4
        g = LabelledGraph(
            [f"v{i}" for i in range(6)],
            [(f"v{i}", f"v{(i + 1) % 6}", 2) for i in range(6)] + [("v0", "v3", 2)],
        )
        assert brute_girth(g) == 4
        assert girth(g) == 4

    def test_agrees_with_bruteforce(self):
        rng = random.Random(13)
        for _ in range(150):
            g = random_graph(rng, n_max=8)
            assert girth(g) == brute_girth(g), g.edges()


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_vertices=9):
    """Any simple graph on up to max_vertices vertices."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    vs = [f"v{i}" for i in range(n)]
    return LabelledGraph(vs, [(vs[i], vs[j], 2) for (i, j), keep in zip(pairs, mask) if keep])


@st.composite
def forests(draw, max_vertices=30):
    """Each vertex joins an earlier one or starts a new tree."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))
        if parent >= 0:
            edges.append((vs[parent], vs[i], 3))
    return LabelledGraph(vs, edges)


@st.composite
def planted_cycles(draw):
    """One or two cycles of length 6..12, joined by a path when there are
    two, with pendant trees hung anywhere, under shuffled vertex indices.
    Returns the graph and its girth, the shortest planted length."""
    lengths = draw(st.lists(st.integers(6, 12), min_size=1, max_size=2))
    edges, n = [], 0
    for length in lengths:
        edges += [(n + k, n + (k + 1) % length) for k in range(length)]
        n += length
    if len(lengths) == 2:
        bridge = draw(st.integers(0, 4))
        ends = [draw(st.integers(0, lengths[0] - 1))] + list(range(n, n + bridge))
        ends.append(draw(st.integers(lengths[0], n - 1)))
        edges += list(zip(ends, ends[1:]))
        n += bridge
    for _ in range(draw(st.integers(0, 15))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    perm = draw(st.permutations(range(n)))
    vs = [f"v{i}" for i in range(n)]
    return LabelledGraph(vs, [(vs[perm[a]], vs[perm[b]], 2) for a, b in edges]), min(lengths)


class TestGirthProperties:
    """The per-root truncated search against exhaustive cycle search."""

    @PROPERTY
    @given(graphs())
    def test_random_graphs(self, g):
        assert girth(g) == brute_girth(g)

    @PROPERTY
    @given(planted_cycles())
    def test_planted_cycles_with_pendant_trees(self, planted):
        g, length = planted
        assert girth(g) == brute_girth(g) == length

    @PROPERTY
    @given(forests())
    def test_forests_are_acyclic(self, g):
        assert girth(g) == math.inf


class TestPlanarity:
    def test_k4_planar(self):
        assert is_planar(complete_graph(4)) is True

    def test_k5_not_planar(self):
        assert is_planar(complete_graph(5)) is False

    def test_k33_not_planar(self):
        g = LabelledGraph(
            ["a", "b", "c", "x", "y", "z"],
            [(u, v, 2) for u in ("a", "b", "c") for v in ("x", "y", "z")],
        )
        assert is_planar(g) is False

    def test_kuratowski_oracle_on_knowns(self):
        assert brute_planar(complete_graph(4)) is True
        assert brute_planar(complete_graph(5)) is False

    def test_agrees_with_kuratowski_search(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng, n_max=8, p=0.45)
            assert is_planar(g) == brute_planar(g), g.edges()

    def test_honeycomb_2501_vertices(self):
        # the brick-wall honeycomb, 41 x 61 vertices
        name = "v{}_{}".format
        vs = [name(i, j) for i in range(41) for j in range(61)]
        es = [(name(i, j), name(i, j + 1), 2) for i in range(41) for j in range(60)]
        es += [(name(i, j), name(i + 1, j), 3)
               for i in range(40) for j in range(61) if (i + j) % 2 == 0]
        g = LabelledGraph(vs, es)
        assert g.num_vertices == 2501
        assert girth(g) == 6 and is_planar(g) is True

    def test_path_3000_vertices(self):
        assert is_planar(path_graph([2] * 2999)) is True

    def test_subdivided_k33_girth_at_least_6(self):
        # each edge of K3,3 a path through 112 new vertices: 1,014 vertices
        vs = [f"s{k}" for k in range(6)]
        es = []
        for u in range(3):
            for v in range(3, 6):
                ends = [f"s{u}"] + [f"p{u}_{v}_{k}" for k in range(112)] + [f"s{v}"]
                vs += ends[1:-1]
                es += [(a, b, 2) for a, b in zip(ends, ends[1:])]
        g = LabelledGraph(vs, es)
        assert g.num_vertices == 1014
        assert girth(g) >= 6 and is_planar(g) is False


class TestReductionOrder:
    def test_tree_succeeds(self):
        rng = random.Random(19)
        for _ in range(30):
            g = random_tree(rng, n_max=10)
            ro = reduction_order(g)
            assert len(ro) == g.num_vertices
            build_trace(g, ro)

    def test_hexagon_succeeds(self):
        ro = reduction_order(cycle_graph([2] * 6))
        assert len(ro) == 6
        build_trace(cycle_graph([2] * 6), ro)

    def test_k4_failure_witness_is_k4(self):
        # K4 alone eliminates nothing; with a pendant path the path goes
        # and K4 is the stuck set the order leaves out
        k4 = complete_graph(4)
        with_path = LabelledGraph(k4.vertices + ("v4", "v5"),
                                  k4.edges() + (("v3", "v4", 3), ("v4", "v5", 3)))
        for g, eliminated in ((k4, ()), (with_path, ("v4", "v5"))):
            order = reduction_order(g)
            assert order == eliminated
            stuck = induced(g, [v for v in g.vertices if v not in order])
            assert stuck == k4
            assert all(degree(stuck, v) >= 3 for v in stuck.vertices)

    def test_greedy_takes_smallest_index(self):
        g = path_graph([2, 2])  # all three vertices have degree <= 2
        ro = reduction_order(g)
        assert ro[0] == "v0"

    def test_planar_girth6_family_always_reduces(self):
        rng = random.Random(23)
        graphs = [cycle_graph([2] * 6), hex_chain(2), hex_chain(3)]
        graphs += [random_tree(rng, n_max=12) for _ in range(20)]
        for g in graphs:
            assert girth(g) >= 6 and is_planar(g)
            ro = reduction_order(g)
            assert len(ro) == g.num_vertices
            build_trace(g, ro)

    def test_replay_rejects_bad_order(self):
        g = complete_graph(4)
        with pytest.raises(GraphError):
            build_trace(g, g.vertices)
        g = cycle_graph([2] * 3)
        with pytest.raises(GraphError, match="must be a permutation"):
            build_trace(g, g.vertices[:2] + g.vertices[:1])
        with pytest.raises(GraphError, match="neighbours 'v1', 'v2' of 'v0' are adjacent"):
            build_trace(g, g.vertices)


class TestReductionOrderAgainstReference:
    """The heap elimination must give the rescanning greedy's order, and
    so leave out the same stuck set."""

    @PROPERTY
    @given(graphs(max_vertices=12))
    def test_random_graphs(self, g):
        assert reduction_order(g) == reference_reduction_order(g)

    @PROPERTY
    @given(planted_cycles())
    def test_planted_cycles(self, planted):
        g, _ = planted
        assert reduction_order(g) == reference_reduction_order(g)

    def test_hex_grids(self):
        rng = random.Random(29)
        for h in (1, 4, 9):
            g = hex_chain(h, rng)
            assert reduction_order(g) == reference_reduction_order(g)


class TestInducedImmutability:
    def test_induced_preserves_order_and_labels(self):
        g = parse_graph("vertex c\nvertex a\nvertex b\nedge c a 4\nedge a b 5\n")
        sub = induced(g, ["b", "c", "a"])
        assert sub.vertices == ("c", "a", "b")
        assert sub.label("c", "a") == 4

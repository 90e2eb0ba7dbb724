import random
from fractions import Fraction

import pytest

from conftest import (
    coxeter_presentation,
    cycle_graph,
    eval_class_C,
    hex_chain,
    path_graph,
    random_tree,
    todd_coxeter,
    trace_from_json,
)
from rgcost.coxeter import (
    AMALGAM_DINF,
    AMALGAM_ORDER2,
    AMALGAM_TRIVIAL,
    HypothesisError,
    build_trace,
    closed_form,
    coxeter_order,
    rg_coxeter_planar,
    trace_to_json,
)
from rgcost.fpgroup.coset import EnumerationLimit
from rgcost.groupexpr import (
    INFINITE,
    AmalgamAmenable,
    AmalgamFinite,
    CoxeterGraph,
    Cyclic,
    Free,
    FreeAbelian,
    Generation,
    GroupOrder,
    Surface,
    Unknown,
    evaluate,
    is_known,
)
from rgcost.lgraph import GraphError, LabelledGraph, girth, is_planar, parse_graph


def family(rng, count):
    """Planar girth->=6 instances: paths, trees, labelled 6-cycles, and
    hexagon chains."""
    graphs = [
        parse_graph("vertex a\n"),
        path_graph([2]),
        path_graph([4]),
        path_graph([3, 5]),
        cycle_graph([2] * 6),
        cycle_graph([rng.randint(2, 6) for _ in range(6)]),
        hex_chain(1, rng),
        hex_chain(2, rng),
        hex_chain(3, rng),
    ]
    while len(graphs) < count:
        graphs.append(random_tree(rng, n_max=12))
    return graphs[:count]


def max_index_reduction(g):
    """Greedy elimination preferring the LARGEST eligible index: the
    alternate tie-break policy."""
    remaining = list(g.vertices)
    order = []
    while remaining:
        pick = None
        for v in reversed(remaining):
            if sum(1 for w in g.neighbors(v) if w in remaining) <= 2:
                pick = v
                break
        assert pick is not None
        order.append(pick)
        remaining.remove(pick)
    return order


class TestCoxeterOrder:
    def test_single_vertex(self):
        assert coxeter_order(parse_graph("vertex a\n")) == GroupOrder(2)

    def test_single_edge_via_enumeration(self):
        # oracle: Todd-Coxeter on <a,b | a^2, b^2, (ab)^3> completes with 6
        g = path_graph([3])
        assert todd_coxeter(coxeter_presentation(g), coset_limit=100).index == 6
        assert coxeter_order(g) == GroupOrder(6)

    def test_path_of_three_is_infinite(self):
        # endpoints are non-adjacent, so they span an infinite dihedral
        # subgroup; Todd-Coxeter stays inconclusive within the coset limit
        g = path_graph([3, 3])
        with pytest.raises(EnumerationLimit):
            todd_coxeter(coxeter_presentation(g), coset_limit=2000)
        assert coxeter_order(g) == INFINITE

    def test_two_isolated_vertices_infinite(self):
        assert coxeter_order(parse_graph("vertex a\nvertex b\n")) == INFINITE

    def test_triangle_rejected(self):
        g = cycle_graph([2, 2, 2])
        with pytest.raises(GraphError):
            coxeter_order(g)


class TestClosedFormAndTrace:
    def test_hexagon_labels_2(self):
        g = cycle_graph([2] * 6)
        price, trace = rg_coxeter_planar(g)
        assert price.rank_gradient == Fraction(1, 2)
        assert price.betti1 == Fraction(1, 2)
        assert price.cost == Fraction(3, 2)
        assert trace.total() == Fraction(1, 2)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_single_edge_matches_finite_rule(self, m):
        # -1/(2m) equals the finite-group price rule 1 - 1/(2m) - 1
        g = path_graph([m])
        price, trace = rg_coxeter_planar(g)
        assert price.rank_gradient == -Fraction(1, 2 * m)
        assert price.rank_gradient == (1 - Fraction(1, 2 * m)) - 1
        assert trace.total() == price.rank_gradient

    def test_finite_groups_have_betti1_zero(self):
        # one vertex (order 2) and one edge labelled 3 (order 6): the
        # closed form is betti1 - 1/|W| and betti1 of a finite group is 0
        for g, order in ((parse_graph("vertex a\n"), 2), (path_graph([3]), 6)):
            price, _ = rg_coxeter_planar(g)
            assert price.cost == 1 - Fraction(1, order)
            assert price.rank_gradient == -Fraction(1, order)
            assert price.betti1 == 0

    def test_finite_leaf_in_amalgam(self):
        # D6 *_{Z/2} Z/4: 5/6 + 3/4 - 1/2 = 13/12, and the amalgam formula
        # gives betti1 0 + 0 + 1/2 - 1/6 - 1/4 = 1/12
        r = evaluate(AmalgamFinite(CoxeterGraph(path_graph([3])), Cyclic(4), 2))
        assert r.cost == Fraction(13, 12)
        assert r.rank_gradient == Fraction(1, 12)
        assert r.betti1 == Fraction(1, 12)

    def test_path_two_edges(self):
        for p, q in [(2, 2), (3, 5), (6, 2)]:
            g = path_graph([p, q])
            price, _ = rg_coxeter_planar(g)
            assert price.betti1 == Fraction(1, 2) - Fraction(1, 2 * p) - Fraction(1, 2 * q)

    def test_family_formula_equals_trace_under_two_policies(self):
        rng = random.Random(67)
        for g in family(rng, 40):
            price, trace = rg_coxeter_planar(g)
            value = closed_form(g)
            assert trace.total() == value
            alt = build_trace(g, max_index_reduction(g))
            assert alt.total() == value
            assert price.rank_gradient == value

    def test_contribution_shapes(self):
        g = path_graph([3, 5])
        _, trace = rg_coxeter_planar(g)
        by_vertex = {s.vertex: s for s in trace.steps}
        # v0 eliminated first at valence 1 (label 3)
        assert by_vertex["v0"].valence == 1
        assert by_vertex["v0"].contribution == Fraction(1, 2) - Fraction(1, 6)
        assert by_vertex["v0"].amalgam == AMALGAM_ORDER2
        # last vertex goes at valence 0
        last = trace.steps[-1]
        assert last.valence == 0
        assert last.contribution == Fraction(1, 2)
        assert last.amalgam == AMALGAM_TRIVIAL

    def test_valence2_steps_have_nonadjacent_neighbours(self):
        rng = random.Random(71)
        for g in family(rng, 30):
            _, trace = rg_coxeter_planar(g)
            for step in trace.steps:
                if step.valence == 2:
                    assert step.amalgam == AMALGAM_DINF
                    w1, w2 = step.star[1], step.star[2]
                    assert not g.has_edge(w1, w2)

    def test_hypothesis_failures(self):
        k4 = LabelledGraph(
            ["a", "b", "c", "d"],
            [("a", "b", 2), ("a", "c", 2), ("a", "d", 2),
             ("b", "c", 2), ("b", "d", 2), ("c", "d", 2)],
        )
        with pytest.raises(HypothesisError) as exc:
            rg_coxeter_planar(k4)
        assert "girth(3) < 6" in str(exc.value)
        assert "nonplanar=false" in str(exc.value)

    def test_nonplanar_girth6_failure_names_planarity(self):
        # subdivided K5: girth >= 6 but not planar
        vertices = [f"b{i}" for i in range(5)]
        edges = []
        k = 0
        for i in range(5):
            for j in range(i + 1, 5):
                mid = f"m{k}"
                k += 1
                vertices.append(mid)
                edges.append((f"b{i}", mid, 2))
                edges.append((mid, f"b{j}", 2))
        g = LabelledGraph(vertices, edges)
        assert girth(g) >= 6 and not is_planar(g)
        with pytest.raises(HypothesisError) as exc:
            rg_coxeter_planar(g)
        assert "nonplanar=true" in str(exc.value)

    def test_disconnection_during_elimination_is_fine(self):
        # eliminating the centre of a star disconnects the rest
        g = LabelledGraph(["c", "x", "y"], [("c", "x", 2), ("c", "y", 3)])
        price, trace = rg_coxeter_planar(g)
        assert trace.total() == price.rank_gradient == closed_form(g)

    def test_trace_json_round_trip(self):
        _, trace = rg_coxeter_planar(cycle_graph([2] * 6))
        text = trace_to_json(trace)
        back = trace_from_json(text)
        assert back == trace
        assert trace_to_json(back) == text


class TestClassC:
    def test_surface_amalgam_over_trivial(self):
        r = eval_class_C(AmalgamFinite(Surface(2), Surface(2), 1))
        assert r.rank_gradient == 5
        assert r.betti1 == 5
        # cross-check through the gradient sum route
        direct = evaluate(AmalgamFinite(Surface(2), Surface(2), 1))
        assert direct.rank_gradient == 2 + 2 + 1

    def test_free_amalgam_over_z(self):
        e = AmalgamAmenable(Free(2), Free(2), FreeAbelian(1))
        r = eval_class_C(e)
        assert r.rank_gradient == 2
        assert any("pinch" in line for line in r.rule_trace)

    def test_infinite_dihedral(self):
        r = eval_class_C(AmalgamFinite(Cyclic(2), Cyclic(2), 1))
        assert r.rank_gradient == 0

    def test_coxeter_leaf_inside_class(self):
        g = cycle_graph([2] * 6)
        r = eval_class_C(CoxeterGraph(g))
        assert r.rank_gradient == Fraction(1, 2)

    def test_leaf_outside_class(self):
        from rgcost.groupexpr import ArtinGraph

        g = path_graph([3])
        r = eval_class_C(ArtinGraph(g))
        assert isinstance(r.rank_gradient, Unknown)
        assert "outside the supported class" in r.rank_gradient.reason

    def test_amalgam_without_witness(self):
        e = AmalgamAmenable(Free(2), Free(2), Free(3))
        r = eval_class_C(e)
        assert isinstance(r.rank_gradient, Unknown)

    def test_generation_not_class_construction(self):
        r = eval_class_C(Generation(Free(1), Free(1), "declared"))
        assert isinstance(r.rank_gradient, Unknown)

    def test_randomized_be_agreement_with_gradient_route(self):
        # finite amalgams of class leaves: the splitting formula and the
        # gradient sum formula must agree
        rng = random.Random(73)
        leaves = [Cyclic(2), Cyclic(3), Cyclic(6), Surface(2), Surface(3),
                  Free(2), Free(3), FreeAbelian(2)]
        for _ in range(100):
            a, b = rng.choice(leaves), rng.choice(leaves)
            e = AmalgamFinite(a, b, 1)
            r = eval_class_C(e)
            direct = evaluate(e)
            if is_known(r.rank_gradient):
                assert r.rank_gradient == direct.rank_gradient == direct.betti1

import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, path_graph, random_connected_graph
from rgcost.certificate import (
    BUILTINS,
    PARAM_CAP,
    AmalgamDescriptor,
    AmalgamNode,
    AmenableLeaf,
    Certificate,
    CitedFactLeaf,
    FiniteLeaf,
    GenerationNode,
    InfiniteCenterLeaf,
    builtin_certificate,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    edge_center_word,
    lickorish_sequence,
    rg_artin,
)
from rgcost.cli import main
from rgcost.groupexpr import ArtinGraph, evaluate
from rgcost.lgraph import LabelledGraph, components, parse_graph
from rgcost.numread import LimitExceeded


class TestEdgeCenterWord:
    @pytest.mark.parametrize("label,exponent", [(2, 1), (3, 3), (4, 2), (5, 5), (6, 3)])
    def test_values(self, label, exponent):
        assert edge_center_word(label) == exponent


class TestDecompose:
    def test_single_vertex(self):
        g = parse_graph("vertex a\n")
        node = rg_artin(g)[1].root
        assert isinstance(node, AmenableLeaf)
        assert node.cost == 1

    def test_single_edge(self):
        g = parse_graph("vertex a\nvertex b\nedge a b 5\n")
        node = rg_artin(g)[1].root
        assert isinstance(node, InfiniteCenterLeaf)
        assert node.exponent == 5
        assert node.cost == 1

    def test_path_is_generation_over_shared_vertex(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\n")
        node = rg_artin(g)[1].root
        assert isinstance(node, GenerationNode)
        assert all(isinstance(c, InfiniteCenterLeaf) for c in node.children)
        assert [c.endpoints for c in node.children] == [("a", "b"), ("b", "c")]
        assert node.witness_vertices == ("b",)
        assert node.cost == 1

    def test_cycle_uses_generation(self):
        g = parse_graph(
            "vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 2\nedge a c 2\n"
        )
        node = rg_artin(g)[1].root
        assert isinstance(node, GenerationNode)
        # breadth-first tree from a, neighbours in index order: ab, then ac
        assert [c.endpoints for c in node.children] == [("a", "b"), ("a", "c")]
        assert node.witness_vertices == ("a",)

    def test_round_trip_random(self):
        rng = random.Random(47)
        done = 0
        while done < 60:
            g = random_connected_graph(rng, n_min=1, n_max=12)
            if len(components(g)) != 1:
                continue
            node = rg_artin(g)[1].root
            report = check_certificate(Certificate(root=node, target="t", graph=g))
            assert report.valid, report.violations
            assert not report.assumptions
            assert node.cost == 1
            done += 1

    def test_determinism(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_connected_graph(rng, n_min=2, n_max=10)
            cert1 = Certificate(root=rg_artin(g)[1].root, target="t", graph=g)
            cert2 = Certificate(root=rg_artin(g)[1].root, target="t", graph=g)
            assert certificate_to_json(cert1) == certificate_to_json(cert2)

    def test_generation_vertex_bookkeeping(self):
        # the children are the edges of a spanning tree, each meeting the
        # earlier ones in exactly its witness vertex
        rng = random.Random(59)
        for _ in range(40):
            g = random_connected_graph(rng, n_min=3, n_max=10)
            node = rg_artin(g)[1].root
            assert isinstance(node, GenerationNode)
            assert len(node.children) == g.num_vertices - 1
            union = set(node.children[0].endpoints)
            for leaf, w in zip(node.children[1:], node.witness_vertices):
                assert set(leaf.endpoints) & union == {w}
                union |= set(leaf.endpoints)
            assert union == set(g.vertices)


class TestRgArtin:
    def test_connected_path(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\n")
        price, cert = rg_artin(g)
        assert price.cost == 1 and price.rank_gradient == 0
        assert check_certificate(cert).valid

    def test_two_isolated_vertices_is_f2(self):
        g = parse_graph("vertex a\nvertex b\n")
        price, cert = rg_artin(g)
        assert price.rank_gradient == 1
        assert check_certificate(cert).valid

    def test_three_components(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\n")
        price, _ = rg_artin(g)
        assert price.rank_gradient == 2
        assert price.cost == 3

    def test_matches_groupexpr(self):
        rng = random.Random(61)
        for _ in range(30):
            g = random_connected_graph(rng, n_min=1, n_max=9)
            price, _ = rg_artin(g)
            assert price.rank_gradient == 0
            assert price.rank_gradient == evaluate(ArtinGraph(g)).rank_gradient

    def test_certificate_carries_caveat(self):
        g = parse_graph("vertex a\n")
        _, cert = rg_artin(g)
        assert cert.caveat and "finite-index" in cert.caveat


class TestChecker:
    def test_tampered_cost_is_violation(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\n")
        node = rg_artin(g)[1].root
        bad = replace(node, cost=Fraction(2))
        report = check_certificate(Certificate(root=bad, target="t", graph=g))
        assert not report.valid
        assert any("claimed cost" in v for v in report.violations)

    def test_disjoint_generation_children(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nvertex d\nedge a b 2\nedge c d 2\n")
        first = InfiniteCenterLeaf(endpoints=("a", "b"), label=2, exponent=1, cost=Fraction(1))
        second = InfiniteCenterLeaf(endpoints=("c", "d"), label=2, exponent=1, cost=Fraction(1))
        node = GenerationNode(children=(first, second), witnesses=("none",),
                              cost=Fraction(1), witness_vertices=("b",))
        report = check_certificate(Certificate(root=node, target="t", graph=g))
        assert any("empty intersection" in v for v in report.violations)

    def test_amalgam_arithmetic_with_order_two_subgroup(self):
        node = AmalgamNode(
            children=(AmenableLeaf(name="A", reason="declared", cost=Fraction(1)),
                      AmenableLeaf(name="B", reason="declared", cost=Fraction(1))),
            amalgam=AmalgamDescriptor(order=2, name="C"),
            cost=Fraction(3, 2),
        )
        assert check_certificate(Certificate(root=node, target="t")).valid

    def test_wrong_center_exponent(self):
        leaf = InfiniteCenterLeaf(endpoints=("a", "b"), label=4, exponent=4, cost=Fraction(1))
        report = check_certificate(Certificate(root=leaf, target="t"))
        assert any("exponent" in v for v in report.violations)

    def test_finite_leaf_cost(self):
        for cost, valid in [(Fraction(5, 6), True), (Fraction(1, 2), False)]:
            leaf = FiniteLeaf(order=6, cost=cost)
            assert check_certificate(Certificate(root=leaf, target="t")).valid == valid

    @pytest.mark.parametrize("leaf", [
        FiniteLeaf(order=0, cost=Fraction(0)),
        InfiniteCenterLeaf(endpoints=("a", "b"), label=1, exponent=1, cost=Fraction(1)),
    ], ids=["order-0", "label-1"])
    def test_degenerate_leaf_is_violation_not_crash(self, leaf):
        assert not check_certificate(Certificate(root=leaf, target="t")).valid

    def test_blank_generation_witness(self):
        node = GenerationNode(children=(AmenableLeaf(name="A", reason="r", cost=Fraction(1)),
                                        AmenableLeaf(name="B", reason="r", cost=Fraction(1))),
                              witnesses=(" \t",), cost=Fraction(1))
        report = check_certificate(Certificate(root=node, target="t"))
        assert report.violations == ["node 2 [GenerationNode]: empty intersection witness"]

    def test_checker_recomputes_from_children(self):
        # consistent-looking parent over a tampered child must be caught
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\n")
        node = rg_artin(g)[1].root
        bad_child = replace(node.children[0], cost=Fraction(2))
        bad = replace(node, children=(bad_child,) + node.children[1:], cost=Fraction(2))
        report = check_certificate(Certificate(root=bad, target="t", graph=g))
        assert not report.valid


class TestBuiltins:
    def test_sl2z(self):
        cert = builtin_certificate("SL2Z")
        report = check_certificate(cert)
        assert report.valid
        assert len(report.assumptions) == 0
        assert cert.root.cost == Fraction(13, 12)
        assert cert.root.cost - 1 == Fraction(1, 12)

    def test_lickorish_sequence_length(self):
        assert lickorish_sequence(2) == ("m1", "a1", "c1", "a2", "m2")
        assert lickorish_sequence(3) == (
            "m1", "a1", "c1", "a2", "m2", "a2", "c2", "a3", "m3")

    @pytest.mark.parametrize("genus,count", [(2, 4), (3, 7), (4, 10)])
    def test_mcg_assumption_counts(self, genus, count):
        cert = builtin_certificate("MCG", genus)
        report = check_certificate(cert)
        assert report.valid, report.violations
        assert len(report.assumptions) == count == 3 * genus - 2
        assert cert.root.cost == 1

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 4)])
    def test_autfn_assumption_counts(self, n, count):
        cert = builtin_certificate("AutFn", n)
        report = check_certificate(cert)
        assert report.valid, report.violations
        assert len(report.assumptions) == count
        assert cert.root.cost == 1

    @pytest.mark.parametrize("n,count", [(3, 3), (4, 2)])
    def test_outfn_assumption_counts(self, n, count):
        cert = builtin_certificate("OutFn", n)
        report = check_certificate(cert)
        assert report.valid, report.violations
        assert len(report.assumptions) == count

    def test_outfn3_mentions_alpha_intersection(self):
        report = check_certificate(builtin_certificate("OutFn", 3))
        assert any("Xbar n Zbar >= <alphabar> is infinite" in a for a in report.assumptions)

    def test_bn_mod_center(self):
        cert = builtin_certificate("BnModCenter", 4)
        report = check_certificate(cert)
        assert report.valid
        assert len(report.assumptions) == 2
        assert cert.root.cost == 1

    def test_autf2_alias(self):
        cert = builtin_certificate("AutF2")
        assert check_certificate(cert).valid

    # The command line is read once, by `cmd_certify`, so the range and the
    # cap are refused there, before `builtin_certificate` is called.
    @pytest.mark.parametrize("name,param,line", [
        ("MCG", 1, "error: MCG genus must be >= 2"),
        ("AutFn", 1, "error: AutFn rank must be >= 2"),
        ("OutFn", 2, "error: OutFn rank must be >= 3"),
        ("BnModCenter", 3, "error: BnModCenter strand must be >= 4"),
        ("MCG", None, "error: MCG requires a genus parameter >= 2"),
        ("SL2Z", 3, "error: SL2Z takes no parameter"),
    ], ids=["MCG-1", "AutFn-1", "OutFn-2", "BnModCenter-3", "MCG-None", "SL2Z-3"])
    def test_out_of_range(self, name, param, line, capsys):
        argv = ["--no-timestamp", "certify", name] + ([] if param is None else [str(param)])
        assert main(argv) == 2
        assert capsys.readouterr().out.split("\n")[-2] == line

    @pytest.mark.parametrize("name", ["MCG", "AutFn", "OutFn", "BnModCenter"])
    def test_parameter_above_the_cap_builds_nothing(self, name, monkeypatch, capsys):
        def build(param):
            raise AssertionError(f"built {name} {param}")

        _, noun, least = BUILTINS[name]
        monkeypatch.setitem(BUILTINS, name, (build, noun, least))
        for param in (PARAM_CAP + 1, 99_999_999_999):
            assert main(["--no-timestamp", "certify", name, str(param)]) == 5
            assert capsys.readouterr().out.split("\n")[-2] == (
                f"inconclusive: {name} {noun} {param} exceeds the cap {PARAM_CAP}")

    def test_parameter_at_the_cap(self):
        assert check_certificate(builtin_certificate("BnModCenter", PARAM_CAP)).valid


class TestJson:
    def test_round_trip_artin(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 6\n")
        _, cert = rg_artin(g)
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert certificate_to_json(back) == text
        assert check_certificate(back).valid

    def test_round_trip_builtins(self):
        for name, param in [("SL2Z", None), ("MCG", 3), ("AutFn", 3),
                            ("OutFn", 3), ("BnModCenter", 4)]:
            cert = builtin_certificate(name, param)
            text = certificate_to_json(cert)
            back = certificate_from_json(text)
            assert certificate_to_json(back) == text
            r1, r2 = check_certificate(cert), check_certificate(back)
            assert r1.valid == r2.valid
            assert r1.assumptions == r2.assumptions

    def test_rejects_format_1(self):
        old = ('{"format": "rgcost-certificate/1", "target": "", "claimed_cost": "1", '
               '"citations": [], "caveat": null, "graph": null, '
               '"root": {"kind": "amenable", "cost": "1", "name": "Z", "reason": "r"}}')
        with pytest.raises(ValueError,
                           match=r"^unsupported certificate format 'rgcost-certificate/1'$"):
            certificate_from_json(old)

    @pytest.mark.parametrize("nodes,match", [
        ([{"kind": "amenable", "name": "<a>", "reason": "r", "cost": "1", "vertex": "a"},
          {"kind": "amalgam", "children": [0, 0], "cost": "2",
           "amalgam": {"kind": "finite", "order": 1}}], "certificate node 1"),
        ([{"kind": "amenable", "name": "<a>", "reason": "r", "cost": "1", "vertex": "a"},
          {"kind": "amenable", "name": "<b>", "reason": "r", "cost": "1", "vertex": "b"}],
         "not one tree"),
        ([{"kind": "amalgam", "children": [1], "cost": "1",
           "amalgam": {"kind": "finite", "order": 1}},
          {"kind": "amenable", "name": "<a>", "reason": "r", "cost": "1", "vertex": "a"}],
         "certificate node 0"),
        ([{"kind": "amenable", "name": "<a>", "reason": "r"}], "certificate node 0"),
        # a claim of cost 1 on a hypothesis tag alone, for any ambient group
        ([{"kind": "normal-subgroup", "ambient": "G", "subgroup": "C",
           "hypothesis": "infinite-centre", "reason": "r", "cost": "1"}],
         "unknown certificate node kind 'normal-subgroup'"),
        # two order-2 groups amalgamated at price 1 over a declared amenable
        # subgroup: cost 0
        ([{"kind": "finite", "order": 2, "cost": "1/2"},
          {"kind": "finite", "order": 2, "cost": "1/2"},
          {"kind": "amalgam", "children": [0, 1], "cost": "0",
           "amalgam": {"kind": "amenable", "name": "<c>"}}],
         r"certificate node 2 \(amalgam\): unknown amalgam descriptor kind 'amenable'"),
        ([{"kind": "finite", "order": 2, "cost": "1/2"},
          {"kind": "finite", "order": 2, "cost": "1/2"},
          {"kind": "amalgam", "children": [0, 1], "cost": "1/2",
           "amalgam": {"kind": "finite", "order": 2, "vertex": "a"}}],
         r"certificate node 2 \(amalgam\): field 'vertex' is not declared by AmalgamDescriptor"),
        # order 0 would price the subgroup at 1 - 1/0
        ([{"kind": "finite", "order": 2, "cost": "1/2"},
          {"kind": "finite", "order": 2, "cost": "1/2"},
          {"kind": "amalgam", "children": [0, 1], "cost": "1",
           "amalgam": {"kind": "finite", "order": 0}}],
         r"certificate node 2 \(amalgam\): finite descriptor needs an order >= 1"),
        ([], "certificate has no nodes"),
        # a leaf that claims a child would drop it, and its assumption, unseen
        ([{"kind": "cited-fact", "statement": "s", "citation": "c", "cost": "5"},
          {"kind": "amenable", "name": "Z", "reason": "r", "cost": "1", "children": [0]}],
         r"certificate node 1 \(amenable\): field 'children' is not declared by AmenableLeaf"),
    ], ids=["shared-child", "two-roots", "forward-reference", "missing-cost",
            "normal-subgroup", "amenable-amalgam", "descriptor-undeclared-key",
            "descriptor-order-zero", "no-nodes",
            "leaf-with-children"])
    def test_rejects_nodes_that_are_not_one_post_order_tree(self, nodes, match):
        doc = {"format": "rgcost-certificate/2", "target": "", "claimed_cost": "1",
               "citations": [], "caveat": None, "graph": None, "nodes": nodes}
        with pytest.raises(ValueError, match=match):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("target", 5), ("caveat", ["c"]), ("citations", 5), ("citations", "ab"),
        ("claimed_cost", "zz"), ("claimed_cost", "1"), ("claimed_cost", "1/0"),
        ("claimed_cost", None),
    ], ids=["target", "caveat", "citations-int", "citations-str", "cost-text",
            "cost-other", "cost-zero-denominator", "cost-missing"])
    def test_rejects_malformed_header(self, field, value):
        doc = json.loads(certificate_to_json(builtin_certificate("SL2Z")))
        doc[field] = value
        with pytest.raises(ValueError, match=f"field '{field}'"):
            certificate_from_json(json.dumps(doc))

    def test_claimed_cost_is_read_as_a_fraction(self):
        """By the rational rule: the text `str(Fraction)` writes, so in
        lowest terms, compared with the root's cost by value."""
        doc = json.loads(certificate_to_json(builtin_certificate("SL2Z")))
        assert doc["claimed_cost"] == "13/12"
        assert certificate_from_json(json.dumps(doc)).root.cost == Fraction(13, 12)
        doc["claimed_cost"] = "26/24"
        with pytest.raises(ValueError, match="^field 'claimed_cost' must be a rational"):
            certificate_from_json(json.dumps(doc))

    # Cost text outside the rule: an exponent, an underscore, a non-ASCII
    # digit, padding, a plus sign, a fraction not in lowest terms, a zero
    # denominator, a leading zero, a term past the int() digit limit and
    # a 12-byte exponent that Fraction() would take seconds to read.
    FORGED_COSTS = ["1e3", "1_0", "\u0663", " 1", "+1", "2/4", "1/0", "01", "7" * 5000,
                    "1e10000000"]

    def test_rejects_forged_cost_text(self):
        start = time.perf_counter()
        for cost in self.FORGED_COSTS:
            doc = json.loads(certificate_to_json(builtin_certificate("SL2Z")))
            doc["nodes"][0]["cost"] = cost
            with pytest.raises((ValueError, LimitExceeded),
                               match=r"^certificate node 0 \(finite\): field 'cost' "):
                certificate_from_json(json.dumps(doc))
            doc = json.loads(certificate_to_json(builtin_certificate("SL2Z")))
            doc["claimed_cost"] = cost
            with pytest.raises((ValueError, LimitExceeded), match=r"^field 'claimed_cost' "):
                certificate_from_json(json.dumps(doc))
        assert time.perf_counter() - start < 1.0

    def test_rejects_zero_denominator_node_cost(self):
        doc = json.loads(certificate_to_json(builtin_certificate("SL2Z")))
        doc["nodes"][0]["cost"] = "1/0"
        with pytest.raises(ValueError, match=r"certificate node 0 \(finite\)"):
            certificate_from_json(json.dumps(doc))

    # a cost read from a float would be the float's binary value, and a
    # boolean would read as 0 or 1
    @pytest.mark.parametrize("value", [0.8333333333333334, True, 1, None],
                             ids=["float", "bool", "int", "null"])
    def test_rejects_non_string_node_cost(self, value):
        doc = json.loads(certificate_to_json(builtin_certificate("SL2Z")))
        doc["nodes"][0]["cost"] = value
        with pytest.raises(ValueError, match=r"certificate node 0 \(finite\): field 'cost'"):
            certificate_from_json(json.dumps(doc))

    def test_external_cost_strings_are_fractions(self):
        cert = builtin_certificate("SL2Z")
        assert '"claimed_cost": "13/12"' in certificate_to_json(cert)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            certificate_from_json('{"format": "other", "root": {}}')

    # one isolated vertex (amenable leaf with a vertex) beside the path
    # a-b-c (generation over edge leaves with endpoints and a witness vertex)
    TYPED = "vertex a\nvertex b\nvertex c\nvertex d\nedge a b 3\nedge b c 3\n"

    def _mutated(self, kind, field, value):
        doc = json.loads(certificate_to_json(rg_artin(parse_graph(self.TYPED))[1]))
        at = next(i for i, d in enumerate(doc["nodes"]) if d["kind"] == kind)
        doc["nodes"][at][field] = value
        return json.dumps(doc), at

    @pytest.mark.parametrize("kind,field,value", [
        ("infinite-centre", "endpoints", [["a"], "b"]),
        ("infinite-centre", "endpoints", ["a"]),
        ("amenable", "vertex", 4),
        ("generation", "witness_vertices", [["b"]]),
        ("generation", "witnesses", [7]),
        # the reader keeps only declared fields, so an extra key is no note
        ("infinite-centre", "note", "anything"),
        ("infinite-centre", "bogus", 1),
    ], ids=["endpoints-list", "endpoints-one", "vertex", "witness-vertices", "witnesses",
            "undeclared-note", "undeclared-key"])
    def test_rejects_non_string_vertex_names(self, kind, field, value):
        text, at = self._mutated(kind, field, value)
        with pytest.raises(ValueError, match=rf"certificate node {at} \({kind}\): field '{field}'"):
            certificate_from_json(text)

    @pytest.mark.parametrize("graph", [
        ["a", "b"],
        {"vertices": [["a"], "b", "c", "d"], "edges": []},
        {"vertices": ["a", "b", "c", "d"], "edges": [["a", ["b"], 3]]},
        {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b", "3"]]},
        {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"]]},
        {"vertices": ["a", "b", "c", "d"]},
    ], ids=["not-a-dict", "vertex", "endpoint", "label", "short-edge", "no-edges"])
    def test_rejects_malformed_graph(self, graph):
        doc = json.loads(certificate_to_json(rg_artin(parse_graph(self.TYPED))[1]))
        doc["graph"] = graph
        with pytest.raises(ValueError, match="certificate graph must be"):
            certificate_from_json(json.dumps(doc))

    LONG = "A" * 3000

    @pytest.mark.parametrize("vertices,edges,message", [
        ([LONG + "-"], [], "invalid vertex name"),
        ([LONG, LONG], [], "duplicate vertex"),
        (["a"], [["a", LONG, 2]], "undeclared endpoint"),
        ([LONG], [[LONG, LONG, 2]], "self-loop at"),
        ([LONG, "b"], [[LONG, "b", 2], ["b", LONG, 3]], "duplicate edge 'b'"),
    ], ids=["invalid", "duplicate-vertex", "undeclared", "self-loop", "duplicate-edge"])
    def test_graph_error_cuts_long_names(self, vertices, edges, message):
        doc = json.loads(certificate_to_json(rg_artin(parse_graph(self.TYPED))[1]))
        doc["graph"] = {"vertices": vertices, "edges": edges}
        with pytest.raises(ValueError) as caught:
            certificate_from_json(json.dumps(doc))
        text = str(caught.value)
        assert text == f"{message} '{'A' * 20}...'" and len(text.encode()) <= 200

    def test_rejects_unknown_node_kind(self):
        bad = ('{"format": "rgcost-certificate/2", "target": "", "claimed_cost": "1", '
               '"citations": [], "caveat": null, "graph": null, '
               '"nodes": [{"kind": "mystery", "cost": "1"}]}')
        with pytest.raises(ValueError, match="mystery"):
            certificate_from_json(bad)


TRIANGLE = "vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c 3\n"


def edge_leaf(u, v, label):
    return InfiniteCenterLeaf(endpoints=(u, v), label=label,
                              exponent=edge_center_word(label), cost=Fraction(1))


class TestSoundness:
    """Forged certificates whose arithmetic is consistent but whose claim
    the graph does not justify."""

    def test_edge_leaf_root_of_two_component_graph(self):
        # cost 1 claimed for A(a-b) * Z, whose cost is 2
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\n")
        forged = Certificate(root=edge_leaf("a", "b", 3), target="forged", graph=g)
        report = check_certificate(forged)
        assert not report.valid
        assert any("root" in v for v in report.violations)

    def test_free_product_of_b3_edge_with_itself(self):
        # cost 2 claimed for B3, whose cost is 1
        g = parse_graph("vertex a\nvertex b\nedge a b 3\n")
        leaf = edge_leaf("a", "b", 3)
        forged = AmalgamNode(children=(leaf, leaf), cost=Fraction(2),
                             amalgam=AmalgamDescriptor(order=1, name="trivial"))
        report = check_certificate(Certificate(root=forged, target="forged", graph=g))
        assert any("share vertices" in v for v in report.violations)

    def test_vertex_amalgam_in_triangle(self):
        # {a,c} and {b,c} over <c>: c does not separate a from b
        doc = {"format": "rgcost-certificate/2", "target": "forged", "claimed_cost": "1",
               "citations": [], "caveat": None,
               "graph": {"vertices": ["a", "b", "c"],
                         "edges": [["a", "b", 3], ["a", "c", 3], ["b", "c", 3]]},
               "nodes": [
                   {"kind": "infinite-centre", "endpoints": ["a", "c"], "label": 3,
                    "exponent": 3, "cost": "1"},
                   {"kind": "infinite-centre", "endpoints": ["b", "c"], "label": 3,
                    "exponent": 3, "cost": "1"},
                   {"kind": "amalgam", "children": [0, 1], "cost": "1",
                    "amalgam": {"kind": "vertex", "name": "<c>"}}]}
        with pytest.raises(ValueError, match="unknown amalgam descriptor kind"):
            certificate_from_json(json.dumps(doc))
        # the same split stated over a subgroup of order 2 is arithmetically
        # consistent (1 + 1 - 1/2) but is no step of the Artin induction
        forged = AmalgamNode(children=(edge_leaf("a", "c", 3), edge_leaf("b", "c", 3)),
                             amalgam=AmalgamDescriptor(order=2, name="<c^2>"),
                             cost=Fraction(3, 2))
        report = check_certificate(Certificate(root=forged, target="forged",
                                                graph=parse_graph(TRIANGLE)))
        assert any("trivial group" in v for v in report.violations)

    def test_free_product_factors_joined_by_an_edge(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 4\n")
        forged = AmalgamNode(children=(edge_leaf("a", "b", 3), AmenableLeaf(
            name="<c>", reason="r", cost=Fraction(1), vertex="c")),
            amalgam=AmalgamDescriptor(order=1), cost=Fraction(2))
        report = check_certificate(Certificate(root=forged, target="forged", graph=g))
        assert any("joins two free-product factors" in v for v in report.violations)

    @pytest.mark.parametrize("leaf", [
        FiniteLeaf(order=2, cost=Fraction(1, 2)),
        CitedFactLeaf(statement="s", citation="c", cost=Fraction(1)),
        AmenableLeaf(name="Z", reason="r", cost=Fraction(1)),
    ], ids=["finite", "cited", "amenable-without-vertex"])
    def test_nodes_outside_the_artin_induction(self, leaf):
        # a free-product factor with no vertices would leave the root's set intact
        g = parse_graph("vertex a\nvertex b\nedge a b 3\n")
        root = AmalgamNode(children=(edge_leaf("a", "b", 3), leaf), cost=1 + leaf.cost,
                           amalgam=AmalgamDescriptor(order=1))
        report = check_certificate(Certificate(root=root, target="t", graph=g))
        assert [v for v in report.violations if v.startswith("node 1 ")], report.violations

    def test_generation_factor_must_cost_one(self):
        # <a> * <c> costs 2, so the generated group need not cost 1
        g = parse_graph("vertex a\nvertex b\nvertex c\nedge a b 3\n")
        free = AmalgamNode(
            children=(AmenableLeaf(name="<a>", reason="r", cost=Fraction(1), vertex="a"),
                      AmenableLeaf(name="<c>", reason="r", cost=Fraction(1), vertex="c")),
            amalgam=AmalgamDescriptor(order=1), cost=Fraction(2))
        root = GenerationNode(children=(free, edge_leaf("a", "b", 3)), witnesses=("<a>",),
                              cost=Fraction(1), witness_vertices=("a",))
        report = check_certificate(Certificate(root=root, target="t", graph=g))
        assert any("factor 0 cost 2 != 1" in v for v in report.violations)

    def test_subgroup_order_must_divide_finite_factors(self):
        # three Z/2 over a declared subgroup of order 100: 3 * 1/2 - 2 * 99/100
        forged = AmalgamNode(children=(FiniteLeaf(order=2, cost=Fraction(1, 2)),) * 3,
                             amalgam=AmalgamDescriptor(order=100),
                             cost=Fraction(-12, 25))
        report = check_certificate(Certificate(root=forged, target="forged"))
        assert not report.valid and report.assumptions == []
        assert report.violations == [
            f"node 3 [AmalgamNode]: subgroup order 100 does not divide factor {j} order 2"
            for j in range(3)]
        # Z/6 *_{Z/2} Z/4 is SL(2, Z)
        assert check_certificate(builtin_certificate("SL2Z")).valid

    @pytest.mark.parametrize("root", [
        AmalgamNode(children=(), amalgam=AmalgamDescriptor(order=1),
                    cost=Fraction(0)),
        GenerationNode(children=(), witnesses=(), cost=Fraction(1), witness_vertices=()),
    ], ids=["empty-free-product", "empty-generation"])
    def test_node_without_factors(self, root):
        g = parse_graph("vertex a\n")
        report = check_certificate(Certificate(root=root, target="t", graph=g))
        assert any("at least two factors" in v for v in report.violations)


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(1, 9))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    return LabelledGraph(vs, [(vs[i], vs[j], draw(st.integers(2, 7))) for i, j in chosen])


def _positions(node, path=()):
    yield path, node
    for j, child in enumerate(getattr(node, "children", ())):
        yield from _positions(child, path + (j,))


def _replace_at(node, path, new):
    if not path:
        return new
    kids = list(node.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return replace(node, children=tuple(kids))


def _mutations(root, g, data):
    """(name, mutated root) for each mutation kind that applies."""
    spots = list(_positions(root))
    interior = [(p, n) for p, n in spots if getattr(n, "children", ())]
    leaves = [(p, n) for p, n in spots if isinstance(n, InfiniteCenterLeaf)]
    gens = [(p, n) for p, n in interior if isinstance(n, GenerationNode)]
    out = []
    if interior:
        path, node = data.draw(st.sampled_from(interior))
        j = data.draw(st.integers(0, len(node.children) - 1))
        kids = node.children[:j] + node.children[j + 1:]
        if isinstance(node, GenerationNode):
            k = max(j - 1, 0)
            dropped = replace(node, children=kids,
                              witnesses=node.witnesses[:k] + node.witnesses[k + 1:],
                              witness_vertices=node.witness_vertices[:k]
                              + node.witness_vertices[k + 1:])
        else:
            dropped = replace(node, children=kids, cost=node.cost - 1)
        out.append(("drop child", _replace_at(root, path, dropped)))
        dup = node.children[:j + 1] + node.children[j:]
        out.append(("duplicate child", _replace_at(root, path, replace(node, children=dup))))
        if isinstance(node, AmalgamNode):
            out.append(("duplicate factor", _replace_at(
                root, path, replace(node, children=dup, cost=node.cost + 1))))
    if leaves:
        path, leaf = data.draw(st.sampled_from(leaves))
        non_edges = [(u, w) for u in g.vertices for w in g.vertices
                     if u != w and not g.has_edge(u, w)]
        if non_edges:
            ends = data.draw(st.sampled_from(non_edges))
            out.append(("move edge", _replace_at(root, path, replace(leaf, endpoints=ends))))
        label = data.draw(st.integers(2, 7).filter(lambda x: x != leaf.label))
        out.append(("change label", _replace_at(root, path, replace(
            leaf, label=label, exponent=edge_center_word(label)))))
        out.append(("change exponent", _replace_at(
            root, path, replace(leaf, exponent=leaf.exponent + 1))))
    if gens:
        path, node = data.draw(st.sampled_from(gens))
        j = data.draw(st.integers(1, len(node.children) - 1))
        earlier = {v for c in node.children[:j] for v in c.endpoints}
        w = data.draw(st.sampled_from(sorted(set(g.vertices) - earlier)))
        shared = list(node.witness_vertices)
        shared[j - 1] = w
        out.append(("move witness", _replace_at(
            root, path, replace(node, witness_vertices=tuple(shared)))))
    path, node = data.draw(st.sampled_from(spots))
    delta = data.draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)]))
    out.append(("change cost", _replace_at(root, path, replace(node, cost=node.cost + delta))))
    return out


class TestMutations:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(labelled_graphs(), st.data())
    def test_builder_valid_and_every_mutation_rejected(self, g, data):
        price, cert = rg_artin(g)
        report = check_certificate(cert)
        assert report.valid, report.violations
        assert price.cost == cert.root.cost == len(components(g))
        text = certificate_to_json(cert)
        assert certificate_to_json(certificate_from_json(text)) == text

        for name, root in _mutations(cert.root, g, data):
            forged = replace(cert, root=root)
            assert not check_certificate(forged).valid, name
            assert not check_certificate(certificate_from_json(
                certificate_to_json(forged))).valid, name


def _json_depth(value) -> int:
    depth, stack = 0, [(value, 1)]
    while stack:
        v, d = stack.pop()
        depth = max(depth, d)
        children = v.values() if isinstance(v, dict) else v if isinstance(v, list) else ()
        stack.extend((c, d + 1) for c in children)
    return depth


class TestLargeInputs:
    @pytest.mark.parametrize("g", [path_graph([3] * 799), path_graph([2, 5, 4] * 666 + [3]),
                                   cycle_graph([4, 3] * 200)],
                             ids=["path-800", "path-2000", "cycle-400"])
    def test_build_check_and_size(self, g):
        price, cert = rg_artin(g)
        assert price.cost == 1
        report = check_certificate(cert)
        assert report.valid, report.violations[:3]
        text = certificate_to_json(cert)
        assert len(text) < 300 * (g.num_vertices + g.num_edges)
        assert check_certificate(certificate_from_json(text)).valid

    def test_nesting_depth_does_not_grow(self):
        def depth(n):
            _, cert = rg_artin(path_graph([3] * (n - 1)))
            return _json_depth(json.loads(certificate_to_json(cert)))

        assert depth(5) == depth(2000)

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COUNT_TEXT, induced, infer_order, random_graph, reference_count
from rgcost.groupexpr import (
    INFINITE,
    AmalgamAmenable,
    AmalgamFinite,
    Amenable,
    ArtinGraph,
    CoxeterGraph,
    Cyclic,
    Free,
    FreeAbelian,
    Generation,
    GroupExpr,
    GroupOrder,
    IntegersZ,
    PriceResult,
    Surface,
    TrivialGroup,
    Unknown,
    evaluate,
    is_known,
    recip_order,
)
from rgcost.lgraph import components, parse_graph
from rgcost.numread import LimitExceeded, read_count


class TestRecipOrder:
    def test_infinite_is_zero(self):
        assert recip_order(INFINITE) == 0

    def test_finite(self):
        assert recip_order(GroupOrder(2)) == Fraction(1, 2)
        assert recip_order(GroupOrder(12)) == Fraction(1, 12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            GroupOrder(0)


class TestLeafPrices:
    @pytest.mark.parametrize("expr,cost,betti", [
        (TrivialGroup(), Fraction(0), Fraction(0)),
        (Cyclic(6), Fraction(5, 6), Fraction(0)),
        (IntegersZ(), Fraction(1), Fraction(0)),
        (FreeAbelian(3), Fraction(1), Fraction(0)),
        (Amenable("lamplighter", INFINITE), Fraction(1), Fraction(0)),
        (Amenable("S3", GroupOrder(6)), Fraction(5, 6), Fraction(0)),
        (Free(2), Fraction(2), Fraction(1)),
        (Free(1), Fraction(1), Fraction(0)),
        (Surface(2), Fraction(3), Fraction(2)),
    ])
    def test_values(self, expr, cost, betti):
        r = evaluate(expr)
        assert r.cost == cost
        assert r.betti1 == betti
        assert r.rank_gradient == cost - 1
        assert r.fixed_price

    def test_cyclic_finite_leaf_sanity(self):
        for n in range(2, 10):
            r = evaluate(Cyclic(n))
            assert r.rank_gradient == -Fraction(1, n) == r.cost - 1


class TestAmalgams:
    def test_sl2z_flagship(self):
        r = evaluate(AmalgamFinite(Cyclic(6), Cyclic(4), 2))
        assert r.cost == Fraction(13, 12)
        assert r.rank_gradient == Fraction(1, 12)
        assert r.betti1 == Fraction(1, 12)
        assert r.fixed_price

    def test_infinite_dihedral_vanishes(self):
        r = evaluate(AmalgamFinite(Cyclic(2), Cyclic(2), 1))
        assert r.rank_gradient == 0
        assert r.betti1 == 0

    def test_psl2z(self):
        # oracle for 1/6: the congruence kernels of <a,b | a^2, b^3> are free
        # of rank 1 + index/6 (exercised end to end in the acceptance suite)
        r = evaluate(AmalgamFinite(Cyclic(2), Cyclic(3), 1))
        assert r.rank_gradient == Fraction(1, 6)

    def test_amenable_amalgam_betti(self):
        e = AmalgamAmenable(Free(2), Free(2), FreeAbelian(1))
        r = evaluate(e)
        assert r.betti1 == Fraction(2)
        assert r.cost == Fraction(3)

    def test_amalgam_without_witness_is_unknown(self):
        e = AmalgamAmenable(Free(2), Free(2), Free(2))
        r = evaluate(e)
        assert isinstance(r.betti1, Unknown)
        assert "witness" in r.betti1.reason

    def test_degenerate_amalgam_flagged(self):
        r = evaluate(AmalgamFinite(Cyclic(2), Cyclic(2), 2))
        assert isinstance(r.betti1, Unknown)
        assert "degenerate" in r.betti1.reason


class TestArtinCoxeterLeaves:
    def test_artin_connected_cost_one(self):
        g = parse_graph("vertex a\nvertex b\nedge a b 3\n")
        r = evaluate(ArtinGraph(g))
        assert r.cost == 1 and r.rank_gradient == 0 and r.betti1 == 0

    def test_artin_betti_counts_components(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\n")
        r = evaluate(ArtinGraph(g))
        assert r.cost == 3 and r.betti1 == 2

    def test_free_product_consistency(self):
        # disconnected Artin graph evaluates like iterated order-1 amalgams
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng, n_min=2, n_max=9)
            blocks = components(g)
            expr = ArtinGraph(induced(g, blocks[0]))
            for block in blocks[1:]:
                expr = AmalgamFinite(expr, ArtinGraph(induced(g, block)), 1)
            direct = evaluate(ArtinGraph(g))
            folded = evaluate(expr)
            assert direct.rank_gradient == folded.rank_gradient == len(blocks) - 1
            assert direct.betti1 == folded.betti1

    def test_coxeter_leaf_delegates(self):
        g = parse_graph("vertex a\nvertex b\nedge a b 4\n")
        r = evaluate(CoxeterGraph(g))
        assert r.cost == 1 - Fraction(1, 8)
        assert r.rank_gradient == -Fraction(1, 8)

    def test_coxeter_leaf_outside_class_unknown(self):
        g = parse_graph("vertex a\nvertex b\nvertex c\nvertex d\n"
                        "edge a b 2\nedge b c 2\nedge c d 2\nedge d a 2\n")
        r = evaluate(CoxeterGraph(g))
        assert isinstance(r.cost, Unknown)
        assert not r.fixed_price


class TestGeneration:
    def test_generation_of_price_one_factors(self):
        e = Generation(IntegersZ(), FreeAbelian(2), "shared infinite cyclic subgroup")
        r = evaluate(e)
        assert r.cost == 1 and r.rank_gradient == 0 and r.betti1 == 0

    def test_generation_requires_price_one(self):
        e = Generation(Free(2), Free(3), "declared")
        r = evaluate(e)
        assert isinstance(r.cost, Unknown)
        assert "price 1" in r.cost.reason

    def test_justification_required(self):
        with pytest.raises(ValueError):
            Generation(IntegersZ(), IntegersZ(), "   ")

    def test_justification_recorded_in_trace(self):
        e = Generation(IntegersZ(), IntegersZ(), "both contain the same copy of Z")
        r = evaluate(e)
        assert any("both contain the same copy of Z" in line for line in r.rule_trace)


def random_expr(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.4:
        return Cyclic(rng.randint(2, 9))
    if roll < 0.9:
        # keep the declared subgroup order below both factors when they are
        # cyclic leaves, so the amalgam properly splits
        left = random_expr(rng, depth + 1)
        right = random_expr(rng, depth + 1)
        cap = 10
        for side in (left, right):
            if isinstance(side, Cyclic):
                cap = min(cap, side.n)
        return AmalgamFinite(left, right, rng.randint(1, max(1, cap - 1)))
    return AmalgamFinite(Cyclic(rng.randint(2, 6)), Cyclic(rng.randint(2, 6)), 1)


class TestCoherence:
    def test_random_trees(self):
        rng = random.Random(37)
        for _ in range(300):
            e = random_expr(rng)
            r = evaluate(e)
            # the rank gradient is derived from the cost; spot check it
            if is_known(r.cost) and is_known(r.rank_gradient):
                assert r.rank_gradient == r.cost - 1
            # the betti upper bound applies to infinite groups (gradient >= 0)
            if is_known(r.rank_gradient) and is_known(r.betti1) and r.rank_gradient >= 0:
                assert r.rank_gradient >= r.betti1

    def test_equality_on_finite_amalgam_family(self):
        # amalgams of finite groups over finite subgroups have gradient
        # equal to betti1 (both reduce to -1/n - 1/m + 1/k)
        rng = random.Random(41)
        checked = 0
        for _ in range(200):
            e = random_expr(rng)
            if not isinstance(e, AmalgamFinite):
                continue
            r = evaluate(e)
            if is_known(r.rank_gradient) and is_known(r.betti1):
                assert r.rank_gradient == r.betti1
                checked += 1
        assert checked > 50

    def test_invariant_violation_raises(self):
        with pytest.raises(ValueError):
            PriceResult(cost=Fraction(1), betti1=Fraction(1))


class TestOrderInference:
    def test_leaves(self):
        assert infer_order(TrivialGroup()) == GroupOrder(1)
        assert infer_order(Cyclic(5)) == GroupOrder(5)
        assert infer_order(Free(2)) == INFINITE
        assert infer_order(Amenable("x", GroupOrder(8))) == GroupOrder(8)

    def test_amalgam_infinite(self):
        assert infer_order(AmalgamFinite(Cyclic(2), Cyclic(3), 1)) == INFINITE

    def test_coxeter_order_delegation(self):
        g = parse_graph("vertex a\nvertex b\nedge a b 3\n")
        assert infer_order(CoxeterGraph(g)) == GroupOrder(6)


class TestWrappers:
    def test_wrappers_agree(self):
        e = AmalgamFinite(Cyclic(6), Cyclic(4), 2)
        r = evaluate(e)
        assert r.cost == Fraction(13, 12)
        assert r.rank_gradient == Fraction(1, 12)
        assert r.betti1 == Fraction(1, 12)

    def test_rank_gradient_lowest_terms(self):
        rng = random.Random(43)
        for _ in range(100):
            r = evaluate(random_expr(rng))
            for v in (r.cost, r.rank_gradient, r.betti1):
                if is_known(v):
                    import math

                    assert math.gcd(v.numerator, v.denominator) == 1
                    assert v.denominator > 0


_GRAPH = parse_graph("vertex a\nvertex b\nedge a b 3\n")

# Each value class with a maker of fresh keyword arguments (fresh
# subtrees, so equal trees are distinct objects) and the keyword
# overrides it must refuse besides an int field below `least`.
VALUE_CLASSES = [
    (TrivialGroup, dict, []),
    (Cyclic, lambda: {"n": 4}, []),
    (IntegersZ, dict, []),
    (Free, lambda: {"rank": 2}, []),
    (Surface, lambda: {"genus": 2}, []),
    (FreeAbelian, lambda: {"rank": 3}, []),
    (Amenable, lambda: {"tag": "S3", "order": GroupOrder(6)}, []),
    (ArtinGraph, lambda: {"graph": _GRAPH}, []),
    (CoxeterGraph, lambda: {"graph": _GRAPH}, []),
    (AmalgamFinite, lambda: {"left": Cyclic(4), "right": Cyclic(6), "amalgam_order": 2}, []),
    (AmalgamAmenable, lambda: {"left": Free(2), "right": IntegersZ(), "amalgam": IntegersZ()}, []),
    (Generation, lambda: {"left": Surface(2), "right": IntegersZ(), "justification": "shared"},
     [{"justification": ""}, {"justification": " \t"}]),
    (GroupOrder, lambda: {"value": 6}, [{"value": 0}, {"value": -1}]),
    (Unknown, lambda: {"reason": "no rule"}, []),
]


class TestValueSemantics:
    def test_every_node_class_is_listed(self):
        listed = {cls for cls, _, _ in VALUE_CLASSES}
        assert set(GroupExpr.__subclasses__()) <= listed

    @pytest.mark.parametrize("cls,make,refused", VALUE_CLASSES,
                             ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES])
    def test_frozen_value(self, cls, make, refused):
        by_keyword, by_position = cls(**make()), cls(*make().values())
        assert by_keyword == by_position and not by_keyword != by_position
        assert hash(by_keyword) == hash(by_position)
        assert repr(by_keyword) == repr(by_position)
        assert {by_keyword, by_position} == {by_keyword}

        # Another class with the same fields is never equal.
        other = next(c for c, _, _ in VALUE_CLASSES if c is not cls)
        twin = object.__new__(other)
        twin.__dict__.update(vars(by_keyword))
        assert by_keyword != twin and twin != by_keyword

        for name in [*make(), "extra"]:
            with pytest.raises(AttributeError):
                setattr(by_keyword, name, None)
        assert by_keyword == by_position

        least = getattr(cls, "least", None)
        ints = [name for name, kind in getattr(cls, "slots", ()) if kind == "int"]
        for override in refused + [{name: least - 1} for name in ints]:
            with pytest.raises(ValueError):
                cls(**{**make(), **override})

    def test_repr_is_the_field_form(self):
        e = AmalgamFinite(Cyclic(4), TrivialGroup(), amalgam_order=1)
        assert repr(e) == ("AmalgamFinite(left=Cyclic(n=4), right=TrivialGroup(), "
                           "amalgam_order=1)")
        assert repr(Unknown("x")) == "Unknown(reason='x')"
        assert repr(INFINITE) == "GroupOrder(value=None)"

    def test_price_results_do_not_share_a_trace(self):
        a = PriceResult(cost=Fraction(1), betti1=Fraction(0))
        b = PriceResult(Fraction(1), Fraction(0))
        a.rule_trace.append("x")
        assert (a.rule_trace, b.rule_trace) == (["x"], [])


class TestReadCount:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(COUNT_TEXT, st.integers(1, 5), st.one_of(st.none(), st.integers(5, 2000)),
           st.sampled_from(["--abelian-kill level", "BnModCenter strand", "--coset-limit"]))
    def test_matches_reference(self, text, least, cap, what):
        expected = reference_count(text, least, cap)
        try:
            value = read_count(text, what, least, cap)
        except (ValueError, LimitExceeded) as exc:
            assert type(exc) is expected
            prefix = "error" if expected is ValueError else "inconclusive"
            line = f"{prefix}: {exc}"
            assert line.startswith(f"{prefix}: {what} ") and len(line.encode()) <= 200
        else:
            assert value == expected

    @pytest.mark.parametrize("text,cap,message", [
        (" x1 ", None, "--low-index must be an integer, not 'x1'"),
        ("x" * 21, None, "--low-index must be an integer, not '" + "x" * 20 + "...'"),
        ("-0" + "1" * 5000, 64, "--low-index must be >= 1"),
        ("+000", None, "--low-index must be >= 1"),
        ("65", 64, "--low-index 65 exceeds the cap 64"),
        ("9" * 21, 64, "--low-index of 21 digits exceeds the cap 64"),
        ("0" * 9 + "1" * 5000, None, "--low-index of 5000 digits is past every limit"),
    ])
    def test_refusal_lines(self, text, cap, message):
        with pytest.raises((ValueError, LimitExceeded), match=f"^{re.escape(message)}$"):
            read_count(text, "--low-index", 1, cap)

    def test_reads_signs_padding_and_zeros(self):
        assert read_count(" +007 ", "n", 1) == 7
        assert read_count("9" * 20, "n", 1, 10 ** 20) == 10 ** 20 - 1

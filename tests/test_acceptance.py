"""Acceptance suite: one test per criterion, each at its stated tolerance
(everything here is exact rational arithmetic; zero tolerance), printing
one pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines, or `pytest -v` for the per-test verdicts."""

import math
import random
import time
from fractions import Fraction

from conftest import (
    coxeter_presentation,
    cycle_graph,
    hex_chain,
    minors_gcd,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree,
    reference_reidemeister_schreier,
    todd_coxeter,
)
from rgcost.certificate import (
    builtin_certificate,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    rg_artin,
)
from rgcost.cli import main
from rgcost.coxeter import build_trace, closed_form, coxeter_order, rg_coxeter_planar
from rgcost.fpgroup.builtins import builtin_target
from rgcost.fpgroup.chains import kernel_chain_cayley, mod_cycle_images, psl2z_images, rg_sequence
from rgcost.fpgroup.coset import EnumerationLimit
from rgcost.fpgroup.presentation import parse_presentation
from rgcost.fpgroup.rewrite import abelian_invariants, reidemeister_schreier
from rgcost.fpgroup.snf import smith_normal_form
from rgcost.groupexpr import (
    AmalgamFinite,
    ArtinGraph,
    CoxeterGraph,
    Cyclic,
    Surface,
    evaluate,
    is_known,
)
from rgcost.lgraph import LabelledGraph, components, girth, is_planar


def report(number, name, t0):
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_sl2z_flagship(tmp_path, capsys):
    t0 = time.perf_counter()
    expr_file = tmp_path / "sl2z.expr"
    expr_file.write_text("(amalgam-finite (cyclic 6) (cyclic 4) 2)\n")
    code = main(["--no-timestamp", "expr", str(expr_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "rg=1/12" in out

    code = main(["--no-timestamp", "verify", "SL2Z", "--mod", "3,4,5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "24,3,3,1/12,1/12" in out
    assert "48,5,5,1/12,1/12" in out
    assert "120,11,11,1/12,1/12" in out
    assert "matches symbolic 1/12" in out

    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    with capsys.disabled():
        report(1, "SL(2,Z) flagship: symbolic and empirical 1/12", t0)


def test_criterion_2_psl2z(capsys):
    t0 = time.perf_counter()
    symbolic = evaluate(AmalgamFinite(Cyclic(2), Cyclic(3), 1))
    assert symbolic.rank_gradient == Fraction(1, 6)

    pres = builtin_target("PSL2Z").presentation
    tables = kernel_chain_cayley(pres, [psl2z_images(n) for n in (3, 5, 7)])
    assert [t.index for t in tables] == [12, 60, 168]
    samples = rg_sequence(pres, tables)
    assert all(s.r_lower == s.r_upper == Fraction(1, 6) for s in samples)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"
    with capsys.disabled():
        report(2, "PSL(2,Z): symbolic 1/6 matches mod 3,5,7 chain", t0)


def test_criterion_3_artin_certificates(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    done = 0
    while done < 200:
        g = random_connected_graph(rng, n_min=1, n_max=12)
        assert len(components(g)) == 1
        price, cert = rg_artin(g)
        assert price.rank_gradient == 0
        assert price.cost == 1
        check = check_certificate(certificate_from_json(certificate_to_json(cert)))
        assert check.valid, check.violations
        assert len(check.assumptions) == 0
        done += 1
    for _ in range(60):
        g = random_graph(rng, n_min=1, n_max=12, p=0.25)
        b = len(components(g))
        price, cert = rg_artin(g)
        assert price.rank_gradient == Fraction(b - 1)
        assert check_certificate(cert).valid

    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"criterion 3 took {elapsed:.1f}s"
    with capsys.disabled():
        report(3, "Artin: 200 connected graphs certify gradient 0; b components give b-1", t0)


def _max_index_elimination(g):
    remaining = list(g.vertices)
    order = []
    while remaining:
        pick = None
        for v in reversed(remaining):
            if sum(1 for w in g.neighbors(v) if w in remaining) <= 2:
                pick = v
                break
        assert pick is not None, "family graph failed to reduce"
        order.append(pick)
        remaining.remove(pick)
    return order


def test_criterion_4_coxeter_formula_vs_trace(capsys):
    t0 = time.perf_counter()
    rng = random.Random(5151)
    graphs = [
        cycle_graph([2] * 6),
        hex_chain(1, rng), hex_chain(2, rng), hex_chain(3, rng), hex_chain(4, rng),
        path_graph([2]), path_graph([5]), path_graph([3, 4]), path_graph([2, 2, 2, 2]),
    ]
    while len(graphs) < 100:
        pick = rng.random()
        if pick < 0.5:
            graphs.append(random_tree(rng, n_max=12))
        elif pick < 0.8:
            graphs.append(cycle_graph([rng.randint(2, 6) for _ in range(6)]))
        else:
            graphs.append(hex_chain(rng.randint(1, 3), rng))
    assert len(graphs) == 100
    for g in graphs:
        assert is_planar(g) and girth(g) >= 6
        price, trace = rg_coxeter_planar(g)
        value = closed_form(g)
        assert trace.total() == value == price.rank_gradient
        # betti1 of a finite Coxeter group (one vertex or one edge) is 0
        assert price.betti1 == (0 if coxeter_order(g).is_finite else value)
        assert build_trace(g, _max_index_elimination(g)).total() == value

    hexagon, _ = rg_coxeter_planar(cycle_graph([2] * 6))
    assert hexagon.rank_gradient == Fraction(1, 2)
    for m in range(2, 8):
        price, _ = rg_coxeter_planar(path_graph([m]))
        assert price.rank_gradient == -Fraction(1, 2 * m)
        assert price.rank_gradient == (1 - Fraction(1, 2 * m)) - 1

    with capsys.disabled():
        report(4, "Coxeter: closed form equals trace on 100 instances, two tie-breaks", t0)


def test_criterion_5_braid3_gradient_target(capsys):
    t0 = time.perf_counter()
    b3 = builtin_target("braid3").presentation
    levels = [mod_cycle_images(b3, math.factorial(k)) for k in range(1, 5)]
    tables = kernel_chain_cayley(b3, levels)
    assert [t.index for t in tables] == [1, 2, 6, 24]
    samples = rg_sequence(b3, tables)
    for prev, cur in zip(samples, samples[1:]):
        assert cur.r_upper <= prev.r_upper
    for s in samples:
        assert s.r_upper <= Fraction(3, s.index)
    symbolic = evaluate(ArtinGraph(path_graph([3])))
    assert symbolic.rank_gradient == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 5 took {elapsed:.1f}s"
    with capsys.disabled():
        report(5, "B3 kernels of Z/k!: r_upper non-increasing, <= 3/index, target 0", t0)


def test_criterion_6_finite_coxeter_orders(capsys):
    t0 = time.perf_counter()
    for m in range(2, 8):
        table = todd_coxeter(coxeter_presentation(path_graph([m])), coset_limit=500)
        assert table.index == 2 * m
    # classical A3 / B3 diagrams: the pairs the diagram leaves unjoined
    # commute, so they carry explicit label-2 edges here
    a3 = LabelledGraph(["a", "b", "c"],
                       [("a", "b", 3), ("b", "c", 3), ("a", "c", 2)])
    assert todd_coxeter(coxeter_presentation(a3), coset_limit=2000).index == 24
    b3w = LabelledGraph(["a", "b", "c"],
                        [("a", "b", 4), ("b", "c", 3), ("a", "c", 2)])
    assert todd_coxeter(coxeter_presentation(b3w), coset_limit=2000).index == 48

    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"criterion 6 took {elapsed:.1f}s"
    with capsys.disabled():
        report(6, "finite Coxeter orders: I2(m)=2m, A3=24, B3=48", t0)


def test_criterion_7_oracle_machinery(capsys):
    t0 = time.perf_counter()

    # SNF minor-gcd identity on 500 random matrices up to 6x6
    rng = random.Random(424242)
    for _ in range(500):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        s = smith_normal_form(m)
        prod = 1
        for k in range(1, min(nrows, ncols) + 1):
            g = minors_gcd(m, k)
            if k <= s.rank:
                prod *= s.factors[k - 1]
                assert g == prod
            else:
                assert g == 0

    # Nielsen-Schreier rank formula with zero surviving relators
    from test_rewrite import random_transitive_perms, stabilizer_table

    for r in (2, 3):
        free = parse_presentation("gens: " + " ".join(f"g{i}" for i in range(r)) + "\n")
        for k in (2, 4, 7, 9, 12):
            perms = random_transitive_perms(rng, r, k)
            table = stabilizer_table(perms, free.generators)
            table.validate(free)
            sub = reidemeister_schreier(free, table)
            assert sub.num_generators == 1 + k * (r - 1)
            assert sub.relators == ()

    # transversal independence on 50 (presentation, subgroup) pairs: the
    # library's tree against the reference's reverse-column tree
    pool = [
        "gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n",
        "gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b a b\n",
        "gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b a b a b\n",
        "gens: a b\nrel: a a a a\nrel: b b\nrel: a b A b\n",
        "gens: a b\nrel: a a a a\nrel: a a B B\nrel: B a b a\n",
        "gens: a\nrel: a a a a a a a a a a a a\n",
    ]
    done = 0
    while done < 50:
        p = parse_presentation(pool[done % len(pool)])
        words = [tuple(rng.choice((1, -1)) * rng.randint(1, p.num_generators)
                       for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(0, 2))]
        try:
            table = todd_coxeter(p, subgroup=words, coset_limit=4000)
        except EnumerationLimit:
            continue
        forward = abelian_invariants(reidemeister_schreier(p, table))
        reverse = abelian_invariants(reference_reidemeister_schreier(p, table, reverse=True))
        assert forward == reverse
        done += 1

    with capsys.disabled():
        report(7, "oracle machinery: SNF minors, Nielsen-Schreier, transversal independence", t0)


def _random_amalgam_tree(rng, depth=0):
    if depth >= 4 or rng.random() < 0.35:
        return Cyclic(rng.randint(2, 9))
    left = _random_amalgam_tree(rng, depth + 1)
    right = _random_amalgam_tree(rng, depth + 1)
    cap = 10
    for side in (left, right):
        if isinstance(side, Cyclic):
            cap = min(cap, side.n)
    return AmalgamFinite(left, right, rng.randint(1, max(1, cap - 1)))


def test_criterion_8_coherence_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(778899)

    family = []
    # randomized amalgam trees over finite cyclic leaves
    for _ in range(200):
        e = _random_amalgam_tree(rng)
        if isinstance(e, AmalgamFinite):
            family.append((e, True))
    # Artin graphs (gradient b-1 equals betti1: the paper-family equality)
    for _ in range(40):
        family.append((ArtinGraph(random_graph(rng, n_min=1, n_max=10, p=0.3)), True))
    # planar girth->=6 Coxeter graphs
    for labels in ([2] * 6, [3, 4, 2, 5, 2, 6]):
        family.append((CoxeterGraph(cycle_graph(labels)), True))
    for _ in range(20):
        family.append((CoxeterGraph(random_tree(rng, n_min=2, n_max=10)), True))
    # surface amalgams (the amalgamation-closed class)
    family.append((AmalgamFinite(Surface(2), Surface(2), 1), True))
    family.append((AmalgamFinite(Surface(3), Cyclic(4), 2), True))

    for expr, expect_equality in family:
        r = evaluate(expr)
        assert is_known(r.cost) and is_known(r.rank_gradient)
        assert r.rank_gradient == r.cost - 1
        if is_known(r.betti1) and r.rank_gradient >= 0:
            assert r.rank_gradient >= r.betti1
            if expect_equality:
                assert r.rank_gradient == r.betti1

    with capsys.disabled():
        report(8, "coherence: rg = cost - 1, rg >= betti1, equality on the families", t0)


def test_criterion_9_builtin_certificates(capsys):
    t0 = time.perf_counter()
    inventory = {
        ("MCG", 2): 4, ("MCG", 3): 7, ("MCG", 4): 10,
        ("AutFn", 2): 1, ("AutFn", 3): 3, ("AutFn", 4): 4,
        ("OutFn", 3): 3, ("OutFn", 4): 2,
        ("BnModCenter", 4): 2,
    }
    for (name, param), expected in inventory.items():
        cert = builtin_certificate(name, param)
        check = check_certificate(cert)
        assert check.valid, (name, param, check.violations)
        assert len(check.assumptions) == expected, (name, param, check.assumptions)
        assert cert.root.cost == 1
    for genus in (2, 3, 4):
        assert inventory[("MCG", genus)] == 3 * genus - 2

    with capsys.disabled():
        report(9, "builtin certificates valid with documented assumption counts", t0)

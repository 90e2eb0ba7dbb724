from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_sl2_order, reference_cayley_table
from rgcost.fpgroup.builtins import builtin_target
from rgcost.fpgroup.chains import (
    NotHomomorphism,
    cayley_table,
    kernel_chain_cayley,
    make_sample,
    mod_cycle_images,
    psl2z_images,
    rg_sequence,
    samples_to_csv,
    sl2_order,
    sl2z_images,
    trend_summary,
)
from rgcost.fpgroup.coset import EnumerationLimit
from rgcost.fpgroup.lowindex import _has_translations, low_index_normal
from rgcost.fpgroup.presentation import Presentation, parse_presentation


class TestImageBuilders:
    @pytest.mark.parametrize("n,order", [(3, 24), (4, 48), (5, 120)])
    def test_sl2_orders_against_bruteforce(self, n, order):
        assert brute_sl2_order(n) == order
        images = sl2z_images(n)
        assert len(images["a"]) == order

    @pytest.mark.parametrize("n,order", [(3, 12), (5, 60), (7, 168)])
    def test_psl2_orders(self, n, order):
        assert brute_sl2_order(n) // 2 == order
        assert len(psl2z_images(n)["a"]) == order

    @pytest.mark.parametrize("n", range(2, 13))
    def test_order_formula_against_bruteforce(self, n):
        assert sl2_order(n) == brute_sl2_order(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_projective_order_matches_enumeration(self, n):
        assert sl2_order(n, projective=True) == len(psl2z_images(n)["a"])

    def test_order_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            sl2_order(1)
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            sl2z_images(1)
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            mod_cycle_images(builtin_target("braid3").presentation, 0)

    def test_mod_cycle(self):
        b3 = builtin_target("braid3").presentation
        images = mod_cycle_images(b3, 4)
        assert images["s1"] == (1, 2, 3, 0)
        assert set(images) == {"s1", "s2"}


class TestCayleyTable:
    def test_sl2z_mod3_kernel_index(self):
        sl2z = builtin_target("SL2Z").presentation
        t = cayley_table(sl2z, sl2z_images(3))
        assert t.index == 24
        t.validate(sl2z)

    def test_homomorphism_check_rejects_perturbed_images(self):
        import random

        sl2z = builtin_target("SL2Z").presentation
        base = sl2z_images(3)
        rng = random.Random(1001)
        rejected = 0
        for _ in range(20):
            images = {k: list(v) for k, v in base.items()}
            name = rng.choice(list(images))
            perm = images[name]
            i, j = rng.sample(range(len(perm)), 2)
            perm[i], perm[j] = perm[j], perm[i]
            images = {k: tuple(v) for k, v in images.items()}
            try:
                cayley_table(sl2z, images)
            except NotHomomorphism:
                rejected += 1
        # every single transposition of a generator image breaks a relator
        assert rejected == 20

    def test_rejects_non_permutation(self):
        f1 = parse_presentation("gens: a\n")
        with pytest.raises(ValueError):
            cayley_table(f1, {"a": (0, 0)})

    def test_no_generators(self):
        assert cayley_table(Presentation([], []), {}).index == 1

    def test_rejects_wrong_generator_set(self):
        f1 = parse_presentation("gens: a\n")
        with pytest.raises(ValueError):
            cayley_table(f1, {"b": (0,)})

    def test_closure_limit_is_inconclusive(self):
        f1 = parse_presentation("gens: a\n")
        cycle = tuple((i + 1) % 50 for i in range(50))
        with pytest.raises(EnumerationLimit):
            cayley_table(f1, {"a": cycle}, limit=10)

    def test_limit_text_matches_the_closure_stop(self):
        f1 = parse_presentation("gens: a\n")
        cycle = tuple((i + 1) % 50 for i in range(50))
        for table_of, text in (
                (cayley_table, "50 cosets of the kernel (the action's degree)"),
                (reference_cayley_table, "49 live cosets")):
            with pytest.raises(EnumerationLimit) as exc:
                table_of(f1, {"a": cycle}, limit=49)
            assert str(exc.value) == f"coset limit exceeded: {text} (limit 49)"
        assert cayley_table(f1, {"a": cycle}, limit=50).index == 50

    def test_limit_comes_before_the_image_checks(self):
        f1 = parse_presentation("gens: a\n")
        with pytest.raises(EnumerationLimit):
            cayley_table(f1, {"a": (0, 0, 0)}, limit=2)


def permutation_lists(max_degree):
    """One to three permutations of a common degree <= max_degree."""
    return st.integers(1, max_degree).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return out


def _regular_images(perms):
    """The group the permutations generate, listed by closure under right
    multiplication, and each permutation's right-multiplication action on
    that list: the regular representation."""
    identity = tuple(range(len(perms[0])))
    elements, index_of = [identity], {identity: 0}
    for q in elements:
        for p in perms:
            r = tuple(p[x] for x in q)
            if r not in index_of:
                index_of[r] = len(elements)
                elements.append(r)
    return [tuple(index_of[tuple(p[x] for x in q)] for q in elements) for p in perms]


def _orbit_table(perms):
    """Complete table of the action on the orbit of 0, numbered
    breadth-first; columns alternate each permutation and its inverse."""
    cols = [q for p in perms for q in (p, _inverse(p))]
    orbit, index_of = [0], {0: 0}
    for a in orbit:
        for q in cols:
            if q[a] not in index_of:
                index_of[q[a]] = len(orbit)
                orbit.append(q[a])
    return [[index_of[q[a]] for q in cols] for a in orbit]


def _order(p):
    k, q = 1, list(p)
    while q != sorted(q):
        q = [p[x] for x in q]
        k += 1
    return k


def _power_presentation(perms):
    """Generators a, b, c with the relator x^k for each image's order k,
    so the images always define a homomorphism."""
    names = "abc"[:len(perms)]
    return Presentation(names, [(i + 1,) * _order(p) for i, p in enumerate(perms)])


def _product_presentation(perms):
    """The power relators plus (x y)^k for each pair of images, k the
    order of their product, so relators mix generators."""
    pres = _power_presentation(perms)
    relators = list(pres.relators)
    for i in range(len(perms)):
        for j in range(i + 1, len(perms)):
            product = tuple(perms[j][x] for x in perms[i])
            relators.append((i + 1, j + 1) * _order(product))
    return Presentation(pres.generators, relators)


class TestValidateOracle:
    """cayley_table proves its relators on the permutations only; every
    table it returns must still pass the full coset-by-coset check."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(permutation_lists(6))
    def test_random_regular_images(self, perms):
        pres = _product_presentation(perms)
        table = cayley_table(pres, dict(zip(pres.generators, _regular_images(perms))))
        table.validate(pres)


class TestAgainstReference:
    """The point-0 Schreier graph must reproduce the closure tables."""

    @pytest.mark.parametrize("n", range(2, 12))
    def test_sl2z(self, n):
        pres = builtin_target("SL2Z").presentation
        images = sl2z_images(n)
        assert cayley_table(pres, images).rows == reference_cayley_table(pres, images).rows

    @pytest.mark.parametrize("n", range(2, 14))
    def test_psl2z(self, n):
        pres = builtin_target("PSL2Z").presentation
        images = psl2z_images(n)
        assert cayley_table(pres, images).rows == reference_cayley_table(pres, images).rows

    @pytest.mark.parametrize("name", ["braid3", "braid5"])
    def test_mod_cycles(self, name):
        pres = builtin_target(name).presentation
        for k in range(1, 65):
            images = mod_cycle_images(pres, k)
            assert (cayley_table(pres, images).rows
                    == reference_cayley_table(pres, images).rows), k

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(permutation_lists(6))
    def test_random_permutations(self, perms):
        pres = _power_presentation(perms)
        reference = reference_cayley_table(pres, dict(zip(pres.generators, perms)))
        regular = dict(zip(pres.generators, _regular_images(perms)))
        assert cayley_table(pres, regular).rows == reference.rows
        # the original action is regular exactly when it is transitive and
        # the group it generates has as many elements as points
        images = dict(zip(pres.generators, perms))
        if len(_orbit_table(perms)) < len(perms[0]):
            with pytest.raises(ValueError, match="not transitive"):
                cayley_table(pres, images)
        elif reference.index > len(perms[0]):
            with pytest.raises(ValueError, match="not give a regular action"):
                cayley_table(pres, images)
        else:
            assert cayley_table(pres, images).rows == reference.rows

    def test_natural_s3_action_is_not_regular(self):
        s3 = parse_presentation("gens: x y\nrel: x x\nrel: y y y\nrel: x y x y\n")
        with pytest.raises(ValueError, match="not give a regular action"):
            cayley_table(s3, {"x": (1, 0, 2), "y": (1, 2, 0)})
        assert reference_cayley_table(s3, {"x": (1, 0, 2), "y": (1, 2, 0)}).index == 6


class TestNeighbourTranslations:
    """On complete transitive tables, translations at the neighbours of 0
    exist exactly when translations at every point do."""

    @staticmethod
    def _agree(table):
        everywhere = _has_translations(table, range(1, len(table)))
        assert _has_translations(table, set(table[0]) - {0}) == everywhere
        return everywhere

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(permutation_lists(7))
    def test_random_tables(self, perms):
        table = _orbit_table(perms)
        on_orbit = [tuple(row[2 * i] for row in table) for i in range(len(perms))]
        group = _regular_images(on_orbit)
        assert self._agree(table) == (len(group[0]) == len(table))
        if len(group[0]) <= 120:
            assert self._agree(_orbit_table(group))

    @pytest.mark.parametrize("name,max_index", [
        ("braid3", 14), ("braid4", 6), ("SL2Z", 12), ("PSL2Z", 12), ("dihedral-inf", 12)])
    def test_low_index_tables(self, name, max_index):
        pres = builtin_target(name).presentation
        for table in low_index_normal(pres, max_index):
            assert self._agree(table.rows)


class TestRgSequence:
    def test_sl2z_congruence_chain(self):
        sl2z = builtin_target("SL2Z").presentation
        tables = kernel_chain_cayley(sl2z, [sl2z_images(n) for n in (3, 4, 5)])
        samples = rg_sequence(sl2z, tables)
        assert [(s.index, s.d_lower, s.d_upper) for s in samples] == [
            (24, 3, 3), (48, 5, 5), (120, 11, 11)]
        assert all(s.r_lower == s.r_upper == Fraction(1, 12) for s in samples)

    @pytest.mark.parametrize("name,mods", [("SL2Z", (3, 4, 5)), ("PSL2Z", (3, 5, 7))])
    def test_virtually_free_oracle_identity(self, name, mods):
        # congruence kernels are free, so both generator bounds must hit
        # 1 + index * symbolic_gradient, with the gradient from the
        # expression evaluator
        from rgcost.groupexpr import AmalgamFinite, Cyclic, evaluate

        pres = builtin_target(name).presentation
        sym = evaluate(
            AmalgamFinite(Cyclic(6), Cyclic(4), 2) if name == "SL2Z"
            else AmalgamFinite(Cyclic(2), Cyclic(3), 1)
        ).rank_gradient
        builder = sl2z_images if name == "SL2Z" else psl2z_images
        tables = kernel_chain_cayley(pres, [builder(n) for n in mods])
        for s in rg_sequence(pres, tables):
            expected = 1 + s.index * sym
            assert s.d_lower == s.d_upper == expected

    def test_indices_must_be_nondecreasing(self):
        sl2z = builtin_target("SL2Z").presentation
        tables = kernel_chain_cayley(sl2z, [sl2z_images(n) for n in (4, 3)])
        with pytest.raises(ValueError):
            rg_sequence(sl2z, tables)

    def test_sample_invariants(self):
        s = make_sample(12, 3, 5)
        assert s.r_lower == Fraction(2, 12) == Fraction(1, 6)
        assert s.r_upper == Fraction(4, 12) == Fraction(1, 3)
        with pytest.raises(ValueError):
            make_sample(12, 5, 3)

    def test_trend_summary(self):
        samples = [make_sample(1, 1, 2), make_sample(2, 2, 2)]
        assert "non-increasing" in trend_summary([samples[0], samples[1]])
        up = [make_sample(1, 1, 1), make_sample(2, 2, 9)]
        assert "not monotone" in trend_summary(up)
        assert trend_summary([]) == "no samples"


class TestCsv:
    def test_round_trip(self):
        samples = [make_sample(24, 3, 3), make_sample(48, 5, 5)]
        text = samples_to_csv(samples)
        lines = text.strip().split("\n")
        assert lines[0] == "index,d_lower,d_upper,r_lower,r_upper"
        parsed = []
        for line in lines[1:]:
            index, dl, du, rl, ru = line.split(",")
            parsed.append(make_sample(int(index), int(dl), int(du)))
            assert Fraction(rl) == parsed[-1].r_lower
            assert Fraction(ru) == parsed[-1].r_upper
        assert parsed == samples

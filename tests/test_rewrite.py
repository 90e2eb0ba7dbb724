import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _rotation_key, reference_tietze_simplify
from rgcost.fpgroup import (
    CosetTable,
    Presentation,
    EnumerationLimit,
    abelian_invariants,
    d_bounds,
    mod_cycle_images,
    cayley_table,
    parse_presentation,
    reidemeister_schreier,
    sl2z_images,
    builtin_presentation,
    tietze_simplify,
    todd_coxeter,
)
from rgcost.fpgroup.rewrite import _rotation_key as library_rotation_key


def stabilizer_table(gen_perms, generators):
    """Coset table of the point stabilizer of 0 under a transitive action,
    built directly from the permutations."""
    k = len(gen_perms[0])
    rows = []
    inv = []
    for p in gen_perms:
        q = [0] * k
        for i, x in enumerate(p):
            q[x] = i
        inv.append(tuple(q))
    for c in range(k):
        row = []
        for g in range(len(gen_perms)):
            row.append(gen_perms[g][c])
            row.append(inv[g][c])
        rows.append(tuple(row))
    return CosetTable(generators=tuple(generators), rows=tuple(rows))


def random_transitive_perms(rng, ngens, k):
    while True:
        perms = []
        for _ in range(ngens):
            p = list(range(k))
            rng.shuffle(p)
            perms.append(tuple(p))
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for p in perms:
                    if p[c] not in seen:
                        seen.add(p[c])
                        nxt.append(p[c])
            frontier = nxt
        if len(seen) == k:
            return perms


class TestNielsenSchreier:
    def test_f2_index_2_has_rank_3(self):
        f2 = parse_presentation("gens: x y\n")
        t = todd_coxeter(f2, subgroup=["x", "y y", "y x Y"], coset_limit=100)
        sub = reidemeister_schreier(f2, t)
        assert sub.num_generators == 3
        assert sub.relators == ()

    def test_rank_formula_over_random_actions(self):
        # free groups of rank r <= 3, index k <= 12: subgroup of a free
        # group is free of rank 1 + k(r-1); no relators survive reduction
        rng = random.Random(89)
        for r in (2, 3):
            free = parse_presentation("gens: " + " ".join(f"g{i}" for i in range(r)) + "\n")
            for k in (2, 3, 5, 8, 12):
                perms = random_transitive_perms(rng, r, k)
                table = stabilizer_table(perms, free.generators)
                table.validate(free)
                sub = reidemeister_schreier(free, table)
                assert sub.num_generators == 1 + k * (r - 1)
                assert sub.relators == ()


class TestReidemeisterSchreier:
    def test_trivial_subgroup_of_s3_presents_trivial_group(self):
        s3 = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        t = todd_coxeter(s3, coset_limit=100)
        sub = reidemeister_schreier(s3, t)
        inv = abelian_invariants(sub)
        assert inv.free_rank == 0 and inv.factors == ()
        lo, hi = d_bounds(sub)
        assert lo == 0 and hi == 0

    def test_congruence_kernel_mod3_abelianization(self):
        # the mod-3 congruence kernel (index 24) is free of rank
        # 1 + 24/12 = 3, so its abelianization is Z^3
        sl2z, _ = builtin_presentation("SL2Z")
        table = cayley_table(sl2z, sl2z_images(3))
        assert table.index == 24
        sub = reidemeister_schreier(sl2z, table)
        simplified = tietze_simplify(sub)
        inv = abelian_invariants(simplified)
        assert inv.free_rank == 3 and inv.factors == ()

    def test_transversal_policy_independence(self):
        # abelian invariants of the subgroup cannot depend on the
        # spanning-tree tie-break
        rng = random.Random(97)
        pool = [
            "gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n",
            "gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b a b\n",
            "gens: a b\nrel: a a a a\nrel: b b\nrel: a b A b\n",
            "gens: a b\nrel: a a a a\nrel: a a B B\nrel: B a b a\n",  # quaternion
            "gens: a\nrel: a a a a a a a a a a a a\n",
        ]
        done = 0
        while done < 50:
            p = parse_presentation(pool[done % len(pool)])
            words = []
            for _ in range(rng.randint(0, 2)):
                words.append(tuple(rng.choice((1, -1)) * rng.randint(1, p.num_generators)
                                   for _ in range(rng.randint(1, 4))))
            try:
                t = todd_coxeter(p, subgroup=words, coset_limit=4000)
            except EnumerationLimit:
                continue
            a = abelian_invariants(reidemeister_schreier(p, t, policy="forward"))
            b = abelian_invariants(reidemeister_schreier(p, t, policy="reverse"))
            assert a == b
            done += 1

    def test_rejects_unknown_policy(self):
        f2 = parse_presentation("gens: x y\n")
        t = todd_coxeter(f2, subgroup=["x", "y"], coset_limit=10)
        with pytest.raises(ValueError):
            reidemeister_schreier(f2, t, policy="sideways")


class TestAbelianInvariants:
    def test_braid3(self):
        b3 = parse_presentation("gens: x y\nrel: x y x Y X Y\n")
        inv = abelian_invariants(b3)
        assert inv.free_rank == 1 and inv.factors == ()

    def test_free_rank_3(self):
        f3 = parse_presentation("gens: x y z\n")
        inv = abelian_invariants(f3)
        assert inv.free_rank == 3

    def test_s3_coxeter(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        inv = abelian_invariants(p)
        assert inv.free_rank == 0 and inv.factors == (2,)


class TestTietzeAndBounds:
    def test_braid3_bounds(self):
        b3 = parse_presentation("gens: x y\nrel: x y x Y X Y\n")
        assert d_bounds(b3) == (1, 2)

    def test_trivial_presentation(self):
        p = parse_presentation("gens: a\nrel: a\n")
        assert d_bounds(p) == (0, 0)

    def test_free_presentation_bounds_coincide(self):
        f3 = parse_presentation("gens: x y z\n")
        assert d_bounds(f3) == (3, 3)

    def test_eliminates_chain(self):
        # b = a^2 and c = b a are removable; one generator remains
        p = parse_presentation("gens: a b c\nrel: B a a\nrel: C b a\n")
        simplified = tietze_simplify(p)
        assert simplified.num_generators == 1
        assert simplified.relators == ()

    def test_keeps_generators_without_single_occurrences(self):
        p = parse_presentation("gens: x y\nrel: x y x Y X Y\n")
        simplified = tietze_simplify(p)
        assert simplified.num_generators == 2

    def test_drops_duplicate_and_rotated_relators(self):
        p = parse_presentation("gens: x y\nrel: x y X Y\nrel: y X Y x\nrel: x y X Y\n")
        simplified = tietze_simplify(p)
        assert len(simplified.relators) == 1


# ---------------------------------------------------------------------------
# Tietze against the reference pass, and abelianization before and after

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _letters(ngens):
    return st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))


@st.composite
def random_presentations(draw):
    ngens = draw(st.integers(1, 5))
    relators = draw(st.lists(st.lists(_letters(ngens), min_size=1, max_size=9), max_size=7))
    return Presentation([f"g{i}" for i in range(ngens)], relators)


# (group, extra relator or None): with the extra relator the group has a
# finite quotient (SL(2,Z/k), PSL(2,Z/k), B3/<<s1^k>>), so coset
# enumeration over it always completes, and its coset table is a complete,
# valid table for a finite-index subgroup of the group itself.
SUBGROUP_SOURCES = [
    ("SL2Z", "a b a b a b"),
    ("SL2Z", "a b a b a b a b"),
    ("SL2Z", "a b a b a b a b a b"),
    ("PSL2Z", "a b a b a b a b"),
    ("PSL2Z", "a b a b a b a b a b"),
    ("braid3", "s1 s1 s1"),
    ("braid3", "s1 s1 s1 s1"),
    ("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n", None),  # S3
    ("gens: a b\nrel: a a a a\nrel: a a B B\nrel: B a b a\n", None),  # quaternion
]


@st.composite
def finite_index_subgroups(draw):
    """Reidemeister-Schreier presentation of a random finite-index subgroup:
    a random subgroup of a finite quotient, or a braid3 exponent kernel."""
    if draw(st.booleans()):
        b3, _ = builtin_presentation("braid3")
        k = draw(st.integers(1, 40))
        return reidemeister_schreier(b3, cayley_table(b3, mod_cycle_images(b3, k)))
    source, extra = draw(st.sampled_from(SUBGROUP_SOURCES))
    if extra is None:
        pres = quotient = parse_presentation(source)
    else:
        pres, _ = builtin_presentation(source)
        quotient = Presentation(pres.generators,
                                pres.relators + (pres.word_from_text(extra),))
    words = draw(st.lists(st.lists(_letters(pres.num_generators), min_size=1, max_size=4),
                          max_size=2))
    table = todd_coxeter(quotient, subgroup=words, coset_limit=5000)
    table.validate(pres)
    return reidemeister_schreier(pres, table)


class TestTietzeMatchesReference:
    @PROPERTY
    @given(random_presentations())
    def test_random_presentations(self, pres):
        out, ref = tietze_simplify(pres), reference_tietze_simplify(pres)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    @PROPERTY
    @given(finite_index_subgroups())
    def test_subgroup_presentations(self, sub):
        out, ref = tietze_simplify(sub), reference_tietze_simplify(sub)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=16))
    def test_rotation_key_is_least_rotation(self, letters):
        word = tuple(letters)
        assert library_rotation_key(word) == _rotation_key(word)


class TestSimplifiedAbelianization:
    @PROPERTY
    @given(finite_index_subgroups())
    def test_invariants_survive_tietze(self, sub):
        assert abelian_invariants(sub) == abelian_invariants(tietze_simplify(sub))

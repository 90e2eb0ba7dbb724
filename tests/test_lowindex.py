import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_low_index_normal
from rgcost.fpgroup.builtins import builtin_target
from rgcost.fpgroup.chains import cayley_table, mod_cycle_images
from rgcost.fpgroup.coset import EnumerationLimit, standardize_rows
from rgcost.fpgroup.lowindex import low_index_normal
from rgcost.fpgroup.presentation import Presentation, parse_presentation


class TestLowIndexNormal:
    def test_f2_index_two(self):
        # oracle: index-2 subgroups = nontrivial homomorphisms to Z/2,
        # and 2^2 - 1 = 3 of those exist (all automatically normal)
        f2 = parse_presentation("gens: x y\n")
        subs = low_index_normal(f2, 2)
        assert [t.index for t in subs] == [1, 2, 2, 2]

    def test_cyclic_six_divisors(self):
        c6 = parse_presentation("gens: a\nrel: a a a a a a\n")
        subs = low_index_normal(c6, 6)
        assert [t.index for t in subs] == [1, 2, 3, 6]

    def test_braid3_contains_cyclic_kernels(self):
        # abelianization of the two-generator braid group is Z, so the
        # kernel of the total-exponent map mod k is normal of index k
        b3 = builtin_target("braid3").presentation
        subs = low_index_normal(b3, 6)
        found = {t.rows for t in subs}
        for k in range(1, 7):
            kernel = cayley_table(b3, mod_cycle_images(b3, k))
            assert kernel.rows in found, f"missing mod-{k} kernel"

    def test_s3_normal_subgroups(self):
        s3 = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        subs = low_index_normal(s3, 6)
        # whole group, A3 (index 2), trivial (index 6); the three order-2
        # subgroups are not normal
        assert [t.index for t in subs] == [1, 2, 6]

    def test_tables_are_valid_and_regular(self):
        s3 = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        for t in low_index_normal(s3, 6):
            t.validate(s3)

    def test_hard_cap(self):
        f2 = parse_presentation("gens: x y\n")
        with pytest.raises(ValueError):
            low_index_normal(f2, 65)

    def test_bad_max_index(self):
        f2 = parse_presentation("gens: x y\n")
        with pytest.raises(ValueError):
            low_index_normal(f2, 0)

    def test_deterministic_order(self):
        f2 = parse_presentation("gens: x y\n")
        a = low_index_normal(f2, 3)
        b = low_index_normal(f2, 3)
        assert [t.rows for t in a] == [t.rows for t in b]


def _check_tables(pres, tables):
    """Each table is standardized and valid, and no two are equal."""
    for t in tables:
        assert t.rows == standardize_rows(t.rows)
        t.validate(pres)
    assert len({t.rows for t in tables}) == len(tables)


_LETTER = st.integers(1, 3).flatmap(lambda g: st.sampled_from((g, -g)))


class TestMatchesReference:
    # The reference enumerates every subgroup and filters afterwards; it
    # takes about 1 s at braid5 N = 5 and 15 s at N = 6, which bounds the
    # sizes compared here.
    @pytest.mark.parametrize("target,max_index", [
        ("SL2Z", 12), ("PSL2Z", 12), ("braid3", 12), ("braid4", 6), ("braid5", 5),
    ])
    def test_builtin(self, target, max_index):
        pres = builtin_target(target).presentation
        out = low_index_normal(pres, max_index)
        assert [t.rows for t in out] == [t.rows for t in reference_low_index_normal(
            pres, max_index)]
        _check_tables(pres, out)
        # a smaller bound returns the prefix of the same list
        for n in range(1, max_index):
            assert [t.rows for t in low_index_normal(pres, n)] == [
                t.rows for t in out if t.index <= n]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(1, 2).flatmap(lambda g: st.sampled_from((g, -g))),
                             min_size=1, max_size=6), min_size=1, max_size=3),
           st.integers(1, 5))
    def test_random_two_generator(self, relators, max_index):
        pres = Presentation(("x", "y"), relators)
        out = low_index_normal(pres, max_index)
        assert [t.rows for t in out] == [t.rows for t in reference_low_index_normal(
            pres, max_index)]
        _check_tables(pres, out)

    # A one-letter relator deduces from a newly opened coset's empty row,
    # which a queue over filled entries alone would miss, and a proper
    # power has repeated rotations.
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(_LETTER.map(lambda x: [x]),
                              st.builds(lambda w, k: w * k,
                                        st.lists(_LETTER, min_size=1, max_size=3),
                                        st.integers(2, 4)),
                              st.lists(_LETTER, min_size=1, max_size=6)),
                    min_size=1, max_size=3),
           st.integers(1, 5))
    def test_random_three_generator(self, relators, max_index):
        pres = Presentation(("x", "y", "z"), relators)
        out = low_index_normal(pres, max_index)
        assert [t.rows for t in out] == [t.rows for t in reference_low_index_normal(
            pres, max_index)]
        _check_tables(pres, out)


class TestSearchBudget:
    def test_limit_raises_with_count(self):
        b5 = builtin_target("braid5").presentation
        with pytest.raises(EnumerationLimit) as exc:
            low_index_normal(b5, 8, limit=100)
        assert (exc.value.count, exc.value.limit) == (101, 100)
        assert "low-index search" in str(exc.value)

    def test_limit_counts_the_first_coset(self):
        # coset 0 counts, so a limit of 1 allows index 1 and nothing more
        f2 = parse_presentation("gens: x y\n")
        assert len(low_index_normal(f2, 1, limit=1)) == 1
        with pytest.raises(EnumerationLimit):
            low_index_normal(f2, 2, limit=1)

    def test_default_limit_has_headroom(self):
        # braid5 at N = 8 opens fewer than a tenth of the default 100000
        b5 = builtin_target("braid5").presentation
        assert len(low_index_normal(b5, 8, limit=10_000)) == 21

    # The number of cosets the search opens pins the size of its tree: a
    # deduction the closure missed leaves holes to branch on, and so opens
    # more.  Both boundaries were recorded with the search that rescanned
    # every relator at every coset until nothing changed.
    @staticmethod
    def _assert_opens(pres, max_index, opened, found):
        assert len(low_index_normal(pres, max_index, limit=opened)) == found
        with pytest.raises(EnumerationLimit) as exc:
            low_index_normal(pres, max_index, limit=opened - 1)
        assert (exc.value.count, exc.value.limit) == (opened, opened - 1)

    def test_braid5_tree_size(self):
        self._assert_opens(builtin_target("braid5").presentation, 8, 5042, 21)

    def test_one_letter_relator_and_powers_tree_size(self):
        pres = parse_presentation("gens: x y z\nrel: Y\nrel: x z x z x z\nrel: z z z z\n")
        self._assert_opens(pres, 12, 141, 9)

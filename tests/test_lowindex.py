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

    def test_limit_counts_every_candidate_not_the_root(self):
        # the root is not a node entered: a group closed by its relators
        # alone is found with a limit of 0; F2 at index 1 tries one
        # candidate at each of its two holes
        trivial = parse_presentation("gens: x\nrel: x\n")
        assert len(low_index_normal(trivial, 1, limit=0)) == 1
        self._assert_nodes(parse_presentation("gens: x y\n"), 1, 2, 1)
        self._assert_nodes(parse_presentation("gens: x y\n"), 2, 11, 4)

    def test_default_limit_has_headroom(self):
        # braid5 at N = 8 enters fewer than half the default 100000 nodes
        b5 = builtin_target("braid5").presentation
        assert len(low_index_normal(b5, 8, limit=50_000)) == 21

    # The number of nodes the search enters pins the size of its tree: a
    # deduction the closure missed leaves holes to branch on, and so
    # enters more.  Each count was recorded by counting the candidates
    # tried by the search before its budget counted nodes, and the
    # search that rescanned every relator at every coset enters the same.
    @staticmethod
    def _assert_nodes(pres, max_index, nodes, found):
        assert len(low_index_normal(pres, max_index, limit=nodes)) == found
        with pytest.raises(EnumerationLimit) as exc:
            low_index_normal(pres, max_index, limit=nodes - 1)
        assert (exc.value.count, exc.value.limit) == (nodes, nodes - 1)

    def test_braid3_tree_size(self):
        self._assert_nodes(builtin_target("braid3").presentation, 14, 936, 17)

    def test_braid5_tree_size(self):
        self._assert_nodes(builtin_target("braid5").presentation, 8, 42731, 21)

    def test_one_letter_relator_and_powers_tree_size(self):
        pres = parse_presentation("gens: x y z\nrel: Y\nrel: x z x z x z\nrel: z z z z\n")
        self._assert_nodes(pres, 12, 678, 9)

    def test_wide_search_stops_at_the_limit(self):
        # at N = 2 row 0 chooses each of its 2(n - 1) entries on its own,
        # so the tree grows like 2^(2(n - 1)) while few cosets open; the
        # node count stops it at the limit
        b40 = builtin_target("braid40").presentation
        with pytest.raises(EnumerationLimit) as exc:
            low_index_normal(b40, 2, limit=2_000)
        assert exc.value.count == 2_001

import random

import pytest

from conftest import coxeter_presentation, todd_coxeter
from rgcost.fpgroup.coset import EnumerationLimit, letter_to_col, standardize_rows
from rgcost.fpgroup.presentation import parse_presentation
from rgcost.lgraph import LabelledGraph


def triangle(l_ab, l_bc, l_ac=2):
    return LabelledGraph(
        ["a", "b", "c"],
        [("a", "b", l_ab), ("b", "c", l_bc), ("a", "c", l_ac)],
    )


def perm_closure_order(perms):
    """Oracle: order of the permutation group generated by the tuples."""
    identity = tuple(range(len(perms[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for q in frontier:
            for p in perms:
                prod = tuple(p[x] for x in q)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


class TestFiniteOrders:
    def test_s3(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        t = todd_coxeter(p, coset_limit=100)
        assert t.index == 6
        # oracle: closure of the two transpositions (0 1), (1 2) in S3
        assert perm_closure_order([(1, 0, 2), (0, 2, 1)]) == 6

    def test_s4_from_triangle_diagram(self):
        # classical A3 diagram: explicit label-2 edge under the
        # no-edge-means-no-relation convention
        t = todd_coxeter(coxeter_presentation(triangle(3, 3)), coset_limit=2000)
        assert t.index == 24
        # oracle: closure of adjacent transpositions in S4
        s4 = perm_closure_order([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)])
        assert s4 == 24

    def test_weyl_b3(self):
        t = todd_coxeter(coxeter_presentation(triangle(4, 3)), coset_limit=2000)
        assert t.index == 48

    @pytest.mark.parametrize("m", range(2, 8))
    def test_dihedral_orders(self, m):
        text = "gens: a b\nrel: a a\nrel: b b\nrel: " + " ".join(["a", "b"] * m) + "\n"
        t = todd_coxeter(parse_presentation(text), coset_limit=200)
        assert t.index == 2 * m

    def test_cyclic_subgroup_of_s3(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        t = todd_coxeter(p, subgroup=["a b"], coset_limit=100)
        assert t.index == 2


class TestInfinite:
    def test_infinite_dihedral_inconclusive(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\n")
        with pytest.raises(EnumerationLimit) as exc:
            todd_coxeter(p, coset_limit=1000)
        assert exc.value.count >= 1000
        assert "not" not in str(exc.value).split("inconclusive")  # message sanity

    def test_free_group_trivial_subgroup(self):
        p = parse_presentation("gens: x y\n")
        with pytest.raises(EnumerationLimit):
            todd_coxeter(p, coset_limit=500)


class TestTableValidity:
    def test_validate_runs_on_every_enumeration(self):
        rng = random.Random(79)
        pool = [
            "gens: a b\nrel: a a\nrel: b b b\nrel: a b a b a b a b\n",   # S4 image
            "gens: a\nrel: a a a a a a\n",
            "gens: a b\nrel: a a a a\nrel: b b\nrel: a b A b\n",
        ]
        for text in pool:
            p = parse_presentation(text)
            for _ in range(5):
                words = []
                for _ in range(rng.randint(0, 2)):
                    words.append(tuple(rng.choice((1, -1)) * rng.randint(1, p.num_generators)
                                       for _ in range(rng.randint(1, 3))))
                try:
                    t = todd_coxeter(p, subgroup=words, coset_limit=5000)
                except EnumerationLimit:
                    continue
                t.validate(p)  # relators trace identity, action transitive, ...

    def test_columns_are_inverse_permutations(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        t = todd_coxeter(p, coset_limit=100)
        for g in range(1, 3):
            perm = tuple(t.rows[c][2 * (g - 1)] for c in range(t.index))
            inv = tuple(t.rows[c][2 * (g - 1) + 1] for c in range(t.index))
            assert [perm[inv[i]] for i in range(t.index)] == list(range(t.index))

    def test_standardized_output_is_deterministic(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        t1 = todd_coxeter(p, coset_limit=100)
        t2 = todd_coxeter(p, coset_limit=100)
        assert t1.rows == t2.rows

    def test_standardize_rejects_nontransitive(self):
        with pytest.raises(ValueError):
            standardize_rows([[0, 0, 0, 0], [1, 1, 1, 1]])

    def test_trace_and_act(self):
        p = parse_presentation("gens: a\nrel: a a a\n")
        t = todd_coxeter(p, coset_limit=10)
        assert t.index == 3
        assert t.trace(0, (1, 1, 1)) == 0
        assert t.rows[0][letter_to_col(1)] == t.trace(0, (1,))
        assert t.rows[0][letter_to_col(-1)] == t.trace(0, (-1,)) == 2

    def test_subgroup_words_fix_coset_zero(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        t = todd_coxeter(p, subgroup=["a"], coset_limit=100)
        assert t.index == 3
        assert t.trace(0, (1,)) == 0

    def test_coset_limit_validation(self):
        p = parse_presentation("gens: a\n")
        with pytest.raises(ValueError):
            todd_coxeter(p, coset_limit=0)

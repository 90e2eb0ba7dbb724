import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coxeter_presentation, cycle_graph, path_graph
from rgcost.fpgroup.builtins import STRAND_CAP, builtin_target
from rgcost.fpgroup.presentation import (
    Presentation,
    PresentationError,
    artin_presentation,
    cyclic_reduce,
    free_reduce,
    invert_word,
    parse_presentation,
)
from rgcost.numread import LimitExceeded
from rgcost.lgraph import parse_graph


class TestWords:
    def test_free_reduce(self):
        assert free_reduce([1, 2, -2, -1, 1]) == (1,)
        assert free_reduce([1, -1]) == ()

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError, match="word letters must be nonzero"):
            free_reduce([1, 0])
        with pytest.raises(PresentationError, match="relator letter -3 out of range"):
            Presentation(["a", "b"], [[1, -3]])

    def test_invert(self):
        assert invert_word((1, 2, -3)) == (3, -2, -1)

    def test_cyclic_reduce(self):
        assert cyclic_reduce((1, 2, 3, -1)) == (2, 3)
        assert cyclic_reduce((1, -1)) == ()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=12),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6))
    def test_cyclic_reduce_matches_trimming_loop(self, core, conjugator):
        word = conjugator + core + [-x for x in reversed(conjugator)]
        # the trimming loop cyclic_reduce replaced, one copy per pair
        w = list(free_reduce(word))
        while len(w) >= 2 and w[0] == -w[-1]:
            w = w[1:-1]
        assert cyclic_reduce(word) == tuple(w)

    def test_cyclic_reduce_long_conjugate(self):
        k = 50_000
        start = time.perf_counter()
        assert cyclic_reduce([1] * k + [2] + [-1] * k) == (2,)
        assert time.perf_counter() - start < 0.5


class TestPresentation:
    def test_parse_and_round_trip(self):
        text = "gens: a b\nrel: a b a B A B\n"
        p = parse_presentation(text)
        assert p.generators == ("a", "b")
        assert p.relators == ((1, 2, 1, -2, -1, -2),)
        assert p.to_text() == text

    def test_uppercase_inverse_convention(self):
        p = parse_presentation("gens: x y\nrel: x Y\n")
        assert p.relators == ((1, -2),)

    def test_comments(self):
        p = parse_presentation("# free group\ngens: a b  # two generators\n")
        assert p.generators == ("a", "b") and not p.relators

    def test_relators_freely_reduced_on_construction(self):
        p = Presentation(("a", "b"), [(1, -1, 2)])
        assert p.relators == ((2,),)

    def test_empty_relators_dropped(self):
        p = Presentation(("a",), [(1, -1)])
        assert p.relators == ()

    @pytest.mark.parametrize("text", [
        "rel: a\n",                      # rel before gens
        "gens: a A\n",                   # case-swap collision
        "gens: a\nrel: b\n",             # unknown token
        "gens: a\nbogus: x\n",           # malformed line
        "gens: a\ngens: b\n",            # duplicate gens line
        "gens:\n",                       # no generators
        "# no gens line\n",              # missing gens line
    ])
    def test_errors(self, text):
        with pytest.raises(PresentationError):
            parse_presentation(text)

    def test_unknown_token_names_its_line(self):
        with pytest.raises(PresentationError, match=r"^line 4: unknown generator token 'c'$") as exc:
            parse_presentation("gens: a b\nrel: a b\n\nrel: a c B\n")
        assert exc.value.line == 4

    def test_bad_generator_name_before_bad_token(self):
        with pytest.raises(PresentationError, match="^invalid generator name '1x'$"):
            parse_presentation("gens: a 1x\nrel: a q\n")
        with pytest.raises(PresentationError, match="^generator name 'A' collides"):
            parse_presentation("gens: a A\nrel: q\n")


class TestBraidTargets:
    def test_strands_above_the_cap_are_refused_at_once(self):
        for n, shown in ((STRAND_CAP + 1, STRAND_CAP + 1), (99_999_999_999, 99_999_999_999),
                         ("9" * 5000, "of 5000 digits")):
            start = time.perf_counter()
            with pytest.raises(LimitExceeded, match=f"^braidN strand count {shown} "
                                                    f"exceeds the cap {STRAND_CAP}$"):
                builtin_target(f"braid{n}")
            assert time.perf_counter() - start < 0.5

    def test_strands_at_the_cap(self):
        pres = builtin_target(f"braid{STRAND_CAP}").presentation
        assert len(pres.generators) == STRAND_CAP - 1


class TestArtinPresentation:
    def test_label_2_commutator(self):
        p = artin_presentation(parse_graph("vertex v\nvertex w\nedge v w 2\n"))
        assert p.relators == ((1, 2, -1, -2),)

    def test_label_3_braid_relation(self):
        p = artin_presentation(parse_graph("vertex v\nvertex w\nedge v w 3\n"))
        assert p.relators == ((1, 2, 1, -2, -1, -2),)

    def test_no_edges_free_group(self):
        p = artin_presentation(parse_graph("vertex v\nvertex w\n"))
        assert p.relators == ()
        assert p.num_generators == 2


class TestCoxeterPresentation:
    def test_single_vertex(self):
        p = coxeter_presentation(parse_graph("vertex a\n"))
        assert p.relators == ((1, 1),)

    def test_edge_label_3(self):
        p = coxeter_presentation(path_graph([3]))
        assert p.relators == ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2))

    def test_hexagon_labels_2(self):
        p = coxeter_presentation(cycle_graph([2] * 6))
        squares = [r for r in p.relators if len(r) == 2]
        commutators = [r for r in p.relators if len(r) == 4]
        assert len(squares) == 6 and len(commutators) == 6

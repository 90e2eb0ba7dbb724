"""Every `d_upper` is witnessed: the generators a row counts, written as
words in G, enumerate back to the row's index.

A row claims d(H) <= d_upper, and `verify` prints `matches symbolic` from
r_upper, so a d_upper that is too low would be a false claim about the
paper's value.  Two kinds of row name their generators as words in G:

- the k-fold route (a coset table, Reidemeister-Schreier, Tietze) keeps
  Reidemeister-Schreier's names sN, and `schreier_words(table)[N - 1]` is
  sN as a word in G;
- on an odd-labelled Artin tree, `window_words` are t^k and a free basis
  of ker(G -> Z), whose count w + 1 caps every `--abelian-kill` row.

Either set lies in H by construction (a Schreier word reads a loop at
coset 0; a window word has exponent sum 0), so it generates H exactly
when Todd-Coxeter over it closes at H's index.  That enumeration is the
oracle here; it calls neither route.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import schreier_words, todd_coxeter, window_words
from rgcost.fpgroup.builtins import builtin_target
from rgcost.fpgroup.chains import (cayley_table, exponent_kernel_samples, mod_cycle_images,
                                   psl2z_images, rg_sequence, sl2z_images)
from rgcost.fpgroup.lowindex import low_index_normal
from rgcost.fpgroup.presentation import artin_presentation
from rgcost.fpgroup.rewrite import reidemeister_schreier, tietze_simplify
from test_exponent_kernels import odd_trees


def kept_words(pres, table):
    """The generators Tietze keeps on the k-fold route, as words in G."""
    words = schreier_words(table)
    kept = tietze_simplify(reidemeister_schreier(pres, table)).generators
    return [words[int(name[1:]) - 1] for name in kept]


def generates(pres, words, index: int) -> bool:
    return todd_coxeter(pres, subgroup=words).index == index


@pytest.mark.parametrize("name,images", [("SL2Z", sl2z_images), ("PSL2Z", psl2z_images)])
@pytest.mark.parametrize("n", range(2, 8))
def test_congruence_rows(name, images, n):
    pres = builtin_target(name).presentation
    table = cayley_table(pres, images(n))
    (row,) = rg_sequence(pres, [table])
    words = kept_words(pres, table)
    assert len(words) == row.d_upper
    assert generates(pres, words, row.index)


def test_low_index_rows():
    pres = builtin_target("braid3").presentation
    tables = low_index_normal(pres, 6)
    for table, row in zip(tables, rg_sequence(pres, tables)):
        words = kept_words(pres, table)
        assert len(words) == row.d_upper
        assert generates(pres, words, row.index)


def check_abelian_kill_rows(pres, levels):
    """Both sets generate H_k, and each row counts the smaller one."""
    for row in exponent_kernel_samples(pres, levels):
        window = window_words(pres, row.index)
        kept = kept_words(pres, cayley_table(pres, mod_cycle_images(pres, row.index)))
        assert generates(pres, window, row.index), row.index
        assert generates(pres, kept, row.index), row.index
        assert row.d_upper == min(len(window), len(kept)), row.index


# braid3 has w = 2 and braid5 w = 6: the levels cross 2w, so both routes
@pytest.mark.parametrize("name,levels", [
    ("braid3", [*range(1, 13), 32, 64]),
    ("braid5", [*range(1, 17), 24, 32]),
])
def test_abelian_kill_rows(name, levels):
    check_abelian_kill_rows(builtin_target(name).presentation, levels)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(odd_trees(), st.data())
def test_abelian_kill_rows_on_random_odd_trees(graph, data):
    pres = artin_presentation(graph)
    w = sum(m - 1 for _, _, m in graph.edges())
    check_abelian_kill_rows(pres, [data.draw(st.integers(1, 2 * w + 8))])

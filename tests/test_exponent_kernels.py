"""A closed-form oracle for the exponent kernels of odd-labelled tree
Artin groups.

Let G be the Artin group of a tree whose edge labels are all odd, and H_k
the kernel of the exponent-sum map G -> Z/k (`verify --abelian-kill k`).

An odd label makes the two ends of its edge conjugate, and the tree is
connected, so G^ab = Z, generated by the image t of any vertex.  Let
K = ker(G -> Z).  The group of one edge with label m is the group of the
torus knot T(2, m); the whole of G is the tree of these edge groups,
amalgamated over the infinite cyclic vertex groups.  Each vertex group
maps onto Z, so it meets K trivially, and K acting on the Bass-Serre tree
has for quotient a tree with trivial edge groups: K is the free product
of the edge groups' K_e.  T(2, m) is fibred with free fibre of rank
m - 1, so K_e is free of that rank, and as a module over Z[t, t^-1] (t
acting by conjugation by a vertex generator) its abelianization is the
Alexander module Z[t, t^-1]/(D_m), D_m(t) = (t^m + 1)/(t + 1).  As a group
that module is Z^(m-1), with t acting by the companion matrix C_m of D_m.

H_k = K x| <t^k>, so H1(H_k) = Z + (K^ab)_(t^k), the coinvariants of t^k:

    H1(H_k) = Z + sum over edges e of coker(C_e^k - I).

`d_lower` is the least number of generators of H1(H_k): the number of
invariant factors other than 1 of the block-diagonal matrix
diag(0, C_e^k - I), computed here by sympy's Smith normal form over ZZ.
And H_k is generated by t^k and the free basis of K, so d(H_k) <= w + 1,
w = sum (m_e - 1); `tests/test_witness.py` enumerates those words back to
index k.  `verify` caps every row's `d_upper` at w + 1.  Tietze moves on
the k-fold presentation need not reach that bound: on the path with
labels 3, 7, 7 at k = 11 they keep 16 generators, and the row prints 15.

The second half checks the closed-form route: above k = 2w a row comes
from the labels alone (`cover.odd_tree_bounds`) and equals the k-fold
route's, called directly, and sympy's Smith form of the whole
block-diagonal matrix; every other level and every other presentation
builds a Cayley table.
"""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

import rgcost.fpgroup.chains as chains
from conftest import todd_coxeter, window_words
from rgcost.cli import main
from rgcost.fpgroup.builtins import builtin_target
from rgcost.fpgroup.chains import (exponent_kernel_samples, kernel_chain_cayley,
                                   mod_cycle_images, rg_sequence)
from rgcost.fpgroup.cover import odd_tree_bounds
from rgcost.fpgroup.presentation import artin_presentation
from rgcost.lgraph import LabelledGraph


def companion(m: int):
    """The companion matrix of D_m(t) = 1 - t + t^2 - ... + t^(m-1)."""
    n = m - 1
    c = sympy.zeros(n, n)
    for i in range(1, n):
        c[i, i - 1] = 1
    for i in range(n):
        c[i, n - 1] = -(-1) ** i
    return c


def d_oracle(labels, k: int) -> int:
    """d(H1(H_k)) for the tree with these edge labels."""
    blocks = [sympy.zeros(1, 1)] + [companion(m) ** k - sympy.eye(m - 1) for m in labels]
    snf = smith_normal_form(sympy.diag(*blocks), domain=sympy.ZZ)
    return sum(abs(snf[i, i]) != 1 for i in range(snf.rows))


def csv_rows(capsys) -> list[tuple[int, int, int]]:
    lines = capsys.readouterr().out.split("\n")
    start = lines.index("index,d_lower,d_upper,r_lower,r_upper") + 1
    rows = []
    for line in lines[start:]:
        if not line[:1].isdigit():
            break
        index, d_lower, d_upper = map(int, line.split(",")[:3])
        rows.append((index, d_lower, d_upper))
    return rows


def test_companion_matrix_has_the_polynomial():
    t = sympy.Symbol("t")
    for m in (3, 5, 7):
        assert sympy.expand(companion(m).charpoly(t).as_expr() * (t + 1)) == t ** m + 1


# braid5 is the path s1 - s2 - s3 - s4, every label 3: the bound is 7.
# Levels above 2w = 12 come from the infinite cyclic cover.
BRAID5_KS = [*range(2, 14), 18, 24, 30, 64, 300]


def test_braid5(capsys):
    assert main(["--no-timestamp", "verify", "braid5", "--abelian-kill",
                 ",".join(map(str, BRAID5_KS))]) == 0
    rows = csv_rows(capsys)
    assert [index for index, _, _ in rows] == BRAID5_KS
    for k, d_lower, d_upper in rows:
        assert d_lower == d_oracle([3, 3, 3], k), k
        assert d_lower <= d_upper <= 7, k
    assert [d for _, d, _ in rows[:7]] == [4, 7, 4, 1, 7, 1, 4]


# The path a - b - c with labels 5 and 3, read from a presentation file:
# the bound is 1 + 4 + 2 = 7.
PATH_53 = "gens: a b c\nrel: a b a b a B A B A B\nrel: b c b C B C\n"
PATH_53_KS = [*range(2, 11), 12, 15, 30]


def test_path_5_3_presentation_file(tmp_path, capsys):
    path = tmp_path / "path53.pres"
    path.write_text(PATH_53)
    assert main(["--no-timestamp", "verify", str(path), "--abelian-kill",
                 ",".join(map(str, PATH_53_KS))]) == 0
    rows = csv_rows(capsys)
    assert [index for index, _, _ in rows] == PATH_53_KS
    for k, d_lower, d_upper in rows:
        assert d_lower == d_oracle([5, 3], k), k
        assert d_lower <= d_upper <= 7, k


@st.composite
def odd_trees(draw):
    """A tree on 1 to 4 vertices, each edge labelled 3, 5 or 7."""
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    edges = [(vertices[draw(st.integers(0, i - 1))], vertices[i],
              draw(st.sampled_from((3, 5, 7)))) for i in range(1, n)]
    return LabelledGraph(vertices, edges)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(odd_trees(), st.integers(2, 12))
def test_random_odd_trees(graph, k):
    pres = artin_presentation(graph)
    (row,) = rg_sequence(pres, kernel_chain_cayley(pres, [mod_cycle_images(pres, k)]))
    labels = [m for _, _, m in graph.edges()]
    assert row.index == k
    assert row.d_lower == d_oracle(labels, k)
    assert row.d_lower <= min(row.d_upper, 1 + sum(m - 1 for m in labels))


# ---------------------------------------------------------------------------
# the closed-form route


def kfold_row(pres, k: int):
    """The k-fold route for one level, the reference: Cayley table,
    Reidemeister-Schreier, Tietze."""
    (row,) = rg_sequence(pres, kernel_chain_cayley(pres, [mod_cycle_images(pres, k)]))
    return row


def width(labels) -> int:
    """The fibre rank w = sum (m_e - 1)."""
    return sum(m - 1 for m in labels)


@pytest.fixture
def cayley_levels(monkeypatch):
    """The degree of each Cayley table built, in build order."""
    real = chains.cayley_table
    seen = []

    def spy(pres, images):
        seen.append(len(images[pres.generators[0]]))
        return real(pres, images)

    monkeypatch.setattr(chains, "cayley_table", spy)
    return seen


@pytest.mark.parametrize("strands", [3, 4, 5, 6])
def test_cover_rows_equal_kfold_rows_on_braids(strands, cayley_levels):
    pres = builtin_target(f"braid{strands}").presentation
    levels = list(range(2 * width([3] * (strands - 2)) + 1, 41))
    rows = exponent_kernel_samples(pres, levels)
    assert cayley_levels == []
    assert rows == [kfold_row(pres, k) for k in levels]


# On a label-3 edge t has order 6 on Z[t]/(t^2 - t + 1), and the block's
# cokernel at k = 0..5 mod 6 is Z^2, 0, Z/3, (Z/2)^2, Z/3, 0: c non-unit
# invariant factors per edge, for braidN's N - 2 edges.
BRAID_FACTORS = (2, 0, 1, 2, 1, 0)


@pytest.mark.parametrize("strands", range(3, 9))
def test_braid_rows_follow_k_mod_6(strands):
    w = width([3] * (strands - 2))
    levels = list(range(2 * w + 1, 2 * w + 13))
    rows = exponent_kernel_samples(builtin_target(f"braid{strands}").presentation, levels)
    assert [(row.d_lower, row.d_upper) for row in rows] == [
        (1 + (strands - 2) * BRAID_FACTORS[k % 6], w + 1) for k in levels]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from((3, 5, 7, 9, 11)), min_size=1, max_size=6),
       st.integers(1, 300))
def test_merged_block_factors_equal_the_whole_matrix(labels, k):
    # labels repeat and differ, so blocks share and mix primes
    assert odd_tree_bounds(labels, k) == (d_oracle(labels, k), 1 + width(labels))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(odd_trees(), st.data())
def test_cover_rows_equal_kfold_rows_on_random_odd_trees(graph, data):
    # any vertex order: the walk then meets edges from either end
    pres = artin_presentation(LabelledGraph(data.draw(st.permutations(graph.vertices)),
                                            graph.edges()))
    w = width(m for _, _, m in graph.edges())
    k = data.draw(st.integers(2 * w + 1, 2 * w + 16))
    calls = []
    real = chains.cayley_table
    chains.cayley_table = lambda *args: calls.append(args) or real(*args)
    try:
        (row,) = exponent_kernel_samples(pres, [k])
    finally:
        chains.cayley_table = real
    assert calls == []
    assert row == kfold_row(pres, k)


@pytest.mark.parametrize("vertices,edges,levels", [
    ("ab", [("a", "b", 3)], range(5, 14)),
    # c comes before b, so the edge {c, b} is written c first; the walk
    # from a reaches b first, so c's window has the edge {c, b}'s label
    ("acb", [("a", "b", 3), ("c", "b", 3)], (9, 11)),
], ids=["braid3", "path-reached-from-its-second-end"])
def test_cover_presents_the_kernel(vertices, edges, levels):
    # the row counts the window words and t^k, and Todd-Coxeter over
    # them closes at index k: they generate H_k
    pres = artin_presentation(LabelledGraph(list(vertices), edges))
    for row in exponent_kernel_samples(pres, list(levels)):
        words = window_words(pres, row.index)
        assert row.d_upper == len(words), row.index
        assert todd_coxeter(pres, subgroup=words).index == row.index


@pytest.mark.parametrize("graph,k,tietze", [
    (LabelledGraph(list("abcd"), [("a", "b", 3), ("b", "c", 7), ("c", "d", 7)]), 11, 16),
    (LabelledGraph(list("abcde"), [("a", "b", 3), ("b", "c", 3), ("c", "d", 3),
                                   ("d", "e", 3)]), 5, 10),
], ids=["path-3-7-7", "braid6"])
def test_kfold_levels_are_capped_at_the_fibre_bound(graph, k, tietze, cayley_levels):
    # Tietze keeps more generators than t^k and the window at these k <= 2w
    pres = artin_presentation(graph)
    labels = [m for _, _, m in graph.edges()]
    assert kfold_row(pres, k).d_upper == tietze
    (row,) = exponent_kernel_samples(pres, [k])
    assert cayley_levels == [k, k]
    assert (row.d_lower, row.d_upper) == (d_oracle(labels, k), 1 + width(labels))


def test_levels_up_to_twice_the_window_take_the_kfold_route(cayley_levels):
    # braid5: w = 6, so 12 builds a Cayley table and 13 does not; the rows
    # keep the listed order
    pres = builtin_target("braid5").presentation
    rows = exponent_kernel_samples(pres, [13, 4, 12, 16])
    assert cayley_levels == [4, 12]
    assert rows == [kfold_row(pres, k) for k in (13, 4, 12, 16)]
    assert rows[1].d_upper == 6


@pytest.mark.parametrize("vertices,edges", [
    ("abc", [("a", "b", 4), ("b", "c", 3)]),
    ("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]),
    # n - 1 edges, but a cycle and an isolated vertex, not a tree
    ("abcd", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]),
], ids=["even-label", "triangle", "triangle-and-isolated-vertex"])
def test_graphs_outside_the_class_take_the_kfold_route(vertices, edges, cayley_levels):
    pres = artin_presentation(LabelledGraph(list(vertices), edges))
    levels = [3, 40, 41]
    rows = exponent_kernel_samples(pres, levels)
    assert cayley_levels == levels
    assert rows == [kfold_row(pres, k) for k in levels]


def test_free_group_takes_the_kfold_route(cayley_levels):
    pres = artin_presentation(LabelledGraph(["a", "b"], []))
    rows = exponent_kernel_samples(pres, [5, 9])
    assert cayley_levels == [5, 9]
    assert [(r.d_lower, r.d_upper) for r in rows] == [(6, 6), (10, 10)]


def test_nonzero_exponent_sum_keeps_its_refusal(tmp_path, capsys, cayley_levels):
    path = tmp_path / "sum1.pres"
    path.write_text("gens: a b\nrel: a a B\n")
    assert main(["--no-timestamp", "verify", str(path), "--abelian-kill", "7"]) == 2
    assert capsys.readouterr().out.split("\n")[-2] == (
        "error: images do not define a homomorphism: relator a a B does not map to "
        "the identity")
    assert cayley_levels == [7]

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
And H_k is generated by t^k and the free basis of K, so d(H_k) <=
1 + sum (m_e - 1).  `d_upper` comes from Tietze moves, which need not
reach that bound: on the path with labels 3, 7, 7 at k = 11 it is 16,
above the bound 15.  So the bound is checked only on the rows below,
where it holds.
"""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from rgcost.cli import main
from rgcost.fpgroup.chains import kernel_chain_cayley, mod_cycle_images, rg_sequence
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
BRAID5_KS = [*range(2, 14), 18, 24, 30]


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

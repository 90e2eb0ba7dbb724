"""The iterative expression evaluator and parser against the recursive
ones they replaced (``reference_evaluate``, ``reference_parse_expr`` in
conftest), plus deep nests, golden output and the node invariant."""

import contextlib
import io
import itertools
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_ARITY,
    _tokenize as reference_tokenize,
    infer_order,
    reference_evaluate,
    reference_infer_order,
    reference_parse_expr,
)
from rgcost.cli import main
from rgcost.exprparse import _HEADS, ExprParseError, _tokenize, parse_expr
from rgcost.groupexpr import (
    INFINITE,
    AmalgamAmenable,
    AmalgamFinite,
    Amenable,
    ArtinGraph,
    CoxeterGraph,
    Cyclic,
    Free,
    FreeAbelian,
    Generation,
    GroupOrder,
    IntegersZ,
    Surface,
    TrivialGroup,
    Unknown,
    evaluate,
    is_known,
    recip_order,
)
from rgcost.lgraph import LabelledGraph, parse_graph

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Tags and justifications never contain "root", so a path token in an
# entry is always a path.
TAGS = ["lamplighter", "S3", "BS(1,2)"]
JUSTIFICATIONS = ["shared Z", "both contain the same copy of Z"]

# Graph files for the parser tests; bad.graph is malformed and bin.graph
# is not UTF-8.
GRAPH_FILES = {
    "one.graph": "vertex a\n",
    "edge.graph": "vertex a\nvertex b\nedge a b 3\n",
    "pair.graph": "vertex a\nvertex b\n",
    "tri.graph": "vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 2\nedge a c 2\n",
    "hex.graph": "".join(f"vertex v{i}\n" for i in range(6))
                 + "".join(f"edge v{i} v{(i + 1) % 6} {2 + i % 3}\n" for i in range(6)),
    "square.graph": "vertex a\nvertex b\nvertex c\nvertex d\n"
                    "edge a b 2\nedge b c 2\nedge c d 2\nedge d a 2\n",
}
FILE_OF = {parse_graph(text): name for name, text in GRAPH_FILES.items()}


# ---------------------------------------------------------------------------
# random trees


def orders():
    return st.sampled_from([INFINITE] + [GroupOrder(n) for n in (1, 2, 3, 4, 6, 8)])


@st.composite
def small_graphs(draw):
    names = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    edges = [(u, v, draw(st.integers(2, 6)))
             for u, v in itertools.combinations(names, 2) if draw(st.booleans())]
    return LabelledGraph(names, edges)


def leaves(graphs):
    return st.one_of(
        st.just(TrivialGroup()),
        st.integers(2, 9).map(Cyclic),
        st.just(IntegersZ()),
        st.integers(1, 3).map(Free),
        st.integers(2, 3).map(Surface),
        st.integers(1, 3).map(FreeAbelian),
        st.builds(Amenable, st.sampled_from(TAGS), orders()),
        graphs.map(ArtinGraph),
        graphs.map(CoxeterGraph),
    )


@st.composite
def trees(draw, graphs=small_graphs(), depth=0):
    """Trees of all twelve node kinds, at most six levels deep."""
    kind = draw(st.integers(0, 5)) if depth < 6 else 0
    if kind <= 2:
        return draw(leaves(graphs))
    left = draw(trees(graphs, depth + 1))
    right = draw(trees(graphs, depth + 1))
    if kind == 3:
        # orders up to 9 make degenerate amalgams of the cyclic leaves
        return AmalgamFinite(left, right, draw(st.integers(1, 9)))
    if kind == 4:
        return AmalgamAmenable(left, right, draw(trees(graphs, depth + 1)))
    return Generation(left, right, draw(st.sampled_from(JUSTIFICATIONS)))


# ---------------------------------------------------------------------------
# paths


PATH = re.compile(r"root(?:\.(?:left|right|amalgam)(?:\*\d+)?)*")


def node_at(tree, name: str):
    for step, count in re.findall(r"\.(left|right|amalgam)(?:\*(\d+))?", name):
        for _ in range(int(count or 1)):
            tree = getattr(tree, step)
    return tree


def subtrees(tree, steps=()):
    yield steps, tree
    for step in tree.steps:
        yield from subtrees(getattr(tree, step), steps + (step,))


def in_full(text: str, tree) -> str:
    """The text with every path token printed as its node's description."""
    return PATH.sub(lambda m: node_at(tree, m.group()).describe(), text)


def as_reference_entry(entry: str, tree) -> str:
    """Drop the entry's own path and print every path token in full."""
    rule, own, rest = entry.split(" ", 2)
    assert PATH.fullmatch(own), entry
    return f"{rule} " + in_full(rest, tree)


def as_reference_value(value, tree):
    """The value, an unknown one with every path token in its reason
    printed in full."""
    return Unknown(in_full(value.reason, tree)) if isinstance(value, Unknown) else value


# ---------------------------------------------------------------------------


class TestAgainstReference:
    @PROPERTY
    @given(trees())
    def test_values_and_trace(self, tree):
        ref = reference_evaluate(tree)
        got = evaluate(tree)
        assert tuple(as_reference_value(v, tree) for v in (
            got.cost, got.rank_gradient, got.betti1, got.fixed_price)) == (
            ref.cost, ref.rank_gradient, ref.betti1, ref.fixed_price)
        assert len(got.rule_trace) == len(ref.rule_trace)
        assert [as_reference_entry(e, tree) for e in got.rule_trace] == ref.rule_trace

    @settings(PROPERTY, max_examples=60)
    @given(trees())
    def test_orders(self, tree):
        """Every node's order, read where it matters: as the left factor
        of an amalgam over the trivial group, whose betti1 subtracts
        1/|factor| (or is unknown when the order is)."""
        for _, node in subtrees(tree):
            assert infer_order(node) == reference_infer_order(node)
            wrapped = AmalgamFinite(node, Free(2), 1)
            betti = evaluate(wrapped).betti1
            assert as_reference_value(betti, wrapped) == reference_evaluate(wrapped).betti1


# ---------------------------------------------------------------------------
# parser


def to_text(e) -> str:
    """The tree in expression syntax, graph leaves by their file names."""
    if isinstance(e, (ArtinGraph, CoxeterGraph)):
        return f'({e.head} "{FILE_OF[e.graph]}")'
    return "".join(p if isinstance(p, str) else to_text(p) for p in e.form())


TOKEN = re.compile(r'\(|\)|"[^"]*"|[^\s()"]+')
POOL = ["(", ")", "z", "trivial", "cyclic", "free", "surface", "free-abelian",
        "amenable", "artin", "coxeter", "amalgam-finite", "amalgam-amenable",
        "generation", "0", "1", "2", "7", "-3", "inf", "x", '"t"', '""', '"  "',
        '"one.graph"', '"bad.graph"', '"bin.graph"', '"missing.graph"', '"', "; c\n"]


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("graphs")
    for name, text in GRAPH_FILES.items():
        (d / name).write_text(text)
    (d / "bad.graph").write_text("vertex a\nedge a a 2\n")
    (d / "bin.graph").write_bytes(b"vertex \xff\n")
    (d / "t.expr").write_text('(artin "t.expr")\n')
    return str(d)


@st.composite
def parser_inputs(draw):
    tokens = TOKEN.findall(to_text(draw(trees(st.sampled_from(list(FILE_OF)), depth=2))))
    edit = draw(st.sampled_from(["none", "delete", "insert", "replace", "swap"]))
    i = draw(st.integers(0, len(tokens) - 1))
    if edit == "delete":
        del tokens[i]
    elif edit == "insert":
        tokens.insert(i, draw(st.sampled_from(POOL)))
    elif edit == "replace":
        tokens[i] = draw(st.sampled_from(POOL))
    elif edit == "swap":
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    seps = draw(st.lists(st.sampled_from([" ", "\n", "  \n "]),
                         min_size=len(tokens), max_size=len(tokens)))
    return "".join(t + s for t, s in zip(tokens, seps))


def parse_outcome(parse, text, base_dir):
    try:
        return parse(text, base_dir)
    except ExprParseError as exc:
        return str(exc), exc.line, exc.col


class TestParserAgainstReference:
    @PROPERTY
    @given(text=parser_inputs())
    def test_same_tree_or_same_error(self, graph_dir, text):
        assert parse_outcome(parse_expr, text, graph_dir) == parse_outcome(
            reference_parse_expr, text, graph_dir)

    @PROPERTY
    @given(st.text(alphabet='()";\n\r\t \x0c\xa0az1-', max_size=40))
    def test_same_tokens(self, text):
        """The regular-expression tokenizer against the character loop it
        replaced, on any text: the same tokens, or the same error."""
        def outcome(tokenize):
            try:
                return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
            except ExprParseError as exc:
                return str(exc)
        assert outcome(_tokenize) == outcome(reference_tokenize)

    @settings(PROPERTY, max_examples=100)
    @given(tree=trees(st.sampled_from(list(FILE_OF))))
    def test_round_trip(self, graph_dir, tree):
        assert parse_expr(to_text(tree), graph_dir) == tree

    @pytest.mark.parametrize("text", [
        "", "(", ")", "z", "(z", "(z))", "(cyclic 3) (cyclic 4)",
        '(artin "bad.graph")', '(coxeter "bin.graph")', '(artin "missing.graph")',
        '(amalgam-finite (generation z z "  ") (cyclic 2) 1)',
        '(amalgam-amenable z z z inf 0 inf)', "(amalgam-finite z z)",
        # an expression file read as a graph: the error names the graph file
        '(artin "t.expr")',
        "(cyclic 1_0)", '(amenable "t" \u0663)', '(amenable "t" "inf")', "(cyclic -0)",
        "(cyclic 3 " + "7" * 30 + ")", "(" + "x" * 30 + " 1)",
    ])
    def test_edge_cases(self, graph_dir, text):
        assert parse_outcome(parse_expr, text, graph_dir) == parse_outcome(
            reference_parse_expr, text, graph_dir)

    def test_extra_argument_on_every_head(self, graph_dir):
        """A form given one argument too many is refused at that argument,
        by the head and its count, the same way as the reference."""
        forms = {
            "trivial": "(trivial", "z": "(z", "cyclic": "(cyclic 3", "free": "(free 2",
            "free-abelian": "(free-abelian 2", "surface": "(surface 2",
            "amenable": '(amenable "t" inf', "artin": '(artin "one.graph"',
            "coxeter": '(coxeter "edge.graph"', "amalgam-finite": "(amalgam-finite z z 1",
            "amalgam-amenable": "(amalgam-amenable z z z", "generation": '(generation z z "j"',
        }
        assert set(forms) == set(_HEADS) == set(REFERENCE_ARITY)
        for head, form in forms.items():
            n, col = REFERENCE_ARITY[head], len(form) + 2
            for extra, shown in [("inf", "'inf'"), ("(z)", "'('"), ('"x"', "'x'")]:
                text = f"{form} {extra})"
                refusal = (f"line 1, col {col}: {head} takes {n} "
                           f"argument{'' if n == 1 else 's'}, got {shown}", 1, col)
                assert parse_outcome(parse_expr, text, graph_dir) == refusal
                assert parse_outcome(reference_parse_expr, text, graph_dir) == refusal


# ---------------------------------------------------------------------------
# depth


def run_expr(tmp_path, text):
    path = tmp_path / "e.expr"
    path.write_text(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--no-timestamp", "expr", str(path)])
    return code, buf.getvalue()


def nest(depth: int, side: str) -> str:
    """(cyclic 4), then depth - 1 amalgams with (cyclic 6) over order 2."""
    text = "(cyclic 4)"
    for _ in range(depth - 1):
        pair = (text, "(cyclic 6)") if side == "left" else ("(cyclic 6)", text)
        text = f"(amalgam-finite {pair[0]} {pair[1]} 2)"
    return text


class TestDepth:
    @pytest.mark.parametrize("depth", [800, 5000])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_nest(self, tmp_path, depth, side):
        assert sys.getrecursionlimit() <= 1000
        code, out = run_expr(tmp_path, nest(depth, side) + "\n")
        assert code == 0
        # cost(A *_C B) = cost(A) + cost(B) - cost(C), and rg = betti1
        cost = Fraction(3, 4) + (depth - 1) * (Fraction(5, 6) - Fraction(1, 2))
        assert out.splitlines()[2] == (
            f"cost={cost} rg={cost - 1} betti1={cost - 1} fixed_price=true")
        assert len(out.encode()) < 200 * (2 * depth - 1)
        assert (f"  - finite-price root.{side}*{depth - 1} (cyclic 4): "
                "cost 1 - 1/4 = 3/4, betti1 0") in out.splitlines()

    def test_deep_subgroup_without_witness(self, tmp_path):
        """The reason names a deep subgroup by its path."""
        sub = nest(3000, "left").replace("(cyclic 6)", "(free 2)")
        code, out = run_expr(tmp_path, f"(amalgam-amenable (free 2) (free 2) {sub})")
        assert code == 0
        reason = "unknown(amalgam subgroup root.amalgam carries no betti1 = 0 witness)"
        assert out.splitlines()[2] == (
            f"cost={reason} rg={reason} betti1={reason} fixed_price=false")
        assert out.splitlines()[-1] == (
            "  - rule-not-applicable root (amalgam-amenable (free 2) (free 2) root.amalgam): "
            "amalgam subgroup root.amalgam carries no betti1 = 0 witness")

    def test_generations_over_one_unwitnessed_subgroup(self, tmp_path):
        """Every generation node above the amalgam copies its reason, which
        names the subgroup by its path, so the report grows linearly."""
        text = f"(amalgam-amenable (free 2) (free 2) {nest(100, 'left')})"
        for _ in range(100):
            text = f'(generation {text} (z) "shared")'
        code, out = run_expr(tmp_path, text)
        assert code == 0
        assert out.splitlines()[2].startswith(
            "cost=unknown(amalgam subgroup root.left*100.amalgam carries no betti1 = 0 witness)")
        assert len(out.encode()) < 40_000


# ---------------------------------------------------------------------------
# golden output


GOLDEN_EXPR = [
    ("(amalgam-finite (cyclic 6) (cyclic 4) 2)", """\
cost=13/12 rg=1/12 betti1=1/12 fixed_price=true
rules:
  - finite-price root.left (cyclic 6): cost 1 - 1/6 = 5/6, betti1 0
  - finite-price root.right (cyclic 4): cost 1 - 1/4 = 3/4, betti1 0
  - amalgam-price root (amalgam-finite (cyclic 6) (cyclic 4) 2): cost 5/6 + 3/4 - 1/2 = 13/12
  - amalgam-betti root (amalgam-finite (cyclic 6) (cyclic 4) 2): 0 - 1/6 + 0 - 1/4 + 1/2 = 1/12
"""),
]


class TestGoldenExpr:
    @pytest.mark.parametrize("text,expected", GOLDEN_EXPR, ids=[t for t, _ in GOLDEN_EXPR])
    def test_stdout(self, tmp_path, text, expected):
        code, out = run_expr(tmp_path, text + "\n")
        assert code == 0
        echo, digest, rest = out.split("\n", 2)
        assert echo == f"# rgcost --no-timestamp expr {tmp_path / 'e.expr'}"
        assert digest.startswith(f"# input {tmp_path / 'e.expr'} sha256=")
        assert rest == expected


# ---------------------------------------------------------------------------
# the invariant


def assert_invariant(tree):
    """betti1 - beta0 <= rg at every node whose values are known, with
    beta0 from the reference's order, never from the evaluator's."""
    for _, node in subtrees(tree):
        r = evaluate(node)
        if is_known(r.cost) and is_known(r.betti1):
            order = reference_infer_order(node)
            beta0 = recip_order(order) if order is not None else 0
            assert r.betti1 - beta0 <= r.rank_gradient, node.describe()


# Z/2 * Z/2 over the trivial group; with the orders once declared as
# inf inf 1 it broke the invariant, inferred they give D-infinity's values.
DIHEDRAL = "(amalgam-amenable (cyclic 2) (cyclic 2) (trivial))"


class TestInvariant:
    @PROPERTY
    @given(trees())
    def test_every_subtree(self, tree):
        assert_invariant(tree)

    def test_root(self, tmp_path):
        code, out = run_expr(tmp_path, DIHEDRAL)
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "cost=1 rg=0 betti1=0 fixed_price=true"
        assert not any(line.startswith("error:") for line in lines)
        assert lines[-1] == (f"  - amalgam-betti root {DIHEDRAL}: "
                             "0 - 1/2 + 0 - 1/2 + 1 = 0")

    def test_first_violation_in_post_order(self, tmp_path):
        """No node of the tree that once failed first at root.left fails now."""
        text = f"(amalgam-finite {DIHEDRAL} (cyclic 2) 1)"
        code, out = run_expr(tmp_path, text)
        assert code == 0
        assert out.splitlines()[2] == "cost=3/2 rg=1/2 betti1=1/2 fixed_price=true"
        assert_invariant(parse_expr(text))

    def test_inside_a_subgroup(self):
        e = AmalgamAmenable(Free(2), Free(2), parse_expr(DIHEDRAL))
        r = evaluate(e)
        assert (r.cost, r.rank_gradient, r.betti1) == (3, 2, 2)
        assert_invariant(e)

    def test_finite_factor_declared_finite_is_consistent(self):
        r = evaluate(AmalgamAmenable(Cyclic(2), Cyclic(2), TrivialGroup()))
        assert r.rank_gradient == r.betti1 == 0

    @pytest.mark.parametrize("text,values", [
        # F3 * F3 is F6, free of rank 6
        ("(amalgam-amenable (free 3) (free 3) (trivial))",
         "cost=6 rg=5 betti1=5 fixed_price=true"),
        # an amalgam of Z with Z over an infinite cyclic subgroup: cost 1 + 1 - 1
        ("(amalgam-amenable (z) (z) (z))", "cost=1 rg=0 betti1=0 fixed_price=true"),
        # Z/2 * Z/2 is the infinite dihedral group
        ("(amalgam-amenable (cyclic 2) (cyclic 2) (trivial))",
         "cost=1 rg=0 betti1=0 fixed_price=true"),
    ], ids=["F6", "Z", "infinite-dihedral"])
    def test_inferred_orders(self, tmp_path, text, values):
        """Each subgroup order and factor order comes from its expression."""
        code, out = run_expr(tmp_path, text)
        assert code == 0
        assert out.splitlines()[2] == values

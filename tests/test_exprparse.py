from fractions import Fraction

import pytest

from rgcost.exprparse import ExprParseError, parse_expr, parse_expr_file
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
    evaluate,
)
from rgcost.lgraph import parse_graph

EDGE = parse_graph("vertex a\nvertex b\nedge a b 3\n")
HEX = parse_graph("".join(f"vertex v{i}\n" for i in range(6))
                  + "".join(f"edge v{i} v{(i + 1) % 6} 2\n" for i in range(6)))

# How describe() prints every construction, as fixed texts, so a change
# to the printer that the node declarations drive shows here.
DESCRIBED = [
    (TrivialGroup(), "(trivial)"),
    (IntegersZ(), "(z)"),
    (Cyclic(5), "(cyclic 5)"),
    (Free(2), "(free 2)"),
    (FreeAbelian(3), "(free-abelian 3)"),
    (Surface(2), "(surface 2)"),
    (Amenable("S3", GroupOrder(6)), '(amenable "S3" 6)'),
    (Amenable("lamplighter", INFINITE), '(amenable "lamplighter" inf)'),
    (ArtinGraph(EDGE), "(artin 2v/1e)"),
    (CoxeterGraph(HEX), "(coxeter 6v/6e)"),
    (AmalgamFinite(Cyclic(6), Cyclic(4), 2), "(amalgam-finite (cyclic 6) (cyclic 4) 2)"),
    (AmalgamAmenable(Free(2), IntegersZ(), IntegersZ(), INFINITE, INFINITE, INFINITE),
     "(amalgam-amenable (free 2) (z) (z) inf inf inf)"),
    (AmalgamAmenable(Cyclic(2), Cyclic(3), TrivialGroup(),
                     GroupOrder(2), GroupOrder(3), GroupOrder(1)),
     "(amalgam-amenable (cyclic 2) (cyclic 3) (trivial) 2 3 1)"),
    (Generation(IntegersZ(), Free(2), "j"), '(generation (z) (free 2) "j")'),
    (Generation(AmalgamFinite(Surface(3), ArtinGraph(EDGE), 1),
                Generation(IntegersZ(), IntegersZ(), "shared Z"), "both contain the same copy of Z"),
     '(generation (amalgam-finite (surface 3) (artin 2v/1e) 1) '
     '(generation (z) (z) "shared Z") "both contain the same copy of Z")'),
]


@pytest.mark.parametrize("node,text", DESCRIBED, ids=[t for _, t in DESCRIBED])
def test_describe(node, text):
    assert node.describe() == text


class TestForms:
    def test_leaves(self):
        assert parse_expr("(trivial)") == TrivialGroup()
        assert parse_expr("z") == IntegersZ()
        assert parse_expr("(z)") == IntegersZ()
        assert parse_expr("(cyclic 6)") == Cyclic(6)
        assert parse_expr("(free 2)") == Free(2)
        assert parse_expr("(free-abelian 3)") == FreeAbelian(3)
        assert parse_expr("(surface 2)") == Surface(2)

    def test_amenable(self):
        e = parse_expr('(amenable "lamplighter" inf)')
        assert e == Amenable("lamplighter", INFINITE)
        assert parse_expr('(amenable "S3" 6)') == Amenable("S3", GroupOrder(6))

    def test_amalgam_finite(self):
        e = parse_expr("(amalgam-finite (cyclic 6) (cyclic 4) 2)")
        assert e == AmalgamFinite(Cyclic(6), Cyclic(4), 2)
        assert evaluate(e).rank_gradient == Fraction(1, 12)

    def test_amalgam_amenable(self):
        e = parse_expr("(amalgam-amenable (free 2) (free 2) (free-abelian 1) inf inf inf)")
        assert isinstance(e, AmalgamAmenable)
        assert e.amalgam == FreeAbelian(1)

    def test_generation(self):
        e = parse_expr('(generation (free 2) (free 3) "declared")')
        assert e == Generation(Free(2), Free(3), "declared")

    def test_nested_with_comments(self):
        text = """
        ; the modular group example
        (amalgam-finite
            (cyclic 6)  ; left factor
            (cyclic 4)
            2)
        """
        assert parse_expr(text) == AmalgamFinite(Cyclic(6), Cyclic(4), 2)

    def test_graph_file_loading(self, tmp_path):
        graph = tmp_path / "g.graph"
        graph.write_text("vertex a\nvertex b\nedge a b 3\n")
        expr_file = tmp_path / "e.expr"
        expr_file.write_text('(artin "g.graph")\n')
        e = parse_expr_file(str(expr_file), expr_file.read_text())
        assert isinstance(e, ArtinGraph)
        assert e.graph.vertices == ("a", "b")


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("", "empty expression"),
        ("(cyclic 1)", "integer 1 < 2"),
        ("(cyclic x)", "expected integer"),
        ("(mystery 3)", "unknown construction"),
        ("(cyclic 3", "unexpected end of input"),
        ("(cyclic 3) extra", "trailing input"),
        ('(amenable "t" 0)', "order 0 < 1"),
        ('(generation (free 1) (free 1) "")', "justification"),
        ('(artin "missing.graph")', "cannot read graph file"),
        ("bogus", "unknown atom"),
    ])
    def test_messages(self, text, fragment):
        with pytest.raises(ExprParseError) as exc:
            parse_expr(text)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("construction,text", [
        (Cyclic, "(cyclic 1)"), (Free, "(free 0)"), (FreeAbelian, "(free-abelian 0)"),
        (Surface, "(surface 1)"), (AmalgamFinite, "(amalgam-finite z z 0)"),
    ])
    def test_least(self, construction, text):
        """The parser and the constructor both reject an integer below the
        construction's `least`."""
        least = construction.least
        with pytest.raises(ExprParseError, match=f"integer {least - 1} < {least}"):
            parse_expr(text)
        args = [IntegersZ()] * len(construction.steps) + [least - 1]
        with pytest.raises(ValueError, match=f"must be >= {least}"):
            construction(*args)

    def test_positions(self):
        with pytest.raises(ExprParseError) as exc:
            parse_expr("(amalgam-finite (cyclic 6)\n  (cyclic 1) 2)")
        assert exc.value.line == 2
        assert "1 < 2" in str(exc.value)

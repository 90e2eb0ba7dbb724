from fractions import Fraction

import pytest

from rgcost.exprparse import ExprParseError, parse_expr, parse_expr_file
from rgcost.groupexpr import (
    INFINITE,
    AmalgamAmenable,
    AmalgamFinite,
    Amenable,
    ArtinGraph,
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

    def test_positions(self):
        with pytest.raises(ExprParseError) as exc:
            parse_expr("(amalgam-finite (cyclic 6)\n  (cyclic 1) 2)")
        assert exc.value.line == 2
        assert "1 < 2" in str(exc.value)

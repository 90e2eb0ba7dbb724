"""The number rule for files: a certificate rational, and a count in an
expression or a graph file, read through the command line."""

import contextlib
import io
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COUNT_TEXT, reference_count
from rgcost.cli import main
from rgcost.numread import LimitExceeded, read_rational

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_rational(text):
    """What `read_rational` gives, by `Fraction()` on short text: the value
    when `str` writes it back as the same text, else ValueError."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return ValueError
    return value if str(value) == text else ValueError


class TestReadRational:
    @PROPERTY
    @given(st.fractions())
    def test_reads_what_str_writes(self, value):
        assert read_rational(str(value), "cost") == value

    @PROPERTY
    @given(st.text(alphabet="0123456789/-+ ._ex٣", max_size=12))
    def test_matches_reference(self, text):
        expected = reference_rational(text)
        try:
            value = read_rational(text, "field 'cost'")
        except ValueError as exc:
            assert expected is ValueError
            assert str(exc).startswith("field 'cost' must be a rational ")
            assert len(str(exc).encode()) <= 200
        else:
            assert value == expected

    @pytest.mark.parametrize("value", [None, 1, 0.5, True, ["1"]])
    def test_refuses_values_that_are_not_text(self, value):
        with pytest.raises(ValueError, match=f"not {type(value).__name__}$"):
            read_rational(value, "cost")

    def test_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert read_rational("-" + "7" * limit, "cost") == -int("7" * limit)
        for text in ("7" * (limit + 1), "1/" + "7" * (limit + 1), "-" + "7" * 5000 + "/2"):
            with pytest.raises(LimitExceeded, match="^cost of [0-9]+ digits is past every limit$"):
                read_rational(text, "cost")


def run(tmp_dir, name, text, argv):
    """`main` on `text` written to `tmp_dir/name`: (exit code, stdout, stderr)."""
    path = tmp_dir / name
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--no-timestamp", *argv, str(path)])
    return code, out.getvalue(), err.getvalue()


def expected_code(tokens, least):
    """The exit code the rule gives when the first token is the count and
    no other token may follow."""
    value = reference_count(tokens[0], least, None) if tokens else ValueError
    if value is LimitExceeded:
        return 5
    return 2 if value is ValueError or len(tokens) > 1 else 0


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("numbers")


class TestFileNumbers:
    """A count in `(cyclic _)`, `(amenable "t" _)` and a graph label: the
    exit code the reference gives, the price of a count read, and a
    refusal of at most 200 bytes that names its line."""

    @PROPERTY
    @given(COUNT_TEXT, st.sampled_from([("(cyclic {})", 2), ('(amenable "t" {})', 1)]))
    def test_expression(self, work_dir, text, form):
        template, least = form
        code, out, err = run(work_dir, "n.expr", template.format(text) + "\n", ["expr"])
        assert code == expected_code(text.split(), least)
        assert err == "" and "Traceback" not in out
        last = out.splitlines()[-1]
        if code == 0:
            value = reference_count(text, least, None)
            assert out.splitlines()[2].startswith(f"cost={1 - Fraction(1, value)} ")
        else:
            prefix = "error" if code == 2 else "inconclusive"
            assert last.startswith(f"{prefix}: line 1, col ")
            assert len(last.encode()) <= 200

    @PROPERTY
    @given(COUNT_TEXT)
    def test_graph_label(self, work_dir, text):
        line = f"edge a b {text}"
        code, out, err = run(work_dir, "n.graph", f"vertex a\nvertex b\n{line}\n", ["artin"])
        parts = line.split()
        assert code == (expected_code(parts[3:], 2) if len(parts) == 4 else 2)
        assert err == "" and "Traceback" not in out
        last = out.splitlines()[-1]
        if code == 0:
            assert last == "components=1 cost=1 rg=0 betti1=0"
        else:
            prefix = "error" if code == 2 else "inconclusive"
            assert last.startswith(f"{prefix}: line 3: ")
            assert len(last.encode()) <= 200

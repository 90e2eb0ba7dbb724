"""Parser for the s-expression group-construction format.

Grammar (";" starts a comment to end of line):

    expr  := "(" head args ")"
    head  := trivial | z | cyclic | free | free-abelian | surface
           | amenable | artin | coxeter | amalgam-finite
           | amalgam-amenable | generation
    order := "inf" | positive integer

    (trivial)                         (z)
    (cyclic N)          N >= 2        (free R)            R >= 1
    (free-abelian R)    R >= 1        (surface G)         G >= 2
    (amenable "tag" ORDER)
    (artin "file.graph")              (coxeter "file.graph")
    (amalgam-finite EXPR EXPR N)      N >= 1
    (amalgam-amenable EXPR EXPR EXPR ORDER ORDER ORDER)
    (generation EXPR EXPR "justification")

Graph file paths are resolved relative to the expression file's directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import groupexpr as ge
from .lgraph import parse_graph


class ExprParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "atom", "string"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
        elif c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ExprParseError("unterminated string", start_line, start_col)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ExprParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
        else:
            start_line, start_col = line, col
            buf = []
            while i < n and text[i] not in ' \t\r\n();"':
                buf.append(text[i])
                i += 1
                col += 1
            tokens.append(_Token("atom", "".join(buf), start_line, start_col))
    return tokens


# The argument slots of each construction: "expr", "string", "order",
# "graph" (a graph file path), or an int, for an integer at least that.
_FORMS = {
    "trivial": ((), ge.TrivialGroup),
    "z": ((), ge.IntegersZ),
    "cyclic": ((2,), ge.Cyclic),
    "free": ((1,), ge.Free),
    "free-abelian": ((1,), ge.FreeAbelian),
    "surface": ((2,), ge.Surface),
    "amenable": (("string", "order"), ge.Amenable),
    "artin": (("graph",), ge.ArtinGraph),
    "coxeter": (("graph",), ge.CoxeterGraph),
    "amalgam-finite": (("expr", "expr", 1), ge.AmalgamFinite),
    "amalgam-amenable": (("expr",) * 3 + ("order",) * 3, ge.AmalgamAmenable),
    "generation": (("expr", "expr", "string"), ge.Generation),
}


class _Parser:
    def __init__(self, tokens: list[_Token], base_dir: str):
        self.tokens = tokens
        self.pos = 0
        self.base_dir = base_dir

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("atom", "", 1, 1)
            raise ExprParseError("unexpected end of input", last.line, last.col)
        if expect is not None and tok.kind != expect:
            raise ExprParseError(f"expected {expect}, got {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def parse(self) -> ge.GroupExpr:
        """Parse one expression with an explicit stack of open forms, each
        [head token, slots, arguments so far], so any depth parses."""
        open_forms: list[list] = []
        while True:
            value = self._start()
            if isinstance(value, _Token):
                open_forms.append([value, _FORMS[value.text][0], []])
                value = None
            # Fill the innermost form's slots up to its next "expr" slot,
            # closing every form that completes on the way.
            while open_forms:
                head, slots, args = open_forms[-1]
                if value is not None:
                    args.append(value)
                value = self._fill(head, slots, args)
                if value is None:
                    break
                self._next(")")
                open_forms.pop()
            if not open_forms:
                break
        trailing = self._peek()
        if trailing is not None:
            raise ExprParseError(
                f"trailing input {trailing.text!r}", trailing.line, trailing.col
            )
        return value

    def _start(self) -> ge.GroupExpr | _Token:
        """Read a bare atom and return its group, or read "(" and a known
        head and return the head token."""
        tok = self._next()
        if tok.kind == "atom":
            if tok.text == "z":
                return ge.IntegersZ()
            if tok.text == "trivial":
                return ge.TrivialGroup()
            raise ExprParseError(f"unknown atom {tok.text!r}", tok.line, tok.col)
        if tok.kind != "(":
            raise ExprParseError(f"expected expression, got {tok.text!r}", tok.line, tok.col)
        head = self._next("atom")
        if head.text not in _FORMS:
            raise ExprParseError(f"unknown construction {head.text!r}", head.line, head.col)
        return head

    def _fill(self, head: _Token, slots: tuple, args: list) -> ge.GroupExpr | None:
        """Read the form's slots up to the next "expr" one (None), or to
        the end, where it builds the group.  A ValueError from a graph
        file or a constructor is reported at the head."""
        try:
            while len(args) < len(slots):
                slot = slots[len(args)]
                if slot == "expr":
                    return None
                args.append(self._slot(slot))
            return _FORMS[head.text][1](*args)
        except ExprParseError:
            raise
        except ValueError as exc:
            raise ExprParseError(str(exc), head.line, head.col) from None

    def _slot(self, slot):
        if slot == "string":
            return self._next("string").text
        if slot == "order":
            return self._order()
        if slot == "graph":
            path_tok = self._next("string")
            path = os.path.join(self.base_dir, path_tok.text)
            try:
                with open(path, encoding="utf-8") as fh:
                    return parse_graph(fh.read())
            except OSError as exc:
                raise ExprParseError(
                    f"cannot read graph file {path_tok.text!r}: {exc}",
                    path_tok.line, path_tok.col,
                ) from None
        return self._int(minimum=slot)

    def _int(self, minimum: int) -> int:
        tok = self._next("atom")
        try:
            value = int(tok.text)
        except ValueError:
            raise ExprParseError(f"expected integer, got {tok.text!r}", tok.line, tok.col) from None
        if value < minimum:
            raise ExprParseError(f"integer {value} < {minimum}", tok.line, tok.col)
        return value

    def _order(self) -> ge.GroupOrder:
        tok = self._next("atom")
        if tok.text == "inf":
            return ge.INFINITE
        try:
            value = int(tok.text)
        except ValueError:
            raise ExprParseError(
                f"expected order (integer or inf), got {tok.text!r}", tok.line, tok.col
            ) from None
        if value < 1:
            raise ExprParseError(f"order {value} < 1", tok.line, tok.col)
        return ge.GroupOrder(value)


def parse_expr(text: str, base_dir: str = ".") -> ge.GroupExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise ExprParseError("empty expression", 1, 1)
    return _Parser(tokens, base_dir).parse()


def parse_expr_file(path: str, text: str) -> ge.GroupExpr:
    """Parse `text`, read from the expression file at `path`; the path
    only resolves the graph files the expression names."""
    return parse_expr(text, base_dir=os.path.dirname(os.path.abspath(path)))

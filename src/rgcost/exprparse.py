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

Each form is declared once, by its node class in `groupexpr`.  Graph file
paths are resolved relative to the expression file's directory.
"""

from __future__ import annotations

import os
import re
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


# One lexeme per match, and every character starts one: a newline, a run
# of blanks, a comment, a parenthesis, a string (its closing quote
# missing if the line or the text ends first) or an atom.
_LEXEME = re.compile(r'\n|[ \t\r]+|;.*|[()]|"[^"\n]*"?|[^ \t\r\n();"]+')


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        lexeme, col = match.group(), match.start() - line_start + 1
        first = lexeme[0]
        if first == "\n":
            line, line_start = line + 1, match.end()
        elif first in "()":
            tokens.append(_Token(first, first, line, col))
        elif first == '"':
            if len(lexeme) == 1 or lexeme[-1] != '"':
                raise ExprParseError("unterminated string", line, col)
            tokens.append(_Token("string", lexeme[1:-1], line, col))
        elif first not in " \t\r;":
            tokens.append(_Token("atom", lexeme, line, col))
    return tokens


# The constructions by head, each declared once by its node class.
_HEADS = {cls.head: cls for cls in ge.GroupExpr.__subclasses__()}


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
        [head token, node class, arguments so far], so any depth parses."""
        open_forms: list[list] = []
        while True:
            value = self._start()
            if isinstance(value, _Token):
                open_forms.append([value, _HEADS[value.text], []])
                value = None
            # Read the innermost form's arguments up to its next subexpression,
            # closing every form that completes on the way.
            while open_forms:
                head, cls, args = open_forms[-1]
                if value is not None:
                    args.append(value)
                value = self._fill(head, cls, args)
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
        """Read a bare atom, the head of a form without arguments, and
        return its group, or read "(" and a known head and return the
        head token."""
        tok = self._next()
        if tok.kind == "atom":
            cls = _HEADS.get(tok.text)
            if cls is not None and not cls.slots:
                return cls()
            raise ExprParseError(f"unknown atom {tok.text!r}", tok.line, tok.col)
        if tok.kind != "(":
            raise ExprParseError(f"expected expression, got {tok.text!r}", tok.line, tok.col)
        head = self._next("atom")
        if head.text not in _HEADS:
            raise ExprParseError(f"unknown construction {head.text!r}", head.line, head.col)
        return head

    def _fill(self, head: _Token, cls: type, args: list) -> ge.GroupExpr | None:
        """Read the form's arguments up to its next subexpression (None),
        or to the end, where it builds the group.  A ValueError from a
        graph file or a constructor is reported at the head."""
        try:
            while len(args) < len(cls.slots):
                kind = cls.slots[len(args)][1]
                if kind == "GroupExpr":
                    return None
                args.append(self._slot(kind, cls.least))
            return cls(*args)
        except ExprParseError:
            raise
        except ValueError as exc:
            raise ExprParseError(str(exc), head.line, head.col) from None

    def _slot(self, kind: str, least: int):
        if kind == "str":
            return self._next("string").text
        if kind == "GroupOrder":
            return self._order()
        if kind == "LabelledGraph":
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
        return self._int(least)

    def _int(self, least: int) -> int:
        tok = self._next("atom")
        try:
            value = int(tok.text)
        except ValueError:
            raise ExprParseError(f"expected integer, got {tok.text!r}", tok.line, tok.col) from None
        if value < least:
            raise ExprParseError(f"integer {value} < {least}", tok.line, tok.col)
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

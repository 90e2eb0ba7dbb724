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
    (amalgam-amenable EXPR EXPR EXPR)
    (generation EXPR EXPR "justification")

Each form is declared once, by its node class in `groupexpr`, and a form
given more arguments than its class declares is refused at the first
extra one.  Each N and ORDER is read by `numread.read_count`.  Graph file
paths are resolved relative to the expression file's directory.  Each
distinct joined path is read and parsed once per expression, so leaves
that name it share one graph (and its memoised girth and planarity), and
each file read is passed to `note_input` (path, bytes) once, in read
order.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple

from . import groupexpr as ge
from .lgraph import LabelledGraph, parse_graph
from .numread import LimitExceeded, quote, read_count


class ExprParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# A token's kind is "(", ")", "atom" or "string".
_Token = namedtuple("_Token", "kind text line col")


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
    def __init__(self, tokens: list[_Token], base_dir: str, note_input):
        self.tokens = tokens
        self.pos = 0
        self.base_dir = base_dir
        self.note_input = note_input
        self.graphs: dict[str, LabelledGraph] = {}  # by joined path

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("atom", "", 1, 1)
            raise ExprParseError("unexpected end of input", last.line, last.col)
        if expect is not None and tok.kind != expect:
            raise ExprParseError(f"expected {expect}, got {quote(tok.text)}", tok.line, tok.col)
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
                extra = self._next()
                if extra.kind != ")":
                    n = len(cls.slots)
                    raise ExprParseError(f"{cls.head} takes {n} argument{'s' * (n != 1)}, "
                                         f"got {quote(extra.text)}", extra.line, extra.col)
                open_forms.pop()
            if not open_forms:
                break
        trailing = self._peek()
        if trailing is not None:
            raise ExprParseError(f"trailing input {quote(trailing.text)}",
                                 trailing.line, trailing.col)
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
            raise ExprParseError(f"unknown atom {quote(tok.text)}", tok.line, tok.col)
        if tok.kind != "(":
            raise ExprParseError(f"expected expression, got {quote(tok.text)}", tok.line, tok.col)
        head = self._next("atom")
        if head.text not in _HEADS:
            raise ExprParseError(f"unknown construction {quote(head.text)}", head.line, head.col)
        return head

    def _fill(self, head: _Token, cls: type, args: list) -> ge.GroupExpr | None:
        """Read the form's arguments up to its next subexpression (None),
        or to the end, where it builds the group.  A ValueError from a
        constructor is reported at the head."""
        while len(args) < len(cls.slots):
            name, kind = cls.slots[len(args)]
            if kind == "GroupExpr":
                return None
            args.append(self._slot(cls, name, kind))
        try:
            return cls(*args)
        except ValueError as exc:
            raise ExprParseError(str(exc), head.line, head.col) from None

    def _slot(self, cls: type, name: str, kind: str):
        """Read the argument `name` of kind `kind`.  A refusal, a graph
        file's included, is reported at its token."""
        tok = self._next("string" if kind in ("str", "LabelledGraph") else "atom")
        if kind == "str":
            return tok.text
        if kind == "GroupOrder" and tok.text == "inf":
            return ge.INFINITE
        where = f"graph file {quote(tok.text)}: " if kind == "LabelledGraph" else ""
        try:
            if where:
                path = os.path.join(self.base_dir, tok.text)
                if path not in self.graphs:
                    with open(path, "rb") as fh:
                        data = fh.read()
                    text = data.decode("utf-8")
                    self.note_input(path, data)
                    self.graphs[path] = parse_graph(text)
                return self.graphs[path]
            value = read_count(tok.text, f"{cls.head} {name}", cls.least if kind == "int" else 1)
        except OSError as exc:
            raise ExprParseError(f"cannot read graph file {quote(tok.text)}: {exc.strerror}",
                                 tok.line, tok.col) from None
        except ValueError as exc:
            raise ExprParseError(where + str(exc), tok.line, tok.col) from None
        except LimitExceeded as exc:
            raise LimitExceeded(f"line {tok.line}, col {tok.col}: {where}{exc}") from None
        return value if kind == "int" else ge.GroupOrder(value)


def parse_expr(text: str, base_dir: str = ".", note_input=lambda path, data: None
               ) -> ge.GroupExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise ExprParseError("empty expression", 1, 1)
    return _Parser(tokens, base_dir, note_input).parse()


def parse_expr_file(path: str, text: str, note_input=lambda path, data: None
                    ) -> ge.GroupExpr:
    """Parse `text`, read from the expression file at `path`; the path
    only resolves the graph files the expression names, each passed to
    `note_input` under its path joined to the file's directory."""
    return parse_expr(text, os.path.dirname(path), note_input)

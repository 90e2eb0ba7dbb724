"""One number rule for every input: counts on the command line and in
expression and graph files, and rationals in certificates."""

from __future__ import annotations

import re
import sys
from fractions import Fraction


class LimitExceeded(RuntimeError):
    """A budget refused the run before it could decide: an input past a
    size cap, refused before anything is built for it, or a coset limit
    reached.  Inconclusive, so the command exits 5."""


def quote(text) -> str:
    """`text` quoted and cut to 20 characters, or the type of a non-string."""
    if not isinstance(text, str):
        return type(text).__name__
    return repr(text if len(text) <= 20 else text[:20] + "...")


def read_count(text: str, what: str, least: int, cap: int | None = None) -> int:
    """The count `text`, named `what` in a refusal: an optional sign and
    ASCII digits, give or take surrounding whitespace, at least `least`
    (else ValueError) and at most `cap` (else LimitExceeded).  Leading zeros
    and the sign are not digits, and digits past what `int()` converts are
    never converted: such a count is above any cap, and with no cap past
    every limit (LimitExceeded)."""
    stripped = text.strip()
    sign = stripped[:1] if stripped[:1] in ("+", "-") else ""
    body = stripped[len(sign):]
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"{what} must be an integer, not {quote(stripped)}")
    digits = body.lstrip("0")
    value = None if 0 < sys.get_int_max_str_digits() < len(digits) else int(digits or "0")
    if sign == "-" and digits or value is not None and value < least:
        raise ValueError(f"{what} must be >= {least}")
    if cap is not None and (value is None or value > cap):
        shown = value if len(digits) <= 20 else f"of {len(digits)} digits"
        raise LimitExceeded(f"{what} {shown} exceeds the cap {cap}")
    if value is None:
        raise LimitExceeded(f"{what} of {len(digits)} digits is past every limit")
    return value


# What `str(Fraction)` writes: no leading zero, "-" only before a nonzero
# numerator, and a denominator of at least 2 only for a non-integer.
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")


def read_rational(text, what: str) -> Fraction:
    """The rational `text`, named `what` in a refusal: exactly what
    `str(Fraction)` writes, so in lowest terms, else ValueError without
    converting it.  Each term is read by `read_count`, so one past the
    `int()` digit limit raises LimitExceeded."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is not None:
        num, den = (read_count(term.lstrip("-"), what, 0) for term in match.groups("1"))
        value = Fraction(-num if text[0] == "-" else num, den)
        if value.denominator == den:
            return value
    raise ValueError(f"{what} must be a rational 'n' or 'n/d' in lowest terms, "
                     f"not {quote(text)}")

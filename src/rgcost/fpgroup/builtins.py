"""Built-in verification targets: one record per target.

Each target is declared once, by the expression whose symbolic value
`verify` checks the chain against; its presentation is derived from that
expression.  `braidN` (2 <= N <= STRAND_CAP) is the Artin group of the
path with all labels 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..groupexpr import AmalgamFinite, ArtinGraph, Cyclic, GroupExpr
from ..lgraph import LabelledGraph
from ..numread import read_count
from .presentation import Presentation, artin_presentation

# name: (expr, psl), as in BuiltinTarget.  In SL2Z, a has order 4, b order
# 6, and a^2 = b^3 is the shared central involution.
_FIXED = {
    "SL2Z": (AmalgamFinite(Cyclic(4), Cyclic(6), 2), False),
    "PSL2Z": (AmalgamFinite(Cyclic(2), Cyclic(3), 1), True),
    "dihedral-inf": (AmalgamFinite(Cyclic(2), Cyclic(2), 1), None),
}

TARGET_HINT = ", ".join([*_FIXED, "braidN"])

# The most strands a `braidN` target may have: its presentation is built
# whole, before any limit of the chain applies.
STRAND_CAP = 1000


@dataclass(frozen=True)
class BuiltinTarget:
    """A verify target.

    presentation: the group, as `presentation_of(expr)`.
    expr:  the expression whose rank gradient the chain is checked against.
    psl:   for the congruence targets, whether `--mod` acts on PSL(2, Z/n)
           (True) or SL(2, Z/n) (False); None where `--mod` does not apply.
    """

    presentation: Presentation
    expr: GroupExpr
    psl: bool | None


def presentation_of(expr: GroupExpr) -> Presentation:
    """The presentation of a builtin target's expression.

    An Artin graph gives `artin_presentation`.  An amalgam of cyclic
    groups of orders n and m over their subgroup of order k gives
    <a, b | a^n, b^m, a^(n/k) b^(-m/k)>, the last relator only when k > 1.
    """
    if isinstance(expr, ArtinGraph):
        return artin_presentation(expr.graph)
    n, m, k = expr.left.n, expr.right.n, expr.amalgam_order
    relators = [[1] * n, [2] * m]
    if k > 1:
        relators.append([1] * (n // k) + [-2] * (m // k))
    return Presentation(("a", "b"), relators)


def braid_graph(n: int) -> LabelledGraph:
    """The path s1 - s2 - ... - s(n-1) with all edges labelled 3.

    Its Artin group is the braid group on n strands for n <= 3.  For
    n >= 4 it is not: an absent edge means no relation here, so the
    far-commutation relations s_i s_j = s_j s_i (|i - j| >= 2) are
    missing.  For example, the index-2 kernel of braid5 has
    H1 = Z + (Z/3)^3.  Needs n >= 2, which `builtin_target` reads.
    """
    vertices = [f"s{i}" for i in range(1, n)]
    edges = [(vertices[i], vertices[i + 1], 3) for i in range(len(vertices) - 1)]
    return LabelledGraph(vertices, edges)


def builtin_target(name: str) -> BuiltinTarget | None:
    """The built-in target called `name`, or None if there is none."""
    strands = name[5:]
    if name in _FIXED:
        expr, psl = _FIXED[name]
    elif name[:5] == "braid" and strands.isascii() and strands.isdigit():
        n = read_count(strands, "braidN strand count", 2, STRAND_CAP)
        expr, psl = ArtinGraph(braid_graph(n)), None
    else:
        return None
    return BuiltinTarget(presentation_of(expr), expr, psl)

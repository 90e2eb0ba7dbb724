"""Built-in verification targets: one record per target.

The fixed presentations ship as presentation-file text so the oracle's
inputs are inspectable and dumpable; `braidN` (N >= 2) is generated from
the path defining graph with all labels 3.  Each record also carries the
expression whose symbolic value `verify` checks the chain against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..groupexpr import AmalgamFinite, ArtinGraph, Cyclic, GroupExpr
from ..lgraph import LabelledGraph
from .presentation import Presentation, artin_presentation, parse_presentation

# a has order 4, b order 6, and a^2 = b^3 (the shared central involution).
SL2Z_TEXT = """\
gens: a b
rel: a a a a
rel: b b b b b b
rel: a a B B B
"""

PSL2Z_TEXT = """\
gens: a b
rel: a a
rel: b b b
"""

DIHEDRAL_INF_TEXT = """\
gens: a b
rel: a a
rel: b b
"""

# name: (text, expr, psl), as in BuiltinTarget
_FIXED = {
    "SL2Z": (SL2Z_TEXT, AmalgamFinite(Cyclic(6), Cyclic(4), 2), False),
    "PSL2Z": (PSL2Z_TEXT, AmalgamFinite(Cyclic(2), Cyclic(3), 1), True),
    "dihedral-inf": (DIHEDRAL_INF_TEXT, AmalgamFinite(Cyclic(2), Cyclic(2), 1), None),
}

TARGET_HINT = ", ".join([*_FIXED, "braidN"])

_BRAID_RE = re.compile(r"^braid([0-9]+)$")


@dataclass(frozen=True)
class BuiltinTarget:
    """A verify target.

    presentation, text: the group and its presentation-file text.
    expr:  the expression whose rank gradient the chain is checked against.
    psl:   for the congruence targets, whether `--mod` acts on PSL(2, Z/n)
           (True) or SL(2, Z/n) (False); None where `--mod` does not apply.
    """

    presentation: Presentation
    text: str
    expr: GroupExpr
    psl: bool | None


def braid_graph(n: int) -> LabelledGraph:
    """The path s1 - s2 - ... - s(n-1) with all edges labelled 3.

    Its Artin group is the braid group on n strands for n <= 3.  For
    n >= 4 it is not: an absent edge means no relation here, so the
    far-commutation relations s_i s_j = s_j s_i (|i - j| >= 2) are
    missing.  For example, the index-2 kernel of braid5 has
    H1 = Z + (Z/3)^3.
    """
    if n < 2:
        raise ValueError("braid groups need at least 2 strands")
    vertices = [f"s{i}" for i in range(1, n)]
    edges = [(vertices[i], vertices[i + 1], 3) for i in range(len(vertices) - 1)]
    return LabelledGraph(vertices, edges)


def builtin_target(name: str) -> BuiltinTarget | None:
    """The built-in target called `name`, or None if there is none."""
    if name in _FIXED:
        text, expr, psl = _FIXED[name]
        return BuiltinTarget(parse_presentation(text), text, expr, psl)
    m = _BRAID_RE.match(name)
    if m is None:
        return None
    graph = braid_graph(int(m.group(1)))
    pres = artin_presentation(graph)
    return BuiltinTarget(pres, pres.to_text(), ArtinGraph(graph), None)

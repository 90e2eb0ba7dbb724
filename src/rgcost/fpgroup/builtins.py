"""Built-in presentations for the verification targets.

Shipped as presentation-file text so the oracle's inputs are inspectable
and dumpable; `braidN` (N >= 2) is generated from the path defining graph
with all labels 3.
"""

from __future__ import annotations

import re

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

_FIXED = {
    "SL2Z": SL2Z_TEXT,
    "PSL2Z": PSL2Z_TEXT,
    "dihedral-inf": DIHEDRAL_INF_TEXT,
}

BUILTIN_NAMES = ("SL2Z", "PSL2Z", "dihedral-inf", "braidN (N >= 2, e.g. braid3)")

_BRAID_RE = re.compile(r"^braid([0-9]+)$")


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


def braid_presentation(n: int) -> Presentation:
    """The Artin group of `braid_graph(n)`."""
    return artin_presentation(braid_graph(n))


def builtin_presentation(name: str) -> tuple[Presentation, str]:
    """Resolve a built-in target name to (presentation, file text)."""
    if name in _FIXED:
        text = _FIXED[name]
        return parse_presentation(text), text
    m = _BRAID_RE.match(name)
    if m:
        n = int(m.group(1))
        pres = braid_presentation(n)
        return pres, pres.to_text()
    raise KeyError(f"unknown builtin presentation {name!r}")

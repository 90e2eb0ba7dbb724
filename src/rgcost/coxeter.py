"""Coxeter groups of planar girth->=6 graphs.

For a planar defining graph without cycles shorter than 6 the rank
gradient and first L2-Betti number of the Coxeter group agree and equal

    |V|/2 - 1 - sum over edges of 1/(2*label).

The module computes that closed form and, independently, replays the
vertex-elimination recursion behind it (every such graph has a vertex of
valence <= 2; splitting off its star is an amalgam over a trivial, order-2
or infinite dihedral subgroup) as a step-by-step trace whose total must
reproduce the closed form exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import groupexpr as ge
from .groupexpr import HypothesisError
from .lgraph import GraphError, LabelledGraph, girth, is_planar, reduction_order

AMALGAM_TRIVIAL = "trivial"
AMALGAM_ORDER2 = "cyclic-2"
AMALGAM_DINF = "infinite-dihedral"


@dataclass(frozen=True)
class EliminationStep:
    """One vertex elimination: the star subgroup split off, the subgroup
    amalgamated over, and the step's betti1 contribution."""

    vertex: str
    valence: int
    labels: tuple[int, ...]
    amalgam: str
    star: tuple[str, ...]
    contribution: Fraction


@dataclass(frozen=True)
class CoxeterTrace:
    steps: tuple[EliminationStep, ...]
    terminal_correction: Fraction

    def total(self) -> Fraction:
        """The contributions' sum minus the terminal correction, summed as
        integer numerators over the least common denominator."""
        den = math.lcm(*(s.contribution.denominator for s in self.steps))
        num = sum(s.contribution.numerator * (den // s.contribution.denominator)
                  for s in self.steps)
        return Fraction(num, den) - self.terminal_correction


def coxeter_order(g: LabelledGraph) -> ge.GroupOrder:
    """Order of the Coxeter group of a triangle-free graph.

    Finite exactly for a single vertex (order 2) or a single labelled edge
    (dihedral, order 2*label); any other triangle-free graph contains a
    non-adjacent generator pair spanning an infinite dihedral subgroup.
    Graphs with triangles are rejected: their classification needs the full
    finite-type machinery, which is out of scope.
    """
    if girth(g) == 3:
        raise GraphError("coxeter_order does not support graphs with triangles")
    n = _finite_order(g)
    return ge.INFINITE if n is None else ge.GroupOrder(n)


def _finite_order(g: LabelledGraph) -> int | None:
    """The order of a triangle-free graph's Coxeter group when it is finite."""
    if g.num_vertices == 1:
        return 2
    if g.num_vertices == 2 and g.num_edges == 1:
        return 2 * g.edges()[0][2]
    return None


def _denominator(g: LabelledGraph) -> int:
    """A common denominator of 1/2 and every 1/(2*label) term."""
    return math.lcm(2, *{2 * lab for _, _, lab in g.edges()})


def closed_form(g: LabelledGraph) -> Fraction:
    den = _denominator(g)
    num = (g.num_vertices - 2) * (den // 2) - sum(den // (2 * lab) for _, _, lab in g.edges())
    return Fraction(num, den)


def build_trace(g: LabelledGraph, order) -> CoxeterTrace:
    """Replay a 2-degeneracy elimination order into a trace.

    Validates the degree condition at every step and, at valence-2 steps,
    that the two neighbours are non-adjacent (so the subgroup amalgamated
    over really is infinite dihedral); both are guaranteed when the graph
    has girth >= 6.
    """
    if sorted(order) != sorted(g.vertices):
        raise GraphError("elimination order must be a permutation of the vertices")
    remaining = set(g.vertices)
    den = _denominator(g)
    steps = []
    for v in order:
        nbrs = [w for w in g.neighbors(v) if w in remaining]
        valence = len(nbrs)
        if valence > 2:
            raise GraphError(f"vertex {v!r} has valence {valence} > 2 at its elimination step")
        labels = tuple(g.label(v, w) for w in nbrs)
        if valence == 0:
            amalgam = AMALGAM_TRIVIAL
        elif valence == 1:
            amalgam = AMALGAM_ORDER2
        else:
            if g.has_edge(nbrs[0], nbrs[1]):
                raise GraphError(
                    f"neighbours {nbrs[0]!r}, {nbrs[1]!r} of {v!r} are adjacent; "
                    f"the elimination split needs an infinite dihedral intersection"
                )
            amalgam = AMALGAM_DINF
        contribution = Fraction(den // 2 - sum(den // (2 * lab) for lab in labels), den)
        steps.append(EliminationStep(
            vertex=v,
            valence=valence,
            labels=labels,
            amalgam=amalgam,
            star=tuple([v] + nbrs),
            contribution=contribution,
        ))
        remaining.discard(v)
    return CoxeterTrace(steps=tuple(steps), terminal_correction=Fraction(1))


def rg_coxeter_planar(g: LabelledGraph) -> tuple[ge.PriceResult, CoxeterTrace]:
    """Rank gradient / betti1 of the Coxeter group of a planar graph with
    girth >= 6 (infinity allowed), with the elimination-trace cross-check.
    The hypotheses make `reduction_order` complete; `build_trace` refuses
    an order that is not."""
    gv = girth(g)
    planar = is_planar(g)
    if gv < 6 or not planar:
        raise HypothesisError(gv, planar)
    trace = build_trace(g, reduction_order(g))
    value = closed_form(g)
    total = trace.total()
    if total != value:
        raise RuntimeError(f"internal error: trace total {total} != closed form {value}")
    # The closed form is betti1 - 1/|W|; a finite W (one vertex, or one
    # edge) has betti1 0 and rank gradient -1/|W|.
    betti1 = value if _finite_order(g) is None else Fraction(0)
    return ge.PriceResult(cost=value + 1, betti1=betti1), trace


def trace_to_json(trace: CoxeterTrace) -> str:
    """Serialize a trace in the shared certificate envelope (rationals as
    num/den strings, kind-tagged step nodes)."""
    doc = {
        "format": "rgcost-certificate/1",
        "kind": "coxeter-trace",
        "terminal_correction": str(trace.terminal_correction),
        "total": str(trace.total()),
        "steps": [
            {
                "kind": "elimination-step",
                "vertex": s.vertex,
                "valence": s.valence,
                "labels": list(s.labels),
                "amalgam": s.amalgam,
                "star": list(s.star),
                "contribution": str(s.contribution),
            }
            for s in trace.steps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"

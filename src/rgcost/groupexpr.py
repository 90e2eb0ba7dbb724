"""Group construction expressions and their exact price evaluator.

Expressions are trees of group constructions: base leaves (finite cyclic,
free, surface, free abelian, declared-amenable), Artin/Coxeter graph
leaves, amalgams over finite or amenable subgroups, and generation by two
subgroups with infinite intersection.  The evaluator computes cost, rank
gradient and the first L2-Betti number as exact rationals wherever a rule
of the calculus applies, and returns a first-class Unknown (with a reason)
everywhere else.  It never guesses.

All arithmetic is `fractions.Fraction`; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lgraph import GraphError, LabelledGraph, components


@dataclass(frozen=True)
class GroupOrder:
    """Order of a group: Finite(n >= 1) or Infinite (value None)."""

    value: int | None

    def __post_init__(self):
        if self.value is not None and self.value < 1:
            raise ValueError("finite group order must be >= 1")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __str__(self):
        return "inf" if self.value is None else str(self.value)


INFINITE = GroupOrder(None)


def recip_order(o: GroupOrder) -> Fraction:
    """1/n for a finite order n, and 0 for infinite groups."""
    if o.value is None:
        return Fraction(0)
    return Fraction(1, o.value)


@dataclass(frozen=True)
class Unknown:
    """A value the calculus cannot determine, with the reason no rule fired."""

    reason: str

    def __str__(self):
        return f"unknown({self.reason})"


def is_known(x) -> bool:
    return isinstance(x, Fraction)


class GroupExpr:
    """Base class for expression nodes."""

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class TrivialGroup(GroupExpr):
    def describe(self):
        return "(trivial)"


@dataclass(frozen=True)
class Cyclic(GroupExpr):
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("cyclic order must be >= 2")

    def describe(self):
        return f"(cyclic {self.n})"


@dataclass(frozen=True)
class IntegersZ(GroupExpr):
    def describe(self):
        return "(z)"


@dataclass(frozen=True)
class Free(GroupExpr):
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free rank must be >= 1")

    def describe(self):
        return f"(free {self.rank})"


@dataclass(frozen=True)
class Surface(GroupExpr):
    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("surface genus must be >= 2")

    def describe(self):
        return f"(surface {self.genus})"


@dataclass(frozen=True)
class FreeAbelian(GroupExpr):
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free-abelian rank must be >= 1")

    def describe(self):
        return f"(free-abelian {self.rank})"


@dataclass(frozen=True)
class Amenable(GroupExpr):
    """Declared-amenable leaf; the tag and order are trusted inputs."""

    tag: str
    order: GroupOrder

    def describe(self):
        return f'(amenable "{self.tag}" {self.order})'


@dataclass(frozen=True)
class ArtinGraph(GroupExpr):
    graph: LabelledGraph

    def describe(self):
        return f"(artin {self.graph.num_vertices}v/{self.graph.num_edges}e)"


@dataclass(frozen=True)
class CoxeterGraph(GroupExpr):
    graph: LabelledGraph

    def describe(self):
        return f"(coxeter {self.graph.num_vertices}v/{self.graph.num_edges}e)"


@dataclass(frozen=True)
class AmalgamFinite(GroupExpr):
    """Amalgam of two groups over a finite subgroup of declared order.

    The declared order is taken as input; no divisibility or embedding
    checks are performed.
    """

    left: GroupExpr
    right: GroupExpr
    amalgam_order: int

    def __post_init__(self):
        if self.amalgam_order < 1:
            raise ValueError("amalgam order must be >= 1")

    def describe(self):
        return f"(amalgam-finite {self.left.describe()} {self.right.describe()} {self.amalgam_order})"


@dataclass(frozen=True)
class AmalgamAmenable(GroupExpr):
    """Amalgam over an amenable (or otherwise betti1 = 0) subgroup.

    The three orders are declared, trusted inputs; they are echoed into
    the rule trace of any evaluation that uses them.
    """

    left: GroupExpr
    right: GroupExpr
    amalgam: GroupExpr
    left_order: GroupOrder
    right_order: GroupOrder
    amalgam_order: GroupOrder

    def describe(self):
        return (
            f"(amalgam-amenable {self.left.describe()} {self.right.describe()} "
            f"{self.amalgam.describe()} {self.left_order} {self.right_order} {self.amalgam_order})"
        )


@dataclass(frozen=True)
class Generation(GroupExpr):
    """Group generated by two subgroups whose intersection is infinite.

    The infinite-intersection hypothesis is not machine-checked here; the
    justification text is recorded in the provenance trace.
    """

    left: GroupExpr
    right: GroupExpr
    justification: str

    def __post_init__(self):
        if not self.justification.strip():
            raise ValueError("generation node requires an infinite-intersection justification")

    def describe(self):
        return f'(generation {self.left.describe()} {self.right.describe()} "{self.justification}")'


@dataclass
class PriceResult:
    """Cost / rank gradient / first L2-Betti value with rule provenance.

    Invariants (checked): whenever both are known, rank_gradient equals
    cost - 1; and for infinite groups rank_gradient >= betti1.  A negative
    gradient happens exactly for finite groups (-1/|G|), whose betti1 is 0;
    the betti upper-bound inequality presumes an infinite chain, so it is
    not enforced there.
    """

    cost: Fraction | Unknown
    rank_gradient: Fraction | Unknown
    betti1: Fraction | Unknown
    fixed_price: bool
    rule_trace: list[str] = field(default_factory=list)

    def __post_init__(self):
        if is_known(self.cost) and is_known(self.rank_gradient):
            if self.rank_gradient != self.cost - 1:
                raise ValueError(
                    f"rank gradient {self.rank_gradient} != cost - 1 = {self.cost - 1}"
                )
        if is_known(self.rank_gradient) and is_known(self.betti1):
            if self.rank_gradient >= 0 and self.rank_gradient < self.betti1:
                raise ValueError(
                    f"rank gradient {self.rank_gradient} < betti1 {self.betti1}"
                )


AMENABLE_LEAF_KINDS = (TrivialGroup, Cyclic, IntegersZ, FreeAbelian, Amenable)


def infer_order(e: GroupExpr) -> GroupOrder | None:
    """Best-effort group order of an expression; None when undetermined.

    Amalgams and generations are treated as infinite: an amalgam is proper
    unless the declared subgroup order reaches a factor's order (flagged as
    degenerate and left undetermined), and a generation node contains its
    infinite intersection.
    """
    if isinstance(e, TrivialGroup):
        return GroupOrder(1)
    if isinstance(e, Cyclic):
        return GroupOrder(e.n)
    if isinstance(e, (IntegersZ, Free, FreeAbelian, Surface, ArtinGraph)):
        return INFINITE
    if isinstance(e, Amenable):
        return e.order
    if isinstance(e, CoxeterGraph):
        from .coxeter import coxeter_order

        try:
            return coxeter_order(e.graph)
        except GraphError:
            return None
    if isinstance(e, AmalgamFinite):
        lo, ro = infer_order(e.left), infer_order(e.right)
        if _degenerate_amalgam(lo, ro, GroupOrder(e.amalgam_order)):
            return None
        return INFINITE
    if isinstance(e, AmalgamAmenable):
        if _degenerate_amalgam(e.left_order, e.right_order, e.amalgam_order):
            return None
        return INFINITE
    if isinstance(e, Generation):
        return INFINITE
    return None


def _degenerate_amalgam(left: GroupOrder | None, right: GroupOrder | None,
                        amalgam: GroupOrder) -> bool:
    """True when the declared subgroup order reaches a factor's order, so
    the amalgam does not properly split and the amalgam formulas may fail."""
    if not amalgam.is_finite:
        return False
    for side in (left, right):
        if side is not None and side.is_finite and amalgam.value >= side.value:
            return True
    return False


def _unknown_from(*values, fallback: str) -> Unknown:
    for v in values:
        if isinstance(v, Unknown):
            return v
    return Unknown(fallback)


def evaluate(e: GroupExpr) -> PriceResult:
    """Evaluate cost, rank gradient and betti1 for an expression.

    Each applied rule appends a trace entry naming the rule and subterm.
    fixed_price is True exactly when a cost rule fired; every rule of the
    calculus yields fixed price.
    """
    trace: list[str] = []
    cost, betti = _eval(e, trace)
    rg: Fraction | Unknown
    if is_known(cost):
        rg = cost - 1
    else:
        rg = Unknown(cost.reason)
    return PriceResult(
        cost=cost,
        rank_gradient=rg,
        betti1=betti,
        fixed_price=is_known(cost),
        rule_trace=trace,
    )


def _eval(e: GroupExpr, trace: list[str]) -> tuple[Fraction | Unknown, Fraction | Unknown]:
    """Recursive evaluation returning (cost, betti1)."""
    d = e.describe()

    if isinstance(e, TrivialGroup):
        trace.append(f"finite-price {d}: cost 0, betti1 0")
        return Fraction(0), Fraction(0)

    if isinstance(e, Cyclic):
        c = 1 - Fraction(1, e.n)
        trace.append(f"finite-price {d}: cost 1 - 1/{e.n} = {c}, betti1 0")
        return c, Fraction(0)

    if isinstance(e, Amenable):
        if e.order.is_finite:
            c = 1 - Fraction(1, e.order.value)
            trace.append(f"finite-price {d}: cost {c}, betti1 0")
            return c, Fraction(0)
        trace.append(f"amenable-price {d}: cost 1, betti1 0")
        return Fraction(1), Fraction(0)

    if isinstance(e, (IntegersZ, FreeAbelian)):
        trace.append(f"amenable-price {d}: cost 1, betti1 0")
        return Fraction(1), Fraction(0)

    if isinstance(e, Free):
        c = Fraction(e.rank)
        trace.append(f"free-price {d}: cost {c}, betti1 {c - 1}")
        return c, c - 1

    if isinstance(e, Surface):
        c = Fraction(2 * e.genus - 1)
        trace.append(f"surface-price {d}: cost {c}, betti1 {c - 1}")
        return c, c - 1

    if isinstance(e, ArtinGraph):
        b = len(components(e.graph))
        trace.append(
            f"artin-components-price {d}: {b} component(s), cost {b}, betti1 {b - 1}"
        )
        return Fraction(b), Fraction(b - 1)

    if isinstance(e, CoxeterGraph):
        return _eval_coxeter_leaf(e, trace)

    if isinstance(e, AmalgamFinite):
        lc, lb = _eval(e.left, trace)
        rc, rb = _eval(e.right, trace)
        m = e.amalgam_order
        c_sub = 1 - Fraction(1, m)
        if is_known(lc) and is_known(rc):
            cost = lc + rc - c_sub
            rg_direct = (lc - 1) + (rc - 1) + Fraction(1, m)
            assert rg_direct == cost - 1, "amalgam gradient routes disagree"
            trace.append(
                f"amalgam-price {d}: cost {lc} + {rc} - {c_sub} = {cost}; "
                f"gradient sum route {lc - 1} + {rc - 1} + 1/{m} = {rg_direct} agrees"
            )
        else:
            cost = _unknown_from(lc, rc, fallback="factor cost unknown")
        betti = _amalgam_betti(
            e, lb, rb, infer_order(e.left), infer_order(e.right),
            GroupOrder(m), Fraction(0), trace,
        )
        return cost, betti

    if isinstance(e, AmalgamAmenable):
        lc, lb = _eval(e.left, trace)
        rc, rb = _eval(e.right, trace)
        sub_betti = _betti_zero_witness(e.amalgam)
        if sub_betti is None:
            reason = f"amalgam subgroup {e.amalgam.describe()} carries no betti1 = 0 witness"
            trace.append(f"rule-not-applicable {d}: {reason}")
            return Unknown(reason), Unknown(reason)
        c_sub = 1 - recip_order(e.amalgam_order)
        if is_known(lc) and is_known(rc):
            cost = lc + rc - c_sub
            trace.append(
                f"amalgam-price {d}: cost {lc} + {rc} - {c_sub} = {cost} "
                f"(declared orders {e.left_order}, {e.right_order}, {e.amalgam_order})"
            )
        else:
            cost = _unknown_from(lc, rc, fallback="factor cost unknown")
        betti = _amalgam_betti(
            e, lb, rb, e.left_order, e.right_order, e.amalgam_order, sub_betti, trace,
        )
        return cost, betti

    if isinstance(e, Generation):
        lc, lb = _eval(e.left, trace)
        rc, rb = _eval(e.right, trace)
        if is_known(lc) and is_known(rc) and lc == 1 and rc == 1:
            trace.append(
                f"generation-price {d}: both factors have price 1; "
                f"intersection justification: {e.justification}"
            )
            # Gradient sandwich: the sum bound gives rg <= 0 while
            # betti1 >= 0 bounds it below, so rg = betti1 = 0.
            trace.append(
                f"generation-sandwich {d}: gradient upper bound 0 meets betti1 lower bound 0"
            )
            return Fraction(1), Fraction(0)
        if is_known(lc) and is_known(rc):
            reason = f"generation rule needs both factors of price 1 (got {lc} and {rc})"
        else:
            reason = _unknown_from(lc, rc, fallback="factor cost unknown").reason
        trace.append(f"rule-not-applicable {d}: {reason}")
        return Unknown(reason), Unknown(reason)

    raise TypeError(f"unsupported expression node {type(e).__name__}")


def _eval_coxeter_leaf(e: CoxeterGraph, trace: list[str]):
    from .coxeter import HypothesisError, rg_coxeter_planar

    try:
        price, _ = rg_coxeter_planar(e.graph)
    except HypothesisError as exc:
        reason = f"coxeter graph outside supported class: {exc}"
        trace.append(f"rule-not-applicable {e.describe()}: {reason}")
        return Unknown(reason), Unknown(reason)
    trace.append(
        f"coxeter-planar-girth6 {e.describe()}: cost {price.cost}, betti1 {price.betti1}"
    )
    return price.cost, price.betti1


def _betti_zero_witness(sub: GroupExpr) -> Fraction | None:
    """Betti1 of an amalgamated subgroup when it demonstrably vanishes.

    Accepts amenable-kind leaves, finite leaves, or any subexpression whose
    evaluated betti1 is exactly 0.  Returns None when no witness exists.
    """
    if isinstance(sub, AMENABLE_LEAF_KINDS):
        return Fraction(0)
    side_trace: list[str] = []
    _, b = _eval(sub, side_trace)
    if is_known(b) and b == 0:
        return Fraction(0)
    return None


def _amalgam_betti(e, lb, rb, left_order, right_order, amalgam_order, sub_betti, trace):
    """First L2-Betti number of an amalgam over a betti1 = 0 subgroup:
    betti1(left) - 1/|left| + betti1(right) - 1/|right| + 1/|subgroup|."""
    d = e.describe()
    if _degenerate_amalgam(left_order, right_order, amalgam_order):
        reason = (
            "degenerate amalgam: declared subgroup order reaches a factor order, "
            "so the splitting formula does not apply"
        )
        trace.append(f"rule-not-applicable {d}: {reason}")
        return Unknown(reason)
    if not (is_known(lb) and is_known(rb)):
        return _unknown_from(lb, rb, fallback="factor betti1 unknown")
    if left_order is None or right_order is None:
        reason = "factor order undetermined"
        trace.append(f"rule-not-applicable {d}: {reason}")
        return Unknown(reason)
    value = lb - recip_order(left_order) + rb - recip_order(right_order) + recip_order(amalgam_order)
    trace.append(
        f"amalgam-betti {d}: {lb} - {recip_order(left_order)} + {rb} - "
        f"{recip_order(right_order)} + {recip_order(amalgam_order)} = {value}"
    )
    return value

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
    """Base class for expression nodes.

    Each node class is the one declaration of its construction: `head`
    names it in expression syntax, and its dataclass fields are its
    arguments in order, each field's annotation giving the argument's
    kind:

        GroupExpr      a subexpression
        int            an integer, at least the class's `least`
        GroupOrder     an order, `inf` or a positive integer
        str            a quoted string
        LabelledGraph  a graph file path, printed as the graph's sizes

    The parser reads its forms from these declarations, `form` and
    `describe` print every node from them, and `__post_init__` enforces
    `least`.  `slots` (field name, kind) and `steps` (the subexpression
    fields) are derived once per class.
    """

    head: str
    least = 1
    slots: tuple[tuple[str, str], ...] = ()
    steps: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.slots = tuple(cls.__annotations__.items())
        cls.steps = tuple(name for name, kind in cls.slots if kind == "GroupExpr")

    def __post_init__(self):
        for name, kind in self.slots:
            if kind == "int" and getattr(self, name) < self.least:
                raise ValueError(f"{self.head} {name} must be >= {self.least}")

    def form(self) -> list:
        """The node's text pieces, each child node in place."""
        out = ["(" + self.head]
        for name, kind in self.slots:
            value = getattr(self, name)
            if kind == "GroupExpr":
                out += (" ", value)
            elif kind == "str":
                out.append(f' "{value}"')
            elif kind == "LabelledGraph":
                out.append(f" {value.num_vertices}v/{value.num_edges}e")
            else:
                out.append(f" {value}")
        out.append(")")
        return out

    def describe(self) -> str:
        """The node in expression syntax, graph leaves by their sizes.

        Printed from an explicit stack, so a tree of any depth prints.
        """
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            else:
                stack.extend(reversed(item.form()))
        return "".join(out)


@dataclass(frozen=True)
class TrivialGroup(GroupExpr):
    head = "trivial"


@dataclass(frozen=True)
class Cyclic(GroupExpr):
    head = "cyclic"
    least = 2
    n: int


@dataclass(frozen=True)
class IntegersZ(GroupExpr):
    head = "z"


@dataclass(frozen=True)
class Free(GroupExpr):
    head = "free"
    rank: int


@dataclass(frozen=True)
class Surface(GroupExpr):
    head = "surface"
    least = 2
    genus: int


@dataclass(frozen=True)
class FreeAbelian(GroupExpr):
    head = "free-abelian"
    rank: int


@dataclass(frozen=True)
class Amenable(GroupExpr):
    """Declared-amenable leaf; the tag and order are trusted inputs."""

    head = "amenable"
    tag: str
    order: GroupOrder


@dataclass(frozen=True)
class ArtinGraph(GroupExpr):
    head = "artin"
    graph: LabelledGraph


@dataclass(frozen=True)
class CoxeterGraph(GroupExpr):
    head = "coxeter"
    graph: LabelledGraph


@dataclass(frozen=True)
class AmalgamFinite(GroupExpr):
    """Amalgam of two groups over a finite subgroup of declared order.

    The declared order is taken as input; no divisibility or embedding
    checks are performed.
    """

    head = "amalgam-finite"
    left: GroupExpr
    right: GroupExpr
    amalgam_order: int


@dataclass(frozen=True)
class AmalgamAmenable(GroupExpr):
    """Amalgam over an amenable (or otherwise betti1 = 0) subgroup.

    The three orders are declared, trusted inputs; they are echoed into
    the rule trace of any evaluation that uses them.
    """

    head = "amalgam-amenable"
    left: GroupExpr
    right: GroupExpr
    amalgam: GroupExpr
    left_order: GroupOrder
    right_order: GroupOrder
    amalgam_order: GroupOrder


@dataclass(frozen=True)
class Generation(GroupExpr):
    """Group generated by two subgroups whose intersection is infinite.

    The infinite-intersection hypothesis is not machine-checked here; the
    justification text is recorded in the provenance trace.
    """

    head = "generation"
    left: GroupExpr
    right: GroupExpr
    justification: str

    def __post_init__(self):
        if not self.justification.strip():
            raise ValueError("generation node requires an infinite-intersection justification")


@dataclass
class PriceResult:
    """Cost / first L2-Betti value with rule provenance.

    The rank gradient (cost - 1) and fixed price (a known cost) are derived
    from the cost.  Invariant (checked): for infinite groups rank_gradient
    >= betti1.  A negative gradient happens exactly for finite groups
    (-1/|G|), whose betti1 is 0; the betti upper-bound inequality presumes
    an infinite chain, so it is not enforced there.
    """

    cost: Fraction | Unknown
    betti1: Fraction | Unknown
    rule_trace: list[str] = field(default_factory=list)

    def __post_init__(self):
        rg = self.rank_gradient
        if is_known(rg) and is_known(self.betti1) and 0 <= rg < self.betti1:
            raise ValueError(f"rank gradient {rg} < betti1 {self.betti1}")

    @property
    def rank_gradient(self) -> Fraction | Unknown:
        return self.cost - 1 if is_known(self.cost) else self.cost

    @property
    def fixed_price(self) -> bool:
        return is_known(self.cost)


AMENABLE_LEAF_KINDS = (TrivialGroup, Cyclic, IntegersZ, FreeAbelian, Amenable)


class InvariantError(ValueError):
    """Computed values break an inequality the theory guarantees: a node's
    betti1 - beta0 exceeds its rank gradient, or a `verify` row falls
    below the symbolic rank gradient."""


def _order(e: GroupExpr, left: GroupOrder | None = None,
           right: GroupOrder | None = None) -> GroupOrder | None:
    """Order of one node; `left` and `right` are its factors' orders,
    read only by an amalgam over a finite subgroup."""
    if isinstance(e, TrivialGroup):
        return GroupOrder(1)
    if isinstance(e, Cyclic):
        return GroupOrder(e.n)
    if isinstance(e, (IntegersZ, Free, FreeAbelian, Surface, ArtinGraph, Generation)):
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
        left_order, right_order, sub_order = left, right, GroupOrder(e.amalgam_order)
    elif isinstance(e, AmalgamAmenable):
        left_order, right_order, sub_order = e.left_order, e.right_order, e.amalgam_order
    else:
        return None
    return None if _degenerate_amalgam(left_order, right_order, sub_order) else INFINITE


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


# A path is (prefix, last step, run length): the root is ("root", None, 0),
# and a run of k equal steps prints as ".left*k".
_ROOT = ("root", None, 0)


def _path_name(path) -> str:
    prefix, step, run = path
    if run == 0:
        return prefix
    return f"{prefix}.{step}" if run == 1 else f"{prefix}.{step}*{run}"


def _child_path(path, step: str):
    prefix, last, run = path
    if step == last:
        return prefix, step, run + 1
    return _path_name(path), step, 1


def _ref(child: GroupExpr, path, step: str) -> str:
    """How a trace entry names a child: a leaf by its description, a
    composite node by its path."""
    return _path_name(_child_path(path, step)) if child.steps else child.describe()


def _head(e: GroupExpr, path) -> str:
    steps = iter(e.steps)
    return "".join(p if isinstance(p, str) else _ref(p, path, next(steps)) for p in e.form())


def _evaluated_steps(e: GroupExpr) -> tuple[str, ...]:
    """Children the evaluator visits: all of them, except an amenable-kind
    amalgam subgroup, which needs no evaluation to witness betti1 = 0."""
    if isinstance(e, AmalgamAmenable) and isinstance(e.amalgam, AMENABLE_LEAF_KINDS):
        return ("left", "right")
    return e.steps


def evaluate(e: GroupExpr) -> PriceResult:
    """Evaluate cost, rank gradient and betti1 for an expression.

    One post-order pass on an explicit stack visits every node once (left
    subtree, right subtree, amalgam subgroup, then the node) and prices it
    from its children's stored (cost, betti1, order), so the work is
    linear in the tree and no depth overflows the interpreter's stack.
    An amalgam subgroup is priced into a discarded trace, only to find its
    betti1 = 0 witness.

    Each applied rule appends an entry `<rule> <path> <head>: <text>`.  The
    path names the node from `root` by the steps `.left`, `.right` and
    `.amalgam`, a run of k >= 2 equal steps written `.left*k`; the head is
    the node's own form with composite children written as their paths.
    fixed_price is True exactly when a cost rule fired; every rule of the
    calculus yields fixed price.

    Every visited node must satisfy betti1 - beta0 <= rank gradient, with
    beta0 = 1/|G| for a finite inferred order and 0 otherwise (the rank
    gradient is cost - 1 by construction).  A node that breaks it raises
    InvariantError naming its path.
    """
    trace: list[str] = []
    values: list[tuple] = []  # (cost, betti1, order) of finished nodes
    stack = [(e, _ROOT, trace, False)]
    while stack:
        node, path, out, expanded = stack.pop()
        steps = _evaluated_steps(node)
        if steps and not expanded:
            stack.append((node, path, out, True))
            for step in reversed(steps):
                stack.append((getattr(node, step), _child_path(path, step),
                              [] if step == "amalgam" else out, False))
            continue
        kids = values[len(values) - len(steps):]
        del values[len(values) - len(steps):]
        cost, betti, entries = _price(node, kids, path)
        name = _path_name(path)
        if entries:
            head = _head(node, path)
            out.extend(f"{rule} {name} {head}: {text}" for rule, text in entries)
        order = _order(node, *(kid[2] for kid in kids[:2]))
        _check_node(name, cost, betti, order)
        values.append((cost, betti, order))
    cost, betti, _ = values[0]
    return PriceResult(cost=cost, betti1=betti, rule_trace=trace)


def _check_node(name: str, cost, betti, order: GroupOrder | None) -> None:
    if not (is_known(cost) and is_known(betti)):
        return
    rg = cost - 1
    beta0 = recip_order(order) if order is not None else 0
    if betti - beta0 > rg:
        raise InvariantError(
            f"inconsistent values at {name}: betti1 {betti} - beta0 {beta0} "
            f"exceeds rank gradient {rg}"
        )


def _price(e: GroupExpr, kids: list[tuple], path):
    """(cost, betti1, [(rule, text)]) of one node, from its evaluated
    children's (cost, betti1, order) in `kids`."""
    if isinstance(e, TrivialGroup):
        return Fraction(0), Fraction(0), [("finite-price", "cost 0, betti1 0")]

    if isinstance(e, Cyclic):
        c = 1 - Fraction(1, e.n)
        return c, Fraction(0), [("finite-price", f"cost 1 - 1/{e.n} = {c}, betti1 0")]

    if isinstance(e, Amenable):
        if e.order.is_finite:
            c = 1 - Fraction(1, e.order.value)
            return c, Fraction(0), [("finite-price", f"cost {c}, betti1 0")]
        return Fraction(1), Fraction(0), [("amenable-price", "cost 1, betti1 0")]

    if isinstance(e, (IntegersZ, FreeAbelian)):
        return Fraction(1), Fraction(0), [("amenable-price", "cost 1, betti1 0")]

    if isinstance(e, Free):
        c = Fraction(e.rank)
        return c, c - 1, [("free-price", f"cost {c}, betti1 {c - 1}")]

    if isinstance(e, Surface):
        c = Fraction(2 * e.genus - 1)
        return c, c - 1, [("surface-price", f"cost {c}, betti1 {c - 1}")]

    if isinstance(e, ArtinGraph):
        b = len(components(e.graph))
        return Fraction(b), Fraction(b - 1), [
            ("artin-components-price", f"{b} component(s), cost {b}, betti1 {b - 1}")]

    if isinstance(e, CoxeterGraph):
        from .coxeter import HypothesisError, rg_coxeter_planar

        try:
            price, _ = rg_coxeter_planar(e.graph)
        except HypothesisError as exc:
            reason = f"coxeter graph outside supported class: {exc}"
            return Unknown(reason), Unknown(reason), [("rule-not-applicable", reason)]
        return price.cost, price.betti1, [
            ("coxeter-planar-girth6", f"cost {price.cost}, betti1 {price.betti1}")]

    entries: list[tuple[str, str]] = []
    (lc, lb, lo), (rc, rb, ro) = kids[:2]

    if isinstance(e, AmalgamFinite):
        m = e.amalgam_order
        c_sub = 1 - Fraction(1, m)
        if is_known(lc) and is_known(rc):
            cost = lc + rc - c_sub
            lg, rg = lc - 1, rc - 1
            rg_direct = lg + rg + Fraction(1, m)
            assert rg_direct == cost - 1, "amalgam gradient routes disagree"
            entries.append(("amalgam-price",
                            f"cost {lc} + {rc} - {c_sub} = {cost}; "
                            f"gradient sum route {lg} + {rg} + 1/{m} = {rg_direct} agrees"))
        else:
            cost = _unknown_from(lc, rc, fallback="factor cost unknown")
        betti = _amalgam_betti(lb, rb, lo, ro, GroupOrder(m), entries)
        return cost, betti, entries

    if isinstance(e, AmalgamAmenable):
        sub_betti = kids[2][1] if len(kids) == 3 else Fraction(0)
        if not (is_known(sub_betti) and sub_betti == 0):
            reason = "amalgam subgroup {} carries no betti1 = 0 witness"
            unknown = Unknown(reason.format(e.amalgam.describe()))
            return unknown, unknown, [
                ("rule-not-applicable", reason.format(_ref(e.amalgam, path, "amalgam")))]
        c_sub = 1 - recip_order(e.amalgam_order)
        if is_known(lc) and is_known(rc):
            cost = lc + rc - c_sub
            entries.append(("amalgam-price",
                            f"cost {lc} + {rc} - {c_sub} = {cost} "
                            f"(declared orders {e.left_order}, {e.right_order}, {e.amalgam_order})"))
        else:
            cost = _unknown_from(lc, rc, fallback="factor cost unknown")
        betti = _amalgam_betti(lb, rb, e.left_order, e.right_order, e.amalgam_order, entries)
        return cost, betti, entries

    if isinstance(e, Generation):
        if is_known(lc) and is_known(rc) and lc == 1 and rc == 1:
            # Gradient sandwich: the sum bound gives rg <= 0 while
            # betti1 >= 0 bounds it below, so rg = betti1 = 0.
            return Fraction(1), Fraction(0), [
                ("generation-price", "both factors have price 1; "
                                     f"intersection justification: {e.justification}"),
                ("generation-sandwich", "gradient upper bound 0 meets betti1 lower bound 0")]
        if is_known(lc) and is_known(rc):
            reason = f"generation rule needs both factors of price 1 (got {lc} and {rc})"
        else:
            reason = _unknown_from(lc, rc, fallback="factor cost unknown").reason
        return Unknown(reason), Unknown(reason), [("rule-not-applicable", reason)]

    raise TypeError(f"unsupported expression node {type(e).__name__}")


def _amalgam_betti(lb, rb, left_order, right_order, amalgam_order, entries):
    """First L2-Betti number of an amalgam over a betti1 = 0 subgroup:
    betti1(left) - 1/|left| + betti1(right) - 1/|right| + 1/|subgroup|."""
    if _degenerate_amalgam(left_order, right_order, amalgam_order):
        reason = (
            "degenerate amalgam: declared subgroup order reaches a factor order, "
            "so the splitting formula does not apply"
        )
        entries.append(("rule-not-applicable", reason))
        return Unknown(reason)
    if not (is_known(lb) and is_known(rb)):
        return _unknown_from(lb, rb, fallback="factor betti1 unknown")
    if left_order is None or right_order is None:
        reason = "factor order undetermined"
        entries.append(("rule-not-applicable", reason))
        return Unknown(reason)
    rl, rr, ra = recip_order(left_order), recip_order(right_order), recip_order(amalgam_order)
    value = lb - rl + rb - rr + ra
    entries.append(("amalgam-betti", f"{lb} - {rl} + {rb} - {rr} + {ra} = {value}"))
    return value

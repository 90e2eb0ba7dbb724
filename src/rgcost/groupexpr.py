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

from fractions import Fraction

from .lgraph import GraphError, LabelledGraph, components


class _Value:
    """A frozen value: its fields are its instance attributes, set once by
    its `__init__`.  It equals an object of its own class with equal
    fields, hashes by its class and fields, and prints as
    `Class(field=value, ...)`."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((self.__class__, *self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot set {name!r}")

    __delattr__ = __setattr__


_set = object.__setattr__


class GroupOrder(_Value):
    """Order of a group: Finite(n >= 1) or Infinite (value None)."""

    def __init__(self, value: int | None):
        if value is not None and value < 1:
            raise ValueError("finite group order must be >= 1")
        _set(self, "value", value)

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


class Unknown(_Value):
    """A value the calculus cannot determine, with the reason no rule fired."""

    def __init__(self, reason: str):
        _set(self, "reason", reason)

    def __str__(self):
        return f"unknown({self.reason})"


def is_known(x) -> bool:
    return isinstance(x, Fraction)


class GroupExpr(_Value):
    """Base class for expression nodes.

    Each node class is the one declaration of its construction: `head`
    names it in expression syntax, and its annotated class attributes are
    its fields and its arguments in order, each annotation giving the
    argument's kind:

        GroupExpr      a subexpression
        int            an integer, at least the class's `least`
        GroupOrder     an order, `inf` or a positive integer
        str            a quoted string
        LabelledGraph  a graph file path, printed as the graph's sizes

    The parser reads its forms from these declarations, and `form` and
    `describe` print every node from them.  Derived once per class:
    `slots` (field name, kind), `steps` (the subexpression fields) and
    `__init__`, which takes the fields by position or keyword, refuses an
    int below `least`, then runs the class's own `__post_init__`, if any.
    """

    head: str
    least = 1
    slots: tuple[tuple[str, str], ...] = ()
    steps: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.slots = tuple(cls.__annotations__.items())
        cls.steps = tuple(name for name, kind in cls.slots if kind == "GroupExpr")
        body = [f"if {name} < {cls.least}: raise ValueError("
                f"'{cls.head} {name} must be >= {cls.least}')"
                for name, kind in cls.slots if kind == "int"]
        body += [f"_set(self, {name!r}, {name})" for name, _ in cls.slots]
        if "__post_init__" in vars(cls):
            body.append("self.__post_init__()")
        sig = "def __init__(self" + "".join(f", {name}" for name, _ in cls.slots) + "):\n"
        exec(sig + "".join(f" {line}\n" for line in body or ["pass"]), scope := {"_set": _set})
        cls.__init__ = scope["__init__"]

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


class TrivialGroup(GroupExpr):
    head = "trivial"


class Cyclic(GroupExpr):
    head = "cyclic"
    least = 2
    n: int


class IntegersZ(GroupExpr):
    head = "z"


class Free(GroupExpr):
    head = "free"
    rank: int


class Surface(GroupExpr):
    head = "surface"
    least = 2
    genus: int


class FreeAbelian(GroupExpr):
    head = "free-abelian"
    rank: int


class Amenable(GroupExpr):
    """Declared-amenable leaf; the tag and order are trusted inputs."""

    head = "amenable"
    tag: str
    order: GroupOrder


class ArtinGraph(GroupExpr):
    head = "artin"
    graph: LabelledGraph


class CoxeterGraph(GroupExpr):
    head = "coxeter"
    graph: LabelledGraph


class AmalgamFinite(GroupExpr):
    """Amalgam of two groups over a finite subgroup of declared order.

    The factors' orders are inferred from their expressions.  The declared
    subgroup order is taken as input, since nothing else determines it; no
    divisibility or embedding checks are performed.
    """

    head = "amalgam-finite"
    left: GroupExpr
    right: GroupExpr
    amalgam_order: int


class AmalgamAmenable(GroupExpr):
    """Amalgam over an amenable (or otherwise betti1 = 0) subgroup.

    The subgroup is an expression like the factors, and all three orders
    are the ones inferred from their expressions.
    """

    head = "amalgam-amenable"
    left: GroupExpr
    right: GroupExpr
    amalgam: GroupExpr


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


class PriceResult:
    """Cost / first L2-Betti value with rule provenance.

    The rank gradient (cost - 1) and fixed price (a known cost) are derived
    from the cost.  Invariant (checked): for infinite groups rank_gradient
    >= betti1.  A negative gradient happens exactly for finite groups
    (-1/|G|), whose betti1 is 0; the betti upper-bound inequality presumes
    an infinite chain, so it is not enforced there.
    """

    def __init__(self, cost: Fraction | Unknown, betti1: Fraction | Unknown,
                 rule_trace: list[str] | None = None):
        self.cost, self.betti1 = cost, betti1
        self.rule_trace = [] if rule_trace is None else rule_trace
        rg = self.rank_gradient
        if is_known(rg) and is_known(self.betti1) and 0 <= rg < self.betti1:
            raise ValueError(f"rank gradient {rg} < betti1 {self.betti1}")

    @property
    def rank_gradient(self) -> Fraction | Unknown:
        return self.cost - 1 if is_known(self.cost) else self.cost

    @property
    def fixed_price(self) -> bool:
        return is_known(self.cost)


class HypothesisError(ValueError):
    """A required hypothesis (planarity, girth >= 6) fails.

    The message lists the failing checks in the fixed report format, e.g.
    "girth(3) < 6; nonplanar=false".
    """

    def __init__(self, girth, planar: bool):
        parts = [f"girth({girth}) < 6"] if girth < 6 else []
        parts.append(f"nonplanar={'false' if planar else 'true'}")
        super().__init__("; ".join(parts))


class InvariantError(ValueError):
    """Computed values break an inequality the theory guarantees: a
    `verify` row falls below the symbolic rank gradient."""


def _degenerate_amalgam(left: GroupOrder | None, right: GroupOrder | None,
                        amalgam: GroupOrder | None) -> bool:
    """True when the subgroup order is undetermined or reaches a factor's
    order, so the amalgam may not properly split and the amalgam formulas
    may fail."""
    return amalgam is None or amalgam.is_finite and any(
        side is not None and side.is_finite and amalgam.value >= side.value
        for side in (left, right))


def _unknown_from(*values) -> Unknown:
    """The first Unknown among values that are not all known."""
    return next(v for v in values if isinstance(v, Unknown))


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


def evaluate(e: GroupExpr) -> PriceResult:
    """Evaluate cost, rank gradient and betti1 for an expression.

    One post-order pass on an explicit stack visits every node once (left
    subtree, right subtree, amalgam subgroup, then the node) and prices it
    from its children's stored (cost, betti1, order), so the work is
    linear in the tree and no depth overflows the interpreter's stack.
    Every subgroup is evaluated like any other node, but into a discarded
    trace: it is priced only to find its betti1 = 0 witness.

    Each applied rule appends an entry `<rule> <path> <head>: <text>`.  The
    path names the node from `root` by the steps `.left`, `.right` and
    `.amalgam`, a run of k >= 2 equal steps written `.left*k`; the head is
    the node's own form with composite children written as their paths.
    fixed_price is True exactly when a cost rule fired; every rule of the
    calculus yields fixed price.

    Every node whose cost and betti1 are known satisfies
    betti1 - beta0 <= rg = cost - 1, with beta0 = 1/|G| for a finite
    inferred order and 0 otherwise.  No input is trusted for an order that
    its expression determines, so this holds by induction over the rules:
    - every leaf rule, and the generation rule (cost 1, betti1 0, an
      infinite group), meets it with equality;
    - an amalgam over C with both values known has an infinite order, so
      beta0 = 0, and its betti1 is the sum of its factors'
      (betti1 - beta0) plus 1/|C|, each beta0 read from the factor's own
      inferred order.  By induction that is at most the sum of the
      factors' rg plus 1/|C|, which is the amalgam's rg.
    So no node is checked at run time; a property test over random trees
    pins the invariant instead.
    """
    trace: list[str] = []
    values: list[tuple] = []  # (cost, betti1, order) of finished nodes
    stack = [(e, _ROOT, trace, False)]
    while stack:
        node, path, out, expanded = stack.pop()
        steps = node.steps
        if steps and not expanded:
            stack.append((node, path, out, True))
            for step in reversed(steps):
                stack.append((getattr(node, step), _child_path(path, step),
                              [] if step == "amalgam" else out, False))
            continue
        kids = values[len(values) - len(steps):]
        del values[len(values) - len(steps):]
        cost, betti, order, entries = _price(node, kids, path)
        if entries:
            name, head = _path_name(path), _head(node, path)
            out.extend(f"{rule} {name} {head}: {text}" for rule, text in entries)
        values.append((cost, betti, order))
    cost, betti, _ = values[0]
    return PriceResult(cost=cost, betti1=betti, rule_trace=trace)


def _price(e: GroupExpr, kids: list[tuple], path):
    """(cost, betti1, order, [(rule, text)]) of one node, from its
    evaluated children's (cost, betti1, order) in `kids`.  The order is
    None when it is undetermined.  Needs one of the twelve node kinds above."""
    if isinstance(e, TrivialGroup):
        return Fraction(0), Fraction(0), GroupOrder(1), [("finite-price", "cost 0, betti1 0")]

    if isinstance(e, Cyclic):
        c = 1 - Fraction(1, e.n)
        return c, Fraction(0), GroupOrder(e.n), [
            ("finite-price", f"cost 1 - 1/{e.n} = {c}, betti1 0")]

    if isinstance(e, Amenable):
        if e.order.is_finite:
            c = 1 - Fraction(1, e.order.value)
            return c, Fraction(0), e.order, [("finite-price", f"cost {c}, betti1 0")]
        return Fraction(1), Fraction(0), e.order, [("amenable-price", "cost 1, betti1 0")]

    if isinstance(e, (IntegersZ, FreeAbelian)):
        return Fraction(1), Fraction(0), INFINITE, [("amenable-price", "cost 1, betti1 0")]

    if isinstance(e, Free):
        c = Fraction(e.rank)
        return c, c - 1, INFINITE, [("free-price", f"cost {c}, betti1 {c - 1}")]

    if isinstance(e, Surface):
        c = Fraction(2 * e.genus - 1)
        return c, c - 1, INFINITE, [("surface-price", f"cost {c}, betti1 {c - 1}")]

    if isinstance(e, ArtinGraph):
        b = len(components(e.graph))
        return Fraction(b), Fraction(b - 1), INFINITE, [
            ("artin-components-price", f"{b} component(s), cost {b}, betti1 {b - 1}")]

    if isinstance(e, CoxeterGraph):
        from .coxeter import coxeter_order, rg_coxeter_planar

        try:
            price, _ = rg_coxeter_planar(e.graph)
        except HypothesisError as exc:
            reason = f"coxeter graph outside supported class: {exc}"
            cost = betti = Unknown(reason)
            entries = [("rule-not-applicable", reason)]
        else:
            cost, betti = price.cost, price.betti1
            entries = [("coxeter-planar-girth6", f"cost {cost}, betti1 {betti}")]
        try:
            order = coxeter_order(e.graph)
        except GraphError:
            order = None
        return cost, betti, order, entries

    (lc, lb, lo), (rc, rb, ro) = kids[:2]
    known = is_known(lc) and is_known(rc)

    if isinstance(e, Generation):
        if known and lc == 1 and rc == 1:
            # Gradient sandwich: the sum bound gives rg <= 0 while
            # betti1 >= 0 bounds it below, so rg = betti1 = 0.
            return Fraction(1), Fraction(0), INFINITE, [
                ("generation-price", "both factors have price 1; "
                                     f"intersection justification: {e.justification}"),
                ("generation-sandwich", "gradient upper bound 0 meets betti1 lower bound 0")]
        if known:
            reason = f"generation rule needs both factors of price 1 (got {lc} and {rc})"
        else:
            reason = _unknown_from(lc, rc).reason
        return Unknown(reason), Unknown(reason), INFINITE, [("rule-not-applicable", reason)]

    # An amalgam: every order is inferred, the subgroup's from its
    # expression, except a finite subgroup's declared m.  A subgroup
    # expression needs a betti1 = 0 witness.
    if isinstance(e, AmalgamFinite):
        sub, witnessed = GroupOrder(e.amalgam_order), True
    else:  # AmalgamAmenable, the last node kind
        _, sub_betti, sub = kids[2]
        witnessed = is_known(sub_betti) and sub_betti == 0
    order = None if _degenerate_amalgam(lo, ro, sub) else INFINITE
    if not witnessed:
        reason = (f"amalgam subgroup {_ref(e.amalgam, path, 'amalgam')} "
                  "carries no betti1 = 0 witness")
        return Unknown(reason), Unknown(reason), order, [("rule-not-applicable", reason)]

    entries: list[tuple[str, str]] = []
    c_sub = 1 - recip_order(sub)
    if known:
        cost = lc + rc - c_sub
        entries.append(("amalgam-price", f"cost {lc} + {rc} - {c_sub} = {cost}"))
    else:
        cost = _unknown_from(lc, rc)
    # Over a betti1 = 0 subgroup:
    # betti1 = betti1(left) - 1/|left| + betti1(right) - 1/|right| + 1/|subgroup|.
    if order is None:
        reason = ("degenerate amalgam: declared subgroup order reaches a factor order, "
                  "so the splitting formula does not apply")
        entries.append(("rule-not-applicable", reason))
        betti = Unknown(reason)
    elif not (is_known(lb) and is_known(rb)):
        betti = _unknown_from(lb, rb)
    else:
        rl, rr, ra = recip_order(lo), recip_order(ro), recip_order(sub)
        betti = lb - rl + rb - rr + ra
        entries.append(("amalgam-betti", f"{lb} - {rl} + {rb} - {rr} + {ra} = {betti}"))
    return cost, betti, order, entries

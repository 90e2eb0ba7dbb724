"""Decomposition certificates: builder, independent checker, JSON format.

A certificate is a tree of derivation steps.  Interior nodes split a group
as an amalgam of several factors over one finite subgroup, or generate it
by a sequence of subgroups each of which meets the group generated by the
earlier ones in an infinite subgroup; leaves are finite groups, infinite
amenable groups, two-vertex Artin groups with infinite centre, or cited
facts from the literature.  A node stores only its inputs, and its cost is
derived from its kind and its children's costs when it is built, so the
only claims are the header's claimed cost, which the reader compares with
the root's, and the cost each cited fact cites.  Cited-fact leaves are the
only assumptions and are counted and reported separately.

A certificate for an Artin group carries its defining graph.  Only the
leaves name vertices; the checker derives every interior node's vertex set
from its leaves and checks each step against the graph, so a claimed cost
is accepted only if the graph justifies it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction

from .groupexpr import PriceResult
from .lgraph import LabelledGraph
from .numread import LimitExceeded, read_rational

FORMAT = "rgcost-certificate/3"

ARTIN_CAVEAT = (
    "values refer to normal chains of finite-index subgroups whose intersection "
    "equals the intersection of all finite-index subgroups; whether that "
    "intersection is trivial (residual finiteness of Artin groups) is open"
)


# Each class below names its JSON "kind" tag in a class attribute, which is
# not a dataclass field.  So is `cost`, except on a cited fact: a class
# attribute where the kind fixes it, else set once in __post_init__.


@dataclass(frozen=True)
class FiniteLeaf:
    """Finite group of the given order: cost 1 - 1/order."""

    kind = "finite"
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("a finite group needs an order >= 1")
        object.__setattr__(self, "cost", 1 - Fraction(1, self.order))


@dataclass(frozen=True)
class AmenableLeaf:
    """Infinite amenable group, of cost 1; `vertex` names the graph vertex
    when the group is an infinite cyclic vertex subgroup of an Artin
    group."""

    kind = "amenable"
    cost = Fraction(1)
    name: str
    reason: str
    vertex: str | None = None


@dataclass(frozen=True)
class InfiniteCenterLeaf:
    """Two-vertex Artin subgroup, of cost 1: its centre is infinite cyclic,
    generated by (a_v a_w)^(label/2) for an even label and (a_v a_w)^label
    for an odd one.  The centre misses the intersection of a chain: its
    generator has nonzero image under the exponent-sum map to Z, while the
    intersection of all finite-index subgroups lies in the kernel of every
    map to Z/k, hence in the kernel of that map."""

    kind = "infinite-centre"
    cost = Fraction(1)
    endpoints: tuple[str, str]
    label: int


@dataclass(frozen=True)
class AmalgamNode:
    """Amalgam of all children over one common finite subgroup of the
    given order, named by `name` (order 1: a free product).  Cost: the sum
    of the children's costs minus (k - 1)(1 - 1/order)."""

    kind = "amalgam"
    children: tuple
    order: int
    name: str = ""

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("an amalgam needs a subgroup order >= 1")
        kids = self.children
        object.__setattr__(self, "cost", sum((c.cost for c in kids), Fraction(0))
                           - (len(kids) - 1) * (1 - Fraction(1, self.order)))


@dataclass(frozen=True)
class GenerationNode:
    """Group of cost 1 generated by the children, each of cost 1, where
    child j >= 1 meets the group generated by children 0..j-1 in an
    infinite subgroup named by witnesses[j - 1] (in an Artin group, the
    vertex subgroup of witness_vertices[j - 1])."""

    kind = "generation"
    cost = Fraction(1)
    children: tuple
    witnesses: tuple[str, ...]
    witness_vertices: tuple[str, ...] | None = None


@dataclass(frozen=True)
class CitedFactLeaf:
    """Unverifiable assumption with a literature citation tag and the cost
    it cites; the checker records it instead of validating it."""

    kind = "cited-fact"
    statement: str
    citation: str
    cost: Fraction


KINDS = {cls.kind: cls for cls in (FiniteLeaf, AmenableLeaf, InfiniteCenterLeaf,
                                   AmalgamNode, GenerationNode, CitedFactLeaf)}


@dataclass(frozen=True)
class Certificate:
    root: object
    target: str
    graph: LabelledGraph | None = None
    caveat: str | None = None
    citations: tuple[str, ...] = ()


@dataclass
class CheckReport:
    violations: list[str]
    assumptions: list[str]

    @property
    def valid(self) -> bool:
        return not self.violations


def _post_order(root) -> list[tuple[object, list[int]]]:
    """Every node occurrence under `root`, children before parents and the
    root last, each with the positions of its children in that list."""
    out: list[tuple[object, list[int]]] = []
    done: list[int] = []  # positions of finished nodes whose parent is open
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        kids = getattr(node, "children", ())
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(kids))
            continue
        cut = len(done) - len(kids)
        refs = done[cut:]
        del done[cut:]
        done.append(len(out))
        out.append((node, refs))
    return out


# ---------------------------------------------------------------------------
# Building certificates for Artin graphs


def _component_nodes(g: LabelledGraph) -> list:
    """One certificate node per connected component, in order of each
    component's smallest vertex index, from one breadth-first pass.

    An isolated vertex is an infinite cyclic leaf and a single edge its
    infinite-centre leaf.  A larger component is generated by the edge
    leaves of its breadth-first spanning tree (grown from its smallest
    vertex, neighbours in index order): each tree edge meets the earlier
    ones in the vertex subgroup of its tree parent.
    """
    seen: set[str] = set()
    parts = []
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        leaves, parents = [], []
        queue = [root]
        for parent in queue:  # the queue grows while it is read
            for child in g.neighbors(parent):
                if child in seen:
                    continue
                seen.add(child)
                queue.append(child)
                leaves.append(InfiniteCenterLeaf(endpoints=(parent, child),
                                                 label=g.label(parent, child)))
                parents.append(parent)
        if not leaves:
            parts.append(AmenableLeaf(name=f"<{root}>", reason="infinite cyclic vertex subgroup",
                                      vertex=root))
        elif len(leaves) == 1:
            parts.append(leaves[0])
        else:
            shared = tuple(parents[1:])
            parts.append(GenerationNode(
                children=tuple(leaves),
                witnesses=tuple(f"vertex subgroup <{v}>, infinite cyclic" for v in shared),
                witness_vertices=shared,
            ))
    return parts


def rg_artin(g: LabelledGraph) -> tuple[PriceResult, Certificate]:
    """Price of the Artin group of a labelled graph with b components:
    cost b, rank gradient and betti1 both b - 1, plus a checkable
    certificate (per-component generation sequences joined by one free
    product, whose cost is the sum of the factors' costs)."""
    parts = _component_nodes(g)
    b = len(parts)
    root = parts[0] if b == 1 else AmalgamNode(children=tuple(parts), order=1, name="trivial")
    cert = Certificate(
        root=root,
        target=f"Artin group on {g.num_vertices} vertices ({b} component(s))",
        graph=g,
        caveat=ARTIN_CAVEAT,
    )
    return PriceResult(cost=Fraction(b), betti1=Fraction(b - 1)), cert


# ---------------------------------------------------------------------------
# Checking


def check_certificate(cert: Certificate) -> CheckReport:
    """Validate a certificate without re-deriving any group theory.

    Every cost is derived as the nodes are built, so one pass over the
    nodes in post-order checks the structure of each step and lists cited
    facts as assumptions.  With an ambient graph it also derives each
    node's vertex set from its leaves and requires the node to be a step
    of the Artin induction: a vertex or edge leaf of the graph, a free
    product of vertex-disjoint factors with no graph edge between them, or
    a generation sequence of cost-1 factors each containing its witness
    vertex together with the earlier factors; the root's set must be all
    of the graph's vertices.
    """
    graph = cert.graph
    report = CheckReport(violations=[], assumptions=[])
    order = _post_order(cert.root)
    sets: list[set | None] = []
    for i, (node, refs) in enumerate(order):
        where = f"node {i} [{type(node).__name__}]"
        _check_step(node, report, where)
        if graph is not None:
            sets.append(_derive_vertices(node, [sets[r] for r in refs], graph,
                                         report.violations, where))
    if graph is not None and sets[-1] is not None and sets[-1] != set(graph.vertices):
        report.violations.append(
            f"node {len(order) - 1} (root): vertex set is not the graph's vertex set")
    return report


def _check_step(node, report: CheckReport, where: str) -> None:
    """Structural and witness-text violations of one node go to the
    report, and a cited fact to its assumptions."""
    bad = report.violations

    if isinstance(node, InfiniteCenterLeaf):
        if not isinstance(node.label, int) or node.label < 2:
            bad.append(f"{where}: label {node.label!r} is not an integer >= 2")

    elif isinstance(node, AmalgamNode):
        if len(node.children) < 2:
            bad.append(f"{where}: an amalgam needs at least two factors")
        # the subgroup amalgamated over is a subgroup of every factor
        for j, child in enumerate(node.children):
            if isinstance(child, FiniteLeaf) and child.order % node.order:
                bad.append(f"{where}: subgroup order {node.order} does not divide "
                           f"factor {j} order {child.order}")

    elif isinstance(node, GenerationNode):
        kids = node.children
        if len(kids) < 2:
            bad.append(f"{where}: a generation sequence needs at least two factors")
        for j, child in enumerate(kids):
            if child.cost != 1:
                bad.append(f"{where}: factor {j} cost {child.cost} != 1")
        if len(node.witnesses) != len(kids) - 1:
            bad.append(f"{where}: {len(node.witnesses)} intersection witnesses for "
                       f"{len(kids)} factors")
        if not all(str(w).strip() for w in node.witnesses):
            bad.append(f"{where}: empty intersection witness")

    elif isinstance(node, CitedFactLeaf):
        report.assumptions.append(f"{node.statement} [{node.citation}]")

    elif not isinstance(node, (FiniteLeaf, AmenableLeaf)):
        bad.append(f"{where}: unknown node kind")


def _derive_vertices(node, kids: list, graph: LabelledGraph, bad: list[str],
                     where: str) -> set | None:
    """The vertex set of the node's Artin subgroup, merged from the
    children's sets (smaller into larger, so the children's sets are
    consumed), or None when it cannot be derived; a node that is not a
    step of the Artin induction on `graph` is a violation."""
    if isinstance(node, AmenableLeaf):
        if node.vertex is None or not graph.has_vertex(node.vertex):
            bad.append(f"{where}: vertex {node.vertex!r} is not a graph vertex")
            return None
        return {node.vertex}

    if isinstance(node, InfiniteCenterLeaf):
        ends = tuple(node.endpoints)
        if len(ends) != 2 or not all(graph.has_vertex(v) for v in ends) \
                or not graph.has_edge(*ends):
            bad.append(f"{where}: {ends!r} is not an edge of the graph")
            return None
        if graph.label(*ends) != node.label:
            bad.append(f"{where}: label {node.label} != graph label {graph.label(*ends)}")
        return set(ends)

    if isinstance(node, AmalgamNode):
        if node.order != 1:
            bad.append(f"{where}: an Artin certificate amalgamates only over the "
                       f"trivial group, not over a subgroup of order {node.order}")
        if not kids or any(s is None for s in kids):
            return None
        merged = max(kids, key=len)
        others = [s for s in kids if s is not merged]
        size = len(merged) + sum(map(len, others))
        for s in others:
            merged |= s
        if size != len(merged):
            bad.append(f"{where}: free-product factors share vertices")
        # an edge between two factors has an end outside the largest one
        joined = next(((v, w) for s in others for v in s for w in graph.neighbors(v)
                       if w in merged and w not in s), None)
        if joined is not None:
            bad.append(f"{where}: graph edge {joined[0]!r} {joined[1]!r} "
                       f"joins two free-product factors")
        return merged

    if isinstance(node, GenerationNode):
        shared = node.witness_vertices
        if shared is None or len(shared) != len(kids) - 1:
            bad.append(f"{where}: needs one witness vertex for each factor after the first")
            return None
        if not kids or any(s is None for s in kids):
            return None
        union = kids[0]
        for j in range(1, len(kids)):
            s, w = kids[j], shared[j - 1]
            if w not in s or w not in union:
                if s.isdisjoint(union):
                    bad.append(f"{where}: factor {j} has an empty intersection with "
                               f"the earlier factors")
                else:
                    bad.append(f"{where}: witness vertex {w!r} is not in both factor {j} "
                               f"and the earlier factors")
            if len(s) > len(union):
                union, s = s, union
            union |= s
        return union

    bad.append(f"{where}: not a step of an Artin certificate on the given graph")
    return None


# ---------------------------------------------------------------------------
# Built-in certificates for the generation arguments


def _sl2z_certificate() -> Certificate:
    root = AmalgamNode(children=(FiniteLeaf(order=6), FiniteLeaf(order=4)),
                       order=2, name="common central subgroup of order 2")
    return Certificate(
        root=root,
        target="SL(2,Z) as the amalgam of cyclic groups of orders 6 and 4 over a common order-2 subgroup",
        citations=("classical",),
    )


def _fact(statement: str, citation: str) -> CitedFactLeaf:
    """A cited fact of cost 1."""
    return CitedFactLeaf(statement=statement, citation=citation, cost=Fraction(1))


def _generated(target: str, citation: str, children, witnesses) -> Certificate:
    """The certificate of a group of cost 1 generated by `children`, each
    meeting the earlier ones in the infinite subgroup of its witness."""
    root = GenerationNode(children=tuple(children), witnesses=tuple(witnesses))
    return Certificate(root=root, target=target, citations=(citation,))


def lickorish_sequence(genus: int) -> tuple[str, ...]:
    """The twist sequence m1,a1,c1,a2,m2,a2,c2,a3,m3,...,c_{g-1},a_g,m_g
    (with the bridging repetitions) used to chain braid-group copies."""
    seq = ["m1", "a1"]
    for i in range(1, genus):
        seq.extend([f"c{i}", f"a{i + 1}", f"m{i + 1}"])
        if i < genus - 1:
            seq.append(f"a{i + 1}")
    return tuple(seq)


def _mcg_certificate(genus: int) -> Certificate:
    seq = lickorish_sequence(genus)
    pairs: list[tuple[str, str]] = []
    seen: set[frozenset] = set()
    for x, y in zip(seq, seq[1:]):
        key = frozenset((x, y))
        if key in seen:
            continue  # a bridging repetition names the same subgroup again
        seen.add(key)
        pairs.append((x, y))

    # Each pair starts at a twist of the pair before it, since the pairs
    # are consecutive in the sequence: that twist is the shared witness.
    witnesses = [f"the twist {x} lies in both factors and has infinite order "
                 f"(braid-group generator)" for x, _ in pairs[1:]]
    return _generated(
        f"mapping class group of the closed genus-{genus} surface, generated "
        f"by the twist sequence {', '.join(seq)}",
        "Lic",
        [_fact(f"the Dehn twists {x} and {y} are defined along simple closed "
               f"non-separating curves with intersection number one, so <{x},{y}> "
               f"is a copy of the braid group on three strands; a connected "
               f"one-edge Artin group has fixed price 1", "BH")
         for x, y in pairs],
        witnesses,
    )


def _bn_mod_center_certificate(n: int) -> Certificate:
    def image_leaf(lo, hi):
        return _fact(
            f"the parabolic subgroup <sigma_{lo},...,sigma_{hi}> of the braid group "
            f"on {n} strands is a copy of the braid group on {n - 1} strands meeting "
            f"the centre trivially (Garside-element description of the centre), so its "
            f"image modulo the centre is again that braid group; a connected-path "
            f"Artin group has fixed price 1",
            "Garside",
        )

    return _generated(
        f"braid group on {n} strands modulo its centre",
        "Grossman",
        [image_leaf(1, n - 2), image_leaf(2, n - 1)],
        ["the image of sigma_2 lies in both factors and has infinite order "
         "(no power of sigma_2 is central)"],
    )


def _autfn_certificate(n: int) -> Certificate:
    if n == 2:
        return _generated(
            "Aut(F_2) generated by its index-two braid-quotient subgroup and an outside infinite-order element",
            "DF",
            [_fact("the braid group on 4 strands modulo its centre embeds in Aut(F_2) "
                   "as a subgroup of index two and has fixed price 1 "
                   "(see the BnModCenter(4) certificate)", "DF"),
             AmenableLeaf(
                 name="<t>",
                 reason=(
                     "infinite cyclic: t is any infinite-order automorphism outside the "
                     "index-two subgroup (preimage of an infinite-order determinant -1 "
                     "matrix in GL(2,Z))"
                 ),
             )],
            ["t^2 lies in both factors and has infinite order (index two)"],
        )

    braid_leaf = _fact(
        f"the automorphisms f_1,...,f_{n - 1} with f_i: x_i -> x_i x_(i+1) x_i^-1, "
        f"x_(i+1) -> x_i generate a copy of the braid group on {n} strands inside "
        f"Aut(F_{n}); a connected-path Artin group has fixed price 1",
        "classical",
    )
    return _generated(
        f"Aut(F_{n}) generated by the rank-two copies A_1,...,A_{n - 1} of Aut(F_2)",
        "classical",
        [braid_leaf] + [_fact(f"A_{i}, the copy of Aut(F_2) acting on <x_{i},x_{i + 1}> and "
                              f"fixing the other free generators, has fixed price 1 "
                              f"(AutFn(2) certificate)", "DF") for i in range(1, n)],
        [f"f_{i} lies in both factors and has infinite order" for i in range(1, n)],
    )


def _outfn_certificate(n: int) -> Certificate:
    if n == 3:
        return _generated(
            "Out(F_3) generated by Xbar and Ybar",
            "classical",
            [_fact("Xbar, the image in Out(F_3) of the copy X of Aut(F_2) acting on "
                   "<x_1,x_2> and fixing x_3, is isomorphic to Aut(F_2) and has fixed price 1",
                   "DF"),
             _fact("Zbar, the image of the copy Z of Aut(F_2) acting on <x_1,x_2> and fixing "
                   "x_1x_3, is isomorphic to Aut(F_2) and has fixed price 1; the intersection "
                   "Xbar n Zbar >= <alphabar> is infinite, where alpha: x_1 -> x_1, "
                   "x_2 -> x_1x_2, x_3 -> x_3", "DF"),
             _fact("Ybar, the image of the copy Y of Aut(F_2) acting on <x_2,x_3> and fixing "
                   "x_1, is isomorphic to Aut(F_2) and has fixed price 1; <Xbar,Zbar> n Ybar "
                   "contains the class of gamma o beta (fixing x_1 and x_2, sending x_3 to "
                   "x_2^-1 x_3), of infinite order", "DF")],
            ["the class of alpha lies in both factors and has infinite order",
             "the class of gamma o beta lies in both factors and has infinite order"],
        )

    return _generated(
        f"Out(F_{n}) generated by two copies of Aut(F_{n - 1})",
        "classical",
        [_fact(f"the copy of Aut(F_{n - 1}) in Out(F_{n}) fixing {fixed} has fixed "
               f"price 1 (AutFn({n - 1}) certificate)", "classical")
         for fixed in ("x_1", f"x_{n}")],
        ["a common copy of Aut(F_2) acting on <x_2,x_3> and fixing the remaining "
         "generators lies in both factors and is infinite"],
    )


# Each builtin's builder, the noun of its parameter (None: it takes none)
# and the least parameter value.  `cmd_certify` refuses a parameter above
# PARAM_CAP before anything is built: a certificate grows with its parameter.
PARAM_CAP = 1000
BUILTINS = {
    "SL2Z": (_sl2z_certificate, None, None),
    "AutF2": (lambda: _autfn_certificate(2), None, None),
    "MCG": (_mcg_certificate, "genus", 2),
    "AutFn": (_autfn_certificate, "rank", 2),
    "OutFn": (_outfn_certificate, "rank", 3),
    "BnModCenter": (_bn_mod_center_certificate, "strand", 4),
}


def builtin_certificate(name: str, param: int | None = None) -> Certificate:
    """The hand-encoded certificate `name` of `BUILTINS`, built for its
    parameter.  Needs `name` in `BUILTINS`, and `param` None for a builtin
    that takes no parameter, else least <= param <= PARAM_CAP: the command
    line is checked once, where it is read (`cmd_certify`), and nothing
    here checks it again."""
    build, noun, _ = BUILTINS[name]
    return build() if noun is None else build(param)


# ---------------------------------------------------------------------------
# JSON serialization
#
# The nodes are listed flat in post-order: children before their parent,
# the root last, each child named by its position in the list.  A node
# writes its kind tag first, then its fields in declaration order, leaving
# out a field equal to its default; the reader rejects any other key, so a
# derived cost written into a node is refused.  Nothing nests by depth, so
# the text is O(nodes) and json's C encoder (used only without indent)
# writes it.


def _encode(obj, refs: list[int] | None = None) -> dict:
    d = {"kind": obj.kind}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default is not MISSING and value == f.default:
            continue
        if f.name == "children":
            value = refs
        elif isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        d[f.name] = value
    return d


def _strings(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)


def _optional(check):
    return lambda value: value is None or check(value)


# Type check of a decoded JSON value by its field's annotation text (each
# also as "... | None"); a cited cost is checked as it is read, and
# children as they are built.
_CHECKS = {
    "str": lambda value: isinstance(value, str),
    "int": lambda value: type(value) is int,
    "tuple[str, ...]": _strings,
    "tuple[str, str]": lambda value: _strings(value) and len(value) == 2,
}
_CHECKS.update({f"{a} | None": _optional(c) for a, c in list(_CHECKS.items())})


def _graph_shaped(gd) -> bool:
    if not isinstance(gd, dict) or not _strings(gd.get("vertices")):
        return False
    edges = gd.get("edges")
    return isinstance(edges, list) and all(
        isinstance(e, list) and len(e) == 3 and _strings(e[:2]) and type(e[2]) is int
        for e in edges)


def _decode(cls, d: dict, children: tuple = ()):
    """A `cls` built from its JSON fields, with its children resolved.
    Field types are strings here (postponed annotations)."""
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            continue
        value = d[f.name]
        if f.name == "children":
            value = children
        elif isinstance(value, list):
            value = tuple(value)
        check = _CHECKS.get(f.type)
        if check is not None and not check(value):
            raise ValueError(f"field {f.name!r} is {value!r}, not {f.type}")
        if f.type == "Fraction":
            value = read_rational(value, f"field {f.name!r}")
        kwargs[f.name] = value
    if len(kwargs) + ("kind" in d) < len(d):
        extra = next(key for key in d if key != "kind" and key not in kwargs)
        raise ValueError(f"field {extra!r} is not declared by {cls.__name__}")
    return cls(**kwargs)


def certificate_to_json(cert: Certificate) -> str:
    g = cert.graph
    doc = {
        "format": FORMAT,
        "target": cert.target,
        "claimed_cost": str(cert.root.cost),
        "citations": list(cert.citations),
        "caveat": cert.caveat,
        "graph": None if g is None else {"vertices": list(g.vertices),
                                         "edges": [list(e) for e in g.edges()]},
        "nodes": [_encode(node, refs) for node, refs in _post_order(cert.root)],
    }
    return json.dumps(doc) + "\n"


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT:
        raise ValueError(f"unsupported certificate format {fmt!r}")
    entries = doc.get("nodes")
    if not isinstance(entries, list) or not entries:
        raise ValueError("certificate has no nodes")
    nodes: list = []
    taken: set[int] = set()  # every node but the root is exactly one node's child
    for d in entries:
        kind = d.get("kind") if isinstance(d, dict) else None
        if not isinstance(kind, str) or kind not in KINDS:
            raise ValueError(f"unknown certificate node kind {kind!r}")
        try:
            refs = d.get("children", ())
            for c in refs:
                if not isinstance(c, int) or not 0 <= c < len(nodes) or c in taken:
                    raise ValueError(f"child {c!r} is not an unclaimed earlier node")
                taken.add(c)
            nodes.append(_decode(KINDS[kind], d, tuple(nodes[c] for c in refs)))
        except (TypeError, ValueError, LimitExceeded) as exc:
            refusal = LimitExceeded if isinstance(exc, LimitExceeded) else ValueError
            raise refusal(f"certificate node {len(nodes)} ({kind}): {exc}") from None
    if len(taken) != len(nodes) - 1:
        raise ValueError("certificate nodes are not one tree in post-order")
    gd = doc.get("graph")
    graph = None
    if gd is not None:
        if not _graph_shaped(gd):
            raise ValueError("certificate graph must be "
                             "{vertices: [str], edges: [[str, str, int]]}")
        graph = LabelledGraph(gd["vertices"], [tuple(e) for e in gd["edges"]])
    root = nodes[-1]
    claimed = read_rational(doc.get("claimed_cost"), "field 'claimed_cost'")
    if claimed != root.cost:
        raise ValueError(f"field 'claimed_cost' is {claimed}, not the root's cost {root.cost}")
    header = {k: doc[k] for k in ("target", "caveat", "citations") if k in doc}
    return _decode(Certificate, {"target": "", **header, "root": root, "graph": graph})

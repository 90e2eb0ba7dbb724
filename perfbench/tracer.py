"""Span tracer that wraps rgcost's public functions from the outside.

Each layer names the functions it times as ``module:attribute`` targets,
at the namespace the program calls them through (``rgcost.cli`` binds
``low_index_normal`` by ``from .fpgroup import ...``, so that binding is
the one to wrap).  While installed, every call records a span (name,
start, end, parent, operation id) in memory; ``restore`` puts every
original object back, so untraced passes run unpatched code.

A target that no longer resolves (after a refactor) marks its layer
``missing`` instead of raising.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

COUNTER_SPAN = "trace.counters"


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    name:     span name, also the prefix of its metrics (``<name>.self_s``).
    targets:  ``module:attr`` or ``module:Class.method`` bindings to wrap.
    count:    optional ``(args, kwargs, result) -> {counter: int}``; its
              keys are full metric names.  It runs outside the layer's own
              span, inside a ``trace.counters`` span.
    """

    name: str
    targets: tuple[str, ...]
    count: Callable | None = None


def _sum_letters(words) -> int:
    return sum(len(w) for w in words)


def _rs_counts(args, kwargs, pres):
    return {
        "rewrite.reidemeister_schreier.generators": pres.num_generators,
        "rewrite.reidemeister_schreier.relators": len(pres.relators),
        "rewrite.reidemeister_schreier.letters": _sum_letters(pres.relators),
    }


def _tietze_counts(args, kwargs, out):
    pres = args[0]
    return {
        "rewrite.tietze_simplify.gens_in": pres.num_generators,
        "rewrite.tietze_simplify.letters_in": _sum_letters(pres.relators),
        "rewrite.tietze_simplify.gens_out": out.num_generators,
        "rewrite.tietze_simplify.letters_out": _sum_letters(out.relators),
    }


def _snf_counts(args, kwargs, result):
    return {
        "snf.smith_normal_form.rows": result.nrows,
        "snf.smith_normal_form.cols": result.ncols,
    }


def _tree_shape(root) -> tuple[int, int]:
    """Node count and depth of a certificate tree, walked iteratively."""
    nodes, depth = 0, 0
    stack = [(root, 1)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        for attr in ("left", "right"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append((child, d + 1))
    return nodes, depth


def _rg_artin_counts(args, kwargs, result):
    nodes, depth = _tree_shape(result[1].root)
    return {"certificate.rg_artin.nodes": nodes, "certificate.rg_artin.depth": depth}


def _evaluate_counts(args, kwargs, price):
    return {"groupexpr.trace_chars": sum(len(e) for e in price.rule_trace)}


LAYERS = (
    Layer("cli.main", ("rgcost.cli:main",)),
    Layer("chains.images", ("rgcost.cli:sl2z_images", "rgcost.cli:psl2z_images",
                            "rgcost.cli:mod_cycle_images")),
    Layer("chains.cayley_table", ("rgcost.fpgroup.chains:cayley_table",),
          lambda a, k, t: {"chains.cayley_table.cosets": t.index}),
    Layer("coset.validate", ("rgcost.fpgroup.coset:CosetTable.validate",)),
    Layer("rewrite.reidemeister_schreier", ("rgcost.fpgroup.chains:reidemeister_schreier",),
          _rs_counts),
    Layer("rewrite.tietze_simplify", ("rgcost.fpgroup.rewrite:tietze_simplify",),
          _tietze_counts),
    Layer("rewrite.abelian_invariants", ("rgcost.fpgroup.rewrite:abelian_invariants",)),
    Layer("snf.smith_normal_form", ("rgcost.fpgroup.rewrite:smith_normal_form",),
          _snf_counts),
    Layer("lowindex.low_index_normal", ("rgcost.cli:low_index_normal",),
          lambda a, k, tables: {"lowindex.low_index_normal.subgroups": len(tables)}),
    Layer("certificate.rg_artin", ("rgcost.certificate:rg_artin",), _rg_artin_counts),
    Layer("certificate.to_json", ("rgcost.certificate:certificate_to_json",),
          lambda a, k, text: {"certificate.json_bytes": len(text.encode("utf-8"))}),
    Layer("certificate.from_json", ("rgcost.certificate:certificate_from_json",)),
    Layer("certificate.check", ("rgcost.certificate:check_certificate",)),
    Layer("exprparse.parse_expr_file", ("rgcost.cli:parse_expr_file",)),
    Layer("groupexpr.evaluate", ("rgcost.groupexpr:evaluate",), _evaluate_counts),
    Layer("coxeter.rg_coxeter_planar", ("rgcost.coxeter:rg_coxeter_planar",)),
    Layer("lgraph.is_planar", ("rgcost.cli:is_planar", "rgcost.coxeter:is_planar")),
    Layer("lgraph.parse_graph", ("rgcost.cli:parse_graph", "rgcost.exprparse:parse_graph")),
)

# Counters that are a maximum over calls; every other counter is a sum.
MAX_COUNTERS = frozenset({"certificate.rg_artin.depth"})


def _resolve(target: str):
    """(owner, attribute, current value) for a target, or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = vars(owner).get(attr)
    else:
        value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Wraps the layers' targets while installed and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.sid if parent else None, name, self.op,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "span stack out of order"
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- patching ------------------------------------------------------
    def _wrap(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(layer.name) as span:
                result = fn(*args, **kwargs)
            if layer.count is not None:
                with tracer.span(COUNTER_SPAN):
                    span.counts = layer.count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for layer in LAYERS:
            resolved = [_resolve(t) for t in layer.targets]
            if any(r is None for r in resolved):
                self.missing.append(layer.name)
            for r in resolved:
                if r is None:
                    continue
                owner, attr, original = r
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def summary(self) -> dict[str, float]:
        """Per-layer self time, call count and counters over the recorded
        spans, keyed by metric name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name + ".self_s"] = out.get(s.name + ".self_s", 0.0) + s.self_s
            out[s.name + ".calls"] = out.get(s.name + ".calls", 0) + 1
            for key, value in s.counts.items():
                if key in MAX_COUNTERS:
                    out[key] = max(out.get(key, 0), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def records(self) -> list[dict]:
        return [
            {"id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
             "start": s.start, "end": s.end, "self_s": s.self_s, "counts": s.counts}
            for s in self.spans
        ]

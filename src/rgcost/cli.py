"""Command-line surface: artin, coxeter, expr, certify, verify.

All reports are plain text on stdout; structured artifacts (certificates,
traces, CSV) are written only through explicit output flags.  Exit codes:
0 success, 2 input/parse error or an output file that cannot be written,
3 hypothesis failure, a `verify` row below the symbolic value, or an
`expr` node whose values break betti1 - beta0 <= rank gradient, 4
certificate checker violation, 5 enumeration limit exceeded.  With --no-timestamp the output is
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from datetime import datetime, timezone

from . import certificate as cert_mod
from . import coxeter as cox_mod
from . import groupexpr as ge
from .exprparse import ExprParseError, parse_expr_file
from .fpgroup import (
    EnumerationLimit,
    NotHomomorphism,
    PresentationError,
    braid_graph,
    builtin_presentation,
    kernel_chain_cayley,
    low_index_normal,
    mod_cycle_images,
    parse_presentation,
    psl2z_images,
    rg_sequence,
    samples_to_csv,
    sl2_order,
    sl2z_images,
    trend_summary,
)
from .lgraph import GraphError, girth, is_planar, parse_graph

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_CHECKER = 4
EXIT_LIMIT = 5

CERT_BUILTINS = ("SL2Z", "AutF2", "MCG", "AutFn", "OutFn", "BnModCenter")
VERIFY_BUILTIN_HINT = "SL2Z, PSL2Z, dihedral-inf, braidN"


class Report:
    """Accumulated run report: command echo, input digests, result lines."""

    def __init__(self, argv, timestamp: bool):
        self.lines = ["# rgcost " + " ".join(argv)]
        if timestamp:
            self.lines.append("# generated " + datetime.now(timezone.utc).isoformat())

    def note_input(self, label: str, data: bytes):
        digest = hashlib.sha256(data).hexdigest()
        self.lines.append(f"# input {label} sha256={digest}")

    def add(self, line: str):
        self.lines.append(line)

    def emit(self):
        for line in self.lines:
            print(line)


def _read_file(path: str, report: Report) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from None
    report.note_input(path, data)
    return text


class _WriteError(Exception):
    """An output file could not be written; main reports it and exits 2."""


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from None


def _write_certificate(path: str, certificate):
    """Write the certificate's JSON, then parse that text back and check
    it: (the parsed certificate, the checker's result)."""
    text = cert_mod.certificate_to_json(certificate)
    _write_file(path, text)
    reread = cert_mod.certificate_from_json(text)
    return reread, cert_mod.check_certificate(reread)


# ---------------------------------------------------------------------------


def cmd_artin(args, report: Report) -> int:
    try:
        g = parse_graph(_read_file(args.graph, report))
    except GraphError as exc:
        report.add(f"error: {exc}")
        return EXIT_PARSE
    price, certificate = cert_mod.rg_artin(g)
    report.add(
        f"components={price.cost} cost={price.cost} rg={price.rank_gradient} "
        f"betti1={price.betti1}"
    )
    if args.certify:
        _, check = _write_certificate(args.certify, certificate)
        if not check.valid:
            for v in check.violations:
                report.add(f"violation: {v}")
            return EXIT_CHECKER
        report.add(f"certificate: {args.certify} (assumptions={len(check.assumptions)}, valid)")
    return EXIT_OK


def cmd_coxeter(args, report: Report) -> int:
    try:
        g = parse_graph(_read_file(args.graph, report))
    except GraphError as exc:
        report.add(f"error: {exc}")
        return EXIT_PARSE
    try:
        price, trace = cox_mod.rg_coxeter_planar(g)
    except cox_mod.HypothesisError as exc:
        report.add(f"hypothesis failed: {exc}")
        return EXIT_HYPOTHESIS
    report.add(f"hypotheses: girth={girth(g)} planar={str(is_planar(g)).lower()} OK")
    report.add(
        f"rg={price.rank_gradient} betti1={price.betti1} trace_sum={trace.total()} OK"
    )
    if args.trace:
        _write_file(args.trace, cox_mod.trace_to_json(trace))
        report.add(f"trace: {args.trace} ({len(trace.steps)} steps)")
    return EXIT_OK


def cmd_expr(args, report: Report) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
        report.note_input(args.file, data)
        expr = parse_expr_file(args.file)
    except (OSError, ExprParseError, GraphError, ValueError) as exc:
        report.add(f"error: {exc}")
        return EXIT_PARSE
    try:
        price = ge.evaluate(expr)
    except ge.InvariantError as exc:
        report.add(f"error: {exc}")
        return EXIT_HYPOTHESIS
    report.add(
        f"cost={price.cost} rg={price.rank_gradient} "
        f"betti1={price.betti1} fixed_price={str(price.fixed_price).lower()}"
    )
    report.add("rules:")
    for entry in price.rule_trace:
        report.add(f"  - {entry}")
    return EXIT_OK


def cmd_certify(args, report: Report) -> int:
    name = args.target
    if name in CERT_BUILTINS:
        try:
            certificate = cert_mod.builtin_certificate(name, args.param)
        except ValueError as exc:
            report.add(f"error: {exc}")
            return EXIT_PARSE
        out_path = args.out or _default_cert_path(name, args.param)
    else:
        if args.param is not None:
            report.add("error: graph-file targets take no parameter")
            return EXIT_PARSE
        try:
            g = parse_graph(_read_file(name, report))
        except GraphError as exc:
            report.add(f"error: {exc}")
            return EXIT_PARSE
        price, certificate = cert_mod.rg_artin(g)
        if price.cost != 1:
            report.add("error: use the artin command for multi-component graphs")
            return EXIT_PARSE
        out_path = args.out or (name + ".cert.json")

    reread, check = _write_certificate(out_path, certificate)
    report.add(f"certificate: {out_path}")
    if not check.valid:
        for v in check.violations:
            report.add(f"violation: {v}")
        report.add(f"valid=false assumptions={len(check.assumptions)}")
        return EXIT_CHECKER
    report.add(
        f"valid=true assumptions={len(check.assumptions)} cost={reread.root.cost}"
    )
    for a in check.assumptions:
        report.add(f"  assumes: {a}")
    return EXIT_OK


def _default_cert_path(name: str, param) -> str:
    return f"{name}{param if param is not None else ''}.cert.json"


def _symbolic_expr(name: str):
    if name == "SL2Z":
        return ge.AmalgamFinite(ge.Cyclic(6), ge.Cyclic(4), 2)
    if name == "PSL2Z":
        return ge.AmalgamFinite(ge.Cyclic(2), ge.Cyclic(3), 1)
    if name == "dihedral-inf":
        return ge.AmalgamFinite(ge.Cyclic(2), ge.Cyclic(2), 1)
    if name.startswith("braid"):
        return ge.ArtinGraph(braid_graph(int(name[len("braid"):])))
    return None


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def cmd_verify(args, report: Report) -> int:
    try:
        pres, text = builtin_presentation(args.target)
        report.note_input(f"builtin:{args.target}", text.encode("utf-8"))
        symbolic_expr = _symbolic_expr(args.target)
    except KeyError:
        try:
            pres = parse_presentation(_read_file(args.target, report))
        except (GraphError, PresentationError) as exc:
            report.add(f"error: {exc}")
            return EXIT_PARSE
        symbolic_expr = None
    except ValueError as exc:
        report.add(f"error: {exc}")
        return EXIT_PARSE

    if args.dump_presentation:
        report.add(pres.to_text().rstrip("\n"))
        return EXIT_OK

    chain_flags = [f for f in (args.mod, args.abelian_kill) if f] + (
        [args.low_index] if args.low_index is not None else [])
    if len(chain_flags) != 1:
        report.add("error: choose exactly one of --mod, --abelian-kill, --low-index")
        return EXIT_PARSE

    try:
        if args.mod:
            if args.target not in ("SL2Z", "PSL2Z"):
                report.add("error: --mod congruence chains exist only for SL2Z and PSL2Z")
                return EXIT_PARSE
            levels = _parse_int_list(args.mod)
            # The image builders list the whole quotient, so bound each
            # quotient's order before building any.  The order is above
            # n^3/4 (prod_p (1 - 1/p^2) > 6/pi^2, halved for PSL), so a
            # large level is rejected without factoring n.
            limit = args.coset_limit
            for n in levels:
                if n ** 3 > 4 * limit or sl2_order(n, args.target == "PSL2Z") > limit:
                    report.add(f"inconclusive: congruence level {n} exceeds the "
                               f"coset limit {limit}")
                    return EXIT_LIMIT
            build = sl2z_images if args.target == "SL2Z" else psl2z_images
            images = [build(n) for n in levels]
            tables = kernel_chain_cayley(pres, images, limit=args.coset_limit)
        elif args.abelian_kill:
            images = [mod_cycle_images(pres, k) for k in _parse_int_list(args.abelian_kill)]
            tables = kernel_chain_cayley(pres, images, limit=args.coset_limit)
        else:
            tables = low_index_normal(pres, args.low_index, limit=args.coset_limit)
        samples = rg_sequence(pres, tables)
    except NotHomomorphism as exc:
        report.add(f"error: {exc}")
        return EXIT_PARSE
    except EnumerationLimit as exc:
        report.add(f"inconclusive: {exc}")
        return EXIT_LIMIT
    except ValueError as exc:
        report.add(f"error: {exc}")
        return EXIT_PARSE

    csv_text = samples_to_csv(samples)
    for line in csv_text.rstrip("\n").split("\n"):
        report.add(line)
    if args.csv:
        _write_file(args.csv, csv_text)
        report.add(f"csv: {args.csv}")
    report.add("trend: " + trend_summary(samples))

    if symbolic_expr is not None:
        sym = ge.evaluate(symbolic_expr).rank_gradient
        # Gaboriau's index formula: d(H) - 1 >= [G:H](cost - 1), so every
        # row's r_upper bounds the rank gradient from above.
        below = next((s for s in samples if s.r_upper < sym), None)
        if below is not None:
            report.add(f"error: row at index {below.index} has r_upper {below.r_upper} "
                       f"below the symbolic rank gradient {sym}")
            return EXIT_HYPOTHESIS
        if samples and all(s.r_lower == s.r_upper == sym for s in samples):
            report.add(f"matches symbolic {sym}")
        else:
            report.add(f"symbolic target {sym}")
    else:
        report.add("symbolic value unknown")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgcost",
        description="Exact rank gradient / cost / first L2-Betti calculator with "
                    "certificates and an empirical verification engine.",
    )
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation timestamp (byte-stable output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("artin", help="price an Artin group from its defining graph")
    p.add_argument("graph")
    p.add_argument("--certify", metavar="PATH", help="write the decomposition certificate")

    p = sub.add_parser("coxeter", help="price a planar girth->=6 Coxeter group")
    p.add_argument("graph")
    p.add_argument("--trace", metavar="PATH", help="write the elimination trace")

    p = sub.add_parser("expr", help="evaluate a group-construction expression file")
    p.add_argument("file")

    p = sub.add_parser("certify", help="build and check a certificate")
    p.add_argument("target", help=f"builtin ({', '.join(CERT_BUILTINS)}) or a graph file")
    p.add_argument("param", nargs="?", type=int, default=None,
                   help="parameter for MCG/AutFn/OutFn/BnModCenter")
    p.add_argument("--out", metavar="PATH", help="output path for the certificate")

    p = sub.add_parser("verify", help="sample (d-1)/index along a chain of kernels")
    p.add_argument("target", help=f"builtin ({VERIFY_BUILTIN_HINT}) or a presentation file")
    p.add_argument("--mod", metavar="LIST", help="congruence levels, e.g. 3,4,5")
    p.add_argument("--abelian-kill", metavar="LIST",
                   help="kill the total exponent mod each k in the list")
    p.add_argument("--low-index", metavar="N", type=int, default=None,
                   help="use all normal subgroups of index <= N")
    p.add_argument("--coset-limit", metavar="N", type=int, default=100_000,
                   help="coset cap for enumerations and the low-index search "
                        "(default 100000)")
    p.add_argument("--csv", metavar="PATH", help="also write the sample rows as CSV")
    p.add_argument("--dump-presentation", action="store_true",
                   help="print the target's presentation file and exit")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(argv, timestamp=not args.no_timestamp)
    handler = {
        "artin": cmd_artin,
        "coxeter": cmd_coxeter,
        "expr": cmd_expr,
        "certify": cmd_certify,
        "verify": cmd_verify,
    }[args.command]
    try:
        code = handler(args, report)
    except _WriteError as exc:
        report.add(f"error: {exc}")
        code = EXIT_PARSE
    report.emit()
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

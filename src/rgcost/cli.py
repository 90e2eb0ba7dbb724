"""Command-line surface: artin, coxeter, expr, certify, verify.

All reports are plain text on stdout; structured artifacts (certificates,
traces, CSV) are written only through explicit output flags.  A command
returns nothing when it succeeds and raises when it fails; `main` alone
maps the exception's class to an exit code (`_ERRORS`), the same way for
every command: 0 success; 2 input/parse error, an input file that cannot
be read, an output file that cannot be written, or a `verify` level list
with no levels or a `verify` level or index out of range; 3 hypothesis
failure, a `verify` row below the symbolic value, or an `expr` node whose
values break betti1 - beta0 <= rank gradient; 4 the checker rejected a
certificate the command wrote, one `violation:` line each; 5 a budget
refused the run (`LimitExceeded`: a coset limit, or a builtin parameter or
congruence level past its cap), and the line names what it counted and the
limit.  With --no-timestamp the output is byte-identical across runs for
identical inputs.

A command loads only the engine it runs: `artin` and `certify` load
`certificate`, `coxeter` loads `coxeter` and `verify` loads `fpgroup`, so
a short run does not pay for the others at start-up.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys

from . import groupexpr as ge
from .exprparse import parse_expr_file
from .lgraph import girth, is_planar, parse_graph

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_CHECKER = 4
EXIT_LIMIT = 5


class CertificateRejected(Exception):
    """The checker found violations in a certificate a command wrote.  The
    message is one line per violation, so `main` prints each after its
    own "violation: " prefix."""

    def __init__(self, violations):
        super().__init__("\nviolation: ".join(violations))


# What a command raises, as exception -> (exit code, line prefix); main
# reports the first row that matches, so subclasses come before
# ValueError, and lets any other exception through.
_ERRORS = {
    ge.HypothesisError: (EXIT_HYPOTHESIS, "hypothesis failed"),
    ge.InvariantError: (EXIT_HYPOTHESIS, "error"),
    CertificateRejected: (EXIT_CHECKER, "violation"),
    ge.LimitExceeded: (EXIT_LIMIT, "inconclusive"),
    ValueError: (EXIT_PARSE, "error"),
}

# The `fpgroup` names `cmd_verify` uses, each with its submodule.  The
# module `__getattr__` binds each on first use, and `cmd_verify` looks
# them up on this module, so rebinding one here (as a tracer or a test
# does) changes what it calls.
_FPGROUP_NAMES = {
    "builtin_target": "builtins", "HARD_CAP": "lowindex", "low_index_normal": "lowindex",
    "parse_presentation": "presentation", "kernel_chain_cayley": "chains",
    "mod_cycle_images": "chains", "psl2z_images": "chains", "rg_sequence": "chains",
    "samples_to_csv": "chains", "sl2_order": "chains", "sl2z_images": "chains",
    "trend_summary": "chains",
}


def __getattr__(name: str):
    if name not in _FPGROUP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".fpgroup.{_FPGROUP_NAMES[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value


class Report:
    """Accumulated run report: command echo, input digests, result lines."""

    def __init__(self, argv, timestamp: bool):
        self.lines = ["# rgcost " + " ".join(argv)]
        if timestamp:
            from datetime import datetime, timezone
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
    """The UTF-8 text of an input file, whose digest goes on the report."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    report.note_input(path, data)
    return text


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _write_certificate(path: str, certificate):
    """Write the certificate's JSON, then parse that text back and check
    it: (the parsed certificate, the checker's report).  A report with
    violations raises CertificateRejected."""
    from . import certificate as cert_mod
    text = cert_mod.certificate_to_json(certificate)
    _write_file(path, text)
    reread = cert_mod.certificate_from_json(text)
    check = cert_mod.check_certificate(reread)
    if not check.valid:
        raise CertificateRejected(check.violations)
    return reread, check


# ---------------------------------------------------------------------------


def cmd_artin(args, report: Report):
    from . import certificate as cert_mod
    g = parse_graph(_read_file(args.graph, report))
    price, certificate = cert_mod.rg_artin(g)
    report.add(
        f"components={price.cost} cost={price.cost} rg={price.rank_gradient} "
        f"betti1={price.betti1}"
    )
    if args.certify:
        _, check = _write_certificate(args.certify, certificate)
        report.add(f"certificate: {args.certify} (assumptions={len(check.assumptions)}, valid)")


def cmd_coxeter(args, report: Report):
    from . import coxeter as cox_mod
    g = parse_graph(_read_file(args.graph, report))
    price, trace = cox_mod.rg_coxeter_planar(g)
    report.add(f"hypotheses: girth={girth(g)} planar={str(is_planar(g)).lower()} OK")
    report.add(
        f"rg={price.rank_gradient} betti1={price.betti1} trace_sum={trace.total()} OK"
    )
    if args.trace:
        _write_file(args.trace, cox_mod.trace_to_json(trace))
        report.add(f"trace: {args.trace} ({len(trace.steps)} steps)")


def cmd_expr(args, report: Report):
    price = ge.evaluate(parse_expr_file(args.file, _read_file(args.file, report)))
    report.add(
        f"cost={price.cost} rg={price.rank_gradient} "
        f"betti1={price.betti1} fixed_price={str(price.fixed_price).lower()}"
    )
    report.add("rules:")
    for entry in price.rule_trace:
        report.add(f"  - {entry}")


def cmd_certify(args, report: Report):
    from . import certificate as cert_mod
    name = args.target
    if name in cert_mod.BUILTINS:
        certificate = cert_mod.builtin_certificate(name, args.param)
        out_path = args.out or f"{name}{'' if args.param is None else args.param}.cert.json"
    else:
        if args.param is not None:
            raise ValueError("graph-file targets take no parameter")
        price, certificate = cert_mod.rg_artin(parse_graph(_read_file(name, report)))
        if price.cost != 1:
            raise ValueError("use the artin command for multi-component graphs")
        out_path = args.out or (name + ".cert.json")

    reread, check = _write_certificate(out_path, certificate)
    report.add(f"certificate: {out_path}")
    report.add(
        f"valid=true assumptions={len(check.assumptions)} cost={reread.root.cost}"
    )
    for a in check.assumptions:
        report.add(f"  assumes: {a}")


def _levels(text: str, flag: str, least: int) -> list[int]:
    levels = [int(part) for part in text.split(",") if part.strip()]
    if not levels:
        raise ValueError(f"{flag} lists no levels")
    if min(levels) < least:
        raise ValueError(f"{flag} levels must be >= {least}")
    return levels


def cmd_verify(args, report: Report):
    if args.coset_limit < 1:
        raise ValueError("--coset-limit must be >= 1")
    cli = sys.modules[__name__]  # the engine's names, through __getattr__
    if args.low_index is not None:
        if args.low_index < 1:
            raise ValueError("--low-index must be >= 1")
        if args.low_index > cli.HARD_CAP:
            raise ValueError(
                f"--low-index {args.low_index} exceeds the hard cap {cli.HARD_CAP}")
    if args.mod:
        levels = _levels(args.mod, "--mod", 2)
    elif args.abelian_kill:
        levels = _levels(args.abelian_kill, "--abelian-kill", 1)
    target = cli.builtin_target(args.target)
    if target is None:
        pres = cli.parse_presentation(_read_file(args.target, report))
    else:
        pres = target.presentation
        report.note_input(f"builtin:{args.target}", pres.to_text().encode("utf-8"))

    if args.dump_presentation:
        report.add(pres.to_text().rstrip("\n"))
        return

    chain_flags = [f for f in (args.mod, args.abelian_kill) if f] + (
        [args.low_index] if args.low_index is not None else [])
    if len(chain_flags) != 1:
        raise ValueError("choose exactly one of --mod, --abelian-kill, --low-index")

    limit = args.coset_limit
    if args.mod:
        if target is None or target.psl is None:
            raise ValueError("--mod congruence chains exist only for SL2Z and PSL2Z")
        # The image builders list the whole quotient, so bound each
        # quotient's order before building any.  The order is above
        # n^3/4 (prod_p (1 - 1/p^2) > 6/pi^2, halved for PSL), so a
        # large level is rejected without factoring n.
        for n in levels:
            if n ** 3 > 4 * limit or cli.sl2_order(n, target.psl) > limit:
                raise ge.LimitExceeded(f"congruence level {n} exceeds the coset limit {limit}")
        build = cli.psl2z_images if target.psl else cli.sl2z_images
        tables = cli.kernel_chain_cayley(pres, [build(n) for n in levels], limit=limit)
    elif args.abelian_kill:
        # The level-k images have degree k, so bound every level before
        # building any image.
        top = max(levels)
        if top > limit:
            from .fpgroup.coset import EnumerationLimit
            raise EnumerationLimit(top, limit, f"cosets needed by --abelian-kill level {top}")
        images = [cli.mod_cycle_images(pres, k) for k in levels]
        tables = cli.kernel_chain_cayley(pres, images, limit=limit)
    else:
        tables = cli.low_index_normal(pres, args.low_index, limit=limit)
    samples = cli.rg_sequence(pres, tables)

    csv_text = cli.samples_to_csv(samples)
    for line in csv_text.rstrip("\n").split("\n"):
        report.add(line)
    if args.csv:
        _write_file(args.csv, csv_text)
        report.add(f"csv: {args.csv}")
    report.add("trend: " + cli.trend_summary(samples))

    if target is None:
        report.add("symbolic value unknown")
        return
    sym = ge.evaluate(target.expr).rank_gradient
    # Gaboriau's index formula: d(H) - 1 >= [G:H](cost - 1), so every
    # row's r_upper bounds the rank gradient from above.
    below = next((s for s in samples if s.r_upper < sym), None)
    if below is not None:
        raise ge.InvariantError(f"row at index {below.index} has r_upper {below.r_upper} "
                                f"below the symbolic rank gradient {sym}")
    if samples and all(s.r_lower == s.r_upper == sym for s in samples):
        report.add(f"matches symbolic {sym}")
    else:
        report.add(f"symbolic target {sym}")


# ---------------------------------------------------------------------------


class _Listing(str):
    """Help text that lists an engine's builtins.  argparse %-formats a
    help string only when it prints it, so the engine loads only then."""

    def __new__(cls, module: str, make):
        self = super().__new__(cls, f"(listed from {module})")
        self.module, self.make = module, make
        return self

    def __mod__(self, params):
        return self.make(importlib.import_module(f".{self.module}", __package__)) % params


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
    p.add_argument("target", help=_Listing(
        "certificate", lambda m: f"builtin ({', '.join(m.BUILTINS)}) or a graph file"))
    p.add_argument("param", nargs="?", type=int, default=None, help=_Listing(
        "certificate", lambda m: "parameter for " + "/".join(
            name for name, (_, noun, _) in m.BUILTINS.items() if noun)))
    p.add_argument("--out", metavar="PATH", help="output path for the certificate")

    p = sub.add_parser("verify", help="sample (d-1)/index along a chain of kernels")
    p.add_argument("target", help=_Listing(
        "fpgroup.builtins", lambda m: f"builtin ({m.TARGET_HINT}) or a presentation file"))
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
    code = EXIT_OK
    try:
        handler(args, report)
    except tuple(_ERRORS) as exc:
        code, prefix = next(row for kind, row in _ERRORS.items() if isinstance(exc, kind))
        report.add(f"{prefix}: {exc}")
    report.emit()
    return code


def entry() -> None:
    """The console script: exit with `main`'s code, or with 1 and no
    traceback when the reader of stdout closes it early."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; point it at the
        # null device, so that flush cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()

"""Command-line surface: artin, coxeter, expr, certify, verify.

All reports are plain text on stdout; structured artifacts (certificates,
traces, CSV) are written only through explicit output flags.  A command
returns nothing when it succeeds and raises when it fails; `main` alone
maps the exception's class to an exit code (`_ERRORS`), the same way for
every command: 0 success (`--help` too); 2 input/parse error, an input
file that cannot be read, an output file that cannot be written, an
option its command refuses, or an argparse usage error; 3 hypothesis
failure or a `verify` row below the symbolic value; 4 the checker
rejected a certificate the command wrote, one `violation:` line each; 5
a budget refused the run (`LimitExceeded`: a count past its cap,
`--low-index` included, a count too long for any limit, or a coset
limit reached), and the line names what it counted and the limit.
With --no-timestamp the output is byte-identical across runs for
identical inputs.

`cmd_verify` checks every option before it reads the target or builds
any quotient: the `fpgroup` engine takes what passes as given and checks
none of it again.  Every count on the command line goes through
`numread.read_count`, and an error line names a file path through
`numread.quote`, cut to 20 characters like every other quoted input.

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
from .numread import LimitExceeded, quote, read_count

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
    LimitExceeded: (EXIT_LIMIT, "inconclusive"),
    ValueError: (EXIT_PARSE, "error"),
}

# The `fpgroup` names `cmd_verify` uses, each with its submodule.  The
# module `__getattr__` binds each on first use, and `cmd_verify` looks
# them up on this module, so rebinding one here (as a tracer or a test
# does) changes what it calls.  `cmd_verify` does not call
# `mod_cycle_images` (`exponent_kernel_samples` builds its images itself),
# but `perfbench/tracer.py` wraps it under this name, so it stays bound.
_FPGROUP_NAMES = {
    "builtin_target": "builtins", "HARD_CAP": "lowindex", "low_index_normal": "lowindex",
    "parse_presentation": "presentation", "exponent_kernel_samples": "chains",
    "kernel_chain_cayley": "chains", "mod_cycle_images": "chains",
    "psl2z_images": "chains", "rg_sequence": "chains", "samples_to_csv": "chains",
    "sl2_order": "chains", "sl2z_images": "chains", "trend_summary": "chains",
}


def __getattr__(name: str):
    if name not in _FPGROUP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".fpgroup.{_FPGROUP_NAMES[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value


class Report:
    """Accumulated run report: command echo, input digests, result lines."""

    def __init__(self, argv):
        self.lines = ["# rgcost " + " ".join(argv)]

    def note_input(self, label: str, data: bytes):
        digest = hashlib.sha256(data).hexdigest()
        self.lines.append(f"# input {label} sha256={digest}")

    def add(self, line: str):
        self.lines.append(line)

    def emit(self, timestamp: bool):
        if timestamp:
            from datetime import datetime, timezone
            self.lines.insert(1, "# generated " + datetime.now(timezone.utc).isoformat())
        for line in self.lines:
            print(line)


def _read_file(path: str, report: Report) -> str:
    """The UTF-8 text of an input file, whose digest goes on the report."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {quote(path)}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {quote(path)}: {exc}") from None
    report.note_input(path, data)
    return text


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {quote(path)}: {exc.strerror}") from None


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
    text = _read_file(args.file, report)
    price = ge.evaluate(parse_expr_file(args.file, text, report.note_input))
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
        _, noun, least = cert_mod.BUILTINS[name]
        if (noun is None) != (args.param is None):
            raise ValueError(f"{name} takes no parameter" if noun is None else
                             f"{name} requires a {noun} parameter >= {least}")
        param = None if noun is None else read_count(
            args.param, f"{name} {noun}", least, cert_mod.PARAM_CAP)
        certificate = cert_mod.builtin_certificate(name, param)
        out_path = args.out or f"{name}{'' if param is None else param}.cert.json"
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
    levels = [read_count(part, f"{flag} level", least)
              for part in text.split(",") if part.strip()]
    if not levels:
        raise ValueError(f"{flag} lists no levels")
    return levels


def cmd_verify(args, report: Report):
    # The gate: every option is checked before the target is read or any
    # quotient is built, so the engine below takes its inputs as given.
    cli = sys.modules[__name__]  # the engine's names, through __getattr__
    limit = read_count(args.coset_limit, "--coset-limit", 1)
    chain_flags = sum(map(bool, (args.mod, args.abelian_kill, args.low_index is not None)))
    if chain_flags != 1 and not args.dump_presentation:
        raise ValueError("choose exactly one of --mod, --abelian-kill, --low-index")
    if args.low_index is not None:
        max_index = read_count(args.low_index, "--low-index", 1, cli.HARD_CAP)
    if args.mod:
        levels = _levels(args.mod, "--mod", 2)
    elif args.abelian_kill:
        levels = _levels(args.abelian_kill, "--abelian-kill", 1)
    target = cli.builtin_target(args.target)
    if target is not None:
        pres = target.presentation
        report.note_input(f"builtin:{args.target}", pres.to_text().encode("utf-8"))
    if args.dump_presentation:
        pass  # it builds no chain, so no chain bound applies
    elif args.mod:
        if target is None or target.psl is None:
            raise ValueError("--mod congruence chains exist only for SL2Z and PSL2Z")
        # The image builders list the whole quotient, so bound each
        # quotient's order before building any.  The order is above
        # n^3/4 (prod_p (1 - 1/p^2) > 6/pi^2, halved for PSL), so a
        # large level is rejected without factoring n.
        group = "PSL" if target.psl else "SL"
        for n in levels:
            if n ** 3 > 4 * limit or cli.sl2_order(n, target.psl) > limit:
                raise LimitExceeded(f"--mod level {n}: {group}(2,Z/{n}) has more "
                                    f"elements than the coset limit {limit}")
    elif args.abelian_kill and max(levels) > limit:
        # The level-k image has degree k, so the top level bounds them all.
        from .fpgroup.coset import EnumerationLimit
        top = max(levels)
        raise EnumerationLimit(top, limit, f"cosets needed by --abelian-kill level {top}")

    if target is None:
        pres = cli.parse_presentation(_read_file(args.target, report))
    if args.dump_presentation:
        report.add(pres.to_text().rstrip("\n"))
        return

    if args.mod:
        build = cli.psl2z_images if target.psl else cli.sl2z_images
        samples = cli.rg_sequence(pres, cli.kernel_chain_cayley(pres, [build(n) for n in levels]))
    elif args.abelian_kill:
        samples = cli.exponent_kernel_samples(pres, levels)
    else:
        samples = cli.rg_sequence(pres, cli.low_index_normal(pres, max_index, limit=limit))

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
    # Every chain has a row: the gate requires a level, and the low-index
    # search always finds the whole group.
    if all(s.r_lower == s.r_upper == sym for s in samples):
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


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error raised as ValueError, so that `main`
    reports it like every other input error.  The message quotes argv
    words in full, so it is cut to 180 bytes.  Its subparsers share the
    class."""

    def error(self, message):
        cut = message.encode("utf-8")[:180].decode("utf-8", "ignore")
        raise ValueError(cut if cut == message else cut + "...")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("param", nargs="?", help=_Listing(
        "certificate", lambda m: "parameter for " + "/".join(
            name for name, (_, noun, _) in m.BUILTINS.items() if noun)))
    p.add_argument("--out", metavar="PATH", help="output path for the certificate")

    p = sub.add_parser("verify", help="sample (d-1)/index along a chain of kernels")
    p.add_argument("target", help=_Listing(
        "fpgroup.builtins", lambda m: f"builtin ({m.TARGET_HINT}) or a presentation file"))
    p.add_argument("--mod", metavar="LIST", help="congruence levels, e.g. 3,4,5")
    p.add_argument("--abelian-kill", metavar="LIST",
                   help="kill the total exponent mod each k in the list")
    p.add_argument("--low-index", metavar="N",
                   help="use all normal subgroups of index <= N")
    p.add_argument("--coset-limit", metavar="N", default="100000",
                   help="cap on enumerated cosets and on low-index search nodes "
                        "(default 100000)")
    p.add_argument("--csv", metavar="PATH", help="also write the sample rows as CSV")
    p.add_argument("--dump-presentation", action="store_true",
                   help="print the target's presentation file and exit")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse sets each option on this namespace as it reads it, so a
    # usage error after --no-timestamp still sees it
    args = argparse.Namespace()
    report = Report(argv)
    code = EXIT_OK
    try:
        build_parser().parse_args(argv, namespace=args)
        globals()["cmd_" + args.command](args, report)
    except SystemExit as exc:  # --help: argparse printed it and exits 0
        return exc.code
    except tuple(_ERRORS) as exc:
        code, prefix = next(row for kind, row in _ERRORS.items() if isinstance(exc, kind))
        report.add(f"{prefix}: {exc}")
    report.emit(timestamp=not args.no_timestamp)
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

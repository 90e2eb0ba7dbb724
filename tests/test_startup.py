"""Start-up: a command loads only the engine it runs, and the help text,
whose builtin lists are read from the engines when it is printed, stays
byte-identical.  Each case runs a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# Modules a short command must not pay for unless it runs them.
ENGINES = ("rgcost.certificate", "rgcost.coxeter", "rgcost.fpgroup", "rgcost.planarity")
# Standard modules that the start path (cli, groupexpr, exprparse, lgraph,
# numread) does without.
UNUSED = {"dataclasses", "inspect"}
TINY_EXPR = "(amalgam-finite (cyclic 6) (cyclic 4) 2)\n"


def imported(*args) -> set[str]:
    """The modules a fresh `python -X importtime *args` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, check=True)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def engines(modules: set[str]) -> set[str]:
    """The engines among `modules`, `fpgroup` submodules counted as `fpgroup`."""
    return {e for e in ENGINES for m in modules if m == e or m.startswith(e + ".")}


@pytest.mark.parametrize("package", ["rgcost", "rgcost.fpgroup"])
def test_package_loads_no_submodule(package):
    """The packages export nothing, so importing one loads none of its
    modules."""
    modules = imported("-c", f"import {package}")
    assert package in modules
    assert not {m for m in modules if m.startswith(package + ".")}


def test_import_loads_no_engine():
    modules = imported("-c", "import rgcost.cli")
    assert engines(modules) == set() and not {"datetime", "networkx"} & modules
    assert not UNUSED & modules


@pytest.mark.parametrize("timestamp", [False, True])
def test_datetime_loads_only_to_write_a_timestamp(timestamp, tmp_path):
    path = tmp_path / "tiny.expr"
    path.write_text(TINY_EXPR)
    flags = [] if timestamp else ["--no-timestamp"]
    modules = imported("-m", "rgcost.cli", *flags, "expr", str(path))
    assert ("datetime" in modules) == timestamp


@pytest.mark.parametrize("argv,expected", [
    (["--no-timestamp", "expr", "{expr}"], set()),
    (["--no-timestamp", "artin", "{graph}"], {"rgcost.certificate"}),
    (["--no-timestamp", "certify", "SL2Z", "--out", "{out}"], {"rgcost.certificate"}),
    (["--no-timestamp", "coxeter", "{graph}"], {"rgcost.coxeter", "rgcost.planarity"}),
    (["--no-timestamp", "verify", "SL2Z", "--mod", "3"], {"rgcost.fpgroup"}),
], ids=["expr", "artin", "certify", "coxeter", "verify"])
def test_command_loads_only_its_engine(argv, expected, tmp_path):
    (tmp_path / "tiny.expr").write_text(TINY_EXPR)
    (tmp_path / "b3.graph").write_text("vertex a\nvertex b\nedge a b 3\n")
    paths = {"expr": tmp_path / "tiny.expr", "graph": tmp_path / "b3.graph",
             "out": tmp_path / "sl2z.cert.json"}
    modules = imported("-m", "rgcost.cli", *(a.format(**paths) for a in argv))
    assert {"rgcost.groupexpr", "rgcost.exprparse", "rgcost.lgraph"} <= modules
    assert engines(modules) == expected and "networkx" not in modules
    if argv[1] == "expr":
        assert not UNUSED & modules


@pytest.mark.parametrize("command", ["", "artin", "coxeter", "expr", "certify", "verify"])
def test_help_is_unchanged(command):
    proc = subprocess.run([sys.executable, "-m", "rgcost.cli", *command.split(), "--help"],
                          capture_output=True, env=dict(os.environ, COLUMNS="80"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"help-{command or 'rgcost'}.txt").read_bytes()

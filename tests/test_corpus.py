"""The command corpus: every CLI behaviour is a row of expected output.

Each row is one file `tests/corpus/<command>/<name>.txt`.  It runs
`rgcost --no-timestamp ARGV...` in a fresh directory with COLUMNS=80 and
compares what the run printed, wrote and returned with what the row
expects.  A row has a header of directives, one per line, then sections
that each start with a line `-- NAME --`:

    # why the row exists                      (comment)
    run ARGV...                               (shell-quoted; required)
    exit N                                    (required)
    stderr empty | no-traceback | under N     (default: empty)
    stdout-under N                            (stdout is shorter than N bytes)
    seconds N                                 (the run takes less than N s)
    closed-pipe                               (stdout is closed after one line)
    recipe FILE RECIPE ARG...                 (an input file from RECIPES)
    sha256 stdout|FILE HEX                    (for an output over 64 KB)
    stdout-line TEXT                          (a line of a sha256-pinned stdout)
    -- in FILE --                             (an input file, byte for byte)
    -- stdout --                              (the expected stdout, byte for byte)
    -- out FILE --                            (an expected written file)

Anywhere in a row, `{C*N}` stands for the character C written N times,
so a 5,000-digit count or a 3,000-letter name stays one short token.
Every row also meets three rules of its own: no traceback on stdout or
stderr, the last stdout line of an exit 2-5 is at most 200 bytes, and
the directory ends holding only its inputs and the files the row
expects, so an output written where none is declared fails the row.

Run it two ways:

    pytest tests/test_corpus.py       # every row in process (in the suite)
    python tests/test_corpus.py       # every row through the `rgcost` on PATH

A row that fails prints what differs, as a unified diff for a section.
There is no switch that rewrites the corpus: an output change is made by
editing the row.  A closed-pipe row is a property of the process's stdout,
so in process it runs `python -m rgcost.cli` on the imported package.
"""

from __future__ import annotations

import contextlib
import difflib
import functools
import hashlib
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest

CORPUS = Path(__file__).resolve().parent / "corpus"
ENV = {"COLUMNS": "80"}
TIMEOUT = 600  # seconds before a hung run is stopped
SECTION = re.compile(rb"^-- (.+) --\n", re.M)


def _repeat(data: bytes) -> bytes:
    """`data` with every `{C*N}` written out."""
    return re.sub(rb"\{(.)\*(\d+)\}", lambda m: m[1] * int(m[2]), data)


# ---------------------------------------------------------------------------
# recipes: input files too large or too regular to write out


def finite_nest(depth):
    """A left nest of amalgam-finite nodes over (cyclic 6), `depth` deep."""
    text = "(cyclic 4)"
    for _ in range(int(depth) - 1):
        text = f"(amalgam-finite {text} (cyclic 6) 2)"
    return text + "\n"


def amenable_nest(depth):
    """A left nest of `depth` amalgam-amenable nodes over (z)."""
    text = "(free 2)"
    for _ in range(int(depth)):
        text = f"(amalgam-amenable {text} (z) (z))"
    return text + "\n"


def unwitnessed(depth):
    """`depth` generation nodes over one amalgam whose 199-node subgroup
    has no betti1 = 0 witness."""
    sub = finite_nest(100).strip()
    text = f"(amalgam-amenable (free 2) (free 2) {sub})"
    for _ in range(int(depth)):
        text = f'(generation {text} (z) "shared")'
    return text + "\n"


def honeycomb(rows, cols):
    """Brick-wall drawing of the honeycomb, (rows + 1) x (cols + 1)
    vertices, labels cycling through 2..6: planar with girth 6."""
    rows, cols = int(rows), int(cols)

    def name(i, j):
        return f"v{i}_{j}"

    lines = [f"vertex {name(i, j)}" for i in range(rows + 1) for j in range(cols + 1)]
    ends = []
    for i in range(rows + 1):
        for j in range(cols + 1):
            if j < cols:
                ends.append((name(i, j), name(i, j + 1)))
            if i < rows and (i + j) % 2 == 0:
                ends.append((name(i, j), name(i + 1, j)))
    lines += [f"edge {u} {v} {2 + k % 5}" for k, (u, v) in enumerate(ends)]
    return "\n".join(lines) + "\n"


def subdivided_k33(inner):
    """K3,3 with each edge a path through `inner` new vertices, label 2:
    girth 4 * (inner + 1) and not planar."""
    lines = [f"vertex s{k}" for k in range(6)]
    for u in range(3):
        for v in range(3, 6):
            ends = [f"s{u}", *(f"p{u}_{v}_{k}" for k in range(int(inner))), f"s{v}"]
            lines += [f"vertex {name}" for name in ends[1:-1]]
            lines += [f"edge {a} {b} 2" for a, b in zip(ends, ends[1:])]
    return "\n".join(lines) + "\n"


def labelled_path(n):
    """A path on `n` vertices with labels cycling through 2..7."""
    n = int(n)
    return ("".join(f"vertex v{i}\n" for i in range(n))
            + "".join(f"edge v{i} v{i + 1} {2 + i % 6}\n" for i in range(n - 1)))


def non_utf8():
    """A graph file whose second vertex name is the byte 0xff."""
    return b"vertex a\nvertex \xff\n"


RECIPES = {f.__name__.replace("_", "-"): f for f in (
    finite_nest, amenable_nest, unwitnessed, honeycomb, subdivided_k33, labelled_path,
    non_utf8)}


# ---------------------------------------------------------------------------
# rows


class Row:
    """One row, read from `tests/corpus/<name>.txt`."""

    def __init__(self, name: str):
        head, *sections = SECTION.split(_repeat((CORPUS / f"{name}.txt").read_bytes()))
        self.argv = self.exit = self.stdout_under = self.seconds = None
        self.stderr, self.closed_pipe = "empty", False
        self.inputs: dict[str, bytes] = {}
        self.expected: dict[str, bytes | tuple[str, list[str]]] = {}  # stdout and out files
        for line in head.decode("utf-8").splitlines():
            key, _, rest = line.partition(" ")
            if key == "run":
                self.argv = shlex.split(rest)
            elif key == "exit":
                self.exit = int(rest)
            elif key == "stderr":
                if rest not in ("empty", "no-traceback") and not re.fullmatch(r"under \d+", rest):
                    raise ValueError(f"{name}: unknown stderr rule {rest!r}")
                self.stderr = rest
            elif key == "stdout-under":
                self.stdout_under = int(rest)
            elif key == "seconds":
                self.seconds = float(rest)
            elif key == "closed-pipe":
                self.closed_pipe = True
            elif key == "recipe":
                file, recipe, *args = rest.split()
                data = RECIPES[recipe](*args)
                self.inputs[file] = data if isinstance(data, bytes) else data.encode("utf-8")
            elif key == "sha256":
                file, digest = rest.split()
                self.expected[file] = (digest, [])
            elif key == "stdout-line":
                self.expected["stdout"][1].append(rest)
            elif key and not key.startswith("#"):
                raise ValueError(f"{name}: unknown directive {key!r}")
        for title, body in zip(sections[::2], sections[1::2]):
            kind, _, file = title.decode("utf-8").partition(" ")
            if kind == "in":
                self.inputs[file] = body
            elif kind in ("stdout", "out"):
                self.expected[file or "stdout"] = body
            else:
                raise ValueError(f"{name}: unknown section {title!r}")
        if self.argv is None or self.exit is None or "stdout" not in self.expected:
            raise ValueError(f"{name}: a row needs run, exit and an expected stdout")


def row_names() -> list[str]:
    return sorted(p.relative_to(CORPUS).with_suffix("").as_posix() for p in CORPUS.rglob("*.txt"))


# ---------------------------------------------------------------------------
# replay


def _in_process(row: Row):
    """(exit code, stdout, stderr) of `main`, called in this process."""
    from rgcost.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--no-timestamp", *row.argv])
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _in_child(row: Row, command: list[str], env: dict[str, str]):
    """(exit code, stdout, stderr) of `command --no-timestamp ARGV`; with
    closed-pipe, stdout is its first line, read before the pipe closes."""
    argv = [*command, "--no-timestamp", *row.argv]
    if not row.closed_pipe:
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    out = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=TIMEOUT), out, err


def _package_command() -> tuple[list[str], dict[str, str]]:
    """`python -m rgcost.cli`, run on the package this process imports."""
    import rgcost

    root = str(Path(rgcost.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return [sys.executable, "-m", "rgcost.cli"], {"PYTHONPATH": path}


def run(row: Row, command: list[str] | None = None):
    """Run the row in a fresh directory, through `main` in this process
    when `command` is None: (exit code, stdout, stderr, seconds, what the
    run left there besides its inputs, as path -> bytes, None for a
    directory)."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, ENV):
        for file, data in row.inputs.items():
            (Path(tmp) / file).write_bytes(data)
        cwd = os.getcwd()
        os.chdir(tmp)
        start = time.perf_counter()
        try:
            if command is None and not row.closed_pipe:
                code, out, err = _in_process(row)
            else:
                extra = {}
                if command is None:
                    command, extra = _package_command()
                code, out, err = _in_child(row, command, {**os.environ, **extra})
        finally:
            seconds = time.perf_counter() - start
            os.chdir(cwd)
        left = {p.relative_to(tmp).as_posix(): p.read_bytes() if p.is_file() else None
                for p in Path(tmp).rglob("*")}
    for file in row.inputs:
        del left[file]
    return code, out, err, seconds, left


def replay(row: Row, command: list[str] | None = None) -> list[str]:
    """What differs between the row and its run: [] when it passes."""
    code, out, err, seconds, left = run(row, command)
    problems = [f"{file}: written, but the row expects no such file"
                for file in sorted(set(left) - set(row.expected))]
    if code != row.exit:
        problems.append(f"exit {code}, expected {row.exit}")
    for file, want in row.expected.items():
        problems += _compare(file, out if file == "stdout" else left.get(file), want)
    if b"Traceback" in out or b"Traceback" in err:
        problems.append("a traceback was printed")
    if ((row.stderr == "empty" and err) or
            (row.stderr.startswith("under ") and len(err) >= int(row.stderr[6:]))):
        problems.append(f"stderr breaks the rule '{row.stderr}': {err[-400:]!r}")
    last = out.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    if 2 <= row.exit <= 5 and len(last) > 200:
        problems.append(f"the last line has {len(last)} bytes, over 200")
    if row.stdout_under is not None and len(out) >= row.stdout_under:
        problems.append(f"stdout has {len(out)} bytes, not under {row.stdout_under}")
    if row.seconds is not None and seconds >= row.seconds:
        problems.append(f"the run took {seconds:.2f} s, not under {row.seconds:g}")
    return problems


def _compare(file: str, got: bytes | None, want) -> list[str]:
    if got is None:
        return [f"{file}: not written"]
    if isinstance(want, bytes):
        if got == want:
            return []
        diff = difflib.unified_diff(
            want.decode("utf-8", "replace").splitlines(keepends=True),
            got.decode("utf-8", "replace").splitlines(keepends=True),
            f"expected {file}", f"actual {file}")
        return ["".join(diff)]
    digest, lines = want
    problems = [] if hashlib.sha256(got).hexdigest() == digest else [
        f"{file}: sha256 {hashlib.sha256(got).hexdigest()}, expected {digest}"]
    have = set(got.decode("utf-8", "replace").splitlines())
    return problems + [f"{file}: no line {line!r}" for line in lines if line not in have]


# ---------------------------------------------------------------------------
# the suite: every row in process, each replayed once however many tests name it


@functools.cache
def _replayed(name: str) -> tuple[str, ...]:
    return tuple(replay(Row(name)))


def check(name: str) -> None:
    problems = _replayed(name)
    if problems:
        pytest.fail(f"corpus row {name}:\n" + "\n".join(problems), pytrace=False)


@pytest.mark.parametrize("name", row_names())
def test_row(name):
    check(name)


def aliases(*names: str):
    """A test that passes when the named rows do.  It keeps the id of a
    test whose assertions moved into those rows."""
    def test(self):
        for name in names:
            check(name)
    return test


def alias_cases(cases: dict[str, str | tuple[str, ...]]):
    """`aliases` for a parametrized test: case id -> its rows."""
    rows = [(rows,) if isinstance(rows, str) else rows for rows in cases.values()]

    @pytest.mark.parametrize("rows", rows, ids=list(cases))
    def test(self, rows):
        for name in rows:
            check(name)
    return test


def main() -> int:
    """Replay every row through the `rgcost` on PATH: 0 when all pass."""
    if shutil.which("rgcost") is None:
        print("no rgcost on PATH")
        return 2
    names = row_names()
    failed = 0
    for name in names:
        problems = replay(Row(name), ["rgcost"])
        if problems:
            failed += 1
            print(f"FAIL {name}", *problems, sep="\n")
    print(f"{len(names) - failed} of {len(names)} corpus rows pass through "
          f"{shutil.which('rgcost')}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

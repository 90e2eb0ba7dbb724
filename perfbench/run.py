"""rgcost benchmark: times the commands users run and the layers beneath.

Usage (from the repository root):

    python3 perfbench/run.py --workload congruence --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process per workload, single-threaded.  Inputs come from ``--seed``.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``, with tracing off.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics, taken from
the traced pass with the median wall time, so the layers' self times add
up to that pass's wall time.  Every operation's output goes through an
oracle; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted``/``failed`` count
the timed operations and cold-start spawns; the known-failure probes are
reported separately (``ok_ratio``, ``probe.failed``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SAMPLES = 9               # set-ups and cold-start spawns per run at least;
                          # setup_s and cold_start_s are their medians
SAMPLES_PER_PASS = 2      # of each, before every untraced pass
MIN_PASSES = 3            # untraced passes, even when one pass is long
OP_CAP_S = 60.0           # wall-clock cap on any single operation
PROBE_CAP_S = 30.0
RUN_BUDGET_S = 165.0      # the whole process, set-up included

_started = time.perf_counter()


class OpTimeout(BaseException):
    """Raised in the main thread when an operation passes its cap.

    A BaseException, so handlers inside the program that catch Exception
    cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Outcome:
    name: str
    seconds: float
    error: str | None      # None when the oracle passed
    kind: str = "ok"       # ok | wrong | raised | timeout


def _remaining() -> float:
    return RUN_BUDGET_S - (time.perf_counter() - _started)


def run_op(op, cap: float, tracer=None) -> Outcome:
    """Time one operation under a wall-clock cap, then check its output.

    When traced, the operation runs inside a root ``bench.harness`` span
    and its time is that span's duration, so span self times add up to it.
    """
    gc.collect()
    if cap <= 0:
        return Outcome(op.name, 0.0, "no time left in the run budget", "timeout")
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.harness") if tracer else contextlib.nullcontext() as span:
            result = op.run()
    except OpTimeout:
        return Outcome(op.name, time.perf_counter() - t0, f"passed the {cap:.0f} s cap",
                       "timeout")
    except Exception as exc:  # the operation failed; record it and go on
        return Outcome(op.name, time.perf_counter() - t0, type(exc).__name__, "raised")
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = span.end - span.start if span is not None else t1 - t0
    try:
        err = op.check(result)
    except Exception as exc:  # output too malformed for the oracle to read
        err = f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(op.name, seconds, err, "wrong" if err else "ok")


def run_pass(workload, rng, tracer=None) -> list[Outcome]:
    workload.clear_outputs()
    outcomes = []
    for op in workload.pass_order(rng):
        if tracer is not None:
            tracer.op += 1
        outcomes.append(run_op(op, min(OP_CAP_S, _remaining()), tracer))
    return outcomes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Time ``import rgcost.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rgcost.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import rgcost: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip())


def set_up(name: str, seed: int, work: Path) -> tuple[float, float, wl.Workload]:
    """One set-up: import ``rgcost.cli`` in a fresh interpreter, then
    generate the inputs into ``work``.  (import s, set-up s, workload)."""
    imp = import_seconds()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    workload = wl.WORKLOADS[name](random.Random(seed), str(work))
    return imp, imp + time.perf_counter() - t0, workload


def cold_start(tiny: Path, expected: str) -> Outcome:
    """Spawn ``python -m rgcost.cli --no-timestamp expr <tiny file>``."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rgcost.cli", "--no-timestamp", "expr", str(tiny)],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=min(PROBE_CAP_S, max(_remaining(), 1.0)))
    except subprocess.TimeoutExpired:
        return Outcome("cold start", time.perf_counter() - t0, "timeout", "timeout")
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        return Outcome("cold start", seconds, f"exit code {proc.returncode}", "raised")
    if expected not in proc.stdout.splitlines():
        return Outcome("cold start", seconds, "wrong expr output", "wrong")
    return Outcome("cold start", seconds, None)


def _wall(p) -> float:
    return sum(o.seconds for o in p)


def _emit(name: str, value, unit: str) -> None:
    shown = f"{value:.6f}" if isinstance(value, float) else str(value)
    print(f"  {name:<44} {shown:>14} {unit}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    work = OUT_DIR / f"work-{name}-{os.getpid()}"
    try:
        return _run_workload(name, seed, seconds, trace, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, spec, work: Path) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    imp, setup, workload = set_up(name, seed, work / "inputs")
    import_s, setups = [imp], [setup]
    sys.path.insert(0, str(SRC))
    import rgcost.cli  # noqa: F401  (the in-process passes use it)

    rng = random.Random(seed ^ 0x5EED)
    outcomes: list[Outcome] = []
    cold: list[Outcome] = []
    tiny = work / "tiny.expr"
    tiny.write_text(wl.COLD_START_EXPR, encoding="utf-8")

    def sample() -> None:
        """One more set-up (into a spare directory) and, untraced, one more
        cold start."""
        if not trace:
            cold.append(cold_start(tiny, wl.COLD_START_LINE))
            outcomes.append(cold[-1])
        imp, setup, _ = set_up(name, seed, work / "spare")
        import_s.append(imp)
        setups.append(setup)

    tracer = Tracer()
    untraced, traced, spans = [], [], []
    window_end = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if not trace:
            # Spread over the window, so the host's speed drift during the
            # run affects set-ups and cold starts as it affects the passes.
            for _ in range(SAMPLES_PER_PASS):
                sample()
        p = run_pass(workload, rng)
        untraced.append(p)
        outcomes += p
        if trace:
            tracer.reset()
            with tracer:
                p = run_pass(workload, rng, tracer)
            traced.append((p, tracer.summary()))
            spans += [dict(r, traced_pass=len(traced)) for r in tracer.records()]
            outcomes += p
        if any(o.kind == "timeout" for o in outcomes):
            break
        now = time.perf_counter()
        last = now - started
        enough = trace or len(untraced) >= MIN_PASSES
        if (enough and now + last > window_end) or now + 1.5 * last > _started + RUN_BUDGET_S:
            break
    while len(setups) < SAMPLES or (not trace and len(cold) < SAMPLES):
        sample()

    probes = [run_op(op, min(PROBE_CAP_S, _remaining())) for op in workload.probes]

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"untraced passes {len(untraced)}  traced passes {len(traced)}")
    for o in outcomes:
        if o.error:
            print(f"  FAILED {o.name}: {o.kind}: {o.error}")
    for o in probes:
        print(f"  known-failure {o.name}: {o.error or 'ok'} ({o.seconds:.3f} s, untimed)")

    # ok_ratio grades each distinct operation once (failed if any run of it
    # failed), plus each probe, so it does not drift with the pass count.
    names = {o.name for o in outcomes}
    failed_names = {o.name for o in outcomes if o.error is not None}
    failed_probes = sum(o.error is not None for o in probes)
    graded = len(names) + len(probes)
    ok_ratio = (graded - len(failed_names) - failed_probes) / graded
    attempted = len(outcomes)
    failed = sum(o.error is not None for o in outcomes)
    correct = not any(o.kind == "wrong" for o in outcomes + probes)

    values: dict[str, float] = {}
    if not trace:
        values["wall_s"] = statistics.median(_wall(p) for p in untraced)
        values["op_max_s"] = statistics.median(max(o.seconds for o in p) for p in untraced)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["cold_start_s"] = statistics.median(o.seconds for o in cold)
        values["ok_ratio"] = ok_ratio
        print(f"  fail_ratio {1 - ok_ratio:.4f} ratio ({len(failed_names) + failed_probes} "
              f"of {graded} distinct operations and probes failed)")
        wanted = spec["end_to_end"]
    else:
        # The traced pass with the (lower) median wall time.
        chosen, summary = sorted(traced, key=lambda t: _wall(t[0]))[(len(traced) - 1) // 2]
        values.update(summary)
        values["traced_wall_s"] = _wall(chosen)
        values["trace_overhead_s"] = _wall(chosen) - statistics.median(_wall(p) for p in untraced)
        values["cli.import_s"] = statistics.median(import_s)
        values["trace.missing_layers"] = len(tracer.missing)
        values["probe.failed"] = failed_probes
        for layer in tracer.missing:
            print(f"  layer {layer}: missing (a wrapped name no longer resolves)")
        accounted = sum(v for k, v in summary.items() if k.endswith(".self_s"))
        print(f"  layer self times sum to {accounted:.6f} s of traced wall_s "
              f"{_wall(chosen):.6f} s; untraced wall_s "
              f"{statistics.median(_wall(p) for p in untraced):.6f} s")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "workload": name, "seed": seed, "missing": tracer.missing,
            "probes": [{"name": o.name, "error": o.error} for o in probes],
            "spans": spans,
        }), encoding="utf-8")
        print(f"  spans: {trace_path.relative_to(ROOT)} ({len(spans)} spans)")
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        _emit(m["name"], value, m["unit"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=200)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="congruence, braid-abelian, low-index, symbolic or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "rgcost" / "cli.py").is_file():
        print(f"error: no rgcost sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())

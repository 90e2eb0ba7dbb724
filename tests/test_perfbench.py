"""The benchmark's tracer wraps library functions by name from outside the
package; a name that stops resolving turns its layer into a missing one.
The tracer is loaded read-only: no bytecode is written next to it."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = [t for layer in tracer.LAYERS for t in layer.targets]
    assert len(targets) > 20
    assert [t for t in targets if tracer._resolve(t) is None] == []

"""The benchmark's tracer wraps entry points by name; every name it
lists must still exist where it looks, or a traced run fails."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{t.owner}.{t.attr}"
        for t in tracer.TARGETS
        if t.attr not in tracer._resolve(t.owner).__dict__
    ]
    assert missing == []

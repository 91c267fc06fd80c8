"""The benchmark's tracer wraps entry points by name and reads fields of
their results; every name it lists must still exist where it looks, and
every report key it reads must still be there, or a traced run fails."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from degone.classify import bruen_drudge_search, enumerate_all
from degone.domains import build_johnson, build_polar
from degone.forms import standard_polar
from degone.gf import field_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(tracer):
    assert tracer.TARGETS
    missing = [
        f"{t.owner}.{t.attr}"
        for t in tracer.TARGETS
        if t.attr not in tracer._resolve(t.owner).__dict__
    ]
    assert missing == []


def test_tracer_counts_read_search_results(tracer):
    results = {
        "enumerate_all": enumerate_all(build_johnson(4, 2)),
        "bruen_drudge_search": bruen_drudge_search(3),
    }
    counted = set()
    for t in tracer.TARGETS:
        if t.attr in results and t.count is not None:
            c = Counter()
            t.count(c, (), results[t.attr])
            assert c["classify.nodes"] == results[t.attr].stats["nodes"] > 0
            counted.add(t.attr)
    assert counted == set(results)


def test_tracer_counts_catalog_entries_and_descriptors(tracer):
    # the tracer counts what degone.classify.catalog returns: its length
    # and each entry's descriptors
    import degone.classify

    dom = build_polar(standard_polar("O_plus", 2, field_spec(2)), 2)
    entries = degone.classify.catalog(dom)
    (target,) = [
        t for t in tracer.TARGETS if (t.owner, t.attr) == ("degone.classify", "catalog")
    ]
    c = Counter()
    target.count(c, (dom,), entries)
    assert c["catalogs.entries"] == len(entries) == 20
    assert c["catalogs.descriptors"] == sum(len(e.descriptor_json) for e in entries)
    assert c["catalogs.descriptors"] > len(entries)

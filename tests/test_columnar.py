"""The columnar report path against the per-solution one it replaced.

``records_oracle`` keeps the old BoolFn sort and record loop, and the
depth-first search of ``dfs_oracle`` supplies the solutions in the order
it finds them.  ``enumerate_all`` must give the same records in the same
order, the same counts, the same solution set and node count, and
``bruen_drudge_search`` the same sorted functions.
"""

import random

import pytest

import degone.catalogs as catalogs
from degone.classify import (
    SearchConfig,
    _bd_base,
    _build_problem,
    bruen_drudge_search,
    enumerate_all,
)
from dfs_oracle import dfs_search
from records_oracle import records_and_counts, sorted_functions
from test_domains import DOMAINS
from test_frontier import _pinned

# their catalogs walk cocliques for seconds before giving up: give up at once
SLOW_REFUSALS = ("O_odd(2,3)", "U_even(2,4)")


def _check(dom, cfg, fixed):
    want_bits, nodes, _, complete = dfs_search(_build_problem(dom, fixed), cfg)
    rep = enumerate_all(dom, cfg, fixed)
    records, counts = records_and_counts(dom, sorted_functions(dom, want_bits))
    assert [r.to_json() for r in rep.solutions] == [r.to_json() for r in records]
    assert rep.counts == counts
    assert rep.solution_bits() == set(want_bits)
    assert rep.complete == complete
    return rep, nodes


@pytest.mark.parametrize("name", list(DOMAINS))
def test_records_match_the_per_solution_loop(name, monkeypatch):
    if name in SLOW_REFUSALS:
        monkeypatch.setattr(catalogs, "COCLIQUE_GENERATION_LIMIT", 1000)
    dom = DOMAINS[name]()
    rep, nodes = _check(dom, SearchConfig(), _pinned(dom, random.Random(name)))
    assert rep.stats["nodes"] == nodes
    assert ("trivial" in rep.counts) == (name not in SLOW_REFUSALS)


@pytest.mark.parametrize("cap", [0, 1, 5, 17, 300])
def test_capped_records_are_the_first_solutions_sorted(cap):
    rep, _ = _check(DOMAINS["J_2(4,2)"](), SearchConfig(solution_cap=cap), None)
    assert len(rep.solutions) == cap and not rep.complete


def test_bd_solutions_are_the_sorted_search_solutions():
    dom, *_, fixed = _bd_base(3)
    want, *_ = dfs_search(_build_problem(dom, fixed), SearchConfig())
    bd = bruen_drudge_search(3)
    assert [f.bits for f in bd.solutions] == [
        f.bits for f in sorted_functions(dom, want)
    ]
    assert all(f.domain is dom for f in bd.solutions)

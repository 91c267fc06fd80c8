"""The frontier search against the depth-first search it replaced.

``dfs_oracle`` keeps the recursive search and the set-based greedy
order verbatim; every test here asks the frontier engine (and the
incremental order) for exactly their results: the ordered solution
list, the node count, every prune count and the complete flag.
"""

import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degone.classify as classify
from degone.classify import (
    FRONTIER_BYTES,
    SearchConfig,
    _bd_base,
    _build_problem,
    _chunk_size,
    _frontier_dtype,
    _greedy_order,
    _Level,
    _Problem,
    _search,
    _state_bytes,
    _test_children,
    degree1_space,
)
from degone.domains import build_grassmann
from degone.gf import field_spec
from dfs_oracle import dfs_search, greedy_order
from test_domains import DOMAINS


def _frontier(problem, cfg=SearchConfig()):
    rows, nodes, prunes, _peak, complete = _search(problem, cfg, None)
    solutions = [int.from_bytes(row.tobytes(), "little") for row in rows]
    return solutions, nodes, prunes, complete


def _assert_same(problem, cfg=SearchConfig()):
    want = dfs_search(problem, cfg)
    assert _frontier(problem, cfg) == want
    return want


def _pinned(dom, rng):
    """Pivots pinned (to random values) until the DFS stays small: at
    most 16 free pivots on a full-rank domain, 21 otherwise."""
    sp = degree1_space(dom)
    free = 16 if sp.dim == dom.v else 21
    return {p: rng.randint(0, 1) for p in sp.pivot_vertices[: max(0, sp.dim - free)]}


@pytest.mark.parametrize("name", list(DOMAINS))
def test_frontier_matches_dfs_on_domains(name):
    dom = DOMAINS[name]()
    fixed = _pinned(dom, random.Random(name))
    _assert_same(_build_problem(dom, fixed))


def _permuted(problem: _Problem, perm) -> _Problem:
    """The same problem with its positions in the order ``perm``."""
    return replace(
        problem,
        order_vertices=[problem.order_vertices[p] for p in perm],
        forced=[problem.forced[p] for p in perm],
        dep=problem.dep[:, perm],
    )


def test_frontier_matches_dfs_on_random_fixed_maps():
    """Each problem, and a seeded permutation of its positions: the
    second order must give the same solution set."""
    rng = random.Random(8)
    for name in ("M(2,2,1)", "J_2(4,2)", "O_plus(3,3)", "O_minus(2,2)", "H_2(2,2)"):
        dom = DOMAINS[name]()
        for _ in range(6):
            k = rng.randint(1, dom.v // 3)
            fixed = {i: rng.randint(0, 1) for i in rng.sample(range(dom.v), k)}
            problem = _build_problem(dom, fixed)
            perm = rng.sample(range(problem.dim), problem.dim)
            solutions, *_ = _assert_same(problem)
            again, *_ = _assert_same(_permuted(problem, perm))
            assert set(again) == set(solutions)


def test_frontier_matches_dfs_on_bd3():
    dom, *_, fixed = _bd_base(3)
    solutions, *_ = _assert_same(_build_problem(dom, fixed))
    assert solutions


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    monkeypatch.setattr(classify, "FRONTIER_BYTES", 1)
    for name in ("S4", "J_2(4,2)", "O_plus(3,3)", "Sp(2,2)"):
        problem = _build_problem(DOMAINS[name](), None)
        assert _chunk_size(problem, _frontier_dtype(problem), None) == 1
        _assert_same(problem)
    dom, *_, fixed = _bd_base(3)
    _assert_same(_build_problem(dom, fixed))


@pytest.mark.parametrize("cap", [0, 1, 5, 17, 300])
def test_capped_search_returns_the_dfs_first_n(cap):
    problem = _build_problem(DOMAINS["J_2(4,2)"](), None)
    cfg = SearchConfig(solution_cap=cap)
    solutions, nodes, _, complete = _frontier(problem, cfg)
    want, dfs_nodes, _, dfs_complete = dfs_search(problem, cfg)
    assert solutions == want and complete == dfs_complete
    full = dfs_search(problem, SearchConfig())
    assert solutions == full[0][:cap]
    # a chunk is expanded whole, so nodes lie between the DFS's and the full count
    assert dfs_nodes <= nodes <= full[1]


def test_object_dtype_path_matches(monkeypatch):
    problems = [
        _build_problem(DOMAINS[name](), None) for name in ("J_2(4,2)", "O_plus(3,3)")
    ]
    # a space of exact Python ints, two pivots and a non-pivot fixed: the
    # plan reads object arrays
    with monkeypatch.context() as m:
        m.setattr(classify, "INT64_BOUND", 0)
        wide = _build_problem(DOMAINS["J_2(4,2)"](), {0: 1, 3: 0, 20: 1})
    assert wide.dep.dtype == wide.t0.dtype == wide.t1.dtype == object
    assert (wide.t0 == wide.t1).sum() == 1
    assert _frontier_dtype(wide) == np.int16
    _assert_same(wide)
    monkeypatch.setattr(classify, "_frontier_dtype", lambda problem: object)
    for problem in problems + [wide]:
        _assert_same(problem)


def test_polar_census_search_unchanged():
    # C_2(3,2,0): the figures the depth-first search gave
    problem = _build_problem(DOMAINS["O_plus(3,2)"](), None)
    solutions, nodes, prunes, complete = _frontier(problem)
    assert complete and len(solutions) == 56996 and nodes == 1414586
    assert prunes == {"integrality": 489008, "interval": 161290, "divisibility": 0}
    # depth-first order: lexicographic in the pivot values by position
    keys = [[(b >> v) & 1 for v in problem.order_vertices] for b in solutions]
    assert keys == sorted(keys)


@pytest.mark.parametrize("budget", [FRONTIER_BYTES, 1 << 20])
def test_max_frontier_within_frontier_bytes(monkeypatch, budget):
    monkeypatch.setattr(classify, "FRONTIER_BYTES", budget)
    problem = _build_problem(DOMAINS["O_plus(3,2)"](), None)
    dtype = _frontier_dtype(problem)
    width = _state_bytes(problem, dtype)
    chunk = _chunk_size(problem, dtype, None)
    *_, peak, complete = _search(problem, SearchConfig(), None)
    assert complete and peak > chunk
    assert peak * width <= budget + chunk * width


def test_max_frontier_in_report():
    rep = classify.enumerate_all(DOMAINS["J_2(4,2)"]())
    assert rep.stats["max_frontier"] > 0
    assert "max_frontier" in rep.to_json()["stats"]


# --- the row test ----------------------------------------------------------


def _hand_level() -> _Level:
    """Three touched rows with targets 0 and 2: row 0 is complete, row 1
    can still gain 0 to 1, row 2 is complete."""
    return _Level(
        rows=np.array([0, 1, 2]),
        coeff=np.array([1, 1, 1]),
        negsuf=np.array([0, 0, 0]),
        possuf=np.array([0, 1, 0]),
        t0=np.array([0, 0, 0]),
        t1=np.array([2, 2, 2]),
    )


@pytest.mark.parametrize(
    "sums, survives, kind",
    [
        ([2, 1, 0], True, None),  # on target; row 1 can reach 2
        ([1, 0, 0], False, "integrality"),  # complete row off both targets
        ([0, 3, 2], False, "interval"),  # open row: [3, 4] holds no target
        ([1, 3, 1], False, "integrality"),  # rows 0, 1, 2 fail; row 0 first
        ([0, 3, 1], False, "interval"),  # rows 1, 2 fail; open row 1 first
    ],
)
def test_row_test_charges_first_failing_row(sums, survives, kind):
    prunes = {"integrality": 0, "interval": 0}
    ok = _test_children(_hand_level(), np.array([sums]), prunes)
    assert ok.tolist() == [survives]
    want = {"integrality": 0, "interval": 0}
    if kind:
        want[kind] = 1
    assert prunes == want


def test_row_test_counts_each_pruned_child_once():
    sums = np.array([[2, 1, 0], [1, 0, 0], [0, 3, 2], [1, 3, 1], [0, 3, 1]])
    prunes = {"integrality": 0, "interval": 0}
    ok = _test_children(_hand_level(), sums, prunes)
    assert ok.tolist() == [True, False, False, False, False]
    assert prunes == {"integrality": 2, "interval": 2}


# --- synthetic problems ---------------------------------------------------


def _random_problem(rng: random.Random) -> _Problem:
    """A small problem: random rows over random positions, random forced
    positions and single (fixed) targets."""
    dim = rng.randint(1, 9)
    nrows = rng.randint(0, 8)
    dep = np.zeros((nrows, dim), dtype=np.int64)
    scale = np.array([rng.randint(1, 3) for _ in range(nrows)], dtype=np.int64)
    t0, t1 = np.zeros_like(scale), scale.copy()
    for r in range(nrows):
        for p in rng.sample(range(dim), rng.randint(1, dim)):
            dep[r, p] = rng.choice([-3, -2, -1, 1, 1, 2, 3])
        if rng.random() < 0.2:
            t0[r] = t1[r] = rng.randint(0, 1) * scale[r]
    forced = [rng.choice([None, None, None, 0, 1]) for _ in range(dim)]
    return _Problem(
        dim + nrows,
        list(range(dim)),
        forced,
        np.arange(dim, dim + nrows),
        dep,
        scale,
        t0,
        t1,
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_synthetic_problems_match_dfs(seed):
    """The frontier against the DFS at the default and at a one-state
    chunk; under a cap only the solutions and the flag must agree."""
    rng = random.Random(seed)
    problem = _random_problem(rng)
    cap = rng.choice([None, None, 0, 1, 3])
    cfg = SearchConfig(solution_cap=cap)
    want = dfs_search(problem, cfg)
    for budget in (FRONTIER_BYTES, 1):
        with mock.patch.object(classify, "FRONTIER_BYTES", budget):
            got = _frontier(problem, cfg)
        if cap is None:
            assert got == want
        else:
            assert (got[0], got[3]) == (want[0], want[3])


# --- the incremental greedy order ------------------------------------------


def _check_order(dom, fixed):
    sp = degree1_space(dom)
    support = np.asarray(sp.dependency != 0, dtype=bool)
    chosen = np.array([p in fixed for p in sp.pivot_vertices], dtype=bool)
    got = [sp.pivot_vertices[i] for i in _greedy_order(support, chosen)]
    supports = [
        {sp.pivot_vertices[i] for i in np.flatnonzero(row)} for row in support
    ]
    pre = {p for p in sp.pivot_vertices if p in fixed}
    assert got == greedy_order(sp.pivot_vertices, supports, pre)


@pytest.mark.parametrize("name", list(DOMAINS))
def test_incremental_greedy_order_matches_reference(name):
    dom = DOMAINS[name]()
    _check_order(dom, {})
    rng = random.Random(name)
    for _ in range(3):
        k = rng.randint(1, dom.v)
        _check_order(dom, {i: 0 for i in rng.sample(range(dom.v), k)})


@pytest.mark.parametrize("q", [3, 4, 5])
def test_incremental_greedy_order_on_grassmann_q42(q):
    _check_order(build_grassmann(field_spec(q), 4, 2), {})

"""The recursive depth-first search and the set-based greedy order that
``classify``'s frontier engine and incremental order replaced, kept as
the differential reference for them (verbatim but for the weight
divisibility prune, which both engines dropped)."""

from __future__ import annotations

import time

from degone.classify import SearchConfig, _Problem


class _Stop(Exception):
    """Ends the search early: time budget exceeded or solution cap reached."""


def greedy_order(pivots, dep_supports, pre_chosen):
    """Static order maximizing rows fully determined early.

    Each step picks the pivot completing the most still-open rows;
    ties break by coverage of open rows, then by vertex id.
    """
    remaining = [p for p in pivots if p not in pre_chosen]
    chosen = set(pre_chosen)
    open_rows = [set(s) - chosen for s in dep_supports]
    order = []
    while remaining:
        best = None
        for p in remaining:
            completes = sum(1 for s in open_rows if len(s) == 1 and p in s)
            coverage = sum(1 for s in open_rows if p in s)
            key = (-completes, -coverage, p)
            if best is None or key < best[0]:
                best = (key, p)
        p = best[1]
        order.append(p)
        remaining.remove(p)
        for s in open_rows:
            s.discard(p)
    return order


class _Solver:
    """Depth-first assignment with incremental row propagation."""

    def __init__(self, problem: _Problem):
        p = self.p = problem
        nrows = len(p.row_entries)
        self.sums = [0] * nrows
        self.cnt = [len(e) for e in p.row_entries]
        self.rowval = [-1] * nrows
        self.pivval = [-1] * p.dim
        touch = [[] for _ in range(p.dim)]
        for r, entries in enumerate(p.row_entries):
            for li, (pos, a) in enumerate(entries):
                touch[pos].append((r, a, li))
        self.touch = touch
        self.possuf = []
        self.negsuf = []
        for entries in p.row_entries:
            ps = [0] * (len(entries) + 1)
            ns = [0] * (len(entries) + 1)
            for i in range(len(entries) - 1, -1, -1):
                a = entries[i][1]
                ps[i] = ps[i + 1] + (a if a > 0 else 0)
                ns[i] = ns[i + 1] + (a if a < 0 else 0)
            self.possuf.append(ps)
            self.negsuf.append(ns)
        self.nodes = 0
        self.prunes = {"integrality": 0, "interval": 0, "divisibility": 0}

    def push(self, pos: int, b: int):
        """Assign pivot at ``pos``; returns (ok, prune_kind, trail)."""
        sums, cnt, rowval = self.sums, self.cnt, self.rowval
        targets = self.p.row_targets
        scale = self.p.row_scale
        trail = []
        ok = True
        kind = None
        self.pivval[pos] = b
        for r, a, li in self.touch[pos]:
            sums[r] += a * b
            cnt[r] -= 1
            trail.append((r, a * b))
            s = sums[r]
            if cnt[r] == 0:
                if s not in targets[r]:
                    ok = False
                    kind = "integrality"
                    break
                rowval[r] = 1 if s == scale[r] and s != 0 else 0
            else:
                lo = s + self.negsuf[r][li + 1]
                hi = s + self.possuf[r][li + 1]
                if not any(lo <= t <= hi for t in targets[r]):
                    ok = False
                    kind = "interval"
                    break
        return ok, kind, trail

    def pop(self, pos: int, trail):
        sums, cnt, rowval = self.sums, self.cnt, self.rowval
        for r, delta in reversed(trail):
            if cnt[r] == 0:
                rowval[r] = -1
            cnt[r] += 1
            sums[r] -= delta
        self.pivval[pos] = -1

    def bits(self) -> int:
        out = 0
        for pos, vert in enumerate(self.p.order_vertices):
            if self.pivval[pos]:
                out |= 1 << vert
        for r, vert in enumerate(self.p.row_vertices):
            if self.rowval[r]:
                out |= 1 << vert
        return out


def dfs_search(problem: _Problem, cfg: SearchConfig):
    """Depth-first search over every pivot position in order.  Returns
    the solution bit masks in the order found (at most the cap), the
    node and prune counts, and whether the search ran to the end."""
    deadline = None
    if cfg.time_budget is not None:
        deadline = time.monotonic() + cfg.time_budget
    solver = _Solver(problem)
    cap = cfg.solution_cap
    solutions: list[int] = []

    def rec(pos):
        if pos == problem.dim:
            solutions.append(solver.bits())
            if cap is not None and len(solutions) >= cap:
                raise _Stop
            return
        forced = problem.forced[pos]
        for b in (0, 1) if forced is None else (forced,):
            solver.nodes += 1
            if deadline is not None and solver.nodes % 256 == 0:
                if time.monotonic() > deadline:
                    raise _Stop
            ok, kind, trail = solver.push(pos, b)
            if ok:
                rec(pos + 1)
            else:
                solver.prunes[kind] += 1
            solver.pop(pos, trail)

    try:
        rec(0)
        complete = cap is None or len(solutions) < cap
    except _Stop:
        complete = False
    return solutions[:cap], solver.nodes, solver.prunes, complete

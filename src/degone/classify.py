"""Exact degree-1 membership and complete enumeration by pivot search.

The degree-1 functions on a domain form the column span of the
incidence matrix [1 | X].  A fixed set of pivot vertices (one per
dimension) determines every function in that span; each remaining
vertex y carries an integer dependency row D[y] and a positive scale
s[y] with s[y] * f(y) = D[y] . f(pivots) for every f in the span.

The pivots and rows are the leftmost-pivot RREF of A = [1 | X]^T over
Q, computed without rational arithmetic: A is eliminated modulo a
31-bit prime, each RREF entry is rebuilt by rational reconstruction,
and the result is certified by one exact integer product,
A[:, pivots] D^T == A[:, nonpivots] * s, together with D[y, i] == 0
wherever pivot i lies right of y.  Pivot columns independent mod p are
independent over Q, so the certificate forces the rational RREF's pivot
set and rows.  A failed reconstruction or certificate brings in the
next prime (residues combined by CRT); when the fixed prime list runs
out the elimination raises ``CertificateError`` instead of guessing.

The enumeration assigns 0/1 to pivots depth-first in a static order,
propagates every dependency row as soon as its pivots are all fixed,
and prunes by integrality, by achievable-value intervals, and (when
enabled) by weight divisibility.  All prunes are sound: no Boolean
solution is ever lost.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .boolfn import BoolFn
from .catalogs import CatalogError, catalog, match_catalog
from .domains import (
    Domain,
    build_bilinear,
    build_grassmann,
    coordinate_column_bits,
    vertices_inside_bits,
)
from .forms import standard_polar
from .gf import field_spec
# unused here, but perfbench's tracer wraps these names in this module
from .ratlinalg import kernel_from_rref, rref, scale_to_int  # noqa: F401
from .scheme import check_neighbor_condition, divisor_defined, weight_divisor
from .subspaces import Subspace


class ClassifyError(ValueError):
    """Invalid classification request or violated precondition."""


class CertificateError(ClassifyError):
    """Modular elimination could not be certified with the fixed primes."""


MAX_UNBOUNDED_DIM = 40


# --- certified modular elimination --------------------------------------

# 31-bit primes: residues below 2^31 keep every product inside int64
PRIMES = (
    2147483647,
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
)

INT64_BOUND = 2**62


def _int_dtype(bound: int):
    """int64 when every product stays below 2^62, else exact Python ints."""
    return np.int64 if bound < INT64_BOUND else object


def _rref_mod(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Leftmost-pivot RREF of the integer matrix ``a`` modulo ``p``:
    the pivot columns and the nonzero rows, residues in [0, p)."""
    m = a % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), p - 2, p) % p
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(m[hit, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots, m[:r]


def _ratrecon(u: int, m: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction: n/d == u mod m with |n|, d at most
    sqrt(m/2) and gcd(n, d) == 1, or None when no such fraction exists."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct(residues: np.ndarray, modulus: int):
    """Integer rows D and scales from the residues of R[:, nonpivots],
    one reconstruction per distinct residue; None if one fails."""
    values, inverse = np.unique(residues, return_inverse=True)
    inverse = inverse.reshape(residues.shape).T  # nonpivots x rank
    fracs = [_ratrecon(int(u), modulus) for u in values.tolist()]
    if any(f is None for f in fracs):
        return None
    nums = [f[0] for f in fracs]
    dens = [f[1] for f in fracs]
    scale = [lcm(*{dens[k] for k in row}) for row in inverse.tolist()]
    width = max(scale, default=1) * max(map(abs, nums), default=0)
    dtype = _int_dtype(width)
    num = np.array(nums, dtype=dtype)[inverse]
    den = np.array(dens, dtype=dtype)[inverse]
    scale = np.array(scale, dtype=dtype)
    return num * (scale[:, None] // den), scale


def _certify(a: np.ndarray, pivots, nonpivots, dep, scale) -> bool:
    """Exact check that column y of ``a`` is (dep[y] / scale[y]) times the
    pivot columns left of y, for every non-pivot y."""
    left = np.asarray(pivots)[None, :] < np.asarray(nonpivots)[:, None]
    if dep[~left].any():
        return False
    amax = int(np.abs(a).max(initial=0))
    dmax = int(np.abs(dep).max(initial=0))
    smax = int(scale.max(initial=0))
    dtype = _int_dtype(amax * max(len(pivots) * dmax, smax))
    a = a.astype(dtype, copy=False)
    lhs = a[:, pivots] @ dep.astype(dtype, copy=False).T
    return bool((lhs == a[:, nonpivots] * scale.astype(dtype, copy=False)).all())


def certified_rref(a: np.ndarray):
    """Pivot columns, non-pivot columns, integer dependency rows and
    scales of the leftmost-pivot RREF of the int64 matrix ``a`` over Q.

    Row j of the returned matrix, divided by scale[j], is the RREF column
    of non-pivot j over the pivots; each scale is the lcm of that
    column's reduced denominators, exactly as ``ratlinalg.scale_to_int``
    gives it.  Raises ``CertificateError`` if no prime combination in
    ``PRIMES`` yields a certified result.
    """
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    best = None  # (pivots, residues, modulus)
    for p in PRIMES:
        pivots, red = _rref_mod(a, p)
        # the column count pads the shorter profile: a lost pivot is worse
        if best is None or pivots + [ncols] < best[0] + [ncols]:
            # a smaller leftmost profile means every earlier prime was
            # unlucky (it divided a minor of A): start over from this one
            best = (pivots, red, p)
        elif pivots == best[0]:
            prev, modulus = best[1], best[2]
            t = (red.astype(object) - prev) * pow(modulus, -1, p) % p
            best = (pivots, prev + modulus * t, modulus * p)
        else:
            continue
        pivots, red, modulus = best
        pivset = set(pivots)
        nonpivots = [y for y in range(ncols) if y not in pivset]
        got = _reconstruct(red[:, nonpivots], modulus)
        if got is not None and _certify(a, pivots, nonpivots, *got):
            return pivots, nonpivots, got[0], got[1]
    raise CertificateError(
        f"elimination of a {a.shape[0]}x{a.shape[1]} matrix not certified "
        f"with {len(PRIMES)} primes"
    )


# --- the degree-1 space -------------------------------------------------


@dataclass(frozen=True)
class Degree1Space:
    """Pivot vertices and, per non-pivot vertex y (ascending), the integer
    row ``dependency[j]`` and ``scale[j]`` with
    scale[j] * f(y) == dependency[j] . f(pivots) for every f in the span.

    Both arrays are int64 when dim * max|dependency| and every scale stay
    below 2^62, and exact Python-int object arrays otherwise.
    """

    domain: Domain
    dim: int
    pivot_vertices: tuple[int, ...]
    nonpivot_vertices: tuple[int, ...]
    dependency: np.ndarray  # (v - dim) x dim
    scale: np.ndarray  # (v - dim,), positive
    gather: np.ndarray  # pivot then non-pivot vertices, to index f by


def degree1_space(domain: Domain) -> Degree1Space:
    got = domain._cache.get("deg1space")
    if got is None:
        pivots, nonpivots, dep, scale = certified_rref(domain.incidence.T)
        dmax = int(np.abs(dep).max(initial=0))
        dtype = _int_dtype(max(len(pivots) * dmax, int(scale.max(initial=0))))
        got = Degree1Space(
            domain,
            len(pivots),
            tuple(pivots),
            tuple(nonpivots),
            dep.astype(dtype),
            scale.astype(dtype),
            np.array(pivots + nonpivots, dtype=np.intp),
        )
        domain._cache["deg1space"] = got
    return got


def is_degree_one(domain: Domain, f: BoolFn) -> bool:
    """Span membership: scale[j] * f(y_j) == dependency[j] . f(pivots)."""
    if not domain.compatible(f.domain):
        raise ClassifyError("function does not live on this domain")
    space = degree1_space(domain)
    raw = np.frombuffer(f.bits.to_bytes((domain.v + 7) // 8, "little"), np.uint8)
    x = np.unpackbits(raw, bitorder="little")[space.gather].astype(space.scale.dtype)
    lhs = space.dependency @ x[: space.dim]
    return lhs.tolist() == (space.scale * x[space.dim :]).tolist()


# --- search configuration and report ------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    use_divisibility: bool = True
    use_neighbor_condition: bool = False
    vertex_order: str = "greedy-propagation"
    solution_cap: int | None = None
    time_budget: float | None = None
    workers: int = 1
    reduced_only: bool = False  # experimental; see enumerate_all docstring

    def __post_init__(self):
        if self.vertex_order not in ("pivot-default", "greedy-propagation"):
            raise ClassifyError(f"unknown vertex order {self.vertex_order!r}")
        if self.solution_cap is not None and self.solution_cap < 0:
            raise ClassifyError("solution cap must be nonnegative")
        if self.time_budget is not None and self.time_budget < 0:
            raise ClassifyError("time budget must be nonnegative")
        if self.workers < 1:
            raise ClassifyError("workers must be >= 1")

    def to_json(self):
        out = asdict(self)
        # worker count never changes the result, so it is not part of
        # the reproducibility-relevant configuration
        out.pop("workers")
        return out


@dataclass
class SolutionRecord:
    hex: str
    weight: int
    trivial: bool | None
    descriptors: list
    note: str | None = None

    def to_json(self):
        out = {
            "hex": self.hex,
            "weight": self.weight,
            "trivial": self.trivial,
            "descriptors": self.descriptors,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ClassificationReport:
    domain_manifest: dict
    dim: int
    solutions: list[SolutionRecord]
    counts: dict
    stats: dict
    complete: bool
    config: dict

    def solution_bits(self) -> set[int]:
        return {int(s.hex, 16) for s in self.solutions}

    def to_json(self, include_timing: bool = False) -> dict:
        stats = dict(self.stats)
        if not include_timing:
            stats.pop("wall_ms", None)
        return {
            "domain": self.domain_manifest,
            "dim": self.dim,
            "solutions": [s.to_json() for s in self.solutions],
            "counts": self.counts,
            "stats": stats,
            "complete": self.complete,
            "config": self.config,
        }


# --- the propagation search ----------------------------------------------


@dataclass
class _Problem:
    v: int
    dim: int
    order_vertices: list[int]  # pivot vertex id at each assignment position
    forced: list  # forced 0/1 per position, or None
    row_vertices: list[int]
    row_scale: list[int]
    row_targets: list[tuple[int, ...]]
    row_entries: list[list[tuple[int, int]]]  # (position, coeff), by position
    divisor: int


class _Stop(Exception):
    def __init__(self, reason):
        self.reason = reason


def _greedy_order(pivots, dep_supports, pre_chosen):
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


def _build_problem(domain: Domain, cfg: SearchConfig, fixed: dict | None) -> _Problem:
    space = degree1_space(domain)
    fixed = dict(fixed or {})
    for y, val in fixed.items():
        if val not in (0, 1):
            raise ClassifyError("fixed values must be 0/1")
        if not 0 <= y < domain.v:
            raise ClassifyError("fixed vertex out of range")
    divisor = 1
    if cfg.use_divisibility and divisor_defined(domain):
        divisor = weight_divisor(domain)

    pivots = space.pivot_vertices
    pivpos_of_vertex = {}
    fixed_pivots = sorted(p for p in pivots if p in fixed)
    free_pivots = [p for p in pivots if p not in fixed]
    dep_rows = space.dependency.tolist()
    supports = [{pivots[i] for i, c in enumerate(row) if c} for row in dep_rows]
    if cfg.vertex_order == "greedy-propagation":
        free_order = _greedy_order(free_pivots, supports, set(fixed_pivots))
    else:
        free_order = sorted(free_pivots)
    order_vertices = fixed_pivots + free_order
    for pos, p in enumerate(order_vertices):
        pivpos_of_vertex[p] = pos
    forced = [fixed.get(p) for p in order_vertices]

    row_vertices, row_scale, row_targets, row_entries = [], [], [], []
    for y, scale, row in zip(
        space.nonpivot_vertices, space.scale.tolist(), dep_rows
    ):
        entries = sorted(
            (pivpos_of_vertex[pivots[i]], c) for i, c in enumerate(row) if c
        )
        row_vertices.append(y)
        row_scale.append(scale)
        if y in fixed:
            row_targets.append((fixed[y] * scale,))
        else:
            row_targets.append((0, scale))
        row_entries.append(entries)
    return _Problem(
        domain.v,
        space.dim,
        order_vertices,
        forced,
        row_vertices,
        row_scale,
        row_targets,
        row_entries,
        divisor,
    )


class _Solver:
    """Depth-first assignment with incremental row propagation."""

    def __init__(self, problem: _Problem):
        p = self.p = problem
        nrows = len(p.row_entries)
        self.sums = [0] * nrows
        self.cnt = [len(e) for e in p.row_entries]
        self.rowval = [-1] * nrows
        self.pivval = [-1] * p.dim
        self.weight = 0
        self.undet = p.v
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
        self.prunes = {
            "integrality": 0,
            "interval": 0,
            "divisibility": 0,
            "neighbor": 0,
            "reduced": 0,
        }

    def push(self, pos: int, b: int):
        """Assign pivot at ``pos``; returns (ok, prune_kind, trail, dw, du)."""
        sums, cnt, rowval = self.sums, self.cnt, self.rowval
        targets = self.p.row_targets
        scale = self.p.row_scale
        trail = []
        dw = b
        du = 1
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
                val = 1 if s == scale[r] and s != 0 else 0
                rowval[r] = val
                dw += val
                du += 1
            else:
                lo = s + self.negsuf[r][li + 1]
                hi = s + self.possuf[r][li + 1]
                if not any(lo <= t <= hi for t in targets[r]):
                    ok = False
                    kind = "interval"
                    break
        self.weight += dw
        self.undet -= du
        if ok and self.p.divisor > 1:
            d = self.p.divisor
            if (self.weight + self.undet) // d * d < self.weight:
                ok = False
                kind = "divisibility"
        return ok, kind, trail, dw, du

    def pop(self, pos: int, trail, dw: int, du: int):
        sums, cnt, rowval = self.sums, self.cnt, self.rowval
        for r, delta in reversed(trail):
            if cnt[r] == 0:
                rowval[r] = -1
            cnt[r] += 1
            sums[r] -= delta
        self.weight -= dw
        self.undet += du
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


def _search(problem, prefix, start_pos, stop_pos, emit, deadline, collect_prefixes):
    """DFS from start_pos to stop_pos.  With ``collect_prefixes`` the
    surviving assignments at stop_pos are gathered instead of emitted."""
    solver = _Solver(problem)
    for pos, b in enumerate(prefix):
        ok, kind, trail, dw, du = solver.push(pos, b)
        if not ok:
            # the prefix was generated by a surviving scan; a dead prefix
            # can only mean the caller fabricated one
            raise ClassifyError("infeasible search prefix")
    out_prefixes = []

    def rec(pos):
        if pos == stop_pos:
            if collect_prefixes:
                out_prefixes.append(tuple(solver.pivval[:stop_pos]))
            else:
                emit(solver.bits())
            return
        forced = problem.forced[pos]
        for b in (0, 1) if forced is None else (forced,):
            solver.nodes += 1
            if deadline is not None and solver.nodes % 256 == 0:
                if time.monotonic() > deadline:
                    raise _Stop("time budget exceeded")
            ok, kind, trail, dw, du = solver.push(pos, b)
            if ok:
                rec(pos + 1)
            else:
                solver.prunes[kind] += 1
            solver.pop(pos, trail, dw, du)

    complete = True
    try:
        rec(start_pos)
    except _Stop:
        complete = False
    return out_prefixes, solver.nodes, solver.prunes, complete


def _worker_task(args):
    problem, prefix, stop_pos, deadline = args
    sols = []
    _, nodes, prunes, complete = _search(
        problem, prefix, len(prefix), stop_pos, sols.append, deadline, False
    )
    return sols, nodes, prunes, complete


def _solve_problem(problem: _Problem, cfg: SearchConfig):
    t0 = time.monotonic()
    deadline = t0 + cfg.time_budget if cfg.time_budget is not None else None
    solutions: list[int] = []
    nodes = 0
    prunes = {
        "integrality": 0,
        "interval": 0,
        "divisibility": 0,
        "neighbor": 0,
        "reduced": 0,
    }
    complete = True

    if cfg.workers == 1:
        cap = cfg.solution_cap

        def emit(bits):
            solutions.append(bits)
            if cap is not None and len(solutions) >= cap:
                raise _Stop("solution cap reached")

        _, nodes, prunes, complete = _search(
            problem, (), 0, problem.dim, emit, deadline, False
        )
        if cap is not None and len(solutions) >= cap:
            complete = False
    else:
        split = 0
        while 2**split < 4 * cfg.workers and split < min(12, problem.dim):
            split += 1
        prefixes, pnodes, pprunes, pcomplete = _search(
            problem, (), 0, split, None, deadline, True
        )
        nodes += pnodes
        for k in prunes:
            prunes[k] += pprunes[k]
        complete = pcomplete
        if complete:
            tasks = [(problem, pre, problem.dim, deadline) for pre in prefixes]
            with multiprocessing.Pool(cfg.workers) as pool:
                for sols, tn, tp, tc in pool.map(_worker_task, tasks):
                    solutions.extend(sols)
                    nodes += tn
                    for k in prunes:
                        prunes[k] += tp[k]
                    complete = complete and tc
        if cfg.solution_cap is not None and len(solutions) > cfg.solution_cap:
            solutions = sorted(solutions)[: cfg.solution_cap]
            complete = False

    wall_ms = int((time.monotonic() - t0) * 1000)
    stats = {"nodes": nodes, "prunes": prunes, "solutions": len(solutions)}
    return solutions, stats, complete, wall_ms


# --- reduction fixed-point test (shared by search filter and reduce) -----


def _polar_forcing_data(domain: Domain):
    """Per-maximal supports used by the absorption triggers.

    For each maximal S: the packed support of the vertices inside S, and
    for each hyperplane of S its packed support together with the set of
    coordinate indices of the points it contains.
    """
    data = domain._cache.get("forcing")
    if data is None:
        from .subspaces import enumerate_subspaces as _enum

        spec = domain.polar
        cols = coordinate_column_bits(domain)
        maxes = spec.isotropic_subspaces(spec.rank)
        in_s = [vertices_inside_bits(domain, s) for s in maxes]
        point_maxes = [
            [si for si, s in enumerate(maxes) if s.contains_vector(p.basis[0])]
            for p in domain.coords
        ]
        hyp_data = []
        for s in maxes:
            d = s.dim
            per = []
            for small in _enum(domain.field, d, d - 1):
                rows = [
                    _combine_rows(domain.field, coeffs, s.basis)
                    for coeffs in small.basis
                ]
                pi = Subspace.from_vectors(domain.field, s.n, rows)
                support = vertices_inside_bits(domain, pi)
                inside = frozenset(
                    j
                    for j, p in enumerate(domain.coords)
                    if pi.contains_vector(p.basis[0])
                )
                per.append((support, inside))
            hyp_data.append(per)
        data = (cols, in_s, point_maxes, hyp_data)
        domain._cache["forcing"] = data
    return data


def _combine_rows(field, coeffs, basis):
    n = len(basis[0])
    out = [0] * n
    for c, row in zip(coeffs, basis):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = field.add(out[j], field.mul(c, x))
    return tuple(out)


def _find_absorption(domain: Domain, bits: int, phase: int):
    """First point (canonical order) triggering the given absorption phase.

    Phase 1 absorbs a point to zero, phase 2 to one.  For k = n the
    trigger is the global one: the point's vertices all carry 1 (resp.
    0) while the function is not constant.  For k < n the trigger is the
    shape of the restriction to one maximal S through the point: all of
    p's vertices in S agree, and the disagreeing side within S is empty
    or exactly the vertex set of a hyperplane of S off p.
    """
    cols, in_s, point_maxes, hyp_data = _polar_forcing_data(domain)
    k, n = domain.params["k"], domain.params["n"]
    full = (1 << domain.v) - 1
    if phase == 2:
        bits = bits ^ full  # phase 2 is phase 1 on the complement
    if k == n:
        if bits == full:
            return None
        for j in range(domain.c):
            vp = cols[j]
            if vp and (bits & vp) == vp:
                return j, vp
        return None
    for j in range(domain.c):
        vp = cols[j]
        if vp == 0:
            continue
        for si in point_maxes[j]:
            ones_s = bits & in_s[si]
            ball = vp & in_s[si]
            if ball == 0 or (ones_s & ball) != ball:
                continue
            rest = ones_s & ~ball
            if rest == 0:
                return j, vp
            for support, inside in hyp_data[si]:
                if rest == support and j not in inside:
                    return j, vp
    return None


def is_reduced(domain: Domain, f: BoolFn) -> bool:
    if domain.family != "polar":
        raise ClassifyError("reduction applies to polar domains only")
    return (
        _find_absorption(domain, f.bits, 1) is None
        and _find_absorption(domain, f.bits, 2) is None
    )


@dataclass
class ReduceResult:
    fn: BoolFn
    steps: list
    degree1_ok: bool


def reduce_polar(domain: Domain, f: BoolFn) -> ReduceResult:
    """Two-phase point absorption to a fixed point.

    Phase 1: a point all of whose vertices carry 1, while its perp still
    sees a 0, absorbs to 0.  Phase 2 is the dual.  Phase 1 runs to
    exhaustion before phase 2; the pair repeats until neither fires.
    Degree-1 membership is re-verified after every step; a violation is
    recorded in the log and stops the process instead of crashing.
    """
    if domain.family != "polar":
        raise ClassifyError("reduction applies to polar domains only")
    if not is_degree_one(domain, f):
        raise ClassifyError("reduction requires a degree-1 input")
    bits = f.bits
    steps: list = []
    limit = 4 * domain.c + 8
    changed = True
    while changed:
        if len(steps) > limit:
            raise ClassifyError("reduction did not reach a fixed point")
        changed = False
        for phase in (1, 2):
            while True:
                hit = _find_absorption(domain, bits, phase)
                if hit is None:
                    break
                j, vp = hit
                flipped = (bits & vp) if phase == 1 else (~bits & vp)
                bits = bits & ~vp if phase == 1 else bits | vp
                steps.append(
                    {
                        "step": len(steps) + 1,
                        "phase": phase,
                        "point": domain.coord_keys[j],
                        "flipped": flipped.bit_count(),
                    }
                )
                if not is_degree_one(domain, BoolFn(domain, bits)):
                    steps[-1]["violation"] = "result left the degree-1 space"
                    return ReduceResult(BoolFn(domain, bits), steps, False)
                changed = True
    return ReduceResult(BoolFn(domain, bits), steps, True)


# --- public enumeration --------------------------------------------------


def enumerate_all(
    domain: Domain, cfg: SearchConfig | None = None, fixed: dict | None = None
) -> ClassificationReport:
    """The exact set of Boolean degree-1 functions on the domain.

    ``fixed`` pins vertex values (vertex index -> 0/1) and restricts the
    enumeration to functions extending them.  With ``cfg.reduced_only``
    set, solutions that are not reduction fixed points are dropped; that
    filter is experimental and makes no completeness claim.
    """
    cfg = cfg or SearchConfig()
    space = degree1_space(domain)
    free = sum(1 for p in space.pivot_vertices if p not in (fixed or {}))
    if (
        free > MAX_UNBOUNDED_DIM
        and cfg.solution_cap is None
        and cfg.time_budget is None
    ):
        raise ClassifyError(
            f"free dim {free} > {MAX_UNBOUNDED_DIM} (dim {space.dim}): set a "
            "solution cap or time budget to run anyway"
        )
    problem = _build_problem(domain, cfg, fixed)
    solutions, stats, complete, wall_ms = _solve_problem(problem, cfg)

    kept = []
    for bits in solutions:
        fn = BoolFn(domain, bits)
        if cfg.use_neighbor_condition and divisor_defined(domain):
            if not check_neighbor_condition(domain, fn):
                stats["prunes"]["neighbor"] += 1
                continue
        if cfg.reduced_only and domain.family == "polar":
            if not is_reduced(domain, fn):
                stats["prunes"]["reduced"] += 1
                continue
        kept.append(fn)
    kept.sort(key=lambda f: (f.weight, f.bits))
    stats["solutions"] = len(kept)
    stats["wall_ms"] = wall_ms

    try:
        lookup = {e.fn.bits: e.descriptors for e in catalog(domain)}
    except CatalogError:
        lookup = None
    records = []
    trivial_count = 0
    for fn in kept:
        if lookup is None:
            records.append(SolutionRecord(fn.to_hex(), fn.weight, None, []))
            continue
        descs = lookup.get(fn.bits, ())
        trivial = bool(descs)
        trivial_count += trivial
        note = None
        if not trivial and domain.family == "polar":
            note = "conjecture-form candidate"
        records.append(
            SolutionRecord(
                fn.to_hex(),
                fn.weight,
                trivial,
                [d.to_json() for d in descs],
                note,
            )
        )
    counts = {"total": len(records)}
    if lookup is not None:
        counts["trivial"] = trivial_count
        counts["nontrivial"] = len(records) - trivial_count
    return ClassificationReport(
        domain.manifest(),
        space.dim,
        records,
        counts,
        stats,
        complete,
        cfg.to_json(),
    )


# --- Bruen-Drudge completion search --------------------------------------


@dataclass
class BdResult:
    q: int
    domain: Domain
    quadric_points: list[str]
    secants: list[str]
    tangents: list[str]
    passants: list[str]
    solutions: list[BoolFn]
    stats: dict
    complete: bool

    def tangent_split(self, fn: BoolFn) -> dict[str, int]:
        """Chosen tangents through each quadric point, by point key."""
        out = {}
        tangset = set(self.tangents)
        for pkey in self.quadric_points:
            j = self.domain.coord_keys.index(pkey)
            col = coordinate_column_bits(self.domain)[j]
            chosen = 0
            for i in range(self.domain.v):
                if (col >> i) & 1 and self.domain.vertex_keys[i] in tangset:
                    chosen += fn.value(i)
            out[pkey] = chosen
        return out


@lru_cache(maxsize=None)
def _bd_base(q: int):
    """Line classification of an elliptic quadric in PG(3,q), cached."""
    fld = field_spec(q)
    spec = standard_polar("O_minus", 1, fld)
    quadric = [p.key() for p in spec.isotropic_points()]
    dom = build_grassmann(fld, 4, 2)
    qset = set(quadric)
    secants, tangents, passants = [], [], []
    fixed = {}
    for i, line in enumerate(dom.vertices):
        on = sum(1 for p in line.points() if p.key() in qset)
        if on == 0:
            passants.append(dom.vertex_keys[i])
            fixed[i] = 0
        elif on == 1:
            tangents.append(dom.vertex_keys[i])
        elif on == 2:
            secants.append(dom.vertex_keys[i])
            fixed[i] = 1
        else:
            raise ClassifyError("elliptic quadric has a 3-point line?")
    return dom, quadric, secants, tangents, passants, fixed


def bruen_drudge_search(
    q: int, cfg: SearchConfig | None = None
) -> BdResult:
    """All degree-1 functions that are 1 on secants and 0 on passants of
    an elliptic quadric in PG(3, q), q odd.

    Secant/tangent/passant splits every line; the tangent values are the
    only free inputs, and the propagation search enumerates every
    Boolean degree-1 completion, so the output is the complete set of
    functions of Bruen-Drudge type.
    """
    if q % 2 == 0:
        raise ClassifyError("the quadric construction needs odd q")
    if q > 5:
        raise ClassifyError("desk scale supports q <= 5")
    dom, quadric, secants, tangents, passants, fixed = _bd_base(q)
    cfg = cfg or SearchConfig()
    report_cfg = replace(cfg, reduced_only=False)
    problem = _build_problem(dom, report_cfg, fixed)
    solutions, stats, complete, wall_ms = _solve_problem(problem, report_cfg)
    stats["wall_ms"] = wall_ms
    fns = sorted(
        (BoolFn(dom, b) for b in solutions), key=lambda f: (f.weight, f.bits)
    )
    return BdResult(
        q, dom, quadric, secants, tangents, passants, fns, stats, complete
    )


def bd_restriction_analysis(
    bd: BdResult, solution: BoolFn, passant_key: str | None = None
) -> dict:
    """Restrict a completion to the lines disjoint from a passant.

    The passant plays the excluded-space role of a bilinear-forms
    domain, so the restriction can be checked against that domain's
    catalog; the interesting outcome is an empty match.
    """
    if passant_key is None:
        passant_key = bd.passants[0]
    if passant_key not in bd.passants:
        raise ClassifyError(f"{passant_key} is not a passant")
    parent = bd.domain
    children = parent._cache.setdefault("bd_children", {})
    child = children.get(passant_key)
    if child is None:
        ell = parent.vertices[parent.vertex_index(passant_key)]
        child = build_bilinear(parent.field, 2, 2, excluded=ell)
        children[passant_key] = child
    bits = 0
    for ci, key in enumerate(child.vertex_keys):
        if solution.value(parent.vertex_index(key)):
            bits |= 1 << ci
    fn = BoolFn(child, bits)
    descs = match_catalog(fn)
    return {
        "passant": passant_key,
        "hex": fn.to_hex(),
        "weight": fn.weight,
        "trivial": bool(descs),
        "descriptors": [d.to_json() for d in descs],
    }

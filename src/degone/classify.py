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

The enumeration assigns 0/1 to pivots in a static order over a
frontier of numpy state arrays (row sums, pivot values), expanded a
chunk of states at a time from a stack of chunks; the chunk size is
derived from ``FRONTIER_BYTES``.  Every dependency row is propagated as
soon as its pivots are all fixed, and children are pruned by
integrality and by achievable-value intervals.  Weight divisibility
follows from span membership, so it is not tested separately (as a
prune it cut no node on any scheme domain tried).  Chunks are pushed so
that states are expanded in depth-first order: solutions are found in
depth-first order, and a search that runs to the end counts the nodes
and prunes of a depth-first search.  All prunes are sound: no Boolean
solution is ever lost.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .boolfn import BoolFn
from .catalogs import (
    CatalogError,
    CatalogTimeout,
    catalog,
    catalog_entry,
    catalog_lookup,
)
from .domains import (
    Domain,
    Restriction,
    build_bilinear,
    build_grassmann,
    coordinate_column_bits,
    coords_inside,
    vertices_within,
)
from .forms import standard_polar
from .gf import field_spec
from .subspaces import enumerate_subspaces
# unused here, but perfbench's tracer wraps these names in this module
from .catalogs import match_catalog  # noqa: F401
from .ratlinalg import kernel_from_rref, rref, scale_to_int  # noqa: F401
from .scheme import divisor_defined, weight_divisor  # noqa: F401


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
    """Settings of one search.  ``vertex_order`` fixes the static pivot
    order; ``solution_cap`` stops after that many solutions and
    ``time_budget`` (seconds) after that long, both leaving the report
    incomplete.  All three are written into the report's ``config``."""

    vertex_order: str = "greedy-propagation"
    solution_cap: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.vertex_order not in ("pivot-default", "greedy-propagation"):
            raise ClassifyError(f"unknown vertex order {self.vertex_order!r}")
        if self.solution_cap is not None and self.solution_cap < 0:
            raise ClassifyError("solution cap must be nonnegative")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ClassifyError("time budget must be a nonnegative number")

    def to_json(self):
        return asdict(self)


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

    def payload(self, include_timing: bool = False) -> dict:
        """``to_json()`` with the solutions left as SolutionRecords, which
        ``cli._write`` encodes without building their dicts."""
        stats = dict(self.stats)
        if not include_timing:
            stats.pop("wall_ms", None)
        return {
            "domain": self.domain_manifest,
            "dim": self.dim,
            "solutions": self.solutions,
            "counts": self.counts,
            "stats": stats,
            "complete": self.complete,
            "config": self.config,
        }

    def to_json(self, include_timing: bool = False) -> dict:
        out = self.payload(include_timing)
        out["solutions"] = [s.to_json() for s in self.solutions]
        return out


# --- the frontier search --------------------------------------------------

# Bytes of search state the pending chunks may hold at once: the chunk
# size is derived from it, so the frontier holds at most one chunk more.
FRONTIER_BYTES = 1 << 24


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


def _greedy_order(support: np.ndarray, chosen: np.ndarray) -> list[int]:
    """Static order of the unchosen pivots (as indices) maximizing rows
    fully determined early.

    ``support`` is the rows x dim nonzero pattern of the dependency rows
    and ``chosen`` marks the pivots placed before the order starts.  Each
    step picks the pivot completing the most still-open rows; ties break
    by coverage of open rows, then by index.  Per-row open counts and the
    per-pivot counters are updated as pivots are chosen.
    """
    nrows, dim = support.shape
    open_ = support & ~chosen
    cnt = open_.sum(1)
    # while a row has one open pivot, the sum of its open indices names it
    idx_sum = open_.astype(np.int64) @ np.arange(dim)
    completes = np.bincount(idx_sum[cnt == 1], minlength=dim)
    score = completes * (nrows + 1) + open_.sum(0)  # coverage <= nrows
    score[chosen] = -1
    rows_of = [np.flatnonzero(col) for col in open_.T]
    order = []
    for _ in range(dim - int(chosen.sum())):
        i = int(score.argmax())
        order.append(i)
        score[i] = -1
        rows = rows_of[i]
        cnt[rows] -= 1
        idx_sum[rows] -= i
        np.add.at(score, idx_sum[rows[cnt[rows] == 1]], nrows + 1)
    return order


def _build_problem(domain: Domain, cfg: SearchConfig, fixed: dict | None) -> _Problem:
    space = degree1_space(domain)
    fixed = dict(fixed or {})
    for y, val in fixed.items():
        if val not in (0, 1):
            raise ClassifyError("fixed values must be 0/1")
        if not 0 <= y < domain.v:
            raise ClassifyError("fixed vertex out of range")

    pivots = space.pivot_vertices
    pivpos_of_vertex = {}
    fixed_pivots = sorted(p for p in pivots if p in fixed)
    if cfg.vertex_order == "greedy-propagation":
        support = np.asarray(space.dependency != 0, dtype=bool)
        chosen = np.array([p in fixed for p in pivots], dtype=bool)
        free_order = [pivots[i] for i in _greedy_order(support, chosen)]
    else:
        free_order = sorted(p for p in pivots if p not in fixed)
    order_vertices = fixed_pivots + free_order
    for pos, p in enumerate(order_vertices):
        pivpos_of_vertex[p] = pos
    forced = [fixed.get(p) for p in order_vertices]

    dep_rows = space.dependency.tolist()
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
    )


@dataclass(frozen=True)
class _Level:
    """What assigning the pivot at one position touches: the rows with an
    entry there, in ascending (touch) order, and per touched row whether
    this entry is its last, its coefficient, the sums of its negative
    and positive coefficients after this entry, and its targets."""

    rows: np.ndarray
    last: np.ndarray
    coeff: np.ndarray
    negsuf: np.ndarray
    possuf: np.ndarray
    t0: np.ndarray
    t1: np.ndarray  # equal to t0 when the row has a single target


def _frontier_dtype(problem: _Problem):
    """The narrowest integer type holding every row sum, suffix bound and
    target: int16, int32, then as ``_int_dtype`` chooses."""
    bound = max(
        [sum(abs(a) for _, a in e) for e in problem.row_entries]
        + [abs(t) for ts in problem.row_targets for t in ts]
        + [1]
    )
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return _int_dtype(bound)


def _state_bytes(problem: _Problem, dtype) -> int:
    """Bytes of one state: row sums and pivot values."""
    return len(problem.row_entries) * np.dtype(dtype).itemsize + problem.dim


def _chunk_size(problem: _Problem, dtype, cap: int | None) -> int:
    """States expanded together: a stack of one pending chunk per
    position stays within ``FRONTIER_BYTES``; a cap of N needs no more
    than N states at once to find the first N solutions."""
    size = max(1, FRONTIER_BYTES // (problem.dim * _state_bytes(problem, dtype)))
    return size if cap is None else min(size, max(cap, 1))


def _plan(problem: _Problem, dtype) -> list[_Level]:
    """The static per-position plan of one search."""
    touch = [[] for _ in range(problem.dim)]
    for r, entries in enumerate(problem.row_entries):
        targets = problem.row_targets[r]
        neg = pos = 0  # suffix sums of the entries after the current one
        for li in range(len(entries) - 1, -1, -1):
            p, a = entries[li]
            last = li == len(entries) - 1
            touch[p].append((r, last, a, neg, pos, targets[0], targets[-1]))
            if a > 0:
                pos += a
            else:
                neg += a
    levels = []
    for items in touch:
        rows, last, *ints = list(zip(*items)) or [()] * 7
        levels.append(
            _Level(
                np.array(rows, dtype=np.intp),
                np.array(last, dtype=bool),
                *(np.array(c, dtype=dtype) for c in ints),
            )
        )
    return levels


def _test_children(lvl: _Level, s, prunes: dict):
    """Row tests of the children whose touched-row sums are ``s``: the
    mask of survivors.  A pruned child is charged to the kind of its
    first failing row in touch order."""
    hit = (s == lvl.t0) | (s == lvl.t1)
    lo, hi = s + lvl.negsuf, s + lvl.possuf
    inside = ((lo <= lvl.t0) & (lvl.t0 <= hi)) | ((lo <= lvl.t1) & (lvl.t1 <= hi))
    fail = np.where(lvl.last, ~hit, ~inside)
    ok = ~fail.any(1)
    if not ok.all():
        first = fail[~ok].argmax(1)
        integrality = int(lvl.last[first].sum())
        prunes["integrality"] += integrality
        prunes["interval"] += len(first) - integrality
    return ok


def _solution_rows(problem: _Problem, sums, piv) -> np.ndarray:
    """Bit masks of complete states: pivot and row values scattered into
    the vertex columns, packed little-endian, one uint8 row per state."""
    full = np.zeros((len(piv), problem.v), dtype=np.uint8)
    full[:, problem.order_vertices] = piv
    full[:, problem.row_vertices] = sums == np.array(problem.row_scale, sums.dtype)
    return np.packbits(full, axis=1, bitorder="little")


def _search(problem: _Problem, cfg: SearchConfig, deadline: float | None):
    """Depth-first search over chunks of states.

    Popping a chunk at position ``pos`` assigns that pivot in every state
    (0 then 1, or the forced value) and applies the integrality and
    interval tests of each touched row as masks.  The survivors stay in
    parent-major order and are pushed as chunks in reverse, so states are
    expanded, and solutions found, in the order of a depth-first search.
    Returns the solution bit masks in that order (at most the cap) as
    packed rows (``_solution_rows``), the node and prune counts, the most
    states held at once, and whether the search ran to the end.
    """
    dtype = _frontier_dtype(problem)
    levels = _plan(problem, dtype)
    cap = cfg.solution_cap
    chunk = _chunk_size(problem, dtype, cap)
    nrows = len(problem.row_entries)
    # divisibility is never charged: the key stays because perfbench's
    # tracer reads all three kinds
    prunes = {"integrality": 0, "interval": 0, "divisibility": 0}
    nodes = 0
    found = 0
    solutions = [np.zeros((0, (problem.v + 7) // 8), dtype=np.uint8)]
    stack = [
        (
            0,
            np.zeros((1, nrows), dtype=dtype),
            np.zeros((1, problem.dim), dtype=np.uint8),
        )
    ]
    held = peak = 1
    complete = True
    while stack:
        if deadline is not None and time.monotonic() >= deadline:
            complete = False
            break
        pos, sums, piv = stack.pop()
        held -= len(piv)
        lvl = levels[pos]
        forced = problem.forced[pos]
        values = (0, 1) if forced is None else (forced,)
        nodes += len(piv) * len(values)
        base = sums[:, lvl.rows]
        touched, keep = [], []
        for b in values:
            s = base + lvl.coeff if b else base
            touched.append(s)
            keep.append(_test_children(lvl, s, prunes))
        # child (parent i, value j) sits at row i * len(values) + j
        sel = np.flatnonzero(np.stack(keep, 1))
        if sel.size == 0:
            continue
        touched = np.stack(touched, 1).reshape(len(piv) * len(values), len(lvl.rows))
        bits = np.array(values, dtype=np.uint8)
        leaves = pos + 1 == problem.dim
        step = sel.size if leaves else chunk
        children = []
        for start in range(0, sel.size, step):
            part = sel[start : start + step]
            parent = part // len(values)
            child_sums = sums[parent]
            child_sums[:, lvl.rows] = touched[part]
            child_piv = piv[parent]
            child_piv[:, pos] = bits[part % len(values)]
            children.append((pos + 1, child_sums, child_piv))
        if leaves:
            ((_, sums, piv),) = children
            solutions.append(_solution_rows(problem, sums, piv))
            found += len(piv)
            if cap is not None and found >= cap:
                break
            continue
        stack += reversed(children)
        held += sel.size
        peak = max(peak, held)
    solutions = np.concatenate(solutions)
    if cap is not None and found >= cap:
        solutions = solutions[:cap]
        complete = False
    return solutions, nodes, prunes, peak, complete


def _deadline(cfg: SearchConfig) -> float | None:
    if cfg.time_budget is None:
        return None
    return time.monotonic() + cfg.time_budget


def _weights(rows: np.ndarray) -> np.ndarray:
    """The weight of each packed solution row."""
    return np.bitwise_count(rows).sum(1)


def _solve(
    domain: Domain, cfg: SearchConfig, fixed: dict | None, deadline: float | None
):
    """Search the degree-1 functions extending ``fixed``: the solutions
    as packed rows (``_solution_rows``) sorted by (weight, bits), the
    stats and the complete flag."""
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
    t0 = time.monotonic()
    rows, nodes, prunes, peak, complete = _search(problem, cfg, deadline)
    wall_ms = int((time.monotonic() - t0) * 1000)
    # lexsort's last key is the primary one: the weight, then the bytes
    # from the most significant (the last) to the least
    rows = rows[np.lexsort([*rows.T, _weights(rows)])]
    stats = {
        "nodes": nodes,
        "prunes": prunes,
        "solutions": len(rows),
        "max_frontier": peak,
        "wall_ms": wall_ms,
    }
    return rows, stats, complete


# --- reduction fixed-point test ------------------------------------------


def _polar_forcing_data(domain: Domain):
    """Per-maximal supports used by the absorption triggers.

    For each maximal S: the packed support of the vertices inside S, and
    for each hyperplane of S its packed support together with the mask
    of the coordinate points it contains.
    """
    data = domain._cache.get("forcing")
    if data is None:
        # a hyperplane of S is S meet H for an ambient hyperplane H not
        # containing S; on point masks that meet is an intersection
        spec = domain.polar
        cols = coordinate_column_bits(domain)
        maxes = [coords_inside(domain, s) for s in spec.isotropic_subspaces(spec.rank)]
        hyps = enumerate_subspaces(domain.field, spec.ambient_dim, spec.ambient_dim - 1)
        hyps = [coords_inside(domain, h) for h in hyps]
        in_s = [vertices_within(domain, m) for m in maxes]
        point_maxes = [
            [si for si, m in enumerate(maxes) if (m >> j) & 1] for j in range(domain.c)
        ]
        hyp_data = [
            [(vertices_within(domain, t), t) for t in {m & h for h in hyps if m & ~h}]
            for m in maxes
        ]
        data = (cols, in_s, point_maxes, hyp_data)
        domain._cache["forcing"] = data
    return data


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
                if rest == support and not (inside >> j) & 1:
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


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while many acyclic objects are
    built at once.  Every object that survives adds to the count that
    triggers a full collection, and a full collection walks every live
    object, the catalog's among them.  Building the 56,996 records of
    C_2(3,2,0) runs two of them; paused, one runs later, and the command
    spends about 0.1 s less collecting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def enumerate_all(
    domain: Domain, cfg: SearchConfig | None = None, fixed: dict | None = None
) -> ClassificationReport:
    """The exact set of Boolean degree-1 functions on the domain.

    ``fixed`` pins vertex values (vertex index -> 0/1) and restricts the
    enumeration to functions extending them.  The report lists every
    solution found, sorted by (weight, bits), with its catalog match;
    it is complete unless the solution cap or the time budget cut the
    search short.  The time budget also bounds catalog generation: a
    catalog cut short leaves every verdict null and the report
    incomplete.  More than ``MAX_UNBOUNDED_DIM`` free pivots need a cap
    or a budget.
    """
    cfg = cfg or SearchConfig()
    deadline = _deadline(cfg)
    rows, stats, complete = _solve(domain, cfg, fixed, deadline)

    judged = True
    try:
        catalog(domain, deadline)
    except CatalogTimeout:
        judged = complete = False
    except CatalogError:
        judged = False
    # one hex string for all rows, most significant byte first; each
    # row's slice drops the zero digits above vertex v - 1
    width = (domain.v + 3) // 4
    stride = 2 * rows.shape[1]
    text = rows[:, ::-1].tobytes().hex()
    hexes = [text[i : i + width] for i in range(stride - width, len(text), stride)]
    weights = _weights(rows).tolist()
    lookup = catalog_lookup(domain) if judged else {}
    entries = [lookup.get(int(h, 16)) for h in hexes]
    miss = False if judged else None
    note = "conjecture-form candidate" if judged and domain.family == "polar" else None
    with _collector_paused():
        records = [
            SolutionRecord(h, w, miss, [], note)
            if e is None
            else SolutionRecord(h, w, True, list(e.descriptor_json))
            for h, w, e in zip(hexes, weights, entries)
        ]
    counts = {"total": len(records)}
    if judged:
        nontrivial = entries.count(None)
        counts["trivial"] = len(records) - nontrivial
        counts["nontrivial"] = nontrivial
    return ClassificationReport(
        domain.manifest(),
        degree1_space(domain).dim,
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
        dom = self.domain
        chosen = fn.bits & sum(1 << dom.vertex_index(key) for key in self.tangents)
        cols = dict(zip(dom.coord_keys, coordinate_column_bits(dom)))
        return {pkey: (cols[pkey] & chosen).bit_count() for pkey in self.quadric_points}


@lru_cache(maxsize=None)
def _bd_base(q: int):
    """Line classification of an elliptic quadric in PG(3,q), cached."""
    fld = field_spec(q)
    spec = standard_polar("O_minus", 1, fld)
    quadric = [p.key() for p in spec.isotropic_points()]
    dom = build_grassmann(fld, 4, 2)
    cols = [1 + dom.coord_index(p) for p in spec.isotropic_points()]
    secants, tangents, passants = [], [], []
    fixed = {}
    for i, on in enumerate(dom.incidence[:, cols].sum(1).tolist()):
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
    rows, stats, complete = _solve(dom, cfg, fixed, _deadline(cfg))
    fns = [BoolFn(dom, int.from_bytes(row.tobytes(), "little")) for row in rows]
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
    res = children.get(passant_key)
    if res is None:
        ell = parent.vertices[parent.vertex_index(passant_key)]
        child = build_bilinear(parent.field, 2, 2, excluded=ell)
        res = Restriction(
            child, tuple(parent.vertex_index(key) for key in child.vertex_keys)
        )
        children[passant_key] = res
    fn = res.transport(solution)
    entry = catalog_entry(fn)
    return {
        "passant": passant_key,
        "hex": fn.to_hex(),
        "weight": fn.weight,
        "trivial": entry is not None,
        "descriptors": list(entry.descriptor_json) if entry else [],
    }

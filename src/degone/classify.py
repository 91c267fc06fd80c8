"""Exact degree-1 membership and complete enumeration by pivot search.

The degree-1 functions on a domain form the column span of the
incidence matrix [1 | X].  A fixed set of pivot vertices (one per
dimension) determines every function in that span; each remaining
vertex y carries an integer dependency row D[y] and a positive scale
s[y] with s[y] * f(y) = D[y] . f(pivots) for every f in the span.

The pivots and rows are the leftmost-pivot RREF of A = [1 | X]^T over
Q, computed without rational arithmetic, and no step is a dense pass
over all v columns: each works from the nonzeros of A's columns (a
vertex's column has 1 + |support| of them).  Modulo a 31-bit prime, the
columns are scanned a block at a time against the running m x m
transform E (E A is the RREF so far): a block's columns of E A are sums
of the columns of E that its nonzeros name, a block with nothing below
the rank holds no pivot, and each pivot's row operation touches E and
the rest of its block only.  The RREF's non-pivot entries are E's top
rows times A[:, nonpivots], formed the same way.  Each entry is rebuilt
by rational reconstruction, once per distinct residue, and the result
is certified by one exact integer identity,
A[:, pivots] D^T == A[:, nonpivots] * s, whose left side adds each row
of D^T into the rows of its pivot's nonzeros, together with
D[y, i] == 0 wherever pivot i lies right of y.  Pivot columns
independent mod p are independent over Q, so the certificate forces the
rational RREF's pivot set and rows.  A failed reconstruction or
certificate brings in the next prime (residues combined by CRT); when
the fixed prime list runs out the elimination raises
``CertificateError`` instead of guessing.

The enumeration assigns 0/1 to pivots in a static order over a
frontier of numpy state arrays (row sums, pivot values), expanded a
chunk of states at a time from a stack of chunks; the chunk size is
derived from ``FRONTIER_BYTES``.  Every dependency row is propagated as
soon as its pivots are all fixed, and each touched row gets one
interval test: a child is pruned when neither target of the row lies
in the sums its later entries can still reach, which on a complete row
is integrality.  Weight divisibility follows from span membership, so
it is not tested separately (as a prune it cut no node on any scheme
domain tried).  Chunks are pushed so that states are expanded in
depth-first order: solutions are found in depth-first order, and a
search that runs to the end counts the nodes and prunes of a
depth-first search.  All prunes are sound: no Boolean solution is ever
lost.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import gcd, inf, isqrt

import numpy as np

from .boolfn import BoolFn
from .catalogs import CatalogError, CatalogTimeout, catalog, catalog_entry
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
from .jsontext import EMPTY_LIST, JsonText
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


# columns of A brought into the running transform at a time
BLOCK = 128


@dataclass(frozen=True)
class _Columns:
    """The nonzeros of each column of an integer matrix, slot by slot:
    column y's s-th nonzero is ``vals[s, y]`` in row ``rows[s, y]`` for s
    below ``count[y]``; later slots hold value 0 in row 0."""

    nrows: int
    rows: np.ndarray  # slots x ncols
    vals: np.ndarray  # slots x ncols, int64
    count: np.ndarray  # ncols

    @property
    def ncols(self) -> int:
        return self.count.size


def _columns(a: np.ndarray) -> _Columns:
    a = np.asarray(a)
    ys, xs = np.nonzero(a.T)  # column-major: by column, then row
    count = np.bincount(ys, minlength=a.shape[1])
    slot = np.arange(ys.size) - (np.cumsum(count) - count)[ys]
    shape = (int(count.max(initial=0)), a.shape[1])
    rows = np.zeros(shape, np.intp)
    vals = np.zeros(shape, np.int64)
    rows[slot, ys] = xs
    vals[slot, ys] = a[xs, ys]
    return _Columns(a.shape[0], rows, vals, count)


def _times(e: np.ndarray, rows, vals, units, p: int) -> np.ndarray:
    """``(e @ A[:, cols]).T`` mod p from the slots of those columns, with
    values in [0, p): one gather of rows of ``e.T`` per slot, multiplied
    only where the slot's values are not all 1.  The sum is reduced just
    before it could leave int64."""
    et = np.ascontiguousarray(e.T)
    acc = np.zeros((rows.shape[1], et.shape[1]), np.int64)
    top = 0  # bound on the entries of acc
    for rs, vs, unit in zip(rows, vals, units):
        step = p - 1 if unit else (p - 1) ** 2
        if top + step >= 2**63:
            acc %= p
            top = p - 1
        term = et[rs]
        if not unit:
            term *= vs[:, None]
        acc += term
        top += step
    acc %= p
    return acc


def _rref_mod(cols: _Columns, p: int):
    """Leftmost-pivot RREF of the matrix ``cols`` modulo ``p``: the pivot
    columns, the non-pivot columns, and the RREF's non-pivot entries
    transposed (non-pivots x rank), residues in [0, p).

    The m x m transform E (E @ A is the RREF so far) is carried in a
    workspace right of a block of ``BLOCK`` columns of E @ A.  Each block
    is formed by gathering the rows of E.T that its nonzeros name; a
    block whose rows below the rank are zero holds no pivot and is
    passed over, so a run of dependent columns costs one gather.  In a
    block with a pivot, each pivot's row operation is applied to the
    block's later columns and to E, only where the pivot row is nonzero.
    The non-pivot entries are E's top rows times A[:, nonpivots], one
    gather per slot.
    """
    m, n = cols.nrows, cols.ncols
    vals = cols.vals % p
    units = (vals == 1).all(1).tolist()
    w = np.zeros((m, BLOCK + m), np.int64)
    e = w[:, BLOCK:]
    e[np.arange(m), np.arange(m)] = 1
    pivots: list[int] = []
    r = 0
    for c in range(0, n, BLOCK):
        if r == m:
            break
        blk = slice(c, min(c + BLOCK, n))
        width = blk.stop - c
        slots = cols.rows[:, blk], vals[:, blk], units, p
        low = _times(e[r:], *slots)
        live = low.any(1).nonzero()[0]
        if live.size == 0:
            continue
        w[:r, :width] = _times(e[:r], *slots).T
        w[r:, :width] = low.T
        w[:, width:BLOCK] = 0
        j = int(live[0])
        while True:
            k = r + int(w[r:, j].nonzero()[0][0])
            if k != r:
                w[[r, k], j:] = w[[k, r], j:]
            w[r, j:] = w[r, j:] * pow(int(w[r, j]), -1, p) % p
            col = w[:, j].copy()
            col[r] = 0
            hit = col.nonzero()[0]
            if hit.size:
                nzc = j + w[r, j:].nonzero()[0]
                sub = hit[:, None], nzc
                w[sub] = (w[sub] - col[sub[0]] * w[r, nzc]) % p
            pivots.append(c + j)
            r += 1
            if r == m:
                break
            nxt = w[r:, j + 1 : width].any(0).nonzero()[0]
            if nxt.size == 0:
                break
            j += 1 + int(nxt[0])
    pivset = set(pivots)
    nonpivots = [y for y in range(n) if y not in pivset]
    red = _times(e[:r], cols.rows[:, nonpivots], vals[:, nonpivots], units, p)
    return pivots, nonpivots, red


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
    """Integer rows D and scales from the residues of the RREF's
    non-pivot entries (non-pivots x rank), one reconstruction per
    distinct residue; None if one fails.  Each row's scale is the lcm of
    its denominators, taken once per distinct denominator."""
    flat = np.sort(residues, axis=None)
    first = np.ones(flat.size, bool)
    first[1:] = flat[1:] != flat[:-1]
    values = flat[first]
    inverse = np.searchsorted(values, residues)
    fracs = [_ratrecon(int(u), modulus) for u in values.tolist()]
    if None in fracs:
        return None
    nums = [f[0] for f in fracs]
    dens = [f[1] for f in fracs]
    scale = np.ones(len(residues), dtype=object)
    for d in set(dens) - {1}:
        has = np.array([x == d for x in dens])[inverse].any(1)
        scale[has] = np.lcm(scale[has], d)
    width = max(scale.tolist(), default=1) * max(map(abs, nums), default=0)
    dtype = _int_dtype(width)
    scale = scale.astype(dtype)
    dep = np.array(dens, dtype=dtype)[inverse]
    np.floor_divide(scale[:, None], dep, out=dep)
    dep *= np.array(nums, dtype=dtype)[inverse]
    return dep, scale


def _certify(cols: _Columns, pivots, nonpivots, dep, scale) -> bool:
    """Exact check that column y of A is (dep[y] / scale[y]) times the
    pivot columns left of y, for every non-pivot y.  ``A[:, pivots] @
    dep.T`` is formed by adding each dependency column into the rows of
    its pivot's nonzeros, and ``A[:, nonpivots] * scale`` is subtracted
    one slot at a time."""
    nleft = np.searchsorted(pivots, nonpivots)
    if (dep.astype(bool) & (np.arange(len(pivots)) >= nleft[:, None])).any():
        return False
    amax = int(np.abs(cols.vals).max(initial=0))
    dmax = int(np.abs(dep).max(initial=0))
    smax = int(scale.max(initial=0))
    dtype = _int_dtype(amax * max(len(pivots) * dmax, smax))
    vals = cols.vals.astype(dtype)
    dept = np.ascontiguousarray(dep.T, dtype=dtype)
    lhs = np.zeros((cols.nrows, len(nonpivots)), dtype)
    for i, (y, k) in enumerate(zip(pivots, cols.count[pivots].tolist())):
        lhs[cols.rows[:k, y]] += vals[:k, y, None] * dept[i]
    scale = scale.astype(dtype, copy=False)
    every = np.arange(len(nonpivots))
    for rs, vs in zip(cols.rows[:, nonpivots], vals[:, nonpivots]):
        lhs[rs, every] -= vs * scale
    return not lhs.any()


def certified_rref(a: np.ndarray):
    """Pivot columns, non-pivot columns, integer dependency rows and
    scales of the leftmost-pivot RREF of the integer matrix ``a`` over Q.

    Row j of the returned matrix, divided by scale[j], is the RREF column
    of non-pivot j over the pivots; each scale is the lcm of that
    column's reduced denominators, exactly as ``ratlinalg.scale_to_int``
    gives it.  Raises ``CertificateError`` if no prime combination in
    ``PRIMES`` yields a certified result.
    """
    cols = _columns(a)
    best = None  # (pivots, residues, modulus)
    for p in PRIMES:
        pivots, nonpivots, red = _rref_mod(cols, p)
        # the column count pads the shorter profile: a lost pivot is worse
        if best is None or pivots + [cols.ncols] < best[0] + [cols.ncols]:
            # a smaller leftmost profile means every earlier prime was
            # unlucky (it divided a minor of A): start over from this one
            best = (pivots, red, p)
        elif pivots == best[0]:
            prev, modulus = best[1], best[2]
            t = (red.astype(object) - prev) * pow(modulus, -1, p) % p
            best = (pivots, prev + modulus * t, modulus * p)
        else:
            continue
        got = _reconstruct(best[1], best[2])
        if got is not None and _certify(cols, pivots, nonpivots, *got):
            return pivots, nonpivots, got[0], got[1]
    raise CertificateError(
        f"elimination of a {cols.nrows}x{cols.ncols} matrix not certified "
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
    """Settings of one search.  ``solution_cap`` stops after that many
    solutions and ``time_budget`` (seconds) after that long, both leaving
    the report incomplete.  Both are written into the report's
    ``config``."""

    solution_cap: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        cap, budget = self.solution_cap, self.time_budget
        # a bool is an int, but the report would say "solution_cap": true
        if cap is not None and (type(cap) is bool or not isinstance(cap, int) or cap < 0):
            raise ClassifyError(f"solution cap must be a nonnegative int, not {cap!r}")
        if budget is not None and (
            type(budget) is bool
            or not isinstance(budget, (int, float))
            or not 0 <= budget < inf
        ):
            raise ClassifyError(
                f"time budget must be a finite nonnegative number, not {budget!r}"
            )

    def to_json(self):
        return asdict(self)


@dataclass(slots=True)
class SolutionRecord:
    """One solution of a report.  ``descriptors`` is the text of its
    descriptor list as the catalog stores it (``EMPTY_LIST`` for none),
    or the list itself."""

    hex: str
    weight: int
    trivial: bool | None
    descriptors: str | list
    note: str | None = None

    def to_json(self):
        d = self.descriptors
        out = {
            "hex": self.hex,
            "weight": self.weight,
            "trivial": self.trivial,
            "descriptors": json.loads(d) if type(d) is str else d,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class Solutions(Sequence):
    """A report's solutions in order of (weight, bits) as columns: hex texts
    of ``width`` digits end to end, weights, and the catalog text of each
    descriptor list, or None where the catalog lacks one (``trivial`` is then
    ``miss``, None with no catalog, and the note ``note``).  Each read
    builds its record."""

    hex: str
    width: int
    weights: list[int]
    texts: list[str | None]
    miss: bool | None
    note: str | None

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # negative indices count from the end
        h, d = self.hex[i * self.width : (i + 1) * self.width], self.texts[i]
        if d is None:
            return SolutionRecord(h, self.weights[i], self.miss, EMPTY_LIST, self.note)
        return SolutionRecord(h, self.weights[i], True, d)


@dataclass
class ClassificationReport:
    domain_manifest: dict
    dim: int
    solutions: Solutions
    counts: dict
    stats: dict
    complete: bool
    config: dict

    def solution_bits(self) -> set[int]:
        text, w = self.solutions.hex, self.solutions.width
        return {int(text[i : i + w], 16) for i in range(0, len(text), w)}

    def payload(self, include_timing: bool = False) -> dict:
        """``to_json()`` with the solutions left as their columns, which
        ``cli._write`` writes without building a record."""
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
    """The degree-1 space with its pivot columns in assignment order:
    ``dep[j, pos]`` is the coefficient, in the row of non-pivot
    ``row_vertices[j]``, of the pivot assigned at ``pos``.  Row j's sum
    must reach ``t0[j]`` or ``t1[j]``: 0 or ``scale[j]``, or both the
    fixed value times ``scale[j]`` when the non-pivot is fixed."""

    v: int
    order_vertices: list[int]  # pivot vertex id at each assignment position
    forced: list  # forced 0/1 per position, or None
    row_vertices: np.ndarray
    dep: np.ndarray  # rows x positions
    scale: np.ndarray
    t0: np.ndarray
    t1: np.ndarray

    @property
    def dim(self) -> int:
        return self.dep.shape[1]


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


def _build_problem(domain: Domain, fixed: dict | None) -> _Problem:
    """The search problem: the fixed pivots first (by vertex), then the
    greedy order of the rest."""
    space = degree1_space(domain)
    fixed = dict(fixed or {})
    for y, val in fixed.items():
        if val not in (0, 1):
            raise ClassifyError("fixed values must be 0/1")
        # a bool or float key would index the value array as a mask or fail
        if type(y) is bool or not isinstance(y, (int, np.integer)):
            raise ClassifyError(f"fixed vertex must be an int, not {y!r}")
        if not 0 <= y < domain.v:
            raise ClassifyError("fixed vertex out of range")

    pivots = space.pivot_vertices
    chosen = np.array([p in fixed for p in pivots], dtype=bool)
    support = np.asarray(space.dependency != 0, dtype=bool)
    order = np.flatnonzero(chosen).tolist() + _greedy_order(support, chosen)
    rows = space.gather[space.dim :]
    value = np.full(domain.v, -1, dtype=np.int8)
    value[list(fixed)] = list(fixed.values())
    value = value[rows]
    return _Problem(
        domain.v,
        [pivots[i] for i in order],
        [fixed.get(pivots[i]) for i in order],
        rows,
        space.dependency[:, order],
        space.scale,
        np.where(value == 1, space.scale, 0),
        np.where(value == 0, 0, space.scale),
    )


@dataclass(frozen=True)
class _Level:
    """What assigning the pivot at one position touches: the rows with an
    entry there, in ascending (touch) order, and per touched row its
    coefficient, the sums of its negative and positive coefficients after
    this entry (both 0 when this entry completes the row), and its
    targets."""

    rows: np.ndarray
    coeff: np.ndarray
    negsuf: np.ndarray
    possuf: np.ndarray
    t0: np.ndarray
    t1: np.ndarray  # equal to t0 when the row has a single target


def _frontier_dtype(problem: _Problem):
    """The narrowest integer type holding every row sum, suffix bound and
    target: int16, int32, then as ``_int_dtype`` chooses."""
    bound = max(
        int(abs(problem.dep).sum(1).max(initial=0)),
        int(problem.t1.max(initial=0)),  # targets are 0 <= t0 <= t1
        1,
    )
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return _int_dtype(bound)


def _state_bytes(problem: _Problem, dtype) -> int:
    """Bytes of one state: row sums and pivot values."""
    return problem.dep.shape[0] * np.dtype(dtype).itemsize + problem.dim


def _chunk_size(problem: _Problem, dtype, cap: int | None) -> int:
    """States expanded together: a stack of one pending chunk per
    position stays within ``FRONTIER_BYTES``; a cap of N needs no more
    than N states at once to find the first N solutions."""
    size = max(1, FRONTIER_BYTES // (problem.dim * _state_bytes(problem, dtype)))
    return size if cap is None else min(size, max(cap, 1))


def _plan(problem: _Problem, dtype) -> list[_Level]:
    """The static per-position plan of one search."""
    dep = np.ascontiguousarray(problem.dep.T, dtype=dtype)  # positions x rows
    t0, t1 = problem.t0.astype(dtype), problem.t1.astype(dtype)
    pos = np.where(dep > 0, dep, 0)
    neg = dep - pos
    # the sums of a row's positive and negative entries after each position
    possuf = np.cumsum(pos[::-1], 0, dtype=dtype)[::-1] - pos
    negsuf = np.cumsum(neg[::-1], 0, dtype=dtype)[::-1] - neg
    nz = dep != 0
    levels = []
    for p in range(problem.dim):
        rows = np.flatnonzero(nz[p])
        levels.append(
            _Level(
                rows,
                dep[p, rows],
                negsuf[p, rows],
                possuf[p, rows],
                t0[rows],
                t1[rows],
            )
        )
    return levels


def _test_children(lvl: _Level, s, prunes: dict):
    """Interval test of the children whose touched-row sums are ``s``:
    the mask of survivors.  A pruned child is charged to the kind of its
    first failing row in touch order: integrality when the row is
    complete (its interval is the sum alone), interval otherwise."""
    lo, hi = s + lvl.negsuf, s + lvl.possuf
    inside = ((lo <= lvl.t0) & (lvl.t0 <= hi)) | ((lo <= lvl.t1) & (lvl.t1 <= hi))
    ok = inside.all(1)
    if not ok.all():
        first = (~inside[~ok]).argmax(1)
        complete = (lvl.negsuf[first] == 0) & (lvl.possuf[first] == 0)
        integrality = int(complete.sum())
        prunes["integrality"] += integrality
        prunes["interval"] += len(first) - integrality
    return ok


def _solution_rows(problem: _Problem, sums, piv) -> np.ndarray:
    """Bit masks of complete states: pivot and row values scattered into
    the vertex columns, packed little-endian, one uint8 row per state."""
    full = np.zeros((len(piv), problem.v), dtype=np.uint8)
    full[:, problem.order_vertices] = piv
    full[:, problem.row_vertices] = sums == problem.scale.astype(sums.dtype)
    return np.packbits(full, axis=1, bitorder="little")


def _search(problem: _Problem, cfg: SearchConfig, deadline: float | None):
    """Depth-first search over chunks of states.

    Popping a chunk at position ``pos`` assigns that pivot in every state
    (0 then 1, or the forced value) and applies the interval test of
    each touched row as a mask.  The survivors stay in parent-major
    order and are pushed as chunks in reverse, so states are expanded,
    and solutions found, in the order of a depth-first search.
    Returns the solution bit masks in that order (at most the cap) as
    packed rows (``_solution_rows``), the node and prune counts, the most
    states held at once, and whether the search ran to the end.
    """
    dtype = _frontier_dtype(problem)
    levels = _plan(problem, dtype)
    cap = cfg.solution_cap
    chunk = _chunk_size(problem, dtype, cap)
    nrows = problem.dep.shape[0]
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
    problem = _build_problem(domain, fixed)
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
    """The point columns, and for k < n one ``(in_s, table)`` pair per
    maximal S: the packed vertices inside S, and a map from each shape
    of a restriction to S that absorbs a point p of S to the least such
    p.  Those shapes are ``ball``, the vertices of S through p, and
    ``ball | support(T)`` for each hyperplane T of S off p.  A point
    off S has no vertices in S and is skipped, so no key is 0.
    """
    data = domain._cache.get("forcing")
    if data is None:
        spec = domain.polar
        cols = coordinate_column_bits(domain)
        tables = []
        if domain.params["k"] < domain.params["n"]:
            # a hyperplane of S is S meet H for an ambient hyperplane H not
            # containing S; on point masks that meet is an intersection
            d = spec.ambient_dim
            hyps = enumerate_subspaces(domain.field, d, d - 1)
            hyps = [coords_inside(domain, h) for h in hyps]
            for s in spec.isotropic_subspaces(spec.rank):
                m = coords_inside(domain, s)
                in_s = vertices_within(domain, m)
                hyp_s = {m & h for h in hyps if m & ~h}
                hyp_s = [(vertices_within(domain, t), t) for t in hyp_s]
                table = {}
                for j in range(domain.c):
                    ball = cols[j] & in_s
                    if ball:
                        table.setdefault(ball, j)
                        for support, t in hyp_s:
                            if not (t >> j) & 1:
                                table.setdefault(ball | support, j)
                tables.append((in_s, table))
        data = (cols, tables)
        domain._cache["forcing"] = data
    return data


def _find_absorption(domain: Domain, bits: int, phase: int):
    """First point (canonical order) triggering the given absorption phase.

    Phase 1 absorbs a point to zero, phase 2 to one.  For k = n the
    trigger is the global one: the point's vertices all carry 1 (resp.
    0) while the function is not constant.  For k < n the trigger is the
    shape of the restriction to one maximal S through the point: all of
    p's vertices in S carry 1, and the rest of S carries 0 or is exactly
    the vertex set of a hyperplane of S off p (``_polar_forcing_data``).
    """
    cols, tables = _polar_forcing_data(domain)
    c, full = domain.c, (1 << domain.v) - 1
    if phase == 2:
        bits = bits ^ full  # phase 2 is phase 1 on the complement
    if not tables:  # k = n
        if bits == full:
            return None
        for j, vp in enumerate(cols):
            if vp and (bits & vp) == vp:
                return j, vp
        return None
    j = min(table.get(bits & in_s, c) for in_s, table in tables)
    return None if j == c else (j, cols[j])


def is_reduced(domain: Domain, f: BoolFn) -> bool:
    if domain.family != "polar":
        raise ClassifyError("reduction applies to polar domains only")
    if not domain.compatible(f.domain):
        raise ClassifyError("function does not live on this domain")
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

    texts = {}
    judged = True
    try:
        texts = catalog(domain, deadline).texts
    except CatalogTimeout:
        judged = complete = False
    except CatalogError:
        judged = False
    # one hex text for all rows, most significant byte first, less the
    # zero digits of each row above vertex v - 1
    width = (domain.v + 3) // 4
    digits = np.frombuffer(rows[:, ::-1].tobytes().hex().encode(), "S1")
    text = digits.reshape(len(rows), 2 * rows.shape[1])[:, -width:].tobytes().decode()
    found = [texts.get(int(text[i : i + width], 16)) for i in range(0, len(text), width)]
    miss = False if judged else None
    note = "conjecture-form candidate" if judged and domain.family == "polar" else None
    counts = {"total": len(found)}
    if judged:
        nontrivial = found.count(None)
        counts["trivial"] = len(found) - nontrivial
        counts["nontrivial"] = nontrivial
    return ClassificationReport(
        domain.manifest(),
        degree1_space(domain).dim,
        Solutions(text, width, _weights(rows).tolist(), found, miss, note),
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


# the largest field size of a measured bd run (q = 9: v = 7462, seconds)
MAX_BD_Q = 9


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
    an elliptic quadric in PG(3, q), q odd and at most ``MAX_BD_Q``.

    Secant/tangent/passant splits every line; the tangent values are the
    only free inputs, and the propagation search enumerates every
    Boolean degree-1 completion, so the output is the complete set of
    functions of Bruen-Drudge type.  From q = 7 on the search has more
    than ``MAX_UNBOUNDED_DIM`` free pivots (50 at q = 7, 82 at q = 9), so
    ``cfg`` needs a time budget or a solution cap.  Both q = 7 and q = 9
    complete in seconds, with 2 completions each.
    """
    if q % 2 == 0:
        raise ClassifyError("the quadric construction needs odd q")
    if q > MAX_BD_Q:
        raise ClassifyError(
            f"bd is measured up to q = {MAX_BD_Q}: q <= {MAX_BD_Q} required, got {q}"
        )
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
            parent, child, tuple(parent.vertex_index(key) for key in child.vertex_keys)
        )
        children[passant_key] = res
    fn = res.transport(solution)
    entry = catalog_entry(fn)
    return {
        "passant": passant_key,
        "hex": fn.to_hex(),
        "weight": fn.weight,
        "trivial": entry is not None,
        "descriptors": JsonText(entry.descriptor_text if entry else EMPTY_LIST),
    }

"""Coordinatized domains: vertex lists, coordinate indicators, adjacency.

Every family is built to the same shape: a canonically ordered vertex
list, a canonically ordered coordinate list, a 0/1 incidence matrix
whose column 0 is the all-ones constant, and the meet size t below.  The
column span of the incidence (constant included) is the degree-1 space.

One rule gives the adjacency of every family: each vertex covers a set
of coordinates (its support), and two vertices are adjacent exactly when
their supports meet in a family-wide number t of coordinates, i.e. when
they meet in codimension 1.  The adjacency is never held whole: its row
blocks give the valency, the neighbor lists and every adjacency product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import FieldSpec
from .forms import PolarSpec, make_polar_spec
from .subspaces import (
    QuotientMap,
    Subspace,
    _check_ambient,
    all_points,
    enumerate_subspaces,
    gaussian,
    rref_gf,
    span_dim,
)


class DomainError(ValueError):
    """Invalid domain parameters or incompatible operands."""


MEET_BLOCK_BYTES = 1 << 18  # bounds one block of meet counts, whatever v is


def _meet_blocks(x: np.ndarray):
    """``x @ x.T`` in int16 row blocks, for a 0/1 matrix whose rows have one
    weight: the coordinates each pair of vertices shares.  A row adds the rows
    of ``x.T`` at its support, slot by slot: exact, and no integer matmul,
    which has no BLAS.  The diagonal is -1, a count no pair has."""
    supports = np.nonzero(x)[1].reshape(len(x), -1)
    xt = np.ascontiguousarray(x.T, dtype=np.int16)
    step = max(1, MEET_BLOCK_BYTES // (2 * len(x)))
    for start in range(0, len(x), step):
        block = supports[start : start + step]
        counts = xt[block[:, 0]]
        for col in block.T[1:]:
            counts += xt[col]
        counts[range(len(block)), range(start, start + len(block))] = -1
        yield counts


@dataclass(eq=False)
class Domain:
    """The incidence (rows of one positive weight, column 0 all ones) is the only
    stored form of a domain: the valency is counted from row blocks at
    construction, the neighbor lists and adjacency products on demand."""

    family: str
    params: dict
    vertices: tuple
    vertex_keys: tuple[str, ...]
    coords: tuple
    coord_keys: tuple[str, ...]
    incidence: np.ndarray  # v x (1+c), int8; column 0 is the constant
    meet: int  # adjacent vertices share this many coordinates
    field: FieldSpec | None = None
    polar: PolarSpec | None = None
    excluded: Subspace | None = None  # the forbidden subspace of bilinear domains
    _cache: dict = dc_field(default_factory=dict, repr=False)
    valency: int | None = dc_field(init=False)  # None when not regular

    def __post_init__(self):
        weights = set(self.incidence[:, 1:].sum(1).tolist())
        if len(weights) != 1 or 0 in weights or (self.incidence[:, 0] != 1).any():
            raise DomainError("incidence rows need one weight > 0, column 0 all ones")
        degrees = {d for rows in self._adjacency_blocks() for d in rows.sum(1).tolist()}
        self.valency = degrees.pop() if len(degrees) == 1 else None

    def _adjacency_blocks(self):
        x = self.incidence[:, 1:]
        return (counts == self.meet for counts in _meet_blocks(x))

    def neighbor_counts(self, labels: np.ndarray, width: int) -> np.ndarray:
        """``A @ M`` for the v x width 0/1 matrix M that is 1 at (n, labels[n])."""
        counts = []
        for rows in self._adjacency_blocks():
            r, n = np.nonzero(rows)
            keys = (r[:, None] * width + labels[n]).ravel()
            counts.append(np.bincount(keys, minlength=len(rows) * width))
        return np.concatenate(counts).reshape(self.v, width)

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists, built on first use and cached."""
        got = self._cache.get("neighbors")
        if got is None:
            rows = (row for block in self._adjacency_blocks() for row in block)
            got = tuple(tuple(np.flatnonzero(row).tolist()) for row in rows)
            self._cache["neighbors"] = got
        return got

    @property
    def v(self) -> int:
        return len(self.vertices)

    @property
    def c(self) -> int:
        return len(self.coords)

    def vertex_index(self, key: str) -> int:
        idx = self._cache.get("vindex")
        if idx is None:
            idx = {k: i for i, k in enumerate(self.vertex_keys)}
            self._cache["vindex"] = idx
        return idx[key]

    def coord_index(self, coord) -> int:
        idx = self._cache.get("cindex")
        if idx is None:
            idx = {c: j for j, c in enumerate(self.coords)}
            self._cache["cindex"] = idx
        return idx[coord]

    def compatible(self, other: "Domain") -> bool:
        return self is other or (
            self.family == other.family and self.vertex_keys == other.vertex_keys
        )

    def manifest(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "v": self.v,
            "c": self.c,
            "valency": self.valency,
            "vertex_keys": list(self.vertex_keys),
            "coordinate_keys": list(self.coord_keys),
        }


def _assemble(
    family,
    params,
    vertices,
    vertex_keys,
    coords,
    coord_keys,
    supports,
    t,
    *,
    field=None,
    polar=None,
    excluded=None,
) -> Domain:
    """Sort the vertices by key and build the incidence.

    ``supports[i]`` lists the coordinate indices vertex i covers (all
    supports have one size); two vertices are adjacent iff their
    supports share exactly ``t`` coordinates.  No v x v array is built.
    """
    order = sorted(range(len(vertices)), key=lambda i: vertex_keys[i])
    vertices = tuple(vertices[i] for i in order)
    vertex_keys = tuple(vertex_keys[i] for i in order)
    if len(set(vertex_keys)) != len(vertex_keys):
        raise DomainError("duplicate vertex keys")
    v, c = len(vertices), len(coords)
    inc = np.zeros((v, 1 + c), dtype=np.int8)
    inc[:, 0] = 1
    inc[np.arange(v)[:, None], 1 + np.array([supports[i] for i in order])] = 1
    dom = Domain(
        family,
        params,
        vertices,
        vertex_keys,
        tuple(coords),
        tuple(coord_keys),
        inc,
        t,
        field=field,
        polar=polar,
        excluded=excluded,
    )
    if dom.valency is None:
        degrees = sorted({len(row) for row in dom.neighbors})
        raise DomainError(f"domain {family} is not regular: degrees {degrees}")
    return dom


def build_hamming(n: int, m: int) -> Domain:
    """H(n, m): words of length n over m colors, adjacency = distance 1."""
    if n < 1 or m < 2:
        raise DomainError("hamming needs n >= 1, m >= 2")
    if m > 10:
        raise DomainError("color count > 10 breaks single-digit vertex keys")
    vertices = list(itertools.product(range(m), repeat=n))
    keys = ["".join(map(str, v)) for v in vertices]
    coords = [(i, j) for i in range(n) for j in range(m)]
    ckeys = [f"{i}:{j}" for i, j in coords]
    return _assemble(
        "hamming",
        {"n": n, "m": m},
        vertices,
        keys,
        coords,
        ckeys,
        [[i * m + w[i] for i in range(n)] for w in vertices],
        n - 1,
    )


def build_johnson(n: int, k: int) -> Domain:
    """J(n, k): k-subsets of [n], adjacency = meet in k-1 elements."""
    if not 0 < k < n:
        raise DomainError("johnson needs 0 < k < n")
    width = len(str(n - 1))  # fixed width keeps string order = tuple order
    vertices = list(itertools.combinations(range(n), k))
    keys = ["".join(f"{i:0{width}d}" for i in v) for v in vertices]
    coords = list(range(n))
    return _assemble(
        "johnson",
        {"n": n, "k": k},
        vertices,
        keys,
        coords,
        [str(i) for i in coords],
        vertices,
        k - 1,
    )


def build_multislice(parts) -> Domain:
    """M(k_1..k_m): colorings with a fixed histogram, adjacency = transpositions.

    With the histogram fixed, two words that differ in exactly two
    positions differ by swapping them, so they meet in n-2 coordinates.
    Words grow a position at a time by each color not yet used up; every
    such prefix completes, so no filter over all m^n words is needed.
    """
    parts = tuple(int(x) for x in parts)
    if len(parts) < 2 or any(p < 1 for p in parts):
        raise DomainError("multislice needs >= 2 positive part sizes")
    m = len(parts)
    n = sum(parts)
    if m > 10:
        raise DomainError("color count > 10 breaks single-digit vertex keys")
    words, left = np.zeros((1, 0), np.int64), np.array([parts])  # colors to place
    for _ in range(n):
        prefix, color = np.nonzero(left)
        words, left = np.column_stack([words[prefix], color]), left[prefix]
        left[range(len(prefix)), color] -= 1
    vertices = list(map(tuple, words.tolist()))
    keys = ["".join(map(str, v)) for v in vertices]
    coords = [(i, j) for i in range(n) for j in range(m)]
    ckeys = [f"{i}:{j}" for i, j in coords]
    return _assemble(
        "multislice",
        {"parts": list(parts)},
        vertices,
        keys,
        coords,
        ckeys,
        [[i * m + w[i] for i in range(n)] for w in vertices],
        n - 2,
    )


def _assemble_subspaces(family, params, vertices, points, k, q, **kw) -> Domain:
    """k-space vertices on point coordinates; adjacency = meet in a (k-1)-space.

    Two k-spaces meet in a (k-1)-space iff they share gaussian(k-1, 1, q)
    points, since the point count of a space grows with its dimension.
    """
    index = {p.basis: j for j, p in enumerate(points)}
    dom = _assemble(
        family,
        params,
        vertices,
        [s.key() for s in vertices],
        points,
        [p.key() for p in points],
        [[index[p.basis] for p in K.points()] for K in vertices],
        gaussian(k - 1, 1, q),
        **kw,
    )
    dom._cache["pointindex"] = index
    _check_point_row_sums(dom, k, q)
    return dom


def build_grassmann(field: FieldSpec, n: int, k: int) -> Domain:
    """J_q(n, k): k-spaces of GF(q)^n, adjacency = meet in dimension k-1."""
    if not 0 < k < n:
        raise DomainError("grassmann needs 0 < k < n")
    return _assemble_subspaces(
        "grassmann",
        {"q": field.q, "n": n, "k": k},
        enumerate_subspaces(field, n, k),
        all_points(field.q, n),
        k,
        field.q,
        field=field,
    )


def build_polar(spec: PolarSpec, k: int) -> Domain:
    """C_q(n, k, e): totally isotropic k-spaces of a polar space.

    Only k >= 2 is supported: for k = 1 the natural coordinates would be
    the maximals, not the points, and that regime is out of scope.
    """
    if k == 1:
        raise DomainError("polar domains with k = 1 are not supported")
    if not 2 <= k <= spec.rank:
        raise DomainError(f"polar needs 2 <= k <= rank, got k={k}")
    return _assemble_subspaces(
        "polar",
        {
            "family": spec.family,
            "q": spec.q,
            "n": spec.rank,
            "k": k,
            "e": spec.e_tag,
            "form": spec.key(),
        },
        spec.isotropic_subspaces(k),
        spec.isotropic_points(),
        k,
        spec.q,
        field=spec.field,
        polar=spec,
    )


def build_bilinear(
    field: FieldSpec, l: int, k: int, excluded: Subspace | None = None
) -> Domain:
    """H_q(l, k): k-spaces of GF(q)^(k+l) disjoint from a fixed l-space.

    By default the excluded space is spanned by the last l standard
    basis vectors; an explicit override is accepted so that e.g. a
    passant line of a quadric can play that role.
    """
    if not 1 <= l <= k:
        raise DomainError("bilinear needs 1 <= l <= k")
    n = k + l
    if excluded is None:
        rows = [
            tuple(1 if j == n - l + i else 0 for j in range(n)) for i in range(l)
        ]
        excluded = Subspace(field.q, n, tuple(rows))
    if excluded.q != field.q or excluded.n != n or excluded.dim != l:
        raise DomainError("excluded space must be an l-space of GF(q)^(k+l)")
    vertices = [
        s
        for s in enumerate_subspaces(field, n, k)
        if span_dim(s, excluded) == k + l
    ]
    if len(vertices) != field.q ** (l * k):
        raise DomainError("bilinear vertex count mismatch")
    return _assemble_subspaces(
        "bilinear",
        {"q": field.q, "l": l, "k": k, "excluded": excluded.key()},
        vertices,
        all_points(field.q, n),
        k,
        field.q,
        field=field,
        excluded=excluded,
    )


def _check_point_row_sums(dom: Domain, k: int, q: int):
    expect = gaussian(k, 1, q)
    sums = dom.incidence[:, 1:].sum(axis=1)
    if not (sums == expect).all():
        raise DomainError("vertex point-count invariant violated")


@dataclass
class Restriction:
    parent: Domain
    child: Domain
    parent_indices: tuple[int, ...]  # child vertex i sits at parent_indices[i]

    def transport(self, f):
        """Carry a function on the parent to the child: child bit i is
        parent bit ``parent_indices[i]``."""
        from .boolfn import BoolFn

        if not self.parent.compatible(f.domain):
            raise DomainError("function does not live on the parent domain")
        bits = (((f.bits >> p) & 1) << i for i, p in enumerate(self.parent_indices))
        return BoolFn(self.child, sum(bits))


def restrict(parent: Domain, selector) -> Restriction:
    """Coordinate-induced subdomain on the selected vertices.

    ``selector`` is a predicate on vertex objects or an iterable of
    parent vertex indices.  The child keeps the parent's coordinate
    labels, so its adjacency is the induced one; functions restrict by bit
    extraction along the index map.  Indices must be integers in ``[0, v)``.
    """
    if callable(selector):
        idx = [i for i, vtx in enumerate(parent.vertices) if selector(vtx)]
    else:
        ix, v = np.asarray(list(selector)), parent.v
        if ix.size and (ix.dtype.kind not in "iu" or ix.min() < 0 or ix.max() >= v):
            raise DomainError(f"restriction indices must be integers in [0, {v})")
        idx = sorted(set(ix.tolist()))
    if not idx:
        raise DomainError("restriction selects no vertices")
    child = Domain(
        f"restriction:{parent.family}",
        {"parent": parent.params, "size": len(idx)},
        tuple(parent.vertices[i] for i in idx),
        tuple(parent.vertex_keys[i] for i in idx),
        parent.coords,
        parent.coord_keys,
        parent.incidence[idx, :],
        parent.meet,
        field=parent.field,
        polar=parent.polar,
        excluded=parent.excluded,
    )
    return Restriction(parent, child, tuple(idx))


@dataclass
class PointRestriction(Restriction):
    point: Subspace


def restrict_to_point(parent: Domain, a: Subspace) -> PointRestriction:
    """Quotient domain of all vertices through a point a.

    For a Grassmann parent the child is the Grassmann domain of the
    quotient space; for a polar parent it is the polar domain of the
    quotient form on perp(a)/a.
    """
    if parent.family == "grassmann":
        return _grassmann_point_restriction(parent, a)
    if parent.family == "polar":
        return _polar_point_restriction(parent, a)
    raise DomainError(f"restrict_to_point unsupported for {parent.family}")


def _grassmann_point_restriction(parent: Domain, a: Subspace) -> PointRestriction:
    if a.dim != 1:
        raise DomainError("restriction point must be 1-dimensional")
    n, k = parent.params["n"], parent.params["k"]
    if k < 2:
        raise DomainError("quotient needs k >= 2")
    child = build_grassmann(parent.field, n - 1, k - 1)
    qmap = QuotientMap(modulus=a)
    pairs = [
        (child.vertex_index(qmap.apply(K).key()), i)
        for i, K in _vertices_through(parent, a)
    ]
    return _finish_point_restriction(parent, child, pairs, a)


def _polar_point_restriction(parent: Domain, a: Subspace) -> PointRestriction:
    spec = parent.polar
    k = parent.params["k"]
    if a.dim != 1 or not spec.is_isotropic_vector(a.basis[0]):
        raise DomainError("restriction point must be an isotropic point")
    if k < 3:
        raise DomainError("polar quotient would need k-1 >= 2 (unsupported k=1)")
    fld = spec.field
    perp_a = spec.perp(a)
    qmap = QuotientMap(modulus=a)
    w_basis, w_piv = rref_gf(fld, [qmap.apply_vector(r) for r in perp_a.basis])
    lifts = [qmap.lift_vector(w) for w in w_basis]
    d = len(w_basis)

    def project(vec) -> tuple[int, ...]:
        img = qmap.apply_vector(vec)
        return tuple(img[c] for c in w_piv)

    if spec.quad is not None:
        quad = [[0] * d for _ in range(d)]
        for i in range(d):
            quad[i][i] = spec.quad_value(lifts[i])
            for j in range(i + 1, d):
                quad[i][j] = spec.bilinear(lifts[i], lifts[j])
        child_spec = make_polar_spec(
            spec.family, spec.rank - 1, fld, quad=quad, ambient_dim=d
        )
    else:
        gram = [
            [spec.bilinear(lifts[i], lifts[j]) for j in range(d)] for i in range(d)
        ]
        child_spec = make_polar_spec(
            spec.family,
            spec.rank - 1,
            fld,
            gram=gram,
            conj_power=spec.conj_power,
            ambient_dim=d,
        )
    child = build_polar(child_spec, k - 1)
    pairs = []
    for i, K in _vertices_through(parent, a):
        img = Subspace.from_vectors(fld, d, [project(r) for r in K.basis])
        pairs.append((child.vertex_index(img.key()), i))
    return _finish_point_restriction(parent, child, pairs, a)


def _vertices_through(parent: Domain, a: Subspace) -> list[tuple[int, Subspace]]:
    """(index, vertex) of each parent vertex on a: a's incidence nonzeros."""
    try:
        column = parent.incidence[:, 1 + parent.coord_index(a)]
    except KeyError:
        raise DomainError(f"{a.key()} is not a coordinate point") from None
    return [(i, parent.vertices[i]) for i in np.flatnonzero(column).tolist()]


def _finish_point_restriction(parent, child, pairs, a) -> PointRestriction:
    if len(pairs) != child.v or len({c for c, _ in pairs}) != child.v:
        raise DomainError("quotient map is not a bijection onto the child")
    pairs.sort()
    return PointRestriction(parent, child, tuple(p for _, p in pairs), a)


# --- packed-bit views of incidence data ---


def coordinate_column_bits(domain: Domain) -> list[int]:
    """Per-coordinate indicator columns packed as ints (bit i = vertex i)."""
    cols = domain._cache.get("colbits")
    if cols is None:
        packed = np.packbits(domain.incidence[:, 1:].T, axis=1, bitorder="little")
        cols = [int.from_bytes(row.tobytes(), "little") for row in packed]
        domain._cache["colbits"] = cols
    return cols


def coords_inside(domain: Domain, s: Subspace) -> int:
    """Packed set of the coordinate points lying in s (bit j = coordinate j),
    read off s's points; a subspace lies in s iff all its points do."""
    cache = domain._cache.setdefault("coordsinside", {})
    got = cache.get(s)
    if got is None:
        _check_ambient(s, domain.coords[0])
        if "pointindex" not in domain._cache:  # a restriction's child
            domain._cache["pointindex"] = {p.basis: j for j, p in enumerate(domain.coords)}
        index = domain._cache["pointindex"]  # as _assemble_subspaces keeps it
        got = sum(1 << index[p.basis] for p in s.points() if p.basis in index)
        cache[s] = got
    return got


def vertices_within(domain: Domain, cmask: int) -> int:
    """Packed set of the vertices whose points all lie in the coordinate
    mask ``cmask``: those that miss every column outside it."""
    got = (1 << domain.v) - 1
    for j, col in enumerate(coordinate_column_bits(domain)):
        if not (cmask >> j) & 1:
            got &= ~col
    return got


def vertices_inside_bits(domain: Domain, s: Subspace) -> int:
    """Packed support of the vertices contained in the subspace s."""
    cache = domain._cache.setdefault("insidebits", {})
    got = cache.get(s)
    if got is None:
        got = cache[s] = vertices_within(domain, coords_inside(domain, s))
    return got

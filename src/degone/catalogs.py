"""Symbolic descriptors and the known complete families they generate.

Each family of domains carries a catalog of functions built from simple
incidences (constants, single coordinates, points, hyperplanes and their
allowed unions).  Several descriptors may denote one function; the
catalog deduplicates by bitvector but keeps every generating descriptor.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .boolfn import BoolFn
from .domains import Domain
from .subspaces import Subspace, contains


class CatalogError(ValueError):
    """Violated descriptor side condition or unsupported family."""


class CatalogTimeout(CatalogError):
    """Catalog generation ran past its deadline."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise CatalogTimeout("catalog generation ran past the time budget")


def _mask(domain: Domain) -> int:
    return (1 << domain.v) - 1


def _column_bits(domain: Domain) -> list[int]:
    from .domains import coordinate_column_bits

    return coordinate_column_bits(domain)


def _point_bits(domain: Domain, p: Subspace) -> int:
    try:
        j = domain.coord_keys.index(p.key())
    except ValueError:
        raise CatalogError(f"point {p.key()} is not a coordinate of the domain")
    return _column_bits(domain)[j]


def _hyperplane_bits(domain: Domain, pi: Subspace) -> int:
    from .domains import vertices_inside_bits

    return vertices_inside_bits(domain, pi)


def _signed(domain: Domain, bits: int, positive: bool) -> BoolFn:
    return BoolFn(domain, bits if positive else bits ^ _mask(domain))


@dataclass(frozen=True)
class Constant:
    value: int

    def evaluate(self, domain: Domain) -> BoolFn:
        return BoolFn.constant(domain, self.value)

    def to_json(self):
        return {"shape": "constant", "value": self.value}


@dataclass(frozen=True)
class CoordColor:
    """Depends on the color of one position: f(w) = [w_i in colors]."""

    position: int
    colors: frozenset[int]

    def evaluate(self, domain: Domain) -> BoolFn:
        if domain.family not in ("hamming", "multislice"):
            raise CatalogError("CoordColor applies to hamming/multislice domains")
        cols = _column_bits(domain)
        bits = 0
        for j, (i, c) in enumerate(domain.coords):
            if i == self.position and c in self.colors:
                bits |= cols[j]
        return BoolFn(domain, bits)

    def to_json(self):
        return {
            "shape": "coord-color",
            "position": self.position,
            "colors": sorted(self.colors),
        }


@dataclass(frozen=True)
class PositionOfColor:
    """For a color held exactly once: f(w) = [the position holding it is in I]."""

    color: int
    positions: frozenset[int]

    def evaluate(self, domain: Domain) -> BoolFn:
        if domain.family != "multislice":
            raise CatalogError("PositionOfColor applies to multislice domains")
        if domain.params["parts"][self.color] != 1:
            raise CatalogError("PositionOfColor needs a color with multiplicity 1")
        cols = _column_bits(domain)
        bits = 0
        for j, (i, c) in enumerate(domain.coords):
            if c == self.color and i in self.positions:
                bits |= cols[j]
        return BoolFn(domain, bits)

    def to_json(self):
        return {
            "shape": "position-of-color",
            "color": self.color,
            "positions": sorted(self.positions),
        }


@dataclass(frozen=True)
class Dictator:
    """Membership of one element: f(S) = [i in S], or its complement."""

    element: int
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        if domain.family != "johnson":
            raise CatalogError("Dictator applies to johnson domains")
        j = domain.coords.index(self.element)
        return _signed(domain, _column_bits(domain)[j], self.positive)

    def to_json(self):
        return {
            "shape": "dictator",
            "element": self.element,
            "sign": "+" if self.positive else "-",
        }


@dataclass(frozen=True)
class PointIndicator:
    point: Subspace
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        return _signed(domain, _point_bits(domain, self.point), self.positive)

    def to_json(self):
        return {
            "shape": "point",
            "point": self.point.key(),
            "sign": "+" if self.positive else "-",
        }


@dataclass(frozen=True)
class HyperplaneIndicator:
    hyperplane: Subspace
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        if self.hyperplane.dim != self.hyperplane.n - 1:
            raise CatalogError("not a hyperplane")
        return _signed(
            domain, _hyperplane_bits(domain, self.hyperplane), self.positive
        )

    def to_json(self):
        return {
            "shape": "hyperplane",
            "hyperplane": self.hyperplane.key(),
            "sign": "+" if self.positive else "-",
        }


@dataclass(frozen=True)
class PointOrHyperplane:
    """(p+ or pi+)^sign with the point off the hyperplane."""

    point: Subspace
    hyperplane: Subspace
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        if contains(self.hyperplane, self.point):
            raise CatalogError("side condition violated: point lies in hyperplane")
        bits = _point_bits(domain, self.point) | _hyperplane_bits(
            domain, self.hyperplane
        )
        return _signed(domain, bits, self.positive)

    def to_json(self):
        return {
            "shape": "point-or-hyperplane",
            "point": self.point.key(),
            "hyperplane": self.hyperplane.key(),
            "sign": "+" if self.positive else "-",
        }


def _require_coclique(domain: Domain, points: tuple[Subspace, ...]):
    spec = domain.polar
    for a, b in itertools.combinations(points, 2):
        if a == b or spec.collinear(a, b):
            raise CatalogError(
                "side condition violated: points must be pairwise non-collinear"
            )


@dataclass(frozen=True)
class PolarPointUnion:
    """Union of point indicators over pairwise non-collinear points."""

    points: tuple[Subspace, ...]
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        if not self.points:
            raise CatalogError("need at least one point")
        _require_coclique(domain, self.points)
        bits = 0
        for p in self.points:
            bits |= _point_bits(domain, p)
        return _signed(domain, bits, self.positive)

    def to_json(self):
        return {
            "shape": "polar-point-union",
            "points": sorted(p.key() for p in self.points),
            "sign": "+" if self.positive else "-",
        }


@dataclass(frozen=True)
class PolarHyperplaneUnion:
    """(pi+ or union of p_i+)^sign, points off pi, pairwise non-collinear."""

    hyperplane: Subspace
    points: tuple[Subspace, ...]
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        _require_coclique(domain, self.points)
        for p in self.points:
            if contains(self.hyperplane, p):
                raise CatalogError(
                    "side condition violated: point lies in hyperplane"
                )
        bits = _hyperplane_bits(domain, self.hyperplane)
        for p in self.points:
            bits |= _point_bits(domain, p)
        return _signed(domain, bits, self.positive)

    def to_json(self):
        return {
            "shape": "polar-hyperplane-union",
            "hyperplane": self.hyperplane.key(),
            "points": sorted(p.key() for p in self.points),
            "sign": "+" if self.positive else "-",
        }


@dataclass(frozen=True)
class PolarApexUnion:
    """((perp(apex)+ and apex-) or union of p_i+)^sign.

    The hyperplane is the degenerate one attached to the apex point; the
    extra points are pairwise non-collinear and non-collinear with the
    apex (hence automatically off the hyperplane).
    """

    apex: Subspace
    points: tuple[Subspace, ...]
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        spec = domain.polar
        if not spec.is_isotropic_vector(self.apex.basis[0]):
            raise CatalogError("apex must be an isotropic point")
        _require_coclique(domain, (self.apex,) + self.points)
        pi = spec.perp(self.apex)
        bits = _hyperplane_bits(domain, pi) & ~_point_bits(domain, self.apex)
        for p in self.points:
            bits |= _point_bits(domain, p)
        return _signed(domain, bits & _mask(domain), self.positive)

    def to_json(self):
        return {
            "shape": "polar-apex-union",
            "apex": self.apex.key(),
            "points": sorted(p.key() for p in self.points),
            "sign": "+" if self.positive else "-",
        }


@dataclass(frozen=True)
class BilinearUnion:
    """(union of p_i+ or union of pi_i+)^sign on a bilinear-forms domain.

    The points live on one line g meeting the excluded space L in a
    point (and off L themselves); the hyperplanes share the same trace
    G = meet(pi, L) of codimension one in L; no chosen point lies in a
    chosen hyperplane.  These conditions make all the unions disjoint.
    """

    line: Subspace | None
    trace: Subspace | None
    points: tuple[Subspace, ...]
    hyperplanes: tuple[Subspace, ...]
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        if domain.family != "bilinear":
            raise CatalogError("BilinearUnion applies to bilinear domains")
        ell = domain.excluded
        if self.points:
            if self.line is None:
                raise CatalogError("points require the carrier line")
            from .subspaces import meet

            if meet(self.line, ell).dim != 1:
                raise CatalogError(
                    "side condition violated: line must meet the excluded "
                    "space in a point"
                )
            for p in self.points:
                if not contains(self.line, p) or contains(ell, p):
                    raise CatalogError(
                        "side condition violated: points must lie on the "
                        "line and off the excluded space"
                    )
        if self.hyperplanes:
            if self.trace is None:
                raise CatalogError("hyperplanes require the trace subspace")
            from .subspaces import meet

            if (
                not contains(ell, self.trace)
                or self.trace.dim != ell.dim - 1
            ):
                raise CatalogError(
                    "side condition violated: trace must be a hyperplane "
                    "of the excluded space"
                )
            for pi in self.hyperplanes:
                if meet(pi, ell) != self.trace:
                    raise CatalogError(
                        "side condition violated: hyperplane trace mismatch"
                    )
        for p in self.points:
            for pi in self.hyperplanes:
                if contains(pi, p):
                    raise CatalogError(
                        "side condition violated: point lies in hyperplane"
                    )
        bits = 0
        for p in self.points:
            bits |= _point_bits(domain, p)
        for pi in self.hyperplanes:
            bits |= _hyperplane_bits(domain, pi)
        return _signed(domain, bits, self.positive)

    def to_json(self):
        return {
            "shape": "bilinear-union",
            "line": self.line.key() if self.line else None,
            "trace": self.trace.key() if self.trace else None,
            "points": sorted(p.key() for p in self.points),
            "hyperplanes": sorted(h.key() for h in self.hyperplanes),
            "sign": "+" if self.positive else "-",
        }


@dataclass(frozen=True)
class CatalogEntry:
    fn: BoolFn
    descriptors: tuple


def evaluate(descriptor, domain: Domain) -> BoolFn:
    return descriptor.evaluate(domain)


def catalog(domain: Domain, deadline: float | None = None) -> list[CatalogEntry]:
    """All functions of the family's catalog shape, deduplicated by bits.

    Generation past ``deadline`` (a ``time.monotonic()`` value) raises
    ``CatalogTimeout`` and caches nothing; a cached catalog is returned
    whatever the deadline.
    """
    got = domain._cache.get("catalog")
    if got is None:
        gens = _generators(domain, deadline)
        table: dict[int, list] = {}
        for d in gens:
            _check_deadline(deadline)
            fn = d.evaluate(domain)
            table.setdefault(fn.bits, []).append(d)
        got = [
            CatalogEntry(
                BoolFn(domain, bits),
                tuple(sorted(descs, key=lambda d: repr(d.to_json()))),
            )
            for bits, descs in sorted(table.items())
        ]
        domain._cache["catalog"] = got
    return got


def catalog_bits(domain: Domain) -> set[int]:
    return {e.fn.bits for e in catalog(domain)}


def match_catalog(f: BoolFn) -> tuple:
    """Descriptors evaluating to f exactly; empty if f is non-trivial."""
    lookup = f.domain._cache.get("catalog_lookup")
    if lookup is None:
        lookup = {e.fn.bits: e.descriptors for e in catalog(f.domain)}
        f.domain._cache["catalog_lookup"] = lookup
    return lookup.get(f.bits, ())


def _generators(domain: Domain, deadline: float | None):
    fam = domain.family
    if fam == "hamming":
        return _hamming_generators(domain)
    if fam == "johnson":
        return _johnson_generators(domain)
    if fam == "multislice":
        return _multislice_generators(domain)
    if fam == "grassmann":
        return _grassmann_generators(domain)
    if fam == "polar":
        return _polar_generators(domain, deadline)
    if fam == "bilinear":
        return _bilinear_generators(domain)
    raise CatalogError(f"no catalog for family {fam!r}")


def _hamming_generators(domain: Domain):
    n, m = domain.params["n"], domain.params["m"]
    out = []
    for i in range(n):
        for r in range(m + 1):
            for js in itertools.combinations(range(m), r):
                out.append(CoordColor(i, frozenset(js)))
    return out


def _johnson_generators(domain: Domain):
    out = [Constant(0), Constant(1)]
    for i in range(domain.params["n"]):
        out.append(Dictator(i, True))
        out.append(Dictator(i, False))
    return out


def _multislice_generators(domain: Domain):
    parts = domain.params["parts"]
    m = len(parts)
    n = sum(parts)
    out = []
    for i in range(n):
        for r in range(m + 1):
            for js in itertools.combinations(range(m), r):
                out.append(CoordColor(i, frozenset(js)))
    for c in range(m):
        if parts[c] == 1:
            for r in range(n + 1):
                for pos in itertools.combinations(range(n), r):
                    out.append(PositionOfColor(c, frozenset(pos)))
    return out


def _grassmann_generators(domain: Domain):
    from .subspaces import enumerate_subspaces

    n = domain.params["n"]
    points = domain.coords
    hyperplanes = enumerate_subspaces(domain.field, n, n - 1)
    out = [Constant(0), Constant(1)]
    for sign in (True, False):
        for p in points:
            out.append(PointIndicator(p, sign))
        for pi in hyperplanes:
            out.append(HyperplaneIndicator(pi, sign))
        for pi in hyperplanes:
            for p in points:
                if not contains(pi, p):
                    out.append(PointOrHyperplane(p, pi, sign))
    return out


COCLIQUE_POINT_LIMIT = 200
COCLIQUE_GENERATION_LIMIT = 2_000_000


def _cocliques(points, is_compatible, budget=None, deadline=None):
    """All nonempty cocliques of the given points, by depth-first walk.

    ``budget`` is a single-element countdown shared across the walks of
    one catalog generation; families beyond it are not desk scale.  The
    walk checks ``deadline`` at every member it adds.
    """
    n = len(points)
    out = []

    def walk(start, current):
        for i in range(start, n):
            p = points[i]
            if all(is_compatible(p, q) for q in current):
                _check_deadline(deadline)
                if budget is not None:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise CatalogError(
                            "polar catalog coclique family exceeds "
                            f"{COCLIQUE_GENERATION_LIMIT} members; "
                            "beyond desk scale"
                        )
                nxt = current + (p,)
                out.append(nxt)
                walk(i + 1, nxt)

    walk(0, ())
    return out


def _polar_generators(domain: Domain, deadline: float | None):
    from .subspaces import enumerate_subspaces

    spec = domain.polar
    points = list(spec.isotropic_points())
    if len(points) > COCLIQUE_POINT_LIMIT:
        raise CatalogError(
            "polar catalog only supported up to "
            f"{COCLIQUE_POINT_LIMIT} isotropic points"
        )
    hyperplanes = enumerate_subspaces(spec.field, spec.ambient_dim, spec.ambient_dim - 1)
    non_collinear = lambda a, b: a != b and not spec.collinear(a, b)
    budget = [COCLIQUE_GENERATION_LIMIT]
    out = [Constant(0), Constant(1)]
    for sign in (True, False):
        for pi in hyperplanes:
            out.append(HyperplaneIndicator(pi, sign))
        for cl in _cocliques(points, non_collinear, budget, deadline):
            out.append(PolarPointUnion(cl, sign))
        for pi in hyperplanes:
            off = [p for p in points if not contains(pi, p)]
            for cl in _cocliques(off, non_collinear, budget, deadline):
                if cl:
                    out.append(PolarHyperplaneUnion(pi, cl, sign))
        for apex in points:
            free = [p for p in points if non_collinear(p, apex)]
            out.append(PolarApexUnion(apex, (), sign))
            for cl in _cocliques(free, non_collinear, budget, deadline):
                out.append(PolarApexUnion(apex, cl, sign))
    return out


BILINEAR_FAMILY_LIMIT = 10  # max hyperplanes per trace (q**k) we expand


def _bilinear_generators(domain: Domain):
    from .subspaces import enumerate_subspaces, meet

    fld = domain.field
    ell = domain.excluded
    n = ell.n
    if domain.params["q"] ** domain.params["k"] > BILINEAR_FAMILY_LIMIT:
        raise CatalogError(
            "bilinear catalog needs 2^(q^k) hyperplane subsets per trace; "
            f"q^k > {BILINEAR_FAMILY_LIMIT} is beyond desk scale"
        )
    lines = [
        g for g in enumerate_subspaces(fld, n, 2) if meet(g, ell).dim == 1
    ]
    traces = [
        t
        for t in enumerate_subspaces(fld, n, ell.dim - 1)
        if contains(ell, t)
    ]
    hyps = enumerate_subspaces(fld, n, n - 1)
    hyps_by_trace = {t.basis: [] for t in traces}
    for pi in hyps:
        tr = meet(pi, ell)
        if tr.dim == ell.dim - 1:
            hyps_by_trace[tr.basis].append(pi)
    out = [Constant(0), Constant(1)]
    for sign in (True, False):
        for g in lines:
            pts = [p for p in g.points() if not contains(ell, p)]
            for r in range(1, len(pts) + 1):
                for ps in itertools.combinations(pts, r):
                    out.append(BilinearUnion(g, None, ps, (), sign))
        for t in traces:
            compatible = hyps_by_trace[t.basis]
            for r in range(1, len(compatible) + 1):
                for hs in itertools.combinations(compatible, r):
                    out.append(BilinearUnion(None, t, (), hs, sign))
        for g in lines:
            pts = [p for p in g.points() if not contains(ell, p)]
            for t in traces:
                compatible = hyps_by_trace[t.basis]
                for pr in range(1, len(pts) + 1):
                    for ps in itertools.combinations(pts, pr):
                        ok_h = [
                            h
                            for h in compatible
                            if not any(contains(h, p) for p in ps)
                        ]
                        for hr in range(1, len(ok_h) + 1):
                            for hs in itertools.combinations(ok_h, hr):
                                out.append(BilinearUnion(g, t, ps, hs, sign))
    return out

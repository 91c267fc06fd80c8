"""The catalog generators and descriptor evaluation that the mask-based
catalog replaced, kept verbatim as the differential reference for it.

Here every side condition and every support is decided with
``subspaces.contains``, ``subspaces.meet`` and ``PolarSpec.collinear``;
``oracle_catalog`` returns the sorted ``(bits, descriptor JSON)`` list that
``catalogs.catalog`` must reproduce.
"""

from __future__ import annotations

import itertools

from degone.boolfn import BoolFn
from degone.catalogs import (
    COCLIQUE_GENERATION_LIMIT,
    COCLIQUE_POINT_LIMIT,
    BILINEAR_FAMILY_LIMIT,
    BilinearUnion,
    CatalogError,
    Constant,
    HyperplaneIndicator,
    PointIndicator,
    PointOrHyperplane,
    PolarApexUnion,
    PolarHyperplaneUnion,
    PolarPointUnion,
)
from degone.domains import Domain, coordinate_column_bits
from degone.jsontext import MEMBER, encode
from degone.subspaces import Subspace, contains, enumerate_subspaces, meet


def _mask(domain: Domain) -> int:
    return (1 << domain.v) - 1


def _column_bits(domain: Domain) -> list[int]:
    return coordinate_column_bits(domain)


def _point_bits(domain: Domain, p: Subspace) -> int:
    try:
        j = domain.coord_keys.index(p.key())
    except ValueError:
        raise CatalogError(f"point {p.key()} is not a coordinate of the domain")
    return _column_bits(domain)[j]


def vertices_inside_bits(domain: Domain, s: Subspace) -> int:
    """Packed support of the vertices contained in the subspace s."""
    cache = domain._cache.setdefault("oracle_insidebits", {})
    got = cache.get(s.basis)
    if got is None:
        got = 0
        for i, K in enumerate(domain.vertices):
            if contains(s, K):
                got |= 1 << i
        cache[s.basis] = got
    return got


def _hyperplane_bits(domain: Domain, pi: Subspace) -> int:
    return vertices_inside_bits(domain, pi)


def _signed(domain: Domain, bits: int, positive: bool) -> BoolFn:
    return BoolFn(domain, bits if positive else bits ^ _mask(domain))


def _require_coclique(domain: Domain, points: tuple[Subspace, ...]):
    spec = domain.polar
    for a, b in itertools.combinations(points, 2):
        if a == b or spec.collinear(a, b):
            raise CatalogError(
                "side condition violated: points must be pairwise non-collinear"
            )


# --- the descriptors' evaluate bodies ------------------------------------


def _eval_constant(self, domain):
    return BoolFn.constant(domain, self.value)


def _eval_point(self, domain):
    return _signed(domain, _point_bits(domain, self.point), self.positive)


def _eval_hyperplane(self, domain):
    if self.hyperplane.dim != self.hyperplane.n - 1:
        raise CatalogError("not a hyperplane")
    return _signed(
        domain, _hyperplane_bits(domain, self.hyperplane), self.positive
    )


def _eval_point_or_hyperplane(self, domain):
    if contains(self.hyperplane, self.point):
        raise CatalogError("side condition violated: point lies in hyperplane")
    bits = _point_bits(domain, self.point) | _hyperplane_bits(
        domain, self.hyperplane
    )
    return _signed(domain, bits, self.positive)


def _eval_polar_point_union(self, domain):
    if not self.points:
        raise CatalogError("need at least one point")
    _require_coclique(domain, self.points)
    bits = 0
    for p in self.points:
        bits |= _point_bits(domain, p)
    return _signed(domain, bits, self.positive)


def _eval_polar_hyperplane_union(self, domain):
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


def _eval_polar_apex_union(self, domain):
    spec = domain.polar
    if not spec.is_isotropic_vector(self.apex.basis[0]):
        raise CatalogError("apex must be an isotropic point")
    _require_coclique(domain, (self.apex,) + self.points)
    pi = spec.perp(self.apex)
    bits = _hyperplane_bits(domain, pi) & ~_point_bits(domain, self.apex)
    for p in self.points:
        bits |= _point_bits(domain, p)
    return _signed(domain, bits & _mask(domain), self.positive)


def _eval_bilinear_union(self, domain):
    if domain.family != "bilinear":
        raise CatalogError("BilinearUnion applies to bilinear domains")
    ell = domain.excluded
    if self.points:
        if self.line is None:
            raise CatalogError("points require the carrier line")
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


_EVALUATE = {
    Constant: _eval_constant,
    PointIndicator: _eval_point,
    HyperplaneIndicator: _eval_hyperplane,
    PointOrHyperplane: _eval_point_or_hyperplane,
    PolarPointUnion: _eval_polar_point_union,
    PolarHyperplaneUnion: _eval_polar_hyperplane_union,
    PolarApexUnion: _eval_polar_apex_union,
    BilinearUnion: _eval_bilinear_union,
}


def evaluate(descriptor, domain: Domain) -> BoolFn:
    return _EVALUATE[type(descriptor)](descriptor, domain)


# --- the generators ------------------------------------------------------


def _grassmann_generators(domain: Domain):
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


def _cocliques(points, is_compatible, budget=None):
    """All nonempty cocliques of the given points, by depth-first walk."""
    n = len(points)
    out = []

    def walk(start, current):
        for i in range(start, n):
            p = points[i]
            if all(is_compatible(p, q) for q in current):
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


def _polar_generators(domain: Domain):
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
        for cl in _cocliques(points, non_collinear, budget):
            out.append(PolarPointUnion(cl, sign))
        for pi in hyperplanes:
            off = [p for p in points if not contains(pi, p)]
            for cl in _cocliques(off, non_collinear, budget):
                if cl:
                    out.append(PolarHyperplaneUnion(pi, cl, sign))
        for apex in points:
            free = [p for p in points if non_collinear(p, apex)]
            out.append(PolarApexUnion(apex, (), sign))
            for cl in _cocliques(free, non_collinear, budget):
                out.append(PolarApexUnion(apex, cl, sign))
    return out


def _bilinear_generators(domain: Domain):
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


_GENERATORS = {
    "grassmann": _grassmann_generators,
    "polar": _polar_generators,
    "bilinear": _bilinear_generators,
}


def oracle_catalog(domain: Domain) -> list[tuple[int, list[dict]]]:
    """Sorted ``(bits, descriptor JSON)`` pairs, descriptors sorted by
    their JSON text as a list member, as ``catalogs.catalog`` sorts them."""
    table: dict[int, list] = {}
    for d in _GENERATORS[domain.family](domain):
        table.setdefault(evaluate(d, domain).bits, []).append(d.to_json())
    return [
        (bits, sorted(descs, key=lambda js: encode(js, MEMBER)))
        for bits, descs in sorted(table.items())
    ]

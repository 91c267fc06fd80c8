"""Symbolic descriptors and the known complete families they generate.

Each family of domains carries a catalog of functions built from simple
incidences (constants, single coordinates, points, hyperplanes and their
allowed unions).  Several descriptors may denote one function; the
catalog deduplicates by bitvector but keeps every generating descriptor.

On subspace domains every incidence question is a mask operation on
``domains.coords_inside`` (the coordinate points in a subspace): points
off a subspace are clear bits, polar points are non-collinear when one
is off the other's perp, and cocliques come from the one clique walker.
"""

from __future__ import annotations

import itertools
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass

from .boolfn import BoolFn
from .domains import Domain, coordinate_column_bits, coords_inside, vertices_inside_bits
from .jsontext import MEMBER, encode, list_text
from .subspaces import Subspace, enumerate_subspaces


class CatalogError(ValueError):
    """Violated descriptor side condition or unsupported family."""


class CatalogTimeout(CatalogError):
    """Catalog generation ran past its deadline."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise CatalogTimeout("catalog generation ran past the time budget")


def _indices(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _coord(domain: Domain, p: Subspace) -> int:
    try:
        return domain.coord_index(p)
    except KeyError:
        raise CatalogError(f"point {p.key()} is not a coordinate of the domain")


def _through(domain: Domain, cmask: int) -> int:
    """Packed set of the vertices through any coordinate in ``cmask``."""
    cols = coordinate_column_bits(domain)
    bits = 0
    for j in _indices(cmask):
        bits |= cols[j]
    return bits


def _signed(domain: Domain, bits: int, positive: bool) -> BoolFn:
    return BoolFn(domain, bits if positive else bits ^ ((1 << domain.v) - 1))


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
        picked = (
            1 << j
            for j, (i, c) in enumerate(domain.coords)
            if i == self.position and c in self.colors
        )
        return BoolFn(domain, _through(domain, sum(picked)))

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
        picked = (
            1 << j
            for j, (i, c) in enumerate(domain.coords)
            if c == self.color and i in self.positions
        )
        return BoolFn(domain, _through(domain, sum(picked)))

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
        return _signed(domain, coordinate_column_bits(domain)[j], self.positive)

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
        j = _coord(domain, self.point)
        return _signed(domain, coordinate_column_bits(domain)[j], self.positive)

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
            domain, vertices_inside_bits(domain, self.hyperplane), self.positive
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
        inside = coords_inside(domain, self.hyperplane)
        j = _coord(domain, self.point)
        if (inside >> j) & 1:
            raise CatalogError("side condition violated: point lies in hyperplane")
        bits = _through(domain, 1 << j) | vertices_inside_bits(domain, self.hyperplane)
        return _signed(domain, bits, self.positive)

    def to_json(self):
        return {
            "shape": "point-or-hyperplane",
            "point": self.point.key(),
            "hyperplane": self.hyperplane.key(),
            "sign": "+" if self.positive else "-",
        }


def _perps(domain: Domain) -> list[tuple[Subspace, int]]:
    """Per coordinate point p of a polar domain: perp(p) and the mask of
    the points off it, those neither equal nor collinear to p."""
    got = domain._cache.get("perps")
    if got is None:
        off = (1 << domain.c) - 1
        perps = map(domain.polar.perp, domain.coords)
        got = [(pi, off ^ coords_inside(domain, pi)) for pi in perps]
        domain._cache["perps"] = got
    return got


def _coclique_mask(domain: Domain, points: tuple[Subspace, ...]) -> int:
    """Coordinate mask of the points, which must be pairwise non-collinear."""
    perps = _perps(domain)
    got = 0
    for p in points:
        j = _coord(domain, p)
        if got & ~perps[j][1]:
            raise CatalogError(
                "side condition violated: points must be pairwise non-collinear"
            )
        got |= 1 << j
    return got


@dataclass(frozen=True)
class PolarPointUnion:
    """Union of point indicators over pairwise non-collinear points."""

    points: tuple[Subspace, ...]
    positive: bool

    def evaluate(self, domain: Domain) -> BoolFn:
        if not self.points:
            raise CatalogError("need at least one point")
        cm = _coclique_mask(domain, self.points)
        return _signed(domain, _through(domain, cm), self.positive)

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
        cm = _coclique_mask(domain, self.points)
        inside = coords_inside(domain, self.hyperplane)
        if cm & inside:
            raise CatalogError("side condition violated: point lies in hyperplane")
        bits = vertices_inside_bits(domain, self.hyperplane) | _through(domain, cm)
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
        a = _coord(domain, self.apex)
        cm = _coclique_mask(domain, (self.apex,) + self.points)
        cone = vertices_inside_bits(domain, _perps(domain)[a][0])
        cone &= ~coordinate_column_bits(domain)[a]
        return _signed(domain, cone | _through(domain, cm ^ (1 << a)), self.positive)

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
        excl = coords_inside(domain, ell)
        pm = 0
        if self.points:
            if self.line is None:
                raise CatalogError("points require the carrier line")
            line = coords_inside(domain, self.line)
            if (line & excl).bit_count() != 1:
                raise CatalogError(
                    "side condition violated: line must meet the excluded "
                    "space in a point"
                )
            for p in self.points:
                pm |= 1 << _coord(domain, p)
            if pm & ~line or pm & excl:
                raise CatalogError(
                    "side condition violated: points must lie on the "
                    "line and off the excluded space"
                )
        if self.hyperplanes:
            if self.trace is None:
                raise CatalogError("hyperplanes require the trace subspace")
            trace = coords_inside(domain, self.trace)
            if trace & ~excl or self.trace.dim != ell.dim - 1:
                raise CatalogError(
                    "side condition violated: trace must be a hyperplane "
                    "of the excluded space"
                )
            for pi in self.hyperplanes:
                if coords_inside(domain, pi) & excl != trace:
                    raise CatalogError(
                        "side condition violated: hyperplane trace mismatch"
                    )
        bits = _through(domain, pm)
        for pi in self.hyperplanes:
            if pm & coords_inside(domain, pi):
                raise CatalogError(
                    "side condition violated: point lies in hyperplane"
                )
            bits |= vertices_inside_bits(domain, pi)
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
    """A catalog function and the JSON text of its descriptor list, as
    json.dumps(list, indent=2, sort_keys=True) writes it."""

    fn: BoolFn
    descriptor_text: str

    @property
    def descriptor_json(self) -> tuple[dict, ...]:
        """The descriptors' JSON, parsed from the text."""
        return tuple(json.loads(self.descriptor_text))

    @property
    def descriptors(self) -> tuple:
        """The descriptor objects, in the order of ``descriptor_json``."""
        return _descriptor_objects(self.fn.domain)[self.fn.bits]


class Catalog(Sequence):
    """A domain's catalog, its entries in order of their bits.

    ``texts`` maps the bits of each catalog function to the text of its
    descriptor list; it holds only ints and strings, so the collector
    tracks none of it.  Entries are built on demand.
    """

    __slots__ = ("domain", "texts")

    def __init__(self, domain: Domain, texts: dict[int, str]):
        self.domain = domain
        self.texts = texts

    def __len__(self) -> int:
        return len(self.texts)

    def __iter__(self):
        dom = self.domain
        for bits, text in self.texts.items():
            yield CatalogEntry(BoolFn(dom, bits), text)

    def __getitem__(self, i):
        bits = list(self.texts)[i]
        if isinstance(i, slice):
            return [CatalogEntry(BoolFn(self.domain, b), self.texts[b]) for b in bits]
        return CatalogEntry(BoolFn(self.domain, bits), self.texts[bits])


def catalog(domain: Domain, deadline: float | None = None) -> Catalog:
    """All functions of the family's catalog shape, deduplicated by bits.

    Only each entry's descriptor text is kept; the objects are rebuilt on
    demand by ``CatalogEntry.descriptors``.  Generation past ``deadline``
    (a ``time.monotonic()`` value) raises ``CatalogTimeout`` and caches
    nothing; a cached catalog is returned whatever the deadline.
    """
    texts = domain._cache.get("catalog")
    if texts is None:
        texts = domain._cache["catalog"] = _catalog_texts(domain, deadline)
    return Catalog(domain, texts)


def _text(d) -> str:
    """A descriptor's stored text: its JSON encoded as a list member.  A
    function's descriptor list is its descriptors' texts, sorted."""
    return encode(d.to_json(), MEMBER)


def _catalog_texts(domain: Domain, deadline: float | None) -> dict[int, str]:
    """The text of each catalog function's descriptor list by its bits,
    in order of the bits.

    A function's first descriptor is encoded as it arrives, and its dict
    dropped.  The later descriptors of a function are kept as the objects
    the stream made and encoded at the end, when the list is sorted.
    """
    table: dict[int, str | list] = {}
    for bits, d in _generators(domain, deadline):
        _check_deadline(deadline)
        got = table.get(bits)
        if got is None:
            table[bits] = _text(d)
        elif type(got) is str:
            table[bits] = [got, d]
        else:
            got.append(d)
    return {bits: _list_of(table.pop(bits), deadline) for bits in sorted(table)}


def _list_of(got: str | list, deadline: float | None) -> str:
    """The list text of a first descriptor's text, or of that text and
    the later descriptors."""
    if type(got) is str:
        return list_text([got])
    texts = [got[0]]
    for d in got[1:]:
        _check_deadline(deadline)
        texts.append(_text(d))
    return list_text(sorted(texts))


def _descriptor_objects(domain: Domain) -> dict[int, tuple]:
    """The descriptor objects of each catalog function by its bits, in
    the order of the entry's descriptor text; built from a second run of
    the generators, and cached."""
    got = domain._cache.get("descriptor_objects")
    if got is None:
        table: dict[int, list] = {}
        for bits, d in _generators(domain):
            table.setdefault(bits, []).append(d)
        # a lone descriptor is not encoded: sorting would encode it
        got = {
            bits: tuple(ds) if len(ds) == 1 else tuple(sorted(ds, key=_text))
            for bits, ds in table.items()
        }
        domain._cache["descriptor_objects"] = got
    return got


def catalog_bits(domain: Domain) -> set[int]:
    return set(catalog(domain).texts)


def catalog_entry(f: BoolFn) -> CatalogEntry | None:
    """The catalog entry of f, or None if f is non-trivial."""
    text = catalog(f.domain).texts.get(f.bits)
    return None if text is None else CatalogEntry(f, text)


def match_catalog(f: BoolFn) -> tuple:
    """Descriptors evaluating to f exactly; empty if f is non-trivial."""
    entry = catalog_entry(f)
    return entry.descriptors if entry else ()


def _generators(domain: Domain, deadline: float | None = None):
    """The family's descriptors as a lazy stream of ``(bits, descriptor)``
    pairs.  The subspace families compute ``bits`` from the masks they
    already hold and trust the side conditions their walks guarantee;
    ``descriptor.evaluate`` re-checks them."""
    fam = domain.family
    if fam == "hamming":
        return _evaluated(domain, _hamming_generators(domain))
    if fam == "johnson":
        return _evaluated(domain, _johnson_generators(domain))
    if fam == "multislice":
        return _evaluated(domain, _multislice_generators(domain))
    if fam == "grassmann":
        return _grassmann_generators(domain)
    if fam == "polar":
        return _polar_generators(domain, deadline)
    if fam == "bilinear":
        return _bilinear_generators(domain)
    raise CatalogError(f"no catalog for family {fam!r}")


def _evaluated(domain: Domain, descriptors):
    for d in descriptors:
        yield d.evaluate(domain).bits, d


def _hamming_generators(domain: Domain):
    n, m = domain.params["n"], domain.params["m"]
    for i in range(n):
        for r in range(m + 1):
            for js in itertools.combinations(range(m), r):
                yield CoordColor(i, frozenset(js))


def _johnson_generators(domain: Domain):
    yield Constant(0)
    yield Constant(1)
    for i in range(domain.params["n"]):
        yield Dictator(i, True)
        yield Dictator(i, False)


def _multislice_generators(domain: Domain):
    parts = domain.params["parts"]
    m = len(parts)
    n = sum(parts)
    for i in range(n):
        for r in range(m + 1):
            for js in itertools.combinations(range(m), r):
                yield CoordColor(i, frozenset(js))
    for c in range(m):
        if parts[c] == 1:
            for r in range(n + 1):
                for pos in itertools.combinations(range(n), r):
                    yield PositionOfColor(c, frozenset(pos))


def _grassmann_generators(domain: Domain):
    n = domain.params["n"]
    points = domain.coords
    cols = coordinate_column_bits(domain)
    hyperplanes = [
        (pi, vertices_inside_bits(domain, pi), coords_inside(domain, pi))
        for pi in enumerate_subspaces(domain.field, n, n - 1)
    ]
    everything = (1 << domain.c) - 1
    full = (1 << domain.v) - 1
    yield 0, Constant(0)
    yield full, Constant(1)
    for sign in (True, False):
        flip = 0 if sign else full
        for p, col in zip(points, cols):
            yield col ^ flip, PointIndicator(p, sign)
        for pi, inside, _ in hyperplanes:
            yield inside ^ flip, HyperplaneIndicator(pi, sign)
        for pi, inside, cmask in hyperplanes:
            for j in _indices(everything & ~cmask):
                yield (inside | cols[j]) ^ flip, PointOrHyperplane(points[j], pi, sign)


COCLIQUE_POINT_LIMIT = 200
COCLIQUE_GENERATION_LIMIT = 2_000_000


def cliques(compat: list[int], cands: int, weights: list[int]):
    """Every nonempty clique inside the index mask ``cands`` with the OR
    of its members' ``weights``, as ``(index tuple, OR)`` pairs in
    lexicographic order of the tuples.  ``compat[i]`` masks the indices
    that may join i; a clique's candidates are its parent's later
    candidates ``& compat[i]``, the candidate-set pruning of Bron &
    Kerbosch 1973, and its OR is its parent's ``| weights[i]``."""
    stack = [((), cands, 0)] if cands else []
    while stack:
        current, rest, acc = stack.pop()
        low = rest & -rest
        rest ^= low
        if rest:
            stack.append((current, rest, acc))
        i = low.bit_length() - 1
        nxt = current + (i,)
        got = acc | weights[i]
        yield nxt, got
        if rest & compat[i]:
            stack.append((nxt, rest & compat[i], got))


def _cocliques(domain: Domain, cands: int, budget, deadline) -> list:
    """The nonempty cocliques of the coordinate points in ``cands``, each
    with the support of its point union.

    ``budget`` is a single-element countdown shared across the walks of
    one catalog generation; families beyond it are not desk scale.
    """
    points = domain.coords
    compat = [m for _, m in _perps(domain)]
    out = []
    for cl, bits in cliques(compat, cands, coordinate_column_bits(domain)):
        _check_deadline(deadline)
        budget[0] -= 1
        if budget[0] < 0:
            raise CatalogError(
                "polar catalog coclique family exceeds "
                f"{COCLIQUE_GENERATION_LIMIT} members; "
                "beyond desk scale"
            )
        out.append((tuple(points[i] for i in cl), bits))
    return out


def _polar_generators(domain: Domain, deadline: float | None):
    spec = domain.polar
    points = domain.coords
    if len(points) > COCLIQUE_POINT_LIMIT:
        raise CatalogError(
            "polar catalog only supported up to "
            f"{COCLIQUE_POINT_LIMIT} isotropic points"
        )
    hyperplanes = enumerate_subspaces(spec.field, spec.ambient_dim, spec.ambient_dim - 1)
    everything = (1 << len(points)) - 1
    # both signs take the same cocliques: walk them once, and count them
    # twice against the limit
    budget = [COCLIQUE_GENERATION_LIMIT // 2]
    unions = _cocliques(domain, everything, budget, deadline)
    off = []
    for pi in hyperplanes:
        cands = everything & ~coords_inside(domain, pi)
        cls = _cocliques(domain, cands, budget, deadline)
        off.append((pi, vertices_inside_bits(domain, pi), cls))
    apexes = []
    cols = coordinate_column_bits(domain)
    for apex, col, (pi, free) in zip(points, cols, _perps(domain)):
        cone = vertices_inside_bits(domain, pi) & ~col  # perp(apex) minus apex
        apexes.append((apex, cone, _cocliques(domain, free, budget, deadline)))
    full = (1 << domain.v) - 1
    yield 0, Constant(0)
    yield full, Constant(1)
    for sign in (True, False):
        flip = 0 if sign else full
        for pi, inside, _ in off:
            yield inside ^ flip, HyperplaneIndicator(pi, sign)
        for cl, bits in unions:
            yield bits ^ flip, PolarPointUnion(cl, sign)
        for pi, inside, cls in off:
            for cl, bits in cls:
                yield (inside | bits) ^ flip, PolarHyperplaneUnion(pi, cl, sign)
        for apex, cone, cls in apexes:
            yield cone ^ flip, PolarApexUnion(apex, (), sign)
            for cl, bits in cls:
                yield (cone | bits) ^ flip, PolarApexUnion(apex, cl, sign)


BILINEAR_FAMILY_LIMIT = 10  # max hyperplanes per trace (q**k) we expand


def require_bilinear_catalog(q: int, k: int) -> None:
    """Refuse the catalog of ``H_q(l, k)`` when it would expand more than
    ``BILINEAR_FAMILY_LIMIT`` hyperplanes per trace."""
    if q**k > BILINEAR_FAMILY_LIMIT:
        raise CatalogError(
            "bilinear catalog needs 2^(q^k) hyperplane subsets per trace; "
            f"q^k > {BILINEAR_FAMILY_LIMIT} is beyond desk scale"
        )


def _bilinear_generators(domain: Domain):
    fld = domain.field
    ell = domain.excluded
    n = ell.n
    require_bilinear_catalog(domain.params["q"], domain.params["k"])
    points = domain.coords
    excl = coords_inside(domain, ell)
    lines = [(None, [])]  # (carrier line, indices of its points off L)
    for g in enumerate_subspaces(fld, n, 2):
        on = coords_inside(domain, g)
        if (on & excl).bit_count() == 1:
            lines.append((g, list(_indices(on & ~excl))))
    # per trace: its hyperplanes, each with its coordinate mask and support
    by_trace = {
        coords_inside(domain, t): (t, [])
        for t in enumerate_subspaces(fld, n, ell.dim - 1)
        if not coords_inside(domain, t) & ~excl
    }
    for pi in enumerate_subspaces(fld, n, n - 1):
        cmask = coords_inside(domain, pi)
        tr = by_trace.get(cmask & excl)
        if tr is not None:
            tr[1].append((pi, cmask, vertices_inside_bits(domain, pi)))
    traces = [(None, [])] + list(by_trace.values())
    full = (1 << domain.v) - 1
    yield 0, Constant(0)
    yield full, Constant(1)
    for sign in (True, False):
        flip = 0 if sign else full
        for g, idx in lines:
            for t, hyps in traces:
                if g is None and t is None:
                    continue
                for js in _subsets(idx) if g is not None else [()]:
                    pm = sum(1 << j for j in js)
                    ps = tuple(points[j] for j in js)
                    through = _through(domain, pm)
                    ok = [h for h in hyps if not h[1] & pm]
                    for hs in _subsets(ok) if t is not None else [()]:
                        bits = through
                        for _, _, inside in hs:
                            bits |= inside
                        pis = tuple(pi for pi, _, _ in hs)
                        yield bits ^ flip, BilinearUnion(g, t, ps, pis, sign)


def _subsets(items):
    """The nonempty subsets of ``items``, as tuples."""
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(1, len(items) + 1)
    )

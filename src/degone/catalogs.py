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

import gc
import itertools
import json
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from .boolfn import BoolFn
from .domains import Domain, coordinate_column_bits, coords_inside, vertices_inside_bits
from .jsontext import MEMBER, encode, list_text, quote
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


def _sign(obj) -> bool:
    sign = obj["sign"]
    if sign not in ("+", "-"):
        raise CatalogError(f"descriptor sign must be '+' or '-', not {sign!r}")
    return sign == "+"


def _keyed(domain: Domain, key, dim: int) -> Subspace:
    """The coordinate point (``dim`` 1) or the ``dim``-space of the
    domain's ambient space whose key is ``key``."""
    if domain.field is None:
        raise CatalogError(f"{domain.family} domains have no subspace keys")
    tables = domain._cache.setdefault("keyed", {})
    table = tables.get(dim)
    if table is None:
        if dim == 1:
            table = dict(zip(domain.coord_keys, domain.coords))
        else:
            n = domain.coords[0].n
            table = {s.key(): s for s in enumerate_subspaces(domain.field, n, dim)}
        tables[dim] = table
    got = table.get(key) if type(key) is str else None
    if got is None:
        what = "coordinate point" if dim == 1 else f"{dim}-space"
        raise CatalogError(f"{key!r} is not a {what} of the domain")
    return got


def _points(domain: Domain, keys) -> tuple[Subspace, ...]:
    return tuple(_keyed(domain, k, 1) for k in keys)


def _hyperplane(domain: Domain, key) -> Subspace:
    return _keyed(domain, key, domain.coords[0].n - 1)


def _bilinear_from_json(dom: Domain, o) -> BilinearUnion:
    if dom.family != "bilinear":
        raise CatalogError("BilinearUnion applies to bilinear domains")
    line, trace = o["line"], o["trace"]
    return BilinearUnion(
        None if line is None else _keyed(dom, line, 2),
        None if trace is None else _keyed(dom, trace, dom.excluded.dim - 1),
        _points(dom, o["points"]),
        tuple(_hyperplane(dom, h) for h in o["hyperplanes"]),
        _sign(o),
    )


_FROM_JSON = {
    "constant": lambda dom, o: Constant(o["value"]),
    "coord-color": lambda dom, o: CoordColor(o["position"], frozenset(o["colors"])),
    "position-of-color": lambda dom, o: PositionOfColor(
        o["color"], frozenset(o["positions"])
    ),
    "dictator": lambda dom, o: Dictator(o["element"], _sign(o)),
    "point": lambda dom, o: PointIndicator(_keyed(dom, o["point"], 1), _sign(o)),
    "hyperplane": lambda dom, o: HyperplaneIndicator(
        _hyperplane(dom, o["hyperplane"]), _sign(o)
    ),
    "point-or-hyperplane": lambda dom, o: PointOrHyperplane(
        _keyed(dom, o["point"], 1), _hyperplane(dom, o["hyperplane"]), _sign(o)
    ),
    "polar-point-union": lambda dom, o: PolarPointUnion(
        _points(dom, o["points"]), _sign(o)
    ),
    "polar-hyperplane-union": lambda dom, o: PolarHyperplaneUnion(
        _hyperplane(dom, o["hyperplane"]), _points(dom, o["points"]), _sign(o)
    ),
    "polar-apex-union": lambda dom, o: PolarApexUnion(
        _keyed(dom, o["apex"], 1), _points(dom, o["points"]), _sign(o)
    ),
    "bilinear-union": _bilinear_from_json,
}


def descriptor_from_json(domain: Domain, obj):
    """The descriptor whose ``to_json()`` is ``obj`` on ``domain``.

    Subspaces are named by key: points must be coordinates of the domain,
    the other fields subspaces of its ambient space of the field's
    dimension.  An unknown shape, a missing field or a foreign key raises
    ``CatalogError``; the side conditions are ``evaluate``'s to check.
    """
    shape = obj.get("shape") if type(obj) is dict else None
    parse = _FROM_JSON.get(shape) if type(shape) is str else None
    if parse is None:
        raise CatalogError(f"unknown descriptor shape {shape!r}")
    try:
        return parse(domain, obj)
    except KeyError as e:
        raise CatalogError(f"{shape} descriptor has no field {e}") from None


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
        """The descriptor objects, parsed from the text, in its order."""
        dom = self.fn.domain
        return tuple(descriptor_from_json(dom, js) for js in self.descriptor_json)


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

    Only each entry's descriptor text is kept; ``CatalogEntry.descriptors``
    parses the objects from it.  Generation past ``deadline`` (a
    ``time.monotonic()`` value) raises ``CatalogTimeout`` and caches
    nothing; a cached catalog is returned whatever the deadline.
    """
    texts = domain._cache.get("catalog")
    if texts is None:
        texts = domain._cache["catalog"] = _catalog_texts(domain, deadline)
    return Catalog(domain, texts)


@contextmanager
def _collector_paused():
    """Pause the cyclic collector while many acyclic objects are built: the
    W(3,3) lines catalog runs 2,235 collections unpaused (0.3 s of 3.2 s)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _text(d) -> str:
    """A descriptor's stored text: its JSON encoded as a list member.  A
    function's descriptor list is its descriptors' texts, sorted."""
    return encode(d.to_json(), MEMBER)


@_collector_paused()
def _catalog_texts(domain: Domain, deadline: float | None) -> dict[int, str]:
    """The text of each catalog function's descriptor list by its bits,
    in order of the bits.

    A function's first descriptor is rendered as it arrives.  Its later
    descriptors are kept as the items the stream made and rendered at
    the end, when the list is sorted.
    """
    pairs, render = _stream(domain, deadline)
    table: dict[int, str | list] = {}
    for bits, d in pairs:
        _check_deadline(deadline)
        got = table.get(bits)
        if got is None:
            table[bits] = render(d)
        elif type(got) is str:
            table[bits] = [got, d]
        else:
            got.append(d)
    # allocated once at its final size: a dict that grows by resizing
    # holds its old and new tables at once
    texts = dict.fromkeys(sorted(table))
    for bits in texts:
        texts[bits] = _list_of(table.pop(bits), render, deadline)
    return texts


# the list text of one member, split where the member goes
_ONE = tuple(list_text(["\0"]).split("\0"))


def _list_of(got: str | list, render, deadline: float | None) -> str:
    """The list text of a first descriptor's text, or of that text and
    the later descriptors."""
    if type(got) is str:
        return _ONE[0] + got + _ONE[1]
    texts = [got[0]]
    for d in got[1:]:
        _check_deadline(deadline)
        texts.append(render(d))
    texts.sort()
    return list_text(texts)


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


def _stream(domain: Domain, deadline: float | None = None):
    """The family's descriptors as a lazy stream of ``(bits, item)``
    pairs, and the function that renders an item as its member text.

    The polar stream's items are templates filled from the coclique walk
    (``_polar_stream``); every other family's are descriptor objects,
    rendered by ``_text``.  The subspace families compute ``bits`` from
    the masks they already hold and trust the side conditions their walks
    guarantee; ``evaluate`` on the parsed descriptor re-checks them."""
    fam = domain.family
    if fam == "hamming":
        pairs = _evaluated(domain, _hamming_generators(domain))
    elif fam == "johnson":
        pairs = _evaluated(domain, _johnson_generators(domain))
    elif fam == "multislice":
        pairs = _evaluated(domain, _multislice_generators(domain))
    elif fam == "grassmann":
        pairs = _grassmann_generators(domain)
    elif fam == "polar":
        return _polar_stream(domain, deadline)
    elif fam == "bilinear":
        pairs = _bilinear_generators(domain)
    else:
        raise CatalogError(f"no catalog for family {fam!r}")
    return pairs, _text


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
    as its index tuple with the support of its point union.

    ``budget`` is a single-element countdown shared across the walks of
    one catalog generation; families beyond it are not desk scale.
    """
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
        out.append((cl, bits))
    return out


# A descriptor's member text as ``_text`` encodes it: a dict at MEMBER,
# its fields at _FIELD and the quoted keys of a point list at _KEY.
_FIELD = MEMBER + "  "
_KEY = _FIELD + "  "
# a point list with "\0" where its keys go; JSON text holds no raw NUL
_POINTS = '"points": [' + _KEY + "\0" + _FIELD + "]"


def _member(*fields: str) -> str:
    """A descriptor's member text from its ``"name": value`` field texts,
    given in name order."""
    return "{" + _FIELD + ("," + _FIELD).join(fields) + MEMBER + "}"


def _under_signs(*fields: str) -> tuple[str, str]:
    """The member texts of a descriptor with these fields, then its sign:
    one for each sign."""
    return _member(*fields, '"sign": "+"'), _member(*fields, '"sign": "-"')


def _templates(*fields: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The signed member texts of a polar union whose fields include
    ``_POINTS``, each split where its points' keys go."""
    return tuple(tuple(text.split("\0")) for text in _under_signs(*fields))


def _polar_stream(domain: Domain, deadline: float | None):
    """The polar catalog as ``(bits, item)`` pairs and their renderer.

    An item is the member text of a descriptor without points, or a
    ``(template, index tuple)`` pair: a union's text around its point
    list and a coclique from the walk.  Rendering fills in the points'
    keys, quoted once per generation, in key order as ``to_json`` sorts them.
    """
    keys = domain.coord_keys
    quoted = [quote(k) for k in keys]
    in_key_order = list(keys) == sorted(keys)
    sep = "," + _KEY

    def render(item) -> str:
        if type(item) is str:
            return item
        (pre, post), cl = item
        if not in_key_order:
            cl = sorted(cl, key=keys.__getitem__)
        return pre + sep.join(map(quoted.__getitem__, cl)) + post

    return _polar_pairs(domain, quoted, deadline), render


def _polar_pairs(domain: Domain, quoted: list[str], deadline: float | None):
    """The pairs of ``_polar_stream``, from one fixed template per shape:
    constant, hyperplane, point union, hyperplane union, apex union."""
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
    # the support and signed texts of each descriptor without points, and
    # the support, signed templates and cocliques of each union shape
    constant = tuple(_member('"shape": "constant"', f'"value": {x}') for x in (0, 1))
    fixed = [(0, constant)]
    tpls = _templates(_POINTS, '"shape": "polar-point-union"')
    walks = [(0, tpls, _cocliques(domain, everything, budget, deadline))]
    for pi in hyperplanes:
        inside = vertices_inside_bits(domain, pi)
        head = '"hyperplane": ' + quote(pi.key())
        fixed.append((inside, _under_signs(head, '"shape": "hyperplane"')))
        tpls = _templates(head, _POINTS, '"shape": "polar-hyperplane-union"')
        cands = everything & ~coords_inside(domain, pi)
        walks.append((inside, tpls, _cocliques(domain, cands, budget, deadline)))
    cols = coordinate_column_bits(domain)
    for key, col, (pi, free) in zip(quoted, cols, _perps(domain)):
        cone = vertices_inside_bits(domain, pi) & ~col  # perp(apex) minus apex
        head, shape = '"apex": ' + key, '"shape": "polar-apex-union"'
        fixed.append((cone, _under_signs(head, '"points": []', shape)))
        tpls = _templates(head, _POINTS, shape)
        walks.append((cone, tpls, _cocliques(domain, free, budget, deadline)))
    full = (1 << domain.v) - 1
    for bits, (plus, minus) in fixed:
        yield bits, plus
        yield bits ^ full, minus
    # each walk is dropped once its pairs are out, the largest (the walk of
    # every point) first
    walks.reverse()
    while walks:
        base, (plus, minus), cls = walks.pop()
        for cl, bits in cls:
            bits |= base
            yield bits, (plus, cl)
            yield bits ^ full, (minus, cl)


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

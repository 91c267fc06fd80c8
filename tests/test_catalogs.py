import gc
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from degone.boolfn import BoolFn
from degone.catalogs import (
    BilinearUnion,
    CatalogError,
    Constant,
    PointIndicator,
    PointOrHyperplane,
    PolarApexUnion,
    PolarPointUnion,
    catalog,
    catalog_bits,
    descriptor_from_json,
    match_catalog,
)
from degone.classify import is_degree_one
from degone.domains import (
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_multislice,
    build_polar,
)
from degone.forms import standard_polar
from degone.gf import field_spec
from degone.jsontext import MEMBER, encode
from degone.subspaces import all_points, contains, enumerate_subspaces
from test_domains import DOMAINS


F2 = field_spec(2)


def brute_degree1(dom):
    return {b for b in range(1 << dom.v) if is_degree_one(dom, BoolFn(dom, b))}


def test_johnson42_catalog_is_exactly_degree1():
    j = build_johnson(4, 2)
    cat = catalog_bits(j)
    assert len(cat) == 10
    assert cat == brute_degree1(j)


def test_hamming23_catalog_count_and_dedup():
    h = build_hamming(2, 3)
    entries = catalog(h)
    assert len(entries) == 14  # 2 constants + 2*(2^3 - 2) per-position forms
    assert catalog_bits(h) == brute_degree1(h)
    # constants collapse descriptors from every position
    zero = next(e for e in entries if e.fn.weight == 0)
    assert len(zero.descriptors) >= 2


def test_grassmann_catalog_count():
    g = build_grassmann(F2, 4, 2)
    assert len(catalog(g)) == 302


def test_catalog_closed_under_complement():
    for dom in (
        build_johnson(4, 2),
        build_hamming(2, 3),
        build_grassmann(F2, 4, 2),
        build_polar(standard_polar("O_plus", 2, F2), 2),
        build_bilinear(F2, 2, 2),
        build_multislice([2, 2, 1]),
    ):
        bits = catalog_bits(dom)
        mask = (1 << dom.v) - 1
        assert all((mask ^ b) in bits for b in bits)


def test_every_catalog_member_is_degree_one_small():
    for dom in (
        build_johnson(4, 2),
        build_hamming(3, 2),
        build_polar(standard_polar("O_plus", 2, F2), 2),
        build_multislice([1, 1, 1, 1]),
    ):
        for e in catalog(dom):
            assert is_degree_one(dom, e.fn)


def test_match_catalog_roundtrip_and_nonmember():
    j = build_johnson(4, 2)
    for e in catalog(j):
        assert match_catalog(e.fn) == e.descriptors
    # weight-1 functions are not degree-1 on J(4,2)
    assert match_catalog(BoolFn(j, 1)) == ()
    zero = BoolFn(j, 0)
    assert any(isinstance(d, Constant) and d.value == 0 for d in match_catalog(zero))


def test_grassmann_side_condition_point_in_hyperplane():
    g = build_grassmann(F2, 4, 2)
    pi = enumerate_subspaces(F2, 4, 3)[0]
    inside = next(p for p in all_points(2, 4) if contains(pi, p))
    with pytest.raises(CatalogError, match="hyperplane"):
        PointOrHyperplane(inside, pi, True).evaluate(g)


def test_polar_collinear_points_rejected():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    spec = dom.polar
    pts = spec.isotropic_points()
    a = pts[0]
    b = next(p for p in pts if p != a and spec.collinear(a, p))
    with pytest.raises(CatalogError, match="non-collinear"):
        PolarPointUnion((a, b), True).evaluate(dom)


def test_polar_apex_shape_weight_matches_enumeration():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    spec = dom.polar
    p1 = spec.isotropic_points()[0]
    fn = PolarApexUnion(p1, (), True).evaluate(dom)
    pi = spec.perp(p1)
    expect = sum(
        1
        for i, K in enumerate(dom.vertices)
        if contains(pi, K) and not K.contains_vector(p1.basis[0])
    )
    assert fn.weight == expect


def test_bilinear_side_conditions():
    dom = build_bilinear(F2, 2, 2)
    ell = dom.excluded
    from degone.subspaces import meet

    lines = [
        g for g in enumerate_subspaces(F2, 4, 2) if meet(g, ell).dim == 1
    ]
    g = lines[0]
    pts = [p for p in g.points() if not contains(ell, p)]
    traces = [t for t in ell.points()]
    hyp = next(
        h
        for h in enumerate_subspaces(F2, 4, 3)
        if meet(h, ell) == traces[0] and any(contains(h, p) for p in pts)
    )
    bad_p = next(p for p in pts if contains(hyp, p))
    with pytest.raises(CatalogError, match="hyperplane"):
        BilinearUnion(g, traces[0], (bad_p,), (hyp,), True).evaluate(dom)
    off_line = next(
        p for p in all_points(2, 4) if not contains(g, p) and not contains(ell, p)
    )
    with pytest.raises(CatalogError, match="line"):
        BilinearUnion(g, None, (off_line,), (), True).evaluate(dom)


def test_multislice_position_of_color_needs_multiplicity_one():
    dom = build_multislice([2, 2, 1])
    from degone.catalogs import PositionOfColor

    fn = PositionOfColor(2, frozenset({0, 1})).evaluate(dom)
    assert fn.weight == sum(1 for w in dom.vertices if w.index(2) in (0, 1))
    with pytest.raises(CatalogError, match="multiplicity"):
        PositionOfColor(0, frozenset({0})).evaluate(dom)


def test_s4_catalog_descriptor_overlap():
    dom = build_multislice([1, 1, 1, 1])
    entries = catalog(dom)
    # row and column forms coincide for singleton index sets, so some
    # functions must carry several descriptors
    assert any(len(e.descriptors) > 1 for e in entries)


def test_catalog_unsupported_family():
    from degone.domains import restrict

    g = build_johnson(4, 2)
    child = restrict(g, lambda s: 0 in s).child
    with pytest.raises(CatalogError, match="no catalog"):
        catalog(child)


def test_bilinear_catalog_scale_guard():
    dom = build_bilinear(field_spec(4), 2, 2)
    with pytest.raises(CatalogError, match="desk scale"):
        catalog(dom)


# --- the mask-based catalog against the contains/meet/collinear oracle ---


@pytest.mark.parametrize(
    "tag",
    ["J_2(4,2)", "J_4(3,2)", "O_plus(2,2)", "Sp(2,2)", "O_plus(3,3)", "H_2(2,2)", "H_2(1,3)"],
)
def test_catalog_matches_oracle(tag):
    from catalog_oracle import oracle_catalog
    from test_domains import DOMAINS

    dom = DOMAINS[tag]()
    got = [(e.fn.bits, list(e.descriptor_json)) for e in catalog(dom)]
    assert got == oracle_catalog(DOMAINS[tag]())
    for e in catalog(dom):
        assert list(e.descriptor_json) == [d.to_json() for d in e.descriptors]


@pytest.mark.parametrize(
    "tag",
    ["J_2(4,2)", "J_4(3,2)", "O_plus(2,2)", "Sp(2,2)", "O_plus(3,3)", "H_2(2,2)", "H_2(1,3)",
     "O_plus(3,2)", "H(2,3)", "J(5,2)", "M(2,2,1)"],
)
def test_stream_bits_match_evaluate(tag):
    # the stream trusts the side conditions its walks guarantee and takes
    # bits from masks; evaluate re-checks every condition from scratch on
    # the descriptor parsed from each rendered item
    from degone.catalogs import _stream

    dom = DOMAINS[tag]()
    pairs, render = _stream(dom)
    n = 0
    for bits, item in pairs:
        d = descriptor_from_json(dom, json.loads(render(item)))
        assert d.evaluate(dom).bits == bits, d
        n += 1
    assert n == sum(len(e.descriptor_json) for e in catalog(dom))


@pytest.mark.parametrize(
    "tag", ["O_plus(2,2)", "Sp(2,2)", "O_plus(3,3)", "O_plus(3,2)", "O_plus(2,3)"]
)
def test_polar_templates_match_oracle_objects(tag):
    # every rendered polar descriptor is, byte for byte, the encoded JSON
    # of the oracle's descriptor object, with the bits the oracle evaluates
    from catalog_oracle import _polar_generators, evaluate

    from degone.catalogs import _stream

    if tag == "O_plus(2,3)":
        dom = build_polar(standard_polar("O_plus", 2, field_spec(3)), 2)
    else:
        dom = DOMAINS[tag]()
    pairs, render = _stream(dom)
    got = Counter((bits, render(item)) for bits, item in pairs)
    want = Counter(
        (evaluate(d, dom).bits, encode(d.to_json(), MEMBER)) for d in _polar_generators(dom)
    )
    assert got == want


# every domain of test_domains with a catalog: the coclique limit refuses
# those of O_odd(2,3) and U_even(2,4)
CATALOG_DOMAINS = [t for t in DOMAINS if t not in ("O_odd(2,3)", "U_even(2,4)")]


@pytest.mark.parametrize("tag", CATALOG_DOMAINS)
def test_descriptor_from_json_round_trip(tag):
    dom = DOMAINS[tag]()
    for e in catalog(dom):
        ds = e.descriptors
        assert [d.to_json() for d in ds] == list(e.descriptor_json)
        assert all(d.evaluate(dom).bits == e.fn.bits for d in ds)


def test_descriptor_from_json_refuses_foreign_input():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    point = dom.coord_keys[0]
    spec = dom.polar
    off_quadric = next(
        p.key() for p in all_points(2, 4) if not spec.is_isotropic_vector(p.basis[0])
    )
    plane = enumerate_subspaces(F2, 4, 3)[0].key()
    q3_plane = enumerate_subspaces(field_spec(3), 4, 3)[0].key()
    assert descriptor_from_json(dom, {"shape": "point", "point": point, "sign": "-"}) == (
        PointIndicator(dom.coords[0], False)
    )
    bad = [
        ({"shape": "polar-cone", "points": [point], "sign": "+"}, "unknown descriptor shape"),
        ({"points": [point], "sign": "+"}, "unknown descriptor shape"),
        ("polar-point-union", "unknown descriptor shape"),
        ({"shape": "polar-point-union", "sign": "+"}, "no field 'points'"),
        ({"shape": "polar-point-union", "points": [point], "sign": "x"}, "sign"),
        ({"shape": "polar-point-union", "points": [off_quadric], "sign": "+"}, "coordinate"),
        ({"shape": "polar-point-union", "points": [plane], "sign": "+"}, "coordinate"),
        ({"shape": "polar-apex-union", "apex": 0, "points": [], "sign": "+"}, "coordinate"),
        ({"shape": "hyperplane", "hyperplane": q3_plane, "sign": "+"}, "3-space"),
        ({"shape": "hyperplane", "hyperplane": point, "sign": "+"}, "3-space"),
        (
            {"shape": "bilinear-union", "line": None, "trace": None, "points": [],
             "hyperplanes": [plane], "sign": "+"},
            "bilinear domains",
        ),
    ]
    for obj, match in bad:
        with pytest.raises(CatalogError, match=match):
            descriptor_from_json(dom, obj)
    with pytest.raises(CatalogError, match="no subspace keys"):
        descriptor_from_json(
            build_johnson(4, 2), {"shape": "point", "point": point, "sign": "+"}
        )


def test_point_lists_follow_key_order_whatever_the_coordinate_order():
    # the walk lists a coclique in coordinate order; the text lists its
    # points in key order, as to_json sorts them
    from dataclasses import replace

    dom = build_polar(standard_polar("O_plus", 3, F2), 3)
    flipped = replace(
        dom,
        coords=dom.coords[::-1],
        coord_keys=dom.coord_keys[::-1],
        incidence=np.concatenate([dom.incidence[:, :1], dom.incidence[:, :0:-1]], axis=1),
        _cache={},
    )
    assert list(flipped.coord_keys) != sorted(flipped.coord_keys)
    assert catalog(flipped).texts == catalog(dom).texts


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_polar(standard_polar("O_plus", 3, F2), 3),
        lambda: build_bilinear(F2, 2, 3),
    ],
    ids=["C_2(3,3,0)", "H_2(2,3)"],
)
def test_descriptor_lists_sort_by_member_text(build):
    multi = 0
    for e in catalog(build()):
        if len(e.descriptor_json) > 1:
            multi += 1
            texts = [encode(js, MEMBER) for js in e.descriptor_json]
            assert texts == sorted(texts)
            assert [d.to_json() for d in e.descriptors] == list(e.descriptor_json)
    assert multi > 0


def test_report_path_builds_no_descriptor_objects(monkeypatch):
    # the polar catalog and the report take descriptor text from templates:
    # no descriptor class is looked up and no JSON is encoded on the way
    import degone.catalogs as catalogs
    from degone.classify import enumerate_all

    for name in ("Constant", "HyperplaneIndicator", "PolarPointUnion",
                 "PolarHyperplaneUnion", "PolarApexUnion", "encode", "_text"):
        monkeypatch.setattr(catalogs, name, _refuse)
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    rep = enumerate_all(dom)
    assert rep.counts["trivial"] == rep.counts["total"]
    monkeypatch.undo()
    # the objects are parsed from the text on demand
    for e in catalog(dom):
        assert match_catalog(e.fn) == e.descriptors
        assert [d.to_json() for d in e.descriptors] == list(e.descriptor_json)


def _tracked_reachable(root) -> int:
    """The number of collector-tracked objects reachable from ``root``."""
    seen, stack, n = set(), [root], 0
    while stack:
        o = stack.pop()
        if id(o) not in seen:
            seen.add(id(o))
            n += gc.is_tracked(o)
            stack.extend(gc.get_referents(o))
    return n


def test_catalog_cache_tracks_no_object_per_entry():
    # each entry costs the collector nothing: its text is a string, and
    # what the cache holds does not grow with the number of entries
    from degone.classify import enumerate_all
    from test_domains import DOMAINS

    tracked = {}
    for tag in ("O_plus(2,2)", "O_plus(3,3)"):
        dom = DOMAINS[tag]()
        entries = catalog(dom)
        enumerate_all(dom)
        texts = dom._cache["catalog"]
        assert texts is entries.texts and len(texts) == len(entries)
        assert not any(gc.is_tracked(t) for t in texts.values())
        tracked[len(texts)] = _tracked_reachable(texts)
    (small, few), (big, many) = sorted(tracked.items())
    assert big > 30 * small and many == few


@pytest.mark.parametrize(
    "tag", ["O_plus(2,2)", "O_plus(3,2)", "O_plus(3,3)", "O_odd(2,3)", "O_minus(2,2)",
            "Sp(2,2)", "U_even(2,4)"],
)
def test_non_collinear_masks_match_collinear(tag):
    from test_domains import DOMAINS

    from degone.catalogs import _perps

    dom = DOMAINS[tag]()
    spec = dom.polar
    masks = [m for _, m in _perps(dom)]
    for i, p in enumerate(dom.coords):
        want = sum(
            1 << j
            for j, r in enumerate(dom.coords)
            if r != p and not spec.collinear(p, r)
        )
        assert masks[i] == want


def test_cliques_match_brute_force():
    import itertools
    import random

    from degone.catalogs import cliques

    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 9)
        edges = {(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.5}
        compat = [
            sum(1 << b for b in range(n) if (min(a, b), max(a, b)) in edges)
            for a in range(n)
        ]
        cands = rng.getrandbits(n) if n else 0
        weights = [rng.getrandbits(12) for _ in range(n)]
        members = [i for i in range(n) if (cands >> i) & 1]
        want = sorted(
            c
            for r in range(1, len(members) + 1)
            for c in itertools.combinations(members, r)
            if all(pair in edges for pair in itertools.combinations(c, 2))
        )
        got = list(cliques(compat, cands, weights))
        assert [c for c, _ in got] == want
        for c, bits in got:
            want_bits = 0
            for i in c:
                want_bits |= weights[i]
            assert bits == want_bits


def test_coclique_limit_raises_and_caches_nothing(monkeypatch):
    import degone.catalogs as catalogs

    monkeypatch.setattr(catalogs, "COCLIQUE_GENERATION_LIMIT", 1000)
    dom = build_polar(standard_polar("O_odd", 2, field_spec(3)), 2)
    with pytest.raises(CatalogError, match="exceeds 1000 members; beyond desk scale"):
        catalog(dom)
    assert "catalog" not in dom._cache


def _refuse(*args, **kwargs):
    raise AssertionError("catalog generation must not call contains/meet/collinear")


@pytest.mark.parametrize("tag", ["O_plus(3,3)", "H_3(2,2) passant"])
def test_catalog_answers_side_conditions_from_masks(tag, monkeypatch):
    import degone.catalogs
    import degone.domains
    import degone.subspaces
    from test_domains import DOMAINS

    from degone.forms import PolarSpec

    dom = DOMAINS[tag]()
    for mod in (degone.domains, degone.catalogs, degone.subspaces):
        for name in ("contains", "meet"):
            monkeypatch.setattr(mod, name, _refuse, raising=False)
    monkeypatch.setattr(PolarSpec, "collinear", _refuse)
    assert catalog(dom)


@pytest.mark.parametrize(
    "k, bound", [(3, 6_867_851), (2, 12_875_963)], ids=["C_2(3,3,0)", "C_2(3,2,0)"]
)
def test_catalog_peak_memory(k, bound):
    # later descriptors wait as (template, index tuple) pairs and each walk
    # is dropped once streamed: the bounds are the traced peaks, in bytes,
    # of the stream of descriptor objects this one replaced
    dom = build_polar(standard_polar("O_plus", 3, F2), k)
    gc.collect()
    tracemalloc.start()
    try:
        catalog(dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound

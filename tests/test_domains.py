import itertools
import random
import tracemalloc

import numpy as np
import pytest

from degone import domains
from degone.acceptance import histograms
from degone.boolfn import BoolFn
from degone.catalogs import catalog
from degone.classify import _bd_base, enumerate_all, is_degree_one
from degone.domains import (
    Domain,
    DomainError,
    _assemble,
    _meet_blocks,
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_multislice,
    build_polar,
    coordinate_column_bits,
    coords_inside,
    expected_vertex_count,
    restrict,
    restrict_to_point,
    vertices_inside_bits,
)
from degone.forms import standard_polar
from degone.gf import field_spec
from degone.subspaces import (
    GeometryError,
    Subspace,
    all_points,
    contains,
    enumerate_subspaces,
    gaussian,
    span_dim,
)


F2 = field_spec(2)
F3 = field_spec(3)
F4 = field_spec(4)
F5 = field_spec(5)


def test_hamming_counts_and_row_sums():
    h = build_hamming(3, 2)
    assert (h.v, h.c) == (8, 6)
    assert h.incidence[:, 1:].sum(axis=1).tolist() == [3] * 8
    h23 = build_hamming(2, 3)
    assert (h23.v, h23.c) == (9, 6)


def test_johnson_counts():
    j = build_johnson(4, 2)
    assert j.v == 6
    assert build_johnson(10, 4).v == 210
    assert j.incidence[:, 1:].sum(axis=1).tolist() == [2] * 6


def test_multislice_counts():
    assert build_multislice([1, 1, 1, 1]).v == 24
    assert build_multislice([2, 2]).v == expected_vertex_count(
        "johnson", n=4, k=2
    )
    assert build_multislice([2, 2, 1]).v == 30


def test_grassmann_counts_and_row_sums():
    g = build_grassmann(F2, 4, 2)
    assert (g.v, g.c) == (35, 15)
    assert build_grassmann(F2, 5, 2).v == 155
    assert g.incidence[:, 1:].sum(axis=1).tolist() == [3] * 35


def test_polar_counts():
    p = build_polar(standard_polar("O_plus", 2, F2), 2)
    assert (p.v, p.c) == (6, 9)
    p3 = build_polar(standard_polar("O_plus", 3, F2), 2)
    # flag-count formula: gaussian(n,k,q) * prod_{i=n-k+1..n} (q^(i-1+e)+1)
    assert p3.v == gaussian(3, 2, 2) * (2**1 + 1) * (2**2 + 1) == 105


def test_polar_k1_unsupported():
    with pytest.raises(DomainError, match="k = 1"):
        build_polar(standard_polar("O_plus", 2, F2), 1)


def test_bilinear_counts():
    assert build_bilinear(F2, 2, 2).v == 16
    assert build_bilinear(F3, 2, 2).v == 81
    assert build_bilinear(F2, 2, 3).v == 64


def _passant_bilinear():
    # as bd_restriction_analysis builds it: the excluded space is a
    # passant line of the elliptic quadric in PG(3, 3)
    bd_dom, _, _, _, passants, _ = _bd_base(3)
    ell = bd_dom.vertices[bd_dom.vertex_index(passants[0])]
    return build_bilinear(bd_dom.field, 2, 2, excluded=ell)


DOMAINS = {
    "H(2,3)": lambda: build_hamming(2, 3),
    "H(1,4)": lambda: build_hamming(1, 4),
    "J(5,2)": lambda: build_johnson(5, 2),
    "J(6,3)": lambda: build_johnson(6, 3),
    "M(2,2,1)": lambda: build_multislice([2, 2, 1]),
    "S4": lambda: build_multislice([1, 1, 1, 1]),
    "J_2(4,2)": lambda: build_grassmann(F2, 4, 2),
    "J_2(3,1)": lambda: build_grassmann(F2, 3, 1),
    "J_2(5,3)": lambda: build_grassmann(F2, 5, 3),
    "J_4(3,2)": lambda: build_grassmann(F4, 3, 2),
    "J_5(3,2)": lambda: build_grassmann(F5, 3, 2),
    "O_plus(2,2)": lambda: build_polar(standard_polar("O_plus", 2, F2), 2),
    "O_plus(3,2)": lambda: build_polar(standard_polar("O_plus", 3, F2), 2),
    "O_plus(3,3)": lambda: build_polar(standard_polar("O_plus", 3, F2), 3),
    "O_odd(2,3)": lambda: build_polar(standard_polar("O_odd", 2, F3), 2),
    "O_minus(2,2)": lambda: build_polar(standard_polar("O_minus", 2, F2), 2),
    "Sp(2,2)": lambda: build_polar(standard_polar("Sp", 2, F2), 2),
    "U_even(2,4)": lambda: build_polar(standard_polar("U_even", 2, F4), 2),
    "H_2(2,2)": lambda: build_bilinear(F2, 2, 2),
    "H_2(1,3)": lambda: build_bilinear(F2, 1, 3),
    "H_3(2,2) passant": _passant_bilinear,
}


def _family_predicates(dom):
    """Per-family (indicator, adjacent) predicates: the reference the
    support rule of ``_assemble`` is checked against."""
    k = dom.params.get("k")
    if dom.family == "johnson":
        return (lambda v, i: i in v), (lambda a, b: len(set(a) & set(b)) == k - 1)
    if dom.family in ("grassmann", "polar", "bilinear"):
        return (
            lambda K, p: K.contains_vector(p.basis[0]),
            lambda a, b: span_dim(a, b) == k + 1,
        )

    def word_indicator(w, ij):
        return w[ij[0]] == ij[1]

    if dom.family == "hamming":
        return word_indicator, lambda a, b: sum(x != y for x, y in zip(a, b)) == 1

    def transposed(a, b):
        diff = [i for i in range(len(a)) if a[i] != b[i]]
        return len(diff) == 2 and a[diff[0]] == b[diff[1]] and a[diff[1]] == b[diff[0]]

    return word_indicator, transposed


def _reference_incidence_and_neighbors(dom):
    """The v x c indicator loop and the v^2 pair loop over the predicates."""
    indicator, adjacent = _family_predicates(dom)
    inc = np.zeros_like(dom.incidence)
    inc[:, 0] = 1
    for i, vtx in enumerate(dom.vertices):
        for j, coord in enumerate(dom.coords):
            if indicator(vtx, coord):
                inc[i, 1 + j] = 1
    nbrs = [[] for _ in range(dom.v)]
    for i in range(dom.v):
        for j in range(i + 1, dom.v):
            if adjacent(dom.vertices[i], dom.vertices[j]):
                nbrs[i].append(j)
                nbrs[j].append(i)
    return inc, tuple(tuple(r) for r in nbrs)


def test_adjacency_symmetric_irreflexive_regular():
    for build in DOMAINS.values():
        _check_adjacency(build())


def dense_adjacency(dom):
    """The v x v adjacency by the support rule, ``X·Xᵀ == t``, built here
    since no domain builds it: the oracle for the row-block products."""
    x = dom.incidence[:, 1:].astype(np.int64)
    return (x @ x.T == dom.meet).astype(np.int64)


def _rows(adj):
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)


def _check_adjacency(dom):
    adj = dense_adjacency(dom)
    assert (adj == adj.T).all() and not adj.diagonal().any()
    assert dom.valency is not None
    assert dom.neighbors == _rows(adj)
    assert all(len(nbrs) == dom.valency for nbrs in dom.neighbors)

    # differential: the support rule agrees with the per-family predicates
    inc, nbrs = _reference_incidence_and_neighbors(dom)
    assert np.array_equal(dom.incidence, inc)
    assert dom.neighbors == nbrs
    assert dom.valency == len(nbrs[0])

    # a restriction child's adjacency is the induced submatrix
    idx = list(range(0, dom.v, 2))
    child = restrict(dom, idx).child
    assert np.array_equal(dense_adjacency(child), adj[np.ix_(idx, idx)])
    lookup = {p: c for c, p in enumerate(idx)}
    assert child.neighbors == tuple(
        tuple(lookup[j] for j in nbrs[p] if j in lookup) for p in idx
    )


def test_neighbors_are_built_on_first_read():
    dom = build_grassmann(F2, 4, 2)
    assert dom.valency == 18 and "neighbors" not in dom._cache
    nbrs = dom.neighbors
    assert dom.neighbors is nbrs and dom._cache["neighbors"] is nbrs
    assert [len(r) for r in nbrs] == [dom.valency] * dom.v


def test_irregular_domain_is_refused_at_construction():
    # a and b share coordinate 1; c meets neither
    supports = [[0, 1], [1, 2], [3, 4]]
    text = r"^domain toy is not regular: degrees \[0, 1\]$"
    with pytest.raises(DomainError, match=text):
        _assemble("toy", {}, "abc", "abc", range(5), "01234", supports, 1)


def test_adjacency_is_never_stored_by_a_build_or_a_search():
    dom = build_multislice([2, 2, 1])
    assert not hasattr(dom, "adjacency") and "adjacency" not in dom._cache
    enumerate_all(dom)
    assert not hasattr(dom, "adjacency") and "adjacency" not in dom._cache


def test_building_s7_holds_no_v_by_v_array():
    # the dense int16 meet counts alone took 2 v^2 bytes
    tracemalloc.start()
    try:
        dom = build_multislice([1] * 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dom.v == 5040 and dom.valency == 21
    assert peak < dom.v**2


@pytest.mark.parametrize("tag", list(DOMAINS))
def test_meet_counts_equal_the_integer_product(tag, monkeypatch):
    dom = DOMAINS[tag]()
    x = dom.incidence[:, 1:]
    product = x.astype(np.int32) @ x.T.astype(np.int32)
    np.fill_diagonal(product, -1)
    # blocks of 3 rows: edges between blocks, and diagonals off a block's corner
    monkeypatch.setattr(domains, "MEET_BLOCK_BYTES", 6 * dom.v)
    blocks = list(_meet_blocks(x))
    assert len(blocks) == -(-dom.v // 3)
    counts = np.vstack(blocks)
    assert counts.dtype == np.int16 and np.array_equal(counts, product)
    # the adjacency is the product rule: meet in t coordinates, t off an edge
    i, j = 0, dom.neighbors[0][0]
    assert dom.neighbors == _rows(product == product[i, j])


@pytest.mark.parametrize("tag", list(DOMAINS))
def test_neighbor_counts_equal_the_dense_product(tag, monkeypatch):
    dom = DOMAINS[tag]()
    adj, x = dense_adjacency(dom), dom.incidence[:, 1:]
    monkeypatch.setattr(domains, "MEET_BLOCK_BYTES", 6 * dom.v)  # 3-row blocks
    supports = np.nonzero(x)[1].reshape(dom.v, -1)
    assert np.array_equal(dom.neighbor_counts(supports, dom.c), adj @ x)
    f = np.random.default_rng(dom.v).integers(0, 2, dom.v)
    counts = dom.neighbor_counts(f[:, None], 2)
    assert np.array_equal(counts, adj @ np.eye(2, dtype=np.int64)[f])


@pytest.mark.parametrize(
    "rows, column0",
    [
        ([[0, 1, 2], [3], [3, 4], [0, 4]], 1),  # weights 3, 1, 2, 2
        ([[0, 1], [2, 3], [1, 4], [4]], 1),  # 7 nonzeros over 4 rows
        ([[0, 1], [2, 3], [1, 4], [0, 4]], 0),  # column 0 not the constant
        ([[], [], [], []], 1),  # no supports at all
        ([], 1),  # no vertices
    ],
)
def test_domain_refuses_mixed_row_weights_and_a_missing_constant(rows, column0):
    inc = np.zeros((len(rows), 6), np.int8)
    inc[:, 0] = column0
    for i, row in enumerate(rows):
        inc[i, [1 + j for j in row]] = 1
    keys = "abcd"[: len(rows)]
    text = "^incidence rows need one weight > 0, column 0 all ones$"
    with pytest.raises(DomainError, match=text):
        Domain("toy", {}, keys, keys, range(5), "01234", inc, 1)


def _words_with_histogram(parts):
    """The m^n filter: every word over m colors, kept when its histogram
    is ``parts``."""
    m, n = len(parts), sum(parts)
    return [
        w
        for w in itertools.product(range(m), repeat=n)
        if all(w.count(i) == parts[i] for i in range(m))
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_multislice_generation_equals_the_filter(n):
    for parts in histograms(n)[1:]:
        dom = build_multislice(parts)
        words = _words_with_histogram(parts)
        m = len(parts)
        inc = np.zeros((len(words), 1 + n * m), dtype=np.int8)
        inc[:, 0] = 1
        for i, w in enumerate(words):
            for pos, color in enumerate(w):
                inc[i, 1 + pos * m + color] = 1
        assert dom.vertices == tuple(words)
        assert dom.vertex_keys == tuple("".join(map(str, w)) for w in words)
        assert dom.incidence.dtype == np.int8 and np.array_equal(dom.incidence, inc)


@pytest.mark.parametrize("tag", ["H(2,3)", "J(6,3)", "J_2(4,2)", "H_3(2,2) passant"])
def test_coordinate_column_bits_match_scalar_loop(tag):
    dom = DOMAINS[tag]()
    for d in (dom, restrict(dom, range(0, dom.v, 3)).child):
        ref = []
        for j in range(d.c):
            col = 0
            for i in range(d.v):
                if d.incidence[i, 1 + j]:
                    col |= 1 << i
            ref.append(col)
        assert coordinate_column_bits(d) == ref


SUBSPACE_DOMAINS = [
    tag
    for tag, build in DOMAINS.items()
    if tag.startswith(("J_", "O_", "Sp", "U_", "H_"))
]


def _probe_subspaces(dom, rng):
    """Every hyperplane of the ambient space and a few subspaces of each
    other dimension, the zero space and the whole space included."""
    fld, n = dom.field, dom.coords[0].n
    out = list(enumerate_subspaces(fld, n, n - 1))
    for k in range(0, n + 1):
        if k != n - 1:
            subs = enumerate_subspaces(fld, n, k)
            out += rng.sample(subs, min(len(subs), 6))
    return out


@pytest.mark.parametrize("tag", SUBSPACE_DOMAINS)
def test_coords_inside_and_vertices_inside_match_contains(tag):
    rng = random.Random(tag)
    dom = DOMAINS[tag]()
    child = restrict(dom, range(0, dom.v, 2)).child
    for d in (dom, child):
        for s in _probe_subspaces(dom, rng):
            pts = sum(1 << j for j, p in enumerate(d.coords) if contains(s, p))
            verts = sum(1 << i for i, K in enumerate(d.vertices) if contains(s, K))
            assert coords_inside(d, s) == pts
            assert vertices_inside_bits(d, s) == verts
    n = dom.coords[0].n
    for wrong in (Subspace.zero(dom.field, n + 1), Subspace.zero(field_spec(7), n)):
        with pytest.raises(GeometryError, match="ambient mismatch"):
            coords_inside(dom, wrong)


def test_restriction_transport_matches_bit_loop():
    rng = random.Random(7)
    dom = build_grassmann(F2, 4, 2)
    for _ in range(50):
        r = restrict(dom, rng.sample(range(dom.v), rng.randint(1, dom.v)))
        fn = BoolFn(dom, rng.getrandbits(dom.v))
        want = sum(fn.value(p) << i for i, p in enumerate(r.parent_indices))
        assert r.transport(fn).bits == want


def test_transport_refuses_a_function_on_another_domain():
    g = build_grassmann(F2, 4, 2)
    r = restrict(g, range(6))
    # an equal rebuild of the parent is the same domain
    assert r.transport(BoolFn(build_grassmann(F2, 4, 2), 0b101)).bits == 0b101
    for res in (r, restrict_to_point(g, g.coords[0])):
        with pytest.raises(DomainError, match="does not live on the parent domain"):
            res.transport(BoolFn(build_johnson(7, 2), 1))


def test_vertex_keys_strictly_increasing():
    for dom in (build_johnson(4, 2), build_grassmann(F2, 4, 2)):
        assert list(dom.vertex_keys) == sorted(dom.vertex_keys)


def test_restrict_to_vertices_through_point():
    g = build_grassmann(F2, 4, 2)
    a = g.coords[0]
    r = restrict(g, lambda K: contains(K, a))
    assert r.child.v == gaussian(3, 1, 2) == 7
    assert r.child.coord_keys == g.coord_keys


def test_restrict_to_hyperplane_interior():
    g = build_grassmann(F2, 4, 2)
    from degone.subspaces import enumerate_subspaces

    pi = enumerate_subspaces(F2, 4, 3)[0]
    r = restrict(g, lambda K: contains(pi, K))
    assert r.child.v == gaussian(3, 2, 2) == 7


def test_restrict_to_all_is_identity():
    g = build_grassmann(F2, 4, 2)
    r = restrict(g, lambda K: True)
    assert r.child.vertex_keys == g.vertex_keys
    assert r.parent_indices == tuple(range(g.v))


def test_restrict_empty_selection_rejected():
    g = build_johnson(4, 2)
    with pytest.raises(DomainError, match="no vertices"):
        restrict(g, lambda K: False)


@pytest.mark.parametrize(
    "bad", [[-1, 0], [0, 6], [0, 1.0], [0.5], ["0"], [True, False], [0, None]]
)
def test_restrict_refuses_indices_outside_the_parent(bad):
    g = build_johnson(4, 2)
    with pytest.raises(DomainError, match=r"integers in \[0, 6\)"):
        restrict(g, bad)
    # numpy integers are indices
    assert restrict(g, np.arange(2, 4)).parent_indices == (2, 3)


def test_grassmann_point_restriction_is_quotient_domain():
    g = build_grassmann(F2, 4, 2)
    a = all_points(2, 4)[0]
    pr = restrict_to_point(g, a)
    assert pr.child.family == "grassmann"
    assert pr.child.v == gaussian(3, 1, 2) == 7
    assert len(pr.parent_indices) == pr.child.v


@pytest.mark.parametrize(
    "tag", ["grassmann", "polar"], ids=["J_3(4,2)", "C_2(3,3,0)"]
)
def test_point_restriction_indices_match_contains_loop(tag):
    from degone.subspaces import QuotientMap

    if tag == "grassmann":
        parent = build_grassmann(F3, 4, 2)
    else:
        parent = build_polar(standard_polar("O_plus", 3, F2), 3)
    for a in parent.coords:
        pr = restrict_to_point(parent, a)
        through = [i for i, K in enumerate(parent.vertices) if contains(K, a)]
        assert sorted(pr.parent_indices) == through
        if tag == "grassmann":
            qmap = QuotientMap(modulus=a)
            images = [qmap.apply(parent.vertices[p]) for p in pr.parent_indices]
            assert images == list(pr.child.vertices)


def test_point_restriction_rejects_non_coordinate_point():
    g = build_grassmann(F3, 4, 2)
    with pytest.raises(DomainError, match="not a coordinate point"):
        restrict_to_point(g, all_points(3, 5)[0])


def test_transported_point_indicator_is_point_or_constant():
    g = build_grassmann(F2, 4, 2)
    from degone.catalogs import PointIndicator

    for a in all_points(2, 4):
        pr = restrict_to_point(g, a)
        child_point_bits = {
            PointIndicator(pc, True).evaluate(pr.child).bits
            for pc in pr.child.coords
        }
        for p in all_points(2, 4):
            fn = PointIndicator(p, True).evaluate(g)
            moved = pr.transport(fn)
            if p == a:
                assert moved.bits == (1 << pr.child.v) - 1  # constant one
            else:
                assert moved.bits in child_point_bits


@pytest.mark.parametrize("n", [4, 5])
def test_full_catalog_transports_into_quotient_catalog(n):
    # every catalog function restricted to the lines through a point is,
    # in the quotient, again a catalog function of the smaller geometry
    from degone.catalogs import catalog_bits

    g = build_grassmann(F2, n, 2)
    entries = catalog(g)
    for a in all_points(2, n):
        pr = restrict_to_point(g, a)
        child_bits = catalog_bits(pr.child)
        for e in entries:
            assert pr.transport(e.fn).bits in child_bits


def test_transported_constant_stays_constant():
    g = build_grassmann(F2, 4, 2)
    a = all_points(2, 4)[1]
    pr = restrict_to_point(g, a)
    one = BoolFn.constant(g, 1)
    assert pr.transport(one).bits == (1 << pr.child.v) - 1


def test_polar_point_restriction_quotient():
    dual = build_polar(standard_polar("O_plus", 3, F2), 3)
    a = dual.coords[0]
    pr = restrict_to_point(dual, a)
    assert pr.child.family == "polar"
    assert pr.child.params["n"] == 2 and pr.child.params["k"] == 2
    assert pr.child.v == 6  # the rank-2 hyperbolic dual polar graph
    for e in catalog(dual)[:40]:
        moved = pr.transport(e.fn)
        assert is_degree_one(pr.child, moved)


def test_johnson_inside_hamming_transport():
    # J(4,2) is the weight-2 slice of H(4,2), coordinate-induced: every
    # degree-1 function of the cube restricts to a degree-1 function
    h = build_hamming(4, 2)
    r = restrict(h, lambda w: sum(w) == 2)
    assert r.child.v == build_johnson(4, 2).v
    for e in catalog(h):
        bits = 0
        for ci, pi in enumerate(r.parent_indices):
            if e.fn.value(pi):
                bits |= 1 << ci
        assert is_degree_one(r.child, BoolFn(r.child, bits))


def test_grassmann_lines_embed_in_big_johnson():
    # the 35 lines of GF(2)^4, viewed as 3-subsets of the 15 points, form
    # a coordinate-induced subdomain of J(15,3); its degree-1 functions
    # restrict to degree-1 functions on the line domain
    g = build_grassmann(F2, 4, 2)
    big = build_johnson(15, 3)
    subsets = [
        tuple(
            sorted(
                j
                for j, p in enumerate(g.coords)
                if K.contains_vector(p.basis[0])
            )
        )
        for K in g.vertices
    ]
    assert len(set(subsets)) == 35 and all(len(s) == 3 for s in subsets)
    idx = {v: i for i, v in enumerate(big.vertices)}
    r = restrict(big, [idx[s] for s in subsets])
    for e in catalog(big):
        bits = 0
        for ci, pi in enumerate(r.parent_indices):
            if e.fn.value(pi):
                bits |= 1 << ci
        assert is_degree_one(r.child, BoolFn(r.child, bits))


def test_symplectic_point_restriction_quotient():
    # quotient of the rank-3 symplectic dual polar graph by a point is
    # the rank-2 one; the gram-only form transport path
    from degone.catalogs import HyperplaneIndicator, PointIndicator
    from degone.subspaces import enumerate_subspaces

    dual = build_polar(standard_polar("Sp", 3, F2), 3)
    a = dual.coords[0]
    pr = restrict_to_point(dual, a)
    assert pr.child.params["family"] == "Sp"
    assert pr.child.params["n"] == 2 and pr.child.v == 15
    fns = [
        BoolFn.constant(dual, 1),
        PointIndicator(dual.coords[1], True).evaluate(dual),
        HyperplaneIndicator(enumerate_subspaces(F2, 6, 5)[0], True).evaluate(dual),
    ]
    for fn in fns:
        assert is_degree_one(pr.child, pr.transport(fn))


def test_manifest_shape():
    g = build_grassmann(F2, 4, 2)
    man = g.manifest()
    assert man["family"] == "grassmann"
    assert man["v"] == 35 and man["c"] == 15
    assert man["valency"] == 18
    assert len(man["vertex_keys"]) == 35
    assert len(man["coordinate_keys"]) == 15


def test_bilinear_override_must_be_disjointness_compatible():
    with pytest.raises(DomainError):
        build_bilinear(F2, 2, 2, excluded=all_points(2, 4)[0])

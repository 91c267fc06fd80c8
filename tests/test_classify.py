import gc
import json
import time
import weakref

import numpy as np
import pytest
import sympy

import degone.classify as classify
from degone import scheme
from degone.boolfn import BoolFn
from degone.catalogs import PointIndicator, catalog, catalog_bits
from degone.classify import (
    ClassifyError,
    SearchConfig,
    bd_restriction_analysis,
    bruen_drudge_search,
    degree1_space,
    enumerate_all,
    is_degree_one,
    is_reduced,
    reduce_polar,
)
from degone.domains import build_grassmann, build_hamming, build_johnson, build_polar
from degone.forms import standard_polar
from degone.gf import field_spec


F2 = field_spec(2)


def sympy_rank(dom):
    return sympy.Matrix(dom.incidence.tolist()).rank()


def test_degree1_space_dimensions_against_sympy():
    j = build_johnson(4, 2)
    sp = degree1_space(j)
    assert sp.dim == sympy_rank(j) == 4
    g = build_grassmann(F2, 4, 2)
    assert degree1_space(g).dim == sympy_rank(g) == 15
    h = build_hamming(2, 2)
    assert degree1_space(h).dim == sympy_rank(h) == 3


def test_pivot_values_determine_catalog_members():
    g = build_grassmann(F2, 4, 2)
    sp = degree1_space(g)
    assert len(sp.pivot_vertices) == sp.dim
    for e in catalog(g)[:25]:
        vals = [e.fn.value(p) for p in sp.pivot_vertices]
        for y, s, row in zip(sp.nonpivot_vertices, sp.scale, sp.dependency):
            predicted = sum(int(c) * x for c, x in zip(row, vals))
            assert predicted == s * e.fn.value(y)


def test_is_degree_one_examples():
    j = build_johnson(4, 2)
    for e in catalog(j):
        assert is_degree_one(j, e.fn)
    # no weight-1 function is degree-1 on J(4,2)
    for i in range(j.v):
        assert not is_degree_one(j, BoolFn(j, 1 << i))


def test_enumerate_johnson42():
    j = build_johnson(4, 2)
    rep = enumerate_all(j)
    assert rep.counts == {"total": 10, "trivial": 10, "nontrivial": 0}
    assert rep.complete
    assert rep.solution_bits() == catalog_bits(j)


def test_solutions_sorted_by_weight_then_hex():
    rep = enumerate_all(build_grassmann(F2, 4, 2))
    keys = [(s.weight, int(s.hex, 16)) for s in rep.solutions]
    assert keys == sorted(keys)


def test_report_config_and_prune_keys():
    rep = enumerate_all(build_johnson(4, 2), SearchConfig(solution_cap=7))
    out = rep.to_json()
    assert out["config"] == {"solution_cap": 7, "time_budget": None}
    # divisibility is never charged; the key stays for a stable format
    assert set(out["stats"]["prunes"]) == {"integrality", "interval", "divisibility"}
    assert out["stats"]["prunes"]["divisibility"] == 0


def test_no_search_path_computes_eigen_params(monkeypatch):
    def refuse(domain):
        raise AssertionError("eigen parameters computed on a search path")

    monkeypatch.setattr(scheme, "_compute_eigen_params", refuse)
    # unwrapped, so the Bruen-Drudge domain is built fresh, with no
    # eigen parameters cached from an earlier test
    monkeypatch.setattr(classify, "_bd_base", classify._bd_base.__wrapped__)
    assert enumerate_all(build_johnson(4, 2)).counts["total"] == 10
    assert enumerate_all(build_grassmann(F2, 4, 2)).counts["total"] == 302
    assert len(bruen_drudge_search(3).solutions) == 2


def test_solution_cap_flags_incomplete():
    g = build_grassmann(F2, 4, 2)
    full = enumerate_all(g)
    rep = enumerate_all(g, SearchConfig(solution_cap=5))
    assert not rep.complete
    assert rep.counts["total"] == 5
    # the cap stops the search early, on solutions of the full set
    assert rep.stats["nodes"] < full.stats["nodes"]
    assert rep.solution_bits() < full.solution_bits()
    again = enumerate_all(g, SearchConfig(solution_cap=5))
    assert json.dumps(rep.to_json(), sort_keys=True) == json.dumps(
        again.to_json(), sort_keys=True
    )
    empty = enumerate_all(g, SearchConfig(solution_cap=0))
    assert not empty.complete and empty.counts["total"] == 0


def test_time_budget_flags_incomplete():
    g = build_grassmann(F2, 4, 2)
    rep = enumerate_all(g, SearchConfig(time_budget=0.0))
    assert not rep.complete


def test_time_budget_bounds_catalog_generation(tmp_path):
    # C_2(3,3,0): the search takes milliseconds, the catalog tenths of a
    # second, so a 0.05 s budget ends inside catalog generation
    from degone.cli import main

    dom = build_polar(standard_polar("O_plus", 3, F2), 3)
    t0 = time.monotonic()
    rep = enumerate_all(dom, SearchConfig(time_budget=0.05))
    assert time.monotonic() - t0 < 2.0
    assert not rep.complete
    assert rep.counts == {"total": 632}
    assert all(s.trivial is None for s in rep.solutions)
    assert "catalog" not in dom._cache  # an expired catalog is not kept
    out = tmp_path / "c.json"
    argv = ["classify", "--family", "polar", "--q", "2", "--n", "3", "--k", "3",
            "--e", "0", "--time-budget", "0.05", "--out", str(out)]
    assert main(argv) == 3
    payload = json.loads(out.read_text())
    assert payload["complete"] is False
    assert {s["trivial"] for s in payload["solutions"]} == {None}


def test_dim_guard_requires_budget(monkeypatch):
    import degone.classify as classify

    monkeypatch.setattr(classify, "MAX_UNBOUNDED_DIM", 3)
    j = build_johnson(4, 2)
    with pytest.raises(ClassifyError, match="dim 4 > 3"):
        enumerate_all(j)
    rep = enumerate_all(j, SearchConfig(solution_cap=1000))
    assert rep.counts["total"] == 10
    # the guard counts the pivots left free by ``fixed``
    sp = degree1_space(j)
    pivot, other = sp.pivot_vertices[0], sp.nonpivot_vertices[0]
    with pytest.raises(ClassifyError, match="free dim 4 > 3"):
        enumerate_all(j, fixed={other: 1})
    rep = enumerate_all(j, fixed={pivot: 1})
    assert rep.complete
    assert rep.solution_bits() == {
        b for b in catalog_bits(j) if (b >> pivot) & 1
    }


def test_fixed_values_restrict_solutions():
    j = build_johnson(4, 2)
    full = enumerate_all(j).solution_bits()
    rep = enumerate_all(j, fixed={0: 1, 3: 0})
    expect = {b for b in full if (b & 1) and not (b >> 3) & 1}
    assert rep.solution_bits() == expect


@pytest.mark.parametrize("key", [1.0, True, "1", np.True_])
def test_fixed_vertices_must_be_ints(key):
    j = build_johnson(4, 2)
    with pytest.raises(ClassifyError, match="fixed vertex must be an int"):
        enumerate_all(j, fixed={key: 1})
    want = enumerate_all(j, fixed={1: 1}).solution_bits()
    assert enumerate_all(j, fixed={np.int64(1): 1}).solution_bits() == want


def test_fixed_value_search_differential():
    import random

    rng = random.Random(991)
    for dom in (
        build_johnson(4, 2),
        build_hamming(2, 3),
        build_polar(standard_polar("O_plus", 2, F2), 2),
    ):
        brute = {
            b for b in range(1 << dom.v) if is_degree_one(dom, BoolFn(dom, b))
        }
        for _ in range(25):
            k = rng.randint(1, dom.v)
            fixed = {i: rng.randint(0, 1) for i in rng.sample(range(dom.v), k)}
            got = enumerate_all(dom, fixed=fixed).solution_bits()
            want = {
                b
                for b in brute
                if all((b >> i) & 1 == val for i, val in fixed.items())
            }
            assert got == want


def test_invalid_config_rejected():
    with pytest.raises(ClassifyError):
        SearchConfig(solution_cap=-1)
    with pytest.raises(ClassifyError):
        SearchConfig(time_budget=-1.0)
    # NaN compares false with everything: the deadline would never pass
    with pytest.raises(ClassifyError):
        SearchConfig(time_budget=float("nan"))
    # an infinite budget would write Infinity into the report's config
    # and skip the free-dim guard
    with pytest.raises(ClassifyError):
        SearchConfig(time_budget=float("inf"))


@pytest.mark.parametrize(
    "kw",
    [
        {"solution_cap": 2.5},
        {"solution_cap": True},
        {"solution_cap": "3"},
        {"solution_cap": np.int64(3)},
        {"time_budget": "3"},
        {"time_budget": False},
        {"time_budget": [1]},
    ],
    ids=repr,
)
def test_config_refuses_wrong_types(kw):
    # a float cap used to fail inside the search, a bool cap to run as
    # cap 1 and write true into the report, a string to fail bare
    with pytest.raises(ClassifyError, match="must be a"):
        SearchConfig(**kw)


def test_q3_hyperbolic_dual_polar_triple_agreement():
    dom = build_polar(standard_polar("O_plus", 2, field_spec(3)), 2)
    rep = enumerate_all(dom)
    brute = {
        b for b in range(1 << dom.v) if is_degree_one(dom, BoolFn(dom, b))
    }
    assert rep.solution_bits() == brute == catalog_bits(dom)
    assert len(brute) == 70


def test_symplectic_dual_polar_classification():
    dom = build_polar(standard_polar("Sp", 2, F2), 2)
    rep = enumerate_all(dom)
    assert rep.complete
    assert rep.counts["nontrivial"] == 0
    assert rep.solution_bits() == catalog_bits(dom)


def test_elliptic_dual_polar_classification():
    dom = build_polar(standard_polar("O_minus", 2, F2), 2)
    rep = enumerate_all(dom)
    assert rep.complete
    assert rep.counts["nontrivial"] == 0
    assert rep.solution_bits() == catalog_bits(dom)


def test_catalog_overflow_reports_without_verdicts(monkeypatch):
    # an out-of-scale coclique family aborts the catalog cleanly, and the
    # classification report then simply carries no trivial/nontrivial split
    import degone.catalogs as catalogs

    monkeypatch.setattr(catalogs, "COCLIQUE_GENERATION_LIMIT", 100)
    dom = build_polar(standard_polar("O_minus", 2, F2), 2)
    with pytest.raises(catalogs.CatalogError, match="desk scale"):
        catalogs.catalog(dom)
    rep = enumerate_all(dom)
    assert rep.counts == {"total": 5456}
    assert all(s.trivial is None for s in rep.solutions)


# --- reduction ------------------------------------------------------------


def test_reduce_constant_one_unchanged():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    one = BoolFn.constant(dom, 1)
    res = reduce_polar(dom, one)
    assert res.fn == one and res.steps == [] and res.degree1_ok


def test_reduce_point_plus_to_zero_in_one_step():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    fn = PointIndicator(dom.coords[0], True).evaluate(dom)
    res = reduce_polar(dom, fn)
    assert res.fn.bits == 0
    assert len(res.steps) == 1
    assert res.steps[0]["phase"] == 1
    assert res.steps[0]["point"] == dom.coord_keys[0]


def test_reduce_nondegenerate_hyperplane_fixed_point():
    from degone.catalogs import HyperplaneIndicator
    from degone.subspaces import enumerate_subspaces

    spec = standard_polar("O_plus", 3, F2)
    dom = build_polar(spec, 2)
    pi = next(
        h
        for h in enumerate_subspaces(F2, 6, 5)
        if spec.hyperplane_section_type(h).kind == "nondegenerate"
    )
    fn = HyperplaneIndicator(pi, True).evaluate(dom)
    res = reduce_polar(dom, fn)
    assert res.fn == fn and res.steps == []
    assert is_reduced(dom, fn)


def test_reduce_requires_degree_one():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    bad = next(
        BoolFn(dom, b)
        for b in range(1, 1 << dom.v)
        if not is_degree_one(dom, BoolFn(dom, b))
    )
    with pytest.raises(ClassifyError, match="degree-1"):
        reduce_polar(dom, bad)


def test_reduce_only_on_polar():
    with pytest.raises(ClassifyError, match="polar"):
        reduce_polar(build_johnson(4, 2), BoolFn(build_johnson(4, 2), 0))


def test_is_reduced_refuses_a_function_on_another_domain():
    # J(4,2) also has v = 6; its functions used to be read as polar ones
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    assert dom.v == 6
    with pytest.raises(ClassifyError, match="does not live on this domain"):
        is_reduced(dom, BoolFn(build_johnson(4, 2), 0b111))


def test_reduce_output_is_fixed_point():
    dom = build_polar(standard_polar("O_plus", 2, F2), 2)
    for e in catalog(dom):
        res = reduce_polar(dom, e.fn)
        assert is_reduced(dom, res.fn)
        again = reduce_polar(dom, res.fn)
        assert again.fn == res.fn and again.steps == []


@pytest.mark.parametrize(
    "family, n, k", [("O_plus", 3, 2), ("O_plus", 3, 3), ("O_minus", 2, 2), ("Sp", 2, 2)]
)
def test_forcing_hyperplanes_match_subspaces_of_each_maximal(family, n, k):
    # reference, found by contains: p fires in a maximal S on its vertices in
    # S, alone or with those of a (d-1)-space of the ambient space inside S
    # and off p
    from degone.classify import _polar_forcing_data
    from degone.subspaces import contains, enumerate_subspaces

    dom = build_polar(standard_polar(family, n, F2), k)
    spec = dom.polar
    maxes = spec.isotropic_subspaces(spec.rank)
    subs = enumerate_subspaces(dom.field, spec.ambient_dim, spec.rank - 1)
    _, tables = _polar_forcing_data(dom)

    def inside(s, items):
        return sum(1 << i for i, x in enumerate(items) if contains(s, x))

    if k == n:
        assert tables == []  # the k = n trigger is global
        return
    assert [in_s for in_s, _ in tables] == [inside(s, dom.vertices) for s in maxes]
    for s, (_, table) in zip(maxes, tables):
        hyps = [(pi, inside(pi, dom.vertices)) for pi in subs if contains(s, pi)]
        verts = [(i, x) for i, x in enumerate(dom.vertices) if contains(s, x)]
        want = {}
        for j, p in enumerate(dom.coords):
            if contains(s, p):
                ball = sum(1 << i for i, x in verts if contains(x, p))
                want.setdefault(ball, j)
                for pi, support in hyps:
                    if not contains(pi, p):
                        want.setdefault(ball | support, j)
        assert table == want


# --- Bruen-Drudge ----------------------------------------------------------


def test_bd_rejects_even_and_large_q(monkeypatch):
    def boom(q):
        raise AssertionError("domain built for a refused q")

    monkeypatch.setattr(classify, "_bd_base", boom)
    with pytest.raises(ClassifyError, match="odd"):
        bruen_drudge_search(2)
    with pytest.raises(ClassifyError, match="q <= 9 required, got 11"):
        bruen_drudge_search(11, SearchConfig(time_budget=60))


def test_bd_dim_guard_requires_budget(monkeypatch):
    import degone.classify as classify

    monkeypatch.setattr(classify, "MAX_UNBOUNDED_DIM", 5)
    with pytest.raises(ClassifyError, match="free dim 10 > 5"):
        bruen_drudge_search(3)
    bd = bruen_drudge_search(3, SearchConfig(solution_cap=1))
    assert not bd.complete and len(bd.solutions) == 1


def test_bd_q3_solutions():
    from degone.catalogs import match_catalog

    bd = bruen_drudge_search(3)
    assert (len(bd.secants), len(bd.tangents), len(bd.passants)) == (45, 40, 45)
    assert len(bd.solutions) >= 1
    for f in bd.solutions:
        assert f.weight == 65
        assert is_degree_one(bd.domain, f)
        assert set(bd.tangent_split(f).values()) == {2}
        # a degree-1 function beyond the point/hyperplane catalog
        assert match_catalog(f) == ()


def test_bd_q5_solutions():
    bd = bruen_drudge_search(5)
    assert (len(bd.secants), len(bd.tangents), len(bd.passants)) == (325, 156, 325)
    assert bd.complete and len(bd.solutions) >= 1
    expect = (25 + 1) * (25 + 5 + 1) // 2  # (q^2+1)(q^2+q+1)/2
    for f in bd.solutions:
        assert f.weight == expect == 403
        assert set(bd.tangent_split(f).values()) == {3}  # (q+1)/2


def test_bd_q7_solutions():
    # 50 free pivots, above MAX_UNBOUNDED_DIM: the budget lifts the guard
    bd = bruen_drudge_search(7, SearchConfig(time_budget=120))
    assert (len(bd.secants), len(bd.tangents), len(bd.passants)) == (1225, 400, 1225)
    assert bd.complete and bd.stats["nodes"] == 552 and len(bd.solutions) == 2
    expect = (49 + 1) * (49 + 7 + 1) // 2  # (q^2+1)(q^2+q+1)/2
    for f in bd.solutions:
        assert f.weight == expect == 1425
        assert is_degree_one(bd.domain, f)
        assert set(bd.tangent_split(f).values()) == {4}  # (q+1)/2
    assert bd.solutions[0].bits ^ bd.solutions[1].bits == sum(
        1 << bd.domain.vertex_index(key) for key in bd.tangents
    )


def test_bd_restriction_weight_and_verdict():
    bd = bruen_drudge_search(3)
    ana = bd_restriction_analysis(bd, bd.solutions[0])
    assert ana["weight"] == 45
    assert ana["trivial"] is False and ana["descriptors"].to_json() == []


def test_bd_restriction_refuses_a_function_on_another_domain():
    # a function on J_2(4,2) (v = 35) read as one on J_3(4,2) restricted to 0
    from degone.domains import DomainError

    bd = bruen_drudge_search(3)
    fn = BoolFn(build_grassmann(F2, 4, 2), 1)
    with pytest.raises(DomainError, match="does not live on the parent domain"):
        bd_restriction_analysis(bd, fn)


def test_bd_restriction_of_constant_is_trivial():
    bd = bruen_drudge_search(3)
    one = BoolFn.constant(bd.domain, 1)
    ana = bd_restriction_analysis(bd, one)
    assert ana["weight"] == 81
    assert ana["trivial"] is True


@pytest.mark.parametrize(
    "build",
    [lambda: build_polar(standard_polar("O_plus", 2, F2), 2), lambda: build_johnson(4, 2)],
    ids=["C_2(2,2,0)", "J(4,2)"],
)
def test_classified_domain_is_freed_without_the_collector(build):
    # nothing a classification caches on a domain points back at it, so
    # reference counting alone frees the domain and all it caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        dom = build()
        rep = enumerate_all(dom)
        assert rep.counts["total"] > 0 and dom._cache["catalog"]
        ref = weakref.ref(dom)
        del dom, rep
        assert ref() is None
    finally:
        if enabled:
            gc.enable()

"""Differential tests of the certified modular elimination against the
``Fraction`` RREF in ``degone.ratlinalg``, which serves as the oracle,
and against the dense modular elimination it replaced
(``dense_rref_oracle``), which must give the same arrays."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_rref_oracle as dense
import degone.classify as classify
import degone.ratlinalg as ratlinalg
from degone.boolfn import BoolFn
from degone.catalogs import catalog
from degone.classify import (
    CertificateError,
    ClassifyError,
    certified_rref,
    degree1_space,
    enumerate_all,
    is_degree_one,
)
from degone.domains import (
    build_bilinear,
    build_grassmann,
    build_johnson,
    build_polar,
)
from degone.forms import standard_polar
from degone.gf import field_spec
from degone.lpexport import _terms, export_lp
from degone.ratlinalg import RatMatrix, kernel_from_rref, rref, scale_to_int
from test_domains import DOMAINS


F2 = field_spec(2)


def oracle(a):
    """Pivots and integer kernel rows of the rational RREF of ``a``: the
    slow path that the modular elimination replaces."""
    res = rref(RatMatrix.from_rows(np.asarray(a).tolist()))
    kb = kernel_from_rref(res, np.asarray(a).shape[1])
    return list(res.pivot_cols), [scale_to_int(kb.row(i)) for i in range(kb.rows)]


def assert_matches_oracle(a, got):
    pivots, nonpivots, dep, scale = got
    want_pivots, kernel = oracle(a)
    assert list(pivots) == want_pivots
    assert list(nonpivots) == [
        y for y in range(np.asarray(a).shape[1]) if y not in set(want_pivots)
    ]
    assert np.shape(dep) == (len(nonpivots), len(pivots))
    for j, (y, row) in enumerate(zip(nonpivots, kernel)):
        assert scale[j] == row[y] > 0
        assert dep[j].tolist() == [-row[p] for p in pivots]


def assert_same_arrays(got, want):
    """Pivots, non-pivots, rows and scales equal entry for entry, with
    the same dtypes."""
    assert list(got[0]) == list(want[0]) and list(got[1]) == list(want[1])
    for g, w in zip(got[2:], want[2:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tolist() == w.tolist()


@st.composite
def integer_matrices(draw):
    """Small integer matrices with negative entries, and some with zero
    columns or rows that are combinations of others; all-zero ones too."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entries = st.integers(-4, 4)
    row = st.lists(entries, min_size=c, max_size=c)
    a = np.array(draw(st.lists(row, min_size=r, max_size=r)))
    if draw(st.booleans()):
        a[:, draw(st.lists(st.integers(0, c - 1), max_size=c))] = 0
    if r > 1 and draw(st.booleans()):
        mix = draw(st.lists(entries, min_size=r - 1, max_size=r - 1))
        a[-1] = np.array(mix) @ a[:-1]
    if draw(st.integers(0, 9)) == 0:
        a[:] = 0
    return a.astype(np.int64)


@settings(max_examples=150, deadline=None)
@given(integer_matrices(), st.sampled_from([2, 3, 5, 7, 2147483629]))
def test_rref_mod_matches_dense_elimination(a, p):
    pivots, nonpivots, red = classify._rref_mod(classify._columns(a), p)
    want_pivots, want = dense.rref_mod(a, p)
    assert pivots == want_pivots
    assert nonpivots == [y for y in range(a.shape[1]) if y not in set(pivots)]
    assert red.tolist() == want[:, nonpivots].T.tolist()


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_certified_rref_matches_dense_path(a):
    assert_same_arrays(certified_rref(a), dense.certified_rref(a))


QUADRIC = {f"J_{q}(4,2)": lambda q=q: build_grassmann(field_spec(q), 4, 2) for q in (3, 5)}


@pytest.mark.parametrize("tag", sorted(DOMAINS) + list(QUADRIC))
def test_elimination_matches_dense_path_on_domains(tag):
    a = {**DOMAINS, **QUADRIC}[tag]().incidence.T
    assert_same_arrays(certified_rref(a), dense.certified_rref(a))


def test_certificate_rejects_corruption():
    # pivots interleave with non-pivots here, and some scales exceed 1
    a = DOMAINS["H_3(2,2) passant"]().incidence.T
    cols = classify._columns(a)
    pivots, nonpivots, dep, scale = certified_rref(a)
    assert classify._certify(cols, pivots, nonpivots, dep, scale)
    nleft = np.searchsorted(pivots, nonpivots)
    j = int(np.flatnonzero(nleft < len(pivots))[0])  # a pivot lies right of it
    bad_entry, bad_right, bad_scale = dep.copy(), dep.copy(), scale.copy()
    bad_entry[j, 0] += 1
    bad_right[j, nleft[j]] = 1
    bad_scale[j] += 1
    for d, s in ((bad_entry, scale), (bad_right, scale), (dep, bad_scale)):
        assert not classify._certify(cols, pivots, nonpivots, d, s)
        assert not dense.certify(np.asarray(a, np.int64), pivots, nonpivots, d, s)
    # column 0 is twice column 1, so the product identity holds with pivot
    # 1 right of non-pivot 0: only the zeros right of it reject this
    two = np.array([[2, 1]])
    dep, scale = np.array([[2]]), np.array([1])
    assert not classify._certify(classify._columns(two), [1], [0], dep, scale)
    assert not dense.certify(two, [1], [0], dep, scale)


@pytest.mark.parametrize("tag", sorted(DOMAINS))
def test_degree1_space_equals_fraction_rref(tag):
    dom = DOMAINS[tag]()
    sp = degree1_space(dom)
    assert_matches_oracle(
        dom.incidence.T,
        (sp.pivot_vertices, sp.nonpivot_vertices, sp.dependency, sp.scale),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_bilinear(field_spec(3), 1, 2),
        lambda: build_grassmann(F2, 3, 1),
        lambda: build_bilinear(F2, 1, 3),
    ],
    ids=["H_3(1,2)", "J_2(3,1)", "H_2(1,3)"],
)
def test_full_rank_domain_has_no_dependency_rows(build):
    dom = build()
    sp = degree1_space(dom)
    assert sp.dim == dom.v
    assert sp.dependency.shape == (0, dom.v) and sp.scale.shape == (0,)
    assert all(is_degree_one(dom, BoolFn(dom, b)) for b in range(1 << dom.v))
    assert len(enumerate_all(dom).solutions) == 1 << dom.v
    assert " k0:" not in export_lp(dom)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_random_integer_matrices_match_oracle(rows):
    a = np.array(rows, dtype=np.int64)
    assert_matches_oracle(a, certified_rref(a))


@pytest.mark.parametrize(
    "build, p",
    [
        (lambda: np.array([[1, 1], [1, -1]]), 2),
        (lambda: build_grassmann(F2, 4, 2).incidence.T, 2),  # rank 11, not 15
        (lambda: build_grassmann(field_spec(5), 3, 2).incidence.T, 5),
    ],
    ids=["2x2", "J_2(4,2)", "J_5(3,2)"],
)
def test_unlucky_prime_is_replaced(monkeypatch, build, p):
    # p divides a minor of A, so the rank mod p drops and the pivot set
    # moves right; the certificate rejects it and the next prime wins
    a = build()
    monkeypatch.setattr(classify, "PRIMES", (p, 2147483647))
    pivots = classify._rref_mod(classify._columns(a), p)[0]
    assert pivots != oracle(a)[0]
    assert pivots == dense.rref_mod(np.asarray(a, dtype=np.int64), p)[0]
    assert_matches_oracle(a, certified_rref(a))
    assert_same_arrays(certified_rref(a), dense.certified_rref(a))


def test_crt_recovers_entries_no_single_prime_can(monkeypatch):
    a = np.array([[97, 1, 0], [0, 0, 1]])  # RREF entry 1/97
    monkeypatch.setattr(classify, "PRIMES", (101, 103, 107))
    assert_matches_oracle(a, certified_rref(a))


def test_reconstruction_failure_raises(monkeypatch):
    a = np.array([[97, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(classify, "PRIMES", (101, 103))
    with pytest.raises(CertificateError, match="not certified"):
        certified_rref(a)
    assert issubclass(CertificateError, ClassifyError)


def _flips(dom, fns, rng, count):
    out = []
    for _ in range(count):
        f = rng.choice(fns)
        for k in (1, 2):
            flip = sum(1 << i for i in rng.sample(range(dom.v), k))
            out.append(BoolFn(dom, f.bits ^ flip))
    return out


def test_object_dtype_path_gives_identical_answers(monkeypatch):
    fast = build_grassmann(F2, 4, 2)
    sp = degree1_space(fast)
    assert sp.dependency.dtype == np.int64
    monkeypatch.setattr(classify, "INT64_BOUND", 0)
    wide = build_grassmann(F2, 4, 2)
    wsp = degree1_space(wide)
    assert wsp.dependency.dtype == object and wsp.scale.dtype == object
    assert wsp.pivot_vertices == sp.pivot_vertices
    assert wsp.dependency.tolist() == sp.dependency.tolist()
    assert wsp.scale.tolist() == sp.scale.tolist()
    a = wide.incidence.T
    assert_same_arrays(certified_rref(a), dense.certified_rref(a))
    fns = [e.fn for e in catalog(fast)]
    for f in fns + _flips(fast, fns, random.Random(5), 40):
        assert is_degree_one(wide, BoolFn(wide, f.bits)) == is_degree_one(fast, f)
    assert enumerate_all(wide).solution_bits() == enumerate_all(fast).solution_bits()


def test_is_degree_one_agrees_with_kernel_rows():
    dom = build_grassmann(F2, 4, 2)
    _, kernel = oracle(dom.incidence.T)

    def old(f):
        return all(sum(r[i] for i in f.support()) == 0 for r in kernel)

    fns = [e.fn for e in catalog(dom)]
    checked = fns + _flips(dom, fns, random.Random(17), 150)
    verdicts = [old(f) for f in checked]
    assert any(verdicts) and not all(verdicts)
    for f in checked:
        assert is_degree_one(dom, f) == old(f)


@pytest.mark.parametrize("tag", ["J(4,2)", "J_2(4,2)", "O_plus(3,2)"])
def test_lp_kernel_lines_equal_oracle_rows(tag):
    dom = {
        "J(4,2)": lambda: build_johnson(4, 2),
        "J_2(4,2)": lambda: build_grassmann(F2, 4, 2),
        "O_plus(3,2)": lambda: build_polar(standard_polar("O_plus", 3, F2), 2),
    }[tag]()
    _, kernel = oracle(dom.incidence.T)
    want = [
        f" k{r}: " + _terms([(i, a) for i, a in enumerate(row) if a]) + " = 0"
        for r, row in enumerate(kernel)
    ]
    got = [l for l in export_lp(dom).splitlines() if l.startswith(" k")]
    assert got == want


def test_hot_path_does_not_call_the_fraction_rref(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("Fraction RREF on the hot path")

    monkeypatch.setattr(classify, "rref", boom)
    monkeypatch.setattr(ratlinalg, "rref", boom)
    dom = build_grassmann(F2, 4, 2)
    rep = enumerate_all(dom)
    assert rep.complete and rep.counts["nontrivial"] == 0
    assert all(is_degree_one(dom, BoolFn(dom, int(s.hex, 16))) for s in rep.solutions)

import itertools
import random

import pytest

from degone.gf import field_spec
from degone.subspaces import (
    GeometryError,
    QuotientMap,
    Subspace,
    all_points,
    contains,
    enumerate_subspaces,
    gaussian,
    meet,
    span,
    span_dim,
)


F2 = field_spec(2)
F3 = field_spec(3)


def test_gaussian_values():
    assert gaussian(4, 2, 2) == 35
    assert gaussian(4, 0, 5) == 1
    assert gaussian(4, 1, 3) == (3**4 - 1) // (3 - 1) == 40
    assert gaussian(5, 2, 2) == gaussian(5, 3, 2)


def test_enumerate_points_of_gf2_4():
    pts = enumerate_subspaces(F2, 4, 1)
    assert len(pts) == 15
    assert len(enumerate_subspaces(F2, 4, 2)) == 35
    zero = enumerate_subspaces(F2, 4, 0)
    assert len(zero) == 1 and zero[0].dim == 0


def test_enumeration_count_matches_gaussian_and_is_sorted():
    for q, fld in ((2, F2), (3, F3)):
        for n in range(1, 5):
            for k in range(n + 1):
                subs = enumerate_subspaces(fld, n, k)
                assert len(subs) == gaussian(n, k, q)
                keys = [s.key() for s in subs]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys)


def test_enumerate_rejects_bad_k():
    with pytest.raises(GeometryError):
        enumerate_subspaces(F2, 3, 4)


def test_canonical_form_independent_of_basis():
    rng = random.Random(7)
    for s in enumerate_subspaces(F2, 4, 2)[:10]:
        vectors = [v for v in s.vectors() if any(v)]
        for _ in range(5):
            sample = rng.sample(vectors, k=2)
            rebuilt = Subspace.from_vectors(F2, 4, sample + [vectors[0]])
            if rebuilt.dim == s.dim:
                assert rebuilt == s


def test_span_meet_lattice_basics():
    lines = enumerate_subspaces(F2, 4, 2)
    x = lines[0]
    assert span(x, x) == x
    assert meet(x, x) == x
    pts = all_points(2, 4)
    p, r = pts[0], pts[1]
    assert span(p, r).dim == 2
    with pytest.raises(GeometryError):
        span(p, all_points(3, 4)[0])


def test_dimension_formula_exhaustive_hyperplane_vs_line():
    hyps = enumerate_subspaces(F2, 4, 3)
    lines = enumerate_subspaces(F2, 4, 2)
    for h in hyps:
        for l in lines:
            if not contains(h, l):
                m = meet(h, l)
                assert m.dim + span(h, l).dim == h.dim + l.dim
                assert span(h, l).dim == 4
                assert m.dim == 1


def test_span_dim_matches_span():
    rng = random.Random(3)
    lines = enumerate_subspaces(F3, 4, 2)
    for _ in range(50):
        a, b = rng.choice(lines), rng.choice(lines)
        assert span_dim(a, b) == span(a, b).dim


def test_contains_by_reduction():
    hyps = enumerate_subspaces(F2, 4, 3)
    lines = enumerate_subspaces(F2, 4, 2)
    for h in hyps[:4]:
        for l in lines:
            truth = all(h.contains_vector(v) for v in l.basis)
            assert contains(h, l) == truth


def test_quotient_of_modulus_is_zero():
    a = all_points(2, 4)[3]
    qm = QuotientMap(modulus=a)
    assert qm.apply(a).dim == 0
    assert qm.target_dim == 3


def test_quotient_drops_dimension_of_lines_through_point():
    a = all_points(2, 4)[0]
    qm = QuotientMap(modulus=a)
    for l in enumerate_subspaces(F2, 4, 2):
        if contains(l, a):
            img = qm.apply(l)
            assert img.n == 3 and img.dim == 1


def test_quotient_bijection_count():
    # k-spaces through a point <-> (k-1)-spaces of the quotient
    a = all_points(2, 4)[0]
    qm = QuotientMap(modulus=a)
    images = {
        qm.apply(l).key()
        for l in enumerate_subspaces(F2, 4, 2)
        if contains(l, a)
    }
    assert len(images) == gaussian(3, 1, 2) == 7


@pytest.mark.parametrize("q,fld", [(2, F2), (3, F3)])
def test_quotient_is_lattice_isomorphism(q, fld):
    n = 4
    a = enumerate_subspaces(fld, n, 1)[1]
    qm = QuotientMap(modulus=a)
    above = [
        s
        for k in range(1, n + 1)
        for s in enumerate_subspaces(fld, n, k)
        if contains(s, a)
    ]
    img = {s.key(): qm.apply(s) for s in above}
    for s, t in itertools.product(above, above):
        assert contains(s, t) == contains(img[s.key()], img[t.key()])
    # surjectivity onto the full quotient lattice
    target = {
        x.key()
        for k in range(n)
        for x in enumerate_subspaces(fld, n - 1, k)
    }
    assert {v.key() for v in img.values()} == target


def test_serialization_key_format():
    s = enumerate_subspaces(F2, 4, 2)[0]
    key = s.key()
    q, n, k, digits = key.split(":")
    assert (q, n, k) == ("2", "4", "2")
    assert len(digits) == 2 * 4
    assert set(digits) <= set("01")


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_meet_matches_vector_intersection(q, n):
    fld = field_spec(q)
    rng = random.Random(q * 100 + n)
    pool = [
        s
        for k in range(1, n)
        for s in enumerate_subspaces(fld, n, k)
    ]
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        got = set(meet(a, b).vectors())
        expect = set(a.vectors()) & set(b.vectors())
        assert got == expect


def test_rref_gf_preserves_row_space():
    from degone.subspaces import rref_gf

    fld = field_spec(3)
    rng = random.Random(5)
    for _ in range(40):
        rows = [
            tuple(rng.randrange(3) for _ in range(4))
            for _ in range(rng.randint(1, 4))
        ]
        red, piv = rref_gf(fld, rows)
        s1 = Subspace.from_vectors(fld, 4, rows)
        s2 = Subspace(3, 4, tuple(red))
        assert s1 == s2
        assert piv == s1.pivots()


def test_lift_vector_roundtrip():
    a = all_points(2, 4)[2]
    qm = QuotientMap(modulus=a)
    for vec in ((1, 0, 0), (0, 1, 1), (1, 1, 1)):
        lifted = qm.lift_vector(vec)
        assert qm.apply_vector(lifted) == vec


def _points_reference(s):
    """The rref-and-dedupe points() that the direct row walk replaced."""
    field = s.field
    seen = set()
    out = []
    for v in s.vectors():
        if any(v):
            p = Subspace.from_vectors(field, s.n, [v])
            if p.basis not in seen:
                seen.add(p.basis)
                out.append(p)
    out.sort(key=lambda s: s.basis)
    return out


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 3), (9, 3)])
def test_points_match_rref_reference_on_every_subspace(q, n):
    fld = field_spec(q)
    for k in range(n + 1):
        for s in enumerate_subspaces(fld, n, k):
            got = s.points()
            assert got == _points_reference(s)
            assert [p.basis for p in got] == sorted(p.basis for p in got)
            assert len(got) == gaussian(k, 1, q)


def test_points_never_row_reduce(monkeypatch):
    import degone.subspaces as subspaces

    rng = random.Random(11)
    cases = []
    for q, n in ((4, 4), (3, 5)):
        fld = field_spec(q)
        for k in range(1, n + 1):
            subs = enumerate_subspaces(fld, n, k)
            for s in rng.sample(subs, min(8, len(subs))):
                cases.append((s, _points_reference(s)))

    def refuse(*args):
        raise AssertionError("points() must not call rref_gf")

    monkeypatch.setattr(subspaces, "rref_gf", refuse)
    for s, expect in cases:
        assert s.points() == expect

"""The acceptance suite: one test per verification target, with one
printed PASS/FAIL line per item.

Run `pytest -s tests/test_acceptance.py` to see the per-item lines, or
`degone verify --suite all` for the same checks outside pytest.

Known red: the rank-3 hyperbolic polar classification strictly exceeds
the five-shape catalog.  Two ambient hyperplanes can meet in a subspace
whose quadric section carries no isotropic line (possible exactly when
n-k = 1), so the disjoint union of their section indicators is Boolean
and degree-1 but uses two hyperplane terms where the five shapes allow
one.  That check asserts the five-shape equality and fails; the
closure test below pins down the exact solution set and passes.
"""

from degone import acceptance


def _run(fns):
    results = []
    for fn in fns:
        results.extend(fn())
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}{detail}")
    failures = [r for r in results if not r.passed]
    assert not failures, "failed: " + "; ".join(
        f"{r.name} ({r.detail})" for r in failures
    )


def test_search_equals_brute_force_on_small_domains():
    """Enumeration output equals the filter of all 2^v functions, v <= 20."""
    _run([acceptance.check_oracle_equivalence])


def test_multicube_classification_is_single_coordinate():
    """H(3,2) and H(2,3): every solution depends on one position's color."""
    _run([acceptance.check_hamming_classification])


def test_johnson_base_cases():
    """J(4,2) has exactly 10 degree-1 functions; J(5,2) matches its catalog."""
    _run([acceptance.check_johnson_base])


def test_grassmann_q2_base_case():
    """J_2(4,2): only trivial functions, equal to the point/hyperplane catalog."""
    _run([acceptance.check_grassmann_q2])


def test_quadric_completion_search_q3():
    """The q=3 elliptic-quadric completion search finds weight-65 degree-1
    solutions using exactly 2 of the 4 tangents through each quadric point."""
    _run([acceptance.check_bd_q3])


def test_quadric_restriction_is_nontrivial():
    """Each q=3 completion restricts to weight 45 on the lines disjoint
    from a passant and matches no catalog function there."""
    _run([acceptance.check_bd_restriction])


def test_bilinear_classifications_match_catalog():
    """H_2(2,2) and H_2(2,3) classifications equal the disjoint-union
    catalogs of line points and common-trace hyperplanes."""
    _run([acceptance.check_bilinear_conjecture])


def test_polar_classifications_vs_five_shape_catalog():
    """Rank-2 and rank-3 hyperbolic polar classifications against the
    five-shape catalog; the rank-3 half fails by mathematical necessity
    (see the module docstring)."""
    _run([acceptance.check_polar_base])


def test_polar_classifications_equal_disjoint_union_closure():
    """Both polar base classifications, and the searches on six more
    polar domains (with pinned counts), equal the disjoint-union closure
    of the general trivial generators (points, nondegenerate hyperplane
    sections, punctured cones)."""
    _run([acceptance.check_polar_conjecture_closure])


def test_divisibility_and_eigen_table():
    """Weight divisor 21 on J(10,4); valency/second-eigenvalue rows per
    family; neighbor-count condition on every classified solution where
    the divisor exists."""
    _run([acceptance.check_divisibility])


def test_restrictions_preserve_degree_one():
    """Coordinate-induced restrictions of J_2(4,2) catalog functions stay
    degree-1; polar/bilinear catalogs are degree-1 on their own domains."""
    _run([acceptance.check_transport])


def test_group_and_multislice_classifications():
    """M(2,2,1)'s classification holds its position-of-color forms."""
    _run([acceptance.check_multislice])


def test_multislice_sweep_through_n7():
    """All 37 histograms with n <= 7 and at least two parts: complete,
    equal to the catalog, no non-trivial function.  The 21 with n = 8
    run in `degone verify --suite multislice-sweep`."""
    _run([acceptance.check_multislice_sweep])


def test_lp_cut_system_roundtrip():
    """Cutting all classifier solutions makes the LP system infeasible;
    external assignments are accepted iff exactly degree-1."""
    _run([acceptance.check_lp_roundtrip])


def test_complement_closure_reduction_and_field_axioms():
    """Complement closure of every report, reduction contracts on the
    polar catalogs, exhaustive field axioms."""
    _run([acceptance.check_property_suites])

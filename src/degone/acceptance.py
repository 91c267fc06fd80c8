"""Named verification checks behind both `degone verify` and the test suite.

Each check returns a list of (name, passed, detail) items; a suite is a
named group of checks.  Everything is exact: set equalities of solution
bitvectors, integer equalities of weights and divisors.  Domains are
cached per process so consecutive checks share classification work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .boolfn import BoolFn
from .catalogs import PositionOfColor, catalog, catalog_bits, cliques
from .classify import (
    SearchConfig,
    _solve,
    bd_restriction_analysis,
    bruen_drudge_search,
    enumerate_all,
    is_degree_one,
    reduce_polar,
)
from .domains import (
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_multislice,
    build_polar,
    coordinate_column_bits,
    restrict,
    vertices_inside_bits,
)
from .forms import standard_polar
from .gf import field_spec
from .scheme import check_neighbor_condition, divisor_defined, eigen_params, weight_divisor
from .subspaces import enumerate_subspaces


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _r(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


@lru_cache(maxsize=None)
def _domain(tag: str):
    if tag == "J(4,2)":
        return build_johnson(4, 2)
    if tag == "J(5,2)":
        return build_johnson(5, 2)
    if tag == "H(3,2)":
        return build_hamming(3, 2)
    if tag == "H(2,3)":
        return build_hamming(2, 3)
    if tag == "J_2(4,2)":
        return build_grassmann(field_spec(2), 4, 2)
    if tag == "C_2(2,2,0)":
        return build_polar(standard_polar("O_plus", 2, field_spec(2)), 2)
    if tag == "C_2(3,2,0)":
        return build_polar(standard_polar("O_plus", 3, field_spec(2)), 2)
    if tag == "H_2(2,2)":
        return build_bilinear(field_spec(2), 2, 2)
    if tag == "H_2(2,3)":
        return build_bilinear(field_spec(2), 2, 3)
    if tag == "S4":
        return build_multislice((1, 1, 1, 1))
    if tag == "M(2,2,1)":
        return build_multislice((2, 2, 1))
    raise KeyError(tag)


@lru_cache(maxsize=None)
def _report(tag: str):
    return enumerate_all(_domain(tag))


@lru_cache(maxsize=None)
def _bd(q: int):
    return bruen_drudge_search(q)


# --- search completeness against brute force -----------------------------


def check_oracle_equivalence():
    out = []
    for tag in ("J(4,2)", "C_2(2,2,0)", "H(3,2)", "H(2,3)", "H_2(2,2)"):
        dom = _domain(tag)
        brute = {
            b for b in range(1 << dom.v) if is_degree_one(dom, BoolFn(dom, b))
        }
        got = _report(tag).solution_bits()
        out.append(
            _r(
                f"oracle-equivalence[{tag}]",
                got == brute,
                f"search {len(got)} vs brute {len(brute)} over 2^{dom.v}",
            )
        )
    return out


# --- single-coordinate classification on the multicube --------------------


def check_hamming_classification():
    out = []
    for tag in ("H(3,2)", "H(2,3)"):
        rep = _report(tag)
        ok = rep.solution_bits() == catalog_bits(_domain(tag))
        out.append(
            _r(
                f"hamming-single-coordinate[{tag}]",
                ok and rep.counts["nontrivial"] == 0,
                f"{rep.counts}",
            )
        )
    return out


# --- Johnson base cases ----------------------------------------------------


def check_johnson_base():
    out = []
    rep = _report("J(4,2)")
    out.append(
        _r(
            "johnson-base[J(4,2)]",
            rep.counts["total"] == 10
            and rep.counts["nontrivial"] == 0
            and rep.solution_bits() == catalog_bits(_domain("J(4,2)")),
            f"{rep.counts}",
        )
    )
    rep = _report("J(5,2)")
    out.append(
        _r(
            "johnson-base[J(5,2)]",
            rep.solution_bits() == catalog_bits(_domain("J(5,2)"))
            and rep.counts["nontrivial"] == 0,
            f"{rep.counts}",
        )
    )
    return out


# --- Grassmann q=2 base case -----------------------------------------------


def check_grassmann_q2():
    rep = _report("J_2(4,2)")
    ok = (
        rep.counts["nontrivial"] == 0
        and rep.solution_bits() == catalog_bits(_domain("J_2(4,2)"))
    )
    return [_r("grassmann-q2[J_2(4,2)]", ok, f"{rep.counts}")]


# --- the Bruen-Drudge family -----------------------------------------------


def check_bd_q3():
    bd = _bd(3)
    out = [_r("bd-q3[exists]", len(bd.solutions) >= 1, f"{len(bd.solutions)} solutions")]
    out.append(
        _r(
            "bd-q3[weights-65]",
            all(f.weight == 65 for f in bd.solutions),
            f"weights {sorted({f.weight for f in bd.solutions})}",
        )
    )
    out.append(
        _r(
            "bd-q3[degree-1]",
            all(is_degree_one(bd.domain, f) for f in bd.solutions),
        )
    )
    ok_split = all(
        set(bd.tangent_split(f).values()) == {2} for f in bd.solutions
    )
    out.append(_r("bd-q3[2-of-4-tangents]", ok_split))
    return out


def check_bd_restriction():
    bd = _bd(3)
    out = []
    for i, f in enumerate(bd.solutions):
        ana = bd_restriction_analysis(bd, f)
        out.append(
            _r(
                f"bd-restriction[solution-{i}]",
                ana["weight"] == 45 and not ana["trivial"],
                f"weight {ana['weight']}, trivial {ana['trivial']}",
            )
        )
    return out


# --- bilinear-forms conjecture verification --------------------------------


def check_bilinear_conjecture():
    out = []
    for tag in ("H_2(2,2)", "H_2(2,3)"):
        rep = _report(tag)
        ok = rep.solution_bits() == catalog_bits(_domain(tag))
        out.append(_r(f"bilinear-conjecture[{tag}]", ok, f"{rep.counts}"))
    return out


# --- polar base cases --------------------------------------------------------


def check_polar_base():
    out = []
    rep = _report("C_2(2,2,0)")
    out.append(
        _r(
            "polar-base[C_2(2,2,0)]",
            rep.solution_bits() == catalog_bits(_domain("C_2(2,2,0)")),
            f"{rep.counts}",
        )
    )
    rep = _report("C_2(3,2,0)")
    cat = catalog_bits(_domain("C_2(3,2,0)"))
    sols = rep.solution_bits()
    out.append(
        _r(
            "polar-base[C_2(3,2,0)]",
            sols == cat,
            f"search {len(sols)} vs five-shape catalog {len(cat)}; "
            f"extras are disjoint multi-hyperplane unions (n-k=1 boundary), "
            "see polar-conjecture-closure",
        )
    )
    return out


def _conjecture_closure_bits(dom) -> set[int]:
    """Disjoint-union closure of the general trivial generators on a
    polar domain: point indicators, nondegenerate hyperplane supports,
    and punctured cones (degenerate hyperplane minus its apex ball),
    plus complements.
    """
    spec = dom.polar
    cols = coordinate_column_bits(dom)
    terms = {c for c in cols if c}
    for pi in enumerate_subspaces(spec.field, spec.ambient_dim, spec.ambient_dim - 1):
        st = spec.hyperplane_section_type(pi)
        bits = vertices_inside_bits(dom, pi)
        if st.kind == "nondegenerate":
            if bits:
                terms.add(bits)
        else:
            apex_col = cols[dom.coord_index(st.apex)]
            if bits & ~apex_col:
                terms.add(bits & ~apex_col)
    terms = sorted(terms)
    disjoint = [sum(1 << j for j, u in enumerate(terms) if not t & u) for t in terms]
    walk = cliques(disjoint, (1 << len(terms)) - 1, terms)
    closure = {0} | {bits for _, bits in walk}
    mask = (1 << dom.v) - 1
    return closure | {mask ^ b for b in closure}


# polar domains beyond the base cases, as (form, rank, q, k), with their
# pinned solution counts.  They are judged by the search alone: the
# catalogs of Q(4,3) and H(3,4) exceed the coclique limit.  The lines of
# W(3,3) are left out: 2,160 of their 77,860 solutions lie outside the
# closure.
POLAR_CENSUS = {
    "W(3,2) lines": (("Sp", 2, 2, 2), 172),
    "Q-(5,2) lines": (("O_minus", 2, 2, 2), 5456),
    "Q+(5,2) planes": (("O_plus", 3, 2, 3), 632),
    "W(5,2) planes": (("Sp", 3, 2, 3), 51272),
    "Q(4,3) lines": (("O_odd", 2, 3, 2), 87976),
    "H(3,4) lines": (("U_even", 2, 4, 2), 64988),
}


def check_polar_conjecture_closure():
    out = []
    for tag in ("C_2(2,2,0)", "C_2(3,2,0)"):
        sols = _report(tag).solution_bits()
        closure = _conjecture_closure_bits(_domain(tag))
        out.append(
            _r(
                f"polar-conjecture-closure[{tag}]",
                sols == closure,
                f"{len(sols)} solutions == {len(closure)} disjoint unions "
                "of general trivial generators",
            )
        )
    for name, ((form, rank, q, k), count) in POLAR_CENSUS.items():
        dom = build_polar(standard_polar(form, rank, field_spec(q)), k)
        rows, _, complete = _solve(dom, SearchConfig(), None, None)
        sols = {int.from_bytes(row.tobytes(), "little") for row in rows}
        closure = _conjecture_closure_bits(dom)
        out.append(
            _r(
                f"polar-conjecture-closure[{name}]",
                complete and len(sols) == count and sols == closure,
                f"{len(sols)} solutions (pinned {count}) == {len(closure)} "
                "disjoint unions of general trivial generators",
            )
        )
    return out


# --- divisibility and the eigen table ----------------------------------------


def check_divisibility():
    out = []
    j104 = build_johnson(10, 4)
    out.append(
        _r(
            "divisibility[J(10,4)-divisor-21]",
            weight_divisor(j104) == 21,
            f"divisor {weight_divisor(j104)}",
        )
    )
    ep = eigen_params(j104)
    out.append(
        _r(
            "divisibility[J(10,4)-eigen]",
            ep.p01 == 24 and ep.p11 == 14 and ep.ratio == Fraction(1, 21),
            f"p01={ep.p01} p11={ep.p11} ratio={ep.ratio}",
        )
    )
    # table rows: H(n,m) has p01-p11 = m
    for n in (2, 3, 4):
        for m in (2, 3):
            dom = build_hamming(n, m)
            ep = eigen_params(dom)
            out.append(
                _r(
                    f"eigen-table[H({n},{m})]",
                    ep.p01 - ep.p11 == m,
                    f"p01-p11={ep.p01 - ep.p11}",
                )
            )
    # J(n,k) has p01-p11 = n
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (8, 3), (10, 5)):
        dom = build_johnson(n, k)
        ep = eigen_params(dom)
        out.append(
            _r(
                f"eigen-table[J({n},{k})]",
                ep.p01 - ep.p11 == n,
                f"p01-p11={ep.p01 - ep.p11}",
            )
        )
    # J_q(n,2) has p01-p11 = (q^n-1)/(q-1)
    for q, n in ((2, 4), (2, 5), (3, 4), (3, 5), (7, 4)):
        dom = build_grassmann(field_spec(q), n, 2)
        ep = eigen_params(dom)
        expect = (q**n - 1) // (q - 1)
        out.append(
            _r(
                f"eigen-table[J_{q}({n},2)]",
                ep.p01 - ep.p11 == expect,
                f"p01-p11={ep.p01 - ep.p11} expect {expect}",
            )
        )
    # dual polar row: q^(n-1+e) + 1 for C_2(2,2,0)
    dom = _domain("C_2(2,2,0)")
    ep = eigen_params(dom)
    out.append(
        _r(
            "eigen-table[C_2(2,2,0)]",
            ep.p01 - ep.p11 == 2**1 + 1,
            f"p01-p11={ep.p01 - ep.p11}",
        )
    )
    # bilinear row: q^(k+1)
    for q in (2, 3):
        dom = _domain("H_2(2,2)") if q == 2 else build_bilinear(field_spec(3), 2, 2)
        ep = eigen_params(dom)
        expect = q ** (dom.params["k"] + 1)
        out.append(
            _r(
                f"eigen-table[H_{q}(2,{dom.params['k']})]",
                ep.p01 - ep.p11 == expect,
                f"p01-p11={ep.p01 - ep.p11} expect {expect}",
            )
        )
    # neighbor condition on every classified acceptance domain where defined
    for tag in (
        "J(4,2)",
        "J(5,2)",
        "H(3,2)",
        "H(2,3)",
        "J_2(4,2)",
        "C_2(2,2,0)",
        "H_2(2,2)",
        "H_2(2,3)",
    ):
        dom = _domain(tag)
        if not divisor_defined(dom):
            continue
        bad = sum(
            1
            for b in _report(tag).solution_bits()
            if not check_neighbor_condition(dom, BoolFn(dom, b))
        )
        out.append(_r(f"neighbor-condition[{tag}]", bad == 0, f"{bad} failures"))
    return out


# --- degree preservation under coordinate-induced restriction


def check_transport():
    out = []
    parent = _domain("J_2(4,2)")
    spec = standard_polar("O_plus", 2, field_spec(2))
    iso = restrict(
        parent, lambda K: spec.is_totally_isotropic(K)
    )
    bil = _domain("H_2(2,2)")
    bil_keys = set(bil.vertex_keys)
    disj = restrict(parent, lambda K: K.key() in bil_keys)
    for name, r in (("polar-lines", iso), ("line-complement", disj)):
        bad = 0
        for e in catalog(parent):
            if not is_degree_one(r.child, r.transport(e.fn)):
                bad += 1
        out.append(
            _r(
                f"transport[J_2(4,2)->{name}]",
                bad == 0,
                f"{bad} of {len(catalog(parent))} restrictions left the space",
            )
        )
    for tag in ("C_2(2,2,0)", "C_2(3,2,0)", "H_2(2,2)", "H_2(2,3)"):
        dom = _domain(tag)
        bad = sum(
            1 for e in catalog(dom) if not is_degree_one(dom, e.fn)
        )
        out.append(_r(f"catalog-degree1[{tag}]", bad == 0, f"{bad} failures"))
    return out


# --- groups and multislices ---------------------------------------------------


def check_multislice():
    # the color with multiplicity 1 contributes position-of-color forms
    poc = PositionOfColor(2, frozenset({0, 1})).evaluate(_domain("M(2,2,1)"))
    ok = poc.bits in _report("M(2,2,1)").solution_bits()
    return [_r("multislice[M(2,2,1)-position-of-color]", ok)]


def histograms(n: int, top: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n into parts of at most ``top``, largest part first."""
    if n == 0:
        return [()]
    first = range(min(n, top or n), 0, -1)
    return [(p, *rest) for p in first for rest in histograms(n - p, p)]


def check_multislice_sweep(ns=range(2, 8), cfg=None):
    """Each histogram of each n in ``ns`` with two or more parts classifies
    completely, equals its catalog and has no non-trivial function."""
    out = []
    for parts in (h for n in ns for h in histograms(n)[1:]):
        dom = build_multislice(parts)
        rep = enumerate_all(dom, cfg)
        ok = rep.complete and rep.solution_bits() == catalog_bits(dom)
        detail = f"v={dom.v} dim={rep.dim} nodes={rep.stats['nodes']} {rep.counts}"
        name = f"multislice-sweep[M({','.join(map(str, parts))})]"
        out.append(_r(name, ok and rep.counts.get("nontrivial") == 0, detail))
    return out


def check_multislice_sweep_n8():
    # S_8 (dim 50) has more free pivots than an unbudgeted search may take
    return check_multislice_sweep([8], SearchConfig(time_budget=600.0))


# --- LP export round trip -------------------------------------------------------


def check_lp_roundtrip():
    from .lpexport import (
        cut_system_infeasible,
        expected_constraint_count,
        export_lp,
        verify_assignment,
    )

    out = []
    for tag in ("J(4,2)", "J_2(4,2)"):
        dom = _domain(tag)
        sols = [BoolFn(dom, b) for b in sorted(_report(tag).solution_bits())]
        text = export_lp(dom, known_solutions=sols)
        nconstr = sum(
            1
            for ln in text.splitlines()
            if ln.strip().startswith(("k", "cut"))
        )
        out.append(
            _r(
                f"lp-roundtrip[{tag}-counts]",
                nconstr == expected_constraint_count(dom, len(sols)),
                f"{nconstr} constraints",
            )
        )
        out.append(
            _r(
                f"lp-roundtrip[{tag}-infeasible-with-all-cuts]",
                cut_system_infeasible(dom, sols),
            )
        )
    dom = _domain("J(4,2)")
    good = catalog(dom)[2].fn
    text_good = "\n".join(
        f"f{i} 1" for i in range(dom.v) if good.value(i)
    )
    fn, ok = verify_assignment(dom, text_good)
    accept_good = ok and fn.bits == good.bits
    bad_bits = next(
        b
        for b in range(1, 1 << dom.v)
        if not is_degree_one(dom, BoolFn(dom, b))
    )
    text_bad = "\n".join(
        f"f{i} 1" for i in range(dom.v) if (bad_bits >> i) & 1
    )
    _, ok_bad = verify_assignment(dom, text_bad)
    out.append(
        _r(
            "lp-roundtrip[assignment-reader]",
            accept_good and not ok_bad,
            "accepts degree-1, rejects non-degree-1",
        )
    )
    return out


# --- property suites ------------------------------------------------------------


def check_property_suites():
    out = []
    # complement closure of every classification report
    for tag in (
        "J(4,2)",
        "J(5,2)",
        "H(3,2)",
        "H(2,3)",
        "J_2(4,2)",
        "C_2(2,2,0)",
        "C_2(3,2,0)",
        "H_2(2,2)",
        "H_2(2,3)",
        "S4",
        "M(2,2,1)",
    ):
        dom = _domain(tag)
        sols = _report(tag).solution_bits()
        mask = (1 << dom.v) - 1
        out.append(
            _r(
                f"complement-closure[{tag}]",
                all((mask ^ b) in sols for b in sols),
            )
        )
    # reduce fixed point and logging contracts on the polar catalogs
    for tag in ("C_2(2,2,0)", "C_2(3,2,0)"):
        dom = _domain(tag)
        spec = dom.polar
        targets = {0, (1 << dom.v) - 1}
        for pi in enumerate_subspaces(
            spec.field, spec.ambient_dim, spec.ambient_dim - 1
        ):
            b = vertices_inside_bits(dom, pi)
            targets.add(b)
            targets.add(b ^ ((1 << dom.v) - 1))
        bad = viol = relog = 0
        for e in catalog(dom):
            r = reduce_polar(dom, e.fn)
            if r.fn.bits not in targets:
                bad += 1
            if not r.degree1_ok:
                viol += 1
            r2 = reduce_polar(dom, r.fn)
            if r2.steps or r2.fn.bits != r.fn.bits:
                relog += 1
        out.append(
            _r(
                f"reduce-contract[{tag}]",
                bad == 0 and viol == 0 and relog == 0,
                f"bad={bad} degree1-violations={viol} non-fixed-points={relog}",
            )
        )
    out.extend(_field_axiom_checks())
    return out


def _field_axiom_checks():
    from .gf import SUPPORTED_ORDERS

    ok = True
    detail = []
    for q in SUPPORTED_ORDERS:
        f = field_spec(q)
        els = range(q)
        good = all(
            f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            for a in els
            for b in els
            for c in els
        )
        good &= all(f.mul(a, f.inv(a)) == 1 for a in range(1, q))
        # multiplicative group cyclic of order q-1
        good &= any(
            len({f.pow(g, e) for e in range(1, q)}) == q - 1
            for g in range(1, q)
        )
        # frobenius fixes exactly the prime subfield
        fixed = {a for a in els if f.frobenius(a, 1) == a}
        good &= fixed == set(range(f.p))
        ok &= good
        if not good:
            detail.append(f"GF({q})")
    return [_r("fields[axioms-q<=9]", ok, ",".join(detail))]


SUITES = {
    "oracle": [check_oracle_equivalence],
    "hamming": [check_hamming_classification],
    "johnson-base": [check_johnson_base],
    "grassmann-q2": [check_grassmann_q2],
    "bd": [check_bd_q3],
    "bd-restriction": [check_bd_restriction],
    "bilinear": [check_bilinear_conjecture],
    "polar-base": [check_polar_base],
    "polar-closure": [check_polar_conjecture_closure],
    "divisibility": [check_divisibility],
    "transport": [check_transport],
    "multislice": [check_multislice],
    "multislice-sweep": [check_multislice_sweep, check_multislice_sweep_n8],
    "lp": [check_lp_roundtrip],
    "properties": [check_property_suites],
}
SUITES["all"] = [fn for fns in SUITES.values() for fn in fns]


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    out = []
    for fn in SUITES[name]:
        out.extend(fn())
    return out

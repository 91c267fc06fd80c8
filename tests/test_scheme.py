import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from degone.boolfn import BoolFn
from degone.catalogs import catalog
from degone.classify import is_degree_one
from degone.domains import (
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_multislice,
    build_polar,
    coordinate_column_bits,
)
from degone.forms import standard_polar
from degone.gf import field_spec
from degone.scheme import (
    SchemeError,
    check_neighbor_condition,
    divisor_defined,
    eigen_params,
    weight_divisor,
)
from test_domains import DOMAINS, dense_adjacency


def test_johnson_10_4_parameters():
    dom = build_johnson(10, 4)
    ep = eigen_params(dom)
    assert ep.p01 == 24
    assert ep.p11 == 14
    assert ep.ratio == Fraction(1, 21)
    assert weight_divisor(dom) == 21


def test_grassmann_4_2_parameters():
    dom = build_grassmann(field_spec(2), 4, 2)
    ep = eigen_params(dom)
    assert ep.p01 - ep.p11 == (2**4 - 1) // (2 - 1) == 15
    assert ep.ratio == Fraction(15, 35) == Fraction(3, 7)
    assert weight_divisor(dom) == 7


def test_hamming_3_2_parameters():
    dom = build_hamming(3, 2)
    ep = eigen_params(dom)
    assert ep.p01 - ep.p11 == 2
    assert ep.ratio == Fraction(2, 8)
    assert weight_divisor(dom) == 4


def test_bilinear_parameters():
    for q in (2, 3):
        dom = build_bilinear(field_spec(q), 2, 2)
        ep = eigen_params(dom)
        assert ep.p01 - ep.p11 == q**3


def test_neighbor_condition_constant_zero():
    dom = build_johnson(4, 2)
    assert check_neighbor_condition(dom, BoolFn(dom, 0))
    assert check_neighbor_condition(dom, BoolFn.constant(dom, 1))


def test_neighbor_condition_on_grassmann_catalog():
    dom = build_grassmann(field_spec(2), 4, 2)
    for e in catalog(dom):
        assert check_neighbor_condition(dom, e.fn)


def test_neighbor_condition_rejects_some_non_degree1():
    dom = build_johnson(4, 2)
    rejected = 0
    for b in range(1, 1 << dom.v):
        f = BoolFn(dom, b)
        if not is_degree_one(dom, f) and not check_neighbor_condition(dom, f):
            rejected += 1
    assert rejected > 0


@pytest.mark.parametrize("other", [build_hamming(1, 6), build_hamming(1, 5)])
def test_neighbor_condition_refuses_a_function_on_another_domain(other):
    dom = build_johnson(4, 2)
    with pytest.raises(SchemeError, match="^function does not live on this domain$"):
        check_neighbor_condition(dom, BoolFn(other, 0b111))


def test_eigen_params_and_the_neighbor_test_hold_no_v_by_v_array():
    dom = build_johnson(14, 7)
    dictator = BoolFn(dom, coordinate_column_bits(dom)[0])
    tracemalloc.start()
    try:
        ep = eigen_params(dom)
        holds = check_neighbor_condition(dom, dictator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dom.v, ep.p01 - ep.p11, holds) == (3432, 14, True)
    assert peak < dom.v**2


def test_neighbor_condition_weight_divisibility_gate():
    dom = build_johnson(4, 2)  # ratio 4/6 = 2/3, so weights divisible by 3
    assert weight_divisor(dom) == 3
    weight_one = BoolFn(dom, 0b00001)
    assert not check_neighbor_condition(dom, weight_one)


def test_multislice_exempt():
    dom = build_multislice([2, 2, 1])
    assert not divisor_defined(dom)
    with pytest.raises(SchemeError, match="multislice"):
        eigen_params(dom)


def test_polar_k_lt_n_has_no_divisor():
    dom = build_polar(standard_polar("O_plus", 3, field_spec(2)), 2)
    assert not divisor_defined(dom)
    with pytest.raises(SchemeError):
        eigen_params(dom)


def test_dual_polar_divisor_defined():
    dom = build_polar(standard_polar("O_plus", 2, field_spec(2)), 2)
    assert divisor_defined(dom)
    ep = eigen_params(dom)
    assert ep.p01 - ep.p11 == 2**1 + 1


def _reference_eigen_params(dom):
    """One adjacency product per coordinate column: the loop the single
    product replaced.  The first column leaving span{1, x} raises."""
    adj = dense_adjacency(dom)
    alphas, betas = [], []
    for j in range(dom.c):
        x = dom.incidence[:, 1 + j].astype(np.int64)
        y = adj @ x
        if x.min() == x.max():
            alphas.append(None)
            continue
        alpha = int(y[np.flatnonzero(x == 0)[0]])
        beta = int(y[np.flatnonzero(x)[0]]) - alpha
        if not np.array_equal(y, alpha + beta * x):
            raise SchemeError(
                f"coordinate {dom.coord_keys[j]}: span not adjacency-invariant"
            )
        alphas.append(alpha)
        betas.append(beta)
    assert len(set(betas)) == 1
    p11 = betas[0]
    const = [dom.valency - p11 if dom.incidence[0, 1 + j] else 0 for j in range(dom.c)]
    alphas = tuple(const[j] if a is None else a for j, a in enumerate(alphas))
    return dom.v, dom.valency, p11, Fraction(dom.valency - p11, dom.v), alphas


@pytest.mark.parametrize("tag", sorted(DOMAINS))
def test_eigen_params_match_per_coordinate_products(tag):
    dom = DOMAINS[tag]()
    if dom.family == "multislice":
        with pytest.raises(SchemeError, match="multislice"):
            eigen_params(dom)
        return
    try:
        want = _reference_eigen_params(dom)
    except SchemeError as err:
        assert not divisor_defined(dom)
        with pytest.raises(SchemeError, match=re.escape(str(err))):
            eigen_params(dom)
        return
    ep = eigen_params(dom)
    assert (ep.v, ep.p01, ep.p11, ep.ratio, ep.alphas) == want

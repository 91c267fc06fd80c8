"""Two-eigenvalue structure of the coordinate span, and what follows.

For every in-scope family except the multislice, the adjacency operator
maps each coordinate indicator x into span{1, x} with one shared
eigenvalue: A.x = alpha.1 + p11.x.  That single exact solve yields the
valency/second-eigenvalue pair, the weight divisibility constant, and
the neighbor-count test for candidate functions.  Both read A from row
blocks (``Domain.neighbor_counts``): exact, with no v x v array.

Multislice domains (including the symmetric group) are exempt: their
coordinate indicators do not span constants-plus-one-eigenspace in the
scheme sense, so no divisibility constant is defined for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import BoolFn
from .domains import Domain


class SchemeError(ValueError):
    """Domain outside the two-eigenvalue regime, or structural mismatch."""


@dataclass(frozen=True)
class EigenParams:
    v: int
    p01: int
    p11: int
    ratio: Fraction  # (p01 - p11) / v, in lowest terms
    alphas: tuple[int, ...] = ()  # per coordinate: A.x = alpha.1 + p11.x


def divisor_defined(domain: Domain) -> bool:
    """Families whose coordinates span constants plus one eigenspace.

    Polar domains qualify only at k = n (dual polar graphs); for k < n
    the point indicators span three eigenspaces and no single weight
    divisor follows.  Multislices and irregular restriction children are
    out as well.
    """
    fam = domain.family
    if fam in ("hamming", "johnson", "grassmann", "bilinear"):
        return True
    if fam == "polar":
        return domain.params["k"] == domain.params["n"]
    return False


def eigen_params(domain: Domain) -> EigenParams:
    got = domain._cache.get("eigen")
    if got is None:
        got = _compute_eigen_params(domain)
        domain._cache["eigen"] = got
    return got


def _compute_eigen_params(domain: Domain) -> EigenParams:
    if domain.family == "multislice":
        raise SchemeError(
            "multislice coordinates span more than two eigenspaces; "
            "eigen parameters are not defined"
        )
    if domain.valency is None:
        raise SchemeError("domain is not regular")
    x = domain.incidence[:, 1:]
    y = domain.neighbor_counts(np.nonzero(x)[1].reshape(domain.v, -1), domain.c)
    cols = np.arange(domain.c)
    ones = x.sum(axis=0)
    varies = (ones > 0) & (ones < domain.v)
    # A.x at the first 0 and the first 1 of each column give alpha, beta
    alpha = y[x.argmin(axis=0), cols]
    beta = y[x.argmax(axis=0), cols] - alpha
    broken = varies & (y != alpha + beta * x).any(axis=0)
    if broken.any():
        j = int(np.argmax(broken))
        raise SchemeError(
            f"coordinate {domain.coord_keys[j]}: span not adjacency-invariant"
        )
    if not varies.any():
        raise SchemeError("no nonconstant coordinate to extract p11 from")
    betas = sorted(set(beta[varies].tolist()))
    if len(betas) != 1:
        raise SchemeError(f"coordinates disagree on p11: {betas}")
    p11 = betas[0]
    # a constant column stays in span{1} for any p11
    alphas = np.where(varies, alpha, np.where(ones > 0, domain.valency - p11, 0))
    return EigenParams(
        domain.v,
        domain.valency,
        p11,
        Fraction(domain.valency - p11, domain.v),
        tuple(alphas.tolist()),
    )


def weight_divisor(domain: Domain) -> int:
    """Least D such that every degree-1 function has weight divisible by D."""
    return eigen_params(domain).ratio.denominator


def check_neighbor_condition(domain: Domain, f: BoolFn) -> bool:
    """Every vertex with f(x)=0 sees exactly |f|*(p01-p11)/v ones.

    Necessary for membership of the degree-1 space; the weight
    divisibility is the integrality part of the same statement.
    """
    if not domain.compatible(f.domain):
        raise SchemeError("function does not live on this domain")
    ep = eigen_params(domain)
    target = f.weight * ep.ratio
    if target.denominator != 1:
        return False
    values = np.array(f.values(), dtype=np.int64)
    counts = domain.neighbor_counts(values[:, None], 2)[:, 1]
    return bool((counts[values == 0] == int(target)).all())

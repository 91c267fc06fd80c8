"""The dense modular elimination that ``classify.certified_rref`` replaced,
kept as the differential reference for it: the row-reduction of every
column of A mod p, the per-row lcm reconstruction, and the certificate
as a dense integer product ``A[:, pivots] @ D.T`` (verbatim but for
reading the primes and the width bound from ``classify`` at call
time, so that tests that patch them patch this path too)."""

from __future__ import annotations

from math import lcm

import numpy as np

import degone.classify as classify
from degone.classify import CertificateError, _int_dtype, _ratrecon


def rref_mod(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Leftmost-pivot RREF of the integer matrix ``a`` modulo ``p``:
    the pivot columns and the nonzero rows, residues in [0, p)."""
    m = a % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), p - 2, p) % p
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(m[hit, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots, m[:r]


def reconstruct(residues: np.ndarray, modulus: int):
    """Integer rows D and scales from the residues of R[:, nonpivots],
    one reconstruction per distinct residue; None if one fails."""
    values, inverse = np.unique(residues, return_inverse=True)
    inverse = inverse.reshape(residues.shape).T  # nonpivots x rank
    fracs = [_ratrecon(int(u), modulus) for u in values.tolist()]
    if any(f is None for f in fracs):
        return None
    nums = [f[0] for f in fracs]
    dens = [f[1] for f in fracs]
    scale = [lcm(*{dens[k] for k in row}) for row in inverse.tolist()]
    width = max(scale, default=1) * max(map(abs, nums), default=0)
    dtype = _int_dtype(width)
    num = np.array(nums, dtype=dtype)[inverse]
    den = np.array(dens, dtype=dtype)[inverse]
    scale = np.array(scale, dtype=dtype)
    return num * (scale[:, None] // den), scale


def certify(a: np.ndarray, pivots, nonpivots, dep, scale) -> bool:
    """Exact check that column y of ``a`` is (dep[y] / scale[y]) times the
    pivot columns left of y, for every non-pivot y."""
    left = np.asarray(pivots)[None, :] < np.asarray(nonpivots)[:, None]
    if dep[~left].any():
        return False
    amax = int(np.abs(a).max(initial=0))
    dmax = int(np.abs(dep).max(initial=0))
    smax = int(scale.max(initial=0))
    dtype = _int_dtype(amax * max(len(pivots) * dmax, smax))
    a = a.astype(dtype, copy=False)
    lhs = a[:, pivots] @ dep.astype(dtype, copy=False).T
    return bool((lhs == a[:, nonpivots] * scale.astype(dtype, copy=False)).all())


def certified_rref(a: np.ndarray):
    """Pivot columns, non-pivot columns, integer dependency rows and
    scales of the leftmost-pivot RREF of the int64 matrix ``a`` over Q."""
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    best = None  # (pivots, residues, modulus)
    for p in classify.PRIMES:
        pivots, red = rref_mod(a, p)
        # the column count pads the shorter profile: a lost pivot is worse
        if best is None or pivots + [ncols] < best[0] + [ncols]:
            # a smaller leftmost profile means every earlier prime was
            # unlucky (it divided a minor of A): start over from this one
            best = (pivots, red, p)
        elif pivots == best[0]:
            prev, modulus = best[1], best[2]
            t = (red.astype(object) - prev) * pow(modulus, -1, p) % p
            best = (pivots, prev + modulus * t, modulus * p)
        else:
            continue
        pivots, red, modulus = best
        pivset = set(pivots)
        nonpivots = [y for y in range(ncols) if y not in pivset]
        got = reconstruct(red[:, nonpivots], modulus)
        if got is not None and certify(a, pivots, nonpivots, *got):
            return pivots, nonpivots, got[0], got[1]
    raise CertificateError(
        f"elimination of a {a.shape[0]}x{a.shape[1]} matrix not certified "
        f"with {len(classify.PRIMES)} primes"
    )

"""Subspaces of GF(q)^n: canonical form, enumeration, lattice operations.

A subspace is represented by its RREF basis matrix over GF(q); that
matrix is *the* canonical form, equality key, and sort key.  Enumeration
generates RREF matrices directly by pivot pattern, so it never needs to
deduplicate row spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .gf import FieldSpec, field_spec


class GeometryError(ValueError):
    """Invalid geometric operation (ambient mismatch, bad dimensions)."""


def gaussian(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient: number of k-spaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


# --- row operations over GF(q) on lists of int tuples ---


def rref_gf(field: FieldSpec, rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """RREF over GF(q); returns (nonzero rows, pivot columns)."""
    a = [list(r) for r in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
        if r == len(a):
            break
    return [tuple(row) for row in a[:r]], piv


def kernel_gf(field: FieldSpec, rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0} for the matrix M with the given rows."""
    red, piv = rref_gf(field, rows)
    free = [j for j in range(ncols) if j not in set(piv)]
    out = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for i, c in enumerate(piv):
            x[c] = field.neg(red[i][f])
        out.append(tuple(x))
    return out


def reduce_against(field: FieldSpec, rref_rows, piv, vec):
    """Eliminate the pivot coordinates of ``vec`` against an RREF basis."""
    v = list(vec)
    for row, c in zip(rref_rows, piv):
        if v[c] != 0:
            f = v[c]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return tuple(v)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^n, stored as its RREF basis (rows)."""

    q: int
    n: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def field(self) -> FieldSpec:
        return field_spec(self.q)

    @staticmethod
    def from_vectors(field: FieldSpec, n: int, vectors) -> "Subspace":
        rows, _ = rref_gf(field, [tuple(v) for v in vectors])
        return Subspace(field.q, n, tuple(rows))

    @staticmethod
    def zero(field: FieldSpec, n: int) -> "Subspace":
        return Subspace(field.q, n, ())

    @staticmethod
    def full(field: FieldSpec, n: int) -> "Subspace":
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return Subspace(field.q, n, rows)

    def pivots(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x) for row in self.basis]

    def key(self) -> str:
        return self._key

    @cached_property  # catalog JSON quotes one subspace in many descriptors
    def _key(self) -> str:
        digits = "".join(str(x) for row in self.basis for x in row)
        return f"{self.q}:{self.n}:{self.dim}:{digits}"

    def _combine(self, coeff_rows):
        """The combinations sum(c_i * basis_i), one per coefficient tuple."""
        field = self.field
        for coeffs in coeff_rows:
            v = [0] * self.n
            for c, row in zip(coeffs, self.basis):
                if c:
                    for j, x in enumerate(row):
                        if x:
                            v[j] = field.add(v[j], field.mul(c, x))
            yield tuple(v)

    def vectors(self):
        """All q**dim vectors of the subspace (including zero)."""
        return self._combine(itertools.product(range(self.q), repeat=self.dim))

    def points(self) -> list["Subspace"]:
        """The 1-subspaces, canonically sorted.  A combination of the RREF
        rows leads with its first nonzero coefficient, so the combinations
        led by 1 are the points' RREF rows, each point once."""
        d = self.dim
        coeffs = (
            (0,) * i + (1,) + rest
            for i in range(d)
            for rest in itertools.product(range(self.q), repeat=d - i - 1)
        )
        out = [Subspace(self.q, self.n, (v,)) for v in self._combine(coeffs)]
        out.sort(key=lambda s: s.basis)
        return out

    def contains_vector(self, vec) -> bool:
        red = reduce_against(self.field, self.basis, self.pivots(), vec)
        return not any(red)


def _check_ambient(a: Subspace, b: Subspace):
    if a.q != b.q or a.n != b.n:
        raise GeometryError(
            f"ambient mismatch: GF({a.q})^{a.n} vs GF({b.q})^{b.n}"
        )


def span(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace.from_vectors(a.field, a.n, a.basis + b.basis)


def span_dim(a: Subspace, b: Subspace) -> int:
    _check_ambient(a, b)
    rows, _ = rref_gf(a.field, a.basis + b.basis)
    return len(rows)


@lru_cache(maxsize=1 << 18)
def _meet_cached(a: Subspace, b: Subspace) -> Subspace:
    field = a.field
    ca = kernel_gf(field, a.basis, a.n)
    cb = kernel_gf(field, b.basis, b.n)
    rows = kernel_gf(field, ca + cb, a.n)
    return Subspace.from_vectors(field, a.n, rows)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Lattice meet, via orthogonal complements w.r.t. the standard dot."""
    _check_ambient(a, b)
    if b.basis < a.basis:
        a, b = b, a
    return _meet_cached(a, b)


def contains(a: Subspace, b: Subspace) -> bool:
    """Is b a subspace of a?"""
    _check_ambient(a, b)
    piv = a.pivots()
    return all(
        not any(reduce_against(a.field, a.basis, piv, row)) for row in b.basis
    )


def enumerate_subspaces(field: FieldSpec, n: int, k: int) -> list[Subspace]:
    """All k-spaces of GF(q)^n in canonical (key-sorted) order."""
    if k < 0 or k > n:
        raise GeometryError(f"need 0 <= k <= n, got k={k}, n={n}")
    q = field.q
    out = []
    for piv in itertools.combinations(range(n), k):
        pivset = set(piv)
        # free cells: right of the row's pivot, not in a pivot column
        free = [
            (i, c)
            for i in range(k)
            for c in range(piv[i] + 1, n)
            if c not in pivset
        ]
        for vals in itertools.product(range(q), repeat=len(free)):
            mat = [[0] * n for _ in range(k)]
            for i, c in enumerate(piv):
                mat[i][c] = 1
            for (i, c), v in zip(free, vals):
                mat[i][c] = v
            out.append(Subspace(q, n, tuple(tuple(r) for r in mat)))
    out.sort(key=lambda s: s.basis)
    assert len(out) == gaussian(n, k, q)
    return out


@lru_cache(maxsize=None)
def all_points(q: int, n: int) -> tuple[Subspace, ...]:
    return tuple(enumerate_subspaces(field_spec(q), n, 1))


@dataclass(frozen=True)
class QuotientMap:
    """The quotient GF(q)^n -> GF(q)^(n-m) modulo a fixed subspace.

    The complement is spanned by the standard basis vectors at the
    non-pivot columns of the modulus RREF; coordinates of the image are
    read off at those columns after eliminating the pivot columns.
    """

    modulus: Subspace

    @property
    def field(self) -> FieldSpec:
        return self.modulus.field

    @property
    def target_dim(self) -> int:
        return self.modulus.n - self.modulus.dim

    def _nonpivots(self) -> list[int]:
        pivset = set(self.modulus.pivots())
        return [c for c in range(self.modulus.n) if c not in pivset]

    def apply_vector(self, vec) -> tuple[int, ...]:
        red = reduce_against(
            self.field, self.modulus.basis, self.modulus.pivots(), vec
        )
        return tuple(red[c] for c in self._nonpivots())

    def apply(self, s: Subspace) -> Subspace:
        if s.q != self.modulus.q or s.n != self.modulus.n:
            raise GeometryError("ambient mismatch in quotient")
        imgs = [self.apply_vector(row) for row in s.basis]
        return Subspace.from_vectors(self.field, self.target_dim, imgs)

    def lift_vector(self, vec) -> tuple[int, ...]:
        """A preimage of ``vec``: zero at the modulus pivot columns."""
        out = [0] * self.modulus.n
        for c, x in zip(self._nonpivots(), vec):
            out[c] = x
        return tuple(out)

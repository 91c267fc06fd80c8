"""Exact linear algebra over the rationals.

Everything here runs on arbitrary-precision ``fractions.Fraction``
values; there is no floating point anywhere.  Elimination is
deterministic: the pivot is always the first nonzero entry in the
leftmost unresolved column, so pivot rows/columns are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


Rational = Fraction


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix; entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "RatMatrix":
        rows = [tuple(Fraction(x) for x in r) for r in rows]
        if not rows:
            return RatMatrix(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return RatMatrix(len(rows), ncols, tuple(x for r in rows for x in r))

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix.from_rows(
            [[self.at(i, j) for i in range(self.rows)] for j in range(self.cols)]
        )

    def stack_row(self, v: Sequence) -> "RatMatrix":
        if len(v) != self.cols:
            raise DimensionError(f"row length {len(v)} != cols {self.cols}")
        return RatMatrix(
            self.rows + 1, self.cols, self.entries + tuple(Fraction(x) for x in v)
        )


@dataclass(frozen=True)
class RrefResult:
    rref: RatMatrix
    rank: int
    pivot_cols: tuple[int, ...]
    pivot_rows: tuple[int, ...]


def rref(m: RatMatrix) -> RrefResult:
    """Reduced row-echelon form with deterministic leftmost pivoting.

    ``pivot_rows[i]`` is the original row index whose leading entry ended
    up as the i-th pivot (tracked through swaps).
    """
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    origin = list(range(nrows))
    pivot_cols: list[int] = []
    pivot_rows: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            origin[r], origin[pr] = origin[pr], origin[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        pivot_rows.append(origin[r])
        r += 1
        if r == nrows:
            break
    return RrefResult(
        RatMatrix.from_rows(a), r, tuple(pivot_cols), tuple(pivot_rows)
    )


def rank(m: RatMatrix) -> int:
    return rref(m).rank


def in_span(basis: RatMatrix, v: Sequence) -> bool:
    """Is the row vector v in the row space of ``basis``?  Exact."""
    if len(v) != basis.cols:
        raise DimensionError(f"vector length {len(v)} != cols {basis.cols}")
    base = rref(basis)
    return rref(base.rref.stack_row(v)).rank == base.rank


def kernel_from_rref(res: RrefResult, n: int) -> RatMatrix:
    """Nullspace basis {x : A x = 0} from the RREF of A with n columns.

    One row per free variable, following the standard convention: the
    free variable is set to 1 and the pivot variables carry the negated
    RREF entries.
    """
    piv = res.pivot_cols
    free = [j for j in range(n) if j not in set(piv)]
    rows = []
    for f in free:
        w = [Fraction(0)] * n
        w[f] = Fraction(1)
        for i, c in enumerate(piv):
            w[c] = -res.rref.at(i, f)
        rows.append(w)
    return RatMatrix.from_rows(rows) if rows else RatMatrix(0, n, ())


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Basis of the orthogonal complement of the column space of m.

    Returns rows w with w . col = 0 for every column of m, so a vector f
    lies in the column span of m iff every returned row has zero inner
    product with f.  Deterministic via the RREF of the transpose.
    """
    return kernel_from_rref(rref(m.transpose()), m.rows)


def scale_to_int(row: Sequence[Fraction]) -> list[int]:
    """Clear denominators: the row times the lcm of its denominators."""
    mult = lcm(*(x.denominator for x in row)) if row else 1
    return [int(x * mult) for x in row]

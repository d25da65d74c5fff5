"""Exact rational linear algebra on top of fractions.Fraction.

Everything in this module is deterministic and allocation-light: matrices are
immutable tuples of tuples of Fractions, elimination is fraction-free where
intermediate growth matters (rank), plain rational RREF where we need the
reduced system itself (kernels, solving).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce ints, Fractions and literal strings to an exact Fraction.

    Strings may be integers ("7"), ratios ("5/4") or decimal literals
    ("1.25", "-3e-2"); decimal literals parse exactly, never through float.
    Floats are rejected: silent binary round-off is exactly what this module
    exists to avoid.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot coerce {type(x).__name__} to Rational; pass a string for exactness")


def rat_str(x: Fraction) -> str:
    """Canonical string form, "p/q" or "p"."""
    return str(Fraction(x))


def vec(entries: Iterable) -> Vector:
    return tuple(rat(e) for e in entries)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of Fractions. At least 1x1, never ragged."""

    rows: tuple[Vector, ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.rows[0])
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(vec(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.rows)))

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        vv = vec(v)
        return tuple(sum(a * b for a, b in zip(r, vv)) for r in self.rows)

    def rmatvec(self, u: Sequence) -> Vector:
        """Transpose-apply: returns M'u without materializing the transpose."""
        if len(u) != self.nrows:
            raise ValueError("dimension mismatch")
        uu = vec(u)
        return tuple(
            sum(self.rows[i][j] * uu[i] for i in range(self.nrows)) for j in range(self.ncols)
        )

    def to_float_array(self):
        import numpy as np

        return np.array([[float(x) for x in r] for r in self.rows], dtype=float)

    def to_json_rows(self) -> list[list[str]]:
        return [[rat_str(x) for x in r] for r in self.rows]


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def clear_denominators(vectors: Iterable[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, the vectors times d) for d the least common denominator of all
    their entries (ints count as denominator 1; d = 1 for no entries). One
    positive scale for the whole list is the one way this package turns
    rationals into integers: every sign, ratio and row space survives it."""
    vectors = tuple(vectors)
    d = math.lcm(*(x.denominator for v in vectors for x in v))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in v) for v in vectors)


def rank(M: RationalMatrix) -> int:
    """Exact rank by Bareiss fraction-free elimination on M times its
    common denominator; the interior division is exact, so growth stays
    polynomial in the entry size instead of doubling per step."""
    A = [list(r) for r in clear_denominators(M.rows)[1]]
    m, n = len(A), len(A[0])
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                A[i][j] = (A[r][c] * A[i][j] - A[i][c] * A[r][j]) // prev
            A[i][c] = 0
        prev = A[r][c]
        r += 1
    return r


def rref(M: RationalMatrix) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form over Fractions.

    Returns (rows, pivot_columns). Pivot choice is the first nonzero entry in
    column order, so the result is deterministic.
    """
    A = [list(r) for r in M.rows]
    m, n = len(A), len(A[0])
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = A[r][c]
        A[r] = [x / inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in A), tuple(pivots)


def kernel_basis(M: RationalMatrix) -> tuple[Vector, ...]:
    """Deterministic basis of ker(M): one vector per free column of the RREF,
    with a 1 in the free coordinate."""
    R, pivots = rref(M)
    n = M.ncols
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve_exact(M: RationalMatrix, b: Sequence) -> Vector | None:
    """One exact solution of M x = b (free variables set to 0), or None if the
    system is inconsistent."""
    bb = vec(b)
    if len(bb) != M.nrows:
        raise ValueError("dimension mismatch")
    aug = RationalMatrix(tuple(r + (bi,) for r, bi in zip(M.rows, bb)))
    R, pivots = rref(aug)
    n = M.ncols
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = R[i][n]
    return tuple(x)


def rowspace_preimage(M: RationalMatrix, v: Sequence) -> Vector | None:
    """z with M'z = v, or None when v is outside row(M)."""
    return solve_exact(M.transpose(), v)


# ---------------------------------------------------------------------------
# text formats


def parse_rational(token: str) -> Fraction:
    try:
        return rat(token)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational literal {token!r}: {e}") from None


def parse_matrix_csv(text: str) -> RationalMatrix:
    rows = []
    for record in csv.reader(io.StringIO(text)):
        cells = [c for c in (cell.strip() for cell in record) if c]
        if cells:
            rows.append([parse_rational(c) for c in cells])
    if not rows:
        raise ValueError("empty matrix")
    return RationalMatrix.from_rows(rows)


def parse_matrix_json(obj) -> RationalMatrix:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, list):
        raise ValueError("JSON matrix must be an array of arrays")
    rows = []
    for i, r in enumerate(obj, 1):
        if not isinstance(r, list):
            raise ValueError("JSON matrix must be an array of arrays")
        cells = []
        for j, c in enumerate(r, 1):
            if isinstance(c, float):
                raise ValueError(
                    "float entries are not exact; encode rationals as strings like \"5/4\" or \"1.25\""
                )
            if isinstance(c, bool) or not isinstance(c, (int, str, Fraction)):
                raise ValueError(f"matrix entry {json.dumps(c, default=repr)} at row {i}, column {j} "
                                 "is not a rational; use an integer or a string like \"5/4\"")
            cells.append(parse_rational(c) if isinstance(c, str) else rat(c))
        rows.append(cells)
    return RationalMatrix.from_rows(rows)


def load_matrix(path: str) -> RationalMatrix:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return parse_matrix_json(json.loads(text))
    return parse_matrix_csv(text)

"""Exact rational linear algebra: Fractions outside, integers inside.

Matrices are immutable tuples of tuples of Fractions, and every result is a
normalized Fraction. The work underneath is in integers. One fraction-free
Gauss-Jordan loop (Bareiss 1968) on rows cleared of their denominators gives
the reduced row echelon form, and from it the rank, the pivots, the kernel
(integer vectors over one scale, of which kernel_basis is the Fraction view)
and the solutions of linear systems; each row is scaled by a positive
factor, so the pivots and the reduced form are those of the rational matrix.
Matrix products run against one integer form of the matrix over a common
denominator, memoized on the instance, and form one Fraction per entry.
Linear systems go through a solve map, also memoized on the instance, one
for M x = b and one for M'z = v: the same loop runs once on the integer form
beside a multiple of the identity, pivoting in the matrix's own columns, and
records the row operations, so each right-hand side then costs integer dot
products, with the solution (free variables at 0) and the None of
eliminating that system on its own. A reader with an integer right-hand
side gets the solution as integers over one positive denominator
(_SolveMap.integer_solve); solve_exact and rowspace_preimage are its
Fraction front end, one Fraction per entry.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce ints, Fractions and literal strings to an exact Fraction.

    Strings may be integers ("7"), ratios ("5/4") or decimal literals
    ("1.25", "-3e-2"); decimal literals parse exactly, never through float.
    Floats are rejected: silent binary round-off is exactly what this module
    exists to avoid. A literal is refused before it is built when a side of
    its "/", or its mantissa's length plus its exponent's magnitude, exceeds
    sys.get_int_max_str_digits() (none when 0), lengths without a sign: the
    value's numerator and denominator have no more digits than that, a
    point counting for the zero it may stand for (".1e-5"), so they print.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        limit = sys.get_int_max_str_digits()  # a string test: a short plain literal passes at once
        if limit and (len(s) > limit or "e" in s or "E" in s):
            mantissa, _, exponent = s.replace("E", "e").partition("e")
            exponent = exponent.replace("_", "").lstrip("+-").lstrip("0")
            size = len(mantissa.lstrip("+-"))
            if exponent.isdecimal() and (len(exponent) > len(str(limit))
                                         or size + int(exponent) > limit):
                raise ValueError(f"mantissa length plus exponent beyond {limit}")
            if any(len(part.lstrip("+-")) > limit for part in mantissa.split("/")):
                raise ValueError(f"more than {limit} digits")
        return Fraction(s)
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

    @functools.cached_property
    def _integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        # (d, the rows times d, the columns times d) for d the least common
        # denominator of every entry, built once per matrix
        d, rows = clear_denominators(self.rows)
        return d, rows, tuple(zip(*rows))

    @functools.cached_property
    def _integer_gram(self) -> tuple[tuple[int, ...], ...]:
        # R'R for the integer form M = R / d, so M'M = R'R / d^2 (the exact
        # polish of a FISTA iterate reads it, once per matrix)
        cols = self._integer_form[2]
        return tuple(tuple(sum(map(operator.mul, a, b)) for b in cols) for a in cols)

    @functools.cached_property
    def _solve_map(self) -> _SolveMap:
        # the solve map of M x = b, one elimination per matrix (solve_exact)
        d, rows, _ = self._integer_form
        return _solve_map_of(rows, d)

    @functools.cached_property
    def _preimage_map(self) -> _SolveMap:
        # the solve map of M' z = v (rowspace_preimage)
        d, _, cols = self._integer_form
        return _solve_map_of(cols, d)

    def matvec(self, v: Sequence) -> Vector:
        """Mv in integer dot products against the rows times their common
        denominator, with one Fraction per entry."""
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        d, rows, _ = self._integer_form
        e, (vv,) = clear_denominators((vec(v),))
        return tuple(Fraction(sum(map(operator.mul, r, vv)), d * e) for r in rows)

    def rmatvec(self, u: Sequence) -> Vector:
        """Transpose-apply: returns M'u without materializing the transpose,
        in integer dot products as in matvec."""
        den, sums = self._integer_rmatvec(u)
        return tuple(Fraction(x, den) for x in sums)

    def _integer_rmatvec(self, u: Sequence) -> tuple[int, tuple[int, ...]]:
        # (D, S) with M'u = S / D and D > 0: the integer dot products that
        # rmatvec divides, for a reader that only compares M'u
        if len(u) != self.nrows:
            raise ValueError("dimension mismatch")
        d, _, cols = self._integer_form
        e, (uu,) = clear_denominators((vec(u),))
        return d * e, tuple(sum(map(operator.mul, c, uu)) for c in cols)

    def to_float_array(self):
        import numpy as np

        return np.array([[float(x) for x in r] for r in self.rows], dtype=float)


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
    d = math.lcm(*[x.denominator for v in vectors for x in v])
    if d == 1:
        return 1, tuple(tuple([x.numerator for x in v]) for v in vectors)
    return d, tuple(tuple([x.numerator * (d // x.denominator) for x in v]) for v in vectors)


def _eliminate(rows: Sequence[Sequence], ncols: int | None = None
               ) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination: (A, pivots, d),
    pivoting in the first ncols columns only (all of them by default).

    Each row is cleared of its denominators on its own, which scales it by a
    positive factor and so moves neither the pivots nor the reduced form.
    The pivot is the first nonzero entry in column order. Every other row,
    above and below, becomes (pivot * row - entry * pivot row) // d for d
    the previous pivot, a division that is exact because each entry is then
    a minor of the integer matrix, so sizes grow polynomially. When the loop
    ends, the pivot rows come first, each with d at its own pivot, and the
    other rows are zero in the pivoted columns: A / d is the reduced row
    echelon form there, and the columns beyond ncols carry the same row
    operations.
    """
    A = [list(clear_denominators((r,))[1][0]) for r in rows]
    m, n = len(A), len(A[0]) if ncols is None else ncols
    pivots = []
    d = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        top = A[r]
        t = top[c]
        for i, row in enumerate(A):
            if i != r:
                f = row[c]
                A[i] = [(t * x - f * y) // d for x, y in zip(row, top)]
        d = t
        pivots.append(c)
    return A, tuple(pivots), d


def rank(M: RationalMatrix) -> int:
    """Exact rank: the number of pivots of the fraction-free elimination."""
    return len(_eliminate(M.rows)[1])


def _integer_kernel(rows: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, kernel_basis of the rows times scale), scale its least common
    denominator, in integers: the vector of free column f, 1 at f and
    -A[i][f] / d at pivot i, times |d| (the last pivot d is -1 for
    [[-1, 1]]), all divided by g, the gcd of |d| and every entry, so the
    scale |d| / g is the lcm of the denominators |d| / gcd(|d|, x)."""
    A, pivots, d = _eliminate(rows)
    n, a, s = len(A[0]), abs(d), -1 if d > 0 else 1
    row = {pc: i for i, pc in enumerate(pivots)}  # pivot column -> its row of A
    vectors = [[s * A[row[j]][f] if j in row else a * (j == f) for j in range(n)]
               for f in range(n) if f not in row]
    g = math.gcd(a, *(x for v in vectors for x in v))
    return a // g, tuple(tuple(x // g for x in v) for v in vectors)


def kernel_basis(M: RationalMatrix) -> tuple[Vector, ...]:
    """Deterministic basis of ker(M): one vector per free column of the RREF,
    with a 1 in the free coordinate; the Fraction view of _integer_kernel."""
    scale, vectors = _integer_kernel(M.rows)
    return tuple(tuple(Fraction(x, scale) for x in v) for v in vectors)


class _SolveMap(NamedTuple):
    """The solutions of A x = b for one rational matrix A and every b, from
    one elimination of its integer form that pivots in A's own columns
    (_eliminate).

    For A = N / c with N integer, the row operations take [N | c I] to
    [d R | T], R the reduced row echelon form of A, so they take [N | c b]
    to [d R | T b]. With the free variables at 0, the pivot rows of T b / d
    are the pivot variables, and the system is consistent iff the other
    rows of T b are zero: the same pivots, solution and None as eliminating
    [A | b] itself."""

    ncols: int
    pivots: tuple[int, ...]
    d: int
    T: tuple[tuple[int, ...], ...]  # pivot rows first, then the checks

    def integer_solve(self, b: Sequence[int]) -> tuple[int, tuple[int, ...]] | None:
        """(D, D x) with D > 0 for the solution x of A x = b, b an integer
        vector (free variables at 0), or None when b is outside A's column
        space: integer dot products against T only."""
        if len(b) != len(self.T):
            raise ValueError("dimension mismatch")
        r = len(self.pivots)
        if any(sum(map(operator.mul, t, b)) for t in self.T[r:]):
            return None
        sign = 1 if self.d > 0 else -1
        x = [0] * self.ncols
        for pc, t in zip(self.pivots, self.T):
            x[pc] = sign * sum(map(operator.mul, t, b))
        return sign * self.d, tuple(x)

    def solve(self, b: Sequence) -> Vector | None:
        # the Fraction front end of integer_solve: b = B / e in, x = X / (D e) out
        e, (B,) = clear_denominators((vec(b),))
        found = self.integer_solve(B)
        if found is None:
            return None
        D, x = found
        return tuple(Fraction(v, D * e) for v in x)


def _solve_map_of(rows: Sequence[tuple[int, ...]], c: int) -> _SolveMap:
    # the solve map of the matrix rows / c, for integer rows and c > 0
    m, n = len(rows), len(rows[0])
    A, pivots, d = _eliminate([r + (0,) * i + (c,) + (0,) * (m - 1 - i) for i, r in enumerate(rows)], n)
    return _SolveMap(n, pivots, d, tuple(tuple(row[n:]) for row in A))


def solve_exact(M: RationalMatrix, b: Sequence) -> Vector | None:
    """One exact solution of M x = b (free variables set to 0), or None if the
    system is inconsistent, through M's solve map."""
    return M._solve_map.solve(b)


def rowspace_preimage(M: RationalMatrix, v: Sequence) -> Vector | None:
    """z with M'z = v, or None when v is outside row(M), through the solve
    map of M', kept on M."""
    return M._preimage_map.solve(v)


# ---------------------------------------------------------------------------
# text formats


def parse_rational(token: str, where: str = "") -> Fraction:
    """The exact value of a rational literal, or ValueError("bad rational
    literal ...") naming its place where, if given ("at row 2, column 1").
    The grammar is that of fractions.Fraction's strings, within rat's length
    bound:

        literal  := space* [sign] (ratio | decimal) space*
        ratio    := digits "/" digits      (no space, point or exponent)
        decimal  := digits ["." [digits]] [exponent] | "." digits [exponent]
        exponent := ("e" | "E") [sign] digits
        digits   := digit+ ("_" digit+)*   (one underscore between digits)
        sign     := "+" | "-"

    A digit is any Unicode decimal digit and a space any whitespace; a zero
    denominator is refused. So "7" = 7, "-5/4" = -5/4, " 1_000 " = 1000,
    "1.25" = 5/4, ".5" = 1/2, "5." = 5, "+.5e+2" = 50, "-3E-2" = -3/100,
    "1e1_0" = 10000000000 and "\u0661\u0662" = 12 (Arabic-Indic digits),
    while "5 / 4", "1/2e3", "1.5/2", "5/-4", "1__0", "_1", "1 000", "0x10",
    "1e", ".", "inf" and "5/0" are refused."""
    try:
        return rat(token)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational literal {token!r}{where and ' ' + where}: {e}") from None


def _entries(cells: Sequence[str], where: str) -> list[str]:
    """cells stripped, trailing empty ones dropped; an empty cell before the
    last entry is a missing entry, not padding, and raises naming its place."""
    cells = [c.strip() for c in cells]
    cells = cells[:max((j for j, c in enumerate(cells, 1) if c), default=0)]
    if "" in cells:
        raise ValueError(f"empty {where} {cells.index('') + 1}")
    return cells


def parse_matrix_csv(text: str) -> RationalMatrix:
    rows = []
    for i, record in enumerate(csv.reader(io.StringIO(text)), 1):
        cells = _entries(record, f"cell at row {i}, column")
        if cells:
            rows.append([parse_rational(c, f"at row {i}, column {j}") for j, c in enumerate(cells, 1)])
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
            cells.append(parse_rational(c, f"at row {i}, column {j}") if isinstance(c, str) else rat(c))
        rows.append(cells)
    return RationalMatrix.from_rows(rows)


def load_matrix(path: str) -> RationalMatrix:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return parse_matrix_json(json.loads(text))
    return parse_matrix_csv(text)

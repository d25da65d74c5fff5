"""Dense exact simplex over the rationals, for programs in nonnegative
variables.

Two-phase tableau method with Bland's anticycling rule throughout, so every
solve is deterministic and terminates. Problem sizes here are desk scale
(tens of variables); no factorization or sparsity is attempted on purpose.
The package builds two programs, both over nonnegative weights: the gauge LP
of a polytope norm (solvers) and the convex weights of a point of a face
(geometry). Each optimum carries an optimal dual, read off the final
tableau: for the gauge LP it is a point of the zero-solution region, which is
how basis pursuit gets its dual certificate. The accessibility sweeps and the
region figure read that region's vertices (norms.zero_region) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exact import Vector, vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """minimize c'x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0."""

    c: Vector
    a_eq: tuple[Vector, ...] = ()
    b_eq: Vector = ()
    a_ub: tuple[Vector, ...] = ()
    b_ub: Vector = ()

    def __post_init__(self):
        n = len(self.c)
        for rows, rhs, name in ((self.a_eq, self.b_eq, "eq"), (self.a_ub, self.b_ub, "ub")):
            if len(rows) != len(rhs):
                raise ValueError(f"a_{name} / b_{name} length mismatch")
            for r in rows:
                if len(r) != n:
                    raise ValueError(f"a_{name} row width != number of variables")


@dataclass(frozen=True)
class LPResult:
    """x and value at the optimum; dual is an optimal y of max b'y s.t.
    A'y <= c, one entry per row (the equality rows, then the inequality
    rows), so b'y = value."""

    status: str
    x: Vector | None = None
    value: Fraction | None = None
    dual: Vector | None = None


def nonneg_lp(c, a_eq=(), b_eq=(), a_ub=(), b_ub=()) -> LinearProgram:
    """A LinearProgram from any rational entries."""
    return LinearProgram(
        c=vec(c),
        a_eq=tuple(vec(r) for r in a_eq),
        b_eq=vec(b_eq),
        a_ub=tuple(vec(r) for r in a_ub),
        b_ub=vec(b_ub),
    )


class _Tableau:
    """Simplex tableau for min c'x, Ax = b, x >= 0, with b >= 0 assumed."""

    def __init__(self, a: list[list[Fraction]], b: list[Fraction], n: int):
        self.a = a
        self.b = b
        self.m = len(a)
        self.n = n  # from the cost vector: a program may have no rows
        self.basis: list[int] = [-1] * self.m

    def add_artificials(self) -> list[int]:
        arts = []
        for i in range(self.m):
            col = self.n + len(arts)
            for k, row in enumerate(self.a):
                row.append(_ONE if k == i else _ZERO)
            self.basis[i] = col
            arts.append(col)
        self.n += len(arts)
        return arts

    def _reduced_costs(self, cost: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        # r_j = c_j - c_B B^{-1} A_j; tableau rows are already B^{-1} A
        red = list(cost)
        obj = _ZERO
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                row = self.a[i]
                for j in range(self.n):
                    if row[j]:
                        red[j] -= cb * row[j]
                obj += cb * self.b[i]
        return red, obj

    def _pivot(self, r: int, c: int, red: list[Fraction]):
        row = self.a[r]
        piv = row[c]
        if piv != 1:
            inv = 1 / piv
            self.a[r] = row = [x * inv for x in row]
            self.b[r] *= inv
        for i in range(self.m):
            if i == r:
                continue
            f = self.a[i][c]
            if f:
                ai = self.a[i]
                self.a[i] = [x - f * y for x, y in zip(ai, row)]
                self.b[i] -= f * self.b[r]
        f = red[c]
        if f:
            for j in range(self.n):
                if row[j]:
                    red[j] -= f * row[j]
        self.basis[r] = c

    def run(self, cost: list[Fraction], frozen: set[int] | None = None) -> str:
        """Bland-rule simplex on the current basis. frozen columns are never
        entered (used to keep artificials out during phase 2)."""
        red, _ = self._reduced_costs(cost)
        frozen = frozen or set()
        while True:
            enter = -1
            for j in range(self.n):
                if j not in frozen and red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i in range(self.m):
                aic = self.a[i][enter]
                if aic > 0:
                    ratio = self.b[i] / aic
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, red)

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.n
        for i, bi in enumerate(self.basis):
            x[bi] = self.b[i]
        return x


def _solve_standard(a, b, c) -> LPResult:
    """min c'x, Ax = b, x >= 0. a, b, c are lists of Fractions; rows of a are
    consumed."""
    m = len(a)
    n = len(c)
    flipped = [bi < 0 for bi in b]
    for i in range(m):
        if flipped[i]:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    t = _Tableau(a, b, n)
    arts = t.add_artificials()
    phase1 = [_ZERO] * n + [_ONE] * len(arts)
    t.run(phase1)
    _, obj = t._reduced_costs(phase1)
    if obj != 0:
        return LPResult(INFEASIBLE)
    # drive artificials out of the basis; drop rows that prove redundant
    art_set = set(arts)
    drop = []
    for i in range(t.m):
        if t.basis[i] in art_set:
            piv_col = -1
            for j in range(n):
                if t.a[i][j] != 0:
                    piv_col = j
                    break
            if piv_col < 0:
                drop.append(i)
            else:
                red = [_ZERO] * t.n
                t._pivot(i, piv_col, red)
    for i in reversed(drop):
        del t.a[i], t.b[i], t.basis[i]
        t.m -= 1
    cost2 = list(c) + [_ZERO] * len(arts)
    status = t.run(cost2, frozen=art_set)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = t.solution()[:n]
    value = sum((ci * xi for ci, xi in zip(c, x)), _ZERO)
    # the artificial columns hold B^-1 (dropped rows included), so c_B B^-1
    # is an optimal dual; a row negated above negates its entry back
    dual = tuple(
        sum((cost2[k] * row[n + i] for k, row in zip(t.basis, t.a)), _ZERO) * (-1 if f else 1)
        for i, f in enumerate(flipped)
    )
    return LPResult(OPTIMAL, tuple(x), value, dual)


def lp_solve(lp: LinearProgram) -> LPResult:
    """Exact optimum. Each inequality row gets a slack column after the
    variables. Deterministic: identical input produces the identical optimal
    vertex."""
    n, k = len(lp.c), len(lp.a_ub)
    a = [list(r) + [_ZERO] * k for r in lp.a_eq]
    a += [list(r) + [_ONE if j == i else _ZERO for j in range(k)] for i, r in enumerate(lp.a_ub)]
    res = _solve_standard(a, list(lp.b_eq) + list(lp.b_ub), list(lp.c) + [_ZERO] * k)
    if res.status != OPTIMAL:
        return res
    return replace(res, x=res.x[:n])


def lp_feasible(lp: LinearProgram) -> Vector | None:
    """Phase-1 only: a feasible point, or None."""
    res = lp_solve(replace(lp, c=tuple(_ZERO for _ in lp.c)))
    return res.x if res.status == OPTIMAL else None

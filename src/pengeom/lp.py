"""Dense exact simplex for programs in nonnegative variables, pivoting in
integers.

Two-phase tableau method with Bland's anticycling rule throughout, so every
solve is deterministic and terminates. Problem sizes here are desk scale
(tens of variables); no factorization or sparsity is attempted on purpose.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968): the rows
and right-hand side are scaled by one common denominator d0, the costs by
another, c0, and the rational tableau is kept as integers over one positive
common denominator that each pivot replaces by the pivot element, dividing
exactly by the previous one. Only uniform scales are used: one scale for
every row is a positive rescaling of the artificial variables, and one for
the costs a positive rescaling of the objective, so every reduced cost keeps
its sign and every ratio test its order and its ties. Bland's rule therefore
takes the same pivots as on the rational tableau, and x, the value and the
dual, read off as Fractions at the end, are the same rationals. Scaling each
row by its own factor would not do: it changes the phase-1 reduced costs,
and with them the column Bland's rule enters.

The package asks two questions, both over nonnegative weights. The gauge LP
of a polytope norm (solvers), over integer rows X V times one scale, is
solved to optimality; its optimal dual, read off the final tableau, is a
point of the zero-solution region, which is how basis pursuit gets its dual
certificate (the accessibility route and the figures read that region from
norms._zero_region instead). The convex weights of a point of a face
(geometry) need only feasibility: lp_feasible runs phase 1 alone, integers
in and out. At a zero phase-1 optimum every basic artificial is at zero, so
a drive-out and a zero-cost phase 2 would pivot only on rows at zero and
move no basic value: phase 1's x is the two-phase x.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exact import Vector, clear_denominators

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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


class _Tableau:
    """Integer-preserving simplex tableau for min c'x, Ax = b, x >= 0, with
    b >= 0 assumed and A, b integer.

    The rational tableau is a / d and b / d, with one positive common
    denominator d (1 at the start). Reduced costs are kept over the same d.
    A pivot on p = a[r][c] updates every other row as (x*p - f*y) // d, with
    f its entry in column c and y the pivot row, and d becomes p; when p < 0
    the pivot row is negated first, so d stays positive. Each entry is a
    minor of the starting integer matrix, up to sign, and d is |det B| for
    the basis B, so every division is exact.
    """

    def __init__(self, a: list[list[int]], b: list[int], n: int):
        self.a = a
        self.b = b
        self.m = len(a)
        self.n = n  # from the cost vector: a program may have no rows
        self.d = 1
        self.basis: list[int] = [-1] * self.m

    def add_artificials(self) -> list[int]:
        arts = []
        for i in range(self.m):
            col = self.n + len(arts)
            for k, row in enumerate(self.a):
                row.append(1 if k == i else 0)
            self.basis[i] = col
            arts.append(col)
        self.n += len(arts)
        return arts

    def _reduced_costs(self, cost: list[int]) -> tuple[list[int], int]:
        # d * (c_j - c_B B^{-1} A_j) and d * c_B B^{-1} b; tableau rows are
        # already d B^{-1} A
        red = [self.d * cj for cj in cost]
        obj = 0
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                row = self.a[i]
                for j in range(self.n):
                    if row[j]:
                        red[j] -= cb * row[j]
                obj += cb * self.b[i]
        return red, obj

    def _pivot(self, r: int, c: int, red: list[int] | None):
        row, br, d = self.a[r], self.b[r], self.d
        p = row[c]
        if p < 0:
            p = -p
            self.a[r] = row = [-y for y in row]
            self.b[r] = br = -br
        for i in range(self.m):
            if i == r:
                continue
            ai = self.a[i]
            f = ai[c]
            if f:
                self.a[i] = [(x * p - f * y) // d for x, y in zip(ai, row)]
                self.b[i] = (self.b[i] * p - f * br) // d
            elif p != d:
                self.a[i] = [x * p // d for x in ai]
                self.b[i] = self.b[i] * p // d
        if red is not None:
            f = red[c]
            red[:] = [(x * p - f * y) // d for x, y in zip(red, row)]
        self.d = p
        self.basis[r] = c

    def run(self, cost: list[int], frozen: set[int] | None = None) -> str:
        """Bland-rule simplex on the current basis. frozen columns are never
        entered (used to keep artificials out during phase 2). The common
        denominator is positive, so the reduced costs keep their signs, and
        the ratio b_i / a_ic is compared with the best b_l / a_lc as
        b_i * a_lc against b_l * a_ic."""
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
            for i in range(self.m):
                aic = self.a[i][enter]
                if aic > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs = self.b[i] * self.a[leave][enter]
                    rhs = self.b[leave] * aic
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, red)


def _phase_one(a, b, n: int) -> _Tableau | None:
    """Phase 1 on integer rows a and right-hand side b over n columns, each
    row with b_i < 0 negated first: the tableau at a zero optimum of the sum
    of one artificial per row, or None when Ax = b, x >= 0 is infeasible."""
    t = _Tableau([list(r) if bi >= 0 else [-v for v in r] for r, bi in zip(a, b)],
                 [abs(bi) for bi in b], n)
    phase1 = [0] * n + [1] * len(t.add_artificials())
    t.run(phase1)
    return t if t._reduced_costs(phase1)[1] == 0 else None


def _solve_standard(a, b, c) -> LPResult:
    """min c'x, Ax = b, x >= 0 for rationals a, b, c. The rows and b are
    scaled by their common denominator d0, the costs by theirs, c0; the
    module docstring says why only uniform scales keep Bland's pivots."""
    m = len(a)
    n = len(c)
    d0, rows = clear_denominators(a + [b])
    c0, (cost,) = clear_denominators([c])
    t = _phase_one(rows[:m], rows[m], n)
    if t is None:
        return LPResult(INFEASIBLE)
    # drive artificials out of the basis; drop rows that prove redundant
    art_set = set(range(n, t.n))
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
                t._pivot(i, piv_col, None)
    for i in reversed(drop):
        del t.a[i], t.b[i], t.basis[i]
        t.m -= 1
    cost2 = list(cost) + [0] * m
    status = t.run(cost2, frozen=art_set)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    return _optimum(t, cost2, c0, d0, [bi < 0 for bi in b], n)


def _optimum(t: _Tableau, cost: list[int], c0: int, d0: int, flipped: list[bool], n: int):
    """The LPResult of an optimal tableau, the one place Fractions are made.
    x is b / d on the basic columns. The artificial columns hold
    B^-1 * d / d0 (dropped rows included), because the rows were scaled by
    d0 and the artificials were not, so c_B B^-1 = d0 * sum C_k M[k][n+i] /
    (c0 * d) is an optimal dual; a row phase 1 negated negates its entry
    back."""
    d = t.d
    x = [Fraction(0)] * n
    for k, bk in zip(t.basis, t.b):
        x[k] = Fraction(bk, d)
    value = Fraction(sum(cost[k] * bk for k, bk in zip(t.basis, t.b)), c0 * d)
    dual = tuple(
        Fraction(d0 * sum(cost[k] * row[n + i] for k, row in zip(t.basis, t.a)), c0 * d)
        * (-1 if f else 1)
        for i, f in enumerate(flipped)
    )
    return LPResult(OPTIMAL, tuple(x), value, dual)


def lp_solve(lp: LinearProgram) -> LPResult:
    """Exact optimum. Each inequality row gets a slack column after the
    variables. Deterministic: identical input produces the identical optimal
    vertex."""
    n, k = len(lp.c), len(lp.a_ub)
    a = [list(r) + [0] * k for r in lp.a_eq]
    a += [list(r) + [1 if j == i else 0 for j in range(k)] for i, r in enumerate(lp.a_ub)]
    res = _solve_standard(a, list(lp.b_eq) + list(lp.b_ub), list(lp.c) + [0] * k)
    if res.status != OPTIMAL:
        return res
    return replace(res, x=res.x[:n])


def lp_feasible(a, b, n: int) -> tuple[int, tuple[int, ...]] | None:
    """(d, x) with x integer, x / d >= 0 and a x = b, for integer rows a and
    right-hand side b over n columns, or None. Phase 1 runs alone; x / d is
    lp_solve's x at zero cost (see the module docstring)."""
    t = _phase_one(a, b, n)
    if t is None:
        return None
    x = [0] * n
    for k, bk in zip(t.basis, t.b):
        if k < n:
            x[k] = bk
    return t.d, tuple(x)

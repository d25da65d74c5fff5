import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pengeom.exact import clear_denominators, dot
from pengeom.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPResult,
    lp_feasible,
    lp_solve,
)

from oracles import nonneg_lp


def test_basic_example():
    # min -x1 - x2  s.t. x1 + x2 <= 1, x >= 0
    lp = nonneg_lp(c=[-1, -1], a_ub=[[1, 1]], b_ub=[1])
    res = lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.value == -1
    assert res.x == (1, 0)  # Bland's rule enters x1 first


def test_infeasible_example():
    lp = nonneg_lp(c=[0], a_ub=[[1]], b_ub=[-1])
    assert lp_solve(lp).status == INFEASIBLE
    assert lp_feasible([[1, 1]], [-1], 2) is None  # its standard form, slack added


def test_unbounded():
    lp = nonneg_lp(c=[-1], a_ub=[[-1]], b_ub=[0])
    assert lp_solve(lp).status == UNBOUNDED


def test_program_without_rows():
    # the width comes from the cost vector: x = 0 is optimal for c >= 0,
    # and a negative cost is unbounded when nothing constrains its variable
    assert lp_solve(nonneg_lp(c=[1, 2])) == LPResult(OPTIMAL, (0, 0), 0, ())
    assert lp_solve(nonneg_lp(c=[-1, 2])).status == UNBOUNDED
    assert lp_feasible((), (), 2) == (1, (0, 0))


# Classic degenerate instance that cycles under the most-negative rule
BEALE = nonneg_lp(
    c=[Fraction(-3, 4), 150, Fraction(-1, 50), 6],
    a_ub=[
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ],
    b_ub=[0, 0, 1],
)


def test_beale_cycling_instance_terminates():
    # Bland must terminate at value -1/20
    res = lp_solve(BEALE)
    assert res.status == OPTIMAL
    assert res.value == Fraction(-1, 20)


def test_determinism():
    lp = nonneg_lp(c=[-1, -1, 0], a_ub=[[1, 1, 1]], b_ub=[2])
    r1 = lp_solve(lp)
    r2 = lp_solve(lp)
    assert r1 == r2


def _random_lp(rng, n, m):
    c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
    b = [dot(row, x0) + Fraction(rng.randint(0, 2)) for row in a]  # slack keeps x0 feasible
    return nonneg_lp(c=c, a_ub=a, b_ub=b), x0


def test_against_scipy_linprog():
    from scipy.optimize import linprog

    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        lp, x0 = _random_lp(rng, n, m)
        res = lp_solve(lp)
        sp = linprog(
            c=np.array([float(v) for v in lp.c]),
            A_ub=np.array([[float(v) for v in row] for row in lp.a_ub]),
            b_ub=np.array([float(v) for v in lp.b_ub]),
            bounds=[(0, None)] * n,
            method="highs",
        )
        if res.status == OPTIMAL:
            assert sp.status == 0
            assert abs(float(res.value) - sp.fun) < 1e-8
            # exact feasibility of our vertex
            for row, rhs in zip(lp.a_ub, lp.b_ub):
                assert dot(row, res.x) <= rhs
            assert all(v >= 0 for v in res.x)
            checked += 1
        elif res.status == UNBOUNDED:
            assert sp.status == 3
        else:
            assert sp.status == 2
    assert checked >= 10


def test_primal_dual_agreement():
    # min c'x, Ax <= b, x >= 0 against max -b'y, -A'y <= c, y >= 0
    rng = random.Random(31)
    agreed = 0
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        lp, _ = _random_lp(rng, n, m)
        primal = lp_solve(lp)
        at = list(zip(*lp.a_ub))
        dual = lp_solve(
            nonneg_lp(
                c=list(lp.b_ub),
                a_ub=[[-aij for aij in row] for row in at],
                b_ub=list(lp.c),
            )
        )
        if primal.status == OPTIMAL and dual.status == OPTIMAL:
            assert primal.value == -dual.value
            agreed += 1
        elif primal.status == UNBOUNDED:
            assert dual.status == INFEASIBLE
    assert agreed >= 10


def test_optimal_dual_pairs_with_the_value():
    # y is feasible for max b'y, A'y <= c with y <= 0 on the inequality rows,
    # and b'y equals the optimum; equality rows with negative right-hand
    # sides and a redundant row (the sum of the first two) are included
    rng = random.Random(37)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        a_eq = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        if len(a_eq) > 1 and rng.random() < 0.5:
            a_eq.append([x + y for x, y in zip(a_eq[0], a_eq[1])])
        ub, _ = _random_lp(rng, n, rng.randint(0, 2))
        lp = nonneg_lp(
            c=ub.c, a_eq=a_eq, b_eq=[dot(r, x0) for r in a_eq], a_ub=ub.a_ub, b_ub=ub.b_ub
        )
        res = lp_solve(lp)
        if res.status != OPTIMAL:
            continue
        rows, rhs = lp.a_eq + lp.a_ub, lp.b_eq + lp.b_ub
        assert len(res.dual) == len(rows)
        assert dot(rhs, res.dual) == res.value
        assert all(dot(col, res.dual) <= cj for col, cj in zip(zip(*rows), lp.c))
        assert all(y <= 0 for y in res.dual[len(lp.a_eq):])
        checked += 1
    assert checked >= 20


def test_input_validation():
    with pytest.raises(ValueError):
        LinearProgram(c=(Fraction(1),), a_eq=((Fraction(1), Fraction(2)),), b_eq=(Fraction(0),))
    with pytest.raises(ValueError):
        LinearProgram(c=(Fraction(1),), a_eq=((Fraction(1),),), b_eq=())


# ---------------------------------------------------------------------------
# the integer tableau against the rational one


class _FractionTableau:
    """The reference for the integer tableau: the same two-phase method and
    Bland rule on Fraction rows. pivots records every (row, column) pivot in
    order, dropped the redundant rows removed after phase 1."""

    def __init__(self, a, b, n):
        self.a, self.b, self.m, self.n = a, b, len(a), n
        self.basis = [-1] * self.m
        self.pivots = []
        self.dropped = 0

    def add_artificials(self):
        arts = []
        for i in range(self.m):
            col = self.n + len(arts)
            for k, row in enumerate(self.a):
                row.append(Fraction(1) if k == i else Fraction(0))
            self.basis[i] = col
            arts.append(col)
        self.n += len(arts)
        return arts

    def reduced_costs(self, cost):
        red = list(cost)
        obj = Fraction(0)
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                row = self.a[i]
                for j in range(self.n):
                    if row[j]:
                        red[j] -= cb * row[j]
                obj += cb * self.b[i]
        return red, obj

    def pivot(self, r, c, red):
        self.pivots.append((r, c))
        row = self.a[r]
        piv = row[c]
        if piv != 1:
            inv = 1 / piv
            self.a[r] = row = [x * inv for x in row]
            self.b[r] *= inv
        for i in range(self.m):
            f = self.a[i][c]
            if i != r and f:
                self.a[i] = [x - f * y for x, y in zip(self.a[i], row)]
                self.b[i] -= f * self.b[r]
        f = red[c]
        if f:
            for j in range(self.n):
                if row[j]:
                    red[j] -= f * row[j]
        self.basis[r] = c

    def run(self, cost, frozen=frozenset()):
        red, _ = self.reduced_costs(cost)
        while True:
            enter = next((j for j in range(self.n) if j not in frozen and red[j] < 0), -1)
            if enter < 0:
                return OPTIMAL
            leave, best = -1, None
            for i in range(self.m):
                aic = self.a[i][enter]
                if aic > 0:
                    ratio = self.b[i] / aic
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best, leave = ratio, i
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter, red)


def _fraction_lp_solve(lp):
    """(LPResult, tableau) of the rational two-phase method, with lp_solve's
    slack columns and row flips."""
    n, k = len(lp.c), len(lp.a_ub)
    a = [list(r) + [Fraction(0)] * k for r in lp.a_eq]
    a += [list(r) + [Fraction(j == i) for j in range(k)] for i, r in enumerate(lp.a_ub)]
    b = list(lp.b_eq) + list(lp.b_ub)
    c = list(lp.c) + [Fraction(0)] * k
    flipped = [bi < 0 for bi in b]
    a = [[-x for x in row] if f else row for row, f in zip(a, flipped)]
    b = [-bi if f else bi for bi, f in zip(b, flipped)]
    t = _FractionTableau(a, b, len(c))
    arts = t.add_artificials()
    phase1 = [Fraction(0)] * len(c) + [Fraction(1)] * len(arts)
    t.run(phase1)
    if t.reduced_costs(phase1)[1] != 0:
        return LPResult(INFEASIBLE), t
    drop = []
    for i in range(t.m):
        if t.basis[i] in arts:
            col = next((j for j in range(len(c)) if t.a[i][j] != 0), -1)
            if col < 0:
                drop.append(i)
            else:
                t.pivot(i, col, [Fraction(0)] * t.n)
    for i in reversed(drop):
        del t.a[i], t.b[i], t.basis[i]
        t.m -= 1
    t.dropped = len(drop)
    cost2 = c + [Fraction(0)] * len(arts)
    if t.run(cost2, frozenset(arts)) == UNBOUNDED:
        return LPResult(UNBOUNDED), t
    x = [Fraction(0)] * t.n
    for i, bi in enumerate(t.basis):
        x[bi] = t.b[i]
    x = x[: len(c)]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    dual = tuple(
        sum((cost2[kk] * row[len(c) + i] for kk, row in zip(t.basis, t.a)), Fraction(0))
        * (-1 if f else 1)
        for i, f in enumerate(flipped)
    )
    return LPResult(OPTIMAL, tuple(x[:n]), value, dual), t


def _entry(rng):
    # mostly small integers, some proper fractions, some zeros
    if rng.random() < 0.3:
        return Fraction(rng.randint(-5, 5), rng.randint(2, 4))
    return Fraction(rng.randint(-3, 3))


def _corpus_program(rng):
    n = rng.randint(1, 5)
    a_eq = [[_entry(rng) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    if len(a_eq) >= 2 and rng.random() < 0.3:
        a_eq.append([x + y for x, y in zip(a_eq[0], a_eq[1])])  # redundant row
    a_ub = [[_entry(rng) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    x0 = [Fraction(rng.randint(0, 2)) for _ in range(n)]
    if rng.random() < 0.7:
        # feasible at x0; the right-hand sides may be negative (row flips)
        b_eq = [dot(r, x0) for r in a_eq]
        b_ub = [dot(r, x0) + rng.randint(0, 2) for r in a_ub]
    else:
        b_eq = [_entry(rng) for _ in a_eq]
        b_ub = [_entry(rng) for _ in a_ub]
    c = [_entry(rng) for _ in range(n)]
    if rng.random() < 0.2:
        c = [abs(x) for x in c]  # bounded below by 0
    return nonneg_lp(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def _integer_standard_form(lp):
    """(a, b, n): lp_solve's rows with their slack columns, and b, over one
    common denominator; rows with b_i < 0 are left for lp_feasible to flip."""
    n, k = len(lp.c), len(lp.a_ub)
    a = [list(r) + [0] * k for r in lp.a_eq]
    a += [list(r) + [int(j == i) for j in range(k)] for i, r in enumerate(lp.a_ub)]
    _, rows = clear_denominators(a + [list(lp.b_eq + lp.b_ub)])
    return rows[:-1], rows[-1], n + k


def test_integer_tableau_matches_the_rational_tableau(monkeypatch):
    # same pivots in the same order and the same LPResult, field by field,
    # on a seeded corpus of eq and ub rows, negative right-hand sides,
    # redundant equality rows, degenerate and row-free programs; phase 1
    # alone (lp_feasible) on the integer standard form takes the first of
    # those pivots and returns the x of the two-phase solve at zero cost
    from pengeom import lp as lp_module

    pivots = []
    pivot = lp_module._Tableau._pivot

    def recording_pivot(self, r, c, red):
        pivots.append((r, c))
        pivot(self, r, c, red)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", recording_pivot)
    rng = random.Random(2027)
    programs = [BEALE, nonneg_lp(c=[1, 2]), nonneg_lp(c=[-1, 2])]
    programs += [_corpus_program(rng) for _ in range(2100)]
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    dropped = flipped = rowless = 0
    for lp in programs:
        pivots.clear()
        want, reference = _fraction_lp_solve(lp)
        got = lp_solve(lp)
        assert got.status == want.status
        assert got.x == want.x and got.value == want.value and got.dual == want.dual
        assert all(type(v) is Fraction for v in (got.x or ()) + (got.dual or ()))
        assert got.value is None or type(got.value) is Fraction
        assert pivots == reference.pivots
        zero = lp_solve(replace(lp, c=(Fraction(0),) * len(lp.c)))
        pivots.clear()
        found = lp_feasible(*_integer_standard_form(lp))
        assert (found is None) == (zero.status == INFEASIBLE)
        if found is not None:
            d, x = found
            assert d > 0 and all(type(v) is int and v >= 0 for v in (d, *x))
            assert tuple(Fraction(v, d) for v in x[: len(lp.c)]) == zero.x
        assert pivots == reference.pivots[: len(pivots)]
        statuses[got.status] += 1
        dropped += reference.dropped > 0
        flipped += any(v < 0 for v in lp.b_eq + lp.b_ub)
        rowless += not (lp.a_eq or lp.a_ub)
    assert min(statuses.values()) >= 300
    assert dropped >= 200 and flipped >= 1000 and rowless >= 100

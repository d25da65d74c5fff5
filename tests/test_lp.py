import random
from fractions import Fraction

import numpy as np
import pytest

from pengeom.exact import dot
from pengeom.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPResult,
    lp_feasible,
    lp_solve,
    nonneg_lp,
)


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
    assert lp_feasible(lp) is None


def test_unbounded():
    lp = nonneg_lp(c=[-1], a_ub=[[-1]], b_ub=[0])
    assert lp_solve(lp).status == UNBOUNDED


def test_program_without_rows():
    # the width comes from the cost vector: x = 0 is optimal for c >= 0,
    # and a negative cost is unbounded when nothing constrains its variable
    assert lp_solve(nonneg_lp(c=[1, 2])) == LPResult(OPTIMAL, (0, 0), 0, ())
    assert lp_solve(nonneg_lp(c=[-1, 2])).status == UNBOUNDED
    assert lp_feasible(nonneg_lp(c=[-1, 2])) == (0, 0)


def test_beale_cycling_instance_terminates():
    # Classic instance that cycles under the most-negative rule; Bland must
    # terminate at value -1/20.
    lp = nonneg_lp(
        c=[Fraction(-3, 4), 150, Fraction(-1, 50), 6],
        a_ub=[
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        b_ub=[0, 0, 1],
    )
    res = lp_solve(lp)
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

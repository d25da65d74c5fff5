import random
from fractions import Fraction

import pytest

from pengeom.exact import (
    RationalMatrix,
    dot,
    kernel_basis,
    parse_matrix_csv,
    parse_matrix_json,
    parse_rational,
    rank,
    rat,
    rowspace_preimage,
    solve_exact,
)


def rand_matrix(rng, m, n, den=4, lo=-5, hi=5):
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)] for _ in range(m)]
    )


def test_rank_example():
    M = RationalMatrix.from_rows([[1, 1, 1], [1, -1, 1]])
    assert rank(M) == 2


def test_kernel_example():
    # ker of ((1,1,1),(1,-1,1)) is the line through (1,0,-1)
    M = RationalMatrix.from_rows([[1, 1, 1], [1, -1, 1]])
    basis = kernel_basis(M)
    assert len(basis) == 1
    v = basis[0]
    assert M.matvec(v) == (0, 0)
    # proportional to (1, 0, -1)
    assert v[1] == 0 and v[0] == -v[2] and v[0] != 0


def test_parse_decimal_exact():
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("+0.100000000001") == Fraction(100000000001, 10**12)
    assert parse_rational("5/4") == Fraction(5, 4)
    assert parse_rational("-3e-2") == Fraction(-3, 100)
    with pytest.raises(ValueError):
        parse_rational("1.2.3")
    with pytest.raises(ValueError):
        parse_rational("inf")


def test_rat_rejects_float_and_bool():
    with pytest.raises(TypeError):
        rat(0.1)
    with pytest.raises(TypeError):
        rat(True)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RationalMatrix(())
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[]])


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = rand_matrix(rng, m, n)
        r = rank(M)
        ker = kernel_basis(M)
        assert r + len(ker) == n
        assert r == rank(M.transpose())
        for v in ker:
            assert M.matvec(v) == tuple([0] * m)
        # kernel vectors are linearly independent by construction: each has a
        # 1 in a distinct free coordinate
        if ker:
            K = RationalMatrix(ker)
            assert rank(K) == len(ker)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = rand_matrix(rng, m, n)
        x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        b = M.matvec(x)
        sol = solve_exact(M, b)
        assert sol is not None
        assert M.matvec(sol) == b
    M = RationalMatrix.from_rows([[1, 1], [1, 1]])
    assert solve_exact(M, (0, 1)) is None


def test_rowspace_membership_and_preimage():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = rand_matrix(rng, m, n)
        z = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
        v = M.rmatvec(z)
        z2 = rowspace_preimage(M, v)
        assert z2 is not None
        assert M.rmatvec(z2) == v
    M = RationalMatrix.from_rows([[1, 0, 0]])
    assert rowspace_preimage(M, (0, 1, 0)) is None


def test_bareiss_matches_rref_rank():
    rng = random.Random(17)
    from pengeom.exact import rref

    for _ in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = rand_matrix(rng, m, n, den=6, lo=-9, hi=9)
        _, pivots = rref(M)
        assert rank(M) == len(pivots)


def test_parse_matrix_csv():
    M = parse_matrix_csv("8,5,8\n10,1.25,-6\n")
    assert M.rows[1][1] == Fraction(5, 4)
    assert M.shape == (2, 3)
    with pytest.raises(ValueError):
        parse_matrix_csv("")
    with pytest.raises(ValueError):
        parse_matrix_csv("1,2\n3\n")


def test_parse_matrix_json():
    M = parse_matrix_json([["1/2", "0.5"], [1, "-2"]])
    assert M.rows[0][0] == M.rows[0][1] == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_matrix_json([[0.5]])
    with pytest.raises(ValueError):
        parse_matrix_json({"rows": []})


def test_dot_and_matvec_dimension_checks():
    M = RationalMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        M.matvec((1,))
    with pytest.raises(ValueError):
        M.rmatvec((1, 2))
    with pytest.raises(ValueError):
        dot((1,), (1, 2))
    assert dot((), ()) == 0

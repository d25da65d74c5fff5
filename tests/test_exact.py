import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pengeom.exact import (
    RationalMatrix,
    _eliminate,
    _integer_kernel,
    clear_denominators,
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

from oracles import fraction_rref, solve_by_elimination


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


_LITERALS = {"7": 7, "-5/4": Fraction(-5, 4), " 1_000 ": 1000, "1.25": Fraction(5, 4),
             ".5": Fraction(1, 2), "5.": 5, "+.5e+2": 50, "-3E-2": Fraction(-3, 100),
             "1e1_0": 10 ** 10, "\u0661\u0662": 12}
_NON_LITERALS = ("5 / 4", "1/2e3", "1.5/2", "5/-4", "1__0", "_1", "1 000", "0x10", "1e", ".", "inf", "5/0")


def test_parse_rational_keeps_its_documented_grammar():
    # each example of parse_rational's docstring, accepted or refused
    doc = parse_rational.__doc__
    for literal, value in _LITERALS.items():
        assert f'"{literal}" = ' in doc
        assert parse_rational(literal) == value
    for literal in _NON_LITERALS:
        assert f'"{literal}"' in doc
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(literal)


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
    for _ in range(80):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = rand_matrix(rng, m, n, den=6, lo=-9, hi=9)
        _, pivots = _reduced(M.rows)
        assert rank(M) == len(pivots) == len(fraction_rref(M.rows)[1])


def test_parse_matrix_csv():
    M = parse_matrix_csv("8,5,8\n10,1.25,-6\n")
    assert M.rows[1][1] == Fraction(5, 4)
    assert M.shape == (2, 3)
    with pytest.raises(ValueError):
        parse_matrix_csv("")
    with pytest.raises(ValueError):
        parse_matrix_csv("1,2\n3\n")
    # a missing entry before the last one would shift the row left
    for text, where in (("1,,3\n2,,4\n", "row 1, column 2"), ("1,2\n,3,4\n", "row 2, column 1")):
        with pytest.raises(ValueError, match=f"empty cell at {where}"):
            parse_matrix_csv(text)
    assert parse_matrix_csv("8, 5,8,,\n\n10,1.25,-6, \n") == M  # padding and blank lines


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


# ---------------------------------------------------------------------------
# the elimination and the products against plain Fraction arithmetic: a
# reference copy of the rational Gauss-Jordan loop, the separate Bareiss rank
# and the Fraction dot products that the integer forms replace


def _ref_rank(rows):
    d = math.lcm(*(x.denominator for r in rows for x in r))
    A = [[x.numerator * (d // x.denominator) for x in r] for r in rows]
    m, n = len(A), len(A[0])
    prev, r = 1, 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                A[i][j] = (A[r][c] * A[i][j] - A[i][c] * A[r][j]) // prev
            A[i][c] = 0
        prev = A[r][c]
        r += 1
    return r


def _reduced(rows):
    # the reduced row echelon form A / d and the pivots of the elimination
    A, pivots, d = _eliminate(rows)
    return tuple(tuple(Fraction(x, d) for x in row) for row in A), pivots


def _ref_kernel_basis(rows):
    R, pivots = fraction_rref(rows)
    n = len(rows[0])
    basis = []
    for f in (f for f in range(n) if f not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def _ref_solve_exact(rows, b):
    R, pivots = fraction_rref([r + (bi,) for r, bi in zip(rows, b)])
    n = len(rows[0])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = R[i][n]
    return tuple(x)


def _ref_matvec(rows, v):
    return tuple(sum(a * b for a, b in zip(r, v)) for r in rows)


# small numerators over small and 12-digit denominators
_ENTRY = st.builds(
    Fraction,
    st.integers(-9, 9) | st.integers(-10**12, 10**12),
    st.sampled_from([1, 1, 2, 3, 7, 10**12 - 11, 999_999_999_989]),
)


@st.composite
def _systems(draw):
    """(rows, b, x): a matrix with zero rows and columns, repeated and
    scaled rows mixed in, a right-hand side that is consistent or not, and a
    vector to multiply."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        edit = draw(st.sampled_from(["zero row", "zero column", "scaled row"]))
        if edit == "zero row":
            rows[i] = [Fraction(0)] * n
        elif edit == "zero column":
            for r in rows:
                r[j % n] = Fraction(0)
        else:
            rows[i] = [draw(_ENTRY) * x for x in rows[j]]
    rows = tuple(tuple(r) for r in rows)
    if draw(st.booleans()):  # consistent: b = M x
        b = _ref_matvec(rows, draw(st.lists(_ENTRY, min_size=n, max_size=n)))
    else:
        b = tuple(draw(st.lists(_ENTRY, min_size=m, max_size=m)))
    return rows, b, tuple(draw(st.lists(_ENTRY, min_size=n, max_size=n)))


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=150)
@given(_systems())
@example((((Fraction(0),),), (Fraction(1),), (Fraction(2),)))
@example((((Fraction(5, 3),),), (Fraction(-1, 10**12 - 11),), (Fraction(0),)))
@example((((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))), (Fraction(0), Fraction(1)),
          (Fraction(1), Fraction(-1))))
def test_integer_elimination_and_products_match_fraction_arithmetic(system):
    rows, b, x = system
    M = RationalMatrix(rows)
    Mt = tuple(zip(*rows))
    _same(_reduced(rows), fraction_rref(rows))
    _same(rank(M), _ref_rank(rows))
    _same(rank(M.transpose()), _ref_rank(Mt))
    _same(kernel_basis(M), _ref_kernel_basis(rows))
    _same(solve_exact(M, b), _ref_solve_exact(rows, b))
    _same(rowspace_preimage(M, x), _ref_solve_exact(Mt, x))
    _same(M.matvec(x), _ref_matvec(rows, x))
    _same(M.rmatvec(b), _ref_matvec(Mt, b))


@settings(max_examples=150)
@given(_systems())
@example((((Fraction(-1), Fraction(1)),), (Fraction(0),), (Fraction(0), Fraction(0))))
def test_integer_kernel_is_the_cleared_kernel_basis(system):
    # the kernel's integer vectors and scale, from the elimination alone,
    # are the Fraction basis cleared of its denominators, on the rational
    # rows and on their integer form alike; the last pivot of [[-1, 1]] is
    # -1, and the vector (1, 1) keeps its sign
    rows = system[0]
    M = RationalMatrix(rows)
    want = clear_denominators(_ref_kernel_basis(rows))
    _same(_integer_kernel(rows), want)
    _same(_integer_kernel(M._integer_form[1]), want)
    _same(clear_denominators(kernel_basis(M)), want)
    assert _integer_kernel(((-1, 1),)) == (1, ((1, 1),))


@st.composite
def _deficient_systems(draw):
    """(M, right-hand sides of M x = b, right-hand sides of M'z = v): rows
    that are combinations of fewer base rows, repeated or zero, and for
    each system consistent sides (images) mixed with arbitrary ones."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    base = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(k)]
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["combination", "repeat", "zero"]))
        if kind == "repeat" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "combination" and base:
            coef = draw(st.lists(_ENTRY, min_size=k, max_size=k))
            rows.append([sum((c * r[j] for c, r in zip(coef, base)), Fraction(0)) for j in range(n)])
        else:
            rows.append([Fraction(0)] * n)
    M = RationalMatrix(tuple(tuple(r) for r in rows))

    def sides(image, width, size):
        # image of a drawn vector of the given width, or any vector of size
        return [image(draw(st.lists(_ENTRY, min_size=width, max_size=width))) if draw(st.booleans())
                else tuple(draw(st.lists(_ENTRY, min_size=size, max_size=size)))
                for _ in range(draw(st.integers(1, 4)))]

    return M, sides(M.matvec, n, m), sides(M.rmatvec, m, n)


@settings(max_examples=150)
@given(_deficient_systems())
@example((RationalMatrix.from_rows([[1, 2], [1, 2], [0, 0]]),
          [(3, 3, 0), (3, 4, 0), (0, 0, 1)], [(1, 2), (1, 3)]))
def test_solve_maps_match_one_elimination_per_right_hand_side(system):
    # one solve map per matrix gives each right-hand side the solution, or
    # the None, that eliminating [M | b] gives it
    M, bs, vs = system
    Mt = M.transpose()
    for b in bs:
        _same(solve_exact(M, b), solve_by_elimination(M, b))
    for v in vs:
        _same(rowspace_preimage(M, v), solve_by_elimination(Mt, v))

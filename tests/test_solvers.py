import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pengeom.solvers as solvers_module
from pengeom.exact import RationalMatrix, dot, rowspace_preimage, vec
from pengeom.lp import OPTIMAL, LinearProgram, lp_solve
from pengeom.norms import (
    dual_ball_membership,
    dual_norm_value,
    l1_norm,
    norm_value,
    slope_norm,
    sup_norm,
)
from pengeom.solvers import (
    Certificate,
    Solution,
    SolverOptions,
    _lipschitz,
    bp_certificate_holds,
    bp_dual_certificate,
    kkt_certify,
    norm_min_subject_to,
    prox_l1,
    prox_slope,
    solve_bp,
    solve_penalized,
)

from oracles import SignedPermutation, fraction_certificate

W21 = vec([2, 1])


def prox_is_optimal(v, w, u):
    """u = prox of the sorted-l1 norm at v iff v - u lies in the
    subdifferential at u: dual ball membership plus exact pairing."""
    norm = slope_norm(w)
    g = tuple(a - b for a, b in zip(v, u))
    return dual_ball_membership(norm, g) and dot(g, u) == norm_value(norm, u)


def test_prox_slope_tied_pair():
    u = prox_slope(vec([3, 3]), W21)
    assert u == (Fraction(3, 2), Fraction(3, 2))
    assert prox_is_optimal(vec([3, 3]), W21, u)


def test_prox_slope_kills_small_entry():
    v = vec([10, "0.1"])
    u = prox_slope(v, W21)
    assert u == (8, 0)
    assert prox_is_optimal(v, W21, u)


def test_prox_slope_grid_oracle():
    # 2-D float cases: no grid point near the candidate does better
    for v, w in (((3.0, 3.0), (2.0, 1.0)), ((1.0, -4.0), (2.5, 0.5)), ((0.3, 0.2), (2.0, 1.0))):
        u = prox_slope(v, w)
        norm = slope_norm([Fraction(x).limit_denominator(10) for x in w])

        def obj(a, b):
            return 0.5 * ((a - v[0]) ** 2 + (b - v[1]) ** 2) + float(norm_value(norm, (a, b)))

        base = obj(*u)
        span = np.linspace(-5, 5, 201)
        vals = [obj(a, b) for a in span for b in span]
        assert base <= min(vals) + 1e-6


_BOUNDED = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def prox_inputs(draw):
    """(v, w): v of bounded rationals, w nonincreasing and nonnegative."""
    p = draw(st.integers(1, 7))
    v = draw(st.lists(_BOUNDED, min_size=p, max_size=p))
    w = draw(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=12),
                      min_size=p, max_size=p))
    return tuple(v), tuple(sorted(w, reverse=True))


@given(prox_inputs())
@example(((Fraction(3), Fraction(-3), Fraction(1, 3)), (Fraction(2), Fraction(2), Fraction(0))))
def test_prox_slope_on_floats_matches_fractions(inputs):
    # the same pool-adjacent-violators code runs on both; rounding may break
    # a tie or merge a pool differently, but the prox is 1-Lipschitz, so the
    # float answer stays within rounding distance of the exact one
    v, w = inputs
    exact = prox_slope(v, w)
    approx = prox_slope(tuple(float(x) for x in v), tuple(float(x) for x in w))
    assert all(type(x) is Fraction for x in exact)
    assert all(isinstance(x, float) for x in approx)
    assert max(abs(float(a) - b) for a, b in zip(exact, approx)) <= 1e-12


def test_prox_slope_random_membership():
    rng = random.Random(29)
    for _ in range(200):
        p = rng.randint(1, 6)
        v = vec([Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(p)])
        w_raw = sorted(
            (Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(p)), reverse=True
        )
        if w_raw[0] == 0:
            w_raw[0] = Fraction(1)
        w = vec(w_raw)
        u = prox_slope(v, w)
        assert prox_is_optimal(v, w, u)


def test_prox_slope_equivariance():
    rng = random.Random(31)
    for _ in range(40):
        p = rng.randint(1, 5)
        v = vec([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(p)])
        w = vec(sorted((Fraction(rng.randint(1, 9)) for _ in range(p)), reverse=True))
        perm = list(range(p))
        rng.shuffle(perm)
        g = SignedPermutation(tuple(rng.choice((1, -1)) for _ in range(p)), tuple(perm))
        assert prox_slope(g.apply(v), w) == g.apply(prox_slope(v, w))


def test_prox_l1_matches_constant_weight_slope():
    rng = random.Random(37)
    for _ in range(50):
        p = rng.randint(1, 5)
        v = vec([Fraction(rng.randint(-9, 9), 2) for _ in range(p)])
        t = Fraction(rng.randint(0, 5), 2)
        lhs = prox_l1(v, t)
        if t > 0:
            assert lhs == prox_slope(v, vec([t] * p))
        assert all(abs(a) <= max(abs(b) - t, 0) or a == 0 or abs(a) == abs(b) - t
                   for a, b in zip(lhs, v))


def test_prox_l1_examples():
    assert prox_l1(vec([3, -1, "0.5"]), 1) == (2, 0, 0)
    assert prox_l1((3.0, -0.25), 0.5) == (2.5, 0.0)
    with pytest.raises(ValueError):
        prox_l1((1,), -1)


def test_prox_validation():
    with pytest.raises(ValueError):
        prox_slope(vec([1, 2]), vec([1]))
    with pytest.raises(ValueError):
        prox_slope(vec([1, 2]), vec([1, 2]))  # increasing
    with pytest.raises(ValueError):
        prox_slope(vec([1, 2]), vec([1, -1]))


def test_kkt_certify_exact_zero_solution():
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    norm = l1_norm(2, scale=2)
    for tol in (0, 0.0, Fraction(0)):  # any zero tol is exact, and reported as the int 0
        cert = kkt_certify(X, vec([1, 1]), vec([0, 0]), norm, tol=tol)
        assert cert.passed  # ||X'y||_inf = 1 <= 2 = scale
        assert type(cert.tol) is int and type(cert.dual_norm) is Fraction
    cert = kkt_certify(X, vec([3, 0]), vec([0, 0]), norm)
    assert not cert.passed


def test_kkt_certify_takes_the_float_route_for_float_y_or_b():
    # a rational design with a float response or point is certified in
    # floats, field by field as on its float array, never coerced to Fractions
    X = RationalMatrix.from_rows([[1, 2, 0], [0, 1, 1]])
    cases = [([0.5, 1.0], [0.0] * 3), ([1, 2], [0.25, 0, 0]), ([0.5, 1.0], [0, 0, 0])]
    for norm in (l1_norm(3), sup_norm(3), slope_norm([2, 1, 1])):
        for y, b in cases:
            got, want = kkt_certify(X, y, b, norm), kkt_certify(X.to_float_array(), y, b, norm)
            assert got == want
            assert all(type(x) is float for x in got.dual_vector)
    assert kkt_certify(X, [0.5, 1.0], [0.0] * 3, l1_norm(3)).passed is False


def test_kkt_certify_takes_the_float_route_for_bool_or_numpy_int_entries():
    # vec refuses a bool, so a bool entry is not rational: like a numpy int,
    # it goes the float route, with the certificate of its float array
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    for y, b in (([True, 0], [0, 0]), ([1, 0], [False, 0]), (np.array([1, 0]), [0, 0])):
        got = kkt_certify(X, y, b, l1_norm(2))
        assert got == kkt_certify(X.to_float_array(), [1.0, 0.0], [0.0, 0.0], l1_norm(2))
        assert got.passed and all(type(x) is float for x in got.dual_vector)


def test_kkt_certify_rejects_wrong_lengths():
    # a longer response is not cut to X's rows, nor a norm of another
    # dimension to b's, on the exact or the float path
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    cases = [(y, b, l1_norm(2)) for y, b in (([0, 0, 99], [0, 0]), ([0], [0, 0]), ([0, 0], [0, 0, 0]))]
    cases += [([1, 1], [0, 0], norm) for norm in (l1_norm(3), sup_norm(1), slope_norm([2, 1, 1]))]
    for y, b, norm in cases:
        for tol in (0, 1e-9):
            with pytest.raises(ValueError):
                kkt_certify(X, vec(y), vec(b), norm, tol=tol)


# mixed denominators, small and 12-digit, and many zeros
_MIXED = st.builds(Fraction, st.integers(-6, 6) | st.integers(-10**12, 10**12),
                   st.sampled_from([1, 1, 2, 3, 7, 10**12 - 11]))
_KKT_NORMS = {
    "l1": lambda p: l1_norm(p, scale=Fraction(3, 2)),
    "sup": sup_norm,
    "strict": lambda p: slope_norm([Fraction(7, 2), 2, Fraction(2, 3), Fraction(1, 5)][:p]),
    "tied": lambda p: slope_norm([3, 3, 1, 1][:p]),
    "zero": lambda p: slope_norm([Fraction(5, 2), 1, 0, 0][:p]),
}


def _subgradient(norm, b):
    # a dual-ball vertex pairing with b to ||b||: the weights in the order of
    # b's magnitudes, with b's signs (+ at zeros)
    w = norm._form.weights
    order = sorted(range(len(b)), key=lambda j: -abs(b[j]))
    s = [None] * len(b)
    for k, j in enumerate(order):
        s[j] = w[k] if b[j] >= 0 else -w[k]
    return s


@st.composite
def _kkt_cases(draw):
    """(X, y, b, norm, case): y = Xb + z with X'z a subgradient of the norm
    at b (case "optimal", which passes whenever that subgradient lies in
    row(X)), the same with the subgradient scaled by 3/2 ("outside", dual
    norm 3/2), b moved off the minimizer ("moved"), or any y ("free")."""
    p, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    X = RationalMatrix(tuple(tuple(draw(st.lists(_MIXED, min_size=p, max_size=p))) for _ in range(n)))
    norm = _KKT_NORMS[draw(st.sampled_from(sorted(_KKT_NORMS)))](p)
    b = draw(st.lists(_MIXED, min_size=p, max_size=p))
    case = draw(st.sampled_from(["optimal", "outside", "moved", "free"]))
    z = None
    if case != "free":
        s = _subgradient(norm, b)
        z = rowspace_preimage(X, [x * Fraction(3, 2) for x in s] if case == "outside" else s)
    if z is None:
        y = draw(st.lists(_MIXED, min_size=n, max_size=n))
        case = "free"
    else:
        y = [a + c for a, c in zip(X.matvec(b), z)]
    if case == "moved":
        b[draw(st.integers(0, p - 1))] += draw(_MIXED.filter(bool))
    return X, y, b, norm, case


@settings(max_examples=300)
@given(_kkt_cases())
@example((RationalMatrix.from_rows([[1, 0], [0, 1]]), [Fraction(3, 2), Fraction(1)], [0, 0],
          l1_norm(2, scale=Fraction(3, 2)), "free"))
def test_integer_certificate_matches_the_fraction_reference(case):
    # every field, values and types, equals the Fraction arithmetic's
    X, y, b, norm, kind = case
    got, want = kkt_certify(X, y, b, norm), fraction_certificate(X, y, b, norm)
    assert got == want
    assert [repr(getattr(got, f)) for f in Certificate.__dataclass_fields__] == [
        repr(getattr(want, f)) for f in Certificate.__dataclass_fields__]
    if kind == "optimal":
        assert got.passed and got.dual_norm == 1
    elif kind == "outside":
        assert not got.passed and got.dual_norm == Fraction(3, 2)


def test_fista_certifies_small_slope():
    rng = np.random.default_rng(41)
    X = RationalMatrix.from_rows([[2, 1, 0], [1, -1, 1]])
    y = vec([3, 1])
    norm = slope_norm([2, 1, "0.5"])
    sol = solve_penalized(X, y, norm, SolverOptions(tol=1e-9))
    assert sol.converged and sol.certificate.passed
    assert sol.certificate.dual_norm <= 1 + 1e-9
    # certified value beats any nearby competitor
    Xf = X.to_float_array()
    yf = np.array([float(v) for v in y])

    def obj(b):
        r = yf - Xf @ b
        return 0.5 * r @ r + float(norm_value(norm, list(b)))

    b = np.array(sol.point)
    for _ in range(200):
        assert obj(b) <= obj(b + rng.normal(0, 0.1, size=3)) + 1e-12


def test_fista_zero_region_is_exact():
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    norm = slope_norm([2, 1])
    sol = solve_penalized(X, vec([1, "0.5"]), norm)  # ||X'y||* = max(1/2, 3/6) <= 1
    assert sol.point == (0.0, 0.0)
    assert sol.converged


def test_fista_sup_norm_route():
    X = RationalMatrix.from_rows([[1, 0]])
    sol = solve_penalized(X, vec([2]), sup_norm(2), SolverOptions(tol=1e-9))
    assert sol.converged
    # minimizers are (b1, b2) with b1 in [1, 2], |b2| <= b1? the fitted value
    # is pinned: x*(y - x b1) in [0,1] scaled... just check the certificate
    assert sol.certificate.passed


def test_fitted_values_agree_across_starts():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n, p = 5, 8
        Xf = rng.normal(size=(n, p))
        Xf /= np.linalg.norm(Xf, axis=0)
        X = RationalMatrix.from_rows([[Fraction(f"{v:.10g}") for v in row] for row in Xf])
        y = vec([Fraction(f"{v:.10g}") for v in rng.normal(size=n)])
        norm = slope_norm(sorted([Fraction(k + 1, 10) for k in range(p)], reverse=True))
        a = solve_penalized(X, y, norm, SolverOptions(tol=1e-11))
        b = solve_penalized(X, y, norm, SolverOptions(tol=1e-11, x0=tuple([1.0] * p)))
        assert a.converged and b.converged
        Xa = X.to_float_array()
        diff = Xa @ np.array(a.point) - Xa @ np.array(b.point)
        assert np.max(np.abs(diff)) <= 1e-9


def test_solve_penalized_rejects_wrong_lengths_before_iterating(monkeypatch):
    from pengeom import solvers

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kkt_certify(*args, **kwargs)

    monkeypatch.setattr(solvers, "kkt_certify", counted)
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    for y, x0 in (([5], None), ([5, 1, 1], None), ([5, 1], (0.0,)), ([5, 1], (0.0, 0.0, 0.0))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_penalized(X, vec(y), l1_norm(2), SolverOptions(x0=x0))
    assert calls == []


# The float route as it stood before it read one cached float form per norm:
# the prox through prox_slope's tuple-key sort on float(t) lists, the
# objective through norm_value on a float-weighted norm, the certificate
# through dual_norm_value and norm_value with the norm's Fractions.
# solve_penalized must reproduce every float of it.


def _reference_prox_slope(v, w):
    p = len(v)
    order = sorted(range(p), key=lambda j: (-abs(v[j]), j))
    d = [abs(v[order[i]]) - w[i] for i in range(p)]
    sums, counts = [], []
    for x in d:
        s, c = x, 1
        while sums and sums[-1] * c <= s * counts[-1]:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    mags = []
    for s, c in zip(sums, counts):
        avg = s / c
        if avg < 0:
            avg = 0 * avg
        mags.extend([avg] * c)
    out = [None] * p
    for i, j in enumerate(order):
        x = v[j]
        sign = 1 if x > 0 else (-1 if x < 0 else 0)
        out[j] = sign * mags[i] if sign else 0 * mags[i]
    return tuple(out)


def _reference_certificate(Xf, yf, b, norm, tol):
    bf = np.asarray([float(t) for t in b])
    s = Xf.T @ (yf - Xf @ bf)
    dn = float(dual_norm_value(norm, [float(t) for t in s]))
    gap = abs(float(np.dot(bf, s)) - float(norm_value(norm, [float(t) for t in bf])))
    return Certificate(tuple(float(t) for t in s), dn, gap, tol, dn <= 1 + tol and gap <= tol)


def _reference_solve(X, y, norm, options):
    Xf = X.to_float_array() if isinstance(X, RationalMatrix) else np.asarray(X, dtype=float)
    yf = np.asarray([float(t) for t in y])
    p = Xf.shape[1]
    L = _lipschitz(Xf) * (1 + 1e-6)
    step = 1.0 / L if L > 0 else 1.0
    if norm.kind == "l1":
        lam = float(norm.scale)

        def prox(v):
            t = lam * step
            return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    else:
        w = [step] + [0.0] * (p - 1) if norm.kind == "sup" else [float(x) * step for x in norm.weights]

        def prox(v):
            return np.asarray(_reference_prox_slope([float(t) for t in v], w), dtype=float)

    fnorm = replace(norm, scale=float(norm.scale),
                    weights=None if norm.weights is None else tuple(map(float, norm.weights)))

    def objective(b):
        r = yf - Xf @ b
        return 0.5 * float(r @ r) + float(norm_value(fnorm, [float(t) for t in b]))

    x = np.zeros(p) if options.x0 is None else np.asarray([float(t) for t in options.x0])
    z = x.copy()
    t_mom = 1.0
    f_prev = objective(x)
    it = 0
    while it < options.max_iter:
        it += 1
        grad = Xf.T @ (Xf @ z - yf)
        cand = prox(z - step * grad)
        f_cand = objective(cand)
        if f_cand > f_prev:
            grad = Xf.T @ (Xf @ x - yf)
            cand = prox(x - step * grad)
            f_cand = objective(cand)
            t_mom = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = cand + ((t_mom - 1.0) / t_new) * (cand - x)
        x, t_mom = cand, t_new
        f_prev = f_cand
        if it % 25 == 0:
            cert = _reference_certificate(Xf, yf, x, norm, options.tol)
            if cert.passed:
                return Solution(tuple(float(v) for v in x), objective(x), "fista", cert, it, True)
    cert = _reference_certificate(Xf, yf, x, norm, options.tol)
    return Solution(tuple(float(v) for v in x), objective(x), "fista", cert, it, cert.passed)


def _hex_record(sol):
    c = sol.certificate
    return ([t.hex() for t in sol.point], sol.objective.hex(), sol.route, sol.iterations,
            sol.converged, [t.hex() for t in c.dual_vector], c.dual_norm.hex(),
            c.pairing_gap.hex(), c.tol, c.passed)


def test_float_route_is_bit_identical_to_the_reference(monkeypatch):
    rng = random.Random(53)
    cases = []
    below, at = solvers_module._ARRAY_PROX_FROM - 1, solvers_module._ARRAY_PROX_FROM
    for p, n, cap in ((1, 1, 100_000), (3, 2, 100_000), (12, 6, 1000), (50, 20, 300),
                      (below, 8, 1000), (at, 8, 1000)):
        Xf = np.array([[rng.gauss(0, 1) for _ in range(p)] for _ in range(n)])
        y = [3 * rng.gauss(0, 1) for _ in range(n)]
        strict = sorted((Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(p)),
                        reverse=True)
        norms = [l1_norm(p, Fraction(3, 2)), sup_norm(p), slope_norm(strict)]
        if p > 1:
            norms.append(slope_norm([strict[0]] * 2 + strict[2:]))
            norms.append(slope_norm(strict[: p // 2] + [0] * (p - p // 2)))
        signed_zeros = tuple(-0.0 if j % 2 else 0.0 for j in range(p))
        for norm in norms:
            for x0 in (None, signed_zeros):
                cases.append((Xf, y, norm, SolverOptions(max_iter=cap, x0=x0)))
    # a zero column keeps its prox input at a signed zero, and a repeated
    # column ties two magnitudes in the sort
    X = RationalMatrix.from_rows([[2, 0, Fraction(1, 2), 2], [Fraction(-4, 3), 0, 5, Fraction(-4, 3)]])
    for norm in (l1_norm(4, Fraction(3, 2)), sup_norm(4), slope_norm([3, 3, 1, Fraction(1, 2)])):
        for x0 in (None, (0.0, -0.0, -0.0, 0.0)):
            cases.append((X, vec([7, Fraction(-5, 2)]), norm, SolverOptions(x0=x0)))
    # from _ARRAY_PROX_FROM on, a repeated column ties two sup prox inputs
    # and two zero columns keep two at signed zeros, so the ranked tail ties
    # and the running sum falls back to _array_prox
    rows = [[rng.gauss(0, 1) for _ in range(at)] for _ in range(8)]
    for row in rows:
        row[1], row[2], row[3] = row[0], 0.0, 0.0
    tied = np.array(rows)
    for x0 in (None, tuple(-0.0 if j % 2 else 0.0 for j in range(at))):
        cases.append((tied, [3 * rng.gauss(0, 1) for _ in range(8)], sup_norm(at),
                      SolverOptions(max_iter=1000, x0=x0)))
    fallbacks = []
    monkeypatch.setattr(solvers_module, "_array_prox",
                        lambda v, w, real=solvers_module._array_prox: fallbacks.append(v) or real(v, w))
    converged = 0
    for X, y, norm, options in cases:
        fallbacks.clear()
        got = solve_penalized(X, y, norm, options)
        assert _hex_record(got) == _hex_record(_reference_solve(X, y, norm, options))
        assert bool(fallbacks) or X is not tied
        converged += got.converged
    # both outcomes of the certificate are compared
    assert 0 < converged < len(cases)


def test_array_prox_matches_the_list_prox():
    # the numpy framing ranks, pools and restores to the list framing's
    # doubles, and the penalty the prox reads off its ranking is the norm's
    # own value of the point, on both sides of the size threshold
    rng = random.Random(61)
    at = solvers_module._ARRAY_PROX_FROM
    grid = (0.0, -0.0, 0.25, -0.25, 1.5, -1.5)
    seen = {"clipped": 0, "negative zero out": 0, "tie": 0, "positive": 0}
    for trial in range(400):
        p = rng.choice((1, 2, 3, at - 1, at, 50))
        strict = sorted((Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(p)),
                        reverse=True)
        norm = rng.choice((sup_norm(p), slope_norm(strict), slope_norm([strict[0]] * p),
                           slope_norm(strict[: (p + 1) // 2] + [0] * (p // 2))))
        fnorm = norm._form.floats
        step = rng.choice((1.0, 0.05, 1e-3))
        if trial % 50 == 0:
            v = [rng.choice((0.0, -0.0)) for _ in range(p)]
        else:
            v = [rng.choice(grid) if rng.random() < 0.5 else rng.gauss(0, 3) for _ in range(p)]
        w = [x * step for x in fnorm.weights]
        out, ranked = solvers_module._list_prox(v, w)
        array_out, array_ranked = solvers_module._array_prox(np.array(v), np.array(w))
        assert list(map(float.hex, array_out.tolist())) == list(map(float.hex, out))
        assert list(map(float.hex, array_ranked)) == list(map(float.hex, ranked))
        point, penalty = solvers_module._prox_for(fnorm, step)(np.array(v))
        assert list(map(float.hex, point.tolist())) == list(map(float.hex, out))
        assert penalty.hex() == fnorm.value(out).hex()
        seen["clipped"] += any(math.copysign(1, t) < 0 for t in ranked)
        seen["negative zero out"] += any(t == 0 and math.copysign(1, t) < 0 for t in out)
        seen["tie"] += len(set(map(abs, v))) < p
        seen["positive"] += ranked[0] > 0
    assert min(seen.values()) > 0, seen


def _sup_prox_inputs(rng, p):
    """(label, v, step) for the sup prox at dimension p: ||v||_1 <= t, ties
    at the pooled block's boundary and in its tail, and +-inf and NaN
    entries. Python's sort and numpy's argsort rank a NaN alike only where
    it already sits last, so NaNs follow magnitudes sorted in descending
    order."""
    signed_zeros = [-0.0 if j % 3 else 0.0 for j in range(p)]
    spread = [rng.choice((1, -1)) * rng.uniform(0, 1) / p for _ in range(p)]
    yield "inside the ball", [x if j % 4 else z for j, (x, z) in enumerate(zip(spread, signed_zeros))], 1.0
    yield "all zero", signed_zeros, 0.05
    # d = (L, ..., L, tail) with k + 1 entries L: each comparison up to the
    # block's boundary is an equality, so the tie pools into the block
    k, level = rng.randint(1, p - 2), rng.choice((0.5, 1.5, 3.0))
    tail = sorted((rng.uniform(0, level) for _ in range(p - k - 1)), reverse=True)
    mags = [level + 1.0] + [level] * k + tail
    yield "boundary tie", [rng.choice((1, -1)) * m for m in rng.sample(mags, p)], 1.0
    mags = [5.0, 4.0] + sorted((rng.uniform(0, 3) for _ in range(p - 3)), reverse=True)
    mags.insert(rng.randint(3, p - 1), mags[rng.randint(2, p - 2)])
    yield "tail tie", [rng.choice((1, -1)) * m for m in rng.sample(mags, p)], 0.05
    v = [rng.gauss(0, 3) for _ in range(p)]
    for j in rng.sample(range(p), rng.randint(1, 3)):
        v[j] = rng.choice((math.inf, -math.inf))
    yield "infinite", v, rng.choice((1.0, 0.05))
    r = rng.randint(1, 2)
    v = sorted((rng.gauss(0, 0.3) for _ in range(p - r)), key=abs, reverse=True)
    yield "nan", v + [rng.choice((math.nan, -math.nan)) for _ in range(r)], rng.choice((1.0, 0.05))
    yield "gaussian", [rng.gauss(0, 3) for _ in range(p)], rng.choice((1.0, 0.05, 1e-3))


def test_sup_prox_pools_by_one_running_sum(monkeypatch):
    # from _ARRAY_PROX_FROM on, the sup prox pools its one leading block by
    # a running sum, to the list framing's doubles and penalty; a tail that
    # ties or holds a NaN pools through _array_prox, and below the threshold
    # the list framing runs unchanged
    calls = []
    for name in ("_sup_array_prox", "_array_prox"):
        real = getattr(solvers_module, name)
        monkeypatch.setattr(solvers_module, name, lambda *args, name=name, real=real, **kwargs:
                            calls.append(name) or real(*args, **kwargs))
    rng = random.Random(67)
    at = solvers_module._ARRAY_PROX_FROM
    tally = {}
    for trial in range(40):
        for p in (at - 1, at, 50):
            fnorm = sup_norm(p)._form.floats
            for label, v, step in _sup_prox_inputs(rng, p):
                out, ranked = solvers_module._list_prox(v, [step] + [0.0] * (p - 1))
                calls.clear()
                point, penalty = solvers_module._prox_for(fnorm, step)(np.array(v))
                assert list(map(float.hex, point.tolist())) == list(map(float.hex, out)), (label, v)
                assert penalty.hex() == abs(ranked[0]).hex()
                if label != "nan":
                    assert penalty.hex() == fnorm.value(out).hex()
                if label == "inside the ball":
                    assert all(t == 0 and math.copysign(1, t) < 0 for t in ranked)
                route = {(): "list", ("_sup_array_prox",): "running sum",
                         ("_sup_array_prox", "_array_prox"): "fallback"}[tuple(calls)]
                assert (route == "list") == (p < at)
                tally[label, route] = tally.get((label, route), 0) + 1
    # a tie in the tail always falls back, a tie up to the block's boundary
    # never does, and every other kind of input has run the running sum
    assert tally["tail tie", "fallback"] == tally["boundary tie", "running sum"] == 80, tally
    assert tally["nan", "fallback"] > 0, tally
    for label in ("inside the ball", "all zero", "infinite", "gaussian"):
        assert tally[label, "running sum"] > 0, tally


def test_a_rational_design_keeps_one_float_view_and_one_step(monkeypatch):
    # every solve of one rational design (and of an equal one) reads one
    # read-only float view and one power iteration; float inputs are
    # converted and iterated per call, as before, to the same doubles
    calls = []
    monkeypatch.setattr(solvers_module, "_lipschitz",
                        lambda Xf, real=_lipschitz: calls.append(Xf) or real(Xf))
    solvers_module._float_view.cache_clear()
    solvers_module._design_step.cache_clear()
    X = RationalMatrix.from_rows([[2, 1, 0], [1, -1, 3]])
    y = vec([3, -1])
    first = [solve_penalized(X, y, norm) for norm in (l1_norm(3), sup_norm(3), slope_norm([3, 2, 1]))]
    again = solve_penalized(RationalMatrix.from_rows(X.rows), y, l1_norm(3))
    assert len(calls) == 1 and _hex_record(again) == _hex_record(first[0])
    view = solvers_module._float_matrix(X)
    assert view is calls[0] and not view.flags.writeable
    rows = [[2.0, 1.0, 0.0], [1.0, -1.0, 3.0]]
    arr = np.array(rows)
    for M in (rows, arr):
        assert _hex_record(solve_penalized(M, y, l1_norm(3))) == _hex_record(first[0])
    assert len(calls) == 3
    assert solvers_module._float_matrix(arr) is arr and arr.flags.writeable


def test_solve_bp_examples():
    X = RationalMatrix.from_rows([[1, 2]])
    sol = solve_bp(X, [1])
    assert sol.point == (0, Fraction(1, 2))
    assert sol.objective == Fraction(1, 2)
    assert sol.certificate.passed

    X2 = RationalMatrix.from_rows([[1, 1]])
    sol2 = solve_bp(X2, [2])
    assert sol2.objective == 2
    assert sol2.point in ((2, 0), (0, 2))
    assert bp_certificate_holds(X2, sol2.point, bp_dual_certificate(X2, sol2.point))

    with pytest.raises(ValueError):
        solve_bp(RationalMatrix.from_rows([[0, 0]]), [1])


def test_solve_bp_certificate_matches_the_fraction_reference():
    # the certificate pairs the vertex b with s = X'z for the gauge LP's
    # optimal dual z; its dual norm and gap are those of Fraction arithmetic,
    # values and types, and it passes
    rng = random.Random(3)
    solved = 0
    for _ in range(200):
        n, p = rng.randint(1, 3), rng.randint(2, 5)
        X = RationalMatrix.from_rows([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p)]
                                      for _ in range(n)])
        y = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        try:
            sol = solve_bp(X, y)
        except ValueError:  # y outside the column space
            continue
        solved += 1
        b, s, l1 = sol.point, sol.certificate.dual_vector, l1_norm(p)
        want = Certificate(s, dual_norm_value(l1, s), abs(dot(b, s) - norm_value(l1, b)), 0, True)
        assert sol.certificate == want and repr(sol.certificate) == repr(want)
        assert rowspace_preimage(X, s) is not None
    assert solved > 150


def test_bp_dual_certificate_detects_suboptimal():
    X = RationalMatrix.from_rows([[1, 2]])
    # b = (1, 0) satisfies Xb = 1 but is not l1-minimal
    assert bp_dual_certificate(X, vec([1, 0])) is None
    assert bp_dual_certificate(X, vec([0, "0.5"])) is not None


def test_bp_certificate_rejects_wrong_lengths():
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert bp_certificate_holds(X, vec([1, 0]), vec([1, 0]))
    for b in ([1], [1, 0, 0]):
        with pytest.raises(ValueError):
            bp_certificate_holds(X, vec(b), vec([1, 0]))


def test_bp_certificate_bounds_match_their_definition():
    # on X = I, so that X'z = s / den, and on X = lam I with z = s / (den
    # lam) and b scaled by a positive mu, with and without a tolerance, the
    # check decides |s_j / den| <= 1 + tol, and |s_j / den - sign(b_j)| <=
    # tol on the support of b
    rng = random.Random(17)
    for _ in range(2000):
        p = rng.randint(1, 4)
        den = rng.randint(1, 4)
        s = [rng.randint(-5, 5) for _ in range(p)]
        b = [rng.randint(-1, 1) for _ in range(p)]
        tol = rng.choice((0, 0, Fraction(1, 4), Fraction(1, 2)))
        want = (all(abs(Fraction(v, den)) <= 1 + tol for v in s)
                and all(abs(Fraction(v, den) - x) <= tol for v, x in zip(s, b) if x))
        eye = [[int(i == j) for j in range(p)] for i in range(p)]
        z = [Fraction(v, den) for v in s]
        assert bp_certificate_holds(RationalMatrix.from_rows(eye), vec(b), z, tol) == want
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        mu = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled = RationalMatrix.from_rows([[lam * x for x in row] for row in eye])
        assert bp_certificate_holds(scaled, [mu * x for x in b], [v / lam for v in z], tol) == want


def test_norm_min_l1():
    X = RationalMatrix.from_rows([[1, 1]])
    val, b = norm_min_subject_to(X, vec([1, 1]), l1_norm(2))
    assert val == 2 and X.matvec(b) == (2,)
    val, _ = norm_min_subject_to(X, vec([1, -1]), l1_norm(2))
    assert val == 0
    # scale multiplies the value
    val, _ = norm_min_subject_to(X, vec([1, 1]), l1_norm(2, scale=3))
    assert val == 6
    # non-integer scale: value and the unique minimizer b = (0, 1/2)
    norm = l1_norm(2, scale=Fraction(3, 2))
    val, b = norm_min_subject_to(RationalMatrix.from_rows([[1, 2]]), vec([1, 0]), norm)
    assert val == Fraction(3, 4) and b == (0, Fraction(1, 2))
    assert norm_value(norm, b) == val


def test_norm_min_sup():
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    val, b = norm_min_subject_to(X, vec([2, -1]), sup_norm(2))
    assert val == 2 and b == (2, -1)
    # rank-deficient 1x3: min ||b||_inf s.t. a'b = r is |r| / ||a||_1
    X = RationalMatrix.from_rows([[1, 2, -1]])
    target = vec([1, 1, 1])
    val, b = norm_min_subject_to(X, target, sup_norm(3))
    assert val == Fraction(1, 2)
    assert X.matvec(b) == X.matvec(target)
    assert norm_value(sup_norm(3), b) == val


def slope_min_bruteforce(X, target, w):
    """Minimum of the sorted-l1 norm over the fiber, by exhausting every
    sign/order region and solving the linear piece on each. On the region of
    signs t and order perm the variables are the magnitudes a_j = t_j b_j,
    which are nonnegative there."""
    p = X.ncols
    rhs = X.matvec(target)
    zero = Fraction(0)
    best = None
    for signs in itertools.product((1, -1), repeat=p):
        a_eq = tuple(tuple(x * t for x, t in zip(row, signs)) for row in X.rows)
        for perm in itertools.permutations(range(p)):
            c = [zero] * p
            for pos, j in enumerate(perm):
                c[j] = w[pos]
            a_ub = []
            for pos in range(1, p):
                row = [zero] * p
                row[perm[pos]] = Fraction(1)
                row[perm[pos - 1]] = Fraction(-1)
                a_ub.append(tuple(row))
            res = lp_solve(
                LinearProgram(
                    c=tuple(c),
                    a_eq=a_eq,
                    b_eq=rhs,
                    a_ub=tuple(a_ub),
                    b_ub=tuple(zero for _ in a_ub),
                )
            )
            if res.status == OPTIMAL and (best is None or res.value < best):
                best = res.value
    return best


def test_norm_min_slope_against_bruteforce():
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(1, 2)
        p = rng.randint(2, 3)
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(n)]
        )
        target = vec([Fraction(rng.randint(-2, 2)) for _ in range(p)])
        w = vec(sorted({Fraction(rng.randint(1, 9)) for _ in range(p)}, reverse=True))
        while len(w) < p:
            w = w + (w[-1] / 2,)
        norm = slope_norm(w)
        val, b = norm_min_subject_to(X, target, norm)
        assert X.matvec(b) == X.matvec(target)
        assert norm_value(norm, b) == val
        assert val == slope_min_bruteforce(X, target, w)
        assert val <= norm_value(norm, target)
    # tied weights: some sphere points in the gauge LP are not vertices
    X = RationalMatrix.from_rows([[1, -2, 1], [0, 1, 3]])
    for w in (vec([3, 3, 1]), vec([3, 1, 1]), vec([2, 2, 2])):
        for target in (vec([1, 1, 0]), vec([2, -1, 1]), vec([0, 1, -2])):
            norm = slope_norm(w)
            val, b = norm_min_subject_to(X, target, norm)
            assert X.matvec(b) == X.matvec(target)
            assert norm_value(norm, b) == val
            assert val == slope_min_bruteforce(X, target, w)


def test_norm_min_slope_p4_case():
    X = RationalMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    w = vec([4, 3, 2, 1])
    target = vec([2, 0, 1, 1])
    val, b = norm_min_subject_to(X, target, slope_norm(w))
    assert val == slope_min_bruteforce(X, target, w)

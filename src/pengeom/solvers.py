"""Solvers: proximal operators, a FISTA route for penalized least squares,
and one exact gauge LP that serves both basis pursuit and norm minimization
over the fiber {b : Xb = X target}.

The gauge LP writes b as a nonnegative combination of the primal unit ball's
vertices V, so ||b|| = min sum(lam) over b = V lam for every polytope norm;
only V depends on the norm. Its dual feasible set is the zero-solution region
D = {u : ||X'u||_* <= 1}, so the least norm is max <X target, u> over the
vertices of D, which is how the analytic accessibility route reads it without
an LP, from X'u over D's vertices as norms._zero_region keeps them per
(design, norm); and for l1 the LP's optimal dual u at y = Xb is a basis
pursuit dual certificate for b whenever ||b||_1 attains the least norm.

The float route never decides anything: it produces a candidate point plus a
KKT certificate, and only the certificate (exact on rational inputs, with an
explicit tolerance on float ones) is trusted downstream. Its sorted-l1
and sup prox pools with the same PAVA loop as the exact prox_slope, with
weights checked once per solve, in one of two framings chosen by p: below
_ARRAY_PROX_FROM coordinates it ranks and restores on Python lists, as
prox_slope does; from there on numpy ranks (a stable argsort), thresholds,
scatters and restores the signs, and only the pool runs in Python. From
there on sup pools by one running sum instead (_sup_array_prox): its weights
are (t, 0, ..., 0), so PAVA merges one leading block, found from a cumsum
and the products PAVA compares; a tail with a tie or a NaN, which PAVA would
pool too, falls back to the numpy framing. All give the same doubles. The
prox returns the penalty of its point with it, read off its own ranking, so
the objective sorts nothing. The float certificate reads the norm's float
form from norms.py, and the penalty pairs that form's weights with the
ranked magnitudes as its value does, so every float they compute is the one
norm_value and dual_norm_value give with the norm's Fractions on the same
doubles. Every exact certificate, basis pursuit's included, comes from one
integer builder (_certificate) of a dual vector S / den and a point B / f:
the dual norm and the gap come from the norm's integer weights, and
Fractions are formed only for the fields, with the values Fraction
arithmetic gives. The penalized check (_exact_check) splits y - Xb in
integers once, which also gives the objective; basis pursuit hands the
builder X'z for the gauge LP's optimal dual z.

One FISTA loop (_fista) serves solve_penalized, which never polishes, and
the fits of analysis, which do on a rational design and response
(_polisher, the one place that decides that): each piece tried is a linear
piece of the penalty, whose minimizer the reduced normal equations give
exactly, and the first such point that certifies at tol 0 ends the loop.
The first piece is the zero piece, b = 0, decided by an integer test of
X'y against the dual ball before any float work; the others are named by
the patterns read off the iterate. A fit that no piece certifies keeps its
float answer, bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .exact import RationalMatrix, Vector, _solve_map_of, _SolveMap, clear_denominators, vec
from .geometry import _model_blocks, model_of
from .lp import OPTIMAL, LinearProgram, lp_solve
from .norms import (
    L1,
    SUP,
    PolytopeNorm,
    _NormForm,
    _gauge_rows,
    _integer_primal_ball_vertices,
    l1_norm,
    norm_value,
)


def prox_l1(v: Sequence, threshold) -> tuple:
    """Soft thresholding, componentwise; exact on Fractions."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    out = []
    for x in v:
        if x > threshold:
            out.append(x - threshold)
        elif x < -threshold:
            out.append(x + threshold)
        else:
            out.append(0 * x)
    return tuple(out)


def prox_slope(v: Sequence, w: Sequence) -> tuple:
    """Prox of the sorted-l1 penalty with weight vector w (nonincreasing,
    nonnegative): sort magnitudes, subtract weights, project onto the
    nonincreasing nonnegative cone by stack-based pool-adjacent-violators
    (Bogdan et al. 2015), then restore signs and positions. Exact on
    Fractions. FISTA's sup and slope prox pools with the same loop, with its
    weights checked once per solve."""
    _check_prox_weights(len(v), w)
    return tuple(_list_prox(v, w)[0])


def _check_prox_weights(p: int, w: Sequence) -> None:
    if len(w) != p:
        raise ValueError("dimension mismatch")
    if any(a < b for a, b in zip(w, w[1:])) or (p and w[p - 1] < 0):
        raise ValueError("weights must be nonincreasing and nonnegative")


def _pava(d: Sequence) -> list:
    """Pool adjacent violators: the projection of d, the ranked magnitudes
    less their weights, onto the nonincreasing nonnegative cone, which is
    the prox point's ranked magnitudes. A negative block average is clipped
    to 0 * avg, a signed zero on floats."""
    sums: list = []
    counts: list[int] = []
    for x in d:
        s, c = x, 1
        while sums and sums[-1] * c <= s * counts[-1]:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    ranked = []
    for s, c in zip(sums, counts):
        avg = s / c
        ranked += [0 * avg if avg < 0 else avg] * c
    return ranked


def _list_prox(v: Sequence, w: Sequence) -> tuple[list, list]:
    """(prox point, its ranked magnitudes) on lists, for checked weights:
    a stable descending sort on abs, so tied magnitudes keep their index
    order, the PAVA pool, then signs and positions restored."""
    p = len(v)
    mags = [abs(x) for x in v]
    order = sorted(range(p), key=mags.__getitem__, reverse=True)
    ranked = _pava([mags[j] - wi for j, wi in zip(order, w)])
    out = [None] * p
    for j, level in zip(order, ranked):
        x = v[j]
        out[j] = level if x > 0 else (-level if x < 0 else 0 * level)
    return out, ranked


def _array_prox(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, list]:
    """_list_prox for a float array, with numpy ranking and restoring
    around the same pool, to the same doubles: a stable argsort of -|v|
    ranks ties by index as the stable descending sort does, and
    np.sign(+-0.0) is +0.0, so level * sign(v) is level, -level or
    0 * level."""
    mags = np.abs(v)
    order = np.argsort(-mags, kind="stable")
    ranked = _pava((mags[order] - w).tolist())
    out = np.empty_like(v)
    out[order] = ranked
    return out * np.sign(v), ranked


def _sup_array_prox(v: np.ndarray, w: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, float]:
    """(prox point, its sup norm) for the weights w = (t, 0, ..., 0) and
    js = (1, ..., p - 1), to _array_prox's doubles. The ranked magnitudes
    less w are d = (m1 - t, m2, ...), nonincreasing after the first, so
    PAVA pools one leading block (the l1-ball projection's threshold,
    Duchi et al. 2008): cumsum is a left fold, so cs[j - 1] is that block's
    sum in PAVA's own order, and the block takes j + 1 while
    cs[j - 1] * 1 <= d[j] * j, the products PAVA compares. A strictly
    decreasing tail never pools and keeps d; a tail with a tie or a NaN
    would pool, so that call goes through _array_prox."""
    mags = np.abs(v)
    order = np.argsort(-mags, kind="stable")
    d = mags[order] - w
    cs = d.cumsum()
    pools = cs[:-1] <= d[1:] * js
    k = int(pools.argmin()) + 1
    if pools[k - 1]:
        k = len(d)
    if not (d[k:-1] > d[k + 1:]).all():
        out, ranked = _array_prox(v, w)
        return out, abs(ranked[0])
    avg = float(cs[k - 1]) / k
    d[:k] = 0 * avg if avg < 0 else avg
    out = np.empty_like(v)
    out[order] = d
    return out * np.sign(v), abs(float(d[0]))


@dataclass(frozen=True)
class Certificate:
    """Optimality evidence for min 0.5||y - Xb||^2 + ||b||: the dual vector
    s = X'(y - Xb) must sit in the dual ball and pair exactly with b."""

    dual_vector: tuple
    dual_norm: object
    pairing_gap: object
    tol: object
    passed: bool


def kkt_certify(X, y: Sequence, b: Sequence, norm: PolytopeNorm, tol=0) -> Certificate:
    """Exact when X, y, b are rational and tol = 0, in integers; float
    otherwise, where the dual norm, the gap and the verdict read the norm's
    float form; y and b are rational when their entries are ints, Fractions
    or literal strings."""
    shape = X.shape if isinstance(X, RationalMatrix) else np.shape(X)
    if (len(y), len(b)) != shape or norm.dim != len(b):
        raise ValueError("dimension mismatch")
    if isinstance(X, RationalMatrix) and tol == 0 and all(
            isinstance(x, (int, Fraction, str)) for x in (*y, *b)):
        return _exact_check(X, vec(y), vec(b), norm._form)[0]
    Xf = _float_matrix(X)
    bf = np.asarray(b, dtype=float)
    sf = Xf.T @ (np.asarray(y, dtype=float) - Xf @ bf)
    s, form = tuple(sf.tolist()), norm._form.floats
    dn = form.dual_value(s)
    gap = abs(float(np.dot(bf, sf)) - form.value(bf.tolist()))
    return Certificate(s, dn, gap, tol, dn <= 1 + tol and gap <= tol)


def _exact_check(X: RationalMatrix, y: Vector, b: Vector, form: _NormForm
                 ) -> tuple[Certificate, Callable[[], Fraction]]:
    """The tol-0 certificate of b for min 0.5||y - Xb||^2 + ||b|| and a
    function that forms the objective, from one integer split: with
    X = R / d, y = Y / e and b = B / f, the residual is r / D for
    r = d f Y - e R B and D = d e f, the dual vector s = X'(y - Xb) is
    R'r / (d D), and the objective is one Fraction over 2 D^2 g f, g the
    weights' denominator. The objective is formed only when called for, so
    kkt_certify, which returns the certificate alone, pays for none."""
    d, rows, cols = X._integer_form
    e, (Y,) = clear_denominators((y,))
    f, (B,) = clear_denominators((b,))
    D = d * e * f
    r = [d * f * t - e * sum(map(operator.mul, row, B)) for row, t in zip(rows, Y)]
    g = form.integers[0]
    return (_certificate([sum(map(operator.mul, c, r)) for c in cols], d * D, B, f, form),
            lambda: Fraction(g * f * sum(t * t for t in r) + 2 * D * D * form.integer_value(B),
                             2 * D * D * g * f))


def _certificate(S: Sequence[int], den: int, B: Sequence[int], f: int, form: _NormForm) -> Certificate:
    """The one builder of a tol-0 Certificate: the dual vector s = S / den
    against the point b = B / f, all integers, den and f > 0. With g the
    weights' denominator, the dual norm comes from the norm's integer
    weights and the gap |<b, s> - ||b||| is |g <B, S> - den g ||B||| /
    (f den g). Fractions are formed only for the fields, one per entry of
    s, one for the dual norm and one for the gap, so their values are those
    of Fraction arithmetic."""
    g = form.integers[0]
    dn = form.exact_dual_value(S, den)
    gap = Fraction(abs(g * sum(map(operator.mul, B, S)) - den * form.integer_value(B)), f * den * g)
    return Certificate(tuple(Fraction(x, den) for x in S), dn, gap, 0, dn <= 1 and not gap)


def _float_matrix(X) -> np.ndarray:
    """X as a float array: one read-only view per RationalMatrix design, an
    ndarray or nested lists through np.asarray."""
    return _float_view(X) if isinstance(X, RationalMatrix) else np.asarray(X, dtype=float)


@functools.lru_cache(maxsize=64)
def _float_view(X: RationalMatrix) -> np.ndarray:
    # every solve, certificate and fit of one design reads the same floats
    Xf = X.to_float_array()
    Xf.flags.writeable = False
    return Xf


@functools.lru_cache(maxsize=64)
def _design_step(X: RationalMatrix) -> float:
    # the FISTA step of a rational design, one power iteration per design
    return _step(_float_view(X))


def _step(Xf: np.ndarray) -> float:
    L = _lipschitz(Xf) * (1 + 1e-6)
    return 1.0 / L if L > 0 else 1.0


@dataclass(frozen=True)
class Solution:
    point: tuple
    objective: object
    route: str
    certificate: Certificate | None = None
    iterations: int = 0
    converged: bool = True


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 100_000
    tol: float = 1e-9
    x0: tuple | None = None


# FISTA iterations between two certificate checks
_CERTIFY_EVERY = 25

# FISTA iterations between two exact polishes (_polisher), a divisor of
# _CERTIFY_EVERY, so the first comes before the first check and every
# check is preceded by one. On the seed-1 solve-batch fits, a first polish
# at 5 and then one per check took 37% more iterations, and a polish whose
# pattern repeats costs one pattern read.
_POLISH_EVERY = 5

# patterns read off a float iterate: magnitudes within this of each other
# form one cluster, and within this of zero count as zero
_PATTERN_TOL = 1e-6

# from this many coordinates on, the slope prox ranks and restores with
# numpy around the pool (_array_prox) and the sup prox pools by one running
# sum (_sup_array_prox, which falls back to _array_prox on a tail tie);
# below it both run on lists (_list_prox): numpy's fixed cost per call
# loses at small p and its lower cost per entry wins at large p.
# Microseconds per sup prox call, list / numpy / running sum, on Gaussian
# inputs at step 0.05, best of four runs back to back (2-vCPU Intel Xeon
# VM, CPython 3.11, numpy 2.4):
#   p = 3: 3.5 / 6.5 / 9.4      p = 8: 6.4 / 8.4 / 9.4     p = 12: 9.0 / 10.4 / 10.0
#   p = 16: 11.2 / 12.0 / 10.2  p = 20: 13.2 / 13.9 / 10.4
#   p = 30: 19.5 / 17.7 / 10.7  p = 50: 30.5 / 25.2 / 11.5
_ARRAY_PROX_FROM = 16


def _prox_for(fnorm: _NormForm, step: float):
    """The prox of step times the norm, as v -> (point, ||point||); for sup
    and slope the norm is read off the prox's own ranking, so it costs no
    second sort."""
    if fnorm.kind == L1:
        t = fnorm.scale * step

        def prox(v):
            b = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
            return b, fnorm.value(b.tolist())

        return prox
    # sup is the sorted-l1 norm of (1, 0, ..., 0), whose value is the first
    # ranked magnitude; the slope value pairs the weights with the ranked
    # magnitudes as fnorm.value does, to the same double
    weights = fnorm.weights
    w = [x * step for x in weights]
    _check_prox_weights(len(w), w)
    if fnorm.kind == SUP:
        def penalty(ranked):
            return abs(ranked[0])
    else:
        def penalty(ranked):
            return sum(map(operator.mul, weights, ranked))
    if len(w) < _ARRAY_PROX_FROM:
        def prox(v):
            out, ranked = _list_prox(v.tolist(), w)
            return np.asarray(out), penalty(ranked)
    elif fnorm.kind == SUP:
        wa, js = np.asarray(w), np.arange(1.0, len(w))
        return functools.partial(_sup_array_prox, w=wa, js=js)
    else:
        wa = np.asarray(w)

        def prox(v):
            out, ranked = _array_prox(v, wa)
            return out, penalty(ranked)
    return prox


def _lipschitz(Xf: np.ndarray) -> float:
    """Largest eigenvalue of X'X by power iteration (deterministic start)."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(Xf.shape[1])
    v /= np.linalg.norm(v) or 1.0
    lam = 0.0
    for _ in range(1000):
        u = Xf.T @ (Xf @ v)
        nu = np.linalg.norm(u)
        if nu == 0:
            return 0.0
        new_lam = float(v @ u)
        v = u / nu
        if abs(new_lam - lam) <= 1e-15 * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return lam


def solve_penalized(
    X, y: Sequence, norm: PolytopeNorm, options: SolverOptions = SolverOptions()
) -> Solution:
    """FISTA with adaptive restart; stops when the KKT certificate passes at
    options.tol. The returned flag `converged` reports certification, not
    iteration exhaustion. It never polishes, so every double it returns is
    the float route's, on rational inputs as well."""
    return _fista(X, y, norm, options, False)


def _fista(X, y: Sequence, norm: PolytopeNorm, options: SolverOptions, polish: bool) -> Solution:
    """The one FISTA loop, for solve_penalized and analysis._fit.

    With polish on a rational design and response (_polisher), the zero
    piece is tried first, before any float work, and a response in the
    zero-solution region ends there at iteration 0. Otherwise the pattern
    read off the iterate every _POLISH_EVERY iterations is solved exactly
    on its linear piece, and the first point that certifies at tol 0 ends
    the loop as an "exact" Solution. The polish leaves the iterate alone,
    so a fit that no polish certifies returns the float Solution it
    returns without polish, bit for bit. A response or norm that does not
    fit X's shape is refused first, rational or float."""
    n, p = X.shape if isinstance(X, RationalMatrix) else np.shape(X)
    if len(y) != n or norm.dim != p:
        raise ValueError("dimension mismatch")
    exact = _polisher(X, y, norm) if polish else None
    if exact is not None:
        sol = exact(None, 0)
        if sol is not None:
            return sol
    Xf = _float_matrix(X)
    yf = np.asarray([float(t) for t in y])
    x = np.zeros(p) if options.x0 is None else np.asarray([float(t) for t in options.x0])
    if x.shape != (p,):
        raise ValueError("dimension mismatch")
    step = _design_step(X) if isinstance(X, RationalMatrix) else _step(Xf)
    fnorm = norm._form.floats
    prox = _prox_for(fnorm, step)

    def objective(b, penalty):
        r = yf - Xf @ b
        return 0.5 * float(r @ r) + penalty

    z = x.copy()
    t_mom = 1.0
    f_prev = objective(x, fnorm.value(x.tolist()))
    it = 0
    while it < options.max_iter:
        it += 1
        grad = Xf.T @ (Xf @ z - yf)
        cand, penalty = prox(z - step * grad)
        f_cand = objective(cand, penalty)
        if f_cand > f_prev:
            # overshoot: kill the momentum and take the plain descent step
            # from the last accepted iterate, which cannot increase the
            # objective, so accepted objectives stay nonincreasing
            grad = Xf.T @ (Xf @ x - yf)
            cand, penalty = prox(x - step * grad)
            f_cand = objective(cand, penalty)
            t_mom = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = cand + ((t_mom - 1.0) / t_new) * (cand - x)
        x, t_mom = cand, t_new
        f_prev = f_cand
        # f_prev is the objective of the accepted iterate x
        if exact is not None and it % _POLISH_EVERY == 0:
            sol = exact(x, it)
            if sol is not None:
                return sol
        if it % _CERTIFY_EVERY == 0:
            cert = kkt_certify(Xf, yf, x, norm, tol=options.tol)
            if cert.passed:
                return Solution(tuple(x.tolist()), f_prev, "fista", cert, it, True)
    cert = kkt_certify(Xf, yf, x, norm, tol=options.tol)
    return Solution(tuple(x.tolist()), f_prev, "fista", cert, it, cert.passed)


# ---------------------------------------------------------------------------
# exact polish of a FISTA iterate


def _polisher(X, y: Sequence, norm: PolytopeNorm):
    """(x, it) -> the exact Solution on the linear piece of x's pattern, or
    None; None itself for a float design or response, which never polish.
    This is the one place that decides whether a fit's inputs are rational;
    _fista has checked their shapes.

    x None names the zero piece, the one with no free column: b = 0 is the
    minimizer iff X'y = q / (d e) lies in the dual ball, decided in
    integers before any certificate is built; a zero piece that fails is
    marked tried, so an iterate that reads as all zero is skipped, and
    every other piece has a column, its top block taking w1 > 0. On the
    piece an iterate's pattern names, the penalty is linear, w_U'c for b = Uc
    (_piece_columns), so the minimizer there solves the reduced normal
    equations U'X'XU c = U'X'y - w_U: the equicorrelation / active-set form
    (Tibshirani 2013; Bogdan et al. 2022). With X = R / d, y = Y / e and
    the integer weights W / g, they are (U'GU) (e g c) = d g U'q - d^2 e W_U
    for G = R'R and q = R'Y, solved through one solve map per reduced
    matrix (_reduced_map). b is kept only if it certifies at tol 0.
    A pattern already tried gives the same b, so it is skipped. So is a
    piece of more columns than X has rows: U'X'XU is singular there, the
    minimizer on it is not unique, and the elimination would grow with p
    instead of n (on a 20x50 rational sup fit such pieces took 30 times as
    long as FISTA); those fits keep the float answer."""
    if not isinstance(X, RationalMatrix):
        return None
    try:
        yy = vec(y)
    except TypeError:  # float response
        return None
    d, _, cols = X._integer_form
    e, (Y,) = clear_denominators((yy,))
    q = [sum(map(operator.mul, c, Y)) for c in cols]
    form = norm._form
    g, W, _ = form.integers
    tried = set()

    def polish(x, it):
        if x is None:
            if form.exact_dual_value(q, d * e) > 1:
                tried.add((0,) * len(q))
                return None
            b = (Fraction(0),) * len(q)
        else:
            m = model_of(x.tolist(), _PATTERN_TOL)
            if m in tried:
                return None
            tried.add(m)
            G = X._integer_gram
            columns = _piece_columns(m, W, [bool(G[j][j]) for j in range(len(G))])
            if len(columns) > len(yy):
                return None
            b = _piece_point(G, q, columns, d * g, d * d * e, e * g)
            if b is None:
                return None
        cert, objective = _exact_check(X, yy, b, form)
        return Solution(b, objective(), "exact", cert, it, True) if cert.passed else None

    return polish


def _piece_columns(m: Sequence[int], w: Sequence[int], live: Sequence[bool]) -> tuple:
    """The columns of the linear piece of model m under the permutohedron
    weights w, as (((coordinate, sign), ...), weight) in block order.

    A level block whose weight chunk is not constant ties its coordinates:
    one signed indicator column, weighted by the chunk's sum. A constant
    chunk ties nothing (the face is that of the block split into single
    coordinates), so each coordinate is a column of its own, weighted by
    the constant; a zero constant makes it free, with weight 0, which
    covers sup below its top cluster and zero-weight slope levels. The
    zero block pins its coordinates at 0, unless its chunk is all zero,
    when they are free as well. A free coordinate on a zero column of X
    (live false) stays at 0."""
    cols = []
    for block in _model_blocks(m, w)[0]:
        chunk = block.weights
        if block.signed and chunk[0]:
            continue
        signed = tuple((j, -1 if m[j] < 0 else 1) for j in block.coords)
        if chunk[0] == chunk[-1]:
            cols += [((t,), chunk[0]) for t in signed if chunk[0] or live[t[0]]]
        else:
            cols.append((signed, sum(chunk)))
    return tuple(cols)


def _piece_point(G, q, columns, scale_q: int, scale_w: int, den: int) -> Vector | None:
    """b = Uc for the solution c = c' / den of (U'GU) c' = scale_q U'q -
    scale_w w_U, with the free variables at 0; None when it has none."""
    b = [Fraction(0)] * len(G)
    A = tuple(tuple(sum(s * t * G[i][j] for i, s in u for j, t in v) for v, _ in columns)
              for u, _ in columns)
    rhs = [scale_q * sum(s * q[i] for i, s in u) - scale_w * wt for u, wt in columns]
    c = _reduced_map(A).solve(rhs)
    if c is None:
        return None
    for (u, _), t in zip(columns, c):
        v = t / den
        for i, s in u:
            b[i] = v if s > 0 else -v
    return tuple(b)


@functools.lru_cache(maxsize=1024)
def _reduced_map(A: tuple[tuple[int, ...], ...]) -> _SolveMap:
    # one elimination per reduced matrix, shared by every fit that meets it
    return _solve_map_of(A, 1)


# ---------------------------------------------------------------------------
# exact LP routes


def _gauge_lp(X: RationalMatrix, norm: PolytopeNorm, rhs: Vector):
    """(value, b, u) for min ||b|| s.t. Xb = rhs, solved as the gauge LP
    min sum(lam) s.t. (X V) lam = rhs, lam >= 0 with b = V lam; None when rhs
    is outside the column space of X. u is the LP's optimal dual, a point of
    the zero-solution region with <rhs, u> = value. Bland's rule makes the
    vertex deterministic. The rows are X V times f (_gauge_rows), so x, the
    value and the pivots stay those of the rational program, and the dual of
    the scaled rows is u / f. b sums only the vertices with lam > 0, in
    integers: lam over its common denominator against the integer vertices."""
    e, iverts = _integer_primal_ball_vertices(norm)
    f, rows = _gauge_rows(X, norm)
    res = lp_solve(LinearProgram(c=(1,) * len(iverts), a_eq=rows, b_eq=tuple(f * r for r in rhs)))
    if res.status != OPTIMAL:
        return None
    used = [k for k, lam in enumerate(res.x) if lam]
    g, (lams,) = clear_denominators([[res.x[k] for k in used]])
    b = tuple(Fraction(sum(lam * iverts[k][i] for lam, k in zip(lams, used)), g * e)
              for i in range(X.ncols))
    return res.value, b, tuple(f * u for u in res.dual)


def solve_bp(X: RationalMatrix, y: Sequence) -> Solution:
    """Exact basis pursuit: min ||b||_1 s.t. Xb = y through the gauge LP of the
    l1 ball. Deterministic vertex, certified before return by the LP's own
    optimal dual."""
    yy = vec(y)
    if len(yy) != X.nrows:
        raise ValueError("dimension mismatch")
    l1 = l1_norm(X.ncols)
    found = _gauge_lp(X, l1, yy)
    if found is None:
        raise ValueError("response is outside the column space of the matrix")
    value, b, z = found
    den, S = X._integer_rmatvec(z)
    f, (B,) = clear_denominators((b,))
    return Solution(b, value, "lp", _certificate(S, den, B, f, l1._form))


def bp_dual_certificate(X: RationalMatrix, b: Sequence) -> Vector | None:
    """z with ||X'z||_inf <= 1 and X_j'z = sign(b_j) on the support of b;
    exists iff b solves basis pursuit for y = Xb. It is the optimal dual of
    the l1 gauge LP at y, which pairs with y to the least l1 norm over the
    fiber, so it certifies b exactly when ||b||_1 is that least norm; None
    otherwise."""
    bb = vec(b)
    l1 = l1_norm(X.ncols)
    value, _, z = _gauge_lp(X, l1, X.matvec(bb))
    return z if value == norm_value(l1, bb) else None


def bp_certificate_holds(X: RationalMatrix, b: Sequence, z: Sequence, tol=0) -> bool:
    bb, zz = vec(b), vec(z)
    if len(bb) != X.ncols:
        raise ValueError("dimension mismatch")
    den, s = X._integer_rmatvec(zz)
    return _bp_certificate_at(s, den, bb, tol)


def _bp_certificate_at(s: Sequence, den, b: Sequence, tol=0) -> bool:
    """Does X'z = s / den (den > 0) certify b: ||X'z||_inf <= 1 and
    (X'z)_j = sign(b_j) on the support of b, within tol. Several points can
    share one X'z. s and den are integers, or Fractions such as a KKT
    certificate's dual vector lam X'z over lam; the bounds are formed once,
    and at tol 0 they are +-den themselves, so each entry costs comparisons
    only."""
    hi, lo = (den + tol * den, den - tol * den) if tol else (den, den)
    low, high = -hi, -lo
    if not all(low <= v <= hi for v in s):
        return False
    # within [-hi, hi], (X'z)_j is sign(b_j) within tol iff it reaches lo or -lo
    return all(v >= lo if x > 0 else v <= high for v, x in zip(s, b) if x)


def norm_min_subject_to(X: RationalMatrix, target: Sequence, norm: PolytopeNorm):
    """Exact (value, minimizer) of min ||b|| s.t. Xb = X target, from the
    gauge LP over the primal-ball vertices of the norm; the value is the
    norm's own (l1 scale included) and the minimizer is a vertex combination
    b = V lam."""
    tt = vec(target)
    p = X.ncols
    if len(tt) != p or norm.dim != p:
        raise ValueError("dimension mismatch")
    found = _gauge_lp(X, norm, X.matvec(tt))
    assert found is not None
    return found[:2]

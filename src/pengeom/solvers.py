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
explicit tolerance on float ones) is trusted downstream. The float route
runs on plain lists of Python floats wherever it leaves numpy: the
sorted-l1 and sup prox is the same sort-and-PAVA core as the exact
prox_slope, fed v.tolist() and weights checked once per solve. The norm
arithmetic lives in norms.py: the objective and the float certificate read
the norm's float form, and tolist() keeps the doubles, so every float they
compute is the one norm_value and dual_norm_value give with the norm's
Fractions on the same doubles. The exact certificate is worked in integers:
y and b are cleared of their denominators once, the residual and
X'(y - Xb) are integer dot products against the design's integer form, the
dual norm and the gap come from the norm's integer weights, and Fractions
are formed only for the certificate's fields, with the values Fraction
arithmetic gives.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact import RationalMatrix, Vector, clear_denominators, dot, vec
from .lp import OPTIMAL, LinearProgram, lp_solve
from .norms import (
    L1,
    PolytopeNorm,
    _NormForm,
    _integer_primal_ball_vertices,
    dual_norm_value,
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
    Fractions. FISTA's sup and slope prox is the same core on lists of
    floats, with its weights checked once per solve."""
    _check_prox_weights(len(v), w)
    return tuple(_pava(v, w))


def _check_prox_weights(p: int, w: Sequence) -> None:
    if len(w) != p:
        raise ValueError("dimension mismatch")
    if any(a < b for a, b in zip(w, w[1:])) or (p and w[p - 1] < 0):
        raise ValueError("weights must be nonincreasing and nonnegative")


def _pava(v: Sequence, w: Sequence) -> list:
    """The sort-and-PAVA core of prox_slope, for checked weights. The
    descending sort is stable, so tied magnitudes keep their index order."""
    p = len(v)
    mags = [abs(x) for x in v]
    order = sorted(range(p), key=mags.__getitem__, reverse=True)
    d = [mags[j] - wi for j, wi in zip(order, w)]
    sums: list = []
    counts: list[int] = []
    for x in d:
        s, c = x, 1
        while sums and sums[-1] * c <= s * counts[-1]:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    levels = []
    for s, c in zip(sums, counts):
        avg = s / c
        if avg < 0:
            avg = 0 * avg
        levels.extend([avg] * c)
    out = [None] * p
    for j, level in zip(order, levels):
        x = v[j]
        out[j] = level if x > 0 else (-level if x < 0 else 0 * level)
    return out


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
    float form."""
    shape = X.shape if isinstance(X, RationalMatrix) else np.shape(X)
    if (len(y), len(b)) != shape or norm.dim != len(b):
        raise ValueError("dimension mismatch")
    if isinstance(X, RationalMatrix) and tol == 0:
        return _exact_certificate(X, vec(y), vec(b), norm._form)
    Xf = _float_matrix(X)
    bf = np.asarray(b, dtype=float)
    sf = Xf.T @ (np.asarray(y, dtype=float) - Xf @ bf)
    s, form = tuple(sf.tolist()), norm._form.floats
    dn = form.dual_value(s)
    gap = abs(float(np.dot(bf, sf)) - form.value(bf.tolist()))
    return Certificate(s, dn, gap, tol, dn <= 1 + tol and gap <= tol)


def _exact_certificate(X: RationalMatrix, y: Vector, b: Vector, form: _NormForm) -> Certificate:
    """The tol-0 certificate in integers: with X = R / d, y = Y / e and
    b = B / f, the residual is (d f Y - e R B) / (d e f), and the dual
    vector s = X'(y - Xb) is S / D for S = R'(d f Y - e R B) and
    D = d^2 e f. With g the weights' denominator, the gap
    |<b, s> - ||b||| is |g <B, S> - D g ||B||| / (f D g). Fractions are
    formed only for the fields, one per entry of s, one for the dual norm
    and one for the gap, so their values are those of Fraction arithmetic."""
    d, rows, cols = X._integer_form
    e, (Y,) = clear_denominators((y,))
    f, (B,) = clear_denominators((b,))
    residual = [d * f * t - e * sum(map(operator.mul, r, B)) for r, t in zip(rows, Y)]
    S = [sum(map(operator.mul, c, residual)) for c in cols]
    den = d * d * e * f
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


def _prox_for(fnorm: _NormForm, step: float):
    if fnorm.kind == L1:
        t = fnorm.scale * step

        def prox(v):
            return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

        return prox
    # sup is the sorted-l1 norm of (1, 0, ..., 0)
    w = [x * step for x in fnorm.weights]
    _check_prox_weights(len(w), w)

    def prox(v):
        return np.asarray(_pava(v.tolist(), w))

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
    iteration exhaustion."""
    Xf = _float_matrix(X)
    yf = np.asarray([float(t) for t in y])
    n, p = Xf.shape
    if norm.dim != p:
        raise ValueError("norm dimension does not match the matrix")
    x = np.zeros(p) if options.x0 is None else np.asarray([float(t) for t in options.x0])
    if yf.shape != (n,) or x.shape != (p,):
        raise ValueError("dimension mismatch")
    step = _design_step(X) if isinstance(X, RationalMatrix) else _step(Xf)
    fnorm = norm._form.floats
    prox = _prox_for(fnorm, step)

    def objective(b):
        r = yf - Xf @ b
        return 0.5 * float(r @ r) + fnorm.value(b.tolist())

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
            # overshoot: kill the momentum and take the plain descent step
            # from the last accepted iterate, which cannot increase the
            # objective, so accepted objectives stay nonincreasing
            grad = Xf.T @ (Xf @ x - yf)
            cand = prox(x - step * grad)
            f_cand = objective(cand)
            t_mom = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = cand + ((t_mom - 1.0) / t_new) * (cand - x)
        x, t_mom = cand, t_new
        f_prev = f_cand
        if it % _CERTIFY_EVERY == 0:
            cert = kkt_certify(Xf, yf, x, norm, tol=options.tol)
            if cert.passed:
                return Solution(tuple(x.tolist()), objective(x), "fista", cert, it, True)
    cert = kkt_certify(Xf, yf, x, norm, tol=options.tol)
    return Solution(tuple(x.tolist()), objective(x), "fista", cert, it, cert.passed)


# ---------------------------------------------------------------------------
# exact LP routes


@functools.lru_cache(maxsize=64)
def _gauge_rows(X: RationalMatrix, norm: PolytopeNorm) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(f, X V in integers): X's integer rows against the norm's integer
    primal-ball vertices, each over its common denominator, so every row is
    f = d e times the rational one; one product per (design, norm), which
    every right-hand side of the gauge LP shares."""
    e, iverts = _integer_primal_ball_vertices(norm)
    d, xrows, _ = X._integer_form
    return d * e, tuple(tuple(sum(map(operator.mul, r, v)) for v in iverts) for r in xrows)


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
    s = X.rmatvec(z)
    gap = abs(dot(b, s) - norm_value(l1, b))
    cert = Certificate(s, dual_norm_value(l1, s), gap, 0, _bp_certificate_at(s, 1, b))
    return Solution(b, value, "lp", cert)


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
    share one X'z; with integer s and den every bound is two integer
    comparisons."""
    slack = tol * den
    if not all(-den - slack <= v <= den + slack for v in s):
        return False
    return all(sg - slack <= v <= sg + slack
               for v, x in zip(s, b) if x for sg in [den if x > 0 else -den])


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

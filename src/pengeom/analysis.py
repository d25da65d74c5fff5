"""Decision procedures built on the geometry engine.

Everything here is exact: uniqueness of penalized / equality-constrained
minimizers for all responses, accessibility of sign vectors and of ordered
sign/cluster models, certified non-uniqueness witnesses, response
classification, projection onto the null set, and seeded genericity
experiments over random designs.

Every sweep reads its level of the dual ball from norms._dual_ball_level:
each face's label, vertex count and integer vertices, ints only, with the
level's vertex table, which DesignKernel.level_hits screens against row(X)
chunk by chunk. A Face is built only for the face that row(X) meets, and is
kept per (norm, label), so a repeated question finds its witness points
cached. Uniqueness and its basis-pursuit analogue share one sweep over the
faces of codimension rk(X) + 1 (bp sweeps the cube faces of the plain l1
norm; a polytope's face lattice is graded, so each deeper face lies in one
of those) and one witness pair, which bp reads at y = X first and
certifies, with one X'z, by the face hit's dual vector z. The sign-vector
and model accessibility tables share one route sweep and differ only in
their response witnesses.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .exact import (
    RationalMatrix,
    Vector,
    clear_denominators,
    dot,
    kernel_basis,
    parse_rational,
    rat_str,
    rref,
    vec,
)
from .geometry import (
    DEFAULT_VERTEX_CAP,
    CapExceeded,
    DesignKernel,
    Face,
    model_of,
)
from .norms import (
    SLOPE,
    PolytopeNorm,
    _dual_ball_face,
    _dual_ball_level,
    _zero_region,
    dual_ball_membership,
    exposed_primal_vertices,
    l1_norm,
    norm_value,
    slope_norm,
)
from .solvers import (
    Solution,
    SolverOptions,
    _bp_certificate_at,
    _float_matrix,
    bp_certificate_holds,
    kkt_certify,
    solve_penalized,
)

GEOMETRIC = "geometric"
ANALYTIC = "analytic"
BOTH = "both"

def _json_scalar(v):
    if isinstance(v, bool) or isinstance(v, (int, float)):
        return v
    return rat_str(v)


def _json_vector(xs):
    return None if xs is None else [_json_scalar(x) for x in xs]


def _certificate_dict(cert):
    return {
        "dual_vector": _json_vector(cert.dual_vector),
        "dual_norm": _json_scalar(cert.dual_norm),
        "pairing_gap": _json_scalar(cert.pairing_gap),
        "tol": _json_scalar(cert.tol),
        "passed": cert.passed,
    }


# ---------------------------------------------------------------------------
# uniqueness for all responses


@dataclass(frozen=True)
class NonUniquenessWitness:
    """Two distinct certified minimizers for one explicit response."""

    response: Vector
    first: Vector
    second: Vector
    objective: Fraction
    dual_vector: Vector

    def to_json_dict(self) -> dict:
        return {
            "response": _json_vector(self.response),
            "first": _json_vector(self.first),
            "second": _json_vector(self.second),
            "objective": _json_scalar(self.objective),
            "dual_vector": _json_vector(self.dual_vector),
        }


@dataclass(frozen=True)
class UniquenessReport:
    unique_for_all_y: bool
    rank: int
    mode: str  # "penalized" | "bp"
    norm: PolytopeNorm | None
    offending_face: Face | None = None
    witness: NonUniquenessWitness | None = None

    def to_json_dict(self) -> dict:
        return {
            "unique_for_all_y": self.unique_for_all_y,
            "rank": self.rank,
            "mode": self.mode,
            "norm": self.norm.describe() if self.norm is not None else None,
            "offending_face": (
                self.offending_face.to_json_dict(include_vertices=True)
                if self.offending_face is not None
                else None
            ),
            "witness": self.witness.to_json_dict() if self.witness is not None else None,
        }


def _uniqueness_sweep(X, norm, limit, vertex_cap):
    """Sweep the faces of norm's dual ball of codimension rk(X) + 1 against
    row(X): (rk(X), the first face that meets it, its hit), with None for
    both when no face does. The level is read as integer vertices; only the
    face that meets row(X) is built."""
    kernel = DesignKernel(X)
    r = X.ncols - len(kernel.basis)
    if r < X.ncols:
        d, level = _dual_ball_level(norm, r + 1, limit)
        for i, hit in kernel.level_hits(d, level, vertex_cap):
            return r, _dual_ball_face(norm, level[i][0]), hit
    return r, None, None


@functools.lru_cache(maxsize=256)
def _exposed_points(norm: PolytopeNorm, face: Face):
    """(den, P times den, sum P) for P the first codim F independent
    primal-ball vertices the face F exposes; none depends on the design."""
    verts = face.vertices(None)  # the sweep has checked the cap
    centroid = tuple(sum(col) / len(verts) for col in zip(*verts))
    points = exposed_primal_vertices(norm, centroid)
    if len(points) > face.codim:  # keep the first independent ones
        points = [points[k] for k in rref(RationalMatrix.from_rows(zip(*points)))[1]]
    den, ints = clear_denominators(points)
    return den, ints, tuple(Fraction(sum(col), den) for col in zip(*ints))


def _witness_pair(X, norm, face) -> tuple[Vector, Vector, Fraction]:
    """Two points of one primal face with the same norm and the same fit,
    from an intersected face F of codim rk(X) + 1, and that norm.

    The primal-ball vertices F exposes span codim F dimensions, so codim F
    independent ones P have dependent images X P, and a kernel vector c of
    X P moves along ker(X). The hit's z pairs to 1 with every X P_i, so c
    sums to zero: first = sum P_i and second = sum (1 + c_i / (2 max|c|))
    P_i are positive combinations of one primal face with the same norm and
    fit.
    """
    den, points, first = _exposed_points(norm, face)
    # X P times the positive factor of the integer rows and points, which
    # leaves its kernel alone
    _, rows, _ = X._integer_form
    basis = kernel_basis(RationalMatrix.from_rows(
        [[sum(map(operator.mul, row, P)) for P in points] for row in rows]))
    if not basis:
        raise AssertionError("exposed vertices beyond the rank must have dependent images")
    _, (c,) = clear_denominators(basis[:1])
    top = 2 * max(map(abs, c))
    # second in integers: coefficients top + c_i over the denominator top * den
    coeffs = [top + t for t in c]
    second = tuple(Fraction(sum(map(operator.mul, coeffs, col)), top * den)
                   for col in zip(*points))
    value = norm_value(norm, first)
    if norm_value(norm, second) != value or first == second:
        raise AssertionError("perturbation must preserve the norm and move the point")
    return first, second, value


def _penalized_witness(X, norm, face, hit) -> NonUniquenessWitness:
    """The witness pair, certified by KKT at y = X first + hit.z."""
    first, second, value = _witness_pair(X, norm, face)
    y = tuple(a + b for a, b in zip(X.matvec(first), hit.z))
    if not all(kkt_certify(X, y, b, norm).passed for b in (first, second)):
        raise AssertionError("witness failed exact certification")
    objective = dot(hit.z, hit.z) / 2 + value
    return NonUniquenessWitness(y, first, second, objective, hit.z)


def check_uniqueness(
    X: RationalMatrix,
    norm: PolytopeNorm,
    limit: int | None = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> UniquenessReport:
    """Is the penalized minimizer unique for every response?

    Sweeps the dual-ball faces of codimension rk(X) + 1, which row(X)
    meets iff it meets some face beyond rk(X); the first face meeting row(X)
    settles the question and is turned into an explicit two-minimizer
    witness. No face hit means uniqueness for all y.
    """
    if norm.dim != X.ncols:
        raise ValueError("norm dimension does not match the matrix")
    r, face, hit = _uniqueness_sweep(X, norm, limit, vertex_cap)
    witness = None if face is None else _penalized_witness(X, norm, face, hit)
    return UniquenessReport(face is None, r, "penalized", norm, face, witness)


def check_uniqueness_bp(
    X: RationalMatrix,
    limit: int | None = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> UniquenessReport:
    """Equality-constrained l1 analogue of check_uniqueness: the sweep and
    the witness pair of l1_norm(p), read at y = X first, which both points
    fit exactly; the face hit's z is the dual certificate of both."""
    l1 = l1_norm(X.ncols)
    r, face, hit = _uniqueness_sweep(X, l1, limit, vertex_cap)
    if face is None:
        return UniquenessReport(True, r, "bp", None)
    first, second, value = _witness_pair(X, l1, face)
    den, s = X._integer_rmatvec(hit.z)  # X'z = s / den, once for both points
    if not all(_bp_certificate_at(s, den, b) for b in (first, second)):
        raise AssertionError("witness failed the shared dual certificate")
    witness = NonUniquenessWitness(X.matvec(first), first, second, value, hit.z)
    return UniquenessReport(False, r, "bp", None, face, witness)


# ---------------------------------------------------------------------------
# accessibility


@dataclass(frozen=True)
class AccessibilityReport:
    pattern: tuple[int, ...]
    kind: str  # "sign" | "model"
    accessible: bool
    geometric_hit: bool | None
    analytic_value: Fraction | None
    pattern_norm: Fraction
    dual_witness: Vector | None
    response_witness: Vector | None
    response_witness_bp: Vector | None = None

    def to_json_dict(self) -> dict:
        return {
            "pattern": list(self.pattern),
            "kind": self.kind,
            "accessible": self.accessible,
            "geometric_hit": self.geometric_hit,
            "analytic_value": (
                _json_scalar(self.analytic_value) if self.analytic_value is not None else None
            ),
            "pattern_norm": _json_scalar(self.pattern_norm),
            "dual_witness": _json_vector(self.dual_witness),
            "response_witness": _json_vector(self.response_witness),
            "response_witness_bp": _json_vector(self.response_witness_bp),
        }


def _check_route(route):
    if route not in (GEOMETRIC, ANALYTIC, BOTH):
        raise ValueError(f"unknown route {route!r}")


def _route_sweep(X, norm, kind, route, limit, vertex_cap):
    """One AccessibilityReport per labeled dual-ball face of norm, in label
    order, without response witnesses.

    The geometric route intersects the face with row(X); the analytic route
    compares the minimum of the norm over the fiber {b : Xb = X pattern},
    the support function max <X pattern, u> of the zero-solution region read
    off its vertices, against the pattern's own value. With route both, the
    two are cross-checked and any disagreement raises.
    """
    kernel = DesignKernel(X)
    # the whole table as integer vertices (none for the analytic route alone),
    # kept per norm; the model or sign cap refuses here, before any work, and
    # on every call, since the cache does not store exceptions
    d, level = _dual_ball_level(norm, None, limit, route != ANALYTIC)
    # the geometric hits of the whole table by one screen; the cap refuses
    # at the first over-cap face
    hits = dict(kernel.level_hits(d, level, vertex_cap)) if route != ANALYTIC else {}
    if route in (ANALYTIC, BOTH):
        # every support value max <pattern, X'u> over the region's vertices u,
        # over its one denominator, from one integer product
        region = _zero_region(X, norm)
        support = region.support_values(level.labels)
    # every label is an integer vector, so its norm is one integer sum over
    # the weights' denominator
    form = norm._form
    wden = form.integers[0]
    for i, (pattern, _, _) in enumerate(level):
        pattern_norm = Fraction(form.integer_value(pattern), wden)
        hit = hits.get(i)
        geometric_hit = None
        analytic_value = None
        if route in (GEOMETRIC, BOTH):
            geometric_hit = hit is not None
        if route in (ANALYTIC, BOTH):
            analytic_value = Fraction(support[i], region.den)
        if route == BOTH and geometric_hit != (analytic_value == pattern_norm):
            raise AssertionError(f"route disagreement at {pattern}")
        accessible = geometric_hit if geometric_hit is not None else analytic_value == pattern_norm
        yield AccessibilityReport(
            pattern,
            kind,
            bool(accessible),
            geometric_hit,
            analytic_value,
            pattern_norm,
            hit.z if hit is not None else None,
            None,
        )


def accessible_sign_vectors(
    X: RationalMatrix,
    route: str = BOTH,
    lam: Fraction = Fraction(1),
    limit: int | None = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> list[AccessibilityReport]:
    """Which sign vectors are realized by some l1 minimizer for some response.

    The geometric route intersects row(X) with the subdifferential face of
    each sign vector; the analytic route compares the constrained minimum of
    the l1 norm over the fiber against the pattern's own value. Both are
    exact and, when asked for together, are cross-checked against each other.
    The decision does not involve lam; it only scales the response witness.
    """
    _check_route(route)
    lam = parse_rational(lam) if not isinstance(lam, Fraction) else lam
    if lam <= 0:
        raise ValueError("penalty scale must be positive")
    scaled = l1_norm(X.ncols, scale=lam)
    out = []
    for report in _route_sweep(X, l1_norm(X.ncols), "sign", route, limit, vertex_cap):
        if report.accessible:
            point = vec(report.pattern)
            response_bp = X.matvec(point)
            z = report.dual_witness
            response = None
            if z is not None:
                response = tuple(lam * a + b for a, b in zip(z, response_bp))
                if not kkt_certify(X, response, point, scaled).passed:
                    raise AssertionError("response witness failed certification")
                if not bp_certificate_holds(X, point, z):
                    raise AssertionError("shared dual vector must certify the pattern")
            report = replace(report, response_witness=response, response_witness_bp=response_bp)
        out.append(report)
    return out


def accessible_slope_models(
    X: RationalMatrix,
    weights,
    route: str = BOTH,
    limit: int | None = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> list[AccessibilityReport]:
    """Same sweep over all ordered sign/cluster models, one report per model,
    for any slope weights; under ties or zeros, models sharing a face share
    its verdict."""
    _check_route(route)
    norm = slope_norm(weights)
    if norm.dim != X.ncols:
        raise ValueError("weight vector length does not match the matrix")
    out = []
    for report in _route_sweep(X, norm, "model", route, limit, vertex_cap):
        z = report.dual_witness
        if report.accessible and z is not None:
            point = vec(report.pattern)
            response = tuple(a + b for a, b in zip(z, X.matvec(point)))
            if not kkt_certify(X, response, point, norm).passed:
                raise AssertionError("response witness failed certification")
            report = replace(report, response_witness=response)
        out.append(report)
    return out


# ---------------------------------------------------------------------------
# response classification and null-set projection


class UncertifiedSolve(RuntimeError):
    """The solve stopped without a certificate; `fit` holds the float read of
    the uncertified iterate and `solution` its Solution, so a caller can
    report it without solving or reading it again."""

    def __init__(self, message: str, fit: _Fit):
        super().__init__(message)
        self.fit = fit
        self.solution = fit.solution


@dataclass(frozen=True)
class Classification:
    model: tuple[int, ...]
    solution: tuple
    residual: tuple
    model_face: Face
    objective: float
    ambiguous: bool | None
    certificate: object

    def to_json_dict(self) -> dict:
        return {
            "model": list(self.model),
            "solution": _json_vector(self.solution),
            "residual": _json_vector(self.residual),
            "model_face": self.model_face.to_json_dict(),
            "objective": _json_scalar(self.objective),
            "ambiguous": self.ambiguous,
            "certificate": _certificate_dict(self.certificate),
        }


# patterns read off a float iterate: magnitudes within this of each other
# form one cluster, and within this of zero count as zero
_PATTERN_TOL = 1e-6


@dataclass(frozen=True)
class _Fit:
    """One solve at y read as the paper reads it: the minimizer's pattern
    (model for slope, sign vector otherwise) and the split y = fitted +
    residual. Exact when solution.route is "exact", floats otherwise."""

    solution: Solution
    pattern: tuple[int, ...]
    fitted: tuple
    residual: tuple


def _read_solve(X, y, norm: PolytopeNorm, sol: Solution) -> _Fit:
    """The float read of a FISTA solution, certified or not."""
    if norm.kind == SLOPE:
        pattern = model_of(sol.point, tol=_PATTERN_TOL)
    else:
        pattern = tuple(0 if abs(v) <= _PATTERN_TOL else (1 if v > 0 else -1) for v in sol.point)
    fitted = _float_matrix(X) @ [float(t) for t in sol.point]
    residual = tuple(float(t) - f for t, f in zip(y, fitted))
    return _Fit(sol, pattern, tuple(fitted), residual)


def _fit(X, y, norm: PolytopeNorm, options: SolverOptions = SolverOptions()) -> _Fit:
    """Solve at y and read the solution. A rational response whose X'y lies
    in the dual ball has the zero minimizer, so it is fitted exactly and its
    residual is y itself; any other response goes through FISTA."""
    if isinstance(X, RationalMatrix):
        try:
            exact_y = vec(y)
        except TypeError:  # float response
            exact_y = None
        if exact_y is not None and dual_ball_membership(norm, X.rmatvec(exact_y)):
            zero = vec([0] * X.ncols)
            cert = kkt_certify(X, exact_y, zero, norm)
            sol = Solution(zero, dot(exact_y, exact_y) / 2, "exact", cert)
            return _Fit(sol, (0,) * X.ncols, vec([0] * X.nrows), exact_y)
    return _read_solve(X, y, norm, solve_penalized(X, y, norm, options))


def classify_response(X, weights, y, options: SolverOptions = SolverOptions()) -> Classification:
    """Solve at y, read off the solution's model, and decompose y into fit
    plus residual. The ambiguity flag records whether the design admits
    non-unique minimizers at all (None when that check is out of reach)."""
    norm = slope_norm(weights)
    fit = _fit(X, y, norm, options)
    sol = fit.solution
    if not sol.converged:
        raise UncertifiedSolve(
            f"solver failed to certify at tol {options.tol} within {options.max_iter} iterations",
            fit,
        )
    face = _dual_ball_face(norm, fit.pattern)
    amb = _ambiguity_flag(X, norm) if isinstance(X, RationalMatrix) else None
    return Classification(
        fit.pattern, sol.point, fit.residual, face, sol.objective, amb, sol.certificate
    )


def _ambiguity_flag(X, norm):
    # only the verdict is read, so the sweep builds no witness
    try:
        return _uniqueness_sweep(X, norm, None, DEFAULT_VERTEX_CAP)[1] is not None
    except CapExceeded:
        return None


def null_set_projection(X, norm: PolytopeNorm, y, options: SolverOptions = SolverOptions()):
    """Residual of the certified solve, which is the Euclidean projection of
    the response onto {u : the dual norm of X'u is at most 1}. Responses
    already inside that set come back unchanged."""
    fit = _fit(X, y, norm, options)
    if not fit.solution.converged:
        raise UncertifiedSolve("projection requires a certified solve", fit)
    return fit.residual


# ---------------------------------------------------------------------------
# genericity experiments


@dataclass(frozen=True)
class GenericityReport:
    n: int
    p: int
    mode: str
    norm: PolytopeNorm | None
    trials: int
    seed: int
    outcomes: tuple[bool, ...]

    @property
    def fraction_unique(self) -> Fraction:
        return Fraction(sum(self.outcomes), self.trials)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "mode": self.mode,
            "norm": self.norm.describe() if self.norm is not None else None,
            "trials": self.trials,
            "seed": self.seed,
            "fraction_unique": _json_scalar(self.fraction_unique),
            "outcomes": list(self.outcomes),
        }


def genericity_experiment(
    n: int,
    p: int,
    norm: PolytopeNorm | None = None,
    mode: str = "penalized",
    trials: int = 100,
    seed: int = 0,
    limit: int | None = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> GenericityReport:
    """Fraction of random Gaussian designs that are unique-for-all-y.

    Entries are drawn per trial from an independent substream and snapped to
    exact rationals at 12 significant digits, so every decision inside the
    loop is exact and the whole experiment replays bit-for-bit from the seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode == "penalized":
        if norm is None:
            raise ValueError("penalized mode needs a norm")
        if norm.dim != p:
            raise ValueError("norm dimension does not match p")
    elif mode == "bp":
        if norm is not None:
            raise ValueError("bp mode does not take a norm")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    outcomes = []
    for t in range(trials):
        rng = random.Random(seed + 7919 * t)
        X = RationalMatrix.from_rows(
            [[parse_rational(f"{rng.gauss(0, 1):.12g}") for _ in range(p)] for _ in range(n)]
        )
        if mode == "bp":
            report = check_uniqueness_bp(X, limit=limit, vertex_cap=vertex_cap)
        else:
            report = check_uniqueness(X, norm, limit=limit, vertex_cap=vertex_cap)
        outcomes.append(report.unique_for_all_y)
    return GenericityReport(n, p, mode, norm, trials, seed, tuple(outcomes))

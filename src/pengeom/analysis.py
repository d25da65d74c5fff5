"""Decision procedures built on the geometry engine.

Everything here is exact: uniqueness of penalized / equality-constrained
minimizers for all responses, accessibility of sign vectors and of ordered
sign/cluster models, certified non-uniqueness witnesses, response
classification, projection onto the null set, and seeded genericity
experiments over random designs.

Every sweep reads its level of the dual ball from norms._dual_ball_level:
its labels, its rank table, each face's rows in it and the weights to look
them up, ints only, which DesignKernel.level_hits screens against row(X)
chunk by chunk. A Face is built only for the face that row(X) meets, and is
kept per (norm, label), so a repeated question finds its witness points
cached. Uniqueness and its basis-pursuit analogue share one sweep over the
faces of codimension rk(X) + 1 (bp sweeps the cube faces of the plain l1
norm; a polytope's face lattice is graded, so each deeper face lies in one
of those) and one witness pair, which bp reads at y = X first and certifies,
with one X'z, by the face hit's dual vector z, both found in integers. The
sign-vector and model accessibility tables are one route sweep, which
finishes each row with its witnesses: a hit's z, and lam z + X t certified
at tol 0 under lam times the norm, whose dual vector also certifies a sign
row's basis-pursuit response X t. A row is finished in integers, from the
face hit's point and z through the response witness's numerators over one
denominator to the certificate's integer verdict, and a table's label
norms come from one product; Fractions are formed only for the report's
fields. Classification and projection share one
fit, one polished FISTA solve read once: exact on a rational design and
response once a linear piece certifies at tol 0, the zero piece first (the
whole zero-solution region), then the pieces of the patterns read off the
iterate, with the certified float iterate as the fallback.

Every report is a dataclass whose JSON form is its fields in declaration
order, through one encoder, _json, which cli's payloads share: Fractions
become "p/q", tuples lists. Only the uniqueness report (its offending face
with vertices) and the genericity report (its derived fraction) differ.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import sys
from dataclasses import dataclass, fields, is_dataclass
from decimal import Decimal
from fractions import Fraction

from .exact import (
    RationalMatrix,
    Vector,
    _eliminate,
    _integer_kernel,
    parse_rational,
    rat_str,
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
    _integer_primal_ball_vertices,
    _zero_region,
    l1_norm,
    slope_norm,
)
from .solvers import (
    _PATTERN_TOL,
    Solution,
    SolverOptions,
    _bp_norm,
    _exact_check,
    _fista,
    _float_matrix,
    _split,
    _verdict,
)

GEOMETRIC = "geometric"
ANALYTIC = "analytic"
BOTH = "both"

class _Report:
    """A report dataclass whose JSON form is its fields, in declaration
    order, each through _json."""

    def to_json_dict(self) -> dict:
        return {f.name: _json(getattr(self, f.name), f.name) for f in fields(self)}


def _json(v, field: str | None = None):
    """The one JSON encoder of reports and CLI payloads: None, bools,
    numbers and strings as they are, tuples and lists as lists, a norm by
    its describe(), anything with to_json_dict by that dict, any other
    dataclass (a Certificate) by its fields in order, and a Fraction as
    "p/q". A Fraction whose numerator or denominator has more digits than
    sys.get_int_max_str_digits() cannot print; it is refused as a
    ValueError naming the innermost report field that holds it."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (tuple, list)):
        return [_json(x, field) for x in v]
    if isinstance(v, PolytopeNorm):
        return v.describe()
    if hasattr(v, "to_json_dict"):
        return v.to_json_dict()
    if is_dataclass(v):
        return _Report.to_json_dict(v)
    try:
        return rat_str(v)
    except ValueError:
        where = f"answer field {field}" if field else "answer"
        raise ValueError(f"{where} needs more than {sys.get_int_max_str_digits()} digits") from None


# ---------------------------------------------------------------------------
# uniqueness for all responses


@dataclass(frozen=True)
class NonUniquenessWitness(_Report):
    """Two distinct certified minimizers for one explicit response."""

    response: Vector
    first: Vector
    second: Vector
    objective: Fraction
    dual_vector: Vector


@dataclass(frozen=True)
class UniquenessReport(_Report):
    unique_for_all_y: bool
    rank: int
    mode: str  # "penalized" | "bp"
    norm: PolytopeNorm | None
    offending_face: Face | None = None
    witness: NonUniquenessWitness | None = None

    def to_json_dict(self) -> dict:
        d = super().to_json_dict()
        if self.offending_face is not None:  # the face with its vertices
            d["offending_face"] = self.offending_face.to_json_dict(include_vertices=True)
        return d


def _uniqueness_sweep(X, norm, limit, vertex_cap):
    """Sweep the faces of norm's dual ball of codimension rk(X) + 1 against
    row(X): (rk(X), the first face that meets it, its hit), with None for
    both when no face does. The level is read as integer vertices; only the
    face that meets row(X) is built."""
    kernel = DesignKernel(X)
    r = kernel.rank
    if r < X.ncols:
        d, level = _dual_ball_level(norm, r + 1, limit)
        for i, hit in kernel.level_hits(d, level, vertex_cap):
            return r, _dual_ball_face(norm, level.labels[i]), hit
    return r, None, None


@functools.lru_cache(maxsize=256)
def _exposed_points(norm: PolytopeNorm, face: Face):
    """(den, P times den, sum P) for P the first codim F independent
    primal-ball vertices the face F exposes; none depends on the design. The
    centroid S / (L n) of F's n vertices exposes the vertices v / e with
    <v, S> = e L n, all in integers; den is P's own least common denominator."""
    L, ivs = face._integer_form  # the sweep has checked the cap
    S = [sum(col) for col in zip(*ivs)]
    e, iverts = _integer_primal_ball_vertices(norm)
    top = e * L * len(ivs)
    points = [v for v in iverts if sum(map(operator.mul, v, S)) == top]
    if len(points) > face.codim:  # keep the first independent ones
        points = [points[k] for k in _eliminate(list(zip(*points)))[1]]
    g = math.gcd(e, *(x for v in points for x in v))
    ints = tuple(tuple(x // g for x in v) for v in points)
    return e // g, ints, tuple(Fraction(sum(col), e // g) for col in zip(*ints))


def _witness_pair(X, norm, face) -> tuple[Vector, Vector, Fraction, tuple]:
    """Two points of one primal face with the same norm and the same fit,
    from an intersected face F of codim rk(X) + 1, that norm, and the two
    points' integer numerators, each the point times a positive integer.

    The primal-ball vertices F exposes span codim F dimensions, so codim F
    independent ones P have dependent images X P, and a kernel vector c of
    X P moves along ker(X). The hit's z pairs to 1 with every X P_i, so c
    sums to zero: first = sum P_i and second = sum (1 + c_i / (2 max|c|))
    P_i are positive combinations of one primal face with the same norm and
    fit.
    """
    den, points, first = _exposed_points(norm, face)
    # X P times a positive factor, which leaves its kernel alone; second does
    # not move when its first kernel vector c is scaled by a positive factor
    _, rows, _ = X._integer_form
    _, vectors = _integer_kernel([[sum(map(operator.mul, row, P)) for P in points] for row in rows])
    if not vectors:
        raise AssertionError("exposed vertices beyond the rank must have dependent images")
    c = vectors[0]
    top = 2 * max(map(abs, c))
    # second in integers: T, the coefficients top + c_i, over top * den; the
    # norms compare as the integer values of S and T, over e den and e top den
    coeffs = [top + t for t in c]
    S = [sum(col) for col in zip(*points)]
    T = [sum(map(operator.mul, coeffs, col)) for col in zip(*points)]
    form = norm._form
    value = form.integer_value(S)
    if form.integer_value(T) != top * value or T == [top * x for x in S]:
        raise AssertionError("perturbation must preserve the norm and move the point")
    second = tuple(Fraction(x, top * den) for x in T)
    return first, second, Fraction(value, form.integers[0] * den), (S, T)


def _penalized_witness(X, norm, face, hit) -> NonUniquenessWitness:
    """The witness pair, certified by KKT at y = X first + hit.z; the
    objective is the one the first point's exact check forms."""
    first, second, _, _ = _witness_pair(X, norm, face)
    z = hit.z
    y = tuple(a + b for a, b in zip(X.matvec(first), z))
    (cert, objective), (other, _) = (_exact_check(X, y, b, norm._form) for b in (first, second))
    if not (cert.passed and other.passed):
        raise AssertionError("witness failed exact certification")
    return NonUniquenessWitness(y, first, second, objective(), z)


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
    l1 = _bp_norm(X.ncols)
    r, face, hit = _uniqueness_sweep(X, l1, limit, vertex_cap)
    if face is None:
        return UniquenessReport(True, r, "bp", None)
    first, second, value, numerators = _witness_pair(X, l1, face)
    z = hit.z
    den, s = X._integer_rmatvec(z)  # X'z = s / den, once for both points
    if not all(_verdict(s, den, B, l1._form) for B in numerators):
        raise AssertionError("witness failed the shared dual certificate")
    witness = NonUniquenessWitness(X.matvec(first), first, second, value, z)
    return UniquenessReport(False, r, "bp", None, face, witness)


# ---------------------------------------------------------------------------
# accessibility


@dataclass(frozen=True)
class AccessibilityReport(_Report):
    pattern: tuple[int, ...]
    kind: str  # "sign" | "model"
    accessible: bool
    geometric_hit: bool | None
    analytic_value: Fraction | None
    pattern_norm: Fraction
    dual_witness: Vector | None
    response_witness: Vector | None
    response_witness_bp: Vector | None = None


def _route_sweep(X, norm, route, limit, vertex_cap, lam=1):
    """One finished AccessibilityReport per labeled dual-ball face of norm,
    in label order; the route is checked first, then lam, then the shape.

    The geometric route intersects the face of each label t with row(X);
    the analytic route compares the minimum of the norm over the fiber
    {b : Xb = X t}, the support function max <X t, u> of the zero-solution
    region read off its vertices, against ||t||. With route both, the two
    are cross-checked and any disagreement raises.

    A hit's z is the row's dual witness and lam z + X t its response
    witness, at which t minimizes, certified at tol 0 under lam times the
    norm. A sign row also holds X t, where t solves basis pursuit: the
    certificate's dual vector s = lam X'z has |s_j| <= lam, and its zero gap
    forces s_j = lam sign(t_j) on the support, the bp certificate of t by z.

    A row is finished in integers: the labels' norms come from one product
    (_NormForm.integer_values), the hit is z = Z / t' in integers, X t is R t
    / d from X's integer rows, the response witness is its numerators over
    one denominator, and its certificate is the integer split and verdict
    of solvers (_split, _verdict). Fractions are formed only for the
    report's fields.
    """
    if route not in (GEOMETRIC, ANALYTIC, BOTH):
        raise ValueError(f"unknown route {route!r}")
    lam = parse_rational(lam) if not isinstance(lam, Fraction) else lam
    if lam <= 0:
        raise ValueError("penalty scale must be positive")
    if norm.dim != X.ncols:
        raise ValueError("weight vector length does not match the matrix")
    scaled = norm if lam == 1 else l1_norm(norm.dim, scale=lam * norm.scale)  # only l1 scales
    kind = "model" if norm.kind == SLOPE else "sign"
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
        support = region.support_values(level.label_array)
    # every label is an integer vector, so its norm is an integer over the
    # weights' denominator, all of them from one product
    wden = norm._form.integers[0]
    values = norm._form.integer_values(level.label_array)
    d, rows, _ = X._integer_form
    a, b = lam.numerator, lam.denominator
    for i, pattern in enumerate(level.labels):
        hit = hits.get(i)
        geometric_hit = hit is not None if route != ANALYTIC else None
        analytic_value = analytic_hit = None
        if route != GEOMETRIC:  # the support value attains ||t||
            analytic_value = Fraction(support[i], region.den)
            analytic_hit = support[i] * wden == values[i] * region.den
        if route == BOTH and geometric_hit != analytic_hit:
            raise AssertionError(f"route disagreement at {pattern}")
        accessible = geometric_hit if geometric_hit is not None else analytic_hit
        z = response = response_bp = None
        if accessible:
            fit = [sum(map(operator.mul, row, pattern)) for row in rows]  # X t = fit / d
            if hit is not None:
                # lam z + X t = Y / e for z = Z / t'; its residual is lam z
                e = b * hit.t * d
                Y = [a * d * u + b * hit.t * v for u, v in zip(hit.Z, fit)]
                _, _, S, den = _split(X, Y, e, pattern, 1)
                if not _verdict(S, den, pattern, scaled._form):
                    raise AssertionError("response witness failed certification")
                z, response = hit.z, tuple(Fraction(y, e) for y in Y)
            if kind == "sign":
                response_bp = tuple(Fraction(v, d) for v in fit)
        yield AccessibilityReport(pattern, kind, bool(accessible), geometric_hit, analytic_value,
                                  Fraction(values[i], wden), z, response, response_bp)


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
    return list(_route_sweep(X, l1_norm(X.ncols), route, limit, vertex_cap, lam))


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
    return list(_route_sweep(X, slope_norm(weights), route, limit, vertex_cap))


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
class Classification(_Report):
    model: tuple[int, ...]
    solution: tuple
    residual: tuple
    model_face: Face
    objective: float
    ambiguous: bool | None
    certificate: object


@dataclass(frozen=True)
class _Fit:
    """One solve at y read as the paper reads it: the minimizer's pattern
    (model for slope, sign vector otherwise) and the split y = fitted +
    residual. Exact when solution.route is "exact", floats otherwise."""

    solution: Solution
    pattern: tuple[int, ...]
    fitted: tuple
    residual: tuple


def _read(X, y, norm: PolytopeNorm, sol: Solution) -> _Fit:
    """Read a solution's pattern, fitted part and residual: exactly, at tol
    0, when its route is "exact"; otherwise as floats with the pattern
    tolerance (a float input, or a fit no piece certifies, certified or
    not)."""
    if sol.route == "exact":
        tol, y, fitted = 0, vec(y), X.matvec(sol.point)
    else:
        fitted = tuple(_float_matrix(X) @ [float(t) for t in sol.point])
        tol, y = _PATTERN_TOL, [float(t) for t in y]
    if norm.kind == SLOPE:
        pattern = model_of(sol.point, tol)
    else:
        pattern = tuple(0 if abs(v) <= tol else (1 if v > 0 else -1) for v in sol.point)
    return _Fit(sol, pattern, fitted, tuple(t - f for t, f in zip(y, fitted)))


def _fit(X, y, norm: PolytopeNorm, options: SolverOptions = SolverOptions()) -> _Fit:
    """Solve at y and read the solution. On a rational design and response
    the solve is exact once a piece certifies at tol 0 (solvers._fista):
    the zero piece, whose residual is y itself, or the polish of a FISTA
    iterate; a float input, or a fit no piece certifies, keeps the float
    read of its iterate."""
    return _read(X, y, norm, _fista(X, y, norm, options, True))


def classify_response(X, weights, y, options: SolverOptions = SolverOptions()) -> Classification:
    """Solve at y, read off the solution's model, and decompose y into fit
    plus residual, exactly on a rational design and response once a polish
    certifies (_fit). The ambiguity flag records whether the design admits
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


@functools.lru_cache(maxsize=64)
def _ambiguity_flag(X: RationalMatrix, norm: PolytopeNorm) -> bool | None:
    # one verdict per (design, norm), which every classification of the
    # design reads; only the verdict is read, so the sweep builds no witness
    try:
        return _uniqueness_sweep(X, norm, None, DEFAULT_VERTEX_CAP)[1] is not None
    except CapExceeded:
        return None


def null_set_projection(X, norm: PolytopeNorm, y, options: SolverOptions = SolverOptions()):
    """Residual of the certified solve, which is the Euclidean projection of
    the response onto {u : the dual norm of X'u is at most 1}, in Fractions
    when the fit is exact (_fit). Responses already inside that set come
    back unchanged."""
    fit = _fit(X, y, norm, options)
    if not fit.solution.converged:
        raise UncertifiedSolve("projection requires a certified solve", fit)
    return fit.residual


# ---------------------------------------------------------------------------
# genericity experiments


@dataclass(frozen=True)
class GenericityReport(_Report):
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
        d = super().to_json_dict()
        outcomes = d.pop("outcomes")  # the derived fraction comes first
        return {**d, "fraction_unique": _json(self.fraction_unique), "outcomes": outcomes}


def _snap(g: float) -> Fraction:
    """g at 12 significant digits, exactly: the Fraction of the literal
    f"{g:.12g}", read through Decimal (parse_rational gives the same)."""
    return Fraction(Decimal(f"{g:.12g}"))


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
            [[_snap(rng.gauss(0, 1)) for _ in range(p)] for _ in range(n)]
        )
        if mode == "bp":
            report = check_uniqueness_bp(X, limit=limit, vertex_cap=vertex_cap)
        else:
            report = check_uniqueness(X, norm, limit=limit, vertex_cap=vertex_cap)
        outcomes.append(report.unique_for_all_y)
    return GenericityReport(n, p, mode, norm, trials, seed, tuple(outcomes))

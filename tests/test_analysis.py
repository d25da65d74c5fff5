import dataclasses
import functools
import json
import operator
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pengeom.analysis as analysis_module
import pengeom.geometry as geometry_module
import pengeom.norms as norms_module
import pengeom.solvers as solvers_module
from pengeom.analysis import (
    ANALYTIC,
    BOTH,
    GEOMETRIC,
    AccessibilityReport,
    UncertifiedSolve,
    accessible_sign_vectors,
    accessible_slope_models,
    check_uniqueness,
    check_uniqueness_bp,
    classify_response,
    genericity_experiment,
    null_set_projection,
)
from pengeom.exact import (
    RationalMatrix,
    clear_denominators,
    dot,
    parse_matrix_json,
    parse_rational,
    rank,
    solve_exact,
    vec,
)
from pengeom.geometry import (
    DEFAULT_VERTEX_CAP,
    CapExceeded,
    enumerate_models,
    face_intersects_rowspace,
    model_codim,
    model_of,
    model_to_face,
    sign_to_cube_face,
)
from pengeom.norms import (
    PolytopeNorm,
    dual_norm_value,
    l1_norm,
    norm_value,
    primal_ball_vertices,
    slope_norm,
    subdifferential_face,
    sup_norm,
    unit_sphere_sign_points,
    zero_region,
)
from pengeom.solvers import (
    SolverOptions,
    bp_certificate_holds,
    bp_dual_certificate,
    kkt_certify,
    norm_min_subject_to,
    solve_bp,
)
from pengeom.svg import dual_ball_figure, response_region_figure

from oracles import (
    SignedPermutation,
    core_hit,
    dual_ball_projection,
    exposed_primal_vertices,
    fraction_rref,
    level_faces,
)

DEMO_X = RationalMatrix.from_rows([[8, 5, 8], [10, Fraction(5, 4), -6]])
DEMO_W = (Fraction(11, 2), Fraction(7, 2), Fraction(3, 2))

KNOWN_MODELS = {
    (1, 0, 0), (1, 1, 1), (0, 0, 1), (-1, 0, 1),
    (2, 0, -1), (2, 1, 1), (1, 1, 2), (-1, 0, 2),
}
KNOWN_ACCESSIBLE = (
    {(0, 0, 0)}
    | KNOWN_MODELS
    | {tuple(-t for t in m) for m in KNOWN_MODELS}
)


def assert_valid_penalized_witness(X, norm, report):
    w = report.witness
    assert w is not None and report.offending_face is not None
    assert report.offending_face.codim == report.rank + 1
    assert w.first != w.second
    assert X.matvec(w.first) == X.matvec(w.second)
    assert norm_value(norm, w.first) == norm_value(norm, w.second)
    # first sums codim F unit-norm primal-ball vertices exposed by the face
    assert norm_value(norm, w.first) == report.offending_face.codim
    for b in (w.first, w.second):
        cert = kkt_certify(X, w.response, b, norm)
        assert cert.passed and cert.tol == 0
        # the objective of both points, in Fraction arithmetic
        r = [a - c for a, c in zip(w.response, X.matvec(b))]
        assert w.objective == dot(r, r) / 2 + norm_value(norm, b)


def test_sup_norm_uniqueness_pair():
    X = RationalMatrix.from_rows([[1, 0]])
    rep = check_uniqueness(X, sup_norm(2))
    assert not rep.unique_for_all_y
    assert rep.offending_face.kind == "crosspoly"
    assert rep.offending_face.codim == 2
    assert rep.offending_face.vertices() == ((Fraction(1), Fraction(0)),)
    assert_valid_penalized_witness(X, sup_norm(2), rep)

    rep2 = check_uniqueness(RationalMatrix.from_rows([[1, 1]]), sup_norm(2))
    assert rep2.unique_for_all_y
    assert rep2.offending_face is None and rep2.witness is None


def test_l1_duplicated_column_not_unique():
    X = RationalMatrix.from_rows([[1, 1]])
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        rep = check_uniqueness(X, l1_norm(2, scale=lam))
        assert not rep.unique_for_all_y
        assert_valid_penalized_witness(X, l1_norm(2, scale=lam), rep)


def test_bp_uniqueness_pair():
    X = RationalMatrix.from_rows([[1, 1]])
    rep = check_uniqueness_bp(X)
    assert not rep.unique_for_all_y
    assert_valid_bp_witness(X, rep)

    assert check_uniqueness_bp(RationalMatrix.from_rows([[1, 2]])).unique_for_all_y


def test_pm_one_matrix_spot_checks():
    for rows in (((1, 1, 1), (1, -1, 1)), ((1, -1, -1), (-1, 1, -1))):
        X = RationalMatrix.from_rows(rows)
        rep = check_uniqueness_bp(X)
        assert not rep.unique_for_all_y
        for b in (rep.witness.first, rep.witness.second):
            assert bp_certificate_holds(X, b, rep.witness.dual_vector)


def test_full_column_rank_is_unique():
    X = RationalMatrix.from_rows([[1, 0], [0, 1], [1, 2]])
    assert check_uniqueness(X, l1_norm(2)).unique_for_all_y
    assert check_uniqueness_bp(X).unique_for_all_y


def test_degenerate_weights_match_equivalent_norms():
    # tied weights (c, c, ...) give c times the l1 norm; (1, 0, ...) gives the
    # sup norm; the model faces of degenerate weights must agree with the
    # closed forms, for uniqueness and, through sign(m), for accessibility
    rng = random.Random(53)
    for _ in range(12):
        n, p = rng.randint(1, 2), rng.randint(2, 3)
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(n)]
        )
        c = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        tied = check_uniqueness(X, slope_norm([c] * p))
        plain = check_uniqueness(X, l1_norm(p, scale=c))
        assert tied.unique_for_all_y == plain.unique_for_all_y
        if not tied.unique_for_all_y:
            assert_valid_penalized_witness(X, slope_norm([c] * p), tied)
        spine = check_uniqueness(X, slope_norm([1] + [0] * (p - 1)))
        supn = check_uniqueness(X, sup_norm(p))
        assert spine.unique_for_all_y == supn.unique_for_all_y
        signs = {r.pattern: r.accessible for r in accessible_sign_vectors(X, lam=c)}
        for r in accessible_slope_models(X, [c] * p, route=GEOMETRIC):
            assert r.accessible == signs[tuple((t > 0) - (t < 0) for t in r.pattern)]


def test_demo_design_is_unique():
    rep = check_uniqueness(DEMO_X, slope_norm(DEMO_W))
    assert rep.unique_for_all_y
    assert rep.rank == 2


def test_demo_accessible_models_geometric():
    reports = accessible_slope_models(DEMO_X, DEMO_W, route=GEOMETRIC)
    assert len(reports) == 147
    accessible = {r.pattern for r in reports if r.accessible}
    assert accessible == KNOWN_ACCESSIBLE
    assert (2, 1, 0) not in accessible
    by_pattern = {r.pattern: r for r in reports}
    assert by_pattern[(0, 0, 0)].accessible


def test_demo_response_witnesses_certify():
    norm = slope_norm(DEMO_W)
    for r in accessible_slope_models(DEMO_X, DEMO_W, route=GEOMETRIC):
        if not r.accessible:
            assert r.response_witness is None
            continue
        assert dual_norm_value(norm, DEMO_X.rmatvec(r.dual_witness)) <= 1
        cert = kkt_certify(DEMO_X, r.response_witness, vec(r.pattern), norm)
        assert cert.passed
        assert model_of(r.pattern) == r.pattern


def test_accessible_signs_examples():
    X = RationalMatrix.from_rows([[1, 1]])
    reports = {r.pattern: r for r in accessible_sign_vectors(X)}
    assert reports[(1, 1)].accessible
    assert reports[(1, 1)].analytic_value == 2
    assert not reports[(1, -1)].accessible
    assert reports[(1, -1)].analytic_value == 0
    assert reports[(0, 0)].accessible

    eye = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert all(r.accessible for r in accessible_sign_vectors(eye))
    assert len(accessible_sign_vectors(eye)) == 9


def test_sign_witnesses_certify_both_problems():
    X = RationalMatrix.from_rows([[2, -1, 0], [1, 1, 1]])
    lam = Fraction(3, 2)
    for r in accessible_sign_vectors(X, lam=lam):
        if not r.accessible:
            continue
        point = vec(r.pattern)
        assert kkt_certify(X, r.response_witness, point, l1_norm(3, scale=lam)).passed
        assert bp_certificate_holds(X, point, r.dual_witness)
        assert r.response_witness_bp == X.matvec(point)


def test_lambda_independence_of_accessibility():
    # lam changes a sign row's response witness only, to lam z + X t for
    # its dual witness z; verdicts, witnesses z and X t and every other
    # field are those at lam = 1
    rng = random.Random(59)
    scaled = 0
    for _ in range(6):
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2)]
        )
        base = accessible_sign_vectors(X)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            reports = accessible_sign_vectors(X, lam=lam)
            assert len(reports) == len(base)
            for r, b in zip(reports, base):
                expected = None
                if b.response_witness is not None:
                    fit = X.matvec(vec(b.pattern))
                    expected = tuple(lam * a + f for a, f in zip(b.dual_witness, fit))
                    scaled += any(b.pattern)
                assert r.response_witness == expected
                assert dataclasses.replace(r, response_witness=None) == \
                    dataclasses.replace(b, response_witness=None)
    assert scaled


def test_route_agreement_on_random_designs():
    # accessible_* raises internally on any geometric/analytic mismatch, so
    # sweeping with route="both" is itself the assertion
    rng = random.Random(61)
    for _ in range(6):
        n, p = rng.randint(1, 2), rng.randint(2, 3)
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(p)] for _ in range(n)]
        )
        accessible_sign_vectors(X)
    for _ in range(4):
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2)]]
        )
        w = sorted({Fraction(rng.randint(1, 12), 2) for _ in range(2)}, reverse=True)
        while len(w) < 2:
            w.append(w[-1] / 2)
        accessible_slope_models(X, w)


def test_support_and_cluster_bounds_under_uniqueness():
    rng = random.Random(67)
    checked = 0
    for _ in range(10):
        n, p = rng.randint(1, 2), 3
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4)) for _ in range(p)] for _ in range(n)]
        )
        r = rank(X)
        if check_uniqueness(X, l1_norm(p)).unique_for_all_y:
            for rep in accessible_sign_vectors(X, route=GEOMETRIC):
                if rep.accessible:
                    assert sum(1 for t in rep.pattern if t) <= r
            checked += 1
        w = (Fraction(7, 2), Fraction(2), Fraction(1, 2))
        if check_uniqueness(X, slope_norm(w)).unique_for_all_y:
            for rep in accessible_slope_models(X, w, route=GEOMETRIC):
                if rep.accessible:
                    assert max(abs(t) for t in rep.pattern) <= r
            checked += 1
    assert checked > 0


def test_classify_null_region_is_exact():
    # dual norm of X'y at y=(1/10, 1/10) is far below 1, so zero is optimal
    y = (Fraction(1, 10), Fraction(1, 10))
    out = classify_response(DEMO_X, DEMO_W, y)
    assert out.model == (0, 0, 0)
    assert out.residual == y
    assert out.solution == (0, 0, 0)
    assert out.ambiguous is False
    assert out.model_face.codim == 0


def test_classify_recovers_witness_models():
    reports = accessible_slope_models(DEMO_X, DEMO_W, route=GEOMETRIC)
    hits = 0
    for r in reports:
        if not r.accessible or r.pattern == (0, 0, 0):
            continue
        y = [float(t) for t in r.response_witness]
        out = classify_response(DEMO_X, DEMO_W, y)
        assert out.model == r.pattern
        assert max(abs(t) for t in out.model) <= 2  # rank bound in the unique case
        assert out.model_face == model_to_face(r.pattern, DEMO_W)
        assert out.ambiguous is False
        hits += 1
    assert hits == 16


def test_classify_composite_response_round_trip():
    # y = f + Xb with b carrying the model keeps the model readable from y
    reports = {r.pattern: r for r in accessible_slope_models(DEMO_X, DEMO_W, route=GEOMETRIC)}
    cases = [
        ((2, 1, 1), (Fraction(3), Fraction(3, 2), Fraction(3, 2))),
        ((1, 0, 0), (Fraction(5), Fraction(0), Fraction(0))),
        ((-1, 0, 2), (Fraction(-1), Fraction(0), Fraction(4))),
    ]
    for m, b in cases:
        assert model_of(b) == m
        f = reports[m].dual_witness
        y = tuple(float(a + c) for a, c in zip(f, DEMO_X.matvec(b)))
        out = classify_response(DEMO_X, DEMO_W, y)
        assert out.model == m


def test_classify_ambiguity_flag_and_cap():
    # row space of (2 1) passes through the dual-ball vertex (2, 1), which has
    # codimension 2 > rank, so no response has a guaranteed-unique minimizer
    X = RationalMatrix.from_rows([[2, 1]])
    out = classify_response(X, (2, 1), (Fraction(5),))
    assert out.ambiguous is True
    assert not check_uniqueness(X, slope_norm((2, 1))).unique_for_all_y
    # duplicated columns are fine for strictly decreasing weights: the row
    # space only crosses an edge of the octagon, never a vertex
    assert check_uniqueness(
        RationalMatrix.from_rows([[1, 1]]), slope_norm((2, 1))
    ).unique_for_all_y

    wide = RationalMatrix.from_rows([[1] * 7])
    tiny = (Fraction(1, 100),)
    out = classify_response(wide, tuple(range(7, 0, -1)), tiny)
    assert out.model == (0,) * 7
    assert out.ambiguous is None  # model sweep beyond the enumeration cap


def test_a_design_sweeps_its_ambiguity_once(monkeypatch):
    # every classification of one design (and of an equal one) reads one
    # cached ambiguity verdict, so ker(X) is computed once, whether the
    # response lies in the zero region, outside it, or is given in floats
    calls = []
    monkeypatch.setattr(geometry_module, "_integer_kernel",
                        lambda rows, real=geometry_module._integer_kernel: calls.append(rows) or real(rows))
    analysis_module._ambiguity_flag.cache_clear()
    X = RationalMatrix.from_rows([[2, 1, 0], [1, -1, 3]])
    w = (3, 2, 1)
    ys = [(Fraction(1, 10), Fraction(1, 10)), (Fraction(7), Fraction(-2)), (3.0, 1.5)]
    first = [classify_response(X, w, y) for y in ys]
    again = classify_response(RationalMatrix.from_rows(X.rows), w, ys[1])
    assert len(calls) == 1
    assert again == first[1]
    assert {c.ambiguous for c in first} == {not check_uniqueness(X, slope_norm(w)).unique_for_all_y}


def test_null_set_projection_inside_is_identity():
    y = (Fraction(1, 10), Fraction(-1, 20))
    norm = slope_norm(DEMO_W)
    assert null_set_projection(DEMO_X, norm, y) == y


def test_uncertified_solves_carry_their_solution():
    y = (Fraction(20), Fraction(5))
    short = SolverOptions(max_iter=3)
    with pytest.raises(UncertifiedSolve, match="failed to certify") as exc:
        classify_response(DEMO_X, DEMO_W, y, options=short)
    with pytest.raises(UncertifiedSolve, match="requires a certified solve") as exc2:
        null_set_projection(DEMO_X, slope_norm(DEMO_W), y, options=short)
    for e in (exc, exc2):
        sol = e.value.solution
        assert not sol.converged and sol.iterations == 3
        assert isinstance(e.value, RuntimeError)
        # so does its float read, which a caller reports without reading again
        assert e.value.fit == analysis_module._read(DEMO_X, y, slope_norm(DEMO_W), sol)


def test_nested_list_designs_read_like_arrays():
    # a design given as nested lists of floats is read as the float array
    # it spells, after the solve as well as inside it
    rows = [[1.0, 2.0, 0.5], [0.0, 1.0, -1.0]]
    y = [3.0, 1.0]
    for norm in (sup_norm(3), l1_norm(3, Fraction(3, 2)), slope_norm([3, 2, 0])):
        assert null_set_projection(rows, norm, y) == null_set_projection(np.asarray(rows), norm, y)
    assert classify_response(rows, [3, 2, 1], y) == classify_response(np.asarray(rows), [3, 2, 1], y)


def test_null_set_projection_against_active_set_oracle():
    rng = random.Random(71)
    for _ in range(8):
        n, p = 2, rng.randint(2, 3)
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(n)]
        )
        if rank(X) == 0:
            continue
        kind = rng.choice(("l1", "sup", "slope"))
        if kind == "l1":
            norm = l1_norm(p, scale=Fraction(rng.randint(1, 2)))
        elif kind == "sup":
            norm = sup_norm(p)
        else:
            w = sorted({Fraction(rng.randint(1, 8), 2) for _ in range(p)}, reverse=True)
            while len(w) < p:
                w.append(w[-1] / 2)
            norm = slope_norm(w)
        y = vec([Fraction(rng.randint(-12, 12), 2) for _ in range(n)])
        expected = dual_ball_projection(X, norm, y)
        got = null_set_projection(X, norm, [float(t) for t in y])
        assert max(abs(float(e) - g) for e, g in zip(expected, got)) <= 1e-8
        assert dual_norm_value(norm, [float(t) for t in X.rmatvec(vec([Fraction(g).limit_denominator(10**12) for g in got]))]) <= 1 + 1e-8


NEAR_SINGULAR_X = RationalMatrix.from_rows([[-2, Fraction(1, 2), Fraction(-1, 3)], [-5, 1, -1]])
NEAR_SINGULAR_W = (6, 3, 2)
NEAR_SINGULAR_Y = (Fraction(-621, 5), Fraction(1242, 25))


def test_a_near_singular_classification_is_exact():
    # the float certificate's absolute tolerance is out of FISTA's reach
    # here (100000 iterations, then UncertifiedSolve); the exact polish of
    # the model read off an early iterate certifies at tol 0
    c = classify_response(NEAR_SINGULAR_X, NEAR_SINGULAR_W, NEAR_SINGULAR_Y)
    assert c.model == (-1, -2, -2)
    assert c.solution == (Fraction(-692, 125), Fraction(-60954, 125), Fraction(-60954, 125))
    assert c.certificate.passed and c.certificate.tol == 0
    assert kkt_certify(NEAR_SINGULAR_X, NEAR_SINGULAR_Y, c.solution, slope_norm(NEAR_SINGULAR_W)).passed
    fit = analysis_module._fit(NEAR_SINGULAR_X, NEAR_SINGULAR_Y, slope_norm(NEAR_SINGULAR_W))
    assert fit.solution.route == "exact" and fit.solution.converged
    assert fit.solution.iterations == 0
    assert fit.residual == tuple(a - b for a, b in zip(NEAR_SINGULAR_Y, NEAR_SINGULAR_X.matvec(c.solution)))


def test_a_fit_polishes_each_pattern_once(monkeypatch):
    # every _POLISH_EVERY iterations the pattern is read off the iterate,
    # and only a pattern not tried yet is solved; an exact Solution reports
    # 0 iterations, so the polish that certifies is found as the fewest
    # iterations whose fit ends exact
    norm, every = slope_norm(NEAR_SINGULAR_W), solvers_module._POLISH_EVERY
    ends = every
    while analysis_module._fit(NEAR_SINGULAR_X, NEAR_SINGULAR_Y, norm,
                               SolverOptions(max_iter=ends)).solution.route != "exact":
        ends += every
    reads, solves = [], []
    monkeypatch.setattr(solvers_module, "model_of",
                        lambda x, tol, real=model_of: reads.append(real(x, tol)) or reads[-1])
    monkeypatch.setattr(solvers_module, "_piece_point",
                        lambda *args, real=solvers_module._piece_point: solves.append(args[2]) or real(*args))
    fit = analysis_module._fit(NEAR_SINGULAR_X, NEAR_SINGULAR_Y, norm)
    assert fit.solution.route == "exact" and fit.solution.iterations == 0
    assert len(reads) == ends // every
    assert len(solves) == len(set(solves)) > 1
    assert len(solves) <= len(set(reads)) < len(reads)
    # no polish comes before the first: the fit stays the float read of its
    # uncertified iterate
    del reads[:], solves[:]
    short = SolverOptions(max_iter=solvers_module._POLISH_EVERY - 1)
    fit = analysis_module._fit(DEMO_X, (Fraction(20), Fraction(5)), slope_norm(DEMO_W), short)
    assert reads == solves == []
    assert fit.solution.route == "fista" and not fit.solution.converged


def test_a_failed_zero_piece_is_not_tried_again(monkeypatch):
    # y = 1 + 10^-8 lies just outside the zero-solution region of l1 on
    # X = [1], so the zero piece fails before any certificate is built, and
    # every iterate, about 10^-8, reads as the zero model: none of them
    # re-solves b = 0
    reads, checked = [], []
    monkeypatch.setattr(solvers_module, "model_of",
                        lambda x, tol, real=model_of: reads.append(real(x, tol)) or reads[-1])
    monkeypatch.setattr(solvers_module, "_exact_check",
                        lambda *args, real=solvers_module._exact_check: checked.append(args[2]) or real(*args))
    fit = analysis_module._fit(RationalMatrix.from_rows([[1]]), (1 + Fraction(1, 10**8),), l1_norm(1))
    assert reads and set(reads) == {(0,)}
    assert checked == []
    assert fit.solution.route == "fista" and fit.solution.converged


def test_fits_refuse_a_response_or_norm_of_the_wrong_shape(monkeypatch):
    # on a rational 2x3 design, a 1- or 3-entry response and a norm of
    # dimension 2 or 4 are refused in one wording before FISTA builds its
    # prox, for responses that would lie inside the zero-solution region and
    # outside it, rational or float
    built = []
    monkeypatch.setattr(solvers_module, "_prox_for",
                        lambda *args, real=solvers_module._prox_for: built.append(args) or real(*args))
    norm = slope_norm(DEMO_W)
    for scale in (Fraction(1, 1000), Fraction(1000), 1e-3, 1e3):
        cases = [(DEMO_W, norm, y) for y in ((scale,), (scale, -scale, 2 * scale))]
        for w in ((2, 1), (4, 3, 2, 1)):
            cases.append((w, slope_norm(w), (scale, -scale)))
        cases += [(None, wrong, (scale, -scale)) for wrong in (l1_norm(2), sup_norm(4))]
        for w, wrong, y in cases:
            calls = [lambda: null_set_projection(DEMO_X, wrong, y),
                     lambda: analysis_module._fit(DEMO_X, y, wrong)]
            if w is not None:
                calls.append(lambda: classify_response(DEMO_X, w, y))
            for call in calls:
                with pytest.raises(ValueError, match="dimension mismatch"):
                    call()
                assert built == []


@st.composite
def boundary_fits(draw):
    """(X, norm, y, inside): a 1x2 to 3x5 design with entries k/d, the zero
    design and designs with a zero column among them, l1 at scale 1 or 3/2,
    sup, or strict, tied or zero-tail slope, and y = c y0 / ||X'y0||_* for
    c in 1/2, 1 and 3, so that at c = 1 X'y lies on the dual sphere (y0
    itself when X'y0 = 0). inside says whether ||X'y||_* <= 1."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(2, 5))
    entry = st.sampled_from([Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)])
    rows = draw(st.lists(st.lists(entry, min_size=p, max_size=p), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("any", "zero column", "zero")))
    if shape != "any":
        dead = range(p) if shape == "zero" else (draw(st.integers(0, p - 1)),)
        for row in rows:
            for j in dead:
                row[j] = 0
    X = RationalMatrix.from_rows(rows)
    kind = draw(st.sampled_from(("l1", "l1 3/2", "sup", "strict", "tied", "zero-tail")))
    if kind.startswith("l1"):
        norm = l1_norm(p, Fraction(3, 2) if kind == "l1 3/2" else 1)
    elif kind == "sup":
        norm = sup_norm(p)
    else:
        w = sorted(draw(st.lists(st.integers(1, 40), min_size=p, max_size=p, unique=True)), reverse=True)
        if kind == "tied":
            w[1] = w[0]
        elif kind == "zero-tail":
            w = w[: p // 2] + [0] * (p - p // 2)
        norm = slope_norm([Fraction(t, 4) for t in w])
    y0 = draw(st.lists(entry, min_size=n, max_size=n))
    gauge = dual_norm_value(norm, X.rmatvec(y0))
    c = draw(st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3))))
    y = tuple(t * c / gauge for t in y0) if gauge else tuple(y0)
    return X, norm, y, dual_norm_value(norm, X.rmatvec(y)) <= 1


@given(boundary_fits())
def test_a_fit_is_zero_exactly_on_the_zero_region(case):
    # inside the zero-solution region, its sphere included, the fit is the
    # zero piece: exact, at iteration 0, with residual y and no prox built;
    # outside it never is
    X, norm, y, inside = case
    built = []
    with mock.patch.object(solvers_module, "_prox_for",
                           lambda *args, real=solvers_module._prox_for: built.append(args) or real(*args)):
        fit = analysis_module._fit(X, y, norm)
    sol = fit.solution
    zero = (sol.route == "exact" and sol.iterations == 0 and sol.point == (0,) * X.ncols
            and fit.residual == y and fit.pattern == (0,) * X.ncols)
    assert zero == inside
    assert (built == []) == inside
    if inside:
        assert sol.converged and sol.certificate.tol == 0 and sol.certificate.passed
        assert sol.objective == dot(y, y) / 2


@st.composite
def rational_fits(draw):
    """(X, norm, y): a 2x3 to 3x5 design with entries k/d, |k| <= 4, an l1
    norm at scale other than 1, sup, or strict, tied or zero-tail slope
    weights, and a response outside the zero-solution region."""
    n = draw(st.integers(2, 3))
    p = draw(st.integers(n + 1, 5))
    entry = st.sampled_from([Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)])
    X = RationalMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=p, max_size=p),
                                               min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("l1", "sup", "strict", "tied", "zero-tail")))
    if kind == "l1":
        norm = l1_norm(p, draw(st.sampled_from((Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)))))
    elif kind == "sup":
        norm = sup_norm(p)
    else:
        w = sorted(draw(st.lists(st.integers(1, 40), min_size=p, max_size=p, unique=True)), reverse=True)
        if kind == "tied":
            w[1] = w[0]
        elif kind == "zero-tail":
            w = w[: p // 2] + [0] * (p - p // 2)
        norm = slope_norm([Fraction(t, 4) for t in w])
    y0 = draw(st.lists(entry, min_size=n, max_size=n))
    gauge = dual_norm_value(norm, X.rmatvec(y0))
    assume(gauge > 0)
    scale = draw(st.sampled_from((Fraction(11, 10), Fraction(2), Fraction(7, 2))))
    return X, norm, tuple(t * scale / gauge for t in y0)


@given(rational_fits())
def test_rational_fits_outside_the_zero_region_are_exact(case):
    X, norm, y = case
    fit = analysis_module._fit(X, y, norm)
    sol = fit.solution
    assert null_set_projection(X, norm, y) == fit.residual
    float_sol = solvers_module.solve_penalized(X, y, norm)
    float_fit = analysis_module._read(X, y, norm, float_sol)
    # the float projection only orders the oracle's search
    projection = dual_ball_projection(X, norm, y, float_fit.residual)
    if sol.route != "exact":
        # only a pattern whose piece is wider than X has rows (a minimizer
        # that is not unique) is left to the float route, bit for bit
        m = model_of(float_sol.point, solvers_module._PATTERN_TOL)
        live = [any(col) for col in zip(*X.rows)]
        assert len(solvers_module._piece_columns(m, norm._form.integers[1], live)) > X.nrows
        assert sol == float_sol and sol.converged and fit == float_fit
        assert max(abs(float(e) - g) for e, g in zip(projection, fit.residual)) <= (2e-9) ** 0.5
        return
    assert sol.converged and kkt_certify(X, y, sol.point, norm).passed
    assert sol.objective == dot(fit.residual, fit.residual) / 2 + norm_value(norm, sol.point)
    assert fit.residual == projection
    if analysis_module._ambiguity_flag(X, norm) is False and float_sol.converged:
        # a unique minimizer: the float read names its pattern, and the
        # certified float point lies near it
        assert fit.pattern == float_fit.pattern
        assert max(abs(float(a) - b) for a, b in zip(sol.point, float_sol.point)) <= 1e-6


def test_genericity_experiments():
    rep = genericity_experiment(2, 2, slope_norm([2, 1]), trials=20, seed=3)
    assert rep.fraction_unique == 1
    # tall designs have full column rank almost surely
    tall = genericity_experiment(3, 2, slope_norm([2, 1]), trials=10, seed=3)
    assert tall.fraction_unique == 1
    bp = genericity_experiment(1, 2, mode="bp", trials=20, seed=5)
    assert bp.fraction_unique == 1


def test_genericity_substreams_are_stable():
    a = genericity_experiment(2, 2, slope_norm([2, 1]), trials=4, seed=9)
    b = genericity_experiment(2, 2, slope_norm([2, 1]), trials=8, seed=9)
    assert a.outcomes == b.outcomes[:4]
    assert a.to_json_dict() == genericity_experiment(
        2, 2, slope_norm([2, 1]), trials=4, seed=9
    ).to_json_dict()


def test_genericity_snap_is_the_parsed_literal():
    # the Decimal snap of a draw is parse_rational of its 12-digit literal,
    # over magnitudes 1e-8 to 1e14: plain literals ("0.000123456789012",
    # "123456789012") and exponent forms ("1.23456789012e-05", "1e+13")
    rng = random.Random(31)
    draws = [0.0, -0.0, 1e-8, 1e14, 1e-5, 1e12, 123456789012.5, -9.99999999999e-5]
    draws += [rng.choice((1, -1)) * 10 ** rng.uniform(-8, 14) for _ in range(100_000)]
    forms = set()
    for g in draws:
        literal = f"{g:.12g}"
        forms.add("e" in literal)
        assert analysis_module._snap(g) == parse_rational(literal)
    assert forms == {True, False}


def test_genericity_validation():
    with pytest.raises(ValueError):
        genericity_experiment(2, 2, slope_norm([2, 1]), mode="bp", trials=5, seed=0)
    with pytest.raises(ValueError):
        genericity_experiment(2, 2, mode="penalized", trials=5, seed=0)
    with pytest.raises(ValueError):
        genericity_experiment(2, 2, slope_norm([2, 1]), trials=0, seed=0)


def test_reports_serialize_to_json():
    rep = check_uniqueness(RationalMatrix.from_rows([[1, 0]]), sup_norm(2))
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert '"unique_for_all_y": false' in blob
    assert "Fraction" not in blob

    acc = accessible_sign_vectors(RationalMatrix.from_rows([[1, 1]]))
    blob = json.dumps([r.to_json_dict() for r in acc], sort_keys=True)
    assert "Fraction" not in blob

    cls = classify_response(DEMO_X, DEMO_W, (Fraction(1, 10), Fraction(1, 10)))
    blob = json.dumps(cls.to_json_dict(), sort_keys=True)
    assert "Fraction" not in blob


def test_uniqueness_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        check_uniqueness(RationalMatrix.from_rows([[1, 0]]), sup_norm(3))


def test_model_sweep_accepts_tied_weights():
    # one report per model; the two routes agree (route both raises on any
    # disagreement) and models sharing a face share its verdict
    X = RationalMatrix.from_rows([[2, 1, -1], [0, 1, 3]])
    for w in ((3, 3, 1), (2, 1, 0)):
        norm = slope_norm(w)
        reports = accessible_slope_models(X, w)
        assert [r.pattern for r in reports] == enumerate_models(3)
        verdict = {}
        for r in reports:
            vertices = frozenset(model_to_face(r.pattern, norm.weights).vertices())
            assert verdict.setdefault(vertices, r.accessible) == r.accessible
            if r.accessible and any(r.pattern):
                cert = kkt_certify(X, r.response_witness, vec(r.pattern), norm)
                assert cert.passed and cert.tol == 0
        assert 0 < sum(r.accessible for r in reports) < len(reports)
    with pytest.raises(ValueError):
        accessible_slope_models(X, (1, 2, 3))


def test_degenerate_slope_cap_refusal():
    # tied weights answer up to the model cap and refuse beyond it
    X = RationalMatrix.from_rows([[1, 2, 0, 1, 1], [0, 1, 1, 3, -1]])
    norm = slope_norm([2, 2, 1, 1, 1])
    report = check_uniqueness(X, norm)
    assert not report.unique_for_all_y
    assert_valid_penalized_witness(X, norm, report)
    wide = RationalMatrix.from_rows([[1, 0, 0, 1, 1, 2, 3]])
    with pytest.raises(CapExceeded, match="exceeds cap 6"):
        check_uniqueness(wide, slope_norm([2, 2, 1, 1, 1, 1, 1]))


def test_vertex_cap_reaches_the_sweeps():
    # the first face beyond rank 1 of the p=4 slope ball has 8 vertices, and
    # the first cube face beyond rank 1 in p=3 is an edge: both must refuse
    # before any vertex is built
    X = RationalMatrix.from_rows([[1, 2, 3, 4]])
    with pytest.raises(CapExceeded, match="cap is 1"):
        check_uniqueness(X, slope_norm([4, 3, 2, 1]), vertex_cap=1)
    Y = RationalMatrix.from_rows([[1, 2, 5]])
    with pytest.raises(CapExceeded, match="face has 2 vertices, cap is 1"):
        check_uniqueness_bp(Y, vertex_cap=1)
    assert check_uniqueness_bp(Y, vertex_cap=2).unique_for_all_y
    with pytest.raises(CapExceeded):
        genericity_experiment(1, 3, mode="bp", trials=2, seed=0, vertex_cap=1)
    with pytest.raises(CapExceeded):
        genericity_experiment(2, 4, slope_norm([3, 2, 1, Fraction(1, 2)]), trials=1, vertex_cap=1)


_SMALL = st.sampled_from([Fraction(k, d) for k in range(-3, 4) for d in (1, 2)])
_NONZERO = st.sampled_from([Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2)])


@st.composite
def design_and_row_mix(draw, max_p=4):
    """(X, A X) with n < p <= max_p and A = L U invertible: L unit lower
    triangular, U upper triangular with a nonzero diagonal. Tall-as-allowed
    designs come first, and some repeat a row to lose rank."""
    p = draw(st.integers(2, max_p))
    n = p - draw(st.integers(1, p - 1))
    X = draw(st.lists(st.lists(_SMALL, min_size=p, max_size=p), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        X[-1] = [2 * x for x in X[0]]
    return RationalMatrix.from_rows(X), RationalMatrix.from_rows(_row_mix(draw, X, _SMALL, _NONZERO))


def _row_mix(draw, X, entries, diagonal):
    """A X for A = L U: L unit lower triangular with entries off the
    diagonal, U upper triangular with entries above it and a diagonal drawn
    from nonzero values, so A is invertible."""
    n, p = len(X), len(X[0])
    L = [[Fraction(i == j) if j >= i else draw(entries) for j in range(n)] for i in range(n)]
    U = [[draw(diagonal) if j == i else draw(entries) if j > i else Fraction(0)
          for j in range(n)] for i in range(n)]
    A = [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(A[i][k] * X[k][j] for k in range(n)) for j in range(p)] for i in range(n)]


@given(design_and_row_mix(), st.sampled_from(["l1", "sup", "slope", "bp"]))
def test_uniqueness_depends_only_on_the_row_space(pair, kind):
    # A X has the same row space as X but another kernel basis, another
    # integer scaling of it and other witnesses
    X, AX = pair
    p = X.ncols
    if kind == "bp":
        a, b = check_uniqueness_bp(X), check_uniqueness_bp(AX)
    else:
        norm = {
            "l1": l1_norm(p, scale=Fraction(3, 2)),
            "sup": sup_norm(p),
            "slope": slope_norm([Fraction(7, 2), 2, Fraction(3, 2), Fraction(1, 2)][:p]),
        }[kind]
        a, b = check_uniqueness(X, norm), check_uniqueness(AX, norm)
    assert (a.unique_for_all_y, a.rank, a.offending_face) == (
        b.unique_for_all_y, b.rank, b.offending_face)


@given(design_and_row_mix(max_p=3), st.sampled_from(["sign", "model"]))
def test_accessible_sets_depend_only_on_the_row_space(pair, kind):
    # accessibility asks whether row(X) meets a face, so A X gives the same
    # table; only the dual and response witnesses may differ
    tables = []
    for M in pair:
        if kind == "sign":
            reports = accessible_sign_vectors(M, route=GEOMETRIC)
        else:
            w = [Fraction(7, 2), 2, Fraction(1, 2)][: M.ncols]
            reports = accessible_slope_models(M, w, route=GEOMETRIC)
        tables.append([(r.pattern, r.accessible) for r in reports])
    assert tables[0] == tables[1]


@st.composite
def small_designs(draw, max_p=4):
    """n < p <= max_p with entries k/d, |k| <= 3; about half repeat a column
    up to sign, which makes the l1 minimizer non-unique for some response."""
    p = draw(st.integers(2, max_p))
    n = draw(st.integers(1, p - 1))
    rows = draw(st.lists(st.lists(_SMALL, min_size=p, max_size=p), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(p)))[:2]
        sign = draw(st.sampled_from((1, -1)))
        for row in rows:
            row[j] = sign * row[i]
    return RationalMatrix.from_rows(rows)


@given(small_designs())
def test_bp_uniqueness_is_the_l1_cube_sweep(X):
    # basis pursuit and the l1 penalty share the uniqueness condition (no
    # cube face beyond rk(X) meets row(X)) and the witness pair, which
    # basis pursuit reads at y = X first
    bp = check_uniqueness_bp(X)
    pen = check_uniqueness(X, l1_norm(X.ncols))
    assert (bp.unique_for_all_y, bp.rank, bp.offending_face) == (
        pen.unique_for_all_y, pen.rank, pen.offending_face)
    if not pen.unique_for_all_y:
        b, w = bp.witness, pen.witness
        assert (b.first, b.second, b.dual_vector) == (w.first, w.second, w.dual_vector)
        assert b.response == X.matvec(b.first) and b.objective == sum(map(abs, b.first))


FAMILIES = ("l1", "sup", "strict", "tied", "zero", "bp")
_SLOPE_WEIGHTS = {
    "strict": [3, 2, 1, Fraction(1, 2)],
    "tied": [3, 3, 1, 1],
    "zero": [2, 1, 0, 0],
}


def family_norm(kind, p):
    if kind == "l1":
        return l1_norm(p, scale=Fraction(3, 2))
    if kind == "sup":
        return sup_norm(p)
    return slope_norm(_SLOPE_WEIGHTS[kind][:p])


def family_uniqueness(X, kind):
    return check_uniqueness_bp(X) if kind == "bp" else check_uniqueness(X, family_norm(kind, X.ncols))


def assert_valid_bp_witness(X, report):
    w = report.witness
    assert w is not None and report.offending_face.codim == report.rank + 1
    assert w.first != w.second
    assert X.matvec(w.first) == X.matvec(w.second) == w.response
    assert sum(map(abs, w.first)) == sum(map(abs, w.second)) == w.objective
    for b in (w.first, w.second):
        assert bp_certificate_holds(X, b, w.dual_vector)


# 12-digit entries of either sign, none zero
_DIGITS = st.builds(operator.mul, st.sampled_from((1, -1)), st.integers(10**11, 10**12 - 1)).map(Fraction)
_POSITIVE = st.sampled_from((Fraction(1, 3), Fraction(7, 5), Fraction(2), Fraction(10**12 + 1, 3)))
ROW_VARIANTS = ("mix", "digits", "permute", "scale", "append")


@st.composite
def row_space_variants(draw, how):
    """(X, X') with row(X') = row(X) and p <= 3, by variant: X' = A X for an
    invertible A of small ("mix") or of 12-digit ("digits") entries, X with
    its rows permuted, c X for c > 0, or X with a multiple of one of its
    rows appended (a zero row for the multiple 0)."""
    X = [list(row) for row in draw(small_designs(max_p=3)).rows]
    if how == "mix":
        rows = _row_mix(draw, X, _SMALL, _NONZERO)
    elif how == "digits":
        rows = _row_mix(draw, X, _DIGITS, _DIGITS)
    elif how == "permute":
        rows = [X[i] for i in draw(st.permutations(range(len(X))))]
    elif how == "scale":
        c = draw(_POSITIVE)
        rows = [[c * x for x in row] for row in X]
    else:
        k = draw(_SMALL)
        rows = X + [[k * x for x in draw(st.sampled_from(X))]]
    return RationalMatrix.from_rows(X), RationalMatrix.from_rows(rows)


def _region_images(X, norm):
    """{X'u} over the vertices u of the zero-solution region D."""
    return {X.rmatvec(u) for u in zero_region(X, norm)}


def _table(X, norm):
    """norm's accessibility table: models for slope, sign vectors for l1."""
    if norm.kind == "slope":
        return accessible_slope_models(X, norm.weights.values)
    return accessible_sign_vectors(X, lam=norm.scale)


def _scaled(norm, c):
    if norm.kind == "slope":
        return slope_norm([c * w for w in norm.weights.values])
    return l1_norm(norm.dim, scale=c * norm.scale) if norm.kind == "l1" else norm


def _label(report):
    return None if report.offending_face is None else report.offending_face.pattern


@pytest.mark.parametrize("how", ROW_VARIANTS)
@settings(max_examples=20)  # six families, two tables and five regions: about 0.5 s a variant
@given(st.data())
def test_answers_depend_only_on_the_row_space(how, data):
    # uniqueness, the offending face and its witness pair, the tables and
    # D's images {X'u} are read off row(X), which X' shares; the witnesses
    # that live in response space differ and must certify on X'. Scaling
    # the norm by c > 0 keeps every verdict and label
    X, Xp = data.draw(row_space_variants(how))
    c = data.draw(_POSITIVE)
    p = X.ncols
    for kind in FAMILIES:
        a, b = family_uniqueness(X, kind), family_uniqueness(Xp, kind)
        assert (a.unique_for_all_y, a.rank, a.offending_face) == (
            b.unique_for_all_y, b.rank, b.offending_face)
        if not a.unique_for_all_y:
            assert (a.witness.first, a.witness.second) == (b.witness.first, b.witness.second)
            if kind == "bp":
                assert_valid_bp_witness(Xp, b)
            else:
                assert_valid_penalized_witness(Xp, family_norm(kind, p), b)
        if kind != "bp":
            norm = family_norm(kind, p)
            assert _region_images(X, norm) == _region_images(Xp, norm)
            s = check_uniqueness(X, _scaled(norm, c))
            assert (s.unique_for_all_y, s.rank, _label(s)) == (a.unique_for_all_y, a.rank, _label(a))
    slope = data.draw(st.sampled_from(sorted(_SLOPE_WEIGHTS)))
    for norm in (family_norm("l1", p), family_norm(slope, p)):
        tables = [_table(M, norm) for M in (X, Xp)]
        assert [(r.pattern, r.accessible, r.geometric_hit, r.analytic_value) for r in tables[0]] == [
            (r.pattern, r.accessible, r.geometric_hit, r.analytic_value) for r in tables[1]]
        for r in tables[1]:
            if r.dual_witness is None:
                continue
            point = vec(r.pattern)
            if norm.kind == "slope":
                assert kkt_certify(Xp, r.response_witness, point, norm).passed
            else:
                assert bp_certificate_holds(Xp, point, r.dual_witness)
        assert [(r.pattern, r.accessible) for r in _table(X, _scaled(norm, c))] == [
            (r.pattern, r.accessible) for r in tables[0]]


@settings(max_examples=25)  # two model sweeps per example keep it near 1.5 s
@given(small_designs(max_p=4), st.data())
def test_signed_column_permutations_permute_faces_and_patterns(X, data):
    # column j of X G is signs[j] times column perm[j] of X, so b minimizes
    # for X iff g(b) does for X G, with the same norm and fit; the norms are
    # invariant under g, so D is the same set of u and (XG)'u = g(X'u)
    p = X.ncols
    g = SignedPermutation(
        tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=p, max_size=p))),
        tuple(data.draw(st.permutations(range(p)))),
    )
    XG = RationalMatrix.from_rows([g.apply(row) for row in X.rows])
    for kind in FAMILIES:
        if kind in _SLOPE_WEIGHTS and p > 3:
            continue  # a unique p = 4 slope design sweeps about 1700 faces
        a, b = family_uniqueness(X, kind), family_uniqueness(XG, kind)
        assert (a.unique_for_all_y, a.rank) == (b.unique_for_all_y, b.rank)
        if not a.unique_for_all_y:
            assert a.offending_face.codim == b.offending_face.codim
        if kind != "bp":
            norm = family_norm(kind, p)
            assert _region_images(XG, norm) == {g.apply(s) for s in _region_images(X, norm)}
    tables = [lambda M: accessible_sign_vectors(M, route=GEOMETRIC)]
    if p <= 3:
        w = _SLOPE_WEIGHTS[data.draw(st.sampled_from(sorted(_SLOPE_WEIGHTS)))][:p]
        tables.append(lambda M: accessible_slope_models(M, w, route=GEOMETRIC))
    for table in tables:
        accessible = {r.pattern for r in table(X) if r.accessible}
        assert {r.pattern for r in table(XG) if r.accessible} == {g.apply(m) for m in accessible}


@given(small_designs())
# row(X) passes through a vertex of the strict and of the zero-weight ball
@example(RationalMatrix.from_rows([[3, 2, 1]]))
@example(RationalMatrix.from_rows([[2, 1, 0]]))
def test_witnesses_certify_on_arbitrary_designs(X):
    for kind in FAMILIES:
        if kind in _SLOPE_WEIGHTS and X.ncols > 3:
            continue  # a unique p = 4 slope design sweeps about 1700 faces
        report = family_uniqueness(X, kind)
        if report.unique_for_all_y:
            continue
        if kind == "bp":
            assert_valid_bp_witness(X, report)
        else:
            assert_valid_penalized_witness(X, family_norm(kind, X.ncols), report)


def _reference_exposed_points(norm, face):
    # the centroid of the face's Fraction vertices, the primal-ball vertices
    # pairing to 1 with it, and the pivots of their Fraction reduced form
    verts = face.vertices(None)
    centroid = tuple(sum(col) / len(verts) for col in zip(*verts))
    points = exposed_primal_vertices(norm, centroid)
    if len(points) > face.codim:
        points = [points[k] for k in fraction_rref(list(zip(*points)))[1]]
    den, ints = clear_denominators(points)
    return den, ints, tuple(Fraction(sum(col), den) for col in zip(*ints))


def test_exposed_points_match_the_fraction_reference():
    # a witness's exposed points come from integer pairings and integer
    # pivots; on every face of level rk(X) + 1 that row(X) meets, for every
    # family (bp reads l1 at scale 1), they are the Fraction reference's
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        p = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p)]
                for _ in range(rng.randint(1, p - 1))]
        if rng.random() < 0.5:  # a column repeated up to sign
            i, j = rng.sample(range(p), 2)
            for row in rows:
                row[j] = rng.choice((1, -1)) * row[i]
        X = RationalMatrix.from_rows(rows)
        kernel = geometry_module.DesignKernel(X)
        r = kernel.rank
        for kind in FAMILIES:
            if r == p or kind in _SLOPE_WEIGHTS and p > 3:
                continue  # no level beyond the rank; a p = 4 slope level is large
            norm = l1_norm(p) if kind == "bp" else family_norm(kind, p)
            d, level = norms_module._dual_ball_level(norm, r + 1, None)
            for i, _ in kernel.level_hits(d, level, None):
                face = norms_module._dual_ball_face(norm, level.labels[i])
                got = analysis_module._exposed_points.__wrapped__(norm, face)
                want = _reference_exposed_points(norm, face)
                assert got == want and repr(got) == repr(want)
                checked += 1
    assert checked > 100


def test_unique_designs_sweep_one_level(monkeypatch):
    # every face beyond rk(X) lies in a face of codim rk(X) + 1, so a unique
    # design is settled by that level alone; the sweep tests each label of
    # the level through the kernel's screen, and the codim is that of the
    # label's face
    seen = []
    real = geometry_module.DesignKernel.level_hits
    monkeypatch.setattr(geometry_module.DesignKernel, "level_hits",
                        lambda kernel, d, level, *rest: seen.extend(level.labels)
                        or real(kernel, d, level, *rest))
    for rows in ([[1, 3, 7, 15]], [[2, -3, 5, 7], [1, 4, -2, 9]]):
        X = RationalMatrix.from_rows(rows)
        for kind in ("l1", "sup", "strict", "tied", "bp"):
            seen.clear()
            report = family_uniqueness(X, kind)
            assert report.unique_for_all_y and report.rank == len(rows)
            norm = l1_norm(4) if kind == "bp" else family_norm(kind, 4)
            codims = [norms_module._label_face(norm, label).codim for label in seen]
            assert codims and set(codims) == {report.rank + 1}


def _per_entry_hits(kernel, d, level, cap):
    """The reference of DesignKernel.level_hits: the integer core on every
    face of the level in order, read through its index, with kernel images
    computed one vertex at a time, the whole ball holding 0, each other face
    checked against the cap first."""
    for i, (label, count, ivs) in enumerate(level_faces(level)):
        if not any(label):
            yield i, geometry_module._origin(kernel.X)
            continue
        if cap is not None and count > cap:
            raise CapExceeded(f"face has {count} vertices, cap is {cap}")
        hit = core_hit(kernel, d, ivs)
        if hit is not None:
            yield i, hit


def _read(hits, first_only=False):
    """The hits a sweep reads, stopping at the first if asked, and the
    refusal that ended it, if any."""
    out = []
    try:
        for item in hits:
            out.append(item)
            if first_only:
                break
    except CapExceeded as err:
        return out, str(err)
    return out, None


def _bp_witness(X, face, hit):
    first, second, value = analysis_module._witness_pair(X, l1_norm(X.ncols), face)
    assert value == norm_value(l1_norm(X.ncols), first)
    return analysis_module.NonUniquenessWitness(X.matvec(first), first, second, value, hit.z)


def assert_screen_matches_per_entry_reference(X, cap):
    kernel = geometry_module.DesignKernel(X)
    r = rank(X)
    for family in FAMILIES:
        bp = family == "bp"
        norm = l1_norm(X.ncols) if bp else family_norm(family, X.ncols)
        # the route sweeps read every hit of the whole table, label by label
        d, table = norms_module._dual_ball_level(norm, None, None)
        hits, refusal = _read(_per_entry_hits(kernel, d, table, cap))
        assert _read(kernel.level_hits(d, table, cap)) == (hits, refusal)
        if not bp:
            reports, refused = _read(analysis_module._route_sweep(X, norm, GEOMETRIC, None, cap))
            assert refused == refusal
            if refusal is None:
                by_index = dict(hits)
                assert [(rep.geometric_hit, rep.dual_witness) for rep in reports] == [
                    (i in by_index, by_index[i].z if i in by_index else None)
                    for i in range(len(table.labels))]
        if r == X.ncols:
            continue
        # the uniqueness sweep reads the first hit of level r + 1
        d, level = norms_module._dual_ball_level(norm, r + 1, None)
        first, refusal = _read(_per_entry_hits(kernel, d, level, cap), first_only=True)
        assert _read(kernel.level_hits(d, level, cap), first_only=True) == (first, refusal)
        sweep = functools.partial(check_uniqueness_bp, X) if bp else functools.partial(
            check_uniqueness, X, norm)
        if refusal is not None:
            with pytest.raises(CapExceeded) as err:
                sweep(vertex_cap=cap)
            assert str(err.value) == refusal
            continue
        report = sweep(vertex_cap=cap)
        assert report.unique_for_all_y == (not first)
        if first:
            (i, hit), = first
            face = norms_module._dual_ball_face(norm, level.labels[i])
            assert report.offending_face is face
            expected = _bp_witness(X, face, hit) if bp else analysis_module._penalized_witness(
                X, norm, face, hit)
            assert report.witness == expected


_SQUARE = st.integers(2, 3).flatmap(lambda p: st.lists(
    st.lists(_SMALL, min_size=p, max_size=p), min_size=p, max_size=p)).map(RationalMatrix.from_rows)


@settings(max_examples=15)  # the reference runs phase 1 on every larger face
@given(st.one_of(small_designs(max_p=3), _SQUARE), st.sampled_from((None, 1, 2, 3)))
# full rank: an empty kernel, every face meets row(X)
@example(RationalMatrix.from_rows([[1, 2], [0, 1]]), None)
@example(RationalMatrix.from_rows([[1, 0, 2], [0, 1, 1], [1, 1, 0]]), 2)
# a vertex and an edge of the strict ball in row(X), and a repeated column
@example(RationalMatrix.from_rows([[3, 2, 1]]), None)
@example(RationalMatrix.from_rows([[1, 1, 0], [0, 1, 2]]), 3)
# a negative cap refuses at the first face with vertices, never at the zero label
@example(RationalMatrix.from_rows([[1, 2, 0], [0, 1, 1]]), -1)
def test_screened_sweeps_match_the_per_entry_reference(X, cap):
    # the screen decides vertices and edges and passes a superset of the
    # larger faces that meet row(X): the first hit, the witness, every hit
    # of a route sweep and each refusal are the per-entry test's
    assert_screen_matches_per_entry_reference(X, cap)


def test_screen_keeps_exact_integers_beyond_64_bits():
    # 12-digit entries, like a genericity design, give kernel images beyond
    # 2^63; the first row puts the point (1, t, 1, 1) of an edge of the
    # plain l1 cube into row(X), so an edge is decided by 2x2 minors of those
    # integers, which neither int64 nor float arithmetic gets right
    X = RationalMatrix.from_rows([
        [1, "0.318309886184", 1, 1],
        ["0.707106781187", "-1.41421356237", "0.577350269190", "2.71828182846"]])
    kernel = geometry_module.DesignKernel(X)
    d, level = norms_module._dual_ball_level(l1_norm(4), 3, None)
    images = level.vertex_rows(np.arange(len(level.ranks))) @ kernel.columns
    assert max(abs(x) for x in images.flat) > 2 ** 63
    hits = dict(kernel.level_hits(d, level, None))
    assert any(level.index.sizes[i] == 2 for i in hits)
    assert not check_uniqueness_bp(X).unique_for_all_y
    assert_screen_matches_per_entry_reference(X, None)


@pytest.mark.parametrize("rows, scale", [
    pytest.param([["1e300", 3, "-2e300"], [1, "1e300", 5]], 1, id="rows0"),  # kernel entries near 1e600
    pytest.param([["1e301", "-1e301", 7]], 1, id="rows1"),  # kernel entries near 1e301, past 2^1000 on their own
    pytest.param([[1, 2, -1], [0, 1, 3]], 10 ** 301, id="weights"),  # small entries, weights past 2^1000
])
def test_screen_computes_every_image_exactly_past_the_float_range(rows, scale):
    # B = p max|v| max|k| reaches 2^1000 on every level, through the kernel
    # or through the norm's weights alone, so no float product is formed
    # and each image is a Python-int product, as at 64 bits
    X = RationalMatrix.from_rows(rows)
    kernel = geometry_module.DesignKernel(X)
    for norm in (l1_norm(X.ncols, scale), slope_norm([scale * k for k in range(X.ncols, 0, -1)])):
        level = norms_module._dual_ball_level(norm, rank(X) + 1, None)[1]
        assert geometry_module._Images(kernel, level).floats is None
        d, table = norms_module._dual_ball_level(norm, None, None)
        assert _read(kernel.level_hits(d, table, None)) == _read(_per_entry_hits(kernel, d, table, None))
    assert_screen_matches_per_entry_reference(X, None)


def _per_label_support(region, labels):
    # the analytic route's support values one label and one vertex at a time
    return [max(sum(a * b for a, b in zip(t, s)) for s in region.duals) for t in labels.tolist()]


def test_support_values_keep_exact_integers_beyond_64_bits():
    # 12-digit entries give support values of some 180 and 390 bits, past
    # the int64 bound, so the product runs on Python ints and equals the
    # per-label max
    X = RationalMatrix.from_rows([
        [1, "0.318309886184", 1, 1],
        ["0.707106781187", "-1.41421356237", "0.577350269190", "2.71828182846"]])
    for norm in (l1_norm(4), slope_norm([4, 3, 2, 1])):
        region = norms_module._zero_region(X, norm)
        labels = norms_module._dual_ball_level(norm, None, None, False)[1].label_array
        assert max(abs(x) for s in region.duals for x in s) * 4 * int(abs(labels).max()) >= 2 ** 62
        values = region.support_values(labels)
        assert max(map(abs, values)) > 2 ** 63
        assert values == _per_label_support(region, labels)


def test_analytic_tables_match_the_per_label_max(monkeypatch):
    # the one product gives the tables on routes analytic and both,
    # byte for byte, that the per-label max gives, for l1, sup and strict,
    # tied and zero-tail slope weights
    rng = random.Random(23)
    designs = [DEMO_X] + [RationalMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p)] for _ in range(n)])
        for p in (3, 4) for n in (1, 2, 3)]

    def tables():
        out = []
        for X in designs:
            p = X.ncols
            for route in (ANALYTIC, BOTH):
                out.append([r.to_json_dict() for r in accessible_sign_vectors(X, route, lam=Fraction(3, 2))])
                out.append([r.to_json_dict() for r in analysis_module._route_sweep(
                    X, sup_norm(p), route, None, DEFAULT_VERTEX_CAP)])
                for kind in ("strict", "tied", "zero"):
                    weights = list(family_norm(kind, p).weights)
                    out.append([r.to_json_dict() for r in accessible_slope_models(X, weights, route)])
        return json.dumps(out)

    product = tables()
    monkeypatch.setattr(norms_module._ZeroRegion, "support_values", _per_label_support)
    assert product == tables()


def test_an_early_exit_screens_a_prefix_of_its_level(monkeypatch):
    # the level of codim 5 of the strict p = 6 ball has 138240 faces; a
    # non-unique rank-4 design that hits early screens a few hundred of them
    # and projects only the vertices those use
    screened = []
    real = geometry_module._screen

    def counting(images, ids, bounds, sizes):
        screened.append((len(sizes), len(images)))
        return real(images, ids, bounds, sizes)

    monkeypatch.setattr(geometry_module, "_screen", counting)
    norm = slope_norm([6, 5, 4, 3, 2, 1])
    X = RationalMatrix.from_rows([[2, 0, 0, 2, -2, 1], [-1, -2, -1, -2, 0, 1],
                                  [-1, 1, 2, -2, 2, -1], [-2, -1, 1, 0, -1, 1]])
    try:
        report = check_uniqueness(X, norm)
        assert (report.rank, report.unique_for_all_y) == (4, False)
        assert_valid_penalized_witness(X, norm, report)
        _, level = norms_module._dual_ball_level(norm, 5, None)
        assert len(level.labels) == 138240
        assert 0 < sum(n for n, _ in screened) <= 2 * geometry_module._FIRST_CHUNK
        assert max(m for _, m in screened) < len(level.ranks) // 10
    finally:  # the level holds about 75 MB
        norms_module._dual_ball_level.cache_clear()
        norms_module._weight_free_level.cache_clear()


def test_tied_weight_faces_never_reach_the_brute_force_grid():
    norms_module._dual_ball_level.cache_clear()
    norms_module._weight_free_level.cache_clear()
    norm = slope_norm([3, 3, 1, Fraction(1, 2)])
    designs = (
        [[1, 2, 3, 4]],
        [[1, 0, 2, 1], [0, 1, 1, 3]],
        [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]],
    )
    verdicts = []
    for r, rows in enumerate(designs, start=1):
        X = RationalMatrix.from_rows(rows)
        assert rank(X) == r
        report = check_uniqueness(X, norm)
        verdicts.append(report.unique_for_all_y)
        if not report.unique_for_all_y:
            face = report.offending_face
            assert face.kind == "signperm" and face.codim == model_codim(face.model, norm.weights)
            assert_valid_penalized_witness(X, norm, report)
    assert verdicts == [False, False, True]


def test_analytic_route_never_solves_a_gauge_lp(monkeypatch):
    # the sweeps read the vertices of the zero-solution region instead
    def refuse(*args):
        raise AssertionError("gauge LP on a zero-region path")

    monkeypatch.setattr(solvers_module, "_gauge_lp", refuse)
    X = RationalMatrix.from_rows([[1, 2, 0, -1], [0, 1, 1, 2], [1, 3, 1, 1]])  # rank 2
    for route in (ANALYTIC, BOTH):
        models = accessible_slope_models(DEMO_X, DEMO_W, route=route)
        assert {r.pattern for r in models if r.accessible} == KNOWN_ACCESSIBLE
        flat = RationalMatrix.from_rows([[1, 2, -1], [2, 4, -2]])
        tied = accessible_slope_models(flat, [3, 3, 1], route=route)
        assert all(r.analytic_value <= r.pattern_norm for r in tied)
        assert any(r.accessible for r in tied) and not all(r.accessible for r in tied)
        signs = accessible_sign_vectors(X, route=route)
        assert all(r.analytic_value <= r.pattern_norm for r in signs)
    monkeypatch.undo()
    # the basis-pursuit certificate is the gauge LP's dual, and exists
    # exactly where the region's support function calls a pattern accessible
    for r in signs:
        z = bp_dual_certificate(X, vec(r.pattern))
        assert (z is not None) == r.accessible
        if z is not None:
            assert bp_certificate_holds(X, vec(r.pattern), z)


def test_capped_sweeps_refuse_before_building_the_region(monkeypatch):
    def refuse(*args):
        raise AssertionError("zero region built for a refused sweep")

    monkeypatch.setattr(analysis_module, "_zero_region", refuse)
    X = RationalMatrix.from_rows([[1, 2, 0, -1, 1, 1, 0], [0, 1, 1, 2, -1, 0, 1]])
    for route in (ANALYTIC, BOTH):
        with pytest.raises(CapExceeded, match="exceeds cap 6"):
            accessible_slope_models(X, [7, 6, 5, 4, 3, 2, 1], route=route)
        with pytest.raises(CapExceeded):
            accessible_sign_vectors(X, route=route, limit=6)


def test_a_zero_cap_refuses():
    # limit 0 caps the enumeration at p = 0; only None stands for the default
    X = RationalMatrix.from_rows([[1, 1, 0]])
    for ask in (lambda: check_uniqueness(X, l1_norm(3), limit=0),
                lambda: check_uniqueness(X, slope_norm([3, 2, 1]), limit=0),
                lambda: check_uniqueness_bp(X, limit=0),
                lambda: accessible_sign_vectors(X, limit=0),
                lambda: accessible_slope_models(X, [3, 2, 1], limit=0)):
        with pytest.raises(CapExceeded, match="exceeds cap 0"):
            ask()
    assert check_uniqueness(X, l1_norm(3), limit=None).witness is not None
    assert len(accessible_slope_models(X, [3, 2, 1], limit=None)) == 147


def test_sup_witness_on_a_wide_design():
    # row(X) meets a codim 3 cross-polytope face at rank 2; the witness is
    # read off the three sign vectors that face exposes
    X = RationalMatrix.from_rows(
        [[-1, 2, 2, -1, 0, 2, 1, 2, -2], [2, -2, 1, 0, 2, -1, -1, 1, 2]])
    report = check_uniqueness(X, sup_norm(9))
    assert not report.unique_for_all_y and report.rank == 2
    assert report.offending_face.codim == 3
    assert_valid_penalized_witness(X, sup_norm(9), report)


def test_l1_witness_first_is_the_scaled_sign_vector():
    X = RationalMatrix.from_rows([[1, -1, 2, 1], [0, 1, 1, -1]])
    norm = l1_norm(4, scale=Fraction(3, 2))
    report = check_uniqueness(X, norm)
    sigma = report.offending_face.sign_vector
    assert sigma == (0, 1, 1, -1)
    assert report.witness.first == tuple(Fraction(s) / Fraction(3, 2) for s in sigma)
    assert_valid_penalized_witness(X, norm, report)


def test_uniqueness_never_enumerates_sign_points(monkeypatch):
    calls = []

    def counted(norm):
        calls.append(norm)
        return unit_sphere_sign_points(norm)

    cases = [([[1, 1, 0]], l1_norm(3)), ([[1, 1, 0]], l1_norm(3, scale=Fraction(3, 2))),
             ([[1, 0, 0]], sup_norm(3)), ([[3, 2, 1]], slope_norm([3, 2, 1])),
             ([[1, 1, 0]], slope_norm([2, 2, 1])), ([[2, 1, 0]], slope_norm([2, 1, 0]))]
    for _, norm in cases:  # the primal-ball vertices are cached once per norm
        primal_ball_vertices(norm)
    monkeypatch.setattr(norms_module, "unit_sphere_sign_points", counted)
    monkeypatch.setattr(analysis_module, "unit_sphere_sign_points", counted, raising=False)
    for rows, norm in cases:
        assert check_uniqueness(RationalMatrix.from_rows(rows), norm).witness is not None
    assert calls == []


def test_ambiguity_flag_builds_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("witness built for a verdict")

    monkeypatch.setattr(analysis_module, "_penalized_witness", refuse)
    out = classify_response(RationalMatrix.from_rows([[2, 1]]), (2, 1), (Fraction(5),))
    assert out.ambiguous is True


def test_accessibility_tables_share_one_face_table():
    # the sign table of l1 at p = 5 is built once for both designs; a
    # refusal is not cached and raises on every call
    built = norms_module._weight_free_level.cache_info
    norms_module._dual_ball_level.cache_clear()
    norms_module._weight_free_level.cache_clear()
    X = RationalMatrix.from_rows([[1, 2, 0, -1, 3], [0, 1, 1, 2, -1], [2, 0, 1, 1, 1]])
    Y = RationalMatrix.from_rows([[1, 1, 0, 0, 2], [0, 1, -1, 3, 1], [1, 0, 2, Fraction(1, 2), 0]])
    tables = [accessible_sign_vectors(M, route=GEOMETRIC) for M in (X, Y)]
    assert built().misses == 1
    assert [r.pattern for r in tables[0]] == [r.pattern for r in tables[1]]
    for _ in range(2):
        with pytest.raises(CapExceeded, match="exceeds cap 4"):
            accessible_sign_vectors(X, limit=4)


def test_strict_weights_share_one_weight_free_level():
    # the faces of one level depend on the weights only through their ties
    # and zeros: two strict weight vectors at p = 4 build it once, share its
    # rank table, and each keeps its own integer weights
    built = norms_module._weight_free_level.cache_info
    norms_module._dual_ball_level.cache_clear()
    norms_module._weight_free_level.cache_clear()
    X = RationalMatrix.from_rows([[1, 3, 7, 15]])  # unique: the whole level is swept
    norms = (slope_norm([4, 3, 2, 1]), slope_norm([Fraction(7, 2), 2, Fraction(3, 2), Fraction(1, 2)]))
    for norm in norms:
        assert check_uniqueness(X, norm).unique_for_all_y
    assert (built().misses, built().hits) == (1, 1)
    # the pattern of both, models under (4, 3, 2, 1) at codim 2, is the one built
    norms_module._weight_free_level(True, (4, 3, 2, 1), 2, None, True)
    assert (built().misses, built().hits) == (1, 2)
    tables = [norms_module._dual_ball_level(norm, 2, None) for norm in norms]
    assert [d for d, _ in tables] == [1, 2]
    assert tables[0][1].labels is tables[1][1].labels
    assert tables[0][1].index is tables[1][1].index
    assert tables[0][1].ranks is tables[1][1].ranks
    assert tables[0][1].lookup.tolist() != tables[1][1].lookup.tolist()
    # a non-unique design reports the face of its first hit label, built once
    Z = RationalMatrix.from_rows([[1, 1, 0, 0]])
    reports = [check_uniqueness(Z, norms[1]) for _ in range(2)]
    assert reports[0].offending_face is reports[1].offending_face
    assert built().misses == 1
    # the model cap refuses on every call, since the caches store no exception
    for _ in range(2):
        with pytest.raises(CapExceeded, match="exceeds cap 3"):
            check_uniqueness(X, norms[1], limit=3)


@settings(max_examples=20)  # about 1 s: the gauge LP runs once per label
@given(small_designs(max_p=3))
@example(RationalMatrix.from_rows([[1, 1, 0], [0, 1, 1]]))
def test_three_accessibility_deciders_agree(X):
    # a label t is accessible iff row(X) meets its face, iff the support
    # value max <X t, u> over D's vertices is ||t||, iff the gauge LP's least
    # norm over {b : Xb = Xt}, which never reads D, is ||t||
    for family in FAMILIES[:-1]:  # l1 at scale 3/2, sup, strict, tied and zero slope weights
        norm = family_norm(family, X.ncols)
        sweep = functools.partial(analysis_module._route_sweep, X, norm,
                                  limit=None, vertex_cap=DEFAULT_VERTEX_CAP)
        geometric = {r.pattern for r in sweep(route=GEOMETRIC) if r.accessible}
        analytic = {r.pattern: r.analytic_value == r.pattern_norm for r in sweep(route=ANALYTIC)}
        gauge = {t for t in analytic if norm_min_subject_to(X, t, norm)[0] == norm_value(norm, vec(t))}
        assert geometric == {t for t, hit in analytic.items() if hit} == gauge, family
        assert (0,) * X.ncols in geometric


_X23 = RationalMatrix.from_rows([[1, 2, 0], [0, 1, 1]])


@pytest.mark.parametrize("call, message", [
    (lambda: accessible_sign_vectors(_X23, route="nope"), "unknown route 'nope'"),
    (lambda: accessible_sign_vectors(_X23, lam=0), "penalty scale must be positive"),
    (lambda: accessible_slope_models(_X23, [2, 1]), "weight vector length does not match the matrix"),
    # the route is checked first, before lam and the weights' length
    pytest.param(lambda: accessible_sign_vectors(_X23, route="nope", lam=0), "unknown route 'nope'",
                 id="route-before-lam"),
    pytest.param(lambda: accessible_slope_models(_X23, [2, 1], route="nope"), "unknown route 'nope'",
                 id="route-before-length"),
    (lambda: genericity_experiment(2, 3, norm=l1_norm(2), trials=1), "norm dimension does not match p"),
    (lambda: genericity_experiment(2, 3, mode="nope", trials=1), "unknown mode 'nope'"),
    (lambda: PolytopeNorm("l2", 2), "unknown norm kind 'l2'"),
    (lambda: PolytopeNorm("l1", 0), "dimension must be >= 1"),
    (lambda: dual_norm_value(l1_norm(3), [1, 2]), "dimension mismatch"),
    (lambda: subdifferential_face(l1_norm(3), [1, 2]), "dimension mismatch"),
    (lambda: face_intersects_rowspace(sign_to_cube_face((1, 0)), _X23),
     "face and matrix dimension mismatch"),
    (lambda: solve_exact(_X23, [1, 2, 3]), "dimension mismatch"),
    (lambda: parse_matrix_json([1]), "JSON matrix must be an array of arrays"),
    (lambda: solve_bp(_X23, [1]), "dimension mismatch"),
    (lambda: norm_min_subject_to(_X23, [1, 2], l1_norm(3)), "dimension mismatch"),
    (lambda: dual_ball_figure(l1_norm(3)), "dual-ball figures need exactly two columns"),
    (lambda: dual_ball_figure(l1_norm(2), _X23), "design matrix must have two columns"),
    (lambda: response_region_figure(RationalMatrix.from_rows([[1, 2, 0]]), l1_norm(3)),
     "response-region figures need exactly two rows"),
    (lambda: response_region_figure(_X23, l1_norm(2)), "norm dimension must match column count"),
    (lambda: response_region_figure(RationalMatrix.from_rows([[1, 2, 0], [2, 4, 0]]), l1_norm(3)),
     "rows must be linearly independent, else the region is unbounded"),
])
def test_library_entry_points_refuse_bad_shapes_and_options(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("route", [GEOMETRIC, BOTH])
@pytest.mark.parametrize("table", [
    lambda X, route: accessible_sign_vectors(X, route=route, lam=Fraction(3, 2)),
    lambda X, route: accessible_slope_models(X, [3, 2, 1], route=route),
], ids=["sign", "model"])
def test_a_failed_response_witness_stops_the_table(table, route, monkeypatch):
    # every row with a dual witness certifies its response witness at tol 0
    # before the table answers; a failed certificate raises instead
    failed = solvers_module.Certificate((), None, None, 0, False)
    monkeypatch.setattr(analysis_module, "_exact_check", lambda *args: (failed, None))
    with pytest.raises(AssertionError, match="response witness failed certification"):
        table(_X23, route)

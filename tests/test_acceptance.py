"""Acceptance gate: one test per criterion. Each runs against the public API
with its tolerance and time budget pinned in the test body."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from pengeom.analysis import (
    BOTH,
    accessible_sign_vectors,
    accessible_slope_models,
    check_uniqueness,
    check_uniqueness_bp,
    genericity_experiment,
    null_set_projection,
)
from pengeom.exact import RationalMatrix, dot, rank, solve_exact, vec
from pengeom.geometry import enumerate_models, model_of, model_to_face
from pengeom.norms import (
    dual_ball_membership,
    dual_ball_vertices,
    l1_norm,
    norm_value,
    slope_norm,
    sup_norm,
    unit_sphere_sign_points,
)
from pengeom.solvers import (
    SolverOptions,
    bp_certificate_holds,
    kkt_certify,
    prox_slope,
    solve_penalized,
)

from oracles import enumerate_exposed_faces, signed_permutations

DEMO_X = RationalMatrix.from_rows([[8, 5, 8], [10, Fraction(5, 4), -6]])
DEMO_W = (Fraction(11, 2), Fraction(7, 2), Fraction(3, 2))


def test_criterion_01_sup_norm_uniqueness_pair():
    started = time.perf_counter()
    report = check_uniqueness(RationalMatrix.from_rows([[1, 0]]), sup_norm(2))
    assert report.unique_for_all_y is False
    assert report.offending_face.codim == 2
    assert report.offending_face.vertices() == ((Fraction(1), Fraction(0)),)
    assert check_uniqueness(RationalMatrix.from_rows([[1, 1]]), sup_norm(2)).unique_for_all_y
    assert time.perf_counter() - started < 1.0


def test_criterion_02_bp_uniqueness_pair():
    started = time.perf_counter()
    X = RationalMatrix.from_rows([[1, 1]])
    report = check_uniqueness_bp(X)
    assert report.unique_for_all_y is False
    w = report.witness
    assert w.first != w.second
    assert sum(abs(t) for t in w.first) == sum(abs(t) for t in w.second)
    assert X.matvec(w.first) == X.matvec(w.second) == w.response
    for b in (w.first, w.second):
        assert bp_certificate_holds(X, b, w.dual_vector)  # one shared z
    assert check_uniqueness_bp(RationalMatrix.from_rows([[1, 2]])).unique_for_all_y
    assert time.perf_counter() - started < 1.0


def test_criterion_03_all_pm_one_2x3_designs_non_unique():
    started = time.perf_counter()
    for entries in itertools.product((1, -1), repeat=6):
        X = RationalMatrix.from_rows([entries[:3], entries[3:]])
        report = check_uniqueness_bp(X)
        assert report.unique_for_all_y is False
        for b in (report.witness.first, report.witness.second):
            assert bp_certificate_holds(X, b, report.witness.dual_vector)
    assert time.perf_counter() - started < 5.0


def test_criterion_04_face_table_for_two_weights():
    w = (Fraction(7, 2), Fraction(3, 2))
    whole = model_to_face((0, 0), w)
    assert whole.codim == 0 and whole.vertex_count() == 8

    segment = model_to_face((1, 0), w)
    assert segment.codim == 1
    assert set(segment.vertices()) == {
        (Fraction(7, 2), Fraction(3, 2)),
        (Fraction(7, 2), Fraction(-3, 2)),
    }

    perm = model_to_face((1, 1), w)
    assert perm.codim == 1
    assert set(perm.vertices()) == {
        (Fraction(7, 2), Fraction(3, 2)),
        (Fraction(3, 2), Fraction(7, 2)),
    }

    vertex = model_to_face((2, 1), w)
    assert vertex.codim == 2
    assert vertex.vertices() == ((Fraction(7, 2), Fraction(3, 2)),)

    # every face is a signed-permutation image of one of the four table rows
    all_faces = {frozenset(model_to_face(m, w).vertices()) for m in enumerate_models(2)}
    orbit = {
        frozenset(g.apply(v) for v in base.vertices())
        for g in signed_permutations(2)
        for base in (whole, segment, perm, vertex)
    }
    assert all_faces == orbit
    assert len(all_faces) == 17


def test_criterion_05_model_examples():
    assert model_of((3.1, -1.2, 0, -3.1)) == (2, -1, 0, -2)
    listed = {(0, 0)}
    for m in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)):
        listed.add(m)
        listed.add(tuple(-t for t in m))
    models = enumerate_models(2)
    assert len(models) == 17
    assert set(models) == listed


def test_criterion_06_table_accessibility():
    started = time.perf_counter()
    assert check_uniqueness(DEMO_X, slope_norm(DEMO_W)).unique_for_all_y
    reports = accessible_slope_models(DEMO_X, DEMO_W, route=BOTH)
    assert len(reports) == 147
    table = {
        (1, 0, 0), (1, 1, 1), (0, 0, 1), (-1, 0, 1),
        (2, 0, -1), (2, 1, 1), (1, 1, 2), (-1, 0, 2),
    }
    expected = {(0, 0, 0)} | table | {tuple(-t for t in m) for m in table}
    accessible = {r.pattern for r in reports if r.accessible}
    assert accessible == expected
    assert (2, 1, 0) not in accessible
    # both routes ran and agreed on every model (the sweep itself raises on
    # any disagreement; check both verdicts are populated)
    assert all(r.geometric_hit is not None and r.analytic_value is not None for r in reports)
    assert time.perf_counter() - started < 30.0


def test_criterion_07_model_face_bijection():
    cases = {
        2: [(Fraction(7, 2), Fraction(3, 2)), (Fraction(5), Fraction(1))],
        3: [DEMO_W, (Fraction(4), Fraction(2), Fraction(1))],
    }
    for p, weight_choices in cases.items():
        for w in weight_choices:
            models = enumerate_models(p)
            faces = {m: model_to_face(m, w) for m in models}
            labeled = {frozenset(f.vertices()) for f in faces.values()}
            brute = {
                frozenset(f.hull)
                for f in enumerate_exposed_faces(dual_ball_vertices(slope_norm(w)))
            }
            assert labeled == brute
            assert len(labeled) == len(models)  # injective, hence a bijection
            for m, face in faces.items():
                verts = face.vertices()
                base = verts[0]
                if len(verts) == 1:
                    dim = 0
                else:
                    diffs = RationalMatrix.from_rows(
                        [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]]
                    )
                    dim = rank(diffs)
                assert p - dim == face.codim == max(abs(t) for t in m)


def test_criterion_08_witness_recipes_certify_exactly():
    # penalized recipe over all three norm families
    pen_cases = [
        (RationalMatrix.from_rows([[1, 0]]), sup_norm(2)),
        (RationalMatrix.from_rows([[1, 1]]), l1_norm(2)),
        (RationalMatrix.from_rows([[2, 1]]), slope_norm((2, 1))),
        (RationalMatrix.from_rows([[1, 1, 0], [0, 0, 1]]), l1_norm(3, scale=Fraction(3, 2))),
    ]
    for X, norm in pen_cases:
        report = check_uniqueness(X, norm)
        assert not report.unique_for_all_y
        w = report.witness
        assert norm_value(norm, w.first) == norm_value(norm, w.second)
        for b in (w.first, w.second):
            cert = kkt_certify(X, w.response, b, norm)
            assert cert.passed and cert.tol == 0 and cert.pairing_gap == 0

    # equality-constrained recipe
    for rows in (((1, 1),), ((1, 1, 1), (1, -1, 1))):
        X = RationalMatrix.from_rows(rows)
        report = check_uniqueness_bp(X)
        for b in (report.witness.first, report.witness.second):
            assert bp_certificate_holds(X, b, report.witness.dual_vector)

    # accessibility witnesses, sign vectors then models
    X = RationalMatrix.from_rows([[2, -1, 0], [1, 1, 1]])
    for r in accessible_sign_vectors(X, lam=Fraction(2)):
        if r.accessible:
            cert = kkt_certify(X, r.response_witness, vec(r.pattern), l1_norm(3, scale=2))
            assert cert.passed and cert.tol == 0
            assert bp_certificate_holds(X, vec(r.pattern), r.dual_witness)
    for r in accessible_slope_models(DEMO_X, DEMO_W):
        if r.accessible:
            cert = kkt_certify(DEMO_X, r.response_witness, vec(r.pattern), slope_norm(DEMO_W))
            assert cert.passed and cert.tol == 0

    # fitted values agree across float solves started from different points
    rng = np.random.default_rng(17)
    for _ in range(5):
        X = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        norm = slope_norm([Fraction(8 - j, 4) for j in range(8)])
        opts = SolverOptions(tol=1e-11)
        a = solve_penalized(X, y, norm, opts)
        b = solve_penalized(X, y, norm, SolverOptions(tol=1e-11, x0=tuple([1.0] * 8)))
        assert a.converged and b.converged
        fit_a = X @ np.array(a.point)
        fit_b = X @ np.array(b.point)
        assert float(np.max(np.abs(fit_a - fit_b))) <= 1e-9


def test_criterion_09_prox_and_solver_oracles():
    started = time.perf_counter()
    rng = random.Random(41)
    for _ in range(1000):
        p = rng.randint(1, 6)
        v = vec([Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(p)])
        w = sorted((Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(p)),
                   reverse=True)
        if w[0] == 0:
            w[0] = Fraction(1)
        u = prox_slope(v, vec(w))
        norm = slope_norm(w)
        grad = tuple(a - b for a, b in zip(v, u))
        assert dual_ball_membership(norm, grad)
        assert dot(grad, u) == norm_value(norm, u)

    # 2-D grids: no grid point beats the prox output by more than 1e-6
    span = np.linspace(-5, 5, 201)
    for v, w in (((3.0, 3.0), (2.0, 1.0)), ((1.0, -4.0), (2.5, 0.5))):
        u = prox_slope(v, w)
        norm = slope_norm([Fraction(x).limit_denominator(10) for x in w])

        def obj(a, b):
            return 0.5 * ((a - v[0]) ** 2 + (b - v[1]) ** 2) + float(norm_value(norm, (a, b)))

        assert obj(*u) <= min(obj(a, b) for a in span for b in span) + 1e-6

    # FISTA certification at tol 1e-9 on dense random instances
    gen = np.random.default_rng(7)
    n, p = 20, 50
    norms = [
        l1_norm(p, scale=2),
        sup_norm(p),
        slope_norm([Fraction(p - j, 10) for j in range(p)]),
    ]
    for norm in norms:
        for _ in range(2):
            X = gen.standard_normal((n, p))
            y = 3.0 * gen.standard_normal(n)
            sol = solve_penalized(X, y, norm)
            assert sol.converged
            assert sol.certificate.passed and sol.certificate.tol == 1e-9
    assert time.perf_counter() - started < 60.0


def test_criterion_10_genericity_fractions_are_one():
    started = time.perf_counter()
    slope_report = genericity_experiment(
        2, 4, slope_norm([3, 2, 1, Fraction(1, 2)]), trials=200, seed=11
    )
    assert slope_report.fraction_unique == Fraction(1)
    bp_report = genericity_experiment(2, 3, mode="bp", trials=200, seed=11)
    assert bp_report.fraction_unique == Fraction(1)
    assert time.perf_counter() - started < 60.0


def _projection_oracle(X, norm, y):
    """Exact active-set projection onto {u : dual norm of X'u <= 1}."""
    rows = []
    for _, x in unit_sphere_sign_points(norm):
        a = X.matvec(x)
        if any(t != 0 for t in a) and a not in rows:
            rows.append(a)
    for k in range(0, X.nrows + 1):
        for subset in itertools.combinations(range(len(rows)), k):
            if k == 0:
                u = vec(y)
            else:
                gram = RationalMatrix.from_rows(
                    [[dot(rows[i], rows[j]) for j in subset] for i in subset]
                )
                if rank(gram) < k:
                    continue
                mu = solve_exact(gram, [dot(rows[i], vec(y)) - 1 for i in subset])
                if mu is None or any(t < 0 for t in mu):
                    continue
                u = tuple(
                    yi - sum((m * rows[i][d] for m, i in zip(mu, subset)), Fraction(0))
                    for d, yi in enumerate(vec(y))
                )
            if all(dot(a, u) <= 1 for a in rows):
                return u
    raise AssertionError("no KKT point found")


def test_criterion_11_null_set_projection_matches_oracle():
    rng = random.Random(83)
    cases = 0
    while cases < 6:
        p = rng.randint(2, 3)
        X = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(2)]
        )
        if rank(X) == 0:
            continue
        norm = (l1_norm(p), sup_norm(p), slope_norm([Fraction(5, 2), 1, Fraction(1, 2)][:p]))[
            cases % 3
        ]
        y = vec([Fraction(rng.randint(-12, 12), 2) for _ in range(2)])
        expected = _projection_oracle(X, norm, y)
        got = null_set_projection(X, norm, [float(t) for t in y])
        assert max(abs(float(e) - g) for e, g in zip(expected, got)) <= 1e-8
        cases += 1

    inside = (Fraction(1, 50), Fraction(-1, 50))
    assert null_set_projection(DEMO_X, slope_norm(DEMO_W), inside) == inside

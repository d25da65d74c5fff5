import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pengeom.geometry as geometry_module
import pengeom.norms as norms_module
from pengeom.analysis import BOTH, accessible_slope_models
from pengeom.exact import RationalMatrix, clear_denominators, dot, rank, solve_exact, vec
from pengeom.geometry import (
    DEFAULT_VERTEX_CAP,
    CapExceeded,
    _materialized_vertices,
    enumerate_models,
    model_to_face,
    sign_to_crosspolytope_face,
    sign_to_cube_face,
    sign_vectors,
)
from pengeom.lp import OPTIMAL, lp_solve
from pengeom.norms import (
    PolytopeNorm,
    SlopeWeights,
    dual_ball_faces,
    dual_ball_membership,
    dual_ball_vertices,
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
from pengeom.solvers import bp_certificate_holds, bp_dual_certificate, norm_min_subject_to
from pengeom.svg import response_region_figure

from oracles import (
    enumerate_exposed_faces,
    exposed_primal_vertices,
    level_faces,
    nonneg_lp,
    solve_by_elimination,
)

W2 = slope_norm(["3.5", "1.5"])


def gauge_via_lp(x, verts):
    """min sum(alpha) s.t. V alpha = x, alpha >= 0: the gauge of conv(verts)
    at x, computed without any norm formula."""
    p = len(x)
    res = lp_solve(
        nonneg_lp(
            c=[1] * len(verts),
            a_eq=[[v[i] for v in verts] for i in range(p)],
            b_eq=list(x),
        )
    )
    assert res.status == OPTIMAL
    return res.value


def rand_vec(rng, p, den=3):
    return vec([Fraction(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(p)])


def test_norm_values():
    assert norm_value(l1_norm(2, scale=2), vec([1, -3])) == 8
    assert norm_value(sup_norm(2), vec([1, -3])) == 3
    assert norm_value(W2, vec([-1, 2])) == Fraction(17, 2)
    assert norm_value(W2, vec([0, 0])) == 0


def test_dual_norm_values():
    assert dual_norm_value(l1_norm(2, scale=2), vec([1, -3])) == Fraction(3, 2)
    assert dual_norm_value(sup_norm(2), vec([1, -3])) == 4
    # prefix ratios: max(2.5/3.5, 5/5) = 1 exactly on the permutohedron edge
    assert dual_norm_value(W2, vec(["2.5", "2.5"])) == 1
    assert dual_norm_value(W2, vec(["3.5", "0"])) == 1
    assert dual_norm_value(W2, vec([4, 1])) == Fraction(8, 7)


def test_dual_ball_membership_boundary():
    assert dual_ball_membership(W2, ["2.5", "2.5"])
    assert not dual_ball_membership(W2, ["2.5", "2.500001"])
    assert dual_ball_membership(l1_norm(2, scale=2), [2, -2])
    assert not dual_ball_membership(sup_norm(2), [1, Fraction(1, 100)])


def test_dual_norm_matches_gauge_lp():
    rng = random.Random(3)
    norms = [
        l1_norm(2, scale=Fraction(1, 2)),
        l1_norm(3),
        sup_norm(2),
        sup_norm(3),
        W2,
        slope_norm([3, 2, 1]),
        slope_norm([2, 2, 1]),      # tied weights
        slope_norm([1, 0, 0]),      # sup norm in slope clothing
        slope_norm([Fraction(5, 2), Fraction(3, 2), Fraction(3, 2)]),
    ]
    for norm in norms:
        verts = dual_ball_vertices(norm)
        for _ in range(12):
            x = rand_vec(rng, norm.dim)
            assert dual_norm_value(norm, x) == gauge_via_lp(x, verts)


def test_primal_ball_vertices_layout():
    # l1 lists e_1..e_p before -e_1..-e_p, so the gauge LP's columns are the
    # [X | -X] basis pursuit tableau
    third = Fraction(1, 3)
    assert primal_ball_vertices(l1_norm(2, scale=3)) == (
        (third, 0), (0, third), (-third, 0), (0, -third)
    )
    assert len(primal_ball_vertices(sup_norm(3))) == 8
    assert len(primal_ball_vertices(slope_norm([3, 2, 1]))) == 26


def test_norm_value_matches_support_function():
    # ||x|| = max over dual ball vertices of s'x, independently of the sorting
    # formula; it is also the gauge of the primal-ball vertex hull, including
    # tied weights where some of those points are not vertices
    rng = random.Random(11)
    for norm in (l1_norm(3, scale=2), sup_norm(3), slope_norm([4, 2, 1]), slope_norm([2, 1, 0]),
                 slope_norm([3, 3, 1])):
        verts = dual_ball_vertices(norm)
        primal = primal_ball_vertices(norm)
        for _ in range(15):
            x = rand_vec(rng, norm.dim)
            assert norm_value(norm, x) == max(dot(v, x) for v in verts)
            assert norm_value(norm, x) == gauge_via_lp(x, primal)


def test_duality_pairing_inequality():
    rng = random.Random(13)
    norm = slope_norm([3, 2, 1])
    for _ in range(40):
        x = rand_vec(rng, 3)
        s = rand_vec(rng, 3)
        assert dot(s, x) <= dual_norm_value(norm, s) * norm_value(norm, x)


def test_subdifferential_face_is_argmax_set():
    # face vertices == dual ball vertices achieving s'x = ||x||, for all
    # three families; the structured construction must agree with the filter
    rng = random.Random(17)
    for norm in (l1_norm(2, scale=3), sup_norm(3), W2, slope_norm([4, 2, 1])):
        verts = dual_ball_vertices(norm)
        for _ in range(25):
            x = rand_vec(rng, norm.dim)
            val = norm_value(norm, x)
            achieving = {v for v in verts if dot(v, x) == val}
            face = subdifferential_face(norm, x)
            assert set(face.vertices()) == achieving


def test_subdifferential_face_examples():
    f = subdifferential_face(l1_norm(3, scale=2), vec([5, 0, -1]))
    assert f.kind == "box" and f.sign_vector == (1, 0, -1) and f.scale == 2
    f = subdifferential_face(sup_norm(3), vec([2, -2, 1]))
    assert f.kind == "crosspoly" and f.sign_vector == (1, -1, 0) and f.codim == 2
    f = subdifferential_face(W2, vec(["2.2", "0.9"]))
    assert f.kind == "signperm" and f.model == (2, 1)
    assert f.vertices() == (vec(["3.5", "1.5"]),)
    # at zero: the whole dual ball
    assert subdifferential_face(W2, vec([0, 0])).codim == 0


def test_subdifferential_face_degenerate_weights():
    norm = slope_norm([2, 2])  # dual ball degenerates to the square [-2,2]^2
    f = subdifferential_face(norm, vec([1, 0]))
    assert f.kind == "signperm" and f.model == (1, 0) and f.codim == 1
    assert set(f.vertices()) == {(2, 2), (2, -2)}
    # equal magnitudes: a corner of the square, although the top level is 1
    f = subdifferential_face(norm, vec([3, -3]))
    assert f.model == (1, -1) and f.codim == 2 and f.vertices() == ((2, -2),)
    f0 = subdifferential_face(norm, vec([0, 0]))
    assert f0.codim == 0 and f0.vertex_count() == len(f0.vertices()) == 4
    # zero weights: under (1, 0, 0) the level-1 block and the zero block of
    # (2, 1, 0) carry all-zero chunks, leaving the cross-polytope vertex
    f = subdifferential_face(slope_norm([1, 0, 0]), vec([5, 2, 0]))
    assert f.model == (2, 1, 0) and f.codim == 3 and f.vertices() == ((1, 0, 0),)


def test_dual_ball_vertices_dedup():
    assert len(dual_ball_vertices(slope_norm([1, 0]))) == 4  # cross-polytope
    assert len(dual_ball_vertices(slope_norm([2, 2]))) == 4  # square
    assert len(dual_ball_vertices(slope_norm([2, 1]))) == 8
    assert len(dual_ball_vertices(sup_norm(3))) == 6
    assert len(dual_ball_vertices(l1_norm(2, scale=2))) == 4


def test_dual_ball_vertices_are_listed_uncapped():
    # strict weights at p = 7 give 2^p p! = 645120 vertices, beyond the
    # default face vertex cap; the whole ball is still listed
    norm = slope_norm(range(7, 0, -1))
    try:
        verts = dual_ball_vertices(norm)
        assert len(verts) == 2**7 * math.factorial(7) > DEFAULT_VERTEX_CAP
        assert verts[0] == tuple(Fraction(w) for w in range(7, 0, -1))
    finally:
        _materialized_vertices.cache_clear()  # do not hold the list for later tests


def test_weights_validation():
    with pytest.raises(ValueError):
        SlopeWeights.of([1, 2])
    with pytest.raises(ValueError):
        SlopeWeights.of([1, -1])
    with pytest.raises(ValueError):
        SlopeWeights.of([0, 0])
    with pytest.raises(ValueError):
        SlopeWeights.of([])


def test_norm_validation():
    with pytest.raises(ValueError):
        l1_norm(2, scale=0)
    with pytest.raises(ValueError):
        PolytopeNorm("slope", 3, weights=SlopeWeights.of([2, 1]))
    with pytest.raises(ValueError):
        PolytopeNorm("sup", 2, weights=SlopeWeights.of([2, 1]))
    with pytest.raises(ValueError):
        norm_value(W2, vec([1, 2, 3]))


def test_unit_sphere_sign_points():
    pts = unit_sphere_sign_points(W2)
    assert len(pts) == 8
    for sigma, pt in pts:
        assert norm_value(W2, pt) == 1
        assert model_of_signs(sigma, pt)


def test_sign_points_read_their_norms_off_the_prefix_sums():
    # a sign vector's norm is the prefix sum of the weights at its support
    # size; the points are those of a norm_value per sign vector, in order
    for p in range(1, 5):
        norms = [l1_norm(p), l1_norm(p, scale=Fraction(3, 2)), sup_norm(p),
                 slope_norm([Fraction(7, 2), Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)][:p]),
                 slope_norm([2, 2, 1, 1][:p]), slope_norm([Fraction(3, 2), 1, 0, 0][:p])]
        for norm in norms:
            want = [(sigma, tuple(Fraction(s) / norm_value(norm, vec(sigma)) for s in sigma))
                    for sigma in itertools.product((1, 0, -1), repeat=p) if any(sigma)]
            got = unit_sphere_sign_points(norm)
            assert got == want and repr(got) == repr(want)


def model_of_signs(sigma, pt):
    return all((s > 0) == (x > 0) and (s < 0) == (x < 0) for s, x in zip(sigma, pt))


def test_float_paths():
    # duck typing: float inputs give floats
    assert norm_value(W2, [1.0, -2.0]) == pytest.approx(8.5)
    assert dual_norm_value(sup_norm(2), [0.5, -0.25]) == pytest.approx(0.75)
    assert dual_norm_value(l1_norm(2, scale=2), [3.0, 1.0]) == pytest.approx(1.5)


@st.composite
def vectors_and_weights(draw, max_p=6):
    """(x, a positive l1 scale, nonincreasing nonnegative weights with w1 >
    0): rationals of small height, the weights often tied or zero."""
    p = draw(st.integers(1, max_p))
    x = draw(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=p, max_size=p))
    scale = draw(st.fractions(Fraction(1, 8), 8, max_denominator=8))
    tail = st.one_of(st.just(Fraction(0)), st.fractions(0, 4, max_denominator=12))
    w = sorted(draw(st.lists(tail, min_size=p - 1, max_size=p - 1)), reverse=True)
    top = draw(st.fractions(w[0] if w else 0, 4, max_denominator=12).filter(bool))
    w = [top] + w
    if draw(st.booleans()):  # tie the weights in runs
        w = [w[j - j % 2] for j in range(p)]
    return x, scale, w


@given(vectors_and_weights())
@example(([Fraction(1, 3), Fraction(-2, 7), Fraction(0)], Fraction(3, 2), [2, 2, 0]))
@example(([Fraction(5, 3), Fraction(5, 3), Fraction(-1, 10), Fraction(1, 9)], Fraction(1, 3),
          [Fraction(9, 7), Fraction(1, 7), Fraction(1, 7), 0]))
def test_one_norm_form_for_the_three_families(case):
    # l1 and sup are the sorted-l1 norms of (s, ..., s) and (1, 0, ..., 0),
    # so one pair of formulas serves all three; and on floats the float form
    # gives the doubles the exact form gives
    x, scale, w = case
    p = len(x)
    twins = [(l1_norm(p, scale), slope_norm([scale] * p)),
             (sup_norm(p), slope_norm([1] + [0] * (p - 1)))]
    for norm, twin in twins:
        assert norm_value(norm, x) == norm_value(twin, x)
        assert dual_norm_value(norm, x) == dual_norm_value(twin, x)
    xf = [float(t) for t in x]
    for norm in [n for pair in twins for n in pair] + [slope_norm(w)]:
        floats = norm._form.floats
        assert floats.value(xf).hex() == norm_value(norm, xf).hex()
        assert floats.dual_value(xf).hex() == dual_norm_value(norm, xf).hex()


def _labeled_norms(p):
    """(norm, labels, face of a label) for the three labeled families."""
    strict = slope_norm([Fraction(7, 2), 2, Fraction(3, 2), Fraction(1, 2)][:p])
    return [
        (l1_norm(p, scale=Fraction(3, 2)), list(sign_vectors(p)),
         lambda s: sign_to_cube_face(s, scale=Fraction(3, 2))),
        (sup_norm(p), list(sign_vectors(p)), sign_to_crosspolytope_face),
        (strict, enumerate_models(p), lambda m: model_to_face(m, strict.weights.values)),
    ]


def test_dual_ball_faces_follow_the_labels():
    for p in (1, 2, 3, 4):
        for norm, labels, face_of in _labeled_norms(p):
            faces = dual_ball_faces(norm)
            assert [f.pattern for f in faces] == labels
            assert faces == tuple(face_of(t) for t in labels)
    assert dual_ball_faces(l1_norm(2), limit=2) == dual_ball_faces(l1_norm(2))
    with pytest.raises(CapExceeded):
        dual_ball_faces(sup_norm(3), limit=2)
    with pytest.raises(CapExceeded):
        dual_ball_faces(slope_norm([3, 2, 1]), limit=2)


def test_dual_ball_faces_codim_matches_filtering(monkeypatch):
    # tied or zero weights: one face per model, which as vertex sets with
    # their codimensions are exactly the brute-force exposed faces
    tied = [slope_norm([3, 3, 1]), slope_norm([2, 2]), slope_norm([2, 1, 0]),
            slope_norm([1, 1, 1, 0])]
    for norm in tied:
        full = dual_ball_faces(norm)
        assert [f.pattern for f in full] == enumerate_models(norm.dim)
        by_vertices = {frozenset(f.vertices()): f.codim for f in full}
        assert all(by_vertices[frozenset(f.vertices())] == f.codim for f in full)
        brute = enumerate_exposed_faces(dual_ball_vertices(norm))
        assert by_vertices == {frozenset(f.hull): f.codim for f in brute}
        assert len(by_vertices) < len(full)
    norms = [n for p in (1, 2, 3, 4) for n, _, _ in _labeled_norms(p)] + tied
    for norm in norms:
        full = dual_ball_faces(norm)
        assert dual_ball_faces(norm, codim=None) == full
        for c in range(norm.dim + 2):
            assert dual_ball_faces(norm, codim=c) == tuple(f for f in full if f.codim == c)
    # codim reads the codimension, not the top level: under (2, 2) the
    # model (1, 1) is a corner of the square
    corners = dual_ball_faces(slope_norm([2, 2]), codim=2)
    assert len(corners) == 12 and (1, 1) in [f.model for f in corners]
    assert {f.vertices() for f in corners} == {((a, b),) for a in (2, -2) for b in (2, -2)}
    # labels off the level, above or below it, never become faces
    built = []
    real = norms_module.model_to_face
    monkeypatch.setattr(norms_module, "model_to_face", lambda m, w: built.append(m) or real(m, w))
    top = dual_ball_faces(slope_norm([4, 3, 2, 1]), codim=4)
    assert len(top) == 2 ** 4 * 24 and len(built) == len(top)
    built.clear()
    middle = dual_ball_faces(slope_norm([4, 3, 2, 1]), codim=2)
    assert {f.codim for f in middle} == {2} and len(built) == len(middle)


def _level_norms():
    """l1 at scales 1 and 3/2 and sup up to p = 5; strict, tied and
    zero-tail slope weights up to p = 4, small ones, ones whose integer
    form passes 2^63, and one past 2^1000, so the lookup holds Python ints
    beyond int64 and beyond the float range."""
    for p in range(1, 6):
        yield from (l1_norm(p), l1_norm(p, scale=Fraction(3, 2)), sup_norm(p))
    for w in ([Fraction(7, 2), 2, Fraction(3, 2), Fraction(1, 2)], [3, 3, 1, Fraction(1, 2)],
              [Fraction(5, 3), 1, 0, 0],
              [Fraction(2 ** 70, 3), 2 ** 65 + 1, 7, Fraction(1, 2)], [2 ** 64, 2 ** 64, 3, 3],
              [2 ** 66 + 1, Fraction(1, 3), 0, 0], [10 ** 310, 10 ** 305 + 1, 10 ** 305, 1]):
        for p in range(1, 5):
            yield slope_norm(w[:p])


def test_dual_ball_level_is_the_face_table_in_integers():
    # the weight-free level of each tie pattern, with the norm's integer
    # weights put in, is dual_ball_faces face by face, read through the
    # index: labels, vertex counts (each face's number of ids) and integer
    # vertices over one denominator, in order; the zero label's face (the
    # whole ball) has no ids
    def kinds(table):
        if isinstance(table, tuple):
            return set().union({tuple}, *map(kinds, table))
        return {type(table)}

    for norm in _level_norms():
        for codim in (None, *range(norm.dim + 1)):
            d, level = norms_module._dual_ball_level(norm, codim, None)
            faces = dual_ball_faces(norm, None, codim)
            read = list(level_faces(level))
            assert [label for label, _, _ in read] == [f.pattern for f in faces]
            assert [count for label, count, _ in read if any(label)] == \
                   [f.vertex_count() for f in faces if any(f.pattern)]
            for (label, _, ivs), face in zip(read, faces):
                assert (d, ivs) == (face._integer_form if any(label) else (d, ()))
            # never a Fraction or a Face: integer ranks looked up in Python ints
            assert kinds((d, level.labels, tuple(level.lookup.tolist()))) <= {int, tuple}
            assert level.ranks.dtype.kind == "i"
            # a sweep that tests no face reads the labels alone
            _, bare = norms_module._dual_ball_level(norm, codim, None, False)
            assert bare.labels == level.labels
            assert bare.ranks is None and bare.index is None


def test_building_a_level_builds_no_face(monkeypatch):
    # a level comes straight from each label's blocks: with Face refusing to
    # be built, every level of the level norms still builds from cold caches
    def refuse(*args, **kwargs):
        raise AssertionError("a Face was built for a level")

    norms = list(_level_norms())
    norms_module._dual_ball_level.cache_clear()
    norms_module._weight_free_level.cache_clear()
    monkeypatch.setattr(geometry_module.Face, "__init__", refuse)
    with pytest.raises(AssertionError, match="Face was built"):
        model_to_face((1, 0), (2, 1))
    for norm in norms:
        for codim in (None, *range(norm.dim + 1)):
            for vertices in (True, False):
                norms_module._dual_ball_level(norm, codim, None, vertices)
    assert norms_module._weight_free_level.cache_info().misses > 0


@settings(max_examples=15)  # each example builds every level of two pairs of norms
@given(vectors_and_weights(max_p=4), st.fractions(Fraction(1, 8), 8, max_denominator=8).filter(bool))
@example(([0, 0, 0], Fraction(3, 2), [2, 2, 0]), Fraction(2, 3))
def test_scaled_weights_read_one_weight_free_level(case, c):
    # a level reads the weights only through their ties and zeros, so the
    # weights w and c w (and the l1 scales s and c s) share labels, vertex
    # counts and one weight-free level, and their integer vertices, each
    # read over its own d, are the same points up to the factor c
    _, scale, w = case
    p = len(w)
    built = norms_module._weight_free_level.cache_info
    norms_module._dual_ball_level.cache_clear()
    norms_module._weight_free_level.cache_clear()
    pairs = [(slope_norm(w), slope_norm([c * x for x in w])),
             (l1_norm(p, scale), l1_norm(p, c * scale))]
    for codim in (None, *range(p + 1)):
        for norm, scaled in pairs:
            misses = built().misses
            d, level = norms_module._dual_ball_level(norm, codim, None)
            e, other = norms_module._dual_ball_level(scaled, codim, None)
            assert built().misses == misses + 1
            assert other.labels is level.labels and other.index is level.index
            for (_, _, ivs), (_, _, jvs) in zip(level_faces(level), level_faces(other)):
                assert [[Fraction(y, e) for y in v] for v in jvs] == \
                       [[c * Fraction(x, d) for x in v] for v in ivs]


def region_by_row_subsets(X, norm):
    """Vertices of {u : ||X'u||_* <= 1} supported on R, the first maximal
    independent set of X's rows: the feasible solutions of <a, u> = 1 over
    every independent r-subset of the constraint rows a = X_R v, v in
    primal_ball_vertices(norm)."""
    R = []
    for i, row in enumerate(X.rows):
        if rank(RationalMatrix.from_rows([X.rows[k] for k in R] + [row])) > len(R):
            R.append(i)
    normals = sorted({tuple(dot(X.rows[i], v) for i in R) for v in primal_ball_vertices(norm)})
    found = set()
    for rows in itertools.combinations(normals, len(R)):
        if R and rank(RationalMatrix(rows)) < len(R):
            continue
        u = solve_exact(RationalMatrix(rows), [1] * len(R)) if R else ()
        if all(dot(a, u) <= 1 for a in normals):
            full = [Fraction(0)] * X.nrows
            for i, x in zip(R, u):
                full[i] = x
            found.add(tuple(full))
    return found


def region_cases():
    """(X, norm) for every n <= 3 and p <= 4, under l1 (scale 1 and 3/2) and
    sup, and for p <= 3 (the p = 4 slope gauge LPs are slow) under slope with
    strict, tied and zero weights. Each (norm, n) gives three designs: seeded
    entries k/d with |k| <= 2 and d <= 2; the same with its last row replaced
    by twice its first (rank-deficient, n > 1 only); and all zero."""
    rng = random.Random(7)
    norms = [(p, l1_norm(p, scale=c)) for p in range(1, 5) for c in (1, Fraction(3, 2))]
    norms += [(p, sup_norm(p)) for p in range(1, 5)]
    weights = ([Fraction(7, 2), 2, Fraction(1, 2)], [3, 3, 1], [2, 1, 0])
    norms += [(p, slope_norm(w[:p])) for w in weights for p in range(1, 4)]
    for p, norm in norms:
        for n in (1, 2, 3):
            rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(p)]
                    for _ in range(n)]
            yield RationalMatrix.from_rows(rows), norm
            if n > 1:
                yield RationalMatrix.from_rows(rows[:-1] + [[2 * x for x in rows[0]]]), norm
            yield RationalMatrix.from_rows([[0] * p] * n), norm


def tight_set_cases():
    """region_cases, plus strict, tied and zero-tail slope weights at p = 4
    on seeded designs with one to three rows."""
    yield from region_cases()
    rng = random.Random(19)
    for w in ([4, 3, 2, 1], [3, 3, 1, 1], [2, 1, 1, 0]):
        for n in (1, 2, 3):
            rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)]
                    for _ in range(n)]
            yield RationalMatrix.from_rows(rows), slope_norm(w)


def test_zero_region_tight_sets_name_the_minimal_faces():
    # the double description's tight sets are the primal-ball vertices X'u
    # exposes, so G(u) comes off them; the duals are X'u over one denominator
    for X, norm in tight_set_cases():
        region = norms_module._zero_region(X, norm)
        assert region.vertices == zero_region(X, norm)
        assert (region.den, region.duals) == clear_denominators(
            X.rmatvec(u) for u in zero_region(X, norm))
        for u, tight in zip(region.vertices, region.tight):
            exposed = exposed_primal_vertices(norm, X.rmatvec(u))
            assert set(tight) == set(exposed)
            x = [sum(col) for col in zip(*exposed)] if exposed else [0] * X.ncols
            assert norms_module._tight_face(norm, tight) == subdifferential_face(norm, x)


def test_zero_region_start_vertices_read_one_solve_map(monkeypatch):
    # the 2^r start vertices solve against one basis through its solve map;
    # the region is the same as when each is eliminated on its own
    cases = list(tight_set_cases())
    built = [norms_module._zero_region.__wrapped__(X, norm) for X, norm in cases]
    monkeypatch.setattr(norms_module, "solve_exact", solve_by_elimination)
    for (X, norm), region in zip(cases, built):
        assert repr(region) == repr(norms_module._zero_region.__wrapped__(X, norm))


def test_one_double_description_per_design_and_norm():
    # the model table on both routes and the region figure share one region
    rows = [["8", "5", "8"], ["10", "5/4", "-6"]]
    weights = ["11/2", "7/2", "3/2"]
    norms_module._zero_region.cache_clear()
    accessible_slope_models(RationalMatrix.from_rows(rows), weights, route=BOTH)
    response_region_figure(RationalMatrix.from_rows(rows), slope_norm(weights))
    info = norms_module._zero_region.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_zero_region_small_cases():
    X = RationalMatrix.from_rows([[1, 2, 0], [0, 1, 1]])
    assert set(zero_region(X, l1_norm(3))) == {(1, -1), (-1, 1), (0, 1), (0, -1)}
    # rank one: vertices sit on the first row, the second row is its double
    X = RationalMatrix.from_rows([[1, 2, 0], [2, 4, 0]])
    assert set(zero_region(X, l1_norm(3))) == {(Fraction(1, 2), 0), (Fraction(-1, 2), 0)}
    assert zero_region(RationalMatrix.from_rows([[0, 0]]), sup_norm(2)) == ((0,),)
    with pytest.raises(ValueError):
        zero_region(X, l1_norm(2))


def test_zero_region_of_the_identity_is_the_dual_ball():
    # at n = 4 the sphere points of tied or zero weights lie on the boundary
    # of the primal ball, so two vertices can share three tight constraints
    # without spanning an edge, and only the third-vertex test rejects them
    for p in (1, 2, 3, 4):
        eye = RationalMatrix.from_rows([[int(i == j) for j in range(p)] for i in range(p)])
        for norm in (l1_norm(p, scale=2), sup_norm(p), slope_norm([1] * p),
                     slope_norm([1] + [0] * (p - 1)), slope_norm([3, 3, 1, 0][:p]),
                     slope_norm([4, 3, 2, 1][:p])):
            verts = zero_region(eye, norm)
            assert len(set(verts)) == len(verts)
            assert set(verts) == set(dual_ball_vertices(norm))


def test_zero_region_is_the_row_subset_enumeration():
    for X, norm in region_cases():
        verts = zero_region(X, norm)
        assert len(set(verts)) == len(verts)
        assert set(verts) == region_by_row_subsets(X, norm)


def test_zero_region_support_function_is_the_least_norm():
    # LP duality: max <Xm, u> over D is min ||b|| over the fiber of m
    for X, norm in region_cases():
        duals = [X.rmatvec(u) for u in zero_region(X, norm)]
        for face in dual_ball_faces(norm):
            m = vec(face.pattern)
            assert max(dot(m, s) for s in duals) == norm_min_subject_to(X, m, norm)[0]


def test_bp_dual_certificate_exists_iff_b_is_l1_minimal():
    rng = random.Random(11)
    for X, _ in region_cases():
        for _ in range(3):
            b = vec([rng.randint(-2, 2) for _ in range(X.ncols)])
            z = bp_dual_certificate(X, b)
            # the least l1 norm over the fiber, read off the region's vertices
            y = X.matvec(b)
            value = max(dot(y, u) for u in zero_region(X, l1_norm(X.ncols)))
            assert (z is not None) == (value == sum(abs(t) for t in b))
            if z is not None:
                assert bp_certificate_holds(X, b, z)

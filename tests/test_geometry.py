import functools
import itertools
import operator
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pengeom.norms as norms_module
from pengeom import geometry
from pengeom.analysis import (
    NonUniquenessWitness,
    _penalized_witness,
    _witness_pair,
    check_uniqueness,
    check_uniqueness_bp,
)
from pengeom.exact import (
    RationalMatrix,
    clear_denominators,
    dot,
    kernel_basis,
    rank,
    rat,
    rowspace_preimage,
    vec,
)
from pengeom.geometry import (
    CapExceeded,
    DesignKernel,
    RowspaceIntersection,
    enumerate_models,
    face_intersects_rowspace,
    is_model,
    model_of,
    model_to_face,
    sign_to_crosspolytope_face,
    sign_to_cube_face,
    sign_vectors,
)
from pengeom.lp import OPTIMAL, LinearProgram, lp_feasible, lp_solve
from pengeom.norms import (
    dual_ball_faces,
    l1_norm,
    slope_norm,
    subdifferential_face,
    sup_norm,
    zero_region,
)

from oracles import (
    SignedPermutation,
    core_hit,
    enumerate_exposed_faces,
    exposed_primal_vertices,
    hull_face,
    kernel_images,
    signed_permutations,
)

W2 = (Fraction(7, 2), Fraction(3, 2))  # 3.5, 1.5


def test_model_of_examples():
    x = vec(["3.1", "-1.2", "0", "-3.1"])
    assert model_of(x) == (2, -1, 0, -2)
    assert model_of(vec([0, 0])) == (0, 0)
    assert model_of(vec(["0.5", "0.5", "-0.5"])) == (1, 1, -1)


def test_model_of_tolerance():
    assert model_of((1.0, 1.0 + 1e-9, -2.0, 1e-12), tol=1e-6) == (1, 1, -2, 0)
    assert model_of((1.0, 1.1), tol=1e-6) == (1, 2)


def test_is_model():
    assert is_model((2, -1, 0, -2))
    assert is_model((0, 0))
    assert not is_model((2, 0))  # level 1 missing
    assert not is_model((1, True))
    assert is_model((1, -1))


def test_model_of_is_idempotent_on_models():
    for m in enumerate_models(3):
        assert model_of(m) == m
        assert is_model(m)


M2_EXPECTED = {
    (0, 0),
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
    (2, 1), (-2, 1), (2, -1), (-2, -1),
    (1, 2), (-1, 2), (1, -2), (-1, -2),
}


def test_enumerate_models_p2():
    models = enumerate_models(2)
    assert len(models) == 17
    assert set(models) == M2_EXPECTED


def test_enumerate_models_small_counts():
    assert enumerate_models(1) == [(0,), (-1,), (1,)]
    assert len(enumerate_models(3)) == 147
    assert len(enumerate_models(4)) == 1697
    # no duplicates, all valid
    ms = enumerate_models(4)
    assert len(set(ms)) == len(ms)
    assert all(is_model(m) for m in ms)


def test_models_are_listed_level_by_level():
    # brute force over {-p..p}^p, sorted by (top level, entries); the listing
    # and each of its top-level prefixes match it
    for p in range(1, 5):
        brute = sorted((m for m in itertools.product(range(-p, p + 1), repeat=p) if is_model(m)),
                       key=lambda m: (max(map(abs, m)), m))
        assert enumerate_models(p) == brute
        for top in range(p + 1):
            assert list(geometry._models(p, p, top)) == [m for m in brute
                                                         if max(map(abs, m)) <= top]


def test_enumeration_caps():
    with pytest.raises(CapExceeded):
        enumerate_models(7)
    with pytest.raises(CapExceeded):
        sign_vectors(11)
    assert len(list(sign_vectors(2))) == 9
    assert next(iter(sign_vectors(2))) == (1, 1)


def test_signed_permutation_roundtrips():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.randint(1, 5)
        perm = list(range(p))
        rng.shuffle(perm)
        g = SignedPermutation(tuple(rng.choice((1, -1)) for _ in range(p)), tuple(perm))
        x = vec([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p)])
        y = vec([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p)])
        # orthogonality
        assert dot(g.apply(x), g.apply(y)) == dot(x, y)
        assert sorted(abs(v) for v in g.apply(x)) == sorted(abs(v) for v in x)


def test_model_equivariance():
    rng = random.Random(9)
    for _ in range(60):
        p = rng.randint(1, 4)
        x = vec([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p)])
        perm = list(range(p))
        rng.shuffle(perm)
        g = SignedPermutation(tuple(rng.choice((1, -1)) for _ in range(p)), tuple(perm))
        assert model_of(g.apply(x)) == g.apply(model_of(x))


def test_face_table_for_two_weights():
    f0 = model_to_face((0, 0), W2)
    assert f0.codim == 0 and f0.vertex_count() == 8
    f10 = model_to_face((1, 0), W2)
    assert f10.codim == 1
    assert set(f10.vertices()) == {vec(["3.5", "1.5"]), vec(["3.5", "-1.5"])}
    f11 = model_to_face((1, 1), W2)
    assert f11.codim == 1
    assert set(f11.vertices()) == {vec(["3.5", "1.5"]), vec(["1.5", "3.5"])}
    f21 = model_to_face((2, 1), W2)
    assert f21.codim == 2
    assert f21.vertices() == (vec(["3.5", "1.5"]),)


def test_model_to_face_validation():
    with pytest.raises(ValueError):
        model_to_face((2, 0), W2)
    with pytest.raises(ValueError):
        model_to_face((1, 0), (Fraction(1), Fraction(2)))  # increasing weights
    with pytest.raises(ValueError):
        model_to_face((1, 0), (Fraction(0), Fraction(0)))  # w1 = 0
    with pytest.raises(ValueError):
        model_to_face((1, 0), (Fraction(1), Fraction(-1)))  # negative weight
    with pytest.raises(ValueError):
        model_to_face((1, 0, 1), W2)
    # tied and zero weights are slope weights too
    assert model_to_face((1, 0), (Fraction(1), Fraction(1))).codim == 1
    assert model_to_face((1, 0), (Fraction(2), Fraction(0))).codim == 2


def test_codim_law():
    w = (Fraction(5), Fraction(3), Fraction(1))
    for m in enumerate_models(3):
        f = model_to_face(m, w)
        assert f.codim == max(abs(v) for v in m)
        # codim is also the ambient dim minus the affine dimension
        assert hull_face(f.vertices()).codim == f.codim


def test_face_equivariance():
    rng = random.Random(21)
    w = (Fraction(9, 2), Fraction(2), Fraction(1, 2))
    models = enumerate_models(3)
    for _ in range(25):
        m = models[rng.randrange(len(models))]
        perm = list(range(3))
        rng.shuffle(perm)
        g = SignedPermutation(tuple(rng.choice((1, -1)) for _ in range(3)), tuple(perm))
        gm = g.apply(m)
        lhs = set(model_to_face(gm, w).vertices())
        rhs = {g.apply(v) for v in model_to_face(m, w).vertices()}
        assert lhs == rhs


def test_cube_and_crosspolytope_faces():
    f = sign_to_cube_face((1, 0, -1), scale=2)
    assert f.codim == 2 and f.vertex_count() == 2
    assert set(f.vertices()) == {(2, -2, -2), (2, 2, -2)}
    full = sign_to_cube_face((0, 0), scale=1)
    assert full.codim == 0 and full.contains_zero()

    c = sign_to_crosspolytope_face((1, 0, 0))
    assert c.codim == 3 and c.vertices() == ((1, 0, 0),)
    e = sign_to_crosspolytope_face((1, -1, 0))
    assert e.codim == 2 and set(e.vertices()) == {(1, 0, 0), (0, -1, 0)}
    whole = sign_to_crosspolytope_face((0, 0))
    assert whole.codim == 0 and whole.vertex_count() == 4

    with pytest.raises(ValueError):
        sign_to_cube_face((2, 0))


def test_sign_faces_are_model_faces_with_closed_forms():
    # the cube [-s, s]^p and the cross-polytope are the sign permutohedra of
    # (s, ..., s) and (1, 0, ..., 0); their faces keep the closed forms
    for p in range(1, 5):
        for sigma in sign_vectors(p):
            supp = [j for j in range(p) if sigma[j]]
            zeros = p - len(supp)
            for scale in (Fraction(1), Fraction(3, 2)):
                cube = sign_to_cube_face(sigma, scale)
                corners = {tuple(scale * (s or t) for s, t in zip(sigma, free))
                           for free in itertools.product((1, -1), repeat=p)}
                assert len(cube.vertices()) == len(corners) == 2 ** zeros
                assert set(cube.vertices()) == corners
                assert (cube.codim, cube.vertex_count()) == (len(supp), 2 ** zeros)
                assert cube.contains_zero() == (not supp)
                assert (cube.pattern, cube.sign_vector, cube.scale) == (sigma, sigma, scale)
                assert cube.vertices() == model_to_face(sigma, (scale,) * p).vertices()
            cross = sign_to_crosspolytope_face(sigma)
            unit = [tuple(Fraction(int(i == j)) for i in range(p)) for j in range(p)]
            if supp:
                simplex = [tuple(sigma[j] * x for x in unit[j]) for j in supp]
                codim = p - len(supp) + 1
            else:
                simplex = [tuple(s * x for x in u) for u in unit for s in (1, -1)]
                codim = 0
            assert cross.vertices() == tuple(simplex)
            assert (cross.codim, cross.vertex_count()) == (codim, len(simplex))
            assert cross.contains_zero() == (not supp)
            assert (cross.pattern, cross.sign_vector) == (sigma, sigma)
            spine = (Fraction(1),) + (Fraction(0),) * (p - 1)
            assert cross.vertices() == model_to_face(sigma, spine).vertices()


def test_vertex_cap():
    f = model_to_face((0, 0, 0), (Fraction(5), Fraction(3), Fraction(1)))
    assert f.vertex_count() == 48
    with pytest.raises(CapExceeded):
        f.vertices(cap=10)


def test_face_intersects_rowspace_segment():
    X = RationalMatrix.from_rows([[1, 0]])
    f = model_to_face((1, 0), W2)
    hit = face_intersects_rowspace(f, X)
    assert hit is not None
    assert hit.point == (Fraction(7, 2), 0)
    assert X.rmatvec(hit.z) == hit.point

    X2 = RationalMatrix.from_rows([[1, 1]])
    assert face_intersects_rowspace(f, X2) is None


def test_face_intersects_rowspace_full_ball():
    X = RationalMatrix.from_rows([[1, 1]])
    f = model_to_face((0, 0), W2)
    hit = face_intersects_rowspace(f, X)
    assert hit is not None and hit.point == (0, 0) and hit.z == (0,)


def test_face_intersects_rowspace_vertex():
    X = RationalMatrix.from_rows([[7, 3]])
    f = model_to_face((2, 1), W2)  # vertex (3.5, 1.5) = (7, 3)/2
    hit = face_intersects_rowspace(f, X)
    assert hit is not None and hit.point == (Fraction(7, 2), Fraction(3, 2))
    X2 = RationalMatrix.from_rows([[1, 0]])
    assert face_intersects_rowspace(f, X2) is None


def test_face_intersects_rowspace_full_rank():
    # rank p: the row space is everything, any face meets it
    X = RationalMatrix.from_rows([[1, 0], [0, 1]])
    f = model_to_face((2, 1), W2)
    hit = face_intersects_rowspace(f, X)
    assert hit is not None and hit.point == (Fraction(7, 2), Fraction(3, 2))


def reference_face_test(face, X, K):
    """The face test in Fraction arithmetic: the origin for a face holding
    0, else the test of its vertex list. The integer kernel image test must
    agree with it exactly, point and z included."""
    if face.contains_zero():
        return RowspaceIntersection(tuple(Fraction(0) for _ in range(X.ncols)),
                                    tuple(Fraction(0) for _ in range(X.nrows)))
    return reference_hull_test(face.vertices(), X, K)


def reference_hull_test(verts, X, K):
    """Does conv(verts) meet row(X): K'v by Fraction dot products for one
    or two vertices, the same alpha LP beyond that."""
    p = X.ncols
    if not K:
        point = verts[0]
    elif len(verts) == 1:
        if any(dot(kb, verts[0]) != 0 for kb in K):
            return None
        point = verts[0]
    elif len(verts) == 2:
        a, b = verts
        da = [dot(kb, a) for kb in K]
        db = [dot(kb, b) for kb in K]
        alpha = None
        for ca, cb in zip(da, db):
            if ca != cb:
                alpha = cb / (cb - ca)
                break
        if alpha is None:
            if any(c != 0 for c in da):
                return None
            alpha = Fraction(0)
        if not 0 <= alpha <= 1:
            return None
        if any(alpha * ca + (1 - alpha) * cb != 0 for ca, cb in zip(da, db)):
            return None
        point = tuple(alpha * x + (1 - alpha) * y for x, y in zip(a, b))
    else:
        k = len(verts)
        rows = [tuple(dot(kb, v) for v in verts) for kb in K]
        rows.append(tuple(Fraction(1) for _ in range(k)))
        lp = LinearProgram(
            c=tuple(Fraction(0) for _ in range(k)),
            a_eq=tuple(vec(r) for r in rows),
            b_eq=vec([0] * len(K) + [1]),
        )
        res = lp_solve(lp)
        if res.status != OPTIMAL:
            return None
        alpha = res.x
        point = tuple(sum((a * v[i] for a, v in zip(alpha, verts)), Fraction(0))
                      for i in range(p))
    return RowspaceIntersection(point, rowspace_preimage(X, point))


_ENTRIES = st.sampled_from([Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)])


@st.composite
def small_designs(draw):
    """n < p <= 4, small rational entries, often zero; sometimes a zero
    column, and repeated rows make rank-deficient designs."""
    p = draw(st.integers(2, 4))
    n = draw(st.integers(1, p - 1))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=p, max_size=p), min_size=n, max_size=n))
    zero_col = draw(st.none() | st.integers(0, p - 1))
    if zero_col is not None:
        rows = [[x if j != zero_col else Fraction(0) for j, x in enumerate(r)] for r in rows]
    return RationalMatrix.from_rows(rows)


def _sweep_norms(p):
    norms = [
        l1_norm(p, scale=Fraction(3, 2)),
        sup_norm(p),
        slope_norm([Fraction(7, 2), 2, Fraction(3, 2), Fraction(1, 2)][:p]),
    ]
    # tied and zero weights: faces shared by several models
    norms.append(slope_norm([3, 3, 1, 0][:p]))
    return norms


@functools.lru_cache(maxsize=None)
def _faces_beyond_rank(norm, r, limit):
    """Every dual-ball face of codimension > r, ascending, in label order
    within each codimension."""
    faces = dual_ball_faces(norm, limit)
    return tuple(sorted((f for f in faces if f.codim > r), key=lambda f: f.codim))


@given(small_designs())
def test_integer_face_test_matches_fraction_reference(X):
    r = rank(X)
    K = kernel_basis(X)
    kernel = DesignKernel(X)
    for norm in _sweep_norms(X.ncols):
        expected = []
        for face in _faces_beyond_rank(norm, r, None):
            hit = face_intersects_rowspace(face, X, kernel=kernel)
            assert hit == reference_face_test(face, X, K)
            expected.append((face.pattern, hit))
        # the sweeps' integer levels take the same test, label by label
        got = [(label, hits.get(i))
               for c in range(r + 1, X.ncols + 1)
               for d, level in [norms_module._dual_ball_level(norm, c, None)]
               for hits in [dict(kernel.level_hits(d, level, None))]
               for i, label in enumerate(level.labels)]
        assert got == expected


@st.composite
def integer_faces(draw):
    """(X, den, vertices): a design of 1 to 4 columns and any rank from 0 to
    p, and 1 to 6 integer vertices (repeats allowed) of a face over den."""
    p = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=p, max_size=p), min_size=1, max_size=p))
    ivs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * p), min_size=1, max_size=6))
    return RationalMatrix.from_rows(rows), draw(st.integers(1, 3)), ivs


@settings(max_examples=150)
@given(integer_faces())
@example((RationalMatrix.from_rows([[0, 0, 0]]), 2, [(1, -1, 0), (-1, 1, 2), (0, 0, -3)]))  # rank 0
@example((RationalMatrix.from_rows([[1, 0], [1, 1]]), 1, [(2, 1), (0, 3), (1, 1)]))  # rank p
@example((RationalMatrix.from_rows([[1, 1, 0]]), 1, [(1, 1, 0), (1, 1, 0)]))  # equal zero images
@example((RationalMatrix.from_rows([[1, 0, 0]]), 3, [(0, 2, 1), (0, -4, -2), (5, 0, 0)]))  # an edge inside
def test_core_weights_are_convex_and_hit_the_reference(case):
    # the integer core decides a face from its kernel images alone: None, or
    # integer weights w / q of a convex combination of the images that is 0,
    # whose point and z are the Fraction reference's
    X, den, ivs = case
    kernel = DesignKernel(X)
    images = kernel_images(kernel, ivs)
    found = kernel._weights(images, den)
    expected = reference_hull_test([vec([Fraction(x, den) for x in v]) for v in ivs], X, kernel_basis(X))
    if found is None:
        assert expected is None
        return
    q, w = found
    assert all(type(x) is int for x in (q, *w)) and len(w) == len(ivs)
    assert q > 0 and min(w) >= 0 and sum(w) == q
    assert all(sum(map(operator.mul, w, col)) == 0 for col in zip(*images))
    assert kernel._hit(den, ivs, q, w) == expected


def region_vertex_codims(X, norm):
    """Codim of the minimal dual-ball face G(u) containing X'u, for each
    vertex u of the zero region: the subdifferential face at the sum of the
    primal-ball vertices X'u exposes (x = 0 when it exposes none)."""
    for u in zero_region(X, norm):
        exposed = exposed_primal_vertices(norm, X.rmatvec(u))
        x = [sum(col) for col in zip(*exposed)] if exposed else [0] * X.ncols
        yield subdifferential_face(norm, x).codim


def _bp_read(X, face, hit):
    # basis pursuit reads the l1 witness pair at y = X first
    first, second, value = _witness_pair(X, l1_norm(X.ncols), face)
    assert value == sum(map(abs, first))
    return NonUniquenessWitness(X.matvec(first), first, second, sum(map(abs, first)), hit.z)


@settings(max_examples=20)  # a unique p = 4 slope design sweeps twice through the LP path
@given(small_designs())
def test_three_uniqueness_deciders_agree(X):
    # the sweep of level rk(X) + 1; a sweep of every face beyond rk(X) in
    # ascending codim, which finds the same face and witness; and D's vertex
    # labels: unique iff every G(u) has codim exactly rk(X)
    r = rank(X)
    kernel = DesignKernel(X)
    cases = [(norm, check_uniqueness(X, norm), functools.partial(_penalized_witness, X, norm))
             for norm in _sweep_norms(X.ncols)]
    cases.append((l1_norm(X.ncols), check_uniqueness_bp(X), functools.partial(_bp_read, X)))
    for norm, report, witness in cases:
        hits = ((face, face_intersects_rowspace(face, X, kernel=kernel))
                for face in _faces_beyond_rank(norm, r, None))
        face, hit = next(((f, h) for f, h in hits if h is not None), (None, None))
        assert report.rank == r and report.offending_face == face
        assert report.witness == (witness(face, hit) if face is not None else None)
        assert report.unique_for_all_y == (face is None)
        assert report.unique_for_all_y == all(c == r for c in region_vertex_codims(X, norm))


def test_integer_face_test_edge_cases():
    # a segment whose images agree and vanish (alpha 0) and one lying in
    # row(X) along its whole length: the reference picks the second vertex
    X = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    K = kernel_basis(X)
    for face in (sign_to_cube_face((1, -1, 0), scale=Fraction(3, 2)),
                 sign_to_crosspolytope_face((1, 0, 0))):
        got = face_intersects_rowspace(face, X)
        assert got == reference_face_test(face, X, K)
    # vertex lists that are no model face go to the same integer core
    kernel = DesignKernel(X)
    for verts in ([vec([1, 0, 0]), vec([0, 1, 0])], [vec([1, 2, 3])]):
        d, ivs = clear_denominators(verts)
        got = core_hit(kernel, d, ivs)
        assert got == reference_hull_test(verts, X, K)
    ivs = ((1, 2, 0), (3, 1, 0))
    assert core_hit(kernel, 1, ivs).point == (3, 1, 0)
    # a design with no kernel takes the first vertex
    full = RationalMatrix.from_rows([[1, 0], [0, 1]])
    seg = sign_to_cube_face((1, 0), scale=Fraction(1, 3))
    assert face_intersects_rowspace(seg, full) == reference_face_test(seg, full, ())
    # an LP face whose sum row must carry the kernel rows' factor: the same
    # integer images under a sum row of ones make Bland's rule stop at
    # (-4/13, 0, 3/13, 6/13), not at the reference's alpha
    X = RationalMatrix.from_rows([[Fraction(2, 3), 1, Fraction(-1, 5), Fraction(-2, 5)],
                                  [Fraction(2, 5), 1, 0, 0]])
    face = sign_to_crosspolytope_face((-1, 1, 1, 1))
    got = face_intersects_rowspace(face, X)
    assert got == reference_face_test(face, X, kernel_basis(X))
    assert got.point == vec([0, "10/19", "3/19", "6/19"])
    assert got.z == vec(["-15/19", "25/19"])


def test_design_kernel_has_one_scale():
    X = RationalMatrix.from_rows([[2, Fraction(1, 3), 0, 4], [0, 1, Fraction(1, 2), 0]])
    kernel = DesignKernel(X)
    scale, ints = clear_denominators(kernel_basis(X))
    assert type(kernel.scale) is int and kernel.scale == scale > 0
    assert kernel.rank == rank(X) == X.ncols - len(ints)
    assert kernel.columns.shape == (X.ncols, len(ints))
    assert kernel.columns.T.tolist() == [list(v) for v in ints]
    assert all(type(i) is int for i in kernel.columns.flat)
    other = RationalMatrix.from_rows([[1, 0, 0, 0]])
    with pytest.raises(ValueError):
        face_intersects_rowspace(sign_to_cube_face((1, 1, 0, 0)), other, kernel=kernel)


@st.composite
def scaled_images(draw):
    """(table, columns, split): integer vertex rows and kernel columns of p
    entries, of magnitudes from 2^0 to 2^1100 on either side, so B = p
    max|v| max|k| falls in each of the screen's three regimes. Some rows
    are planted on a column k, as k_b e_a - k_a e_b plus a small offset:
    their image there is exactly zero, or a near-cancellation far below B.
    split is where the projection stops once before the last row."""
    p = draw(st.integers(2, 5))
    d = draw(st.integers(1, p - 1))

    def entries(bits):
        return st.tuples(*[st.integers(-2 ** bits, 2 ** bits)] * p)

    columns = draw(st.lists(entries(draw(st.integers(0, 1100))), min_size=d, max_size=d))
    bits = draw(st.integers(0, 1100))
    table = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            k = draw(st.sampled_from(columns))
            a, b = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
            v = list(draw(st.just((0,) * p) | st.tuples(*[st.integers(-2, 2)] * p)))
            v[a] += k[b]
            v[b] -= k[a]
            table.append(tuple(v))
        else:
            table.append(draw(entries(bits)))
    return table, columns, draw(st.integers(0, len(table)))


@settings(max_examples=200)  # a few ms each
@given(scaled_images())
# the exact image is 0, the float image -1: 2^60 + 1 rounds to 2^60
@example(([(1, -1, -1)], [(2 ** 60 + 1, 2 ** 60, 1)], 0))
# the float image has the wrong sign and exceeds 2^-53 B by a factor of 1.67
@example(([(1188355491089274512, 1191038405886422127)],
          [(1250671360050416330, -1247854116977762659)], 0))
@example(([(3, -1, 2), (1, 1, 1)], [(1, 3, 0)], 1))  # B < 2^53: the float product is exact
@example(([(-2 ** 60 - 1, -1)], [(1, 1)], 0))  # max|v| is a negative entry's
@example(([(2 ** 1100, 1)], [(1, -2 ** 1100)], 1))  # B >= 2^1000: every row in Python ints
# 2d = 66 sign bits: the codes are Python ints
@example(([(1,) * 34, (-1,) + (0,) * 33], [tuple(int(i == j) for i in range(34)) for j in range(33)], 1))
def test_float_screen_signs_are_the_exact_signs(case):
    # the screen's sign codes and exact rows equal those of the Python-int
    # product K'v, whichever regime B picks
    table, columns, split = case
    p, d = len(columns[0]), len(columns)
    with mock.patch.object(geometry, "_integer_kernel", lambda rows: (1, columns)):
        kernel = DesignKernel(RationalMatrix.from_rows([[1] * p]))
    # the table as a level's rank table over a lookup of its own entries
    ranks = np.arange(len(table) * p).reshape(len(table), p)
    images = geometry._Images(kernel, geometry._Level((), ranks, None, [x for v in table for x in v]))
    images.extend(split)
    images.extend(len(table))
    exact = [[sum(map(operator.mul, v, k)) for k in columns] for v in table]
    codes = [sum(1 << j for j, x in enumerate(row) if x <= 0)
             + sum(1 << (d + j) for j, x in enumerate(row) if x >= 0) for row in exact]
    assert images.codes.tolist() == codes
    assert images.exact_rows(range(len(table))) == exact


def test_row_space_sweeps_hand_the_lp_only_integers(monkeypatch):
    # model faces and the brute-force faces' vertex lists pass their kernel
    # images, each with one positive total; no Fraction reaches the LP
    seen = []

    def recording(a, b, n):
        seen.append((a, b, n))
        return lp_feasible(a, b, n)

    monkeypatch.setattr(geometry, "lp_feasible", recording)
    X = RationalMatrix.from_rows([[Fraction(2, 3), 1, Fraction(-1, 5)]])
    kernel = DesignKernel(X)
    for norm in _sweep_norms(3):
        for face in dual_ball_faces(norm, None):
            face_intersects_rowspace(face, X, kernel=kernel)
    model_lps = len(seen)
    ball = model_to_face((0, 0, 0), (Fraction(7, 2), 2, Fraction(1, 2)))
    for face in enumerate_exposed_faces(ball.vertices()):
        d, ivs = clear_denominators(face.hull)
        core_hit(kernel, d, ivs)
    assert 0 < model_lps < len(seen)
    for a, b, n in seen:
        assert all(type(x) is int for x in (n, *b, *(x for r in a for x in r)))


def test_integer_form_scale_and_memo():
    # the integer vertices every face test reads: the vertices times the lcm
    # of their denominators, in the same order, converted once per face
    f = model_to_face((2, 1, 0), (Fraction(5, 2), Fraction(3, 2), Fraction(1, 3)))
    verts = f.vertices()
    scale, ivs = f._integer_form
    assert scale == 6
    assert len(ivs) == len(verts) == 2
    assert all(all(isinstance(x, int) for x in v) for v in ivs)
    assert ivs == tuple(tuple(int(6 * x) for x in v) for v in verts)
    assert f._integer_form[1] is ivs


def test_hull_face_codims():
    v = vec([1, 2, 3])
    assert hull_face([v]).codim == 3
    assert hull_face([(0, 0, 1), (0, 1, 0)]).codim == 2


def _faces_as_vertex_sets(faces):
    return {frozenset(f.hull) for f in faces}


def test_exposed_face_enumeration_matches_model_faces_p2():
    verts = model_to_face((0, 0), W2).vertices()
    brute = enumerate_exposed_faces(verts)
    assert len(brute) == 17
    structured = {frozenset(model_to_face(m, W2).vertices()) for m in enumerate_models(2)}
    assert _faces_as_vertex_sets(brute) == structured
    # codims agree face by face
    codim_of = {frozenset(model_to_face(m, W2).vertices()): model_to_face(m, W2).codim
                for m in enumerate_models(2)}
    for f in brute:
        assert f.codim == codim_of[frozenset(f.hull)]


def test_exposed_face_enumeration_cube_and_crosspolytope():
    square = sign_to_cube_face((0, 0), scale=1).vertices()
    faces = enumerate_exposed_faces(square)
    assert len(faces) == 9  # 4 vertices + 4 edges + the square
    cp = sign_to_crosspolytope_face((0, 0, 0)).vertices()
    faces = enumerate_exposed_faces(cp)
    # 6 vertices + 12 edges + 8 facets + full = 27 = all nonzero sign vectors + 1
    assert len(faces) == 27


def test_exposed_face_enumeration_guards():
    with pytest.raises(CapExceeded):
        enumerate_exposed_faces([tuple([Fraction(i == j) for i in range(5)]) for j in range(5)])
    with pytest.raises(ValueError):
        enumerate_exposed_faces([(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))])


def test_signed_permutation_count():
    assert sum(1 for _ in signed_permutations(3)) == 48


def test_face_json_dict():
    f = model_to_face((1, 0), W2)
    d = f.to_json_dict()
    assert d["kind"] == "signperm" and d["codim"] == 1 and d["model"] == [1, 0]
    assert d["blocks"][0]["weights"] == ["7/2"]
    d2 = f.to_json_dict(include_vertices=True)
    assert ["7/2", "3/2"] in d2["vertices"]


def test_vertex_cache_tells_weight_vectors_apart(monkeypatch):
    # one model under many weights (and one sign vector under many l1
    # scales) is many faces; their hashes differ, so the shared vertex cache
    # never has to compare two of them weight by weight
    calls = []
    real = geometry.Face.__eq__
    monkeypatch.setattr(geometry.Face, "__eq__", lambda a, b: calls.append(1) or real(a, b))
    geometry._materialized_vertices.cache_clear()
    faces = [model_to_face((2, -1, 0, 1), [k + 3, k + 2, 1, Fraction(1, k + 1)]) for k in range(40)]
    faces += [sign_to_cube_face((1, 0, -1), scale=Fraction(k + 1, 7)) for k in range(40)]
    for face in faces + faces:
        assert face.vertices()
    assert calls == []
    assert len({hash(face) for face in faces}) == len(faces)

"""Polytope norms: scaled l1, supremum, and sorted-l1 (SLOPE), with exact
dual norms, subdifferential faces of the dual ball, and the face table of
the dual ball.

dual_ball_faces is the one list of dual-ball faces, built by one label ->
face dispatch (_label_face). Every face is a model face of the sign
permutohedron of a weight vector: the slope weights, (scale, ..., scale) for
the l1 cube and (1, 0, ..., 0) for the sup cross-polytope, whose faces are
labeled by sign vectors. Labels, codimensions, vertex counts and vertex
order read the weights only through their ties and zeros, so a level is
built once per label family and tie pattern C, the smallest integer weights
with those ties and zeros (_weight_free_level), as three things
(geometry._Level): its labels, its rank table, each distinct vertex read
off a face's blocks under C once, which is its own signed tie ranks, and
the index of each face's rows into that table, whose number is the face's
vertex count. dual_ball_faces maps the dispatch over the labels; the
sweeps' row-space screen reads a norm's level (_dual_ball_level): the
pattern's labels, index and rank table, shared, and a lookup of the norm's
signed integer weights by rank, through which each row it projects becomes
that norm's integer vertex. Both are cached (64 patterns, 64 norms); a
reported face is cached per (norm, label).

zero_region lists the vertices of the zero-solution region
D = {u : ||X'u||_* <= 1}, from one double description per (design, norm),
cached (64 pairs) with what its readers need (_zero_region): X'u for each
vertex u over one common denominator, which the analytic accessibility route
pairs with every label in one integer product (_ZeroRegion.support_values),
and u's tight set, the primal-ball vertices v with <Xv, u> = 1, which names
G(u), the smallest dual-ball face holding X'u (_tight_face). The constraint
normals are rows of the integer product X V (_gauge_rows), which the gauge
LP's rows are formed from too. Both figures label the region's vertices
and edges, and the crossings of a rank-one row space, from those tight sets.

norm_value and dual_norm_value are the one copy of the norm arithmetic: a
private _NormForm per norm pairs the sorted |x| with the same weights, or
takes the best ratio of their prefix sums (Bogdan et al. 2015). Each norm
caches it in its Fractions, in integers over the weights' denominator for
integer vectors (labels, the exact certificate) and in floats for FISTA;
CPython converts a Fraction to float before Fraction * float and
float / Fraction, so on the same floats the Fraction and float forms give
the same doubles.

Values are duck-typed: Fraction inputs give exact rationals, float inputs
give floats. Face construction is exact-only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .exact import (
    RationalMatrix,
    Vector,
    _eliminate,
    clear_denominators,
    rat,
    rat_str,
    solve_exact,
    vec,
)
from .geometry import (
    DEFAULT_MODEL_LIMIT,
    DEFAULT_SIGN_LIMIT,
    Face,
    SlopeWeights,
    _block_vertices,
    _crosspolytope_weights,
    _Level,
    _LevelIndex,
    _model_blocks,
    _models,
    model_of,
    model_to_face,
    sign_to_crosspolytope_face,
    sign_to_cube_face,
    sign_vectors,
)

L1 = "l1"
SUP = "sup"
SLOPE = "slope"


@dataclass(frozen=True)
class _NormForm:
    """Norm and dual norm from the permutohedron weights w and their prefix
    sums w1 + ... + wk, in closed form for l1 and sup. .floats holds the
    float of each scale, weight and exact prefix sum."""

    kind: str
    scale: object
    weights: tuple
    prefix: tuple

    def value(self, x: Sequence):
        if self.kind == L1:
            return self.scale * sum(map(abs, x))
        if self.kind == SUP:
            return max(map(abs, x))
        return sum(map(operator.mul, self.weights, sorted(map(abs, x), reverse=True)))

    def dual_value(self, x: Sequence):
        if self.kind == L1:
            return max(map(abs, x)) / self.scale
        if self.kind == SUP:
            return sum(map(abs, x))
        mags = sorted(map(abs, x), reverse=True)
        return max(map(operator.truediv, itertools.accumulate(mags), self.prefix))

    @functools.cached_property
    def integers(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(e, the weights times e, their prefix sums times e) for e the
        weights' least common denominator, which the integer readers share."""
        e, (w,) = clear_denominators([self.weights])
        return e, w, tuple(itertools.accumulate(w))

    def integer_value(self, x: Sequence[int]) -> int:
        """e ||x|| for an integer vector x: the integer weights paired with
        the sorted magnitudes, which is the norm of every kind."""
        _, w, _ = self.integers
        return sum(map(operator.mul, w, sorted(map(abs, x), reverse=True)))

    def exact_dual_value(self, x: Sequence[int], den: int) -> Fraction:
        """The dual norm of x / den for an integer vector x and den > 0: the
        best ratio of the magnitudes' prefix sums to the weights', chosen by
        integer cross products, as one Fraction (for l1 and sup the ratios
        peak at the largest magnitude and at the full sum)."""
        e, _, prefix = self.integers
        top, below = 0, 1
        for a, q in zip(itertools.accumulate(sorted(map(abs, x), reverse=True)), prefix):
            if a * below > top * q:
                top, below = a, q
        return Fraction(top * e, below * den)

    @functools.cached_property
    def floats(self) -> _NormForm:
        return _NormForm(self.kind, float(self.scale), tuple(map(float, self.weights)),
                         tuple(map(float, self.prefix)))


@dataclass(frozen=True)
class PolytopeNorm:
    kind: str
    dim: int
    scale: Fraction = Fraction(1)  # l1 penalty multiplier
    weights: SlopeWeights | None = None

    def __post_init__(self):
        if self.kind not in (L1, SUP, SLOPE):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == L1 and self.scale <= 0:
            raise ValueError("l1 scale must be positive")
        if self.kind == SLOPE:
            if self.weights is None or len(self.weights) != self.dim:
                raise ValueError("slope norm needs weights matching the dimension")
        elif self.weights is not None:
            raise ValueError("weights only apply to the slope norm")

    @functools.cached_property
    def _form(self) -> _NormForm:
        """Cached on the instance, not by equality: a norm of float scale 1.5
        equals its twin of scale 3/2 but keeps its own numbers."""
        if self.kind == SLOPE:
            w = tuple(self.weights)
        elif self.kind == L1:
            w = (self.scale,) * self.dim
        else:
            w = _crosspolytope_weights(self.dim)
        return _NormForm(self.kind, self.scale, w, tuple(itertools.accumulate(w)))

    def describe(self) -> dict:
        d: dict = {"kind": self.kind, "dim": self.dim}
        if self.kind == L1:
            d["scale"] = rat_str(self.scale)
        if self.kind == SLOPE:
            d["weights"] = [rat_str(w) for w in self.weights]
        return d


def l1_norm(dim: int, scale=1) -> PolytopeNorm:
    return PolytopeNorm(L1, dim, scale=rat(scale))


def sup_norm(dim: int) -> PolytopeNorm:
    return PolytopeNorm(SUP, dim)


def slope_norm(weights: Sequence) -> PolytopeNorm:
    w = weights if isinstance(weights, SlopeWeights) else SlopeWeights.of(weights)
    return PolytopeNorm(SLOPE, len(w), weights=w)


def norm_value(norm: PolytopeNorm, x: Sequence):
    if len(x) != norm.dim:
        raise ValueError("dimension mismatch")
    return norm._form.value(x)


def dual_norm_value(norm: PolytopeNorm, x: Sequence):
    """Support function of the unit ball: max/scale for l1, plain l1 sum for
    sup, and the best prefix ratio sum_{j<=k}|x|_(j) / sum_{j<=k} w_j for
    slope (the denominators are positive since w1 > 0)."""
    if len(x) != norm.dim:
        raise ValueError("dimension mismatch")
    return norm._form.dual_value(x)


def dual_ball_membership(norm: PolytopeNorm, s: Sequence) -> bool:
    return dual_norm_value(norm, vec(s)) <= 1


def dual_ball_vertices(norm: PolytopeNorm) -> tuple[Vector, ...]:
    """Vertex set of the dual unit ball: the vertices of its subdifferential
    face at 0, the whole ball, listed uncapped. Ties or zeros in slope
    weights make signed permutations of w collide, and each vertex is listed
    once."""
    return subdifferential_face(norm, [0] * norm.dim).vertices(cap=None)


def _label_face(norm: PolytopeNorm, label: tuple[int, ...]) -> Face:
    # the one label -> dual-ball face dispatch: a sign vector's cube or
    # cross-polytope face, or a model's face under the slope weights
    if norm.kind == SLOPE:
        return model_to_face(label, norm.weights)
    if norm.kind == L1:
        return sign_to_cube_face(label, scale=norm.scale)
    return sign_to_crosspolytope_face(label)


def dual_ball_faces(
    norm: PolytopeNorm, limit: int | None = None, codim: int | None = None
) -> tuple[Face, ...]:
    """The faces of the dual unit ball, or only those of codimension codim,
    in label order (face.pattern is the label): one per sign vector of
    sign_vectors(p, limit) for the l1 cube and sup cross-polytope, one per
    model of enumerate_models(p, limit) for slope, whose tied or zero weights
    repeat a face for each model labeling it. A label off the level is never
    built into a face. Only limit None means the default cap; limit 0 refuses.
    """
    level = _weight_free_level(norm.kind == SLOPE, _tie_pattern(norm._form.weights),
                               codim, limit, False)
    return tuple(_label_face(norm, t) for t in level.labels)


# the face of a hit label, kept per (norm, label) so that the witness caches
# keyed on the face find it again
_dual_ball_face = functools.lru_cache(maxsize=256)(_label_face)


def _tie_pattern(w: Sequence) -> tuple[int, ...]:
    """The smallest integer weights with the ties and zeros of nonincreasing w,
    one decreasing positive integer per tie group: (1, ..., 1) for any l1."""
    rank = {v: k for k, v in enumerate(sorted(set(w), reverse=True))}
    top = len(rank) - (0 in rank)
    return tuple(top - rank[v] if v else 0 for v in w)


@functools.lru_cache(maxsize=64)
def _weight_free_level(models: bool, C: tuple[int, ...], codim: int | None,
                       limit: int | None, vertices: bool = True) -> _Level:
    """The one listing of a dual-ball level: the labels of each model (or
    sign vector) of codimension codim under the tie pattern C, in label
    order, with the level's rank table, each distinct vertex under C (its
    own signed tie ranks, as intp, which numpy indexes without a cast) read
    off a face's blocks once, in order of first appearance, and the index of
    each face's rows into it; with vertices False, the labels alone. The
    zero label's face is the whole ball, which every test decides without
    its vertices, so it has no ids. Only limit None means the default cap;
    0 refuses."""
    if models:  # a face's codim is at least its top level
        labels = _models(len(C), DEFAULT_MODEL_LIMIT if limit is None else limit, codim)
    else:
        labels = sign_vectors(len(C), DEFAULT_SIGN_LIMIT if limit is None else limit)
    if codim is None and not vertices:  # nothing to read off the blocks
        return _Level(tuple(labels))
    table: dict[tuple[int, ...], int] = {}
    kept, sizes, ids, reach = [], [], [], []
    for label in labels:
        blocks, c = _model_blocks(label, C)
        if codim is None or c == codim:
            kept.append(label)
            if vertices:
                vids = ()
                if any(label):
                    vids = [table.setdefault(v, len(table)) for v in _block_vertices(blocks, label)]
                ids += vids
                sizes.append(len(vids))
                reach.append(len(table))
    if not vertices:
        return _Level(tuple(kept))
    ranks = np.fromiter(itertools.chain.from_iterable(table), np.intp, len(table) * len(C))
    del table  # its vertex tuples are freed before the index arrays are formed, for a lower peak
    sizes = np.array(sizes, dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    index = _LevelIndex(np.array(ids, dtype=np.intp), starts, sizes,
                        np.array(reach, dtype=np.intp), int(sizes.max(initial=0)))
    return _Level(tuple(kept), ranks.reshape(-1, len(C)), index)


@functools.lru_cache(maxsize=64)
def _dual_ball_level(norm: PolytopeNorm, codim: int | None, limit: int | None,
                     vertices: bool = True) -> tuple[int, _Level]:
    """(d, level): dual_ball_faces(norm, limit, codim) as labels, integer
    vertices over one denominator d and the index of each face's vertices,
    without a Face; with vertices False (a sweep that tests no face), the
    labels alone. It shares the labels, index and rank table of the level
    of norm's tie pattern C, and looks the ranks up in norm's permutohedron
    weights W times their least common denominator d: lookup[c] = W's weight
    of tie group c, lookup[-c] (from the end) its negative, lookup[0] = 0,
    2K + 1 Python ints for K positive groups. d is each face's own
    denominator, since every vertex holds every weight."""
    C = _tie_pattern(norm._form.weights)
    level = _weight_free_level(norm.kind == SLOPE, C, codim, limit, vertices)
    d, W, _ = norm._form.integers
    if not vertices:
        return d, level
    lookup = [0] * (2 * C[0] + 1)  # C[0], the largest rank, counts the positive tie groups
    for c, x in zip(C, W):
        lookup[c], lookup[-c] = x, -x
    return d, _Level(level.labels, level.ranks, level.index, lookup)


@functools.lru_cache(maxsize=64)
def primal_ball_vertices(norm: PolytopeNorm) -> tuple[Vector, ...]:
    """Points whose convex hull is the primal unit ball, so the norm is their
    gauge: ||x|| = min{sum(lam) : x = sum_v lam_v v, lam >= 0}.

    l1: +-e_j / scale, ordered e_1..e_p then -e_1..-e_p. sup: the 2^p full
    sign vectors. slope: sigma / ||sigma|| over every nonzero sign vector;
    all of them are vertices for strict weights, and with tied weights the
    extra points lie on the boundary and still generate the ball.
    """
    p = norm.dim
    if norm.kind == L1:
        unit = tuple(tuple(Fraction(int(i == j)) / norm.scale for i in range(p)) for j in range(p))
        return unit + tuple(tuple(-x for x in v) for v in unit)
    if norm.kind == SUP:
        return tuple(vec(s) for s in itertools.product((1, -1), repeat=p))
    return tuple(x for _, x in unit_sphere_sign_points(norm))


@functools.lru_cache(maxsize=64)
def _integer_primal_ball_vertices(norm: PolytopeNorm) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(e, primal_ball_vertices(norm) times e) for e the lcm of their
    denominators: the gauge LP's integer columns, cleared once per norm."""
    return clear_denominators(primal_ball_vertices(norm))


def _gauge_rows(X: RationalMatrix, norm: PolytopeNorm) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(f, X V in integers): X's integer rows against the norm's integer
    primal-ball vertices, each over its common denominator, so every row is
    f = d e times the rational one: the gauge LP's rows, formed per LP, and
    the zero region's constraint normals, formed once per region it keeps."""
    e, iverts = _integer_primal_ball_vertices(norm)
    d, xrows, _ = X._integer_form
    return d * e, tuple(tuple(sum(map(operator.mul, r, v)) for v in iverts) for r in xrows)


def subdifferential_face(norm: PolytopeNorm, x: Sequence) -> Face:
    """The face of the dual ball where s'x attains ||x||; equivalently the
    subdifferential of the norm at x. At x = 0 this is the whole ball."""
    xx = vec(x)
    if len(xx) != norm.dim:
        raise ValueError("dimension mismatch")
    if norm.kind == L1:
        label = tuple((v > 0) - (v < 0) for v in xx)
    elif norm.kind == SUP:  # x = 0 gives sigma = 0, the whole cross-polytope
        top = max(abs(v) for v in xx)
        label = tuple(((v > 0) - (v < 0)) if abs(v) == top else 0 for v in xx)
    else:
        label = model_of(xx)
    return _label_face(norm, label)


def _tight_face(norm: PolytopeNorm, *tight_sets: Sequence[Vector]) -> Face:
    """The smallest dual-ball face holding a boundary point s whose tight set,
    the primal-ball vertices pairing to 1 with s, is what the given tight sets
    share: one set at a vertex of the zero region, the two ends' sets along
    its edge. The sum of those vertices lies in the relative interior of the
    normal cone at s, so its subdifferential face is that smallest face (the
    whole ball when none is tight)."""
    shared = [v for v in tight_sets[0] if all(v in t for t in tight_sets[1:])]
    return subdifferential_face(norm, [sum(v[j] for v in shared) for j in range(norm.dim)])


def unit_sphere_sign_points(norm: PolytopeNorm) -> list[tuple[tuple[int, ...], Vector]]:
    """(sigma, sigma / ||sigma||) for every nonzero sign vector: points of the
    primal unit sphere whose pairing against dual-ball faces identifies the
    vertex sets dual to a face. Every vertex of the primal ball is among them
    for all three families. With k nonzeros, ||sigma|| is the k-th prefix sum
    of the permutohedron weights."""
    # per support size k, the entries of sigma / ||sigma|| by the sign
    entries = [{1: 1 / w, 0: Fraction(0), -1: -1 / w} for w in norm._form.prefix]
    signs = itertools.product((1, 0, -1), repeat=norm.dim)
    return [(s, tuple(map(entries[len(s) - s.count(0) - 1].__getitem__, s))) for s in signs if any(s)]


# label-by-vertex entries per chunk of a support-value product
_SUPPORT_CHUNK = 1 << 18


class _ZeroRegion(NamedTuple):
    """The zero-solution region D of one (design, norm): its vertices u, X'u
    for each over one common denominator den (the rows of duals), and each
    vertex's tight set, the primal_ball_vertices v with <Xv, u> = 1, in their
    order."""

    vertices: tuple[Vector, ...]
    den: int
    duals: tuple[tuple[int, ...], ...]
    tight: tuple[tuple[Vector, ...], ...]

    def support_values(self, labels: np.ndarray) -> list[int]:
        """max <t, X'u> over the vertices u, times den, for each row t of an
        integer label array: one product of the labels by the duals, a chunk
        of labels at a time. It runs in int64 only where the bound
        max|t| max|den X'u| p < 2^62 keeps every entry from overflowing, and
        on Python ints (object dtype) otherwise."""
        top = max(abs(x) for s in self.duals for x in s)
        exact = int(abs(labels).max()) * top * labels.shape[1] >= 1 << 62
        S = np.array(self.duals, dtype=object if exact else np.int64).T
        L = labels.astype(object) if exact else labels
        step = max(1, _SUPPORT_CHUNK // S.shape[1])
        return [v for lo in range(0, len(L), step) for v in (L[lo:lo + step] @ S).max(axis=1).tolist()]


def zero_region(X: RationalMatrix, norm: PolytopeNorm) -> tuple[Vector, ...]:
    """Vertices of the zero-solution region D = {u : ||X'u||_* <= 1}, the
    responses whose penalized minimizer is zero, by exact double description.

    D is cut out by the halfspaces <Xv, u> <= 1 for v in
    primal_ball_vertices(norm), a set closed under negation. Each vertex is
    supported on R, the first maximal independent set of X's rows (all rows
    at full row rank); D is the polytope of those vertices plus the lines of
    ker(X'). Either way X'u ranges over the section of the dual ball by
    row(X), so by LP duality max <Xm, u> over the vertices is the least norm
    over {b : Xb = Xm}, and a vertex attaining it is a dual certificate.
    """
    return _zero_region(X, norm).vertices


@functools.lru_cache(maxsize=64)
def _zero_region(X: RationalMatrix, norm: PolytopeNorm) -> _ZeroRegion:
    """zero_region's double description, kept per (design, norm) with the
    duals and tight sets its readers need.

    The start is the parallelotope |<a, u>| <= 1 of the first rk(X)
    independent constraint normals a. Each further halfspace drops the
    vertices beyond it and adds the point where it crosses each edge from a
    dropped vertex to a kept one. Two vertices span an edge iff no third
    vertex is tight on every constraint both are tight on (Motzkin et al.
    1953; Fukuda & Prodon 1996), a test on tight-set bitmasks. The work is in
    integers: the normals are rows of the gauge LP's X V (_gauge_rows), and
    each vertex an integer vector over a positive denominator. A crossing
    point is tight exactly where both ends of its edge are, so the bitmasks
    end as the tight sets; the normals are deduplicated, and each tight
    normal stands for every primal-ball vertex with that image.
    """
    if norm.dim != X.ncols:
        raise ValueError("norm dimension does not match the matrix")
    support = X._preimage_map.pivots  # X's first independent rows, as rowspace_preimage pivots
    if not support:  # X = 0: D is the whole space, and u = 0 stands for it
        zero = tuple(Fraction(0) for _ in range(X.nrows))
        return _ZeroRegion((zero,), 1, ((0,) * X.ncols,), ((),))
    r = len(support)
    # <a, u> <= 1 reads <A, U> <= f d for A = f a, the normal Xv over R, and u = U / d
    f, rows = _gauge_rows(X, norm)
    images = list(zip(*(rows[i] for i in support)))
    normals = list(dict.fromkeys(a for a in images if any(a)))
    index = {a: k for k, a in enumerate(normals)}
    first = _eliminate(list(zip(*normals)))[1]  # the first r independent, as pivots
    basis = RationalMatrix(tuple(normals[k] for k in first))
    start = basis.rows + tuple(tuple(-x for x in a) for a in basis.rows)

    def slacks(k):
        return [sum(map(operator.mul, normals[k], U)) - f * d for U, d in verts]

    verts = []  # (U, d)
    for t in itertools.product((f, -f), repeat=r):
        d, (U,) = clear_denominators([solve_exact(basis, t)])
        verts.append((U, d))
    masks = [0] * len(verts)  # per vertex, the halfspaces so far that are tight at it
    done = {index[a] for a in start}
    for k in done:
        masks = [m | (1 << k) if not s else m for m, s in zip(masks, slacks(k))]
    for k in range(len(normals)):
        if k in done:
            continue
        bit = 1 << k
        vals = slacks(k)
        below = [j for j, s in enumerate(vals) if s < 0]
        cut, cut_masks = [], []
        for i, s_i in enumerate(vals):
            if s_i <= 0:
                continue
            U_i, d_i = verts[i]
            for j in below:
                common = masks[i] & masks[j]
                # i and j are tight on common; an edge has no third vertex that is
                if common.bit_count() < r - 1 or sum(m & common == common for m in masks) > 2:
                    continue
                # the crossing s_i u_j - s_j u_i, a positive combination
                (U_j, d_j), s_j = verts[j], vals[j]
                W = [s_i * y - s_j * x for x, y in zip(U_i, U_j)] + [s_i * d_j - s_j * d_i]
                g = math.gcd(*W)
                cut.append((tuple(x // g for x in W[:-1]), W[-1] // g))
                cut_masks.append(common | bit)
        kept = [i for i, s in enumerate(vals) if s <= 0]
        masks = [masks[i] | bit if not vals[i] else masks[i] for i in kept] + cut_masks
        verts = [verts[i] for i in kept] + cut
    vertices = []
    for U, d in verts:
        full = [Fraction(0)] * X.nrows
        for i, x in zip(support, U):
            full[i] = Fraction(x, d)
        vertices.append(tuple(full))
    den, duals = clear_denominators(X.rmatvec(u) for u in vertices)
    bits = [1 << index[a] if any(a) else 0 for a in images]  # per primal-ball vertex
    tight = tuple(tuple(v for v, b in zip(primal_ball_vertices(norm), bits) if m & b) for m in masks)
    return _ZeroRegion(tuple(vertices), den, duals, tight)

"""Combinatorial geometry of the dual balls: faces of the sign
permutohedron, labeled by integer models.

A model is an integer vector m encoding a sign and clustering pattern: the
entries of |m| are exactly {0, 1, ..., max|m|} minus nothing, i.e. every level
up to the top one is attained. model_of(x) is the pattern of x itself: equal
magnitudes share a level, larger magnitudes get larger levels, signs carry
over. Every face of the sign permutohedron of a slope weight vector w is the
face of some model m: a product of plain permutohedra over the level blocks of
m (largest level first, taking consecutive weight chunks) times a sign
permutohedron on the zero block. Strictly decreasing positive weights make
this a bijection; tied or zero weights let several models share one face.
One walk over m's blocks (_model_blocks) gives them and the codimension, and
one vertex count and one vertex generator read them, for weights of any
type: a Face's Fractions, or a sweep level's integers (norms). Models are
listed top level by top level (_models), so a level of codimension c, whose
faces all have top level at most c, lists no model above it.

The l1 cube [-s, s]^p and the sup cross-polytope are the sign permutohedra
of (s, ..., s) and (1, 0, ..., 0), so their faces are the model faces of sign
vectors under those weights; the kinds "box" and "crosspoly" only tag them.
A Face is always a model face: its label, blocks and signs determine its
vertices.

Row-space tests work in kernel coordinates: a point s of a face lies in
row(X) iff K's = 0 for a basis K of ker(X). A DesignKernel holds that basis
for one design times one common denominator, as Python ints in an object
numpy array, so the kernel images of many integer dual-ball vertices are one
exact product (never int64 or float: the images outgrow 64 bits). Every face
test screens first (_screen), in this order: a vertex meets row(X) iff its
image is zero; an edge iff its two images are parallel with a nonpositive
dot product (0 lies between them); a larger face can meet it only if each
kernel coordinate has min <= 0 <= max over its images (a sign box). Only
the faces that pass go to the integer core (_meets), which decides a larger
face by simplex phase 1 alone (lp.lp_feasible) on those same images, every
row carrying the same positive factor, so it pivots as on the rational
program and hands back integer weights; for vertices and edges it recomputes
the hit, and a disagreement raises. A sweep screens a whole level of the
dual ball (norms) from its vertex table and per-entry vertex ids
(DesignKernel.level_hits), in chunks of doubling size, projecting each
vertex once, when the first chunk that uses it is screened; a single Face
is screened on its own (face_intersects_rowspace). Fractions return only on
a hit, to form the point and its z.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .exact import (
    RationalMatrix,
    Vector,
    clear_denominators,
    kernel_basis,
    rat,
    rat_str,
    rowspace_preimage,
    vec,
)
from .lp import lp_feasible

DEFAULT_MODEL_LIMIT = 6
DEFAULT_SIGN_LIMIT = 10
DEFAULT_VERTEX_CAP = 100_000


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured cap; refuse, never truncate."""


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# models


def model_of(x: Sequence, tol=0) -> tuple[int, ...]:
    """Sign/cluster pattern of x. tol > 0 merges nearly equal magnitudes and
    flattens near-zeros (float inputs); tol = 0 is exact."""
    mags = [abs(v) for v in x]
    if tol == 0:
        level = {m: i + 1 for i, m in enumerate(sorted({m for m in mags if m > 0}))}
        return tuple(_sign(v) * level.get(abs(v), 0) for v in x)
    clusters: list[list] = []  # [lo, hi] magnitude ranges, ascending
    for m in sorted(m for m in mags if m > tol):
        if not clusters or m - clusters[-1][1] > tol:
            clusters.append([m, m])
        else:
            clusters[-1][1] = m

    def level_of(m):
        for i, (lo, hi) in enumerate(clusters):
            if lo - tol <= m <= hi + tol:
                return i + 1
        raise AssertionError("unclustered magnitude")

    return tuple(0 if abs(v) <= tol else _sign(v) * level_of(abs(v)) for v in x)


def is_model(m: Sequence[int]) -> bool:
    """Integer vector whose nonzero magnitudes cover 1..max exactly."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in m):
        return False
    mags = {abs(v) for v in m if v != 0}
    return mags == set(range(1, max(mags) + 1)) if mags else True


def _models(p: int, limit: int, top: int | None = None) -> Iterator[tuple[int, ...]]:
    """The models of dimension p whose top level is at most top (any, for
    None), by (top level, entries): for each level L = 0, 1, ... the vectors
    over -L..L covering every level 1..L, in lexicographic order. A prefix is
    extended only while the positions left can still cover the levels it
    misses. Refuses when p exceeds limit."""
    if p < 1:
        raise ValueError("dimension must be >= 1")
    if p > limit:
        raise CapExceeded(f"model enumeration for p={p} exceeds cap {limit}")
    top = p if top is None else min(top, p)
    return itertools.chain.from_iterable(_level_models(p, L) for L in range(top + 1))


def _level_models(p: int, L: int) -> list[tuple[int, ...]]:
    """The models of dimension p with top level L, in lexicographic order."""

    @functools.cache
    def tail(k: int, missing: int) -> list[tuple[int, ...]]:
        # the length-k tails over -L..L whose magnitudes cover every level
        # whose bit is set in missing
        if k == 0:
            return [()]
        return [(v,) + rest
                for v in range(-L, L + 1)
                for left in [missing & ~(1 << abs(v))]
                if left.bit_count() < k
                for rest in tail(k - 1, left)]

    return tail(p, (1 << (L + 1)) - 2)


def enumerate_models(p: int, limit: int = DEFAULT_MODEL_LIMIT) -> list[tuple[int, ...]]:
    """All models in dimension p, sorted by (max level, entries). The count
    grows like the ordered Bell numbers, hence the refusal cap."""
    return list(_models(p, limit))


def sign_vectors(p: int, limit: int = DEFAULT_SIGN_LIMIT) -> Iterator[tuple[int, ...]]:
    """All of {-1,0,1}^p in descending lexicographic order (1 > 0 > -1)."""
    if p > limit:
        raise CapExceeded(f"sign vector sweep for p={p} exceeds cap {limit}")
    return itertools.product((1, 0, -1), repeat=p)


# ---------------------------------------------------------------------------
# faces


class Block(NamedTuple):
    coords: tuple[int, ...]
    weights: tuple  # a chunk of Fractions in a Face, of ints in a sweep level
    signed: bool  # sign permutohedron factor (zero-level block)


@dataclass(frozen=True)
class Face:
    """A dual-ball face: the sign-permutohedron face of a model under a
    weight vector (blocks hold the weight chunks, signs the per-coordinate
    orientation).

    l1 and sup faces are model faces of their sign vector under (scale, ...,
    scale) and (1, 0, ..., 0); kind "box" or "crosspoly" only tags them for
    the JSON form, which shows sign_vector (and the cube's scale) in place of
    the model and blocks of kind "signperm".
    """

    ambient_dim: int
    kind: str
    codim: int
    scale: Fraction
    model: tuple[int, ...]
    blocks: tuple[Block, ...]
    signs: tuple[int, ...]

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # the vertex cache keys on faces, and one label under many weights
        # (or l1 scales) must not share a hash, or every lookup compares the
        # Fraction weights of each colliding face; computed once per face
        return hash((self.kind, self.model, self.blocks))

    @property
    def pattern(self) -> tuple[int, ...]:
        """The label of the face: a sign vector (l1, sup) or a model (slope)."""
        return self.model

    @property
    def sign_vector(self) -> tuple[int, ...] | None:
        """The label of an l1 or sup face, its model; None for other kinds."""
        return self.model if self.kind in ("box", "crosspoly") else None

    def contains_zero(self) -> bool:
        return not any(self.model)

    def vertex_count(self) -> int:
        return self._vertex_count

    @functools.cached_property
    def _vertex_count(self) -> int:
        # once per face: a reported face's witness and its JSON read it
        # through vertices(), and face_intersects_rowspace checks it first
        return _block_vertex_count(self.blocks)

    def vertices(self, cap: int = DEFAULT_VERTEX_CAP) -> tuple[Vector, ...]:
        _check_vertex_cap(self.vertex_count(), cap)
        return _materialized_vertices(self)

    @functools.cached_property
    def _integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        # (L, the vertices times L) for L the lcm of their denominators
        return clear_denominators(_materialized_vertices(self))

    def to_json_dict(self, include_vertices: bool = False) -> dict:
        d: dict = {"kind": self.kind, "ambient_dim": self.ambient_dim, "codim": self.codim}
        if self.kind == "box":
            d["scale"] = rat_str(self.scale)
        if self.sign_vector is not None:
            d["sign_vector"] = list(self.sign_vector)
        else:
            d["model"] = list(self.model)
            d["signs"] = list(self.signs)
            d["blocks"] = [
                {
                    "coords": list(b.coords),
                    "weights": [rat_str(w) for w in b.weights],
                    "signed": b.signed,
                }
                for b in self.blocks
            ]
        if include_vertices:
            d["vertices"] = [[rat_str(x) for x in v] for v in self.vertices()]
        return d


def _check_vertex_cap(count: int, cap: int | None) -> None:
    if cap is not None and count > cap:
        raise CapExceeded(f"face has {count} vertices, cap is {cap}")


def _block_vertex_count(blocks: Sequence[Block]) -> int:
    """The face's vertex count: the distinct arrangements of each weight
    chunk, times free signs on the zero block's nonzero weights."""
    n = 1
    for b in blocks:
        n *= math.factorial(len(b.weights))
        for w, run in itertools.groupby(b.weights):
            k = len(list(run))
            n //= math.factorial(k)
            if b.signed and w:
                n *= 2 ** k
    return n


def _block_vertices(blocks: Sequence[Block], signs: Sequence[int]) -> tuple[tuple, ...]:
    """The face's vertices in the weights' own type (ints in, ints out); a
    negative signs[j] flips coordinate j of a level block."""
    # per coordinate, its choices for each distinct weight of its block's
    # chunk, by rank (largest first): a level block fixes the coordinate's
    # sign, the zero block's are free, +w before -w
    choices: list = [None] * len(signs)
    arrangements = []
    for b in blocks:
        levels, ranks = [], []
        for w in b.weights:  # nonincreasing, so equal weights are adjacent
            # (and often one object, which skips the Fraction comparison)
            if not levels or (w is not levels[-1] and w != levels[-1]):
                levels.append(w)
            ranks.append(len(levels) - 1)
        pairs = [(w, -w) if w else (w,) for w in levels]
        fixed = ([pair[:1] for pair in pairs], [pair[-1:] for pair in pairs])
        for j in b.coords:
            choices[j] = pairs if b.signed else fixed[signs[j] < 0]
        arrangements.append(_rank_arrangements(tuple(ranks)))
    # blocks multiply, the zero block (last) fastest; each block takes
    # every distinct arrangement of its ranks once, in lexicographic
    # order, and the zero block's free signs multiply within one
    order = [j for b in blocks for j in b.coords]
    where = sorted(range(len(order)), key=order.__getitem__)  # coordinate -> block position
    out: list = []
    for combo in itertools.product(*arrangements):
        flat = tuple(itertools.chain.from_iterable(combo))
        out += itertools.product(*map(operator.getitem, choices, map(flat.__getitem__, where)))
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _rank_arrangements(ranks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # the distinct permutations of a nondecreasing tuple, in lexicographic order
    if not ranks:
        return ((),)
    return tuple(
        (r,) + rest
        for r in sorted(set(ranks))
        for rest in _rank_arrangements(ranks[: ranks.index(r)] + ranks[ranks.index(r) + 1 :])
    )


@functools.lru_cache(maxsize=8192)
def _materialized_vertices(face: Face) -> tuple[Vector, ...]:
    # read by a reported face's witness and its JSON (the sweeps test integer
    # levels and build no face); materialization is pure, so a shared cache
    # is safe
    return _block_vertices(face.blocks, face.signs)


def _convex_zero_weights(columns: Sequence[tuple[int, ...]],
                         total: int) -> tuple[int, tuple[int, ...]] | None:
    """(d, x) with convex weights alpha = x / d, sum_i alpha_i columns[i] = 0,
    or None when 0 is outside the hull of the columns. columns are integer
    points times total > 0, so the rows are the coordinates in order, then
    the sum row, total in every column, with b = (0, ..., 0, total): the
    rational program with every row times total, on which Bland's rule takes
    the same pivots. Phase 1 alone decides it, integers in and out."""
    k = len(columns)
    rows = (*zip(*columns), (total,) * k)
    return lp_feasible(rows, (0,) * (len(rows) - 1) + (total,), k)


def check_weights(w: Sequence) -> tuple[Fraction, ...]:
    """w as exact rationals, if it is a slope weight vector: nonempty,
    nonincreasing and nonnegative with w1 > 0."""
    ww = vec(w)
    if not ww:
        raise ValueError("empty weight vector")
    if ww[0] <= 0 or any(x < 0 for x in ww):
        raise ValueError("weights need w1 > 0 and all entries >= 0")
    if any(a < b for a, b in zip(ww, ww[1:])):
        raise ValueError("weights must be nonincreasing")
    return ww


@dataclass(frozen=True)
class SlopeWeights:
    """Nonincreasing nonnegative weights with w1 > 0, checked once at
    construction. Models label the dual-ball faces of every such vector;
    ties and zeros make some share one."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        check_weights(self.values)

    @classmethod
    def of(cls, entries: Sequence) -> "SlopeWeights":
        return cls(vec(entries))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _block_dim(chunk: Sequence, signed: bool) -> int:
    # see model_codim; the weights of one tuple are often one object, which
    # skips the Fraction comparison
    if signed:
        return len(chunk) if chunk[0] else 0
    return len(chunk) - 1 if chunk[0] is not chunk[-1] and chunk[0] != chunk[-1] else 0


def _model_blocks(m: Sequence[int], w: Sequence) -> tuple[tuple[Block, ...], int]:
    """The blocks of model m under nonincreasing weights w of any type, one
    per level, largest first, taking consecutive weight chunks (the zero
    block last), and the codimension of their face (model_codim)."""
    mags = list(map(abs, m))
    order = sorted(range(len(m)), key=mags.__getitem__, reverse=True)  # stable
    blocks, start, dim = [], 0, 0
    while start < len(m):
        level = mags[order[start]]
        end = start + mags.count(level)
        chunk = w[start:end]
        dim += _block_dim(chunk, not level)
        blocks.append(Block(tuple(order[start:end]), chunk, not level))
        start = end
    return tuple(blocks), len(m) - dim


def model_codim(m: Sequence[int], w: Sequence[Fraction]) -> int:
    """Codimension of the face of model m under nonincreasing weights w: p
    minus the dimensions of its blocks. A level block of k coordinates has
    dimension k - 1, or 0 when its weight chunk is constant; the zero block
    has dimension k, or 0 when its chunk is all zero. For strictly decreasing
    positive weights this is the top level of m."""
    return _model_blocks(m, w)[1]


def model_to_face(m: Sequence[int], w: Sequence) -> Face:
    """The sign-permutohedron face attached to model m: level blocks take
    consecutive weight chunks from the top, the zero block keeps free signs.
    Its codimension is model_codim(m, w). w is checked unless it is a
    SlopeWeights, which was checked when it was built, so a face table that
    passes one checks its weights once."""
    mm = tuple(int(v) for v in m)
    if not is_model(mm):
        raise ValueError(f"{mm} is not a model: levels must cover 1..max")
    ww = w.values if isinstance(w, SlopeWeights) else check_weights(w)
    if len(mm) != len(ww):
        raise ValueError("model and weights dimension mismatch")
    return _model_face(mm, ww, "signperm")


def _model_face(m, w, kind, scale=Fraction(1)) -> Face:
    # m and w are checked
    blocks, codim = _model_blocks(m, w)
    signs = tuple([-1 if v < 0 else 1 for v in m])
    return Face(len(m), kind, codim, scale, m, blocks, signs)


def _sign_label(sigma: Sequence[int]) -> tuple[int, ...]:
    s = tuple(map(int, sigma))
    if not {-1, 0, 1}.issuperset(s):
        raise ValueError("sign vector entries must be -1, 0 or 1")
    return s


@functools.lru_cache(maxsize=64)
def _crosspolytope_weights(p: int) -> tuple[Fraction, ...]:
    # the sign permutohedron of (1, 0, ..., 0) is the cross-polytope
    return (Fraction(1),) + (Fraction(0),) * (p - 1)


def sign_to_cube_face(sigma: Sequence[int], scale=1) -> Face:
    """The face of the cube [-scale, scale]^p where sigma fixes coordinates:
    the model face of sigma under (scale, ..., scale), of codim |supp sigma|."""
    s = _sign_label(sigma)
    scale = rat(scale)
    return _model_face(s, (scale,) * len(s), "box", scale)


def sign_to_crosspolytope_face(sigma: Sequence[int]) -> Face:
    """conv{sigma_j e_j : sigma_j != 0}, the whole cross-polytope for sigma =
    0: the model face of sigma under (1, 0, ..., 0)."""
    s = _sign_label(sigma)
    return _model_face(s, _crosspolytope_weights(len(s)), "crosspoly")


# ---------------------------------------------------------------------------
# row-space intersection


class _LevelIndex(NamedTuple):
    """Where each entry of a level finds its vertices in the level's vertex
    table: entry i has the sizes[i] ids ids[starts[i]:starts[i + 1]] (none
    for the zero label), the entries up to i use the first reach[i]
    vertices, and top is the largest vertex count of a nonzero label. It
    depends on the tie pattern alone, so the levels of every norm of one
    pattern share it."""

    ids: np.ndarray     # intp
    starts: np.ndarray  # intp, one more than the entries
    sizes: np.ndarray   # intp
    reach: np.ndarray   # intp
    top: int


class _Level(tuple):
    """A dual-ball level as the sweeps read it (norms builds and caches it):
    its (label, vertex count, integer vertices) entries in label order,
    plus vertices, the level's distinct integer vertices in order of first
    appearance, and the index into them. First appearance makes the
    vertices of any prefix of the entries a prefix of the table."""

    def __new__(cls, entries, vertices: tuple, index: _LevelIndex):
        level = super().__new__(cls, entries)
        level.vertices = vertices
        level.index = index
        return level

    @functools.cached_property
    def labels(self) -> np.ndarray:
        # the entries' labels as one int64 array, for the analytic route
        return np.array([label for label, _, _ in self], dtype=np.int64)

    @functools.cached_property
    def table(self) -> np.ndarray:
        # the vertex table as one object array of Python ints, read only
        # when a screen needs some vertex, so it has at least one row
        return np.array(self.vertices, dtype=object)


def _level(rows: Sequence, vertices: Sequence) -> _Level:
    """The _Level of rows (label, vertex count, vertex ids, reach), ids into
    vertices in order of first appearance, and reach the number of vertices
    seen up to and including the row."""
    sizes = np.array([len(vids) for _, _, vids, _ in rows], dtype=np.intp)
    starts = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    ids = np.fromiter(itertools.chain.from_iterable(vids for _, _, vids, _ in rows),
                      dtype=np.intp, count=int(starts[-1]))
    top = max((count for label, count, _, _ in rows if any(label)), default=0)
    reach = np.array([seen for *_, seen in rows], dtype=np.intp)
    index = _LevelIndex(ids, starts, sizes, reach, top)
    entries = tuple((label, count, tuple(map(vertices.__getitem__, vids)))
                    for label, count, vids, _ in rows)
    return _Level(entries, tuple(vertices), index)


def _signs(images: np.ndarray) -> np.ndarray:
    # per vertex, which kernel coordinates of its image are <= 0, then >= 0
    return np.concatenate((images <= 0, images >= 0), axis=1)


def _screen(images: np.ndarray, signs: np.ndarray, ids: np.ndarray,
            bounds: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Which faces may meet row(X): face j has the sizes[j] vertices
    ids[bounds[j] : bounds[j + 1]], rows of images, the integer kernel
    images of a vertex table, with signs their _signs.

    A face without vertices is the whole ball and holds 0. Any other face
    passes only if each kernel coordinate has min <= 0 <= max over its
    images, that is some image <= 0 and some >= 0 there: a convex
    combination of the images is zero only then. For a vertex this is the
    exact test (its image is zero). An edge that passes has a nonpositive
    dot product, so it meets row(X) iff its two images are also parallel,
    every 2x2 minor zero. Larger faces that pass still need phase 1."""
    passed = sizes == 0
    if len(ids):
        filled = ~passed
        box = np.logical_or.reduceat(signs[ids], bounds[:-1][filled])
        passed[filled] = box.all(axis=1)
        edges = passed & (sizes == 2)
        at = bounds[:-1][edges]
        if len(at):
            a, b = images[ids[at]], images[ids[at + 1]]
            passed[edges] = (a[:, :, None] * b[:, None, :] == b[:, :, None] * a[:, None, :]).all(axis=(1, 2))
    return passed


# entries a sweep screens first; each later chunk is twice the one before, so
# an early exit screens this many entries or at most twice those up to its hit
_FIRST_CHUNK = 256


class DesignKernel:
    """ker(X) of one design, shared by every face test of a sweep over it.

    basis is the deterministic Fraction basis of kernel_basis(X);
    integer_basis is that basis times scale > 0, the least common
    denominator of all its entries, and columns the same integers as a
    (p, dim ker X) object array of Python ints: the images K'v of a whole
    vertex table are one exact numpy product. Every face test screens the
    images first (_screen: zero image, antiparallel pair, sign box) and
    sends only the faces that pass to the integer core (_meets), which
    computes the hit; for a vertex or an edge the screen has decided, and a
    disagreement raises, so each checks the other. image(v) is K'v for one
    integer vertex, memoized for the core. One scale for the whole basis
    keeps the face LP's rows a uniform multiple of the rational program's,
    so its phase-1 pivots and its alpha stay those of the Fraction basis.
    """

    def __init__(self, X: RationalMatrix):
        self.X = X
        self.basis: tuple[Vector, ...] = kernel_basis(X)
        self.scale, self.integer_basis = clear_denominators(self.basis)
        self.columns = np.array(self.integer_basis, dtype=object).reshape(len(self.basis), X.ncols).T
        self._images: dict[tuple[int, ...], tuple[int, ...]] = {}

    def image(self, v: tuple[int, ...]) -> tuple[int, ...]:
        img = self._images.get(v)
        if img is None:
            img = tuple(sum(a * b for a, b in zip(k, v)) for k in self.integer_basis)
            self._images[v] = img
        return img

    def level_hits(self, den: int, level: _Level,
                   cap: int | None) -> Iterator[tuple[int, RowspaceIntersection]]:
        """(i, hit) for each entry i of a dual-ball level (norms), vertices
        over den, whose face meets row(X), in level order.

        The level is screened in chunks of doubling size, from the first
        entry on, and each chunk projects only the vertices it is the first
        to use, so a sweep that stops at its first hit pays for a prefix.
        The zero label's face is the whole ball, which holds 0. The first
        entry of another label with more than cap vertices refuses, unless
        an earlier one hit first and the caller stopped there."""
        ids, starts, sizes, reach, top = level.index
        n = len(level)
        over = n
        if cap is not None and cap < top:
            over = next(i for i, (label, count, _) in enumerate(level) if count > cap and any(label))
        images = signs = None  # until some chunk uses a vertex
        have, lo, size = 0, 0, _FIRST_CHUNK
        while lo < n:
            if lo == over:
                _check_vertex_cap(level[lo][1], cap)
            hi = min(n, over, lo + size)
            if reach[hi - 1] > have:
                fresh = level.table[have:reach[hi - 1]] @ self.columns
                if have:
                    images, signs = np.concatenate((images, fresh)), np.concatenate((signs, _signs(fresh)))
                else:
                    images, signs = fresh, _signs(fresh)
                have = reach[hi - 1]
            a = starts[lo]
            passed = _screen(images, signs, ids[a:starts[hi]], starts[lo:hi + 1] - a, sizes[lo:hi])
            for i in np.flatnonzero(passed).tolist():
                label, _, ivs = level[lo + i]
                hit = self._confirm(den, ivs) if any(label) else _origin(self.X)
                if hit is not None:
                    yield lo + i, hit
            lo, size = hi, 2 * size

    def face_hit(self, den: int, ivs: tuple[tuple[int, ...], ...]) -> RowspaceIntersection | None:
        """The test of one face conv(ivs / den), ivs its distinct integer
        vertices: the same screen as a level's, on the face alone."""
        images = np.array(ivs, dtype=object) @ self.columns
        bounds = np.array((0, len(ivs)), dtype=np.intp)
        if _screen(images, _signs(images), np.arange(len(ivs)), bounds, bounds[1:])[0]:
            return self._confirm(den, ivs)
        return None

    def _confirm(self, den: int, ivs: tuple[tuple[int, ...], ...]) -> RowspaceIntersection | None:
        # a face that passed the screen: the core finds its hit, and a vertex
        # or an edge, which the screen decides, must have one
        hit = self._meets(den, ivs)
        if hit is None and len(ivs) <= 2:
            raise AssertionError("the row-space screen and the face test disagree")
        return hit

    def _meets(self, den: int, ivs: tuple[tuple[int, ...], ...]) -> RowspaceIntersection | None:
        # the integer core of every face test: the face is conv(ivs / den)
        if not self.basis:
            point = tuple(Fraction(x, den) for x in ivs[0])
        elif len(ivs) == 1:
            if any(self.image(ivs[0])):
                return None
            point = tuple(Fraction(x, den) for x in ivs[0])
        elif len(ivs) == 2:
            alpha = _segment_weight(self.image(ivs[0]), self.image(ivs[1]))
            if alpha is None:
                return None
            # alpha a + (1 - alpha) b in integers over alpha's denominator
            n, q = alpha.numerator, alpha.denominator
            point = tuple(Fraction(n * x + (q - n) * y, q * den) for x, y in zip(*ivs))
        else:
            found = _convex_zero_weights([self.image(v) for v in ivs], self.scale * den)
            if found is None:
                return None
            d, weights = found
            point = tuple(Fraction(sum(map(operator.mul, weights, col)), d * den) for col in zip(*ivs))
        z = rowspace_preimage(self.X, point)
        if z is None:
            raise AssertionError("kernel-orthogonal point must lie in the row space")
        return RowspaceIntersection(point, z)


def _segment_weight(ca: tuple[int, ...], cb: tuple[int, ...]) -> Fraction | None:
    """alpha in [0, 1] with alpha*ca + (1 - alpha)*cb = 0, or None.

    Let x, y be the entries of ca, cb at the first coordinate where they
    differ, and d = y - x. Then alpha = y / d, which lies in [0, 1] iff y
    lies between 0 and d, and every coordinate i vanishes iff
    y*ca[i] == x*cb[i]. Positive rescaling of the kernel vectors or of the
    vertices changes neither test nor alpha. Equal images meet 0 only when
    both are zero, and then alpha = 0.
    """
    for x, y in zip(ca, cb):
        if x != y:
            d = y - x
            if not (0 <= y <= d or d <= y <= 0):
                return None
            if any(y * u != x * w for u, w in zip(ca, cb)):
                return None
            return Fraction(y, d)
    return None if any(ca) else Fraction(0)


@dataclass(frozen=True)
class RowspaceIntersection:
    point: Vector  # a point of the face inside row(X)
    z: Vector      # X'z == point


def _origin(X: RationalMatrix) -> RowspaceIntersection:
    # a face holding 0 meets row(X) there, with z = 0
    return RowspaceIntersection(
        tuple(Fraction(0) for _ in range(X.ncols)),
        tuple(Fraction(0) for _ in range(X.nrows)),
    )


def face_intersects_rowspace(
    face: Face,
    X: RationalMatrix,
    kernel: DesignKernel | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> RowspaceIntersection | None:
    """Exact intersection test between a dual-ball face and row(X).

    A point s of the face lies in row(X) iff K's = 0 for a basis K of ker(X).
    The face's integer vertices get their kernel images as one object-dtype
    product of Python ints and go through the screen the level sweeps also
    run (DesignKernel.level_hits), in this order: a vertex meets row(X) iff
    its image is zero, a segment iff its two images are parallel with a
    nonpositive dot product, and a larger face only if each kernel
    coordinate has min <= 0 <= max over its images. A face that passes goes
    to the integer core: a vertex or a segment has its point read off (see
    _segment_weight), and a larger face runs phase 1 alone over the convex
    weights alpha, on the integer images themselves, each K'v times the
    product of the kernel's and the face's scales, and reads alpha back as
    integers over one denominator (see _convex_zero_weights). Pass one
    DesignKernel per design to every face of a sweep. The cap is checked
    first. Fractions enter the point only on a hit, one per coordinate, and
    z with X'z = point comes from exact elimination.
    """
    if face.ambient_dim != X.ncols:
        raise ValueError("face and matrix dimension mismatch")
    if face.contains_zero():
        return _origin(X)
    if kernel is None:
        kernel = DesignKernel(X)
    elif kernel.X is not X and kernel.X != X:
        raise ValueError("kernel belongs to another design")
    _check_vertex_cap(face.vertex_count(), cap)  # once, before any vertex is built
    return kernel.face_hit(*face._integer_form)


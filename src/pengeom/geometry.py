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
one vertex generator reads them, for weights of any type: a Face's
Fractions, or a sweep level's integers (norms). A Face counts its vertices
from its blocks; a level counts each face's vertex ids. Models are
listed top level by top level (_models), so a level of codimension c, whose
faces all have top level at most c, lists no model above it.

The l1 cube [-s, s]^p and the sup cross-polytope are the sign permutohedra
of (s, ..., s) and (1, 0, ..., 0), so their faces are the model faces of sign
vectors under those weights; the kinds "box" and "crosspoly" only tag them.
A Face is always a model face: its label, blocks and signs determine its
vertices.

Row-space tests work in kernel coordinates: a point s of a face lies in
row(X) iff K's = 0 for a basis K of ker(X). A DesignKernel holds that basis
for one design times one common denominator, from the integer elimination,
as Python ints in an object numpy array, with a float64 view of it. Every
face test screens first (_screen), in this order: a vertex meets row(X) iff
its image is zero; an edge iff its two images are parallel with a
nonpositive dot product (0 lies between them); a larger face can meet it
only if each kernel coordinate has min <= 0 <= max over its images (a sign
box, one OR of its vertices' packed sign codes). The images K'v of a vertex
table come from one float64 product where a proven bound makes its signs
exact (_Images): for B = p max|v| max|k|, below 2^53 the product is K'v
itself; below 2^1000 it is within (p + 3) 2^-53 B of K'v, so only a row with
an entry that close to 0 is recomputed in Python ints; beyond that every row
is (the images of a genericity design reach 95 bits). Only the faces that
pass the box get exact Python-int images, for the edge minors and for the
integer core (DesignKernel._weights), which decides a face from its images
alone and answers in integer convex weights: a larger face by simplex phase
1 alone (lp.lp_feasible), every row carrying the same positive factor, so
it pivots as on the rational program; for vertices and edges it re-decides
the hit, and a disagreement raises. A sweep screens a whole level of the
dual ball (norms: labels, a table of signed tie ranks, each face's rows in
it, the norm's weights to look them up) through DesignKernel.level_hits, in
chunks of doubling size, projecting each vertex once, when the first chunk
that uses it is screened; a single Face is a level of one face, its own
entries the lookup (face_intersects_rowspace). A face's vertices are looked
up only once its weights are found, and DesignKernel._hit forms the point
and z of each hit in integers, through the integer core of the design's
preimage solve map (exact._SolveMap.integer_solve): a face test makes no
Fraction, and its readers form them only for what they report.
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
    _integer_kernel,
    clear_denominators,
    rat,
    rat_str,
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

    models = tail(p, (1 << (L + 1)) - 2)
    tail.cache_clear()  # a cycle with tail, which only a full collection frees
    return models


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


# the screen's regimes by B = p max|v| max|k| (_Images)
_EXACT_BOUND = 2 ** 53
_FLOAT_BOUND = 2 ** 1000


class _LevelIndex(NamedTuple):
    """Where each face of a level finds its vertices in the level's rank
    table: face i has the sizes[i] rows ids[starts[i]:starts[i + 1]], its
    vertex count (none for the zero label, whose face is the whole ball),
    the faces up to i use the first reach[i] rows, and top is the largest
    size. It depends on the tie pattern alone, so the levels of every norm
    of one pattern share it."""

    ids: np.ndarray     # intp
    starts: np.ndarray  # intp, one more than the faces
    sizes: np.ndarray   # intp
    reach: np.ndarray   # intp
    top: int


class _Level:
    """A dual-ball level as the sweeps read it (norms builds and caches it):
    its labels in label order, its rank table (a row per distinct vertex, in
    order of first appearance), the index of each face's rows into it, and
    a lookup of integer weights, with a float64 copy below _FLOAT_BOUND. Row
    k is the vertex lookup[ranks[k]], a negative rank counting from the end,
    so top, the largest |weight|, is max|v|. A label-only level has no table.
    First appearance makes the rows of a prefix of the faces a prefix."""

    def __init__(self, labels: tuple, ranks: np.ndarray | None = None,
                 index: _LevelIndex | None = None, lookup: Sequence[int] = ()):
        self.labels, self.ranks, self.index = labels, ranks, index
        self.lookup = np.array(lookup, dtype=object)
        self.top = max(map(abs, lookup), default=0)
        self.float_lookup = np.array(lookup, dtype=np.float64) if self.top < _FLOAT_BOUND else None

    @functools.cached_property
    def label_array(self) -> np.ndarray:
        # the labels as one int64 array, for the analytic route
        return np.array(self.labels, dtype=np.int64)

    def vertex_rows(self, rows) -> np.ndarray:
        """The integer vertices of the given table rows, Python ints in an
        object array."""
        return self.lookup[self.ranks[rows]]


def _grown(rows: np.ndarray | None, more: np.ndarray) -> np.ndarray:
    return more if rows is None else np.concatenate((rows, more))


class _Images:
    """The kernel images K'v of a level's table rows, projected a prefix at
    a time as the screen reaches them, each row looked up through the
    level's weights, their float64 copy for the product: per row its sign
    box packed into one int (codes: bit j set when coordinate j is <= 0, bit
    d + j when >= 0), and on demand its exact image in Python ints.

    The regime is B's alone, for B = p max|v| max|k|, max|v| the level's
    top, over the kernel's integer columns k. Below 2^53 every product and
    partial sum is an integer below 2^53, so the float64 product is K'v and
    its rows, as ints, are the images. Below 2^1000 the float64 product
    is within gamma_{p+2} B <= (p + 3) 2^-53 B of K'v, both conversions to
    float counted (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1), so an entry's sign is certain where it exceeds that bound rounded
    up, and only a row with an entry in doubt is recomputed in Python ints,
    once. Otherwise every row is."""

    def __init__(self, kernel: DesignKernel, level: _Level):
        self.kernel, self.level = kernel, level
        p, d = kernel.X.ncols, kernel.X.ncols - kernel.rank
        bound = p * level.top * kernel.top
        self.floats = level.float_lookup if bound < _FLOAT_BOUND and kernel.float_columns is not None else None
        self.exact = self.floats is not None and bound < _EXACT_BOUND
        if self.floats is not None and not self.exact:
            doubt = -(-(p + 3) * bound >> 53)  # ceil((p + 3) 2^-53 B)
            self.doubt = float(doubt) if float(doubt) >= doubt else math.nextafter(float(doubt), math.inf)
        bits = np.array([1 << j for j in range(2 * d)], dtype=np.int64 if 2 * d < 63 else object)
        self.low, self.high, self.full = bits[:d], bits[d:], (1 << 2 * d) - 1
        self.codes = self.small = None  # small: the images, when the product is exact
        self.ints: list = []  # otherwise per row its exact image, once computed
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def extend(self, stop: int) -> None:
        """Project the rows up to stop, if not yet projected."""
        lo = self.size
        if stop <= lo:
            return
        self.size = stop
        if self.floats is None:
            images = self.level.vertex_rows(slice(lo, stop)) @ self.kernel.columns
            self.ints += images.tolist()
        else:
            images = self.floats[self.level.ranks[lo:stop]] @ self.kernel.float_columns
            if self.exact:
                self.small = _grown(self.small, images.astype(np.int64))
            else:
                rows: list = [None] * (stop - lo)
                sizes = np.abs(images)
                if sizes.min(initial=np.inf) <= self.doubt:
                    doubt = np.flatnonzero((sizes <= self.doubt).any(axis=1))
                    exact = self.level.vertex_rows(lo + doubt) @ self.kernel.columns
                    images[doubt] = (exact > 0).astype(np.float64) - (exact < 0)  # their exact signs
                    for r, row in zip(doubt.tolist(), exact.tolist()):
                        rows[r] = row
                self.ints += rows
        self.codes = _grown(self.codes, (images <= 0) @ self.low + (images >= 0) @ self.high)

    def exact_rows(self, rows: Sequence[int]) -> list[list[int]]:
        """The exact images K'v of the given rows, as lists of Python ints."""
        if self.exact:
            return self.small[rows].tolist()
        missing = list(dict.fromkeys(r for r in rows if self.ints[r] is None))
        if missing:
            for r, row in zip(missing, (self.level.vertex_rows(missing) @ self.kernel.columns).tolist()):
                self.ints[r] = row
        return [self.ints[r] for r in rows]


def _screen(images: _Images, ids: np.ndarray, bounds: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Which faces may meet row(X): face j has the sizes[j] vertices
    ids[bounds[j] : bounds[j + 1]], rows of the projected images.

    A face without vertices is the whole ball and holds 0. Any other face
    passes only if each kernel coordinate has min <= 0 <= max over its
    images, that is some image <= 0 and some >= 0 there, one OR of its
    rows' sign codes: a convex combination of the images is zero only then.
    For a vertex this is the exact test (its image is zero). An edge that
    passes has a nonpositive dot product, so it meets row(X) iff its two
    exact images are also parallel, every 2x2 minor zero in Python ints.
    Larger faces that pass still need phase 1."""
    passed = sizes == 0
    if len(ids):
        filled = ~passed
        box = np.bitwise_or.reduceat(images.codes[ids], bounds[:-1][filled])
        passed[filled] = box == images.full
        edges = passed & (sizes == 2)
        at = bounds[:-1][edges]
        if len(at):
            ends = np.array(images.exact_rows(ids[np.concatenate((at, at + 1))].tolist()), dtype=object)
            a, b = ends[:len(at)], ends[len(at):]
            passed[edges] = (a[:, :, None] * b[:, None, :] == b[:, :, None] * a[:, None, :]).all(axis=(1, 2))
    return passed


# entries a sweep screens first; each later chunk is twice the one before, so
# an early exit screens this many entries or at most twice those up to its hit
_FIRST_CHUNK = 256


class DesignKernel:
    """ker(X) of one design, shared by every face test of a sweep over it.

    columns is the basis of kernel_basis(X) times scale > 0, the least common
    denominator of its entries, as exact._integer_kernel gives it, in a (p,
    dim ker X) object array of Python ints, top is max|k| over its entries,
    float_columns its float64 view (none from 2^1000 on), and rank is rk(X).
    Only the screen's images (_Images) read either form: the images K'v of
    a level's rows are one float64 product where B = p max|v| top makes it
    exact (B < 2^53) or its signs certain away from a (p + 3) 2^-53 B band
    around 0 (B < 2^1000), and Python ints for the rows in that band, for
    all rows beyond, and for the faces that pass the sign box. Every face
    test screens the images first (_screen: zero image, antiparallel pair,
    sign box) and hands only the faces that pass, with their exact rows, to
    the integer core: _weights decides the face from its images alone and
    returns integer convex weights, and _hit, for a face whose weights were
    found, forms the point and its z in integers (_Hit); for a vertex or an
    edge the screen has decided, and a disagreement raises, so each checks
    the other. One scale for the whole basis keeps the face LP's rows a
    uniform multiple of the rational program's, so its phase-1 pivots and
    its weights stay those of the Fraction basis.
    """

    def __init__(self, X: RationalMatrix):
        self.X = X
        self.scale, ints = _integer_kernel(X._integer_form[1])
        self.rank = X.ncols - len(ints)
        self.columns = columns = np.array(ints, dtype=object).reshape(len(ints), X.ncols).T
        self.top = max(map(abs, itertools.chain.from_iterable(ints)), default=0)
        self.float_columns = columns.astype(np.float64) if self.top < _FLOAT_BOUND else None

    def level_hits(self, den: int, level: _Level,
                   cap: int | None) -> Iterator[tuple[int, _Hit]]:
        """(i, hit) for each face i of a dual-ball level (norms), vertices
        over den, that meets row(X), in level order.

        The level is screened in chunks of doubling size, from the first
        face on, and each chunk projects only the vertices it is the first
        to use, so a sweep that stops at its first hit pays for a prefix.
        The zero label's face is the whole ball, which holds 0. The first
        face with more than cap vertices refuses, unless an earlier one hit
        first and the caller stopped there."""
        ids, starts, sizes, reach, top = level.index
        n = len(sizes)
        over = n
        if cap is not None and cap < top:
            over = int(np.argmax(sizes > max(cap, 0)))  # the zero label never refuses
        images = None  # until some chunk uses a vertex
        lo, size = 0, _FIRST_CHUNK
        while lo < n:
            if lo == over:
                _check_vertex_cap(int(sizes[lo]), cap)
            hi = min(n, over, lo + size)
            if reach[hi - 1]:  # some face up to hi has vertices
                if images is None:
                    images = _Images(self, level)
                images.extend(reach[hi - 1])
            a = starts[lo]
            passed = _screen(images, ids[a:starts[hi]], starts[lo:hi + 1] - a, sizes[lo:hi])
            for i in np.flatnonzero(passed).tolist():
                rows = ids[starts[lo + i]:starts[lo + i + 1]]
                if not len(rows):  # the zero label
                    yield lo + i, _origin(self.X)
                elif found := self._weights(images.exact_rows(rows.tolist()), den):
                    yield lo + i, self._hit(den, level.vertex_rows(rows).tolist(), *found)
                elif len(rows) <= 2:  # the screen decided these, so each checks the other
                    raise AssertionError("the row-space screen and the face test disagree")
            lo, size = hi, 2 * size

    def _weights(self, images: Sequence[Sequence[int]], den: int) -> tuple[int, tuple[int, ...]] | None:
        # the integer core of every face test, on the face conv(v_k / den)
        # with images[k] = K'v_k: convex weights (q, w), q > 0, w >= 0, sum w
        # = q and sum w_k images[k] = 0, or None; phase 1 runs on the images
        # and the sum row, every row times scale * den, which keeps the
        # pivots and the weights those of the rational program
        k = len(images)
        if self.rank == self.X.ncols:
            return 1, (1,) + (0,) * (k - 1)
        if k == 1:
            return None if any(images[0]) else (1, (1,))
        if k == 2:
            return _segment_weight(*images)
        total = self.scale * den
        rows = (*zip(*images), (total,) * k)
        return lp_feasible(rows, (0,) * (len(rows) - 1) + (total,), k)

    def _hit(self, den: int, ivs: Sequence[Sequence[int]], q: int, w: Sequence[int]) -> _Hit:
        # the point W / (q den) of conv(ivs / den), W = sum w_k ivs[k], and
        # its z, X'z = W / (q den), from the integer core of X's preimage
        # solve map, which also checks that the point lies in row(X)
        W = tuple(sum(map(operator.mul, w, col)) for col in zip(*ivs))
        found = self.X._preimage_map.integer_solve(W)
        if found is None:
            raise AssertionError("kernel-orthogonal point must lie in the row space")
        s = q * den
        return _Hit(s, W, found[0] * s, found[1])


def _segment_weight(ca: Sequence[int], cb: Sequence[int]) -> tuple[int, tuple[int, int]] | None:
    """Convex weights (d, (y, -x)) over d > 0 with y ca - x cb = 0, or None.

    Let x, y be the entries of ca, cb at the first coordinate where they
    differ, and d = y - x (negated with the weights when negative). Then
    alpha = y / d, which lies in [0, 1] iff y lies between 0 and d, and
    every coordinate i vanishes iff y*ca[i] == x*cb[i]. Positive rescaling
    of the kernel vectors or of the vertices changes neither test nor
    alpha. Equal images meet 0 only when both are zero, and then alpha = 0.
    """
    for x, y in zip(ca, cb):
        if x != y:
            d = y - x
            if not (0 <= y <= d or d <= y <= 0) or any(y * u != x * w for u, w in zip(ca, cb)):
                return None
            return (d, (y, -x)) if d > 0 else (-d, (-y, x))
    return None if any(ca) else (1, (0, 1))


@dataclass(frozen=True)
class RowspaceIntersection:
    point: Vector  # a point of the face inside row(X)
    z: Vector      # X'z == point


class _Hit(NamedTuple):
    """A face test's hit in integers: the point W / s of the face inside
    row(X) and its z = Z / t with X'z = W / s, s and t > 0. point and z are
    their Fractions, formed on each read, for the readers that report them."""

    s: int
    W: tuple[int, ...]
    t: int
    Z: tuple[int, ...]

    @property
    def point(self) -> Vector:
        return tuple(Fraction(x, self.s) for x in self.W)

    @property
    def z(self) -> Vector:
        return tuple(Fraction(x, self.t) for x in self.Z)


def _origin(X: RationalMatrix) -> _Hit:
    # a face holding 0 meets row(X) there, with z = 0
    return _Hit(1, (0,) * X.ncols, 1, (0,) * X.nrows)


def face_intersects_rowspace(
    face: Face,
    X: RationalMatrix,
    kernel: DesignKernel | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> RowspaceIntersection | None:
    """Exact intersection test between a dual-ball face and row(X).

    A point s of the face lies in row(X) iff K's = 0 for a basis K of ker(X).
    The face's integer vertices are a level of one face, and go through the
    screen and the integer core the level sweeps run (DesignKernel.level_hits):
    the core decides the face from its kernel images alone, as integer convex
    weights (DesignKernel._weights), and forms a hit's point and z, X'z =
    point, in integers from exact elimination (DesignKernel._hit); Fractions
    enter only here, in the returned intersection. Pass one DesignKernel per
    design to every face of a sweep. The cap is checked first.
    """
    if face.ambient_dim != X.ncols:
        raise ValueError("face and matrix dimension mismatch")
    if face.contains_zero():
        hit = _origin(X)
        return RowspaceIntersection(hit.point, hit.z)
    if kernel is None:
        kernel = DesignKernel(X)
    elif kernel.X is not X and kernel.X != X:
        raise ValueError("kernel belongs to another design")
    _check_vertex_cap(face.vertex_count(), cap)  # once, before any vertex is built
    L, ivs = face._integer_form
    k, p = len(ivs), face.ambient_dim
    one = np.array((k,), dtype=np.intp)
    index = _LevelIndex(np.arange(k), np.array((0, k), dtype=np.intp), one, one, k)
    level = _Level(((),), np.arange(k * p).reshape(k, p), index, [x for v in ivs for x in v])
    hit = next((hit for _, hit in kernel.level_hits(L, level, None)), None)
    return None if hit is None else RowspaceIntersection(hit.point, hit.z)


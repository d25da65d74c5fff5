"""Brute-force references the tests check the package against; the package
itself never reads them.

- enumerate_exposed_faces lists every face of a vertex set by maximizing an
  integer grid of functionals, as a HullFace (an explicit vertex list and
  its codimension), to compare with the model faces the package labels.
- SignedPermutation and signed_permutations act on coordinates, for the
  equivariance tests: every norm here is invariant under them.
- nonneg_lp builds a LinearProgram from any rational entries.
- solve_by_elimination solves M x = b by its own elimination of [M | b],
  for the solve maps to match.
- fraction_certificate is the exact KKT certificate in Fraction
  arithmetic, for the integer one to match.
- level_faces reads each face of a dual-ball level through its index, and
  kernel_images computes K'v one vertex at a time in plain Python, for the
  screen's level sweep and its one numpy product to match; core_hit runs
  the integer core on those images, for any vertex list.
- fraction_rref is Gauss-Jordan elimination in Fractions, and
  exposed_primal_vertices pairs a dual-ball point with every primal-ball
  vertex in Fractions, for the integer elimination, the integer kernel
  and a witness's integer exposed points to match.
- dual_ball_projection projects a response onto the zero-solution region
  by exact active-set enumeration over its halfspaces, for the exact
  residual of a rational fit to match.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from pengeom.exact import (
    RationalMatrix,
    Vector,
    _eliminate,
    clear_denominators,
    dot,
    kernel_basis,
    rank,
    vec,
)
from pengeom.geometry import CapExceeded
from pengeom.lp import LinearProgram
from pengeom.norms import PolytopeNorm, norm_value, primal_ball_vertices
from pengeom.solvers import Certificate

BRUTE_FORCE_FACE_LIMIT = 4


@dataclass(frozen=True)
class SignedPermutation:
    """x -> (signs[j] * x[perm[j]])_j. Orthogonal, preserves every norm here."""

    signs: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation")
        if len(self.signs) != len(self.perm) or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +/-1 and match perm length")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def apply(self, x: Sequence) -> tuple:
        if len(x) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(s * x[p] for s, p in zip(self.signs, self.perm))


def signed_permutations(p: int) -> Iterator[SignedPermutation]:
    for perm in itertools.permutations(range(p)):
        for signs in itertools.product((1, -1), repeat=p):
            yield SignedPermutation(signs, perm)


class HullFace(NamedTuple):
    """conv(hull), a face given by its vertex list, and its codimension."""

    hull: tuple[Vector, ...]
    codim: int


def hull_face(vertices: Sequence[Sequence]) -> HullFace:
    verts = tuple(vec(v) for v in vertices)
    p = len(verts[0])
    if len(verts) == 1:
        dim = 0
    else:
        diffs = RationalMatrix(tuple(
            tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]
        ))
        dim = rank(diffs)
    return HullFace(verts, p - dim)


def enumerate_exposed_faces(vertices: Sequence[Sequence]) -> list[HullFace]:
    """Every non-empty face of conv(vertices), found as argmax vertex sets of
    the integer functional grid {-p..p}^p.

    Valid because each vertex set here is a single orbit of the signed
    permutation group, so the polytope's normal fan is coarsened by the
    signed-permutation fan and every cell of that fan contains a grid point.
    Exact integer arithmetic throughout.
    """
    verts = [vec(v) for v in vertices]
    p = len(verts[0])
    if p > BRUTE_FORCE_FACE_LIMIT:
        raise CapExceeded(f"brute-force face enumeration capped at p={BRUTE_FORCE_FACE_LIMIT}")
    ref = sorted(abs(x) for x in verts[0])
    if any(sorted(abs(x) for x in v) != ref for v in verts):
        raise ValueError("vertex set must be one signed-permutation orbit")
    _, iverts = clear_denominators(verts)
    found: set[frozenset[int]] = set()
    for a in itertools.product(range(-p, p + 1), repeat=p):
        best = None
        arg: list[int] = []
        for idx, v in enumerate(iverts):
            d = sum(ai * vi for ai, vi in zip(a, v))
            if best is None or d > best:
                best = d
                arg = [idx]
            elif d == best:
                arg.append(idx)
        found.add(frozenset(arg))
    faces = [hull_face([verts[i] for i in sorted(s)]) for s in found]
    faces.sort(key=lambda f: (f.codim, f.hull))
    return faces


def nonneg_lp(c, a_eq=(), b_eq=(), a_ub=(), b_ub=()) -> LinearProgram:
    """A LinearProgram from any rational entries."""
    return LinearProgram(
        c=vec(c),
        a_eq=tuple(vec(r) for r in a_eq),
        b_eq=vec(b_eq),
        a_ub=tuple(vec(r) for r in a_ub),
        b_ub=vec(b_ub),
    )


def solve_by_elimination(M: RationalMatrix, b: Sequence) -> Vector | None:
    """One solution of M x = b with the free variables at 0, or None: the
    fraction-free elimination of [M | b], once per right-hand side."""
    bb = vec(b)
    if len(bb) != M.nrows:
        raise ValueError("dimension mismatch")
    A, pivots, d = _eliminate([r + (bi,) for r, bi in zip(M.rows, bb)])
    n = M.ncols
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = Fraction(A[i][n], d)
    return tuple(x)


def fraction_certificate(X: RationalMatrix, y: Sequence, b: Sequence, norm: PolytopeNorm) -> Certificate:
    """kkt_certify at tol 0 in Fraction arithmetic: s = X'(y - Xb), its dual
    norm and the gap |<b, s> - ||b|||, from the norm's exact form."""
    bb = vec(b)
    s = X.rmatvec(tuple(a - c for a, c in zip(vec(y), X.matvec(bb))))
    form = norm._form
    dn = form.dual_value(s)
    gap = abs(dot(bb, s) - form.value(bb))
    return Certificate(s, dn, gap, 0, dn <= 1 and gap <= 0)


def level_faces(level) -> Iterator[tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]]]:
    """(label, vertex count, integer vertices) for each face of a dual-ball
    level, in label order: the count is the face's size in the index, and
    the vertices the rank table rows its ids name, in order, each entry
    looked up one rank at a time."""
    ids, starts, sizes, _, _ = level.index
    for i, label in enumerate(level.labels):
        rows = level.ranks[ids[starts[i]:starts[i + 1]]].tolist()
        yield label, int(sizes[i]), tuple(tuple(level.lookup[r] for r in row) for row in rows)


def kernel_images(kernel, vertices: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """K'v for each integer vertex v, K the Fraction kernel basis of the
    kernel's design times the least common denominator of its entries, one
    dot product at a time."""
    _, basis = clear_denominators(kernel_basis(kernel.X))
    return [tuple(sum(a * b for a, b in zip(k, v)) for k in basis) for v in vertices]


def core_hit(kernel, den: int, vertices: Sequence[Sequence[int]]):
    """The integer core's hit of conv(vertices / den), or None: the face's
    convex weights from its kernel images (DesignKernel._weights), then its
    point and z (DesignKernel._hit), with no screen in front."""
    found = kernel._weights(kernel_images(kernel, vertices), den)
    return None if found is None else kernel._hit(den, vertices, *found)


def dual_ball_projection(X: RationalMatrix, norm: PolytopeNorm, y: Sequence, near=None) -> Vector:
    """The Euclidean projection of y onto D = {u : ||X'u||_* <= 1}, exact,
    by active-set enumeration over the halfspaces <X s, u> <= 1, s over the
    sign points sigma / ||sigma|| of the primal unit sphere.

    u is the projection iff it lies in D and y - u = sum mu_i a_i, mu >= 0,
    over rows a_i tight at u; some linearly independent such set has at
    most rk(X) rows, so subsets are tried smallest first, each solved by
    elimination for the mu that makes its rows tight. near, a float
    approximation of the projection, only orders the search: subsets of the
    rows nearly tight at it come first, and every candidate is checked
    exactly against all rows."""
    yy = vec(y)
    rows = []
    for sigma in itertools.product((1, 0, -1), repeat=X.ncols):
        if any(sigma):
            length = norm_value(norm, sigma)
            a = X.matvec([Fraction(t) / length for t in sigma])
            if any(a) and a not in rows:
                rows.append(a)
    pools = [rows]
    if near is not None:
        pools.insert(0, [a for a in rows if sum(float(t) * v for t, v in zip(a, near)) >= 1 - 1e-4])
    for pool in pools:
        for k in range(min(len(pool), X.nrows) + 1):
            for subset in itertools.combinations(pool, k):
                mu = solve_by_elimination(
                    RationalMatrix.from_rows([[dot(a, c) for c in subset] for a in subset]),
                    [dot(a, yy) - 1 for a in subset]) if k else ()
                if mu is None or any(t < 0 for t in mu):
                    continue
                u = tuple(t - sum((m * a[i] for m, a in zip(mu, subset)), Fraction(0))
                          for i, t in enumerate(yy))
                if all(dot(a, u) <= 1 for a in rows):
                    return u
    raise AssertionError("no point of D meets the projection conditions")


def fraction_rref(rows: Sequence[Sequence]) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """(the reduced row echelon form, the pivot columns) of the rows, by
    Gauss-Jordan elimination in Fractions, pivoting on the first nonzero
    entry in column order."""
    A = [list(r) for r in rows]
    m, n = len(A), len(A[0])
    pivots, r = [], 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = A[r][c]
        A[r] = [x / inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in A), tuple(pivots)


def exposed_primal_vertices(norm: PolytopeNorm, s: Vector) -> tuple[Vector, ...]:
    """The primal_ball_vertices of norm that pair to 1 with the dual-ball
    point s, none when s is interior. Each pairs to at most 1 with every
    dual-ball point, so the centroid of a face F exposes the vertices of the
    primal face dual to F, which span codim F dimensions."""
    return tuple(x for x in primal_ball_vertices(norm) if dot(x, s) == 1)

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
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from pengeom.exact import RationalMatrix, Vector, _eliminate, clear_denominators, dot, rank, vec
from pengeom.geometry import CapExceeded
from pengeom.lp import LinearProgram
from pengeom.norms import PolytopeNorm
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

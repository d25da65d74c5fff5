"""Static SVG diagrams: 2-D dual balls with row-space lines, and the
response-space region whose penalized minimizer is zero. Both read the zero
region D of their (design, norm) from norms._zero_region: the region's
polygon is D's vertex list, and a rank-one row space crosses the dual ball at
X'u for D's two vertices u.

The unlabeled dual ball reads its face table norms.dual_ball_faces: each
proper face is labeled by its sign vector or model. Under tied or zero slope
weights several models share a face, and the figure labels it once, by its
first model. A boundary point is labeled by the smallest face containing it,
read off D's tight sets (norms._tight_face): a vertex's own, or the one an
edge's two ends share.

Everything is drawn from exact rational geometry and formatted with fixed
precision, so a given input always produces byte-identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import RationalMatrix, rank, rat_str
from .geometry import Face
from .norms import (
    L1,
    SUP,
    PolytopeNorm,
    _tight_face,
    _zero_region,
    dual_ball_faces,
    dual_ball_vertices,
)

Vector = tuple[Fraction, ...]


def _norm_caption(norm: PolytopeNorm) -> str:
    if norm.kind == L1:
        return "l1 norm" if norm.scale == 1 else f"l1 norm, scale {rat_str(norm.scale)}"
    if norm.kind == SUP:
        return "sup norm"
    return "sorted-l1 weights (" + ", ".join(rat_str(w) for w in norm.weights) + ")"


def _fmt(v) -> str:
    s = f"{float(v):.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _angle(v: Vector) -> float:
    return math.atan2(float(v[1]), float(v[0]))


def _escape(text: str) -> str:
    # the XML character escapes, & first so the others stay single
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    """Maps math coordinates into a square viewBox, y axis pointing up."""

    def __init__(self, reach: Fraction, size: int):
        self.size = size
        self.scale = size / (2.0 * float(reach))
        self.body: list[str] = []

    def map(self, pt) -> tuple[float, float]:
        return (
            self.size / 2.0 + float(pt[0]) * self.scale,
            self.size / 2.0 - float(pt[1]) * self.scale,
        )

    def line(self, a, b, stroke, width="1", dash=None):
        (x1, y1), (x2, y2) = self.map(a), self.map(b)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra} />'
        )

    def polygon(self, pts, fill, stroke, width="1.5"):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.map, pts))
        self.body.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width}" />'
        )

    def circle(self, center, r, fill):
        x, y = self.map(center)
        self.body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{fill}" />')

    def text(self, anchor_pt, label, size=11, fill="#1a1a1a"):
        x, y = self.map(anchor_pt)
        self.body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" fill="{fill}" '
            f'font-family="sans-serif" text-anchor="middle">{_escape(label)}</text>'
        )

    def caption(self, lines):
        for i, line in enumerate(lines):
            self.body.append(
                f'<text x="8" y="{16 + 14 * i}" font-size="12" fill="#1a1a1a" '
                f'font-family="sans-serif">{_escape(line)}</text>'
            )

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">'
        )
        bg = f'<rect width="{self.size}" height="{self.size}" fill="#ffffff" />'
        return "\n".join([head, bg, *self.body, "</svg>"])


def _axes(canvas: _Canvas, reach: Fraction):
    canvas.line((-reach, 0), (reach, 0), "#cccccc")
    canvas.line((0, -reach), (0, reach), "#cccccc")


def _label_point(face: Face, push: float) -> Vector:
    verts = face.vertices()
    centroid = [sum(col) / len(verts) for col in zip(*verts)]
    return tuple(c * Fraction(push).limit_denominator(100) for c in centroid)


def _highlight(canvas: _Canvas, face: Face, color: str):
    verts = face.vertices()
    if len(verts) == 1:
        canvas.circle(verts[0], 5, color)
    else:
        for a, b in zip(verts, verts[1:]):
            canvas.line(a, b, color, width="4")
    canvas.text(_label_point(face, 1.22), str(face.pattern), fill="#9c3c00")


def dual_ball_figure(norm: PolytopeNorm, X: RationalMatrix | None = None, size: int = 420) -> str:
    """Dual unit ball in the plane; with a design matrix, also its row-space
    line and the faces that line crosses, labeled by sign vector or model."""
    if norm.dim != 2:
        raise ValueError("dual-ball figures need exactly two columns")
    poly = sorted(dual_ball_vertices(norm), key=_angle)
    radius = max(max(abs(c) for c in v) for v in poly)
    reach = radius * Fraction(3, 2)
    canvas = _Canvas(reach, size)
    _axes(canvas, reach)
    canvas.polygon(poly, "#e8eef8", "#33557f")

    caption = [_norm_caption(norm)]
    if X is None:
        seen = {frozenset(poly)}  # the whole ball is not labeled
        for face in dual_ball_faces(norm):
            verts = frozenset(face.vertices())
            if verts not in seen:  # tied models share a face: label it once
                seen.add(verts)
                push = 1.18 if face.codim >= 2 else 1.3
                canvas.text(_label_point(face, push), str(face.pattern))
    else:
        if X.ncols != 2:
            raise ValueError("design matrix must have two columns")
        r = rank(X)
        caption.append(f"rank(X) = {r}")
        if r == 1:
            d = next(row for row in X.rows if any(row))
            stretch = reach / max(abs(c) for c in d)
            canvas.line(
                tuple(-c * stretch for c in d), tuple(c * stretch for c in d),
                "#b03030", width="1.5",
            )
            # the line leaves the ball at X'u for the two vertices u of the
            # zero region, both supported on d's row: the side of d (u > 0) first
            region = _zero_region(X, norm)
            for k in sorted(range(2), key=lambda k: -sum(region.vertices[k])):
                s = tuple(Fraction(x, region.den) for x in region.duals[k])
                canvas.circle(s, 3, "#701010")
                _highlight(canvas, _tight_face(norm, region.tight[k]), "#e8850c")
    canvas.caption(caption)
    return canvas.render()


def response_region_figure(X: RationalMatrix, norm: PolytopeNorm, size: int = 420) -> str:
    """Region of responses whose penalized minimizer is exactly zero, drawn in
    the plane. Needs two rows and full row rank so the region is a polygon,
    the one norms.zero_region lists; its faces are then preimages under X' of
    the dual-ball faces met by row(X), labeled accordingly: a vertex by the
    face its tight set names, an edge by the one its ends' tight sets share."""
    if X.nrows != 2:
        raise ValueError("response-region figures need exactly two rows")
    if norm.dim != X.ncols:
        raise ValueError("norm dimension must match column count")
    if rank(X) != 2:
        raise ValueError("rows must be linearly independent, else the region is unbounded")
    region = _zero_region(X, norm)
    corners = sorted(zip(region.vertices, region.tight), key=lambda c: _angle(c[0]))
    poly = [v for v, _ in corners]
    radius = max(max(abs(c) for c in v) for v in poly)
    reach = radius * Fraction(3, 2)
    canvas = _Canvas(reach, size)
    _axes(canvas, reach)
    canvas.polygon(poly, "#e7f3e7", "#2f6d2f")

    for i, (v, tight) in enumerate(corners):
        canvas.circle(v, 2.5, "#2f6d2f")
        nxt, nxt_tight = corners[(i + 1) % len(corners)]
        hit = _tight_face(norm, tight)
        canvas.text(tuple(c * Fraction(118, 100) for c in v), str(hit.pattern), size=10)
        mid = tuple((a + b) / 2 for a, b in zip(v, nxt))
        hit = _tight_face(norm, tight, nxt_tight)
        canvas.text(tuple(c * Fraction(13, 10) for c in mid), str(hit.pattern), size=10)
    canvas.caption(["responses with zero minimizer", _norm_caption(norm)])
    return canvas.render()

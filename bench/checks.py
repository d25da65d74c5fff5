"""Per-question output checks, made from outside the package.

Each check looks at verdicts and certificates, never at report bytes, so an
exact answer that replaces a float one still passes. A check returns None
when the output is right and a one-line reason when it is not.

Certificates of witnesses are re-run at zero tolerance through
`kkt_certify` / `bp_certificate_holds`; float solutions are re-checked with
an independent NumPy KKT test, and null-set projections against an exact
active-set oracle written here.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

from pengeom import RationalMatrix, bp_certificate_holds, kkt_certify, norm_value, rank, vec
from pengeom.exact import dot, solve_exact

# Criterion 06 of the paper's slope table: the accessible models of DEMO_X.
_TABLE06 = {(1, 0, 0), (1, 1, 1), (0, 0, 1), (-1, 0, 1),
            (2, 0, -1), (2, 1, 1), (1, 1, 2), (-1, 0, 2)}
TABLE06 = frozenset({(0, 0, 0)} | _TABLE06 | {tuple(-t for t in m) for m in _TABLE06})

FLOAT_TOL = 1e-7
# The projection comes from a FISTA solve certified at duality gap <= 1e-9
# (SolverOptions().tol). The dual of that solve is 1-strongly concave in the
# projection, so the certificate bounds its error by sqrt(2 * 1e-9), not by
# the gap itself; certified solves have been seen 1.3e-8 off the exact point.
PROJECTION_TOL = (2 * 1e-9) ** 0.5


def _neg(p):
    return tuple(-t for t in p)


def accessible_reports(q, X, norm, reports):
    patterns = {r.pattern for r in reports}
    acc = {r.pattern for r in reports if r.accessible}
    if q.get("expect") == "table06" and acc != TABLE06:
        return f"accessible models {sorted(acc)} differ from the paper's table"
    if any(_neg(p) not in patterns for p in patterns) or any(_neg(p) not in acc for p in acc):
        return "accessible set is not symmetric under negation"
    zero = tuple([0] * X.ncols)
    if zero not in acc:
        return "the zero pattern must be accessible"
    both = q["route"] == "both"
    for r in reports:
        if both and (r.geometric_hit is None or r.analytic_value is None):
            return f"route verdict missing at {r.pattern}"
        if not r.accessible or r.response_witness is None:
            if r.accessible and r.geometric_hit is not None:
                return f"accessible {r.pattern} without a response witness"
            continue
        point = vec(r.pattern)
        cert = kkt_certify(X, r.response_witness, point, norm)
        if not (cert.passed and cert.tol == 0 and cert.pairing_gap == 0):
            return f"response witness of {r.pattern} fails the exact certificate"
        if r.kind == "sign" and not bp_certificate_holds(X, point, r.dual_witness):
            return f"dual witness of {r.pattern} fails the basis-pursuit certificate"
    return None


def figure(svg: str):
    root = ET.fromstring(svg)
    if not root.tag.endswith("svg") or root.find(".//{*}polygon") is None:
        return "figure has no region polygon"
    return None


def genericity(q, report):
    if len(report.outcomes) != q["trials"]:
        return "wrong number of trial outcomes"
    if not all(report.outcomes):
        # Gaussian designs are unique for all responses with probability one
        return f"non-unique outcome in {report.outcomes}"
    return None


def _float_rank(X) -> int:
    return int(np.linalg.matrix_rank(X.to_float_array()))


def uniqueness(X, norm, report):
    if report.rank != _float_rank(X):
        return "reported rank is wrong"
    w = report.witness
    if report.unique_for_all_y:
        return None if w is None and report.offending_face is None else "unique with a witness"
    if w is None or report.offending_face is None:
        return "non-unique verdict without a witness"
    if report.offending_face.codim <= report.rank:
        return "offending face is not beyond the rank"
    if w.first == w.second:
        return "witness minimizers coincide"
    if X.matvec(w.first) != X.matvec(w.second):
        return "witness minimizers have different fits"
    if norm_value(norm, w.first) != norm_value(norm, w.second):
        return "witness minimizers have different penalties"
    for b in (w.first, w.second):
        cert = kkt_certify(X, w.response, b, norm, tol=0)
        if not (cert.passed and cert.pairing_gap == 0):
            return "witness fails the exact certificate"
    return None


def uniqueness_bp(q, X, report):
    if report.rank != _float_rank(X):
        return "reported rank is wrong"
    if q.get("expect") == "non_unique" and report.unique_for_all_y:
        return "a +-1 2x3 design must be non-unique"
    w = report.witness
    if report.unique_for_all_y:
        return None if w is None else "unique with a witness"
    if w is None or w.first == w.second:
        return "non-unique verdict without two minimizers"
    if X.matvec(w.first) != w.response or X.matvec(w.second) != w.response:
        return "witness minimizers do not fit the response"
    if sum(abs(t) for t in w.first) != sum(abs(t) for t in w.second):
        return "witness minimizers have different l1 norms"
    for b in (w.first, w.second):
        if not bp_certificate_holds(X, b, w.dual_vector, tol=0):
            return "witness fails the basis-pursuit certificate"
    return None


# -- float checks, independent of the package ------------------------------


def _dual_norm(kind, s, scale=1.0, weights=None):
    a = np.abs(np.asarray(s, dtype=float))
    if kind == "l1":
        return float(a.max()) / scale
    if kind == "sup":
        return float(a.sum())
    prefix = np.cumsum(np.sort(a)[::-1])
    return float(np.max(prefix / np.cumsum(weights)))


def _primal_norm(kind, b, scale=1.0, weights=None):
    a = np.abs(np.asarray(b, dtype=float))
    if kind == "l1":
        return scale * float(a.sum())
    if kind == "sup":
        return float(a.max())
    return float(np.sort(a)[::-1] @ weights)


def float_kkt(Xf, y, b, kind, scale=1.0, weights=None):
    """None when b passes the KKT conditions of the penalized problem."""
    b = np.asarray(b, dtype=float)
    s = Xf.T @ (np.asarray(y, dtype=float) - Xf @ b)
    dn = _dual_norm(kind, s, scale, weights)
    gap = abs(float(b @ s) - _primal_norm(kind, b, scale, weights))
    size = 1.0 + float(np.abs(s).max())
    if dn > 1 + FLOAT_TOL or gap > FLOAT_TOL * size:
        return f"KKT violated: dual norm {dn:.3g}, gap {gap:.3g}"
    return None


def classification(q, X, weights, y, c):
    if q["expect"] == "zero":
        if any(c.model) or any(c.solution) or tuple(c.residual) != tuple(y):
            return "response inside the null set must give the zero solution"
        if not (c.certificate.passed and c.certificate.tol == 0):
            return "zero solution lacks an exact certificate"
        return None
    if not any(c.model):
        return "response outside the null set gave the zero model"
    if not c.certificate.passed or c.ambiguous is None:
        return "classification certificate failed"
    w = np.asarray([float(t) for t in weights])
    Xf = X.to_float_array()
    err = float_kkt(Xf, [float(t) for t in y], c.solution, "slope", weights=w)
    if err:
        return err
    fitted = Xf @ np.asarray(c.solution, dtype=float)
    if np.max(np.abs(fitted + np.asarray(c.residual, dtype=float) - [float(t) for t in y])) > 1e-9:
        return "fit plus residual does not give the response back"
    return None


def solution(q, Xf, y, norm_spec, sol):
    if not (sol.converged and sol.certificate.passed):
        return "solve did not certify"
    scale = float(Fraction(norm_spec.get("scale", "1")))
    weights = None
    if norm_spec["kind"] == "slope":
        weights = np.asarray([float(Fraction(t)) for t in norm_spec["weights"]])
    return float_kkt(Xf, y, sol.point, norm_spec["kind"], scale, weights)


def _ball_vertices(kind, p):
    if kind == "l1":
        return [tuple(Fraction(s if j == k else 0) for j in range(p))
                for k in range(p) for s in (1, -1)]
    return [vec(s) for s in itertools.product((1, -1), repeat=p)]


def projection_oracle(X, kind, y):
    """Exact Euclidean projection of y onto {u : dual norm of X'u <= 1}, by
    enumerating active sets of the halfspaces <X v, u> <= 1 over the vertices
    v of the primal unit ball."""
    rows = []
    for v in _ball_vertices(kind, X.ncols):
        a = X.matvec(v)
        if any(a) and a not in rows:
            rows.append(a)
    yy = vec(y)
    for k in range(X.nrows + 1):
        for subset in itertools.combinations(range(len(rows)), k):
            u = yy
            if k:
                gram = RationalMatrix.from_rows(
                    [[dot(rows[i], rows[j]) for j in subset] for i in subset]
                )
                if rank(gram) < k:
                    continue
                mu = solve_exact(gram, [dot(rows[i], yy) - 1 for i in subset])
                if mu is None or any(t < 0 for t in mu):
                    continue
                u = tuple(
                    yi - sum((m * rows[i][d] for m, i in zip(mu, subset)), Fraction(0))
                    for d, yi in enumerate(yy)
                )
            if all(dot(a, u) <= 1 for a in rows):
                return u
    raise AssertionError("no KKT point found")


def projection(X, kind, y, u):
    expected = projection_oracle(X, kind, y)
    if max(abs(float(e) - float(g)) for e, g in zip(expected, u)) > PROJECTION_TOL:
        return "projection differs from the exact oracle"
    return None

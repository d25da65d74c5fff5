"""A deterministic corpus of fit answers, replayed by test_fit_corpus.py.

Every record is {"key": ..., "out": ...}. The keys name the design, the
norm, the response and the operation: classify_response (slope norms),
null_set_projection, and `pengeom solve` / `pengeom decompose` run through
cli.main, whose stdout and exit code are kept.

Rational responses sit inside, on and outside the zero-solution region:
y = c y0 / ||X'y0||_* for c in 1/2, 1 and 3, so at c = 1 X'y lies exactly
on the dual sphere. The norms are l1 at scales 1 and 3/2, sup, and strict,
tied and zero-tail slope. An exact answer is stored verbatim. A float
answer (a float response or design, or a rational fit no polish certifies)
is stored by route, pattern and convergence only, since its doubles depend
on the BLAS build; the float bits are pinned by
test_float_route_is_bit_identical_to_the_reference instead.

Rewrite the committed file with `PYTHONPATH=src python tests/write_fit_corpus.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from pengeom.analysis import UncertifiedSolve, _fit, classify_response, null_set_projection
from pengeom.cli import main
from pengeom.exact import RationalMatrix, rat_str
from pengeom.norms import SLOPE, dual_norm_value, l1_norm, slope_norm, sup_norm

CORPUS = Path(__file__).with_name("fit_corpus.jsonl")

F = Fraction

DESIGNS = {
    "demo": [[8, 5, 8], [10, F(5, 4), -6]],
    "row": [[1, 2, F(-1, 2)]],
    "pair": [[2, 1], [-1, 3]],
    "zero-col": [[1, 0, -2], [3, 0, 1]],
    # the third column is half the first: some pieces are wider than X's
    # rows, and those fits keep their float answer
    "repeat": [[F(4, 3), 0, F(2, 3)], [-1, F(-1, 2), F(-1, 2)]],
    "tall": [[1, -2, 0, 3], [2, 1, -1, 0], [0, F(1, 2), 2, -1]],
    "null": [[0, 0], [0, 0]],
}

BASES = ((3, -1, 2), (1, 2, -3))
SCALES = (F(1, 2), F(1), F(3))


def _norms(p: int) -> dict:
    """name -> (norm, CLI flags) for the five families at dimension p, l1
    at two scales."""
    def slope(w):
        return slope_norm(w), ["--norm", "slope", "--weights", ",".join(map(rat_str, w))]

    return {
        "l1": (l1_norm(p), ["--norm", "l1"]),
        "l1x3/2": (l1_norm(p, scale=F(3, 2)), ["--norm", "l1", "--lambda", "3/2"]),
        "sup": (sup_norm(p), ["--norm", "sup"]),
        "strict": slope([F(2 * (p - i) + 1, 2) for i in range(p)]),
        "tied": slope([F(2), F(2)] + [F(1)] * (p - 2)),
        "zero-tail": slope([F(3, 2)] + [F(1)] * (p - 2) + [F(0)]),
    }


def _responses(X: RationalMatrix, norm) -> list[tuple[str, tuple]]:
    """(label, y) for every base and scale; a base with X'y0 = 0 is taken
    as it is, once."""
    out = []
    for k, base in enumerate(BASES):
        y0 = tuple(F(t) for t in base[:X.nrows])
        gauge = dual_norm_value(norm, X.rmatvec(y0))
        if not gauge:
            out.append((f"y{k}", y0))
            continue
        out += [(f"y{k}x{rat_str(c)}", tuple(t * c / gauge for t in y0)) for c in SCALES]
    return out


def _summary(fit) -> dict:
    sol = fit.solution
    return {"route": sol.route, "pattern": list(fit.pattern), "converged": sol.converged}


def _exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _classify(X, norm, y):
    try:
        cls = classify_response(X, norm.weights.values, y)
    except UncertifiedSolve as exc:
        return {"uncertified": _summary(exc.fit)}
    if _exact(cls.solution):
        return cls.to_json_dict()
    return _summary(_fit(X, y, norm))


def _project(X, norm, y):
    try:
        residual = null_set_projection(X, norm, y)
    except UncertifiedSolve as exc:
        return {"uncertified": _summary(exc.fit)}
    if _exact(residual):
        return [rat_str(t) for t in residual]
    return _summary(_fit(X, y, norm))


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    result = json.loads(text)["result"] if text else {}
    answer = result.get("solution", result.get("projection"))
    if answer is None or all(isinstance(v, str) for v in answer):
        return {"code": code, "stdout": text}
    return {"code": code, "exact": False, "pattern": result.get("pattern", result.get("model"))}


def records():
    """Every record of the corpus, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in DESIGNS.items():
            X = RationalMatrix.from_rows(rows)
            path = os.path.join(tmp, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(rat_str(t) for t in row) + "\n" for row in X.rows))
            Xf = X.to_float_array().tolist()
            for norm_name, (norm, flags) in _norms(X.ncols).items():
                for label, y in _responses(X, norm):
                    key = f"{name}/{norm_name}/{label}"
                    if norm.kind == SLOPE:
                        yield {"key": f"{key}/classify", "out": _classify(X, norm, y)}
                    yield {"key": f"{key}/project", "out": _project(X, norm, y)}
                    argv = ["--matrix", path, *flags, "--response=" + ",".join(map(rat_str, y))]
                    yield {"key": f"{key}/solve", "out": _cli(["solve", *argv])}
                    yield {"key": f"{key}/decompose", "out": _cli(["decompose", *argv])}
                    yf = [float(t) for t in y]
                    yield {"key": f"{key}/float-y", "out": _summary(_fit(X, yf, norm))}
                    yield {"key": f"{key}/float-design", "out": _summary(_fit(Xf, yf, norm))}


def lines():
    """The corpus file's lines, one JSON record each."""
    return [json.dumps(r, sort_keys=True) for r in records()]

"""A deterministic corpus of fit answers and reports, replayed by
test_fit_corpus.py.

Every record is {"key": ..., "out": ...}. The fit keys name the design, the
norm, the response and the operation: classify_response (slope norms),
null_set_projection, and `pengeom solve` / `pengeom decompose` run through
cli.main, whose stdout and exit code are kept. `pengeom solve --mode bp`
runs at each base response, its refusals (a response outside the column
space) kept with their error lines.

Rational responses sit inside, on and outside the zero-solution region:
y = c y0 / ||X'y0||_* for c in 1/2, 1 and 3, so at c = 1 X'y lies exactly
on the dual sphere. The norms are l1 at scales 1 and 3/2, sup, and strict,
tied and zero-tail slope. An exact answer is stored verbatim. A float
answer (a float response or design, or a rational fit no polish certifies)
is stored by route, pattern and convergence only, since its doubles depend
on the BLAS build; the float bits are pinned by
test_float_route_is_bit_identical_to_the_reference instead.

The report keys name the design, the norm and the subcommand: `pengeom
uniqueness` for every norm and for bp, also under PENGEOM_VERTEX_CAP=2 so
that refusals are kept with their error lines; `accessible` for l1 at
scales 1 and 3/2 and for strict slope; `plot`, kept as the SVG's sha256;
and, once, `genericity` (json and csv), `models` and the dual-ball plots. Records ending in
"/json" hold a report's to_json_dict() dumped without sort_keys, which
pins its key order: uniqueness and bp reports, both accessibility tables,
a classification and a genericity report.

The zero-region keys name the design and the norm: norms._zero_region's
vertices, den, duals and tight sets, stored verbatim, so a change to the
double description that moves a vertex, its order or a tight set shows.

The route keys name the design, the table (the l1 sign table, and the model
tables under strict and tied weights) and one route, geometric or analytic:
the table's to_json_dict() dumps with that route alone, so each route's own
reads (the design's kernel, the zero region and its pivots) are pinned
without the other's cross-check.

The cap keys, last in the file, keep what a cap of 2 does to the TABLES
designs: `accessible` under --cap 2 and under PENGEOM_VERTEX_CAP=2, and
`uniqueness --cap 2`, refusals with their error lines.

Rewrite the committed file with `PYTHONPATH=src python tests/write_fit_corpus.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from pengeom.analysis import (
    ANALYTIC,
    GEOMETRIC,
    UncertifiedSolve,
    _fit,
    accessible_sign_vectors,
    accessible_slope_models,
    check_uniqueness,
    check_uniqueness_bp,
    classify_response,
    genericity_experiment,
    null_set_projection,
)
from pengeom.cli import main
from pengeom.exact import RationalMatrix, rat_str
from pengeom.norms import SLOPE, _zero_region, dual_norm_value, l1_norm, slope_norm, sup_norm

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
    # rank 1 in p = 4: the level of codim 2 has faces of four vertices and
    # more, which PENGEOM_VERTEX_CAP=2 refuses
    "wide": [[1, -1, 2, F(1, 2)]],
    # two equal columns: l1 at both scales and bp are non-unique, with a
    # witness on a box face
    "twin": [[1, 1, -1], [2, 2, 1]],
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


def _run(argv: list[str], env: dict | None = None) -> dict:
    """cli.main's exit code, stdout and error lines (not its timing line)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    return {"code": code, "stdout": out.getvalue(), "errors": errors}


def _cli(argv: list[str]):
    run = _run(argv)
    code, text = run["code"], run["stdout"]
    result = json.loads(text)["result"] if text else {}
    answer = result.get("solution", result.get("projection"))
    if answer is None or all(isinstance(v, str) for v in answer):
        return {"code": code, "stdout": text}
    return {"code": code, "exact": False, "pattern": result.get("pattern", result.get("model"))}


def _dump(report) -> str:
    """to_json_dict() without sort_keys, so the record keeps its key order."""
    return json.dumps(report.to_json_dict())


def _dump_table(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports])


def _svg(argv: list[str]) -> dict:
    run = _run(argv)
    run["stdout"] = hashlib.sha256(run["stdout"].encode()).hexdigest()
    return run


VERTEX_CAP = {"PENGEOM_VERTEX_CAP": "2"}

# the designs whose accessibility tables and one classification are kept:
# the demo, a zero column, a repeated column and the zero design
TABLES = ("demo", "zero-col", "repeat", "null")


def _report_records(name: str, X: RationalMatrix, path: str):
    """uniqueness (every norm, bp), accessible, classify and plot records
    for one design."""
    norms = _norms(X.ncols)
    for norm_name, (norm, flags) in [*norms.items(), ("bp", (None, ["--mode", "bp"]))]:
        key = f"{name}/{norm_name}/uniqueness"
        argv = ["uniqueness", "--matrix", path, *flags]
        yield {"key": key, "out": _run(argv)}
        yield {"key": f"{key}/vertex-cap-2", "out": _run(argv, VERTEX_CAP)}
        report = check_uniqueness_bp(X) if norm is None else check_uniqueness(X, norm)
        yield {"key": f"{key}/json", "out": _dump(report)}
    if name in TABLES:
        for norm_name in ("l1", "l1x3/2", "strict"):
            norm, flags = norms[norm_name]
            key = f"{name}/{norm_name}/accessible"
            yield {"key": key, "out": _run(["accessible", "--matrix", path, *flags])}
            if norm.kind == SLOPE:
                reports = accessible_slope_models(X, norm.weights.values)
            else:
                reports = accessible_sign_vectors(X, lam=norm.scale)
            yield {"key": f"{key}/json", "out": _dump_table(reports)}
        # one classification, at the last response under strict weights
        norm = norms["strict"][0]
        label, y = _responses(X, norm)[-1]
        yield {"key": f"{name}/strict/{label}/classify/json",
               "out": _dump(classify_response(X, norm.weights.values, y))}
    for norm_name in ("l1", "strict"):
        flags = norms[norm_name][1]
        yield {"key": f"{name}/{norm_name}/plot",
               "out": _svg(["plot", "--matrix", path, *flags])}


def _zero_region_records(name: str, X: RationalMatrix):
    """_zero_region's vertices, den, duals and tight sets for every norm."""
    for norm_name, (norm, _) in _norms(X.ncols).items():
        region = _zero_region(X, norm)
        yield {"key": f"{name}/{norm_name}/zero-region", "out": {
            "vertices": [[rat_str(t) for t in u] for u in region.vertices],
            "den": region.den,
            "duals": [list(s) for s in region.duals],
            "tight": [[[rat_str(t) for t in v] for v in vs] for vs in region.tight],
        }}


ROUTE_TABLES = ("l1", "strict", "tied")


def _route_records(name: str, X: RationalMatrix):
    """The sign and model tables at route geometric and at route analytic,
    each alone."""
    norms = _norms(X.ncols)
    for norm_name in ROUTE_TABLES:
        norm = norms[norm_name][0]
        for route in (GEOMETRIC, ANALYTIC):
            if norm.kind == SLOPE:
                reports = accessible_slope_models(X, norm.weights.values, route=route)
            else:
                reports = accessible_sign_vectors(X, route=route)
            yield {"key": f"{name}/{norm_name}/accessible/{route}/json", "out": _dump_table(reports)}


def _global_records():
    """genericity, models and dual-ball plot records, which take no design."""
    strict = _norms(3)["strict"]
    for label, norm, flags in [("l1", l1_norm(3), ["--norm", "l1"]),
                               ("strict", *strict),
                               ("bp", None, ["--mode", "bp"])]:
        argv = ["genericity", "--rows", "2", "--cols", "3", "--trials", "4", "--seed", "5", *flags]
        key = f"genericity/{label}"
        yield {"key": key, "out": _run(argv)}
        yield {"key": f"{key}/csv", "out": _run([*argv, "--format", "csv"])}
        yield {"key": f"{key}/vertex-cap-2", "out": _run(argv, VERTEX_CAP)}
        mode = "bp" if norm is None else "penalized"
        report = genericity_experiment(2, 3, norm=norm, mode=mode, trials=4, seed=5)
        yield {"key": f"{key}/json", "out": _dump(report)}
    for p in (1, 3):
        yield {"key": f"models/{p}", "out": _run(["models", "--cols", str(p)])}
    yield {"key": "models/3/cap-2", "out": _run(["models", "--cols", "3", "--cap", "2"])}
    for norm_name, (_, flags) in _norms(2).items():
        yield {"key": f"dual-ball/{norm_name}/plot", "out": _svg(["plot", "--cols", "2", *flags])}


def _cap_records(tmp: str):
    """`accessible` under --cap 2 (the sign and model limits) and under
    PENGEOM_VERTEX_CAP=2 (the first over-cap face), for l1 at scales 1 and
    3/2 and for strict slope, and `uniqueness --cap 2` for every norm and
    for bp, on each TABLES design: the p = 3 designs refuse, the zero
    design (p = 2, no face met) answers."""
    for name in TABLES:
        path = os.path.join(tmp, f"{name}.csv")
        norms = _norms(len(DESIGNS[name][0]))
        for norm_name in ("l1", "l1x3/2", "strict"):
            argv = ["accessible", "--matrix", path, *norms[norm_name][1]]
            key = f"{name}/{norm_name}/accessible"
            yield {"key": f"{key}/cap-2", "out": _run([*argv, "--cap", "2"])}
            yield {"key": f"{key}/vertex-cap-2", "out": _run(argv, VERTEX_CAP)}
        for norm_name, (_, flags) in [*norms.items(), ("bp", (None, ["--mode", "bp"]))]:
            argv = ["uniqueness", "--matrix", path, *flags, "--cap", "2"]
            yield {"key": f"{name}/{norm_name}/uniqueness/cap-2", "out": _run(argv)}


def records():
    """Every record of the corpus, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in DESIGNS.items():
            X = RationalMatrix.from_rows(rows)
            path = os.path.join(tmp, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(rat_str(t) for t in row) + "\n" for row in X.rows))
            yield from _report_records(name, X, path)
            yield from _zero_region_records(name, X)
            yield from _route_records(name, X)
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
            for k, base in enumerate(BASES):
                y = ",".join(map(str, base[:X.nrows]))
                argv = ["solve", "--mode", "bp", "--matrix", path, "--response=" + y]
                yield {"key": f"{name}/bp/y{k}/solve", "out": _run(argv)}
        yield from _global_records()
        yield from _cap_records(tmp)


def lines():
    """The corpus file's lines, one JSON record each."""
    return [json.dumps(r, sort_keys=True) for r in records()]

"""Command-line front end: matrix and weight ingestion, one subcommand per
analysis operation, JSON/CSV reports, and SVG diagrams.

Reports embed their exact inputs as rational strings and are byte-identical
across runs for the same configuration; every input, result and report
reaches JSON through analysis._json, the reports' own encoder. Exit codes: 0 success (or "unique"),
1 negative mathematical verdict (non-unique design, uncertified solve),
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .analysis import (
    UncertifiedSolve,
    _fit,
    _json,
    accessible_sign_vectors,
    accessible_slope_models,
    check_uniqueness,
    check_uniqueness_bp,
    classify_response,
    genericity_experiment,
)
from .exact import _entries, load_matrix, parse_rational, rank, vec
from .geometry import CapExceeded, enumerate_models
from .norms import SLOPE, PolytopeNorm, l1_norm, slope_norm, sup_norm
from .solvers import solve_bp
from .svg import dual_ball_figure, response_region_figure

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

_CAP_ENV = {
    "models": "PENGEOM_MODEL_LIMIT",
    "signs": "PENGEOM_SIGN_LIMIT",
    "vertices": "PENGEOM_VERTEX_CAP",
}


class CliError(Exception):
    """Bad arguments or inputs; maps to exit code 2."""


def _parse_rational_list(text: str | None, option: str) -> tuple[Fraction, ...] | None:
    # read in main, not by argparse, so a bad list is one "error:" line (exit 2)
    if text is None:
        return None
    items = _entries(text.split(","), f"{option} item")
    if not items:
        raise ValueError(f"empty {option} list")
    return tuple(parse_rational(c, f"at {option} item {k}") for k, c in enumerate(items, 1))


def _env_cap(family: str) -> int | None:
    name = _CAP_ENV[family]
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"{name} must be an integer") from None
    if value <= 0:
        raise CliError(f"{name} must be positive")
    return value


def _pattern_limit(args, family: str) -> int | None:
    if args.cap is not None:
        if args.cap <= 0:
            raise CliError("--cap must be positive")
        return args.cap
    return _env_cap(family)


def _analysis_caps(args, norm: PolytopeNorm | None) -> dict:
    """limit and vertex_cap for a sweep over the dual-ball faces of norm
    (None: basis pursuit, whose faces are labeled by sign vectors)."""
    family = "models" if norm is not None and norm.kind == SLOPE else "signs"
    caps = {"limit": _pattern_limit(args, family)}
    vcap = _env_cap("vertices")
    if vcap is not None:
        caps["vertex_cap"] = vcap
    return caps


def _build_norm(args, dim: int) -> PolytopeNorm:
    if args.norm is None:
        raise CliError("--norm is required here")
    if args.norm == "slope":
        if args.weights is None:
            raise CliError("--norm slope needs --weights")
        if args.lam is not None:
            raise CliError("--lambda does not apply to the slope norm")
        if len(args.weights) != dim:
            raise CliError(f"got {len(args.weights)} weights for {dim} columns")
        return slope_norm(args.weights)
    if args.weights is not None:
        raise CliError("--weights only applies to --norm slope")
    if args.norm == "l1":
        return l1_norm(dim, scale=args.lam if args.lam is not None else 1)
    if args.lam is not None:
        raise CliError("--lambda does not apply to the sup norm")
    return sup_norm(dim)


def _require_format(args, allowed: tuple[str, ...]) -> str:
    fmt = args.format if args.format is not None else allowed[0]
    if fmt not in allowed:
        raise CliError(f"--format {fmt} is not available here (use {' or '.join(allowed)})")
    return fmt


def _echo_inputs(args, X=None, norm=None, y=None) -> dict:
    d: dict = {}
    if X is not None:
        d["matrix"] = _json(X.rows)
    if norm is not None:
        d["norm"] = _json(norm)
    if y is not None:
        d["response"] = _json(y)
    if getattr(args, "mode", None) is not None:
        d["mode"] = args.mode
    if args.cap is not None:
        d["cap"] = args.cap
    return d


def _emit_text(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit_text(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_required_matrix(args):
    if args.matrix is None:
        raise CliError("--matrix is required here")
    return load_matrix(args.matrix)


def _require_response(args):
    if args.response is None:
        raise CliError("--response is required here")
    return vec(args.response)


def _forbid_norm_flags(args, why: str) -> None:
    if args.norm is not None or args.weights is not None or args.lam is not None:
        raise CliError(why)


def cmd_uniqueness(args) -> int:
    _require_format(args, ("json",))
    X = _load_required_matrix(args)
    if args.mode == "bp":
        _forbid_norm_flags(args, "bp mode fixes the l1 norm; drop --norm/--weights/--lambda")
        report = check_uniqueness_bp(X, **_analysis_caps(args, None))
        norm = None
    else:
        norm = _build_norm(args, X.ncols)
        report = check_uniqueness(X, norm, **_analysis_caps(args, norm))
    payload = {
        "command": "uniqueness",
        "inputs": _echo_inputs(args, X=X, norm=norm),
        "report": _json(report),
    }
    _emit_json(args, payload)
    return EXIT_OK if report.unique_for_all_y else EXIT_NEGATIVE


def cmd_accessible(args) -> int:
    _require_format(args, ("json",))
    X = _load_required_matrix(args)
    if args.norm == "sup":
        raise CliError("accessibility sweeps exist for the l1 and slope norms")
    norm = _build_norm(args, X.ncols)
    caps = _analysis_caps(args, norm)
    if norm.kind == SLOPE:
        reports = accessible_slope_models(X, args.weights, **caps)
    else:
        reports = accessible_sign_vectors(X, lam=norm.scale, **caps)
    payload = {
        "command": "accessible",
        "inputs": _echo_inputs(args, X=X, norm=norm),
        "accessible_count": sum(1 for r in reports if r.accessible),
        "pattern_count": len(reports),
        "patterns": _json(reports),
    }
    _emit_json(args, payload)
    return EXIT_OK


def _solve_payload(fit) -> dict:
    sol = fit.solution
    return {
        "solution": _json(sol.point),
        "objective": _json(sol.objective),
        "pattern": _json(fit.pattern),
        "residual": _json(fit.residual),
        "route": sol.route,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "certificate": _json(sol.certificate),
    }


def cmd_solve(args) -> int:
    _require_format(args, ("json",))
    X = _load_required_matrix(args)
    y = _require_response(args)
    if len(y) != X.nrows:
        raise CliError(f"response has {len(y)} entries for {X.nrows} rows")
    payload: dict = {"command": "solve"}
    if args.mode == "bp":
        _forbid_norm_flags(args, "bp mode fixes the l1 norm; drop --norm/--weights/--lambda")
        payload["inputs"] = _echo_inputs(args, X=X, y=y)
        sol = solve_bp(X, y)
        payload["result"] = {
            "solution": _json(sol.point),
            "objective": _json(sol.objective),
            "route": sol.route,
            "certificate": _json(sol.certificate),
        }
        _emit_json(args, payload)
        return EXIT_OK
    norm = _build_norm(args, X.ncols)
    payload["inputs"] = _echo_inputs(args, X=X, norm=norm, y=y)
    if norm.kind == SLOPE:
        try:
            cls = classify_response(X, norm.weights.values, y)
        except UncertifiedSolve as exc:  # dump the uncertified iterate
            payload["result"] = _solve_payload(exc.fit)
            _emit_json(args, payload)
            return EXIT_NEGATIVE
        payload["result"] = _json(cls)
        _emit_json(args, payload)
        return EXIT_OK
    fit = _fit(X, y, norm)
    payload["result"] = _solve_payload(fit)
    _emit_json(args, payload)
    return EXIT_OK if fit.solution.converged else EXIT_NEGATIVE


def cmd_decompose(args) -> int:
    _require_format(args, ("json",))
    if args.mode == "bp":
        raise CliError("decompose applies to the penalized problem; drop --mode bp")
    X = _load_required_matrix(args)
    y = _require_response(args)
    if len(y) != X.nrows:
        raise CliError(f"response has {len(y)} entries for {X.nrows} rows")
    norm = _build_norm(args, X.ncols)
    payload: dict = {"command": "decompose", "inputs": _echo_inputs(args, X=X, norm=norm, y=y)}
    fit = _fit(X, y, norm)
    # exact: a rational split certified at tol 0 on one linear piece, the
    # zero piece or that of a pattern read off the FISTA iterate; a float
    # split carries its float certificate
    exact = fit.solution.route == "exact"
    result = {
        "projection": _json(fit.residual),
        "fitted": _json(fit.fitted),
        "pattern": _json(fit.pattern),
        "exact": exact,
    }
    if not exact:
        result["certificate"] = _json(fit.solution.certificate)
    payload["result"] = result
    _emit_json(args, payload)
    return EXIT_OK if fit.solution.converged else EXIT_NEGATIVE


def cmd_models(args) -> int:
    _require_format(args, ("json",))
    if args.cols is not None:
        p = args.cols
    elif args.matrix is not None:
        p = load_matrix(args.matrix).ncols
    else:
        raise CliError("--cols (or --matrix) sets the dimension")
    limit = _pattern_limit(args, "models")
    models = enumerate_models(p) if limit is None else enumerate_models(p, limit=limit)
    payload = {
        "command": "models",
        "dimension": p,
        "count": len(models),
        "models": [list(m) for m in models],
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_genericity(args) -> int:
    fmt = _require_format(args, ("json", "csv"))
    if args.rows is None or args.cols is None:
        raise CliError("--rows and --cols are required here")
    if args.mode == "bp":
        _forbid_norm_flags(args, "bp mode fixes the l1 norm; drop --norm/--weights/--lambda")
        norm = None
        mode = "bp"
    else:
        norm = _build_norm(args, args.cols)
        mode = "penalized"
    report = genericity_experiment(
        args.rows,
        args.cols,
        norm=norm,
        mode=mode,
        trials=args.trials,
        seed=args.seed,
        **_analysis_caps(args, norm),
    )
    if fmt == "csv":
        lines = ["trial,unique"]
        lines += [f"{i},{int(u)}" for i, u in enumerate(report.outcomes)]
        _emit_text(args, "\n".join(lines) + "\n")
        return EXIT_OK
    payload = {
        "command": "genericity",
        "inputs": {"mode": args.mode, "seed": args.seed, "trials": args.trials},
        "report": _json(report),
    }
    if norm is not None:
        payload["inputs"]["norm"] = _json(norm)
    _emit_json(args, payload)
    return EXIT_OK


def cmd_plot(args) -> int:
    _require_format(args, ("svg",))
    X = load_matrix(args.matrix) if args.matrix is not None else None
    if X is not None:
        dim = X.ncols
    elif args.weights is not None:
        dim = len(args.weights)
    elif args.cols is not None:
        dim = args.cols
    else:
        raise CliError("--matrix, --weights, or --cols sets the dimension")
    norm = _build_norm(args, dim)
    if X is not None and X.nrows == 2 and rank(X) == 2:
        figure = response_region_figure(X, norm)
    elif norm.dim == 2:
        figure = dual_ball_figure(norm, X)
    else:
        raise CliError(
            "unsupported dimension: need two columns for a dual-ball figure "
            "or two independent rows for a response-region figure"
        )
    _emit_text(args, figure + "\n")
    return EXIT_OK


_DISPATCH = {
    "uniqueness": cmd_uniqueness,
    "accessible": cmd_accessible,
    "solve": cmd_solve,
    "decompose": cmd_decompose,
    "models": cmd_models,
    "genericity": cmd_genericity,
    "plot": cmd_plot,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--matrix", help="CSV (or JSON) file, one row per matrix row")
    shared.add_argument("--weights", metavar="LIST",
                        help="comma-separated slope weights, e.g. 5.5,3.5,1.5")
    shared.add_argument("--norm", choices=("l1", "sup", "slope"))
    shared.add_argument("--lambda", dest="lam", type=parse_rational, metavar="Q",
                        help="l1 penalty scale (rational or decimal literal)")
    shared.add_argument("--mode", choices=("pen", "bp"), default="pen")
    shared.add_argument("--response", metavar="LIST",
                        help="comma-separated response vector")
    shared.add_argument("--trials", type=int, default=100)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--rows", type=int, help="row count for genericity trials")
    shared.add_argument("--cols", type=int, help="column count / ambient dimension")
    shared.add_argument("--cap", type=int, help="pattern enumeration cap")
    shared.add_argument("--out", help="output path (default: stdout)")
    shared.add_argument("--format", choices=("json", "csv", "svg"))

    parser = argparse.ArgumentParser(
        prog="pengeom",
        description="Exact uniqueness and accessibility analysis for "
        "polyhedral-penalized least squares and basis pursuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("uniqueness", parents=[shared],
                   help="is the minimizer unique for every response")
    sub.add_parser("accessible", parents=[shared],
                   help="which sign vectors or models some response realizes")
    sub.add_parser("solve", parents=[shared], help="solve at one response, certified")
    sub.add_parser("decompose", parents=[shared],
                   help="split a response into fitted part plus projected remainder")
    sub.add_parser("models", parents=[shared], help="enumerate sign/cluster models")
    sub.add_parser("genericity", parents=[shared],
                   help="uniqueness frequency over random Gaussian designs")
    sub.add_parser("plot", parents=[shared], help="SVG diagram (dual ball or response region)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        args.weights = _parse_rational_list(args.weights, "--weights")
        args.response = _parse_rational_list(args.response, "--response")
        return _DISPATCH[args.command](args)
    except (CliError, CapExceeded, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

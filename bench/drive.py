"""Workload process: load the generated inputs, ask their questions, time them.

    python3 bench/drive.py INPUTS --src SRC --seconds S --trace 0|1 [--spans PATH]
    python3 bench/drive.py INPUTS --src SRC --setup-only

Pass k asks every question of `INPUTS/pass-k.json` once, in order, through
pengeom's public API, from this single process and thread (the files are
reused in turn if a run outlasts them). Passes repeat while another one fits
in `--seconds`, at least one. With `--trace 1` each file is asked twice,
once untraced and once traced, and passes come in such pairs. Every time is corrected to the nominal host speed
(see hostspeed.py). Outputs are checked after each pass, outside its
timing, and the result is printed as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

from hostspeed import INTERVAL_S, HostSpeed

SETUP_INTERVAL_S = 0.005


def _import(src: str):
    sys.path.insert(0, src)
    import pengeom

    here = os.path.realpath(os.path.dirname(pengeom.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"pengeom imported from {here}, not from {src}")


def _load_pass(path: str):
    """The questions of one pass, with their matrices parsed by pengeom."""
    from pengeom.exact import parse_matrix_json

    with open(path) as fh:
        manifest = json.load(fh)
    matrices = {name: parse_matrix_json(rows) for name, rows in manifest["matrices"].items()}
    return [Question(q, matrices) for q in manifest["questions"]]


def _norm(pg, spec, p):
    if spec["kind"] == "l1":
        return pg.l1_norm(p, scale=pg.parse_rational(spec.get("scale", "1")))
    if spec["kind"] == "sup":
        return pg.sup_norm(p)
    return pg.slope_norm([pg.parse_rational(w) for w in spec["weights"]])


class Question:
    """One call into a public analysis entry point plus the check of its output."""

    def __init__(self, q, matrices):
        import pengeom as pg
        from pengeom.svg import response_region_figure

        import checks

        self.id = q["id"]
        op = q["op"]
        X = matrices.get(q.get("matrix"))
        rat = pg.parse_rational
        if op == "accessible_slope_models":
            w = [rat(t) for t in q["weights"]]
            norm = pg.slope_norm(w)
            self.run = lambda: pg.accessible_slope_models(X, w, route=q["route"])
            self.check = lambda out: checks.accessible_reports(q, X, norm, out)
        elif op == "accessible_sign_vectors":
            lam = rat(q["lam"])
            norm = pg.l1_norm(X.ncols, scale=lam)
            self.run = lambda: pg.accessible_sign_vectors(X, route=q["route"], lam=lam)
            self.check = lambda out: checks.accessible_reports(q, X, norm, out)
        elif op == "response_region_figure":
            norm = _norm(pg, q["norm"], X.ncols)
            self.run = lambda: response_region_figure(X, norm)
            self.check = checks.figure
        elif op == "genericity_experiment":
            norm = _norm(pg, q["norm"], q["p"]) if q["norm"] else None
            self.run = lambda: pg.genericity_experiment(
                q["n"], q["p"], norm, mode=q["mode"], trials=q["trials"], seed=q["seed"]
            )
            self.check = lambda out: checks.genericity(q, out)
        elif op == "check_uniqueness":
            norm = _norm(pg, q["norm"], X.ncols)
            self.run = lambda: pg.check_uniqueness(X, norm)
            self.check = lambda out: checks.uniqueness(X, norm, out)
        elif op == "check_uniqueness_bp":
            self.run = lambda: pg.check_uniqueness_bp(X)
            self.check = lambda out: checks.uniqueness_bp(q, X, out)
        elif op == "classify_response":
            w = [rat(t) for t in q["weights"]]
            y = tuple(rat(t) for t in q["y"])
            self.run = lambda: pg.classify_response(X, w, y)
            self.check = lambda out: checks.classification(q, X, w, y, out)
        elif op == "null_set_projection":
            norm = _norm(pg, q["norm"], X.ncols)
            y = tuple(rat(t) for t in q["y"])
            self.run = lambda: pg.null_set_projection(X, norm, y)
            self.check = lambda out: checks.projection(X, q["norm"]["kind"], y, out)
        elif op == "solve_penalized":
            Xf = X.to_float_array()
            y = [float(t) for t in q["y"]]
            norm = _norm(pg, q["norm"], X.ncols)
            self.run = lambda: pg.solve_penalized(Xf, y, norm)
            self.check = lambda out: checks.solution(q, Xf, y, q["norm"], out)
        else:
            raise ValueError(f"unknown question op {op!r}")


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs")
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up is short, so it is sampled more densely than the passes
    host = HostSpeed(SETUP_INTERVAL_S if args.setup_only else INTERVAL_S)
    host.start()
    try:
        _import(args.src)
        files = sorted(glob.glob(os.path.join(args.inputs, "pass-*.json")))
        first = _load_pass(files[0])
        if args.setup_only:
            print(json.dumps({"speed": host.factor(0), "sampling_s": host.spent}))
            return 0
        return _run(args, host, files, first)
    finally:
        host.stop()


def _run(args, host, files, first) -> int:
    from tracer import Tracer

    tracer = Tracer(clock=host.now) if args.trace else None
    walls = {False: [], True: []}
    raw = 0.0
    latencies = []
    layers = []
    attempted = failed = 0
    reasons = []
    started = perf_counter()
    loaded = (0, first)
    while True:
        pass_started = perf_counter()
        index = len(walls[False]) + len(walls[True])
        file_index, traced = index, False
        if args.trace:
            # each input file is asked twice, untraced and traced, in
            # alternating order so warm caches favour neither side
            file_index, second = divmod(index, 2)
            traced = second == (file_index % 2 == 0)
        if loaded[0] != file_index:
            loaded = (file_index, _load_pass(files[file_index % len(files)]))
        questions = loaded[1]
        if traced:
            tracer.reset()
            tracer.install()
        results = []
        factors = {}
        for q in questions:
            if traced:
                tracer.question = q.id
            mark = host.mark()
            a = host.now()
            try:
                out = q.run()
            except Exception as exc:  # a refusal (CapExceeded) or error fails the question
                out = exc
            dt = host.now() - a
            factors[q.id] = host.factor(mark)
            results.append((out, dt * factors[q.id]))
            raw += dt
        walls[traced].append(sum(dt for _, dt in results))
        if traced:
            tracer.uninstall()
            layers.append(tracer.layer_metrics(factors))
            if args.spans and len(layers) == 1:
                tracer.dump(args.spans)
        else:
            latencies.extend(dt for _, dt in results)
        if index == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for q, (out, _) in zip(questions, results):
            attempted += 1
            reason = (f"{type(out).__name__}: {out}" if isinstance(out, Exception)
                      else q.check(out))
            if reason:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"question {q.id} of pass {index}: {reason}")
        pass_cost = perf_counter() - pass_started
        done = walls[False] and (not args.trace or len(walls[True]) == len(walls[False]))
        if done and perf_counter() - started + pass_cost > args.seconds:
            break

    latencies.sort()
    out = {
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "passes": {"untraced": walls[False], "traced": walls[True]},
        "raw_s": raw,
        "samples": len(latencies),
        "metrics": {
            "run_s": statistics.median(walls[False]),
            "question_p50_ms": 1e3 * _percentile(latencies, 0.5),
            "question_p90_ms": 1e3 * _percentile(latencies, 0.9),
            "ok_frac": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if args.trace:
        # work counts from the first traced pass, which always follows the
        # same untraced pass, so they repeat exactly; times are medians
        layer = dict(layers[0])
        for name in layer:
            if name.endswith("_s"):
                layer[name] = statistics.median(lm[name] for lm in layers)
        layer["trace.overhead_frac"] = statistics.median(
            t / u for u, t in zip(walls[False], walls[True])
        ) - 1
        out["layers"] = layer
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

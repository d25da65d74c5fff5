"""Measure the benchmark's baseline and write it to bench/BASELINE.json.

    python3 bench/baseline.py [--seeds 1-10] [--seconds 25]

Runs every workload untraced once per seed, workloads interleaved so that
host drift hits them alike; then every workload twice traced on the first
seed and once untraced on the held-out seed. Records, per workload and
metric, the values with their median, quartiles and spread (quartile
distance over median, from `statistics.quantiles(values, n=4)`), the traced
per-layer table with self-time shares by layer group, the tracing overhead,
and whether the work counts repeated exactly between the two traced runs.
Takes about 25 minutes at the default settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402
from tracer import WORK_COUNTS  # noqa: E402

HELD_OUT_SEED = 20261017


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=seconds + 300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{proc.stderr}")
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s",
          file=sys.stderr, flush=True)
    return {k: v["value"] for k, v in res["metrics"].items()}


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def _group(name):
    if name.startswith("lp."):
        return "lp.*"
    if name.startswith("geometry.face_test."):
        return "geometry.face_test.*"
    if name in ("solvers.prox_slope", "solvers.solve_penalized"):
        return "solvers.prox_slope+solve_penalized"
    return name


def _shares(layer):
    selfs = {k[: -len(".self_s")]: v for k, v in layer.items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    groups: dict[str, float] = {}
    for name, v in selfs.items():
        groups[_group(name)] = groups.get(_group(name), 0.0) + v
    return {g: v / total for g, v in sorted(groups.items(), key=lambda kv: -kv[1]) if v}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))

    runs = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            runs[w].append(_run(w, seed, args.seconds, 0))
    traced = {w: [_run(w, seeds[0], args.seconds, 1) for _ in range(2)] for w in WORKLOADS}
    held_out = {w: _run(w, HELD_OUT_SEED, args.seconds, 0) for w in WORKLOADS}

    out = {
        "seeds": seeds,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": args.seconds,
        "python": sys.version.split()[0],
        "end_to_end": {
            w: {k: _summary([r[k] for r in runs[w]]) for k in runs[w][0]} for w in WORKLOADS
        },
        "held_out": held_out,
        "per_layer": {
            w: {
                "seed": seeds[0],
                "work_counts_repeat": all(
                    traced[w][0][k] == traced[w][1][k] for k in WORK_COUNTS
                ),
                "trace_overhead_frac": [t["trace.overhead_frac"] for t in traced[w]],
                "self_time_share": _shares(traced[w][0]),
                "metrics": traced[w][0],
            }
            for w in WORKLOADS
        },
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for w in WORKLOADS:
        for k, s in out["end_to_end"][w].items():
            print(f"{w:18s} {k:16s} median {s['median']:12.4f}  spread {s['spread']:.3f}")
        share = out["per_layer"][w]["self_time_share"]
        top = ", ".join(f"{g} {v:.0%}" for g, v in list(share.items())[:3])
        print(f"{w:18s} counts repeat: {out['per_layer'][w]['work_counts_repeat']}; {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

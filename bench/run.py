"""pengeom benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed
into `bench/_work/` (removed again at the end); the package is imported
from the checkout's `src/`.

--trace 0 measures the end-to-end metrics: set-up time (a fresh interpreter
importing pengeom and loading the inputs, repeated and the median kept),
then one workload process that repeats whole passes over the questions for
about S seconds (see drive.py). --trace 1 runs the workload process with
untraced and traced passes alternating and reports the per-layer metrics
instead; its spans go to `bench/_work/spans-<workload>-<seed>.jsonl`.
Every time is corrected to the nominal host speed (see hostspeed.py).

The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics; a summary goes to stderr. `--tiny` shrinks
every workload to a few cheap questions, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 7
# pass files written per run; a run that outlasts them reuses them in turn
PASS_FILES = 24

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import tracer  # noqa: E402

# (name, unit, better, bound): what a user of the package sees
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("question_p50_ms", "ms", "lower", 0.25),
    ("question_p90_ms", "ms", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in tracer.metric_specs()})


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _child(args, timeout):
    cmd = [sys.executable, os.path.join(HERE, "drive.py")] + args
    # fixed hash seed so work counts repeat; one BLAS thread so the
    # workload runs in a single thread
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "pengeom", "__init__.py")):
        return _fail(f"no pengeom package under {SRC}; run from a full checkout")

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
    try:
        inputs.write(args.workload, args.seed, args.tiny, run_dir, 2 if args.tiny else PASS_FILES)
        metrics = {}
        if not args.trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                probe = _child([run_dir, "--src", SRC, "--setup-only"], timeout=60)
                wall = perf_counter() - t0
                if probe.returncode != 0:
                    sys.stderr.write(probe.stderr)
                    return _fail("set-up probe failed")
                # the probe samples the host speed while it starts up
                seen = json.loads(probe.stdout)
                setups.append((wall - seen["sampling_s"]) * seen["speed"])
            metrics["setup_s"] = statistics.median(setups)
        cmd = [run_dir, "--src", SRC, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", spans]
        proc = _child(cmd, timeout=args.seconds + 150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return _fail(f"workload process exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics.update(result["layers"])
    else:
        metrics.update(result["metrics"])
    passes = result["passes"]
    print(
        f"bench: {args.workload} seed {args.seed}: {len(passes['untraced'])} untraced"
        f" and {len(passes['traced'])} traced passes, {result['samples']} question"
        f" latency samples, {result['failed']} of {result['attempted']} questions failed",
        file=sys.stderr,
    )
    for kind, walls in passes.items():
        if walls:
            print(f"bench: {kind} pass times (s, at nominal host speed): "
                  + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(f"bench: {sum(sum(w) for w in passes.values()):.3f} s at nominal speed took"
          f" {result['raw_s']:.3f} s", file=sys.stderr)
    for reason in result["reasons"]:
        print(f"bench: failed {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

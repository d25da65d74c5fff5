"""Seeded inputs for the benchmark workloads.

`build(workload, seed, index, tiny)` returns the inputs of one pass: the
matrices (as rational or decimal strings) and the ordered list of questions
the pass asks. Every pass of a run draws fresh inputs, so a run's median
pass time averages over several draws instead of riding on one. `write`
puts passes 0..count-1 on disk as `pass-NNN.json`; the workload process
reads only those files. Every draw comes from
`random.Random(f"{workload}:{seed}:{index}")`, so one seed always gives the
same files.

Expectations stored with a question (`expect`) are computed here, without
the package under test: the paper's table, the all-unique outcome of
Gaussian designs, the non-uniqueness of every +-1 2x3 design, and whether a
response lies inside the zero-solution region.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("accessible-table", "genericity-sweep", "witness-hunt", "solve-batch")

# The worked example of the paper's slope table (147 models, 17 accessible).
DEMO_X = (("8", "5", "8"), ("10", "5/4", "-6"))
DEMO_W = ("11/2", "7/2", "3/2")
GENERICITY_W = ("3", "2", "1", "1/2")


def _s(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _strict_weights(rng: random.Random, p: int) -> tuple[str, ...]:
    return tuple(_s(w) for w in sorted(rng.sample(range(1, 2 * p + 1), p), reverse=True))


def _rational_matrix(rng, n, p, top, dens):
    while True:
        rows = [[Fraction(rng.randint(-top, top), rng.randint(1, dens)) for _ in range(p)]
                for _ in range(n)]
        if all(any(x for x in r) for r in rows):
            return rows


def _well_conditioned(rows, limit=25.0) -> bool:
    """cond(X X') <= limit for a two-row X."""
    (a, b) = rows
    g11, g12, g22 = (sum(x * y for x, y in zip(u, v)) for u, v in ((a, a), (a, b), (b, b)))
    trace, det = float(g11 + g22), float(g11 * g22 - g12 * g12)
    if det <= 0:
        return False
    root = max(trace * trace - 4 * det, 0.0) ** 0.5
    return trace + root <= limit * (trace - root)


def _slope_dual(s, w) -> Fraction:
    """max_k (sum of the k largest |s_j|) / (w_1 + ... + w_k)."""
    mags = sorted((abs(x) for x in s), reverse=True)
    best, num, den = Fraction(0), Fraction(0), Fraction(0)
    for m, wk in zip(mags, w):
        num += m
        den += wk
        best = max(best, num / den)
    return best


def _transpose_times(rows, y):
    return [sum(r[j] * yi for r, yi in zip(rows, y)) for j in range(len(rows[0]))]


def _norm_spec(kind, p, rng):
    if kind == "slope":
        return {"kind": "slope", "weights": list(_strict_weights(rng, p))}
    return {"kind": kind}


class _Manifest:
    def __init__(self, workload, seed, index):
        self.data = {"workload": workload, "seed": seed, "pass": index,
                     "matrices": {}, "questions": []}

    def matrix(self, rows) -> str:
        name = f"m{len(self.data['matrices'])}"
        self.data["matrices"][name] = [[_s(x) if not isinstance(x, str) else x for x in r]
                                       for r in rows]
        return name

    def ask(self, op, **fields):
        fields = {"id": len(self.data["questions"]), "op": op, **fields}
        self.data["questions"].append(fields)


def _accessible_table(m, rng, tiny):
    demo = m.matrix(DEMO_X)
    # the geometric route alone keeps the smoke size tiny; the real
    # workload asks for both routes, so the analytic LP route runs too
    route = "geometric" if tiny else "both"
    m.ask("accessible_slope_models", matrix=demo, weights=list(DEMO_W), route=route,
          expect="table06")
    for _ in range(1 if tiny else 5):
        X = m.matrix(_rational_matrix(rng, 3, 5, 9, 4))
        lam = _s(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        m.ask("accessible_sign_vectors", matrix=X, route=route, lam=lam)
    m.ask("response_region_figure", matrix=demo,
          norm={"kind": "slope", "weights": list(DEMO_W)})


def _genericity_sweep(m, rng, tiny):
    for _ in range(1 if tiny else 8):
        m.ask("genericity_experiment", n=2, p=4, mode="penalized",
              norm={"kind": "slope", "weights": list(GENERICITY_W)},
              trials=1 if tiny else 4, seed=rng.randrange(10**6), expect="all_unique")
    for _ in range(1 if tiny else 2):
        m.ask("genericity_experiment", n=2, p=3, mode="bp", norm=None,
              trials=2 if tiny else 40, seed=rng.randrange(10**6), expect="all_unique")


def _witness_hunt(m, rng, tiny):
    # fixed composition over (p, n, norm) so the mix of cheap and costly
    # sweeps is the same for every seed; only the entries are drawn. The
    # 1x4 slope designs are nearly all unique full sweeps at ~30x the cost
    # of the rest, so one per pass keeps the workload on early exits and
    # witnesses and keeps their spread from deciding a run's time.
    strata = [(p, n, kind) for p in (3, 4) for n in range(1, p) for kind in ("l1", "sup", "slope")]
    for (p, n, kind) in strata[:3] if tiny else strata:
        for _ in range(1 if tiny or (p, n, kind) == (4, 1, "slope") else 2):
            X = m.matrix([[Fraction(rng.randint(-2, 2)) for _ in range(p)] for _ in range(n)])
            m.ask("check_uniqueness", matrix=X, norm=_norm_spec(kind, p, rng))
    pm = list(itertools.product(itertools.product((1, -1), repeat=3), repeat=2))
    # two columns of a +-1 2x3 design are always parallel, so basis
    # pursuit is never unique for all responses
    for rows in pm[:4] if tiny else pm:
        m.ask("check_uniqueness_bp", matrix=m.matrix(rows), expect="non_unique")


def _solve_batch(m, rng, tiny):
    # Designs are drawn well conditioned. On near-singular ones the float
    # certificate's absolute tolerance (1e-9) is not reached within FISTA's
    # iteration cap and classify_response raises; that is a known defect of
    # the float route, which exact solves are planned to remove.
    p = 3
    for _ in range(1 if tiny else 12):
        while True:
            rows = _rational_matrix(rng, 2, p, 6, 3)
            if _well_conditioned(rows):
                break
        X = m.matrix(rows)
        w = _strict_weights(rng, p)
        wf = [Fraction(x) for x in w]
        for r in range(2 if tiny else 6):
            inside = r % 2 == 0
            while True:
                y0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2)]
                dual = _slope_dual(_transpose_times(rows, y0), wf)
                if dual:
                    break
            c = Fraction(rng.randint(1, 9), 10) if inside else Fraction(rng.randint(15, 40), 10)
            y = [_s(t * c / dual) for t in y0]
            m.ask("classify_response", matrix=X, weights=list(w), y=y,
                  expect="zero" if inside else "nonzero")
        for kind in ("l1", "sup"):
            y = [_s(Fraction(rng.randint(-12, 12), 2)) for _ in range(2)]
            m.ask("null_set_projection", matrix=X, norm={"kind": kind}, y=y)
    # Dense float solves, one per norm. FISTA's iteration count varies
    # several-fold between random instances, so these come from a fixed
    # stream, the same for every seed and pass; a seeded draw would let a
    # few slow instances decide a run's time.
    dense = random.Random("solve-batch:dense")
    n, p = (5, 8) if tiny else (20, 50)
    for kind in ("l1", "sup", "slope"):
        X = m.matrix([[f"{dense.gauss(0, 1):.12g}" for _ in range(p)] for _ in range(n)])
        y = [f"{3 * dense.gauss(0, 1):.12g}" for _ in range(n)]
        if kind == "l1":
            norm = {"kind": "l1", "scale": "2"}
        elif kind == "sup":
            norm = {"kind": "sup"}
        else:
            norm = {"kind": "slope", "weights": [_s(Fraction(p - j, 10)) for j in range(p)]}
        m.ask("solve_penalized", matrix=X, y=y, norm=norm)


_BUILDERS = {
    "accessible-table": _accessible_table,
    "genericity-sweep": _genericity_sweep,
    "witness-hunt": _witness_hunt,
    "solve-batch": _solve_batch,
}


def build(workload: str, seed: int, index: int = 0, tiny: bool = False) -> dict:
    m = _Manifest(workload, seed, index)
    _BUILDERS[workload](m, random.Random(f"{workload}:{seed}:{index}"), tiny)
    return m.data


def write(workload: str, seed: int, tiny: bool, directory: str, count: int) -> None:
    os.makedirs(directory, exist_ok=True)
    for index in range(count):
        with open(os.path.join(directory, f"pass-{index:03d}.json"), "w") as fh:
            json.dump(build(workload, seed, index, tiny), fh)

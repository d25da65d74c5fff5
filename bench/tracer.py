"""Outside-in tracing of pengeom's public functions.

The package binds its functions at import with `from .x import f`, so a
call from `analysis` to `face_intersects_rowspace` goes through
`analysis`'s own reference. `Tracer.install` therefore replaces the
original function object under every name that holds it, in every loaded
`pengeom` module, and `uninstall` puts the originals back. Nothing under
`src/` is changed.

Each wrapped call records a span (name, start, end, parent, question id).
Spans stay in memory; `layer_metrics` turns them into per-layer calls, self
time (duration minus the time covered by child spans) and, for the analysis
entry points, total time. A few work counts are read from arguments and
results: LP size, face-test path and hit, FISTA iterations, certification.
`exact.dot` is deliberately not wrapped: it runs ~1e5 times per pass and
its cost stays in the self time of the face tests that call it.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) pairs to wrap; the metric name is "<module>.<function>"
# except where a classifier below splits one function into several paths.
WRAPPED = (
    ("exact", "rank"),
    ("exact", "kernel_basis"),
    ("exact", "solve_exact"),
    ("exact", "rowspace_preimage"),
    ("lp", "lp_solve"),
    ("lp", "lp_feasible"),
    ("geometry", "face_intersects_rowspace"),
    ("geometry", "model_to_face"),
    ("geometry", "enumerate_models"),
    ("norms", "norm_value"),
    ("norms", "dual_norm_value"),
    ("norms", "unit_sphere_sign_points"),
    ("solvers", "prox_slope"),
    ("solvers", "solve_penalized"),
    ("solvers", "kkt_certify"),
    ("solvers", "norm_min_subject_to"),
    ("solvers", "bp_certificate_holds"),
    ("analysis", "check_uniqueness"),
    ("analysis", "check_uniqueness_bp"),
    ("analysis", "accessible_slope_models"),
    ("analysis", "accessible_sign_vectors"),
    ("analysis", "classify_response"),
    ("analysis", "null_set_projection"),
    ("analysis", "genericity_experiment"),
    ("svg", "response_region_figure"),
)

FACE_PATHS = ("zero", "vertex", "segment", "lp")


def _face_path(face) -> str:
    if face.contains_zero():
        return "zero"
    k = face.vertex_count()
    return "vertex" if k == 1 else "segment" if k == 2 else "lp"


def _span_names() -> list[str]:
    out = []
    for mod, fn in WRAPPED:
        if fn == "face_intersects_rowspace":
            out += [f"geometry.face_test.{p}" for p in FACE_PATHS]
        elif fn == "kkt_certify":
            out += ["solvers.kkt_certify.exact", "solvers.kkt_certify.float"]
        else:
            out.append(f"{mod}.{fn}")
    return out


SPAN_NAMES = tuple(_span_names())
TOTAL_NAMES = tuple(f"{m}.{f}" for m, f in WRAPPED if m in ("analysis", "svg"))
DERIVED = (
    ("lp.cells", "count", "lower"),
    ("lp.feasible_ratio", "ratio", "higher"),
    ("geometry.face_test.hit_ratio", "ratio", "higher"),
    ("geometry.vertex_cache.hit_ratio", "ratio", "higher"),
    ("solvers.fista_iterations", "count", "lower"),
    ("solvers.certified_ratio", "ratio", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)
# counts that must repeat exactly between two traced runs of one seed
WORK_COUNTS = tuple(f"{n}.calls" for n in SPAN_NAMES) + (
    "lp.cells", "solvers.fista_iterations",
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for n in SPAN_NAMES:
        out.append((f"{n}.calls", "count", "lower"))
        out.append((f"{n}.self_s", "s", "lower"))
        if n in TOTAL_NAMES:
            out.append((f"{n}.total_s", "s", "lower"))
    return out + list(DERIVED)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, question]
        self.question = None
        self._stack: list[int] = []
        self._child: list[float] = []  # child time covered, per open span
        self._self: list[float] = []   # self time, per closed span
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = {}

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, base: str, fn):
        spans, stack, child, selfs = self.spans, self._stack, self._child, self._self
        clock = self.clock

        def wrapper(*args, **kwargs):
            name = base
            if base == "geometry.face_intersects_rowspace":
                name = "geometry.face_test." + _face_path(args[0])
            elif base == "solvers.kkt_certify":
                tol = args[4] if len(args) > 4 else kwargs.get("tol", 0)
                exact = type(args[0]).__name__ == "RationalMatrix" and tol == 0
                name = "solvers.kkt_certify." + ("exact" if exact else "float")
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.question])
            selfs.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += end - start
                span = spans[idx]
                span[1], span[2] = start, end
                selfs[idx] = end - start - covered
            self._count(base, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", base)
        return wrapper

    def _count(self, base, args, result):
        c = self.counts
        if base == "lp.lp_solve":
            lp = args[0]
            c["lp.cells"] = c.get("lp.cells", 0) + (len(lp.a_eq) + len(lp.a_ub)) * len(lp.c)
        elif base == "lp.lp_feasible":
            c["lp.feasible_hits"] = c.get("lp.feasible_hits", 0) + (result is not None)
        elif base == "geometry.face_intersects_rowspace":
            c["face_test.hits"] = c.get("face_test.hits", 0) + (result is not None)
        elif base == "solvers.solve_penalized":
            c["solvers.fista_iterations"] = c.get("solvers.fista_iterations", 0) + result.iterations
            c["solve.certified"] = c.get("solve.certified", 0) + bool(result.converged)

    def reset(self):
        from pengeom import geometry

        self.spans.clear()
        self._self.clear()
        self.counts = {}
        self._cache_before = geometry._materialized_vertices.cache_info()

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patched:
            return
        import pengeom  # noqa: F401  (loads every submodule)

        wrappers = {}
        for mod, fn in WRAPPED:
            original = getattr(sys.modules[f"pengeom.{mod}"], fn)
            wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "pengeom" and not modname.startswith("pengeom."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, factors: dict) -> dict[str, float]:
        """Per-layer numbers for the spans recorded since the last reset; the
        times of each question's spans are scaled by `factors[question]`."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        total = dict.fromkeys(TOTAL_NAMES, 0.0)
        spans = self.spans
        for i, (name, start, end, parent, question) in enumerate(spans):
            f = factors[question]
            calls[name] += 1
            self_s[name] += self._self[i] * f
            if name in total:
                # count only the outermost span of a name, so nesting
                # (genericity -> check_uniqueness) is not counted twice
                p = parent
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    total[name] += (end - start) * f
        out = {}
        for n in SPAN_NAMES:
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.self_s"] = self_s[n]
            if n in total:
                out[f"{n}.total_s"] = total[n]
        c = self.counts
        face_tests = sum(calls[f"geometry.face_test.{p}"] for p in FACE_PATHS)
        out["lp.cells"] = c.get("lp.cells", 0)
        out["lp.feasible_ratio"] = _ratio(c.get("lp.feasible_hits", 0), calls["lp.lp_feasible"])
        out["geometry.face_test.hit_ratio"] = _ratio(c.get("face_test.hits", 0), face_tests)
        from pengeom import geometry

        after = geometry._materialized_vertices.cache_info()
        hits = after.hits - self._cache_before.hits
        out["geometry.vertex_cache.hit_ratio"] = _ratio(
            hits, hits + after.misses - self._cache_before.misses
        )
        out["solvers.fista_iterations"] = c.get("solvers.fista_iterations", 0)
        out["solvers.certified_ratio"] = _ratio(
            c.get("solve.certified", 0), calls["solvers.solve_penalized"]
        )
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, question."""
        import json

        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    # 0 when the layer saw no attempts on this workload
    return num / den if den else 0.0

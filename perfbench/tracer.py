"""Outside-in tracing of ddfem's layers, and the per-layer metrics built from it.

The tracer replaces each probed public function with a timing wrapper in
every ``ddfem`` module namespace that binds it (including names bound by
``from .x import y``), and puts the originals back on ``uninstall``.  Layer
functions record one span each: ``{name, start, end, parent, op_id}`` plus a
few result counts in ``info``.  Per-element functions, called thousands of
times per operation, record a call count and total seconds instead.

A probe whose function no longer exists is listed in ``missing``; the metrics
built from it are left out instead of failing the run.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

ROOT = "cli.main"


def _pcg_name(args, kwargs) -> str:
    # pcg_solve(stiffness, rhs, preconditioner=None, ...): the plain CG
    # comparison is the call without a preconditioner.
    pre = kwargs["preconditioner"] if "preconditioner" in kwargs else (
        args[2] if len(args) > 2 else None)
    return "solver.pcg" if pre is not None else "solver.cg"


def _nnz(result) -> dict:
    return {"nnz": int(result.nnz)}


def _iterations(result) -> dict:
    return {"iterations": int(result.iterations)}


@dataclass(frozen=True)
class Probe:
    module: str                   # ddfem submodule defining the function
    function: str
    name: str                     # span or counter name
    per_element: bool = False
    info: Callable | None = None  # result -> dict of counts kept on the span
    namer: Callable | None = None  # (args, kwargs) -> span name


PROBES = [
    Probe("mesh", "gen_structured_square", "mesh.gen"),
    Probe("mesh", "gen_structured_cube", "mesh.gen"),
    Probe("mesh", "load_mesh", "mesh.load"),
    Probe("mesh", "eval_conductivity", "mesh.conductivity", per_element=True),
    Probe("pipeline", "build_system", "pipeline.build_system"),
    Probe("pipeline", "approximate", "pipeline.approximate"),
    Probe("pipeline", "verify_system", "pipeline.verify_system"),
    Probe("pipeline", "check_diagonal_dominance", "pipeline.dominance_check"),
    Probe("assembly", "element_geometry", "assembly.geometry", per_element=True),
    Probe("assembly", "element_stiffness", "assembly.element_stiffness",
          per_element=True),
    Probe("assembly", "assemble_global", "assembly.global", info=_nnz),
    Probe("assembly", "assemble_load", "assembly.load"),
    Probe("factorization", "build_incidence", "factorization.incidence"),
    Probe("factorization", "build_all_factors", "factorization.factors"),
    Probe("factorization", "spectral_norm", "factorization.spectral_norm",
          per_element=True),
    Probe("factorization", "verify_first_factorization",
          "factorization.identity_check"),
    Probe("factorization", "element_j_singular_values",
          "factorization.singular_values"),
    Probe("quality", "compute_quality", "quality.compute"),
    Probe("dd_approx", "build_dbar", "dd_approx.dbar"),
    Probe("dd_approx", "build_kbar", "dd_approx.kbar", info=_nnz),
    Probe("dd_approx", "build_h_blocks", "dd_approx.h_blocks"),
    Probe("dd_approx", "refactorization_residuals",
          "dd_approx.refactorization_check"),
    Probe("spectral", "chi_report", "spectral.chi_report"),
    Probe("spectral", "condition_pair", "spectral.condition_pair",
          per_element=True),
    Probe("spectral", "global_support_check", "spectral.global_support"),
    Probe("solver", "factor_kbar", "solver.factor"),
    Probe("solver", "pcg_solve", "solver.pcg", info=_iterations, namer=_pcg_name),
]


class Tracer:
    """Spans and per-element counters for operations run in this process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict] = {}   # op_id -> name -> [calls, seconds]
        self.missing: list[str] = []        # probe names with no function
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._op_counts = None
        self._op_id = None

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "ddfem" or name.startswith("ddfem.")]
        found = set()
        for probe in PROBES:
            mod = sys.modules.get(f"ddfem.{probe.module}")
            fn = getattr(mod, probe.function, None)
            if not callable(fn):
                continue
            found.add(probe.name)
            wrapper = self._wrap(fn, probe)
            for target in modules:
                for attr, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, attr, wrapper)
                        self._patches.append((target, attr, fn))
        self.missing = sorted({p.name for p in PROBES} - found)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()

    def run_op(self, op_id: int, call: Callable):
        """Run ``call()`` as operation ``op_id`` under a root span."""
        self._op_id = op_id
        self._op_counts = defaultdict(lambda: [0, 0.0])
        try:
            return self._span(ROOT, call, (), {}, None)
        finally:
            self.counts[op_id] = {k: list(v) for k, v in self._op_counts.items()}
            self._op_counts = None

    def _span(self, name, fn, args, kwargs, info):
        span = {"name": name, "start": None, "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op_id": self._op_id}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            span["info"] = info(result)
        return result

    def _wrap(self, fn, probe: Probe):
        clock = time.perf_counter
        if probe.per_element:
            def counted(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if self._op_counts is not None:
                        entry = self._op_counts[probe.name]
                        entry[0] += 1
                        entry[1] += clock() - start
            return counted

        def spanned(*args, **kwargs):
            if self._op_counts is None:     # called outside a traced operation
                return fn(*args, **kwargs)
            name = probe.namer(args, kwargs) if probe.namer else probe.name
            return self._span(name, fn, args, kwargs, probe.info)
        return spanned


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class OpTrace:
    """Aggregates of one traced operation: span seconds, counts, info sums."""

    def __init__(self, spans: list, counts: dict, op_id: int, m: int):
        self.m = m
        self.seconds = defaultdict(float)
        self.info = defaultdict(float)
        self.counts = counts
        mine = [(i, s) for i, s in enumerate(spans) if s["op_id"] == op_id]
        root = next(i for i, s in mine if s["parent"] is None)
        self.total = spans[root]["end"] - spans[root]["start"]
        covered = 0.0
        for _, s in mine:
            duration = s["end"] - s["start"]
            self.seconds[s["name"]] += duration
            for key, value in s.get("info", {}).items():
                self.info[(s["name"], key)] += value
            if s["parent"] == root:
                covered += duration
        self.self_s = self.total - covered

    def calls(self, name):
        return self.counts.get(name, [0, 0.0])[0]

    def counted_s(self, name):
        return self.counts.get(name, [0, 0.0])[1]


def _span_s(name):
    return name, lambda t: t.seconds[name]


def _counted_s(name):
    return name, lambda t: t.counted_s(name)


def _useful_iterations(t):
    pcg = t.info[("solver.pcg", "iterations")]
    cg = t.info[("solver.cg", "iterations")]
    return pcg / (pcg + cg) if pcg + cg else 1.0


COVERAGE_METRIC = "trace.coverage"
# A traced operation whose spans cover less of its time than this fails.
MIN_COVERAGE = 0.9

# metric -> (probe it needs or None, value of one OpTrace); names and units
# are those of BENCHMARK.json.  Layer times include their child spans; only
# cli.self_s excludes them.
LAYER_METRICS = {
    "mesh.gen_s": _span_s("mesh.gen"),
    "mesh.conductivity_s": _counted_s("mesh.conductivity"),
    "mesh.conductivity_calls": ("mesh.conductivity",
                                lambda t: t.calls("mesh.conductivity")),
    "mesh.load_s": _span_s("mesh.load"),
    "assembly.geometry_s": _counted_s("assembly.geometry"),
    "assembly.geometry_calls": ("assembly.geometry",
                                lambda t: t.calls("assembly.geometry")),
    "assembly.element_stiffness_s": _counted_s("assembly.element_stiffness"),
    "assembly.element_stiffness_calls_per_element": (
        "assembly.element_stiffness",
        lambda t: t.calls("assembly.element_stiffness") / t.m),
    "assembly.global_s": _span_s("assembly.global"),
    "assembly.k_nnz": ("assembly.global", lambda t: t.info[("assembly.global", "nnz")]),
    "assembly.load_s": _span_s("assembly.load"),
    "factorization.incidence_s": _span_s("factorization.incidence"),
    "factorization.factors_s": _span_s("factorization.factors"),
    "factorization.spectral_norm_calls_per_element": (
        "factorization.spectral_norm",
        lambda t: t.calls("factorization.spectral_norm") / t.m),
    "quality.compute_s": _span_s("quality.compute"),
    "dd_approx.dbar_s": _span_s("dd_approx.dbar"),
    "dd_approx.kbar_s": _span_s("dd_approx.kbar"),
    "dd_approx.h_blocks_s": _span_s("dd_approx.h_blocks"),
    "dd_approx.kbar_nnz": ("dd_approx.kbar", lambda t: t.info[("dd_approx.kbar", "nnz")]),
    "spectral.chi_report_s": _span_s("spectral.chi_report"),
    "spectral.condition_pair_calls": ("spectral.condition_pair",
                                      lambda t: t.calls("spectral.condition_pair")),
    "solver.factor_s": _span_s("solver.factor"),
    "solver.pcg_s": _span_s("solver.pcg"),
    "solver.pcg_iterations": ("solver.pcg",
                              lambda t: t.info[("solver.pcg", "iterations")]),
    "solver.cg_s": ("solver.pcg", lambda t: t.seconds["solver.cg"]),
    "solver.cg_iterations": ("solver.pcg", lambda t: t.info[("solver.cg", "iterations")]),
    "solver.useful_iteration_ratio": ("solver.pcg", _useful_iterations),
    "factorization.identity_check_s": _span_s("factorization.identity_check"),
    "dd_approx.refactorization_check_s": _span_s("dd_approx.refactorization_check"),
    "factorization.singular_values_s": _span_s("factorization.singular_values"),
    "pipeline.dominance_check_s": _span_s("pipeline.dominance_check"),
    "spectral.global_support_s": _span_s("spectral.global_support"),
    "pipeline.build_system_s": _span_s("pipeline.build_system"),
    "pipeline.approximate_s": _span_s("pipeline.approximate"),
    "pipeline.verify_system_s": _span_s("pipeline.verify_system"),
    "cli.self_s": (None, lambda t: t.self_s),
    COVERAGE_METRIC: (None, lambda t: 1.0 - t.self_s / t.total),
}
# Computed from the traced and untraced times of a run, not from one OpTrace.
OVERHEAD_METRIC = "trace.overhead_ratio"


def op_layer_metrics(spans: list, counts: dict, op_id: int, m: int,
                     missing: list) -> dict:
    """Every layer metric of one traced operation whose probe exists."""
    t = OpTrace(spans, counts, op_id, m)
    return {name: float(value(t))
            for name, (probe, value) in LAYER_METRICS.items()
            if probe not in missing}


def coverage_problems(layer: dict) -> list:
    """The problem of a traced operation whose spans cover too little of it."""
    coverage = layer[COVERAGE_METRIC]
    if coverage >= MIN_COVERAGE:
        return []
    return [f"spans cover {coverage:.1%} of the traced operation,"
            f" below {MIN_COVERAGE:.0%}"]


def median_metrics(per_op: list) -> dict:
    """Median of each metric over operations (a metric absent anywhere is dropped)."""
    names = set.intersection(*(set(d) for d in per_op)) if per_op else set()
    return {name: statistics.median(d[name] for d in per_op)
            for name in LAYER_METRICS if name in names}

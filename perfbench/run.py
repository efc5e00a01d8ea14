"""ddfem benchmark: run one CLI workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ddfem checkout (the ``src/ddfem`` sources are what is
measured; nothing needs installing).  Inputs are generated from ``--seed``
into a scratch directory inside the checkout, which is removed at the end.

``--trace 0`` (timed run): closed loop, one operation at a time.  Each
operation is one ``ddfem`` subcommand run through ``ddfem.cli.main(argv)`` in
a fresh child process, so no cache carries over from one operation to the
next.  The child times its ``import ddfem.cli`` and its ``main`` call
separately.  Operations start while the next one is expected to end within
``--seconds`` (at least one runs).  End-to-end metrics (names and units
as in ``BENCHMARK.json``):

- ``op_s``: median wall seconds of ``cli.main(argv)`` inside the child,
  excluding interpreter start and import, over the correct operations
  (absent when no operation is correct);
- ``setup_s``: median seconds of a fresh interpreter's ``import ddfem.cli``,
  over the operations plus ``SETUP_SAMPLES`` import-only children (after one
  discarded warm-up child that fills the bytecode cache);
- ``peak_rss_mb``: median over the correct operations of the child's peak
  RSS (MiB).

``fail_ratio`` (failed / attempted) is printed with them and carried by the
``failed`` and ``attempted`` fields of the result line.  An operation fails on
a nonzero exit or an output outside its check (see ``workloads.py``).

``--trace 1`` (traced run): one child runs the same ``main(argv)`` in-process,
alternating untraced and traced operations, and reports the per-layer metrics
of ``tracer.py`` (medians over the traced operations) plus
``trace.overhead_ratio`` = median traced / median untraced time - 1.  A
traced operation whose spans cover less than 90% of its time fails (not
with ``--smoke``).
``--ladder`` (with ``--trace 1 --workload report-square-p2``) also runs one
traced operation at k = 32, 64 and 128 and prints microseconds per element
for each layer and the fitted growth exponent in m.

``--smoke`` uses tiny inputs and a single operation (one untraced and one
traced with ``--trace 1``; the ladder at k = 2, 4 and 8); ``selftest.py``
uses it.

The output ends with a ``record`` line (environment, every raw sample, spans)
and then the result line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 3
# A run must end within 180 s; children get whatever is left of this budget.
RUN_BUDGET_S = 170.0
LADDER_K = (32, 64, 128)
SMOKE_LADDER_K = (2, 4, 8)


class Runner:
    """Starts child processes one at a time inside a scratch directory."""

    def __init__(self, workdir: Path, hard_deadline: float):
        self.workdir = workdir
        self.hard_deadline = hard_deadline
        self.count = 0

    def child(self, spec: dict) -> dict:
        self.count += 1
        spec_path = self.workdir / f"child{self.count}.spec.json"
        stats_path = self.workdir / f"child{self.count}.stats.json"
        log_path = self.workdir / f"child{self.count}.log"
        spec = {"workdir": str(self.workdir), **spec, "src": str(SRC),
                "stats": str(stats_path)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(self.hard_deadline - time.perf_counter(), 1.0)
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                               cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log,
                               stderr=log, timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                return {"error": f"child timed out after {timeout:.0f} s"}
        try:
            return json.loads(stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            return {"error": f"child wrote no stats; log tail: {tail}"}

    def time_left(self) -> float:
        return self.hard_deadline - time.perf_counter()


def child_ops(stats: dict, op: int = 0) -> list:
    """The operations a child ran, each carrying the child's own error, if any."""
    ops = stats.get("ops") or [{"op": op, "traced": False, "rc": None, "op_s": None}]
    for o in ops:
        o["error"] = o.get("error") or stats.get("error")
    return ops


def check_op(name: str, op: dict, prepared, reference, workdir: Path) -> list:
    """Problems with one operation: its exit status, then its output."""
    if op.get("error"):
        return [op["error"].strip().splitlines()[-1]]
    if op["rc"] != 0:
        return [f"exit code {op['rc']}"]
    i = op["op"]
    stdout = (workdir / f"op{i}.stdout").read_text(encoding="utf-8")
    return workloads.check_output(name, stdout, workdir / f"op{i}.sol", reference)


def timed_run(args, prepared, reference, runner: Runner, workdir: Path):
    runner.child({"mode": "import"})   # warm-up: bytecode cache, file cache
    setup, ops, env = [], [], None
    deadline = time.perf_counter() + args.seconds
    for _ in range(SETUP_SAMPLES):
        stats = runner.child({"mode": "import"})
        if "import_s" in stats:
            setup.append(stats["import_s"])
    last = 0.0
    max_ops = 1 if args.smoke else None
    while not ops or (time.perf_counter() + last <= deadline
                      and (max_ops is None or len(ops) < max_ops)
                      and runner.time_left() > 2 * last):
        i = len(ops)
        started = time.perf_counter()
        stats = runner.child({"mode": "op", "op": i, "argv": prepared.argv_for(i),
                              "stdout": str(workdir / f"op{i}.stdout")})
        last = time.perf_counter() - started
        env = env or stats.get("env")
        op = child_ops(stats, i)[0]
        op["import_s"] = stats.get("import_s")
        op["peak_rss_mb"] = stats.get("peak_rss_mb")
        op["problems"] = check_op(args.workload, op, prepared, reference, workdir)
        ops.append(op)
        if op["import_s"] is not None:
            setup.append(op["import_s"])

    good = [o for o in ops if not o["problems"]]
    samples = {
        "op_s": [o["op_s"] for o in good if o["op_s"] is not None],
        "op_cpu_s": [o["cpu_s"] for o in good if o.get("cpu_s") is not None],
        "setup_s": setup,
        "peak_rss_mb": [o["peak_rss_mb"] for o in good if o["peak_rss_mb"] is not None],
    }
    metrics = {name: statistics.median(values)
               for name, values in samples.items() if values}
    return ops, metrics, samples, env, {}


def coverage_problems(args, layer: dict) -> list:
    """Spans must cover most of a traced operation, except at ``--smoke`` sizes,
    where the CLI's fixed costs outweigh the few elements' work."""
    return [] if args.smoke else tracer.coverage_problems(layer)


def traced_run(args, prepared, reference, runner: Runner, workdir: Path):
    stats = runner.child({"mode": "trace", "argv": prepared.argv,
                          "seconds": 0 if args.smoke else args.seconds})
    ops = child_ops(stats)
    extra = {"spans": stats.get("spans", []), "missing": stats.get("missing", [])}
    per_op = []
    for op in ops:
        op["problems"] = check_op(args.workload, op, prepared, reference, workdir)
        if op["traced"] and not op["problems"]:
            layer = tracer.op_layer_metrics(stats["spans"], stats["counts"][str(op["op"])],
                                            op["op"], prepared.m, stats["missing"])
            op["problems"] = coverage_problems(args, layer)
            per_op += [] if op["problems"] else [layer]
    traced = [o for o in ops if o["traced"] and not o["problems"]]
    plain = [o for o in ops if not o["traced"] and not o["problems"]]
    metrics = tracer.median_metrics(per_op)
    samples = {name: [d[name] for d in per_op] for name in metrics}
    if traced and plain:
        overhead = (statistics.median(o["op_s"] for o in traced)
                    / statistics.median(o["op_s"] for o in plain) - 1.0)
        metrics[tracer.OVERHEAD_METRIC] = overhead
    samples["op_s_untraced"] = [o["op_s"] for o in plain]
    samples["op_s_traced"] = [o["op_s"] for o in traced]
    if args.ladder:
        extra["ladder"] = ladder(args, runner, workdir, ops)
    return ops, metrics, samples, stats.get("env"), extra


def ladder(args, runner: Runner, workdir: Path, ops: list) -> dict:
    """One traced report at each k of LADDER_K: us per element and growth in m."""
    rows = {}
    for k in SMOKE_LADDER_K if args.smoke else LADDER_K:
        sub = workdir / f"ladder-k{k}"
        sub.mkdir()
        prepared = workloads.prepare(args.workload, args.seed, sub, k=k)
        stats = runner.child({"mode": "trace", "argv": prepared.argv, "seconds": 0,
                              "traced_only": True, "workdir": str(sub)})
        op = child_ops(stats)[0]
        op["ladder_k"] = k
        op["problems"] = check_op(args.workload, op, prepared,
                                  workloads.load_reference(args.workload, prepared), sub)
        ops.append(op)
        if op["problems"]:
            continue
        layer = tracer.op_layer_metrics(stats["spans"], stats["counts"]["0"], 0,
                                        prepared.m, stats["missing"])
        op["problems"] = coverage_problems(args, layer)
        if op["problems"]:
            continue
        times = {name[:-2]: v for name, v in layer.items() if name.endswith("_s")}
        times["op"] = op["op_s"]
        rows[prepared.m] = times
    sizes = sorted(rows)
    table = {}
    for name in rows[sizes[0]] if sizes else []:
        if not any(rows[m][name] for m in sizes):
            continue
        us = [1e6 * rows[m][name] / m for m in sizes]
        pts = [(math.log(m), math.log(rows[m][name])) for m in sizes if rows[m][name] > 0]
        exponent = None
        if len(pts) == len(sizes) >= 2:
            mx = statistics.fmean(x for x, _ in pts)
            my = statistics.fmean(y for _, y in pts)
            exponent = (sum((x - mx) * (y - my) for x, y in pts)
                        / sum((x - mx) ** 2 for x, _ in pts))
        table[name] = {"us_per_element": us, "exponent": exponent}
    print(f"ladder {args.workload}: m = {sizes}")
    for name, row in table.items():
        us = " ".join(f"{v:10.2f}" for v in row["us_per_element"])
        exp = "-" if row["exponent"] is None else f"{row['exponent']:.2f}"
        print(f"  {name:40s} us/element {us}   exponent {exp}")
    return {"m": sizes, "layers": table}


def commit() -> str | None:
    if not (ROOT / ".git").exists():   # a plain source checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ladder", action="store_true",
                        help="with --trace 1 on report-square-p2: the k=32/64/128 ladder")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single operation (self-test)")
    args = parser.parse_args(argv)
    if args.ladder and (not args.trace or args.workload != "report-square-p2"):
        parser.error("--ladder needs --trace 1 and --workload report-square-p2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddfem" / "cli.py").is_file():
        print(f"perfbench: no ddfem sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    started = time.perf_counter()
    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        prepared = workloads.prepare(args.workload, args.seed, workdir, tiny=args.smoke)
        reference = workloads.load_reference(args.workload, prepared)
        runner = Runner(workdir, started + RUN_BUDGET_S)
        run = traced_run if args.trace else timed_run
        ops, metrics, samples, env, extra = run(args, prepared, reference, runner,
                                                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left alone while another run uses it
            SCRATCH.rmdir()

    failed = sum(1 for o in ops if o["problems"])
    print(f"workload {args.workload} seed {args.seed} m={prepared.m} n={prepared.n}"
          f" {'traced' if args.trace else 'timed'}: {len(ops)} operations"
          f" ({'reference + invariant' if reference else 'invariant'} checks)")
    for op in ops:
        for problem in op["problems"]:
            print(f"  FAIL op {op['op']}: {problem}")
    for name in units:
        if name in metrics:
            count = len(samples.get(name, []))
            print(f"  {name} = {metrics[name]:.6g} {units[name]}"
                  + (f" (median of {count})" if count > 1 else ""))
        else:
            print(f"  {name} absent")
    print(f"  fail_ratio = {failed / len(ops):.6g} ({failed} of {len(ops)})")
    env = {**(env or {}), "commit": commit(), "seed": args.seed}
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "m": prepared.m, "n": prepared.n,
        "reference_checked": reference is not None, "env": env,
        "wall_s": time.perf_counter() - started,
        "samples": samples, "ops": ops, **extra,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

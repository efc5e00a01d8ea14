"""Record the reference outputs that ``workloads.py`` checks shipped seeds against.

    python3 perfbench/make_references.py

Runs each workload once per seed of ``SEEDS`` at its full size, the same way
the timed benchmark runs it (one ``ddfem.cli.main`` call in a fresh child),
checks the seed-independent invariants, and writes ``references.json``.  Run it only on a
commit whose outputs are trusted: every later run is compared with it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import time

import run
import workloads

SEEDS = range(32)


def reference_values(name: str, stdout: str, out) -> dict:
    values = workloads.WORKLOADS[name].extract(stdout, out)
    if name == "report-square-p2":
        return {key: values[key] for key in ["m", "n", *workloads.REPORT_FLOATS]}
    if name == "solve-cube-p2-jump":
        return {"n": values["n"], "norm": math.sqrt(math.fsum(v * v for v in values["x"])),
                "sketch": workloads.sketch(values["x"])}
    return {"kappa": values["kappa"]}


def main() -> int:
    table: dict = {}
    workdir = run.SCRATCH / f"references-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                sub = workdir / f"{name}-{seed}"
                sub.mkdir(parents=True)
                prepared = workloads.prepare(name, seed, sub)
                runner = run.Runner(sub, time.perf_counter() + run.RUN_BUDGET_S)
                stats = runner.child({"mode": "op", "op": 0, "argv": prepared.argv_for(0),
                                      "stdout": str(sub / "op0.stdout")})
                op = run.child_ops(stats)[0]
                problems = run.check_op(name, op, prepared, None, sub)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                stdout = (sub / "op0.stdout").read_text(encoding="utf-8")
                table.setdefault(name, {})[str(seed)] = reference_values(
                    name, stdout, sub / "op0.sol")
                print(f"{name} seed {seed}: {op['op_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH.rmdir()
    # One line per seed keeps the file readable and its diffs small.
    blocks = []
    for name, seeds in sorted(table.items()):
        rows = ",\n".join(f'  "{seed}": {json.dumps(values, sort_keys=True)}'
                           for seed, values in sorted(seeds.items(), key=lambda s: int(s[0])))
        blocks.append(f' "{name}": {{\n{rows}\n }}')
    workloads.REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

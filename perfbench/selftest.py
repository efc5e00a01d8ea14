"""Fast self-test of the benchmark (about 15 s).

    python3 perfbench/selftest.py

Runs every workload at tiny size (``run.py --smoke``: k of 2 to 4, one
operation, one more untraced and traced pair with ``--trace 1``, plus the
size ladder on report-square-p2) and checks that the result line is well
formed, that its metric names and units are exactly those of
``BENCHMARK.json`` (end-to-end without tracing, per-layer with it), that the
ladder covered three sizes and that no operation failed.  It also checks
that ``tracer.py`` computes exactly the per-layer metrics of
``BENCHMARK.json`` and that its coverage gate refuses a traced operation
whose spans cover less than 90% of it (the gate is off at ``--smoke``
sizes).  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def check_result(lines: list, expected: dict) -> list:
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("fail_ratio is not 0: "
                        + "; ".join(line.strip() for line in lines if "FAIL" in line))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted reads {result.get('attempted')!r}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected))}, units "
                        f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
    if any(not isinstance(m.get("value"), (int, float))
           for m in result.get("metrics", {}).values()):
        problems.append("a metric value is not a number")
    return problems


def check_tracer(per_layer: set) -> list:
    problems = []
    computed = set(tracer.LAYER_METRICS) | {tracer.OVERHEAD_METRIC}
    if computed != per_layer:
        problems.append(f"tracer.py and BENCHMARK.json differ: only in tracer.py "
                        f"{sorted(computed - per_layer)}, only in BENCHMARK.json "
                        f"{sorted(per_layer - computed)}")
    low, high = tracer.MIN_COVERAGE - 0.01, tracer.MIN_COVERAGE + 0.01
    if (not tracer.coverage_problems({tracer.COVERAGE_METRIC: low})
            or tracer.coverage_problems({tracer.COVERAGE_METRIC: high})):
        problems.append("the coverage gate does not split at MIN_COVERAGE")
    return problems


def main() -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    expected = {trace: {m["name"]: m["unit"] for m in bench[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = check_tracer(set(expected[1]))
    failures = bool(problems)
    print(f"{'FAIL' if problems else 'PASS'} tracer metrics and coverage gate"
          + "".join(f"\n  {p}" for p in problems))
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            ladder = trace == 1 and workload == "report-square-p2"
            cmd = [*bench["command"], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke",
                   *(["--ladder"] if ladder else [])]
            cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                  timeout=170, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                problems = check_result(lines, expected[trace])
                if ladder:
                    record = json.loads(lines[-2].removeprefix("record "))
                    if len(record.get("ladder", {}).get("m", [])) != 3:
                        problems.append("the ladder did not cover three sizes")
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {workload} --trace {trace}"
                  + (" --ladder" if ladder else "")
                  + "".join(f"\n  {p}" for p in problems))
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

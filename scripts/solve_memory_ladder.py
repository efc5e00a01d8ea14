"""Solve memory ladder: peak RSS and wall time of whole ``ddfem solve`` processes.

Each mesh is solved by a fresh ``python -m ddfem.cli solve`` child (default
conductivity, tolerance and load), so imports, assembly, the Kbar factor and
PCG all count.  The child's own peak resident set comes from ``os.wait4``;
the wall time spans the whole child, interpreter start included.  Prints m,
n, the PCG iterations, wall seconds and peak MiB per mesh.

Usage: python scripts/solve_memory_ladder.py [--cube-k 8 12 16 20]
           [--square-p1-k 256]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ddfem.mesh import gen_structured_cube, gen_structured_square


def solve_process(kind, k, p, out):
    """(wall seconds, peak MiB, stdout) of one ``ddfem solve`` child."""
    argv = [sys.executable, "-m", "ddfem.cli", "solve", "--kind", kind,
            "--k", str(k), "--p", str(p), "--out", str(out)]
    start = time.perf_counter()
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        text, errors = stdout.read(), stderr.read()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{errors}")
    return wall, usage.ru_maxrss / 1024.0, text   # ru_maxrss is in KiB


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cube-k", type=int, nargs="*", default=[8, 12, 16, 20])
    ap.add_argument("--square-p1-k", type=int, nargs="*", default=[256])
    args = ap.parse_args()
    runs = ([("cube", k, 2, gen_structured_cube) for k in args.cube_k]
            + [("square", k, 1, gen_structured_square) for k in args.square_p1_k])
    print(f"{'mesh':18s} {'m':>7s} {'n':>7s} {'PCG':>4s} {'wall s':>7s} {'peak MiB':>9s}")
    with tempfile.TemporaryDirectory() as work:
        for kind, k, p, gen in runs:
            mesh = gen(k, p=p)
            wall, peak, text = solve_process(kind, k, p, Path(work) / "x.txt")
            iterations = text.split()[1]   # "solve: <count> preconditioned ..."
            print(f"{f'{kind} k={k} p={p}':18s} {mesh.n_elements:7d} "
                  f"{mesh.n_free:7d} {iterations:>4s} {wall:7.2f} {peak:9.1f}")


if __name__ == "__main__":
    main()

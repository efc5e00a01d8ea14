"""Kbar factor ladder: SuperLU on the whole of Kbar against the star-leaf elimination.

For each mesh, with the conductivity jumping by 1e6 at x = 1/2, it prints n,
the rows ``KbarFactor`` eliminates exactly ahead of SuperLU, the L+U entries
of a plain ``splu`` of Kbar and of the factor, the factor seconds (best of
``--repeat``), milliseconds per preconditioner solve (median of 20), the PCG
iterations to 1e-10 with each as the preconditioner and the relative
difference of the two PCG solutions.

Usage: python scripts/kbar_factor_ladder.py [--cube-k 8 12 16 20]
           [--square-p1-k 256] [--square-p2-k 64 128] [--repeat 3]
"""

import argparse
import time

import numpy as np

import ddfem
from ddfem.solver import factor_kbar, pcg_solve, spd_splu


class PlainLU:
    """The whole of Kbar given to SuperLU with the factor's settings."""

    def __init__(self, kbar):
        self.lu = spd_splu(kbar.tocsc())
        self.lu_entries = self.lu.L.nnz + self.lu.U.nnz

    def solve(self, rhs, *, refine=True):
        return self.lu.solve(rhs)


def best_time(build, repeat):
    best, out = np.inf, None
    for _ in range(repeat):
        start = time.perf_counter()
        out = build()
        best = min(best, time.perf_counter() - start)
    return out, best


def ms_per_solve(handle, rhs, count=20):
    times = []
    for _ in range(count):
        start = time.perf_counter()
        handle.solve(rhs, refine=False)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def row(label, mesh, repeat):
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    theta = ddfem.ConductivityField.from_per_element(
        np.where(centroids[:, 0] < 0.5, 1.0, 1e6))
    system = ddfem.build_system(mesh, theta)
    kbar = system.kbar
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, theta, 1.0,
                              geometries=system.geometries)
    plain, plain_s = best_time(lambda: PlainLU(kbar), repeat)
    ours, ours_s = best_time(lambda: factor_kbar(kbar), repeat)
    runs = [pcg_solve(system.stiffness, rhs, preconditioner=h, tol=1e-10)
            for h in (plain, ours)]
    diff = np.linalg.norm(runs[1].x - runs[0].x) / np.linalg.norm(runs[0].x)
    return [label, kbar.shape[0], ours.eliminated, plain.lu_entries, ours.lu_entries,
            f"{plain_s:.3f}", f"{ours_s:.3f}", f"{ms_per_solve(plain, rhs):.2f}",
            f"{ms_per_solve(ours, rhs):.2f}", runs[0].iterations,
            runs[1].iterations, f"{diff:.1e}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cube-k", type=int, nargs="*", default=[8, 12, 16, 20])
    ap.add_argument("--square-p1-k", type=int, nargs="*", default=[256])
    ap.add_argument("--square-p2-k", type=int, nargs="*", default=[64, 128])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    meshes = ([(f"cube k={k} p=2", lambda k=k: ddfem.gen_structured_cube(k, p=2))
               for k in args.cube_k]
              + [(f"square k={k} p=1", lambda k=k: ddfem.gen_structured_square(k, p=1))
                 for k in args.square_p1_k]
              + [(f"square k={k} p=2", lambda k=k: ddfem.gen_structured_square(k, p=2))
                 for k in args.square_p2_k])
    head = ["mesh", "n", "eliminated", "L+U splu", "L+U factor", "splu s",
            "factor s", "splu ms/solve", "factor ms/solve", "PCG splu",
            "PCG factor", "x rel diff"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for label, make in meshes:
        cells = row(label, make(), max(args.repeat, 1))
        print("| " + " | ".join(str(c) for c in cells) + " |", flush=True)


if __name__ == "__main__":
    main()

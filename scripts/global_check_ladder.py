"""Global support check ladder: seconds of ``global_support_check`` per mesh.

For each structured mesh (constant conductivity) it builds the system and the
H blocks once, then times ``spectral.global_support_check`` at every size
(best of ``--repeat``) and prints n, the seconds and the three global
numbers it reports: sigma(K, Kbar), sigma(Kbar, K) and kappa(K, Kbar).  Run
it against two checkouts (``PYTHONPATH=<checkout>/src``) to compare them.

Usage: python scripts/global_check_ladder.py [--repeat 3] [--only NAME ...]
"""

import argparse
import time

import ddfem
from ddfem.spectral import global_support_check

MESHES = {
    "square-p1-k64": lambda: ddfem.gen_structured_square(64, p=1),
    "square-p1-k128": lambda: ddfem.gen_structured_square(128, p=1),
    "cube-p1-k16": lambda: ddfem.gen_structured_cube(16, p=1),
    "square-p2-k24": lambda: ddfem.gen_structured_square(24, p=2),
    "cube-p2-k8": lambda: ddfem.gen_structured_cube(8, p=2),
    "cube-p2-k10": lambda: ddfem.gen_structured_cube(10, p=2),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--only", nargs="+", choices=sorted(MESHES),
                        default=list(MESHES))
    args = parser.parse_args()
    print(f"{'mesh':<16} {'n':>6} {'seconds':>9} {'sigma(K,Kbar)':>17} "
          f"{'sigma(Kbar,K)':>17} {'kappa':>17}")
    for name in args.only:
        system = ddfem.build_system(MESHES[name]())
        bundle = ddfem.approximate(system)
        n = system.stiffness.shape[0]
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            report = global_support_check(system.stiffness, system.kbar,
                                          bundle.h_blocks)
            best = min(best, time.perf_counter() - start)
        print(f"{name:<16} {n:>6} {best:>9.4f} {report.sigma_k_kbar:>17.10g} "
              f"{report.sigma_kbar_k:>17.10g} {report.kappa:>17.10g}",
              flush=True)


if __name__ == "__main__":
    main()

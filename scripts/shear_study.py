"""Shear a structured square mesh and watch the approximation quality degrade.

The measured pair condition number tracks the square of the worst
compression-stretch product, so each doubling of the shear roughly
quadruples it.

Usage: python scripts/shear_study.py [--k 4] [--shears 1 2 4 8]
"""

import argparse

import numpy as np

import ddfem


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--shears", type=float, nargs="+",
                    default=[1.0, 2.0, 4.0, 8.0])
    args = ap.parse_args()

    print(f"{'shear':>6} {'kappa1':>10} {'chi1':>12} {'chi2':>12} {'chi3':>12}")
    for s in args.shears:
        mesh = ddfem.transform_mesh(
            ddfem.gen_structured_square(args.k, p=1),
            lambda x, s=s: np.array([x[0] + s * x[1], x[1]]))
        bundle = ddfem.approximate(ddfem.build_system(mesh))
        worst = bundle.h_blocks.max_kappa_element   # chi1 = chi2 per element
        print(f"{s:>6.3g} {bundle.quality.kappa1:>10.4g} "
              f"{worst:>12.6g} {worst:>12.6g} {bundle.quality.chi3:>12.6g}")


if __name__ == "__main__":
    main()

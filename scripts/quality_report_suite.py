"""Print the quadrature scalars and approximation-quality tables for the
built-in structured meshes in all four (dimension, order) configurations.

Usage: python scripts/quality_report_suite.py [--square-k 8] [--cube-k 3]
"""

import argparse

import ddfem


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--square-k", type=int, default=8)
    ap.add_argument("--cube-k", type=int, default=3)
    args = ap.parse_args()

    print("rule scalars")
    print(f"{'d':>2} {'p':>2} {'q':>2} {'sigma_qp':>9} {'tau_qp':>7} {'Mq/mq':>6}")
    for d, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        rule = ddfem.standard_rule(d, p)
        sqp = ddfem.build_sqp(ddfem.make_reference(d, p), rule)
        print(f"{d:>2} {p:>2} {rule.q:>2} {sqp.sigma_qp:>9.2f} "
              f"{sqp.tau_qp:>7.2f} {rule.M_q / rule.m_q:>6.1f}")

    print()
    print("element approximation quality (max over elements)")
    print(f"{'mesh':<16} {'m':>5} {'n':>5} {'kappa1':>8} {'kappa2':>7} "
          f"{'chi1':>10} {'chi2':>10} {'chi3':>10}")
    meshes = [
        (f"square k={args.square_k} p=1",
         ddfem.gen_structured_square(args.square_k, p=1)),
        (f"square k={args.square_k} p=2",
         ddfem.gen_structured_square(args.square_k, p=2)),
        (f"cube k={args.cube_k} p=1", ddfem.gen_structured_cube(args.cube_k, p=1)),
        (f"cube k={args.cube_k} p=2", ddfem.gen_structured_cube(args.cube_k, p=2)),
    ]
    for label, mesh in meshes:
        system = ddfem.build_system(mesh)
        bundle = ddfem.approximate(system)
        q = bundle.quality
        worst = bundle.h_blocks.max_kappa_element   # chi1 = chi2 per element
        print(f"{label:<16} {mesh.n_elements:>5} {system.stiffness.shape[0]:>5} "
              f"{q.kappa1:>8.3g} {q.kappa2:>7.3g} {worst:>10.6g} "
              f"{worst:>10.6g} {bundle.quality.chi3:>10.6g}")


if __name__ == "__main__":
    main()

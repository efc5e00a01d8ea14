"""Conjugate gradient with and without the graph Laplacian preconditioner.

Runs the structured square with a large per-element conductivity jump aligned
to a mesh line.  The plain iteration suffers with the jump; the preconditioned
one does not, staying inside the classic square-root-of-condition bound.

Usage: python scripts/solver_demo.py [--k 16] [--jump 1e6] [--tol 1e-10]
"""

import argparse

import numpy as np

import ddfem
from ddfem.solver import cg_iteration_bound, factor_kbar, pcg_solve
from ddfem.spectral import condition_pair


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--jump", type=float, default=1e6)
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()

    mesh = ddfem.gen_structured_square(args.k, p=1)
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    theta = ddfem.ConductivityField.from_per_element(
        np.where(centroids[:, 0] < 0.5, 1.0, args.jump))

    system = ddfem.build_system(mesh, theta)
    kbar = system.kbar
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, theta, 1.0,
                              geometries=system.geometries)

    handle = factor_kbar(kbar)
    pre = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=args.tol)
    plain = pcg_solve(system.stiffness, rhs, preconditioner=None, tol=args.tol)

    n = system.stiffness.shape[0]
    print(f"mesh: {mesh.n_elements} elements, n = {n}, jump = {args.jump:g}")
    print(f"preconditioned:   {pre.iterations:4d} iterations, "
          f"residual {pre.relative_residual:.2e}")
    print(f"unpreconditioned: {plain.iterations:4d} iterations, "
          f"residual {plain.relative_residual:.2e}")
    if n <= 600:
        pencil = condition_pair(system.stiffness.toarray(), kbar.toarray())
        print(f"pair condition number {pencil.kappa:.4g}, iteration bound "
              f"{cg_iteration_bound(pencil.kappa, args.tol)}")
    if pre.estimated_condition is not None:
        print(f"condition estimate from the iteration itself: "
              f"{pre.estimated_condition:.4g}")


if __name__ == "__main__":
    main()

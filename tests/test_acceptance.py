"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria run on the built-in structured meshes (square k=8, cube k=3, both
orders, constant and per-element jumping conductivity) plus the k=16 square
for the solver and conductivity-independence checks.
"""

import time

import numpy as np
import pytest

import ddfem
from ddfem.factorization import element_j_singular_values
from ddfem.pipeline import check_diagonal_dominance
from ddfem.solver import cg_iteration_bound, factor_kbar, pcg_solve
from ddfem.spectral import condition_pair, global_support_check

from conftest import jump_conductivity

CONFIG_TABLE = [(2, 1), (2, 2), (3, 1), (3, 2)]


def _case_meshes():
    return [
        ("square k=8 p=1", ddfem.gen_structured_square(8, p=1)),
        ("square k=8 p=2", ddfem.gen_structured_square(8, p=2)),
        ("cube k=3 p=1", ddfem.gen_structured_cube(3, p=1)),
        ("cube k=3 p=2", ddfem.gen_structured_cube(3, p=2)),
    ]


@pytest.fixture(scope="module")
def acceptance_cases():
    """(label, system, bundle) for every mesh x conductivity combination."""
    cases = []
    for label, mesh in _case_meshes():
        for theta_label, theta in (("theta=1", None),
                                   ("theta jump", jump_conductivity(mesh))):
            system = ddfem.build_system(mesh, theta)
            bundle = ddfem.approximate(system)
            cases.append((f"{label} {theta_label}", system, bundle))
    return cases


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_quadrature_scalars():
    """Gradient sample extremes match the published two-decimal values."""
    expected = {(2, 1): (1.00, 1.00), (2, 2): (5.26, 0.83),
                (3, 1): (1.00, 1.00), (3, 2): (6.47, 0.63)}
    start = time.perf_counter()
    seen = {}
    for d, p in CONFIG_TABLE:
        sqp = ddfem.build_sqp(ddfem.make_reference(d, p), ddfem.standard_rule(d, p))
        seen[(d, p)] = (round(sqp.sigma_qp, 2), round(sqp.tau_qp, 2))
        want = expected[(d, p)]
        assert abs(seen[(d, p)][0] - want[0]) <= 0.005
        assert abs(seen[(d, p)][1] - want[1]) <= 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"sigma/tau {seen}, {elapsed * 1e3:.1f} ms")


def test_criterion_2_exactness_audit():
    """Every built-in rule integrates its required degree to 1e-12."""
    worst = 0.0
    for d, p in CONFIG_TABLE:
        report = ddfem.verify_exactness(ddfem.standard_rule(d, p),
                                        max(2 * p - 2, 0))
        assert report.passed
        assert report.max_error <= 1e-12
        worst = max(worst, report.max_error)
    _report(2, f"max monomial error {worst:.2e}")


def test_criterion_3_factorization_identity(acceptance_cases):
    """Element stiffness equals the factored product on every case."""
    start = time.perf_counter()
    worst = 0.0
    for label, system, _ in acceptance_cases:
        report = ddfem.verify_first_factorization(
            system.mesh, system.factors, system.incidence,
            system.element_stiffness, system.stiffness)
        assert report.max_element_residual <= 1e-10, label
        assert report.global_residual <= 1e-10, label
        worst = max(worst, report.max_element_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"worst residual {worst:.2e} in {elapsed:.2f} s")


def test_criterion_4_bound_chain(acceptance_cases):
    """chi1 <= chi2 <= chi3 element-wise, plus middle-factor singular bounds."""
    for label, system, bundle in acceptance_cases:
        chi2 = bundle.h_blocks.kappa_per_element   # chi1 = chi2 per element
        assert np.all(chi2 <= bundle.quality.chi3 * (1 + 1e-8)), label
        assert np.all(chi2 <= bundle.quality.chi3_element
                      * (1 + 1e-8)), label
        sv = element_j_singular_values(system.factors)
        ab = bundle.quality.alpha * bundle.quality.beta
        assert np.all(sv[:, 0] <= system.sqp.sigma_qp + 1e-10), label
        assert np.all(sv[:, 1] >= system.sqp.tau_qp / ab - 1e-10), label
    _report(4, f"{len(acceptance_cases)} cases, chain and singular bounds hold")


def test_criterion_5_diagonal_dominance(acceptance_cases):
    """Nonpositive off-diagonals, dominant rows, SPD under full Dirichlet."""
    for label, system, _ in acceptance_cases:
        ok, detail = check_diagonal_dominance(system.kbar)
        assert ok, f"{label}: {detail}"
        n = system.kbar.shape[0]
        assert 0 < n <= 500, label
        smallest = np.linalg.eigvalsh(system.kbar.toarray())[0]
        assert smallest > 0, label
    _report(5, "dominance and positive definiteness on all cases")


def test_criterion_6_global_support(acceptance_cases):
    """Global pair condition below the element middle-block maximum."""
    checked = 0
    for label, system, bundle in acceptance_cases:
        if not 0 < system.stiffness.shape[0] <= 500:
            continue
        report = global_support_check(system.stiffness, system.kbar,
                                      bundle.h_blocks)
        assert report.sigma_k_kbar <= (bundle.h_blocks.sigma_max.max() ** 2
                                       * (1 + 1e-8)), label
        assert report.kappa <= (bundle.h_blocks.max_kappa_element
                                * (1 + 1e-8)), label
        checked += 1
    assert checked == len(acceptance_cases)
    _report(6, f"verified on {checked} cases")


def test_criterion_6_global_support_at_realistic_size():
    """kappa(K, Kbar) <= kappa(H) <= chi3 on a 3D jump and a sheared 2D mesh."""
    cube = ddfem.gen_structured_cube(10, p=2)
    sheared = ddfem.transform_mesh(ddfem.gen_structured_square(40, p=1),
                                   lambda x: np.array([x[0] + 4.0 * x[1], x[1]]))
    sizes = []
    for label, mesh, theta, n in (("cube k=10 p=2 theta jump", cube,
                                   jump_conductivity(cube), 6859),
                                  ("sheared square k=40 p=1", sheared, None, 1521)):
        system = ddfem.build_system(mesh, theta)
        assert system.stiffness.shape[0] == n, label
        bundle = ddfem.approximate(system)
        report = global_support_check(system.stiffness, system.kbar,
                                      bundle.h_blocks)
        assert report.splitting_ok, label
        kappa_h = bundle.h_blocks.kappa_global
        assert report.kappa <= kappa_h * (1 + 1e-8), label
        assert kappa_h <= bundle.quality.chi3 * (1 + 1e-8), label
        sizes.append(f"n={n} kappa {report.kappa:.4g} <= kappa(H) "
                     f"{kappa_h:.4g} <= chi3 {bundle.quality.chi3:.4g}")
    _report(6, "; ".join(sizes))


def test_criterion_7_linear_structural_facts():
    """Identity sample matrices, exact kappa2 = 1, rescaling invariance."""
    for d in (2, 3):
        sqp = ddfem.build_sqp(ddfem.make_reference(d, 1), ddfem.standard_rule(d, 1))
        np.testing.assert_array_equal(sqp.entries, np.eye(d))

    base_mesh = ddfem.gen_structured_square(8, p=1)
    base = ddfem.approximate(ddfem.build_system(base_mesh))
    assert base.quality.kappa2 == 1.0

    for c in (1e-3, 1.0, 1e3):
        mesh = ddfem.transform_mesh(ddfem.gen_structured_square(8, p=1),
                                    lambda x: c * x)
        bundle = ddfem.approximate(ddfem.build_system(mesh))
        assert bundle.quality.kappa1 == pytest.approx(base.quality.kappa1,
                                                      rel=1e-10)
        np.testing.assert_allclose(bundle.h_blocks.kappa_per_element,
                                   base.h_blocks.kappa_per_element, rtol=1e-10)
        assert bundle.quality.chi3 == pytest.approx(base.quality.chi3, rel=1e-10)
    _report(7, "identity samples, kappa2 = 1 exactly, scale invariance 1e-3..1e3")


def test_criterion_8_conductivity_independence():
    """An aligned 1e6 jump leaves the bound alone while kappa(K) explodes."""
    mesh = ddfem.gen_structured_square(16, p=1)
    plain = ddfem.approximate(ddfem.build_system(mesh))
    jump_sys = ddfem.build_system(mesh, jump_conductivity(mesh))
    jump = ddfem.approximate(jump_sys)

    assert jump.quality.theta_hat == 1.0
    assert jump.quality.chi3 == pytest.approx(plain.quality.chi3, rel=1e-10)

    ew_jump = np.linalg.eigvalsh(jump_sys.stiffness.toarray())
    ew_plain = np.linalg.eigvalsh(
        ddfem.build_system(mesh).stiffness.toarray())
    growth = (ew_jump[-1] / ew_jump[0]) / (ew_plain[-1] / ew_plain[0])
    assert growth >= 1e4
    _report(8, f"theta_hat = 1, chi3 unchanged, kappa(K) grew {growth:.1e}x")


def test_criterion_9_solver():
    """Preconditioned CG under the 1e6 jump: converges, exact, within bound."""
    tol = 1e-10
    mesh = ddfem.gen_structured_square(16, p=1)
    theta = jump_conductivity(mesh)
    system = ddfem.build_system(mesh, theta)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, theta, 1.0,
                              geometries=system.geometries)
    result = pcg_solve(system.stiffness, rhs,
                       preconditioner=factor_kbar(system.kbar), tol=tol)
    assert result.converged
    assert result.relative_residual <= tol

    dense = np.linalg.solve(system.stiffness.toarray(), rhs)
    assert np.abs(result.x - dense).max() <= 1e-8

    pencil = condition_pair(system.stiffness.toarray(), system.kbar.toarray())
    bound = cg_iteration_bound(pencil.kappa, tol)
    assert result.iterations <= bound
    _report(9, f"{result.iterations} iterations <= bound {bound}, "
               f"max error {np.abs(result.x - dense).max():.1e}")


def test_criterion_10_shear_study():
    """Shearing the square drives chi1 up monotonically (published-table stand-in)."""
    chi1 = []
    kappa1 = []
    for s in (1.0, 2.0, 4.0, 8.0):
        mesh = ddfem.transform_mesh(
            ddfem.gen_structured_square(4, p=1),
            lambda x, s=s: np.array([x[0] + s * x[1], x[1]]))
        bundle = ddfem.approximate(ddfem.build_system(mesh))
        chi1.append(bundle.h_blocks.max_kappa_element)
        kappa1.append(bundle.quality.kappa1)
    assert all(a < b for a, b in zip(chi1, chi1[1:]))
    # growth consistent with the squared shape measure: chi1 never exceeds
    # kappa1^2 (the analytic bound here) and keeps pace with it
    for c, k in zip(chi1, kappa1):
        assert c <= k ** 2 * (1 + 1e-8)
    assert chi1[-1] / chi1[0] >= 0.5 * (kappa1[-1] / kappa1[0]) ** 2
    _report(10, "chi1 over shears 1,2,4,8: "
                + ", ".join(f"{v:.4g}" for v in chi1))

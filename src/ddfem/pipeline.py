"""End-to-end wiring: mesh + conductivity -> stiffness, factors, approximation.

This is the layer the command line and the experiment scripts drive.  It
builds everything once, in a fixed order, and exposes a verification battery
whose check list mirrors the mathematical guarantees of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import assembly, dd_approx, factorization, quality, spectral
from .assembly import SparseSymmetricMatrix
from .errors import ConsistencyError, EigensolverError, InfiniteSupportError
from .mesh import ConductivityField, Mesh, conductivity_from_mesh
from .quadrature import QuadratureRule, standard_rule, verify_exactness
from .reference_element import ReferenceElement, SqpMatrix, build_sqp, make_reference


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Everything derived from one (mesh, conductivity, rule) triple.

    The geometry, the element matrices and ``alpha`` (which ``Kbar`` needs)
    are computed up front.  The reduced ``stiffness`` K, the star
    ``incidence`` and the full ``factors`` (beta, the weights and the j
    stack) are built on first use: a solve never builds the factors, and a
    report builds neither K nor the incidence.
    """

    mesh: Mesh
    ref: ReferenceElement
    rule: QuadratureRule
    theta: ConductivityField
    sqp: SqpMatrix
    geometries: assembly.ElementGeometry
    element_stiffness: np.ndarray    # (m, l, l) dense element matrices
    alpha: np.ndarray                # (m,) max compression per element

    @cached_property
    def stiffness(self) -> SparseSymmetricMatrix:
        """The reduced n x n stiffness matrix K."""
        return assembly.assemble_global(self.mesh, self.element_stiffness)

    @cached_property
    def incidence(self) -> factorization.IncidenceMatrix:
        return factorization.build_incidence(self.mesh)

    @cached_property
    def factors(self) -> factorization.ElementFactors:
        return factorization.build_all_factors(self.geometries, self.alpha,
                                               self.sqp, self.rule)


def build_system(mesh: Mesh, theta: ConductivityField | None = None,
                 rule: QuadratureRule | None = None) -> AssembledSystem:
    """Geometry, element matrices and alpha of a mesh; K and the rest on first use."""
    if theta is None:
        theta = conductivity_from_mesh(mesh)
    if rule is None:
        rule = standard_rule(mesh.d, mesh.p)
    ref = make_reference(mesh.d, mesh.p)
    sqp = build_sqp(ref, rule)
    tables = assembly.reference_tables(ref, rule)
    geometries = assembly.element_geometry(mesh, ref, rule, theta, tables=tables)
    element_k = assembly.element_stiffness(geometries, ref, rule, tables=tables)
    return AssembledSystem(
        mesh=mesh, ref=ref, rule=rule, theta=theta, sqp=sqp,
        geometries=geometries, element_stiffness=element_k,
        alpha=factorization.element_alpha(geometries),
    )


@dataclass(frozen=True, eq=False)
class ApproximationBundle:
    """Approximation, quality scalars and the chi chain for a system."""

    quality: quality.QualityReport
    dd: dd_approx.DDApproximation
    chi: spectral.ChiReport


def _quality_and_dd(system: AssembledSystem):
    qual = quality.compute_quality(system.geometries, system.factors,
                                   system.rule, system.sqp)
    return qual, dd_approx.build_dd_approximation(
        lambda: system.incidence, system.factors, system.geometries,
        system.rule, qual)


def kbar_for_solve(system: AssembledSystem) -> SparseSymmetricMatrix:
    """Kbar alone, from the Dbar scalars and the star incidence.

    This is the matrix ``approximate(system).dd.kbar`` builds on first use,
    without the quality report, H blocks or chi chain that the solver never
    reads.
    """
    dbar = dd_approx.build_dbar(system.alpha, system.geometries, system.rule)
    return dd_approx.build_kbar(system.incidence, dbar)


def approximate(system: AssembledSystem) -> ApproximationBundle:
    qual, dd = _quality_and_dd(system)
    chi = spectral.chi_report(dd.h_blocks, qual, dd.chi3_bound)
    return ApproximationBundle(quality=qual, dd=dd, chi=chi)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationSummary:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_system(system: AssembledSystem, *,
                  dense_limit: int = spectral.DEFAULT_SIZE_LIMIT,
                  order_rtol: float = 1e-8,
                  identity_tol: float = 1e-10) -> VerificationSummary:
    """Run the full invariant battery on an assembled system.

    Checks, in order: quadrature exactness at the required degree, element
    factor singular value bounds, the stiffness factorization identity
    (element-wise and assembled), the middle-matrix refactorization identity,
    scaled-block singular value bounds, diagonal dominance of the
    approximation, the chi chain, and (when the reduced system has at most
    ``dense_limit`` unknowns) the global support bounds.
    """
    checks: list[CheckResult] = []

    def add(name, passed, detail):
        checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))

    exact = verify_exactness(system.rule, 2 * system.mesh.p - 2)
    add("quadrature-exactness", exact.passed,
        f"degree {exact.degree}, max error {exact.max_error:.3e}")

    qual, dd = _quality_and_dd(system)
    sv = factorization.element_j_singular_values(system.factors)
    ab = qual.alpha * qual.beta
    upper_ok = bool(np.all(sv[:, 0] <= system.sqp.sigma_qp + 1e-10))
    lower_ok = bool(np.all(sv[:, 1] >= system.sqp.tau_qp / ab - 1e-10))
    add("element-factor-singular-values", upper_ok and lower_ok,
        f"max sigma {sv[:, 0].max():.6g} vs {system.sqp.sigma_qp:.6g}, "
        f"min margin {float((sv[:, 1] - system.sqp.tau_qp / ab).min()):.3e}")

    report = factorization.verify_first_factorization(
        system.mesh, system.factors, system.incidence,
        system.element_stiffness, system.stiffness, tolerance=identity_tol)
    add("factorization-identity", report.passed,
        f"element max {report.max_element_residual:.3e}, "
        f"assembled {report.global_residual:.3e}")

    refac = dd_approx.refactorization_residuals(system.factors, dd.dbar,
                                                dd.h_blocks)
    add("refactorization-identity", bool(refac.max() <= identity_tol),
        f"max residual {refac.max():.3e}")

    jbar_upper = (qual.theta_ratio * qual.det_ratio
                  * qual.M_q / qual.m_q) ** 0.5 * system.sqp.sigma_qp
    jbar_lower = system.sqp.tau_qp / ab
    up_ok = bool(np.all(dd.h_blocks.sigma_max <= jbar_upper + 1e-10))
    low_ok = bool(np.all(dd.h_blocks.sigma_min >= jbar_lower - 1e-10))
    add("scaled-block-singular-values", up_ok and low_ok,
        f"margins {float((jbar_upper - dd.h_blocks.sigma_max).min()):.3e}, "
        f"{float((dd.h_blocks.sigma_min - jbar_lower).min()):.3e}")

    dd_ok, dd_detail = check_diagonal_dominance(dd.kbar)
    add("approximation-diagonal-dominance", dd_ok, dd_detail)

    try:
        chi = spectral.chi_report(dd.h_blocks, qual, dd.chi3_bound,
                                  order_rtol=order_rtol)
        add("chi-chain", True,
            f"max chi1 {chi.max_chi1:.6g} <= max chi2 {chi.max_chi2:.6g} "
            f"<= chi3 {dd.chi3_bound:.6g}")
    except ConsistencyError as exc:
        chi = None
        add("chi-chain", False, str(exc))

    n = system.stiffness.n
    if chi is not None and 0 < n <= dense_limit:
        try:
            glob = spectral.global_support_check(system.stiffness, dd.kbar, chi,
                                                 dd.h_blocks.kappa_global,
                                                 rtol=order_rtol,
                                                 size_limit=dense_limit)
            add("global-splitting-bound", glob.splitting_ok,
                f"sigma {glob.sigma_k_kbar:.6g} vs element max "
                f"{glob.max_element_sigma_k_kbar:.6g}")
            add("global-condition-bound", glob.condition_bound_ok,
                f"kappa {glob.kappa:.6g} vs middle-matrix {glob.kappa_h:.6g}")
        except InfiniteSupportError:
            add("global-splitting-bound", False,
                "assembled pair has mismatched nullspaces")
        except EigensolverError as exc:
            add("global-splitting-bound", False, str(exc))
    return VerificationSummary(checks=checks)


def check_diagonal_dominance(kbar: SparseSymmetricMatrix,
                             off_tol: float = 1e-14,
                             row_rtol: float = 1e-12):
    """Off-diagonals nonpositive and every row diagonally dominant."""
    if kbar.n == 0:
        return True, "empty system"
    entries = kbar.csr.tocoo()
    off = entries.row != entries.col
    worst_off = float(entries.data[off].max(initial=0.0))
    row_off = np.bincount(entries.row[off], weights=np.abs(entries.data[off]),
                          minlength=kbar.n)
    diag = kbar.csr.diagonal()
    slack = diag - row_off + row_rtol * np.abs(diag)
    ok = worst_off <= off_tol and bool(np.all(slack >= 0.0))
    return ok, (f"worst off-diagonal {worst_off:.3e}, "
                f"worst row slack {float(slack.min()):.3e}")

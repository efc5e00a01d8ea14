"""End-to-end wiring: mesh + conductivity -> stiffness, factors, approximation.

This is the layer the command line and the experiment scripts drive.
``AssembledSystem`` owns every matrix of one system and builds each on first
use, exactly once: K, the star incidence, the factors, Dbar and Kbar.
``approximate`` adds the quality report, the H blocks and the chi chain, and
``verify_system`` runs a battery whose check list mirrors the mathematical
guarantees of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import assembly, dd_approx, factorization, quality, spectral
from .errors import ConsistencyError, EigensolverError, InfiniteSupportError
from .mesh import ConductivityField, Mesh, conductivity_from_mesh
from .quadrature import QuadratureRule, standard_rule, verify_exactness
from .reference_element import ReferenceElement, SqpMatrix, build_sqp, make_reference

# Largest reduced system verify_system runs the global checks on by default.
DEFAULT_DENSE_LIMIT = 2000


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Everything derived from one (mesh, conductivity, rule) triple.

    The geometry and ``alpha`` (which ``Kbar`` needs) are computed up front.
    The reduced ``stiffness`` K, the dense ``element_stiffness`` stack, the
    star ``incidence``, the full ``factors`` (beta, the weights and the j
    stack), the diagonal replacement ``dbar`` and ``kbar`` = A^T Dbar A are
    built on first use and kept on the instance: a solve never builds the
    factors, a report builds neither K, the incidence nor Kbar, and only
    the factorization identity check reads the element stack (K is summed
    from element blocks computed in chunks, see ``assemble_global``).
    """

    mesh: Mesh
    ref: ReferenceElement
    rule: QuadratureRule
    theta: ConductivityField
    sqp: SqpMatrix
    tables: tuple                    # (q, l) shape values, (q, l, d) gradients
    geometries: assembly.ElementGeometry
    alpha: np.ndarray                # (m,) max compression per element

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """The reduced n x n stiffness matrix K."""
        return assembly.assemble_global(self.mesh, self.geometries, self.ref,
                                        self.rule, tables=self.tables)

    @cached_property
    def element_stiffness(self) -> np.ndarray:
        """The (m, l, l) dense element matrices."""
        return assembly.element_stiffness(self.geometries, self.ref, self.rule,
                                          tables=self.tables)

    @cached_property
    def incidence(self) -> factorization.IncidenceMatrix:
        return factorization.build_incidence(self.mesh)

    @cached_property
    def factors(self) -> factorization.ElementFactors:
        return factorization.build_all_factors(self.geometries, self.alpha,
                                               self.sqp, self.rule)

    @cached_property
    def dbar(self) -> np.ndarray:
        """The (m,) scalars of the diagonal replacement blocks."""
        return dd_approx.build_dbar(self.alpha, self.geometries, self.rule)

    @cached_property
    def kbar(self) -> sp.csr_matrix:
        """The n x n graph Laplacian approximation Kbar = A^T Dbar A."""
        return dd_approx.build_kbar(self.incidence, self.dbar)


def build_system(mesh: Mesh, theta: ConductivityField | None = None,
                 rule: QuadratureRule | None = None) -> AssembledSystem:
    """Geometry and alpha of a mesh; K and the rest on first use."""
    if theta is None:
        theta = conductivity_from_mesh(mesh)
    if rule is None:
        rule = standard_rule(mesh.d, mesh.p)
    ref = make_reference(mesh.d, mesh.p)
    sqp = build_sqp(ref, rule)
    tables = assembly.reference_tables(ref, rule)
    geometries = assembly.element_geometry(mesh, ref, rule, theta, tables=tables)
    return AssembledSystem(
        mesh=mesh, ref=ref, rule=rule, theta=theta, sqp=sqp, tables=tables,
        geometries=geometries, alpha=factorization.element_alpha(geometries),
    )


@dataclass(frozen=True, eq=False)
class ApproximationBundle:
    """Quality scalars with the chi3 bounds, and H blocks (chi1 = chi2)."""

    quality: quality.QualityReport
    h_blocks: dd_approx.HBlocks


def _quality_and_h_blocks(system: AssembledSystem):
    qual = quality.compute_quality(system.geometries, system.alpha,
                                   system.factors.beta, system.rule, system.sqp)
    return qual, dd_approx.build_h_blocks(system.factors, system.dbar)


def approximate(system: AssembledSystem) -> ApproximationBundle:
    """Quality report and H blocks, with the chi chain checked."""
    qual, h_blocks = _quality_and_h_blocks(system)
    spectral.chi_report(h_blocks, qual)
    return ApproximationBundle(quality=qual, h_blocks=h_blocks)


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
                  dense_limit: int = DEFAULT_DENSE_LIMIT
                  ) -> VerificationSummary:
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

    qual, h_blocks = _quality_and_h_blocks(system)
    sv = factorization.element_j_singular_values(system.factors)
    ab = qual.alpha * qual.beta
    upper_ok = bool(np.all(sv[:, 0] <= system.sqp.sigma_qp + 1e-10))
    lower_ok = bool(np.all(sv[:, 1] >= system.sqp.tau_qp / ab - 1e-10))
    add("element-factor-singular-values", upper_ok and lower_ok,
        f"max sigma {sv[:, 0].max():.6g} vs {system.sqp.sigma_qp:.6g}, "
        f"min margin {float((sv[:, 1] - system.sqp.tau_qp / ab).min()):.3e}")

    report = factorization.verify_first_factorization(
        system.mesh, system.factors, system.incidence,
        system.element_stiffness, system.stiffness)
    add("factorization-identity", report.passed,
        f"element max {report.max_element_residual:.3e}, "
        f"assembled {report.global_residual:.3e}")

    refac = dd_approx.refactorization_residuals(system.factors, system.dbar,
                                                h_blocks)
    add("refactorization-identity",
        bool(refac.max() <= factorization.IDENTITY_TOL),
        f"max residual {refac.max():.3e}")

    jbar_upper = (qual.theta_ratio * qual.det_ratio
                  * system.rule.M_q / system.rule.m_q) ** 0.5 * system.sqp.sigma_qp
    jbar_lower = system.sqp.tau_qp / ab
    up_ok = bool(np.all(h_blocks.sigma_max <= jbar_upper + 1e-10))
    low_ok = bool(np.all(h_blocks.sigma_min >= jbar_lower - 1e-10))
    add("scaled-block-singular-values", up_ok and low_ok,
        f"margins {float((jbar_upper - h_blocks.sigma_max).min()):.3e}, "
        f"{float((h_blocks.sigma_min - jbar_lower).min()):.3e}")

    dd_ok, dd_detail = check_diagonal_dominance(system.kbar)
    add("approximation-diagonal-dominance", dd_ok, dd_detail)

    try:
        spectral.chi_report(h_blocks, qual)
        worst = h_blocks.max_kappa_element
        chain_ok, detail = True, (f"max chi1 {worst:.6g} <= max chi2 {worst:.6g} "
                                  f"<= chi3 {qual.chi3:.6g}")
    except ConsistencyError as exc:
        chain_ok, detail = False, str(exc)
    add("chi-chain", chain_ok, detail)

    n = system.stiffness.shape[0]
    if chain_ok and 0 < n <= dense_limit:
        try:
            glob = spectral.global_support_check(system.stiffness, system.kbar,
                                                 h_blocks)
            add("global-splitting-bound", glob.splitting_ok,
                f"sigma {glob.sigma_k_kbar:.6g} vs element max "
                f"{glob.max_element_sigma_k_kbar:.6g}")
            add("global-condition-bound", glob.condition_bound_ok,
                f"kappa {glob.kappa:.6g} vs middle-matrix {h_blocks.kappa_global:.6g}")
        except InfiniteSupportError:
            add("global-splitting-bound", False,
                "assembled pair has mismatched nullspaces")
        except EigensolverError as exc:
            add("global-splitting-bound", False, str(exc))
    return VerificationSummary(checks=checks)


# Largest off-diagonal entry of Kbar that still counts as nonpositive, and the
# relative slack a row's diagonal may fall short of its off-diagonal sum.
DOMINANCE_OFF_TOL = 1e-14
DOMINANCE_ROW_RTOL = 1e-12


def check_diagonal_dominance(kbar: sp.csr_matrix):
    """Off-diagonals nonpositive and every row diagonally dominant."""
    n = kbar.shape[0]
    if n == 0:
        return True, "empty system"
    entries = kbar.tocoo()
    off = entries.row != entries.col
    worst_off = float(entries.data[off].max(initial=0.0))
    row_off = np.bincount(entries.row[off], weights=np.abs(entries.data[off]),
                          minlength=n)
    diag = kbar.diagonal()
    slack = diag - row_off + DOMINANCE_ROW_RTOL * np.abs(diag)
    ok = worst_off <= DOMINANCE_OFF_TOL and bool(np.all(slack >= 0.0))
    return ok, (f"worst off-diagonal {worst_off:.3e}, "
                f"worst row slack {float(slack.min()):.3e}")

"""Diagonally dominant approximation of the stiffness matrix.

Replacing each element's middle product j^T diag(d) j by the scalar block
(min weight) * (min conductivity) * (min determinant) * alpha^2 * I turns the
assembled matrix into a weighted graph Laplacian on the element star arcs,
restricted by Dirichlet deletion.  The leftover middle matrix H measures the
loss: its condition number bounds the generalized condition number of the
pair, and is itself bounded by the purely mesh/rule-dependent quantity
chi3 = theta_hat * kappa1^2 * kappa2 * (M_q sigma^2) / (m_q tau^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .assembly import ElementGeometry, SparseSymmetricMatrix
from .factorization import ElementFactors, IncidenceMatrix, relative_residuals
from .quadrature import QuadratureRule
from .quality import QualityReport


@dataclass(frozen=True)
class DbarBlocks:
    """Per-element scalar of the diagonal replacement block (times identity)."""

    scalars: np.ndarray  # (m,) m_q * f_t * g_t * alpha_t^2
    f: np.ndarray        # (m,) min conductivity over Gauss points
    g: np.ndarray        # (m,) min Jacobian determinant over Gauss points


@dataclass(frozen=True)
class HBlocks:
    """Per-element normalized middle matrices and their spectral extremes."""

    h: np.ndarray             # (m, l-1, l-1) dense blocks
    sigma_max: np.ndarray     # (m,) largest singular value of each scaled block
    sigma_min: np.ndarray     # (m,)
    kappa_per_element: np.ndarray  # (m,) condition number of each block
    kappa_global: float       # condition number of the block-diagonal whole

    @property
    def max_kappa_element(self) -> float:
        return float(self.kappa_per_element.max())


@dataclass(frozen=True, eq=False)
class DDApproximation:
    """Dbar, the H blocks and chi3; ``kbar`` is assembled on first use.

    ``incidence`` returns the star incidence that ``kbar`` is built on; it
    is called only then, so the quality numbers need no incidence and no
    Kbar.
    """

    dbar: DbarBlocks
    h_blocks: HBlocks
    chi3_bound: float
    incidence: Callable[[], IncidenceMatrix]

    @cached_property
    def kbar(self) -> SparseSymmetricMatrix:
        return build_kbar(self.incidence(), self.dbar)


def build_dbar(alpha: np.ndarray, geometries: ElementGeometry,
               rule: QuadratureRule) -> DbarBlocks:
    """Scalar diagonal blocks: smallest weight times per-element minima.

    ``alpha`` is the per-element maximum compression (``element_alpha``).
    """
    f = geometries.theta_vals.min(axis=1)
    g = geometries.dets.min(axis=1)
    return DbarBlocks(scalars=rule.m_q * f * g * alpha ** 2, f=f, g=g)


def build_kbar(incidence: IncidenceMatrix, dbar: DbarBlocks) -> SparseSymmetricMatrix:
    """Weighted graph Laplacian on the star arcs, Dirichlet rows deleted.

    Each arc adds its element's scalar to both endpoint diagonals and
    subtracts it from their shared off-diagonal, summed in the upper triangle
    and mirrored, so the result is exactly symmetric with nonpositive
    off-diagonal entries.
    """
    tail, head = incidence.arcs[:, 0], incidence.arcs[:, 1]
    s = np.repeat(dbar.scalars, incidence.l - 1)
    both = (tail >= 0) & (head >= 0)
    ends = np.concatenate([tail, head])
    on_diag = ends >= 0
    rows = np.concatenate([ends[on_diag], np.minimum(tail, head)[both]])
    cols = np.concatenate([ends[on_diag], np.maximum(tail, head)[both]])
    vals = np.concatenate([np.tile(s, 2)[on_diag], -s[both]])
    return SparseSymmetricMatrix.from_upper(incidence.n, rows, cols, vals)


def build_h_blocks(factors: ElementFactors, dbar: DbarBlocks) -> HBlocks:
    """Normalized middle blocks: scaled j with the diagonal replacement pulled out.

    The scaled block for element t is diag(d)^(1/2) j / sqrt(scalar_t); its
    Gram matrix is the element's H block.  Because the whole H is block
    diagonal, the global condition number is the worst squared singular value
    over all blocks divided by the best.
    """
    scaled = (np.sqrt(factors.d_diag)[:, :, None] * factors.j
              / np.sqrt(dbar.scalars)[:, None, None])
    h = scaled.swapaxes(1, 2) @ scaled
    s = np.linalg.svd(scaled, compute_uv=False)
    smax = s.max(axis=1)
    smin = s.min(axis=1)
    kappa_elem = (smax / smin) ** 2
    kappa_global = float((smax.max() / smin.min()) ** 2)
    return HBlocks(h=h, sigma_max=smax, sigma_min=smin,
                   kappa_per_element=kappa_elem, kappa_global=kappa_global)


def chi3_bound(quality: QualityReport) -> float:
    """Analytic mesh-level bound on the condition number of the middle matrix."""
    return (quality.theta_hat * quality.kappa1 ** 2 * quality.kappa2
            * quality.M_q * quality.sigma_qp ** 2
            / (quality.m_q * quality.tau_qp ** 2))


def chi3_element_bounds(quality: QualityReport) -> np.ndarray:
    """Element-local version of the analytic bound (local spreads and shape)."""
    return (quality.theta_ratio * (quality.alpha * quality.beta) ** 2
            * quality.det_ratio * quality.M_q * quality.sigma_qp ** 2
            / (quality.m_q * quality.tau_qp ** 2))


def refactorization_residuals(factors: ElementFactors,
                              dbar: DbarBlocks, h_blocks: HBlocks) -> np.ndarray:
    """Relative error of middle-product = scalar * H per element (identity check)."""
    return relative_residuals(dbar.scalars[:, None, None] * h_blocks.h,
                              factors.gram())


def build_dd_approximation(incidence: Callable[[], IncidenceMatrix], factors,
                           geometries, rule: QuadratureRule,
                           quality: QualityReport) -> DDApproximation:
    dbar = build_dbar(factors.alpha, geometries, rule)
    return DDApproximation(
        dbar=dbar,
        h_blocks=build_h_blocks(factors, dbar),
        chi3_bound=chi3_bound(quality),
        incidence=incidence,
    )

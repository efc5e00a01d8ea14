"""Mesh and problem quality scalars sampled at the Gauss points.

Per element: alpha (max compression, worst inverse-Jacobian 2-norm), beta
(max stretch, worst Jacobian 2-norm), the spread of the Jacobian determinant,
and the spread of the conductivity.  Mesh-level: kappa1 = worst alpha*beta,
kappa2 = worst determinant spread, theta_hat = worst conductivity spread.
All of these are rescaling invariant and at least 1.  With the rule's and
sample matrix's scalars they give the analytic bound on the condition of the
middle matrix, chi3 = theta_hat kappa1^2 kappa2 (M_q sigma^2) / (m_q tau^2),
and its element-local version chi3_t from the element's own spreads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ElementGeometry
from .quadrature import QuadratureRule
from .reference_element import SqpMatrix


@dataclass(frozen=True)
class QualityReport:
    alpha: np.ndarray        # (m,) max inverse-Jacobian 2-norm per element
    beta: np.ndarray         # (m,) max Jacobian 2-norm per element
    det_ratio: np.ndarray    # (m,) max det / min det over Gauss points
    theta_ratio: np.ndarray  # (m,) max theta / min theta over Gauss points
    kappa1: float
    kappa2: float
    theta_hat: float
    chi3_element: np.ndarray  # (m,) element-local analytic bounds
    chi3: float               # mesh-level analytic bound


def compute_quality(geometries: ElementGeometry, alpha: np.ndarray,
                    beta: np.ndarray, rule: QuadratureRule,
                    sqp: SqpMatrix) -> QualityReport:
    """The quality report of the element geometry and the element norms
    ``alpha`` (``AssembledSystem.alpha``) and ``beta`` (``ElementFactors.beta``).
    """
    det_ratio = geometries.dets.max(axis=1) / geometries.dets.min(axis=1)
    theta_ratio = geometries.theta_vals.max(axis=1) / geometries.theta_vals.min(axis=1)
    kappa1, kappa2 = float((alpha * beta).max()), float(det_ratio.max())
    theta_hat = float(theta_ratio.max())
    return QualityReport(
        alpha=alpha, beta=beta, det_ratio=det_ratio, theta_ratio=theta_ratio,
        kappa1=kappa1, kappa2=kappa2, theta_hat=theta_hat,
        chi3_element=(theta_ratio * (alpha * beta) ** 2 * det_ratio
                      * rule.M_q * sqp.sigma_qp ** 2 / (rule.m_q * sqp.tau_qp ** 2)),
        chi3=(theta_hat * kappa1 ** 2 * kappa2 * rule.M_q * sqp.sigma_qp ** 2
              / (rule.m_q * sqp.tau_qp ** 2)),
    )

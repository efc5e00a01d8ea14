"""Mesh and problem quality scalars sampled at the Gauss points.

Per element: alpha (max compression, worst inverse-Jacobian 2-norm), beta
(max stretch, worst Jacobian 2-norm), the spread of the Jacobian determinant,
and the spread of the conductivity.  Mesh-level: kappa1 = worst alpha*beta,
kappa2 = worst determinant spread, theta_hat = worst conductivity spread.
All of these are rescaling invariant and at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ElementGeometry
from .factorization import ElementFactors
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
    sigma_qp: float
    tau_qp: float
    m_q: float
    M_q: float


def compute_quality(geometries: ElementGeometry, factors: ElementFactors,
                    rule: QuadratureRule, sqp: SqpMatrix) -> QualityReport:
    """Reduce the stacked element geometry and factors into the quality report."""
    alpha, beta = factors.alpha, factors.beta
    det_ratio = geometries.dets.max(axis=1) / geometries.dets.min(axis=1)
    theta_ratio = geometries.theta_vals.max(axis=1) / geometries.theta_vals.min(axis=1)
    return QualityReport(
        alpha=alpha,
        beta=beta,
        det_ratio=det_ratio,
        theta_ratio=theta_ratio,
        kappa1=float((alpha * beta).max()),
        kappa2=float(det_ratio.max()),
        theta_hat=float(theta_ratio.max()),
        sigma_qp=sqp.sigma_qp,
        tau_qp=sqp.tau_qp,
        m_q=rule.m_q,
        M_q=rule.M_q,
    )

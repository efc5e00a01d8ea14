"""Diagonally dominant approximation of the stiffness matrix.

Replacing each element's middle product j^T diag(d) j by the scalar block
(min weight) * (min conductivity) * (min determinant) * alpha^2 * I turns the
assembled matrix into a weighted graph Laplacian on the element star arcs,
restricted by Dirichlet deletion.  The leftover middle matrix H measures the
loss: its condition number bounds the generalized condition number of the
pair, and is itself bounded by the purely mesh/rule-dependent quantity chi3
of ``quality.compute_quality``.

The spectral extremes of every H block come from one batched ``eigvalsh``
of the Gram stack H itself, which the refactorization check reads as well;
only blocks too ill-conditioned for the Gram route go through an SVD of
their scaled factor (see ``build_h_blocks``).

``pipeline.AssembledSystem`` builds Dbar and Kbar once per system, on
first use, and ``pipeline.approximate`` builds the H blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import ElementGeometry, index_dtype, mirrored_csr
from .factorization import ElementFactors, IncidenceMatrix, relative_residuals
from .quadrature import QuadratureRule


# A Gram block whose eigenvalue ratio exceeds this (or whose smallest
# eigenvalue is not positive) has its spectrum recomputed by an SVD.
GRAM_KAPPA_LIMIT = 1e4


@dataclass(frozen=True)
class HBlocks:
    """Per-element normalized middle matrices and their spectral extremes.

    ``h`` is the Gram stack of the scaled blocks.  ``sigma_max`` and
    ``sigma_min`` are the scaled blocks' extreme singular values: square
    roots of the extreme eigenvalues of ``h`` where its condition number is
    at most ``GRAM_KAPPA_LIMIT``, otherwise from an SVD of the scaled block
    (see ``build_h_blocks``).  A ``sigma_min`` of 0 marks a numerically
    rank-deficient block, NaN a block with a non-finite entry.
    """

    h: np.ndarray             # (m, l-1, l-1) dense blocks
    sigma_max: np.ndarray     # (m,) largest singular value of each scaled block
    sigma_min: np.ndarray     # (m,)
    kappa_per_element: np.ndarray  # (m,) condition number of each block
    kappa_global: float       # condition number of the block-diagonal whole

    @property
    def max_kappa_element(self) -> float:
        return float(self.kappa_per_element.max())


def build_dbar(alpha: np.ndarray, geometries: ElementGeometry,
               rule: QuadratureRule) -> np.ndarray:
    """Scalars (m,) of the diagonal blocks: m_q * min theta * min det * alpha^2.

    ``alpha`` is the per-element maximum compression (``element_alpha``).
    """
    f = geometries.theta_vals.min(axis=1)
    g = geometries.dets.min(axis=1)
    return rule.m_q * f * g * alpha ** 2


def build_kbar(incidence: IncidenceMatrix, dbar: np.ndarray) -> sp.csr_matrix:
    """Weighted graph Laplacian on the star arcs, Dirichlet rows deleted.

    Each arc adds its element's scalar to both endpoint diagonals and
    subtracts it from their shared off-diagonal, summed in the upper triangle
    and mirrored, so the result is exactly symmetric with nonpositive
    off-diagonal entries.
    """
    arcs = incidence.arcs.astype(index_dtype(incidence.n), copy=False)
    tail, head = arcs[:, 0], arcs[:, 1]
    s = np.repeat(dbar, incidence.l - 1)
    has_tail, has_head = tail >= 0, head >= 0
    both = has_tail & has_head
    diag = np.concatenate([tail[has_tail], head[has_head]])
    t, h = tail[both], head[both]
    rows = np.concatenate([diag, np.minimum(t, h)])
    cols = np.concatenate([diag, np.maximum(t, h)])
    vals = np.concatenate([s[has_tail], s[has_head], -s[both]])
    del arcs, diag, t, h   # only the triplets reach the mirror
    return mirrored_csr(incidence.n, rows, cols, vals)


def _scaled_blocks(factors: ElementFactors, dbar: np.ndarray,
                   rows=slice(None)) -> np.ndarray:
    """diag(d)^(1/2) j / sqrt(scalar) of the selected elements, in one buffer.

    Elementwise, so a block is bitwise the same whichever rows are selected.
    """
    scaled = np.sqrt(factors.d_diag[rows])[:, :, None] * factors.j[rows]
    scaled /= np.sqrt(dbar[rows])[:, None, None]
    return scaled


def build_h_blocks(factors: ElementFactors, dbar: np.ndarray) -> HBlocks:
    """Normalized middle blocks: scaled j with the diagonal replacement pulled out.

    The scaled block for element t is diag(d)^(1/2) j / sqrt(scalar_t); its
    Gram matrix is the element's H block, and the squared singular values of
    the scaled block are the eigenvalues of H.  They are read from one
    batched ``eigvalsh`` of the H stack: an eigenvalue carries an absolute
    error of a few epsilon times the largest, so the smallest is accurate to
    about (l-1) * epsilon * kappa(H_t) relative.  Blocks with kappa(H_t)
    above ``GRAM_KAPPA_LIMIT`` or a smallest eigenvalue that is not positive
    take an SVD of the scaled block instead, so every kappa_t is within
    about (l-1) * epsilon * 1e4 (a few 1e-12) of the SVD's.  In the worst
    case, where every block takes the fallback, both passes run: 75 ms
    against 50 ms for the SVD alone on 8192 random 6 x 5 blocks (2 vCPUs);
    on well-shaped meshes no block does.

    A smallest singular value at or below (d*q) * epsilon * sigma_max is
    numerically zero and is stored as 0, and a block with a non-finite entry
    gets NaN extremes; ``chi_report`` rejects both.  Because the whole H is
    block diagonal, the global condition number is the worst squared
    singular value over all blocks divided by the best.
    """
    scaled = _scaled_blocks(factors, dbar)
    h = scaled.swapaxes(1, 2) @ scaled
    del scaled   # rebuilt below only for the blocks that need an SVD
    finite = np.isfinite(h).all(axis=(1, 2))
    lam = np.full(h.shape[:2], np.nan)
    # h[finite] is a copy of the whole stack; most stacks need none.
    lam[finite] = np.linalg.eigvalsh(h if finite.all() else h[finite])
    smax, smin = np.sqrt(lam[:, -1]), np.sqrt(np.maximum(lam[:, 0], 0.0))
    redo = finite & ~((lam[:, 0] > 0.0)
                      & (lam[:, -1] <= GRAM_KAPPA_LIMIT * lam[:, 0]))
    if redo.any():
        s = np.linalg.svd(_scaled_blocks(factors, dbar, redo), compute_uv=False)
        rank_tol = factors.j.shape[1] * np.finfo(float).eps * s[:, 0]
        smax[redo] = s[:, 0]
        smin[redo] = np.where(s[:, -1] > rank_tol, s[:, -1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa_elem = (smax / smin) ** 2
        kappa_global = float((smax.max() / smin.min()) ** 2)
    return HBlocks(h=h, sigma_max=smax, sigma_min=smin,
                   kappa_per_element=kappa_elem, kappa_global=kappa_global)


def refactorization_residuals(factors: ElementFactors,
                              dbar: np.ndarray, h_blocks: HBlocks) -> np.ndarray:
    """Relative error of middle-product = scalar * H per element (identity check)."""
    return relative_residuals(dbar[:, None, None] * h_blocks.h, factors.gram)


"""Explicit stiffness factorization into incidence, geometry and weight factors.

Every element contributes a star of l-1 arcs joining its local nodes 2..l to
local node 1.  Stacking the signed arc rows gives the incidence matrix A.
Per element, the gradient sample block is mapped through the scaled inverse
Jacobians (R), weighted by the positive diagonal of conductivity times volume
times quadrature weight (D).  The product of the middle factors, J = R S, is
well conditioned: its singular values are pinched between the gradient sample
extremes divided by the element's compression-stretch product.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ElementGeometry
from .mesh import Mesh
from .quadrature import QuadratureRule
from .reference_element import SqpMatrix


def spectral_norm(mat: np.ndarray) -> np.ndarray:
    """Matrix 2-norms of a stack of small blocks: (..., d, d) -> (...)."""
    return np.linalg.norm(mat, 2, axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Reduced node-arc incidence matrix of the element star multigraph.

    ``arcs`` holds one row per arc: (tail, head) as free-node column indices,
    with -1 marking an endpoint omitted because the node is constrained.
    Arc rows are ordered element-major, local node ascending, so rows
    t*(l-1) .. (t+1)*(l-1)-1 belong to element t.
    """

    n: int
    m: int
    l: int
    arcs: np.ndarray        # ((l-1)*m, 2) int
    matrix: sp.csr_matrix   # ((l-1)*m, n) with entries in {-1, 0, +1}

    def block(self, t: int) -> sp.csr_matrix:
        lm1 = self.l - 1
        return self.matrix[t * lm1:(t + 1) * lm1, :]


@dataclass(frozen=True, eq=False)
class ElementFactors:
    """Middle factors of the stiffness identity, element index leading.

    ``j`` stacks each element's (d*q) x (l-1) product of the scaled
    inverse-transpose Jacobian blocks with the shared gradient sample matrix;
    ``d_diag`` the positive diagonal weights.  The alpha scaling cancels
    between the two, so j^T diag(d_diag) j reproduces the element stiffness on
    arc differences.  alpha is the worst inverse-Jacobian 2-norm over the
    Gauss points (maximum compression), beta the worst Jacobian 2-norm
    (maximum stretch).  Both are largest singular values, accurate to roundoff
    relative to themselves (see ``_largest_norm``): in 2D the closed form
    (hypot(a + e, b - c) + hypot(a - e, b + c)) / 2 of a block
    [[a, b], [c, e]], in 3D the square root of the largest eigenvalue of the
    3 x 3 Gram block.  Neither norm is taken from a smallest eigenvalue or
    singular value, which would lose a factor of the block's condition
    number.
    """

    alpha: np.ndarray       # (m,)
    beta: np.ndarray        # (m,)
    d_diag: np.ndarray      # (m, q*d)
    j: np.ndarray           # (m, q*d, l-1)

    def gram(self) -> np.ndarray:
        """j^T diag(d_diag) j per element, the (m, l-1, l-1) middle products."""
        return self.j.swapaxes(1, 2) @ (self.d_diag[:, :, None] * self.j)


def local_incidence(l: int) -> np.ndarray:
    """Unreduced (l-1) x l star incidence block: -1 on node 1, +1 on node mu."""
    out = np.zeros((l - 1, l))
    out[:, 0] = -1.0
    out[np.arange(l - 1), np.arange(1, l)] = 1.0
    return out


def build_incidence(mesh: Mesh) -> IncidenceMatrix:
    """Signed arc rows of every element star, Dirichlet columns omitted."""
    n = mesh.n_free
    m, l = mesh.elements.shape
    tail = np.repeat(mesh.elements[:, 0], l - 1)
    head = mesh.elements[:, 1:].reshape(-1)
    arcs = np.stack([np.where(tail < n, tail, -1), np.where(head < n, head, -1)],
                    axis=1)
    rows = np.arange(len(arcs))
    has_head, has_tail = head < n, tail < n
    matrix = sp.csr_matrix(
        (np.concatenate([np.ones(has_head.sum()), -np.ones(has_tail.sum())]),
         (np.concatenate([rows[has_head], rows[has_tail]]),
          np.concatenate([head[has_head], tail[has_tail]]))),
        shape=((l - 1) * m, n))
    return IncidenceMatrix(n=n, m=m, l=l, arcs=arcs, matrix=matrix)


def save_incidence(inc: IncidenceMatrix, target) -> None:
    """Debug dump as an edge list: ``arc <from> <to>``, 0 for an omitted endpoint."""
    close = False
    if isinstance(target, (str, Path)):
        fh = open(target, "w", encoding="utf-8")
        close = True
    else:
        fh = target
    try:
        for tail, head in inc.arcs:
            fh.write(f"arc {tail + 1 if tail >= 0 else 0} {head + 1 if head >= 0 else 0}\n")
    finally:
        if close:
            fh.close()


def _largest_norm(blocks: np.ndarray) -> np.ndarray:
    """Worst 2-norm over the Gauss points of an (m, q, d, d) stack: (m,).

    A 2 x 2 block [[a, b], [c, e]] has largest singular value
    (hypot(a + e, b - c) + hypot(a - e, b + c)) / 2, taken without a Gram
    matrix or LAPACK: both terms are nonnegative and each is off by a few
    ulps of the largest entry, which is at most the norm, so the result is
    accurate to roundoff relative to itself.  A 3 x 3 block takes the square
    root of the largest eigenvalue of its Gram matrix.
    """
    if blocks.shape[-1] == 2:
        a, b = blocks[..., 0, 0], blocks[..., 0, 1]
        c, e = blocks[..., 1, 0], blocks[..., 1, 1]
        return (0.5 * (np.hypot(a + e, b - c) + np.hypot(a - e, b + c))).max(axis=1)
    gram = blocks.swapaxes(-1, -2) @ blocks
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1].max(axis=1))


def element_alpha(geometries: ElementGeometry) -> np.ndarray:
    """Maximum compression per element: the worst ||J^-T||_2 over Gauss points.

    This is all the graph Laplacian approximation needs from the factors.
    """
    return _largest_norm(geometries.inverse_transposes)


def build_all_factors(geometries: ElementGeometry, alpha: np.ndarray,
                      sqp: SqpMatrix, rule: QuadratureRule) -> ElementFactors:
    """Assemble the middle factors of every element around the given alpha.

    ``alpha`` is ``element_alpha(geometries)``; beta, the worst ||J||_2, is
    the largest singular value of J (``_largest_norm``), never
    1/sigma_min of the inverse transpose.
    """
    m, q, d, _ = geometries.jacobians.shape
    beta = _largest_norm(geometries.jacobians)
    a = alpha[:, None]
    weights = a * a * geometries.theta_vals * geometries.dets * rule.weights
    r_blocks = geometries.inverse_transposes / alpha[:, None, None, None]
    samples = sqp.entries.reshape(q, d, -1)                  # (q, d, l-1)
    j = (r_blocks @ samples).reshape(m, q * d, -1)
    return ElementFactors(alpha=alpha, beta=beta,
                          d_diag=np.repeat(weights, d, axis=1), j=j)


@dataclass(frozen=True)
class FactorizationReport:
    """Residuals of the stiffness identity, element-wise and assembled."""

    element_residuals: np.ndarray
    max_element_residual: float
    global_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.max_element_residual <= self.tolerance
                and self.global_residual <= self.tolerance)


def relative_residuals(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Frobenius ||approx - exact|| / ||exact|| per block (0 where exact is 0)."""
    norm = np.linalg.norm(exact, axis=(1, 2))
    diff = np.linalg.norm(approx - exact, axis=(1, 2))
    return np.divide(diff, norm, out=np.zeros_like(norm), where=norm > 0)


def verify_first_factorization(mesh: Mesh, factors: ElementFactors,
                               incidence: IncidenceMatrix,
                               element_k: np.ndarray, global_stiffness=None,
                               tolerance: float = 1e-10) -> FactorizationReport:
    """Check element and assembled stiffness against the factored product.

    Element check: full local star incidence against the dense element matrix.
    Global check: sparse product A^T J^T D J A against the assembled matrix,
    with J the block-diagonal matrix of the per-element ``j`` blocks.
    """
    m = mesh.n_elements
    local_a = local_incidence(incidence.l)
    residuals = relative_residuals(local_a.T @ factors.gram() @ local_a, element_k)

    global_residual = 0.0
    if global_stiffness is not None and incidence.n > 0:
        j = factors.j
        _, qd, lm1 = j.shape
        rows = np.broadcast_to(np.arange(m * qd).reshape(m, qd, 1), j.shape)
        cols = np.broadcast_to(np.arange(m * lm1).reshape(m, 1, lm1), j.shape)
        jmat = sp.csr_matrix((j.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(m * qd, m * lm1))
        ja = jmat @ incidence.matrix
        product = (ja.T @ sp.diags(factors.d_diag.ravel()) @ ja).tocsr()
        diff = product - global_stiffness.csr
        denom = spla.norm(global_stiffness.csr)
        global_residual = float(spla.norm(diff) / denom) if denom > 0 else 0.0

    return FactorizationReport(
        element_residuals=residuals,
        max_element_residual=float(residuals.max()) if m else 0.0,
        global_residual=global_residual,
        tolerance=tolerance,
    )


def element_j_singular_values(factors: ElementFactors) -> np.ndarray:
    """Extreme singular values of each element's middle factor, shape (m, 2)."""
    s = np.linalg.svd(factors.j, compute_uv=False)
    return np.column_stack([s.max(axis=1), s.min(axis=1)])

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
from functools import cached_property

import numpy as np
import scipy.sparse as sp

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
    t*(l-1) .. (t+1)*(l-1)-1 belong to element t.  The sparse ``matrix`` is
    built from ``arcs`` on first read and kept: Kbar needs only the arcs,
    and only the factorization identity check multiplies by A.
    """

    n: int
    m: int
    l: int
    arcs: np.ndarray        # ((l-1)*m, 2) int

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """A as a ((l-1)*m, n) CSR matrix with entries in {-1, 0, +1}."""
        tail, head = self.arcs[:, 0], self.arcs[:, 1]
        rows = np.arange(len(self.arcs))
        has_head, has_tail = head >= 0, tail >= 0
        return sp.csr_matrix(
            (np.concatenate([np.ones(has_head.sum()), -np.ones(has_tail.sum())]),
             (np.concatenate([rows[has_head], rows[has_tail]]),
              np.concatenate([head[has_head], tail[has_tail]]))),
            shape=((self.l - 1) * self.m, self.n))


@dataclass(frozen=True, eq=False)
class ElementFactors:
    """Middle factors of the stiffness identity, element index leading.

    ``j`` stacks each element's (d*q) x (l-1) product of the scaled
    inverse-transpose Jacobian blocks with the shared gradient sample matrix;
    ``d_diag`` the positive diagonal weights.  The alpha scaling
    (``AssembledSystem.alpha``) cancels between the two, so
    j^T diag(d_diag) j reproduces the element stiffness on arc differences.
    alpha is the worst inverse-Jacobian 2-norm over the Gauss points (maximum
    compression), beta the worst Jacobian 2-norm (maximum stretch).  Both
    are largest singular values, accurate to roundoff
    relative to themselves at any scale of the mesh (see ``_largest_norm``):
    in 2D the closed form (hypot(a + e, b - c) + hypot(a - e, b + c)) / 2 of
    a block [[a, b], [c, e]], in 3D the square root of the largest eigenvalue
    of the 3 x 3 Gram block, found by a cyclic Jacobi iteration run on every
    Gauss point's block at once.  Neither norm is taken from a smallest
    eigenvalue or singular value, which would lose a factor of the block's
    condition number.
    """

    beta: np.ndarray        # (m,)
    d_diag: np.ndarray      # (m, q*d)
    j: np.ndarray           # (m, q*d, l-1)

    @cached_property
    def gram(self) -> np.ndarray:
        """j^T diag(d_diag) j per element, the (m, l-1, l-1) middle products.

        Built on first read and kept: both identity checks compare with it.
        """
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
    return IncidenceMatrix(n=n, m=m, l=l, arcs=arcs)


# Most cyclic Jacobi sweeps ``_jacobi_sweeps`` runs.  Cyclic Jacobi
# converges quadratically once the off-diagonal part is small: stacks of
# 20000 random, nearly repeated and nearly rank-deficient 3 x 3 blocks all
# converge in at most 4 sweeps.  Only a block with a non-finite entry, which
# never passes the stopping test, runs up to the cap.
JACOBI_MAX_SWEEPS = 12

# Rows of a Gram stack, one per distinct entry of the symmetric block.
_GRAM_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# Per pivot (p, q) of a cyclic sweep: the rows of g_pp, g_qq and g_pq, then,
# with r the third index, of g_rp and g_rq.
_PIVOTS = ((0, 1, 3, 4, 5), (0, 2, 4, 3, 5), (1, 2, 5, 3, 4))


def _gram_rows(blocks: np.ndarray) -> tuple:
    """Gram entries of an (N, 3, 3) stack, each block scaled by a power of two.

    Returns the six rows g00, g11, g22, g01, g02, g12 of the Gram blocks of
    B_i * 2**-e_i, with e_i the binary exponent of B_i's largest entry, and
    the exponents e.  The scaled entries lie below 1 in magnitude with the
    largest at least 1/2, so no Gram entry or square of one overflows or
    loses the largest eigenvalue to underflow, and the scaling is exact.
    """
    b = blocks.reshape(-1, 9).T.copy()    # a C-order copy, entry (r, j) in row 3r + j
    e = np.frexp(np.abs(b).max(axis=0))[1]
    np.ldexp(b, -e, out=b)
    cols = b[0::3], b[1::3], b[2::3]
    return [np.einsum("kn,kn->n", cols[i], cols[j]) for i, j in _GRAM_ENTRIES], e


def _jacobi_sweeps(g: list) -> int:
    """Diagonalise a stack of symmetric 3 x 3 blocks in place: sweeps run.

    ``g`` holds the six entry rows of ``_gram_rows``.  Each cyclic sweep
    rotates every block at pivots (0, 1), (0, 2) and (1, 2), with the
    rotation of smaller angle that zeroes g_pq (Rutishauser's tangent,
    taken as 0 where g_qq = g_pp and g_pq = 0).  The sweeps stop once every
    block has g01^2 + g02^2 + g12^2 <= (eps * trace)^2, where by Weyl's
    inequality the largest diagonal entry is within sqrt(2) eps trace, at
    most 5 eps times itself, of the largest eigenvalue; or after
    ``JACOBI_MAX_SWEEPS``.  Work arrays are reused across rotations.
    """
    n = len(g[0])
    d, h, t, c, s, w = (np.empty(n) for _ in range(6))
    nonzero = np.empty(n, dtype=bool)
    eps = np.finfo(float).eps
    for sweep in range(JACOBI_MAX_SWEEPS):
        np.add(g[0], g[1], out=t)
        t += g[2]
        t *= eps
        t *= t
        np.multiply(g[3], g[3], out=c)
        for row in g[4:]:
            np.multiply(row, row, out=s)
            c += s
        if (c <= t).all():
            return sweep
        for p, q, pq, rp, rq in _PIVOTS:
            apq, arp, arq = g[pq], g[rp], g[rq]
            # t = 2 g_pq / (d + sign(d) sqrt(d^2 + 4 g_pq^2)), d = g_qq - g_pp
            np.add(apq, apq, out=w)
            np.subtract(g[q], g[p], out=d)
            np.multiply(d, d, out=h)
            np.multiply(w, w, out=t)
            h += t
            np.sqrt(h, out=h)
            np.copysign(h, d, out=h)
            d += h
            np.not_equal(d, 0.0, out=nonzero)
            t.fill(0.0)
            np.divide(w, d, out=t, where=nonzero)
            # c = 1 / sqrt(1 + t^2), s = t c
            np.multiply(t, t, out=c)
            c += 1.0
            np.sqrt(c, out=c)
            np.divide(1.0, c, out=c)
            np.multiply(t, c, out=s)
            np.multiply(t, apq, out=w)
            g[p] -= w
            g[q] += w
            # (g_rp, g_rq) <- (c g_rp - s g_rq, s g_rp + c g_rq)
            np.multiply(s, arq, out=w)
            np.multiply(c, arp, out=h)
            h -= w
            np.multiply(s, arp, out=w)
            arq *= c
            arq += w
            g[rp], h = h, arp
            apq.fill(0.0)
    return JACOBI_MAX_SWEEPS


def _largest_norm(blocks: np.ndarray) -> np.ndarray:
    """Worst 2-norm over the Gauss points of an (m, q, d, d) stack: (m,).

    A 2 x 2 block [[a, b], [c, e]] has largest singular value
    (hypot(a + e, b - c) + hypot(a - e, b + c)) / 2, taken without a Gram
    matrix or LAPACK: both terms are nonnegative and each is off by a few
    ulps of the largest entry, which is at most the norm, so the result is
    accurate to roundoff relative to itself.  A 3 x 3 block takes the square
    root of the largest eigenvalue of its Gram matrix, found for the whole
    stack at once by cyclic Jacobi on the six Gram entries (``_gram_rows``,
    ``_jacobi_sweeps``): the largest diagonal entry at convergence.  Jacobi
    finds the eigenvalues of a symmetric positive definite block to high
    relative accuracy (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 1992),
    and the power-of-two scaling keeps that at any scale of the block.  A
    block with a non-finite entry gives NaN.
    """
    if blocks.shape[-1] == 2:
        a, b = blocks[..., 0, 0], blocks[..., 0, 1]
        c, e = blocks[..., 1, 0], blocks[..., 1, 1]
        return (0.5 * (np.hypot(a + e, b - c) + np.hypot(a - e, b + c))).max(axis=1)
    # A non-finite block meets inf - inf or 0 * inf; its NaN is the answer.
    with np.errstate(invalid="ignore"):
        g, e = _gram_rows(blocks)
        _jacobi_sweeps(g)
    top = np.maximum(np.maximum(g[0], g[1]), g[2])
    return np.ldexp(np.sqrt(top), e).reshape(blocks.shape[:2]).max(axis=1)


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
    return ElementFactors(beta=beta, d_diag=np.repeat(weights, d, axis=1), j=j)


# Largest relative residual a stiffness identity may show and still pass:
# the factored products agree with the assembled matrices to roundoff.
IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class FactorizationReport:
    """Largest residuals of the stiffness identity, element-wise and assembled."""

    max_element_residual: float
    global_residual: float

    @property
    def passed(self) -> bool:
        return (self.max_element_residual <= IDENTITY_TOL
                and self.global_residual <= IDENTITY_TOL)


def _exponent(values: np.ndarray, axis=None) -> np.ndarray:
    """Binary exponent of the largest |value| (over ``axis``), 0 where none."""
    return np.frexp(np.abs(values).max(axis=axis, initial=0.0))[1]


def relative_residuals(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Frobenius ||approx - exact|| / ||exact|| per block (0 where exact is 0).

    Both norms are of the blocks times 2**-e, e the exponent of the exact
    block's largest entry: exact, and no square overflows or underflows.
    """
    e = _exponent(exact, axis=(1, 2))[:, None, None]
    norm = np.linalg.norm(np.ldexp(exact, -e), axis=(1, 2))
    diff = np.linalg.norm(np.ldexp(approx - exact, -e), axis=(1, 2))
    return np.divide(diff, norm, out=np.zeros_like(norm), where=norm > 0)


def verify_first_factorization(mesh: Mesh, factors: ElementFactors,
                               incidence: IncidenceMatrix,
                               element_k: np.ndarray,
                               global_stiffness) -> FactorizationReport:
    """Check element and assembled stiffness against the factored product.

    Element check: full local star incidence against the dense element matrix.
    Global check: sparse product A^T J^T D J A against the assembled matrix,
    with J the block-diagonal matrix of the per-element ``j`` blocks.
    """
    m = mesh.n_elements
    local_a = local_incidence(incidence.l)
    residuals = relative_residuals(local_a.T @ factors.gram @ local_a, element_k)

    global_residual = 0.0
    if incidence.n > 0:
        j = factors.j
        _, qd, lm1 = j.shape
        rows = np.broadcast_to(np.arange(m * qd).reshape(m, qd, 1), j.shape)
        cols = np.broadcast_to(np.arange(m * lm1).reshape(m, 1, lm1), j.shape)
        jmat = sp.csr_matrix((j.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(m * qd, m * lm1))
        ja = jmat @ incidence.matrix
        product = (ja.T @ sp.diags(factors.d_diag.ravel()) @ ja).tocsr()
        # Frobenius norms scaled as in relative_residuals, each summed over
        # the canonical CSR values as scipy.sparse.linalg.norm sums them.
        e = _exponent(global_stiffness.data)
        norms = []
        for mat in (product - global_stiffness, global_stiffness):
            mat.sum_duplicates()
            norms.append(float(np.linalg.norm(np.ldexp(mat.data, -e))))
        global_residual = norms[0] / norms[1] if norms[1] > 0 else 0.0

    return FactorizationReport(
        max_element_residual=float(residuals.max()) if m else 0.0,
        global_residual=global_residual,
    )


def element_j_singular_values(factors: ElementFactors) -> np.ndarray:
    """Extreme singular values of each element's middle factor, shape (m, 2)."""
    s = np.linalg.svd(factors.j, compute_uv=False)
    return np.column_stack([s.max(axis=1), s.min(axis=1)])

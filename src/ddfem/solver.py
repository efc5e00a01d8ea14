"""Conjugate gradient solves with the graph Laplacian approximation as preconditioner.

The approximation is applied exactly through a sparse direct factorization
with a fill-reducing ordering, so the pair condition number is the only
variable in play.  Before SuperLU sees it, ``KbarFactor`` eliminates an
independent set of rows exactly: every arc of Kbar joins an element's star
centre to another node of that element, so the nodes that are never a centre
touch no other such node, and their block of Kbar is diagonal.  Dividing by
that diagonal is the first step of Gaussian elimination for graph Laplacians
and leaves only the Schur complement on the star centres to factor (about a
quarter of the unknowns for order 2 in 2D, a ninth in 3D).  Convergence is
judged on the true residual ``||b - A x|| / ||b||``: the iteration computes it
whenever the recurrence residual reaches the tolerance, and stops only if it
is below the tolerance too (otherwise the recurrence restarts from it), which
removes any drift or preconditioner-norm ambiguity from the convergence test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .errors import SingularSystemError


def floating_components(csr: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of a symmetric matrix's graph whose rows all sum to zero.

    Such a component is a floating Laplacian block (no constrained node
    anywhere in it) and carries its indicator vector in the nullspace.
    Returns the component label of every node and the sorted labels of the
    floating components.
    """
    row_sums = np.abs(np.asarray(csr.sum(axis=1)).reshape(-1))
    diag_scale = float(np.abs(csr.diagonal()).max(initial=0.0)) or 1.0
    n_comp, labels = csgraph.connected_components(csr, directed=False)
    worst = np.zeros(n_comp)
    np.maximum.at(worst, labels, row_sums)
    return labels, np.flatnonzero(worst <= 1e-12 * diag_scale)


def independent_rows(csr: sp.csr_matrix) -> np.ndarray:
    """Sorted rows whose (degree, index) is below that of every neighbour.

    The degree counts a row's stored off-diagonal entries.  Of any two
    coupled rows only the one with the smaller pair can be chosen, so the
    chosen rows are pairwise non-adjacent: their diagonal block is diagonal.
    Returns an empty array for a matrix with no rows.
    """
    n = csr.shape[0]
    row_of = np.repeat(np.arange(n), np.diff(csr.indptr))
    off = csr.indices != row_of
    rows, cols = row_of[off], csr.indices[off]
    key = np.bincount(rows, minlength=n) * n + np.arange(n)
    chosen = np.ones(n, dtype=bool)
    # Of each coupled pair, the row with the larger key is out.
    chosen[np.where(key[cols] < key[rows], rows, cols)] = False
    return np.flatnonzero(chosen)


def leaf_rows(csr: sp.csr_matrix) -> np.ndarray | None:
    """The rows ``KbarFactor`` eliminates ahead of SuperLU, or None.

    These are the ``independent_rows`` when they are at least half of the
    rows and their diagonal is positive; otherwise (every K, and Kbar for
    order 1) None, and the whole matrix is factored.
    """
    leaves = independent_rows(csr)
    if 2 * leaves.size < csr.shape[0] or not (csr.diagonal()[leaves] > 0).all():
        return None
    return leaves


def spd_splu(csc):
    """SuperLU with SPD-friendly settings: symmetric fill-reducing ordering, no pivoting."""
    return spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class KbarFactor:
    """Exact sparse factorization handle supporting repeated solves.

    Rejects singular input up front: a floating component of the matrix graph
    (see ``floating_components``) has its indicator in the nullspace.

    The matrix must be symmetric.  When ``leaf_rows`` finds leaves (I: at
    least half of the rows, pairwise uncoupled, with a positive diagonal),
    the factor is the exact block elimination of

        [[D, B], [B^T, C]]  with D = diag(A_II), B = A_IC, C = A_CC:

    it keeps 1/D and B and gives SuperLU only the Schur complement
    S = C - B^T D^-1 B on the remaining rows C.  A solve is then
    x_C = S^-1 (r_C - B^T D^-1 r_I) and x_I = D^-1 (r_I - B x_C), the same
    SPD operator as a factor of the whole matrix in exact arithmetic.  On
    Kbar of an order-2 mesh the leaves are exactly the nodes that are never a
    star centre.  Otherwise (every K, and Kbar for order 1, where under 2% of
    rows qualify) the whole matrix is factored as before.  ``eliminated``
    counts the rows eliminated ahead of SuperLU (0 on that path).
    """

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix)
        self.n = csr.shape[0]
        self.eliminated = 0
        self._leaves = None
        if self.n == 0:
            self._lu = None
            return
        labels, floating = floating_components(csr)
        if floating.size:
            comp = int(floating[0])
            members = np.flatnonzero(labels == comp)
            raise SingularSystemError(
                f"matrix is singular: component {comp + 1} (nodes "
                f"{[int(i) + 1 for i in members[:8]]}"
                f"{'...' if len(members) > 8 else ''}) has no constrained node",
                component=members,
            )
        leaves = leaf_rows(csr)
        if leaves is None:
            self._matrix = csr.tocsc()
            self._lu = spd_splu(self._matrix)
            return
        self.eliminated = leaves.size
        keep = np.ones(self.n, dtype=bool)
        keep[leaves] = False
        self._leaves, self._centres = leaves, np.flatnonzero(keep)
        self._inv_diag = 1.0 / csr.diagonal()[leaves]
        self._coupling = csr[leaves][:, self._centres]
        # B^T as a CSC view of B's arrays, built once for every solve.
        self._coupling_t = self._coupling.T
        self._matrix = csr
        self._lu = None
        if self._centres.size:
            schur = (csr[self._centres][:, self._centres]
                     - self._coupling_t @ (sp.diags(self._inv_diag)
                                           @ self._coupling))
            self._lu = spd_splu(schur.tocsc())

    @property
    def lu_entries(self) -> int:
        """Entries of SuperLU's L and U (0 when nothing was left to factor)."""
        return 0 if self._lu is None else self._lu.L.nnz + self._lu.U.nnz

    def _apply(self, rhs: np.ndarray) -> np.ndarray:
        if self._leaves is None:
            return self._lu.solve(rhs)
        y = self._inv_diag * rhs[self._leaves]
        x = np.empty(self.n)
        if self._lu is not None:
            x_c = self._lu.solve(rhs[self._centres] - self._coupling_t @ y)
            x[self._centres] = x_c
            y -= self._inv_diag * (self._coupling @ x_c)
        x[self._leaves] = y
        return x

    def solve(self, rhs: np.ndarray, *, refine: bool = True) -> np.ndarray:
        """Kbar^-1 rhs; ``refine=False`` skips the refinement step.

        Iterative solvers pass ``refine=False``: they need a fixed SPD
        operator, not the last digits of each solve.
        """
        if self.n == 0:
            return np.zeros(0)
        x = self._apply(rhs)
        if refine:
            # One refinement step against the original matrix keeps the
            # solve residual at the 1e-12 contract even for ill-scaled
            # diagonals.
            x += self._apply(rhs - self._matrix @ x)
        return x


def factor_kbar(kbar) -> KbarFactor:
    """Factor the (SPD) approximation for repeated preconditioner applications."""
    return KbarFactor(kbar)


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)
    ritz_values: np.ndarray | None = None
    estimated_condition: float | None = None
    wall_time: float = 0.0


def _ritz_from_coefficients(alphas, betas) -> np.ndarray | None:
    # CG-Lanczos connection: tridiagonal with diag 1/a_j + b_{j-1}/a_{j-1}
    # and off-diagonal sqrt(b_{j-1})/a_{j-1}.
    s = len(alphas)
    if s == 0:
        return None
    diag = np.empty(s)
    off = np.empty(max(s - 1, 0))
    diag[0] = 1.0 / alphas[0]
    for j in range(1, s):
        diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
        off[j - 1] = math.sqrt(betas[j - 1]) / alphas[j - 1]
    if s == 1:
        return diag.copy()
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    # numpy's own summation loop, not BLAS ddot: OpenBLAS splits a long dot
    # over its threads and adds the partial sums in an order that depends on
    # the thread count, so the iterates would depend on OPENBLAS_NUM_THREADS.
    return float(np.einsum("i,i->", u, v))


def _norm(u: np.ndarray) -> float:
    return math.sqrt(_dot(u, u))


def pcg_solve(stiffness, rhs: np.ndarray, preconditioner: KbarFactor | None = None,
              tol: float = 1e-10, max_iter: int | None = None) -> SolveResult:
    """Preconditioned conjugate gradients that report the true residual.

    Each step applies the preconditioner with ``refine=False``: the Kbar
    factor is then a fixed SPD operator (its backward-stable LU solve), which
    is all CG needs, and refinement would pay a second triangular solve and a
    Kbar product per step without saving an iteration.  The recurrence
    residual is trusted only to say when to look: once it reaches ``tol`` the
    true residual ``||rhs - A x|| / ||rhs||`` is computed, the solve stops if
    that is within ``tol`` too, and otherwise the recurrence continues from
    the true residual (residual replacement).

    ``residual_history`` holds one value per step (the recurrence residual,
    or the true one where it was computed); its last value and
    ``relative_residual`` are the true residual of the returned ``x``.
    Returns a non-convergence result (never raises) when ``max_iter`` runs
    out.
    """
    a = sp.csr_matrix(stiffness)
    n = a.shape[0]
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has length {rhs.shape[0]}, expected {n}")
    if max_iter is None:
        max_iter = max(10 * n, 100)
    start = time.perf_counter()

    rhs_norm = _norm(rhs)
    if n == 0 or rhs_norm == 0.0:
        return SolveResult(x=np.zeros(n), iterations=0, relative_residual=0.0,
                           converged=True, residual_history=[],
                           wall_time=time.perf_counter() - start)

    def precondition(r):
        if preconditioner is None:
            return r.copy()
        return preconditioner.solve(r, refine=False)

    x = np.zeros(n)
    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = _dot(r, z)
    history: list[float] = []
    alphas: list[float] = []
    betas: list[float] = []
    converged = False
    iterations = 0

    for _ in range(max_iter):
        ap = a @ p
        pap = _dot(p, ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        res = _norm(r) / rhs_norm
        if res <= tol:
            r = rhs - a @ x
            res = _norm(r) / rhs_norm
            converged = res <= tol
        history.append(res)
        if converged:
            break
        z = precondition(r)
        rz_new = _dot(r, z)
        beta = rz_new / rz
        betas.append(beta)
        p = z + beta * p
        rz = rz_new

    # With no step taken x is still zero, whose residual is rhs itself.
    final = (history[-1] if converged
             else _norm(rhs - a @ x) / rhs_norm)
    if history:
        history[-1] = final
    ritz = _ritz_from_coefficients(alphas, betas[:max(len(alphas) - 1, 0)])
    est = None
    if ritz is not None and ritz.min() > 0:
        est = float(ritz.max() / ritz.min())
    return SolveResult(
        x=x,
        iterations=iterations,
        relative_residual=final,
        converged=converged,
        residual_history=history,
        ritz_values=ritz,
        estimated_condition=est,
        wall_time=time.perf_counter() - start,
    )


def cg_iteration_bound(kappa: float, tol: float) -> int:
    """Classic iteration bound for conjugate gradients, with a small safety pad."""
    return math.ceil(0.5 * math.sqrt(kappa) * math.log(2.0 / tol)) + 5

"""Support numbers and condition numbers for symmetric positive semidefinite pairs.

The support number of A with respect to B is the supremum of x^T A x / x^T B x
over x outside the nullspace of B.  It is finite exactly when the nullspace of
B sits inside the nullspace of A, and then equals the largest eigenvalue of
the pencil restricted to the range of B.  The product of the two directed
support numbers is the condition number governing preconditioned conjugate
gradient behavior when one matrix preconditions the other.

Element pencils need no eigensolve of their own: each has the spectrum of its
element's middle block, whose singular values the approximation already holds
(see ``chi_report``).  ``condition_pair`` solves small pencils, single or
stacked, densely and all at once.  The assembled pair is checked without
forming a dense matrix: one node of every floating component of Kbar is
grounded, which leaves an SPD pencil with the same eigenvalues off the
nullspace, and Lanczos iterations on sparse factors find its two extreme
eigenvalues.  The largest element support bounds the top one (the splitting
lemma), so where Kbar has no star leaves to eliminate the top eigenvalue
comes from shift-invert at that bound, once a factor has certified it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .dd_approx import HBlocks
from .errors import (ConsistencyError, EigensolverError, InfiniteSupportError,
                     SingularSystemError)
from .solver import KbarFactor, floating_components, leaf_rows, spd_splu

# Eigenvalues below this multiple of the largest count as nullspace; both the
# element matrices and their approximations carry exact constant nullspaces
# that arrive contaminated by roundoff at the 1e-16 scale.
NULLSPACE_RTOL = 1e-10

# Relative slack of every bound the chi chain and the global support check
# compare: the chain holds in exact arithmetic, so a violation beyond this can
# only come from a broken construction.
ORDER_RTOL = 1e-8

# Grounded pencils smaller than this are solved densely: ARPACK needs more
# unknowns than Lanczos vectors (20 by default), and below a few dozen
# unknowns a dense generalized solve costs less anyway.
LANCZOS_MIN_N = 32

# ARPACK's relative residual target.  Ritz values of a symmetric pencil are
# accurate to about the square of the residual, so this keeps the extreme
# eigenvalues far inside the 1e-10 agreement with a dense solve.
LANCZOS_TOL = 1e-10


@dataclass(frozen=True)
class PencilSpectrum:
    """Eigenvalues of SPSD pairs restricted off the shared nullspace.

    For a stack of pairs every field carries the stack's leading axes.
    """

    eigenvalues: np.ndarray
    support_ab: np.ndarray
    support_ba: np.ndarray
    kappa: np.ndarray


def _null_mask(w: np.ndarray, rtol: float) -> np.ndarray:
    """Which of the ascending eigenvalues w (..., n) count as nullspace."""
    top = w[..., -1:]
    return ~((w > rtol * top) & (top > 0.0))


def _check_annihilated(mat: np.ndarray, vecs: np.ndarray, null: np.ndarray,
                       rtol: float) -> None:
    # Every column of vecs flagged in null must be annihilated by mat.
    if not null.any():
        return
    scale = np.abs(mat).max(axis=(-2, -1))[..., None]
    size = np.maximum(np.linalg.norm(vecs, axis=-2), 1.0)
    bad = null & (np.linalg.norm(mat @ vecs, axis=-2) > rtol * scale * size)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        stacked = np.broadcast_to(vecs, bad.shape[:-1] + vecs.shape[-2:])
        raise InfiniteSupportError(stacked[idx[:-1]][:, idx[-1]].copy())


def condition_pair(a: np.ndarray, b: np.ndarray, *,
                   null_rtol: float = NULLSPACE_RTOL) -> PencilSpectrum:
    """Restricted pencil eigenvalues plus both directed support numbers.

    ``a`` and ``b`` are single matrices or stacks (..., n, n) that broadcast
    against each other, so one shared b serves a whole stack of a.  Requires
    every b block to have the same range rank and the two nullspaces to agree
    in every pair (checked in both directions), else InfiniteSupportError.
    The pencil restricted to the range of b is reduced by the Cholesky factor
    of its b part to a symmetric eigenproblem; the condition number is the
    spread of its eigenvalues.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    wb, vb = np.linalg.eigh(b)
    null_b = _null_mask(wb, null_rtol)
    rank = null_b.shape[-1] - null_b.sum(axis=-1)
    r = int(rank.max())
    if r == 0:
        raise InfiniteSupportError(vb.reshape(-1, *vb.shape[-2:])[0, :, 0].copy())
    if np.any(rank != r):
        raise InfiniteSupportError(None)
    _check_annihilated(a, vb, null_b, null_rtol)
    q = vb[..., -r:]                       # range basis: the top r eigenvectors
    qt = q.swapaxes(-1, -2)
    inv_chol = np.linalg.inv(np.linalg.cholesky(qt @ b @ q))
    reduced = inv_chol @ (qt @ a @ q) @ inv_chol.swapaxes(-1, -2)
    eig = np.linalg.eigvalsh(0.5 * (reduced + reduced.swapaxes(-1, -2)))
    wa, va = np.linalg.eigh(a)
    _check_annihilated(b, va, _null_mask(wa, null_rtol), null_rtol)
    lam_max = eig[..., -1]
    lam_min = eig[..., 0]
    if np.any(lam_min <= 0.0):
        raise InfiniteSupportError(None)
    return PencilSpectrum(
        eigenvalues=eig,
        support_ab=lam_max,
        support_ba=1.0 / lam_min,
        kappa=lam_max / lam_min,
    )


def chi_report(h_blocks: HBlocks, quality) -> None:
    """Check the chain chi1 = chi2 <= chi3_t <= chi3.

    Element t's approximation is Kbar_t = s_t A^T A with A the onto star
    incidence, while K_t = A^T (s_t H_t) A.  On the range of A^T the pencil
    (K_t, Kbar_t) therefore has exactly the eigenvalues of H_t, the squared
    singular values of the scaled block (Boman & Hendrickson's splitting
    lemma).  So chi1 is chi2, the condition of H_t, and the directed supports
    are sigma_max^2 and 1/sigma_min^2; all of them are read from ``h_blocks``,
    and the analytic bounds chi3_t and chi3 from the ``quality`` report.
    A smallest singular value that is not finite and positive leaves Kbar_t
    without support over K_t and raises InfiniteSupportError.

    The chain chi2 <= chi3_t <= chi3 holds in exact arithmetic; a violation
    beyond ``ORDER_RTOL`` relative slack raises ConsistencyError naming the
    first offending element, since it can only come from a broken
    construction.
    """
    sigma_min = h_blocks.sigma_min
    if not np.all(np.isfinite(sigma_min) & (sigma_min > 0.0)):
        raise InfiniteSupportError(None)
    chi2 = h_blocks.kappa_per_element
    chi3_elem = quality.chi3_element

    slack = 1.0 + ORDER_RTOL
    links = [
        ("middle-block condition", chi2, "its analytic bound", chi3_elem),
        ("local analytic bound", chi3_elem, "the mesh-level bound",
         np.full_like(chi3_elem, quality.chi3)),
    ]
    broken = np.array([lower > upper * slack for _, lower, _, upper in links])
    if broken.any():
        t = int(np.flatnonzero(broken.any(axis=0))[0])
        name, lower, bound, upper = links[int(np.argmax(broken[:, t]))]
        raise ConsistencyError(f"element {t + 1}: {name} {lower[t]:.6g} exceeds "
                               f"{bound} {upper[t]:.6g}")


@dataclass(frozen=True)
class GlobalSupportReport:
    """Verification of the assembled pair against element-wise bounds."""

    sigma_k_kbar: float
    sigma_kbar_k: float
    kappa: float
    max_element_sigma_k_kbar: float
    max_element_sigma_kbar_k: float
    splitting_ok: bool
    condition_bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.splitting_ok and self.condition_bound_ok


def _grounded_pair(stiffness, kbar):
    """K and Kbar with one node of every floating Kbar component deleted.

    Kbar's nullspace is spanned by the indicators of its floating components;
    K must annihilate each of them (InfiniteSupportError otherwise).  Both
    quadratic forms are then invariant under adding a multiple of an
    indicator, so fixing one node per component to zero keeps exactly the
    pencil's eigenvalues off the nullspace.
    """
    labels, floating = floating_components(kbar)
    keep = np.ones(stiffness.shape[0], dtype=bool)
    scale = float(np.abs(stiffness.data).max(initial=0.0))
    for comp in floating:
        members = np.flatnonzero(labels == comp)
        unit = np.zeros(stiffness.shape[0])
        unit[members] = 1.0 / np.sqrt(members.size)
        if np.linalg.norm(stiffness @ unit) > NULLSPACE_RTOL * scale:
            raise InfiniteSupportError(unit)
        keep[members[0]] = False
    if not keep.any():
        raise InfiniteSupportError(None)
    return stiffness[keep][:, keep], kbar[keep][:, keep]


def _solve_operator(factor: KbarFactor) -> spla.LinearOperator:
    # ARPACK only needs the backward-stable LU solve: refinement improves the
    # forward error, which does not move the eigenvalues, at twice the cost.
    return spla.LinearOperator((factor.n, factor.n),
                               lambda x: factor.solve(x, refine=False))


def _certified_shift_factor(a, b, shift: float):
    """SuperLU factor of shift*b - a if it proves lambda_max(a, b) < shift, else None.

    The factor runs without pivoting under a symmetric ordering.  When its
    row and column permutations agree it is P (shift*b - a) P^T = L U with L
    unit lower triangular, so U's diagonal holds the pivots of an L D L^T
    congruence and, by Sylvester's law of inertia, all of them are positive
    exactly when shift*b - a is positive definite.
    """
    try:
        lu = spd_splu((shift * b - a).tocsc())
    except RuntimeError:
        # An exactly zero pivot: shift*b - a is singular.
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all():
        return lu
    return None


def _top_eigenvalue(a, b, upper: float, v0: np.ndarray) -> float:
    """Largest eigenvalue of the SPD pencil (a, b), given a likely bound above it.

    When b would be factored whole (no star leaves to eliminate, see
    ``leaf_rows``) and shift = upper * (1 + ORDER_RTOL) certifies itself as
    an upper bound (``_certified_shift_factor``), Lanczos runs on
    (a - shift*b)^-1 b, whose largest-magnitude eigenvalue belongs to the
    eigenvalue of (a, b) nearest below the shift, the largest one.  The
    transform spreads out the top of the spectrum, where b^-1 a bunches up,
    so it needs fewer solves.  Otherwise Lanczos runs on b^-1 a through a
    ``KbarFactor`` of b.  Either factor is freed on return.
    """
    shift = upper * (1.0 + ORDER_RTOL)
    lu = _certified_shift_factor(a, b, shift) if leaf_rows(b) is None else None
    if lu is not None:
        neg_inverse = spla.LinearOperator(a.shape, lambda x: -lu.solve(x))
        top = spla.eigsh(a, k=1, M=b, sigma=shift, which="LM", v0=v0,
                         tol=LANCZOS_TOL, OPinv=neg_inverse,
                         return_eigenvectors=False)
    else:
        top = spla.eigsh(a, k=1, M=b, which="LA", v0=v0, tol=LANCZOS_TOL,
                         Minv=_solve_operator(KbarFactor(b)),
                         return_eigenvectors=False)
    return float(top[0])


def _extreme_eigenvalues(a, b, upper: float) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the SPD pencil (a, b).

    ``upper`` is the expected bound on the largest eigenvalue (the worst
    element support of the splitting lemma); the top comes from
    ``_top_eigenvalue``, which uses it as a shift when it can certify it and
    is otherwise independent of it.  The bottom comes from shift-invert
    Lanczos at zero on a sparse factor of a, built only after the top's
    factor is freed, so at most one factor is held at a time.  Small pencils
    go to a dense solve.
    """
    n = a.shape[0]
    if n < LANCZOS_MIN_N:
        try:
            w = scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True)
        except np.linalg.LinAlgError as exc:
            # b is not positive definite: a nullspace beyond the indicators.
            raise InfiniteSupportError(None) from exc
        return float(w[0]), float(w[-1])
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    try:
        top = _top_eigenvalue(a, b, upper, v0)
        try:
            a_factor = KbarFactor(a)
        except (SingularSystemError, RuntimeError) as exc:
            # RuntimeError: splu met an exactly singular pivot.
            raise InfiniteSupportError(None) from exc
        bottom = spla.eigsh(a, k=1, M=b, sigma=0.0, which="LM", v0=v0,
                            tol=LANCZOS_TOL,
                            OPinv=_solve_operator(a_factor),
                            return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise EigensolverError(f"Lanczos eigensolver failed: {exc}") from exc
    return float(bottom[0]), top


def global_support_check(stiffness, kbar, h_blocks: HBlocks) -> GlobalSupportReport:
    """Check that assembled support numbers obey the element-wise maxima.

    Verifies the splitting bound (each directed global support is at most the
    worst element value, max sigma_max^2 or max 1/sigma_min^2 of ``h_blocks``)
    and the middle-matrix route (the global pair condition is at most
    ``h_blocks.kappa_global``, the condition of the block-diagonal H).

    Kbar's nullspace is removed by grounding one node of each floating
    component (see ``_grounded_pair``), which leaves an SPD pencil with the
    same eigenvalues; only its two extreme eigenvalues are needed, and they
    come from Lanczos iterations on sparse factors (``_extreme_eigenvalues``).
    The worst element support of K over Kbar serves as the shift of the top
    one where it certifies itself as a bound; when it does not (the splitting
    bound is broken), regular-mode Lanczos on Kbar^-1 K still finds the top
    eigenvalue and the report says so.  A nullspace of K that Kbar does not
    share shows as a grounded K that will not factor or a smallest eigenvalue
    below ``NULLSPACE_RTOL`` times the largest, and raises
    InfiniteSupportError, as does an H block without a positive sigma_min.
    Both bounds allow ``ORDER_RTOL`` relative slack.  A Lanczos run that fails
    (ARPACK's non-convergence included) raises EigensolverError.
    """
    # Squaring and inverting are monotone: these are the per-element maxima.
    top, bottom = float(h_blocks.sigma_max.max()), float(h_blocks.sigma_min.min())
    if not bottom * bottom > 0.0:
        raise InfiniteSupportError(None)
    max_ab, max_ba = top * top, 1.0 / (bottom * bottom)
    lam_min, lam_max = _extreme_eigenvalues(*_grounded_pair(stiffness, kbar),
                                            max_ab)
    if not lam_min > NULLSPACE_RTOL * lam_max:
        raise InfiniteSupportError(None)
    sigma_ab, sigma_ba, kappa = lam_max, 1.0 / lam_min, lam_max / lam_min
    return GlobalSupportReport(
        sigma_k_kbar=sigma_ab,
        sigma_kbar_k=sigma_ba,
        kappa=kappa,
        max_element_sigma_k_kbar=max_ab,
        max_element_sigma_kbar_k=max_ba,
        splitting_ok=(sigma_ab <= max_ab * (1.0 + ORDER_RTOL)
                      and sigma_ba <= max_ba * (1.0 + ORDER_RTOL)),
        condition_bound_ok=kappa <= h_blocks.kappa_global * (1.0 + ORDER_RTOL),
    )

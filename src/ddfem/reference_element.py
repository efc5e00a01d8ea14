"""Reference simplex, nodal shape functions, and gradient sample matrices.

The reference element is the unit d-simplex carrying an evenly spaced lattice
of nodes.  Each node owns the unique polynomial of total degree <= p that is
1 there and 0 at every other node.  Coefficients are obtained once per (d, p)
by solving the interpolation system against the monomial basis, which keeps a
single code path for linear and quadratic elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradientSampleRankError, UnsupportedConfigError

SUPPORTED_DIMENSIONS = (2, 3)
SUPPORTED_ORDERS = (1, 2)

# Smallest singular value below this multiple of the largest is treated as zero.
RANK_RTOL = 1e-10


def node_count(d: int, p: int) -> int:
    """Number of lattice nodes of the order-p unit d-simplex."""
    if d == 2:
        return (p + 1) * (p + 2) // 2
    return (p + 1) * (p + 2) * (p + 3) // 6


def _lattice_indices(d: int, p: int) -> list[tuple[int, ...]]:
    # Last coordinate most significant; the origin comes first and the corner
    # vertices appear in axis order, which fixes a reproducible node 1.
    if d == 2:
        return [(i, j) for j in range(p + 1) for i in range(p + 1 - j)]
    return [
        (i, j, k)
        for k in range(p + 1)
        for j in range(p + 1 - k)
        for i in range(p + 1 - k - j)
    ]


def _monomial_exponents(d: int, p: int) -> list[tuple[int, ...]]:
    exps: list[tuple[int, ...]] = []
    for total in range(p + 1):
        if d == 2:
            exps.extend((a, total - a) for a in range(total, -1, -1))
        else:
            for a in range(total, -1, -1):
                exps.extend((a, b, total - a - b) for b in range(total - a, -1, -1))
    return exps


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """Unit d-simplex with nodal degree-p shape functions.

    Attributes
    ----------
    d, p : int
        Space dimension and polynomial order.
    l : int
        Node count, (p+1)(p+2)/2 in 2D and (p+1)(p+2)(p+3)/6 in 3D.
    ref_nodes : ndarray, shape (l, d)
        Lattice node coordinates, origin vertex first.
    exponents : ndarray, shape (l, d)
        Monomial exponent rows spanning total degree <= p.
    coefficients : ndarray, shape (l, l)
        Column mu-1 holds the monomial coefficients of shape function mu.
    """

    d: int
    p: int
    l: int
    ref_nodes: np.ndarray
    exponents: np.ndarray
    coefficients: np.ndarray


@dataclass(frozen=True, eq=False)
class SqpMatrix:
    """Stack of shape-gradient samples at the Gauss points.

    Row block k holds the gradients of shape functions 2..l evaluated at
    Gauss point k, so the matrix has shape (d*q, l-1).  Its extreme singular
    values control how well conditioned the stiffness factorization is.
    """

    entries: np.ndarray
    sigma_qp: float
    tau_qp: float


def make_reference(d: int, p: int) -> ReferenceElement:
    """Build the reference d-simplex of order p.

    Parameters
    ----------
    d : int
        Space dimension, 2 or 3.
    p : int
        Polynomial order, 1 or 2.

    Raises
    ------
    UnsupportedConfigError
        If the (d, p) pair is outside the supported set.
    """
    if d not in SUPPORTED_DIMENSIONS or p not in SUPPORTED_ORDERS:
        raise UnsupportedConfigError(
            f"unsupported reference element (d={d}, p={p}); "
            f"supported d in {SUPPORTED_DIMENSIONS}, p in {SUPPORTED_ORDERS}"
        )
    lattice = np.array(_lattice_indices(d, p), dtype=float)
    nodes = lattice / p
    exps = np.array(_monomial_exponents(d, p), dtype=int)
    l = node_count(d, p)
    assert nodes.shape == (l, d) and exps.shape == (l, d)

    # Interpolation (Vandermonde) system: V[r, c] = node_r ** exponent_c.
    vander = np.ones((l, l))
    for c, e in enumerate(exps):
        for axis in range(d):
            vander[:, c] *= nodes[:, axis] ** e[axis]
    coefficients = np.linalg.solve(vander, np.eye(l))
    return ReferenceElement(d=d, p=p, l=l, ref_nodes=nodes, exponents=exps,
                            coefficients=coefficients)


def _monomial_values(elem: ReferenceElement, z: np.ndarray) -> np.ndarray:
    vals = np.ones(elem.l)
    for c, e in enumerate(elem.exponents):
        for axis in range(elem.d):
            if e[axis]:
                vals[c] *= z[axis] ** e[axis]
    return vals


def _monomial_gradients(elem: ReferenceElement, z: np.ndarray) -> np.ndarray:
    grads = np.zeros((elem.l, elem.d))
    for c, e in enumerate(elem.exponents):
        for axis in range(elem.d):
            if e[axis] == 0:
                continue
            g = float(e[axis])
            for other in range(elem.d):
                power = e[other] - (1 if other == axis else 0)
                if power:
                    g *= z[other] ** power
            grads[c, axis] = g
    return grads


def shape_values(elem: ReferenceElement, z) -> np.ndarray:
    """All l shape functions evaluated at a point, as a length-l vector."""
    z = np.asarray(z, dtype=float)
    return _monomial_values(elem, z) @ elem.coefficients


def shape_gradients(elem: ReferenceElement, z) -> np.ndarray:
    """Gradients of all l shape functions at a point, shape (l, d)."""
    z = np.asarray(z, dtype=float)
    return elem.coefficients.T @ _monomial_gradients(elem, z)


def build_sqp(elem: ReferenceElement, quad) -> SqpMatrix:
    """Assemble the gradient sample matrix for a quadrature rule.

    Row block k (rows k*d .. k*d+d-1) holds column mu-2 = gradient of shape
    function mu at Gauss point k, for mu = 2..l.  The extreme singular values
    are computed along with the matrix; a smallest singular value below
    ``RANK_RTOL`` times the largest means the rule cannot see all gradient
    degrees of freedom and is rejected.

    Raises
    ------
    UnsupportedConfigError
        If the rule lives in a different dimension than the element.
    GradientSampleRankError
        If the assembled matrix is numerically rank deficient.
    """
    if quad.d != elem.d:
        raise UnsupportedConfigError(
            f"quadrature rule dimension {quad.d} does not match element dimension {elem.d}"
        )
    q = len(quad.weights)
    entries = np.zeros((elem.d * q, elem.l - 1))
    for k in range(q):
        grads = shape_gradients(elem, quad.points[k])
        entries[k * elem.d:(k + 1) * elem.d, :] = grads[1:, :].T
    singular = np.linalg.svd(entries, compute_uv=False)
    sigma = float(singular.max())
    # Column rank needs l-1 nonzero singular values; a matrix with fewer rows
    # than columns is rank deficient no matter what the svd returns.
    tau = float(singular.min()) if entries.shape[0] >= entries.shape[1] else 0.0
    if tau < RANK_RTOL * sigma:
        raise GradientSampleRankError(tau, sigma)
    return SqpMatrix(entries=entries, sigma_qp=sigma, tau_qp=tau)

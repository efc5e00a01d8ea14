"""Independent reference computations for the test suite.

Nothing here shares code with the package: shape functions come from the
textbook barycentric formulas, pencil eigenvalues from an explicit
inverse-square-root construction, and exact element integrals from the
factorial formula applied to hand-expanded integrands.

The per-element loops below are the element-by-element formulas the package
evaluates on stacked arrays: geometry and stiffness per Gauss point, the
compression/stretch scalars, the middle blocks, a dense scipy pencil per
element and dictionary scatter assembly.  They take data (node coordinates,
shape tables, weights) as input and use only numpy and scipy.

The one exception is ``dense_global_support``: the restricted pencil of the
whole assembled pair, solved densely by the package's stacked
``condition_pair`` (itself checked against ``restricted_pencil_eigenvalues``),
as a reference for the grounded sparse global support check.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from ddfem.spectral import condition_pair


def barycentric(d, z):
    z = np.asarray(z, dtype=float)
    return np.concatenate([[1.0 - z.sum()], z])


def closed_form_shapes(d, p, z):
    """Classic nodal polynomial values in the package's node order."""
    b = barycentric(d, z)
    if p == 1:
        return b
    if d == 2:
        b0, b1, b2 = b
        return np.array([
            b0 * (2 * b0 - 1),       # (0, 0)
            4 * b0 * b1,             # (1/2, 0)
            b1 * (2 * b1 - 1),       # (1, 0)
            4 * b0 * b2,             # (0, 1/2)
            4 * b1 * b2,             # (1/2, 1/2)
            b2 * (2 * b2 - 1),       # (0, 1)
        ])
    b0, b1, b2, b3 = b
    return np.array([
        b0 * (2 * b0 - 1),           # (0, 0, 0)
        4 * b0 * b1,                 # (1/2, 0, 0)
        b1 * (2 * b1 - 1),           # (1, 0, 0)
        4 * b0 * b2,                 # (0, 1/2, 0)
        4 * b1 * b2,                 # (1/2, 1/2, 0)
        b2 * (2 * b2 - 1),           # (0, 1, 0)
        4 * b0 * b3,                 # (0, 0, 1/2)
        4 * b1 * b3,                 # (1/2, 0, 1/2)
        4 * b2 * b3,                 # (0, 1/2, 1/2)
        b3 * (2 * b3 - 1),           # (0, 0, 1)
    ])


def restricted_pencil_eigenvalues(a, b, null_rtol=1e-10):
    """Brute-force eigenvalues of the pair restricted to the range of b.

    Builds an orthonormal range basis Q of b, then the symmetric eigenvalues
    of (Q^T b Q)^(-1/2) Q^T a Q (Q^T b Q)^(-1/2).
    """
    w, v = np.linalg.eigh(np.asarray(b, dtype=float))
    keep = w > null_rtol * w[-1]
    q = v[:, keep]
    b_r = q.T @ b @ q
    wb, vb = np.linalg.eigh(b_r)
    inv_sqrt = vb @ np.diag(1.0 / np.sqrt(wb)) @ vb.T
    mid = inv_sqrt @ (q.T @ a @ q) @ inv_sqrt
    return np.linalg.eigvalsh(mid)


def exact_p1_element_stiffness(coords, theta=1.0):
    """Exactly integrated order-1 element matrix from constant gradients.

    For an affine simplex the physical gradients are rows of the inverse
    Jacobian applied to the reference gradients, and the integrand is
    constant, so the matrix is theta * measure * G G^T.
    """
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[1]
    jac = (coords[1:] - coords[0]).T
    det = np.linalg.det(jac)
    measure = det / (2.0 if d == 2 else 6.0)
    ref_grads = np.vstack([-np.ones((1, d)), np.eye(d)])     # (d+1, d)
    phys = ref_grads @ np.linalg.inv(jac)
    return theta * measure * (phys @ phys.T)


def random_psd_pair(rng, n, rank):
    """SPSD (a, b) with identical nullspaces, via a shared column space."""
    v = rng.standard_normal((n, rank))
    h_half = rng.standard_normal((rank, rank))
    h = h_half @ h_half.T + 0.1 * np.eye(rank)
    a = v @ h @ v.T
    b = v @ v.T
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def loop_element_geometry(coords, vals, grads, theta_at):
    """One element's Jacobians, inverse transposes, determinants, conductivities.

    ``coords`` (l, d) node positions, ``vals`` (q, l) and ``grads`` (q, l, d)
    reference shape tables, ``theta_at`` the conductivity at a point.
    """
    q, d = len(grads), coords.shape[1]
    jac = np.empty((q, d, d))
    inv_t = np.empty((q, d, d))
    dets = np.empty(q)
    theta = np.empty(q)
    for k in range(q):
        jac[k] = coords.T @ grads[k]
        dets[k] = np.linalg.det(jac[k])
        inv_t[k] = np.linalg.inv(jac[k]).T
        theta[k] = theta_at(coords.T @ vals[k])
    return jac, inv_t, dets, theta


def loop_element_stiffness(inv_t, dets, theta, weights, grads):
    """Dense element matrix summed Gauss point by Gauss point."""
    l = grads.shape[1]
    out = np.zeros((l, l))
    for k in range(len(weights)):
        phys = inv_t[k] @ grads[k].T
        out += weights[k] * theta[k] * dets[k] * (phys.T @ phys)
    return out


def transpose_matmul_stiffness(inv_t, dets, theta, weights, grads):
    """Stacked element matrices as weighted physical gradients times their transpose.

    ``inv_t`` (m, q, d, d), ``dets`` and ``theta`` (m, q), ``weights`` (q,)
    and ``grads`` (q, l, d).  Each element's physical gradients at all Gauss
    points form an (l, q*d) matrix P, and K_t = (P diag(w)) P^T, averaged
    with its transpose.
    """
    phys = grads @ inv_t.swapaxes(-1, -2)                    # (m, q, l, d)
    w = weights * theta * dets                               # (m, q)
    m, q, l, d = phys.shape
    right = phys.transpose(0, 2, 1, 3).reshape(m, l, q * d)
    left = (w[:, :, None, None] * phys).transpose(0, 2, 1, 3).reshape(m, l, q * d)
    out = left @ right.swapaxes(1, 2)
    return 0.5 * (out + out.swapaxes(1, 2))


def loop_alpha_beta(jac, inv_t):
    """Worst inverse-Jacobian and Jacobian 2-norms over the Gauss points."""
    alpha = max(np.linalg.norm(g, 2) for g in inv_t)
    beta = max(np.linalg.norm(g, 2) for g in jac)
    return alpha, beta


def loop_h_block(inv_t, dets, theta, weights, samples, min_weight):
    """Normalized middle block H of one element from its Gauss-point data.

    ``samples`` is the (d*q, l-1) gradient sample matrix.  The diagonal
    replacement scalar is min_weight * min theta * min det * alpha^2.
    """
    q, d = len(weights), inv_t.shape[1]
    alpha = max(np.linalg.norm(g, 2) for g in inv_t)
    j = np.vstack([(inv_t[k] / alpha) @ samples[k * d:(k + 1) * d]
                   for k in range(q)])
    diag = np.repeat(alpha ** 2 * theta * dets * weights, d)
    scalar = min_weight * theta.min() * dets.min() * alpha ** 2
    scaled = np.sqrt(diag)[:, None] * j / np.sqrt(scalar)
    return scaled.T @ scaled, scalar


def dense_pencil_kappa(a, b, null_rtol=1e-10):
    """Condition number of (a, b) restricted to the range of b, via scipy eigh."""
    w, v = np.linalg.eigh(b)
    q = v[:, w > null_rtol * w[-1]]
    eig = scipy.linalg.eigh(q.T @ a @ q, q.T @ b @ q, eigvals_only=True)
    return eig[-1] / eig[0]


def dense_global_support(stiffness, kbar, null_rtol=1e-10):
    """(sigma(K, Kbar), sigma(Kbar, K), kappa) from dense n x n eigen-solves.

    Raises InfiniteSupportError when the two nullspaces differ.
    """
    pencil = condition_pair(stiffness.toarray()[None], kbar.toarray()[None],
                            null_rtol=null_rtol)
    return (float(pencil.support_ab[0]), float(pencil.support_ba[0]),
            float(pencil.kappa[0]))


def _upper_dict_to_csr(n, upper):
    rows, cols, data = [], [], []
    for (i, j), v in upper.items():
        rows.append(i)
        cols.append(j)
        data.append(v)
        if i != j:
            rows.append(j)
            cols.append(i)
            data.append(v)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def dict_scatter(n, elements, blocks):
    """Symmetric CSR from element blocks, one dict entry per unordered pair."""
    upper = {}
    for ids, block in zip(elements, blocks):
        for a in range(len(ids)):
            for b in range(a, len(ids)):
                i, j = ids[a], ids[b]
                if i < n and j < n:
                    key = (min(i, j), max(i, j))
                    upper[key] = upper.get(key, 0.0) + block[a, b]
    return _upper_dict_to_csr(n, upper)


def dict_star_laplacian(n, elements, scalars):
    """Kbar scattered arc by arc: each star arc joins local node 1 to node mu."""
    upper = {}

    def add(i, j, v):
        key = (min(i, j), max(i, j))
        upper[key] = upper.get(key, 0.0) + v

    for ids, s in zip(elements, scalars):
        tail = ids[0]
        for head in ids[1:]:
            if tail < n:
                add(tail, tail, s)
            if head < n:
                add(head, head, s)
            if tail < n and head < n:
                add(tail, head, -s)
    return _upper_dict_to_csr(n, upper)


def coo_mirrored_csr(n, rows, cols, vals):
    """Symmetric CSR from upper-triangle triplets by two COO -> CSR passes.

    The first pass sums duplicates; the second converts the upper entries
    plus a copy of each strictly upper one below the diagonal, and sorts
    every row.
    """
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr().tocoo()
    off = upper.row != upper.col
    return sp.csr_matrix(
        (np.concatenate([upper.data, upper.data[off]]),
         (np.concatenate([upper.row, upper.col[off]]),
          np.concatenate([upper.col, upper.row[off]]))),
        shape=(n, n))


def averaged_tensor_stiffness(inv_t, dets, theta, weights, grads):
    """Element matrices by the reference tensor, made symmetric by averaging.

    The metric entries of J^-1 J^-T are summed over the rows with ``.sum``,
    weighted, and mapped to each (l, l) block by one stacked product with
    the reference tensor of the shape gradients; each block is then replaced
    by 0.5 (K_t + K_t^T).
    """
    m, q, d, _ = inv_t.shape
    l = grads.shape[1]
    iu, ju = np.triu_indices(d)
    metric = (inv_t[..., iu] * inv_t[..., ju]).sum(axis=-2)
    w = weights * theta * dets
    coef = (w[..., None] * metric).reshape(m, 1, -1)
    outer = grads[:, :, None, :, None] * grads[:, None, :, None, :]
    tensor = outer[..., iu, ju] + np.where(iu != ju, outer[..., ju, iu], 0.0)
    out = (coef @ tensor.transpose(0, 3, 1, 2).reshape(-1, l * l)).reshape(m, l, l)
    return 0.5 * (out + out.swapaxes(1, 2))


def int64_stiffness_triplets(n, elements, element_k):
    """Upper-triangle triplets (rows, cols, vals) of K, indices as int64.

    Entry (a, b), a <= b, of every element matrix, element by element in
    row-major order, where both nodes are free (index below n).
    """
    ids = np.asarray(elements, dtype=np.int64)
    a, b = np.triu_indices(ids.shape[1])
    rows, cols, vals = ids[:, a], ids[:, b], element_k[:, a, b]
    keep = (rows < n) & (cols < n)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return np.minimum(rows, cols), np.maximum(rows, cols), vals


def int64_star_triplets(arcs, scalars, l):
    """Upper-triangle triplets (rows, cols, vals) of the star Laplacian, int64.

    ``arcs`` holds (tail, head) per arc, -1 for a constrained end, l - 1
    arcs per element.  First each free tail's and then each free head's
    diagonal term, then -scalar at (min, max) of every arc with two free ends.
    """
    tail, head = (np.asarray(arcs[:, 0], dtype=np.int64),
                  np.asarray(arcs[:, 1], dtype=np.int64))
    s = np.repeat(scalars, l - 1)
    both = (tail >= 0) & (head >= 0)
    ends = np.concatenate([tail, head])
    on_diag = ends >= 0
    rows = np.concatenate([ends[on_diag], np.minimum(tail, head)[both]])
    cols = np.concatenate([ends[on_diag], np.maximum(tail, head)[both]])
    vals = np.concatenate([np.tile(s, 2)[on_diag], -s[both]])
    return rows, cols, vals

"""Element mappings, quadrature-based stiffness assembly, and load vectors.

The element map is the degree-p interpolant of the element's node positions,
so its Jacobian at a reference point z is sum_mu node_mu (x) grad N_mu(z).
Entry (i, j) of the assembled matrix sums, over elements containing both
nodes and over Gauss points,

    [J^-T grad N_mu] . theta [J^-T grad N_nu] det(J) omega_k,

with J the Jacobian at the Gauss point.  Every element quantity is computed
for all elements at once as a stacked array with the element index leading.
Element matrices (at most 10 x 10 each) are summed into the upper triangle in
one COO pass and mirrored (``mirrored_csr``), so the result is a
``scipy.sparse.csr_matrix`` that is symmetric by construction.
``save_matrix_text`` and ``load_matrix_text`` write and read such a matrix as
its upper-triangle entries in the ``ddfem-matrix v1`` text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ElementOrientationError, MeshFormatError, UnsupportedConfigError
from .mesh import ConductivityField, Mesh, eval_conductivity
from .quadrature import QuadratureRule
from .reference_element import ReferenceElement, shape_gradients, shape_values

# An element counts as degenerate when |det| falls below this multiple of the
# Jacobian's own scale to the d-th power.
DEGENERACY_RTOL = 1e-14

MATRIX_HEADER = "ddfem-matrix v1"

# Most elements whose matrices ``assemble_global`` computes at once.
ASSEMBLY_CHUNK = 512


@dataclass(frozen=True, eq=False)
class ElementGeometry:
    """Per-Gauss-point geometry of every element map, element index leading."""

    jacobians: np.ndarray            # (m, q, d, d)
    inverse_transposes: np.ndarray   # (m, q, d, d)
    dets: np.ndarray                 # (m, q)
    theta_vals: np.ndarray           # (m, q)


def index_dtype(n: int) -> type:
    """Triplet index type for node indices below n: int32, as scipy stores them."""
    return np.int32 if n < 2 ** 31 else np.int64


def mirrored_csr(n: int, rows, cols, vals) -> sp.csr_matrix:
    """Symmetric n x n CSR from upper-triangle triplets (row <= col); duplicates add up."""
    # Sum the upper-triangle triplets, then put in front of each row the
    # strictly upper entries of its column: both halves hold the same
    # floating-point value.  The transposed strict part (a counting-sort
    # CSR -> CSC pass) and the upper rows are each column-sorted, and every
    # lower column is below every upper one, so the rows need no sorting.
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    row_of = np.repeat(np.arange(n, dtype=upper.indices.dtype),
                       np.diff(upper.indptr))
    off = upper.indices != row_of
    strict_ptr = np.zeros_like(upper.indptr)
    np.cumsum(np.bincount(row_of[off], minlength=n), out=strict_ptr[1:])
    lower = sp.csr_matrix((upper.data[off], upper.indices[off], strict_ptr),
                          shape=(n, n)).tocsc()
    # Row i of the result starts at lower.indptr[i] + upper.indptr[i]: its
    # lower part first, then its upper part.
    up_ptr, lo_ptr = upper.indptr, lower.indptr
    lo_pos = np.arange(lower.nnz) + np.repeat(up_ptr[:-1], np.diff(lo_ptr))
    up_pos = np.arange(upper.nnz) + np.repeat(lo_ptr[1:], np.diff(up_ptr))
    indices = np.empty(lower.nnz + upper.nnz, dtype=upper.indices.dtype)
    data = np.empty(indices.size)
    indices[lo_pos], indices[up_pos] = lower.indices, upper.indices
    data[lo_pos], data[up_pos] = lower.data, upper.data
    return sp.csr_matrix((data, indices, lo_ptr + up_ptr), shape=(n, n))


def save_matrix_text(matrix: sp.csr_matrix, target) -> None:
    """Write the upper triangle of a symmetric matrix, one sorted ``entry`` line each."""
    n = matrix.shape[0]
    upper = sp.triu(matrix, format="csr")
    upper.sort_indices()
    rows = np.repeat(np.arange(1, n + 1), np.diff(upper.indptr))
    entries = zip(rows.tolist(), (upper.indices + 1).tolist(), upper.data.tolist())
    text = (f"{MATRIX_HEADER} n={n} symmetric=upper\n"
            + ("entry %d %d %.17g\n" * upper.nnz) % tuple(chain.from_iterable(entries)))
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)


def load_matrix_text(source) -> sp.csr_matrix:
    """Read a matrix file (a path, its text or an open file) as a symmetric CSR.

    Raises MeshFormatError with the line number of the first bad header,
    entry line, out-of-range index, non-finite value or duplicate entry.
    ``save_matrix_text`` writes every diagonal entry, so a header ``n``
    above the number of entry lines is a bad header, rejected before any
    array of n rows is allocated.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if not lines:
        raise MeshFormatError("empty matrix file", line=1)
    head = lines[0].split()
    if (len(head) != 4 or " ".join(head[:2]) != MATRIX_HEADER
            or not head[2].startswith("n=") or head[3] != "symmetric=upper"):
        raise MeshFormatError(f"bad header {lines[0]!r}", line=1)
    try:
        n = int(head[2].removeprefix("n="))
    except ValueError:
        n = -1   # rejected with the negative sizes below
    if n < 0:
        raise MeshFormatError(f"bad header {lines[0]!r}", line=1)
    records = [(ln, raw) for ln, raw in enumerate(lines[1:], start=2)
               if raw.strip() and not raw.strip().startswith("#")]
    if n > len(records):
        raise MeshFormatError(
            f"bad header {lines[0]!r}: n={n} exceeds the {len(records)} entry "
            f"lines, and every diagonal entry has one", line=1)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    seen: set[tuple[int, int]] = set()
    for ln, raw in records:
        tok = raw.split()
        if len(tok) != 4 or tok[0] != "entry":
            raise MeshFormatError(f"bad entry line {raw!r}", line=ln)
        try:
            i, j, v = int(tok[1]) - 1, int(tok[2]) - 1, float(tok[3])
        except ValueError:
            raise MeshFormatError(f"bad entry line {raw!r}", line=ln) from None
        if not (0 <= i <= j < n):
            raise MeshFormatError(f"entry indices out of range in {raw!r}", line=ln)
        if not np.isfinite(v):
            raise MeshFormatError(f"non-finite entry value in {raw!r}", line=ln)
        if (i, j) in seen:
            raise MeshFormatError(f"duplicate entry {i + 1} {j + 1}", line=ln)
        seen.add((i, j))
        rows.append(i)
        cols.append(j)
        vals.append(v)
    dtype = index_dtype(n)
    return mirrored_csr(n, np.array(rows, dtype=dtype), np.array(cols, dtype=dtype),
                        np.array(vals, dtype=float))


def _det_small(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2 x 2 or 3 x 3 matrices (closed form)."""
    if m.shape[-1] == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def _inverse_transpose_small(m: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverse transposes of a stack of 2 x 2 or 3 x 3 matrices (cofactors / det)."""
    cof = np.empty_like(m)
    if m.shape[-1] == 2:
        cof[..., 0, 0] = m[..., 1, 1]
        cof[..., 0, 1] = -m[..., 1, 0]
        cof[..., 1, 0] = -m[..., 0, 1]
        cof[..., 1, 1] = m[..., 0, 0]
    else:
        for r in range(3):
            r1, r2 = (r + 1) % 3, (r + 2) % 3
            for c in range(3):
                c1, c2 = (c + 1) % 3, (c + 2) % 3
                cof[..., r, c] = (m[..., r1, c1] * m[..., r2, c2]
                                  - m[..., r1, c2] * m[..., r2, c1])
    # inverse = cof^T / det, so inverse-transpose = cof / det
    return cof / det[..., None, None]


def reference_tables(ref: ReferenceElement, rule: QuadratureRule):
    """Shape values (q, l) and gradients (q, l, d) at the Gauss points."""
    vals = np.array([shape_values(ref, r) for r in rule.points])
    grads = np.array([shape_gradients(ref, r) for r in rule.points])
    return vals, grads


def element_geometry(mesh: Mesh, ref: ReferenceElement, rule: QuadratureRule,
                     theta: ConductivityField, tables=None) -> ElementGeometry:
    """Jacobians, inverse transposes, determinants and conductivities of all elements.

    Raises ElementOrientationError for the first element and Gauss point
    whose determinant is not finite, not positive, or vanishing relative to
    the Jacobian scale (compared exactly at unit scale, with no overflow),
    and lets the conductivity field's own positivity error propagate.
    """
    vals, grads = tables if tables is not None else reference_tables(ref, rule)
    d = mesh.d
    coords = mesh.nodes[mesh.elements]                       # (m, l, d)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        # J[t, k] = coords[t]^T grads[k]
        jac = coords.swapaxes(1, 2)[:, None] @ grads         # (m, q, d, d)
        dets = _det_small(jac)
        mant, e = np.frexp(np.abs(jac).max(axis=(-2, -1)))   # scale = mant * 2**e
        bad = ~(np.isfinite(dets)
                & (np.ldexp(dets, -d * e) > DEGENERACY_RTOL * mant ** d))
    if bad.any():
        t, k = np.argwhere(bad)[0]
        raise ElementOrientationError(int(t), int(k), float(dets[t, k]))
    points = vals @ coords                                   # (m, q, d)
    theta_vals = eval_conductivity(theta, points,
                                   element=np.arange(mesh.n_elements)[:, None])
    return ElementGeometry(jacobians=jac,
                           inverse_transposes=_inverse_transpose_small(jac, dets),
                           dets=dets, theta_vals=theta_vals)


def element_stiffness(geom: ElementGeometry, ref: ReferenceElement,
                      rule: QuadratureRule, tables=None) -> np.ndarray:
    """Dense element stiffness matrices, shape (m, l, l) (no Dirichlet reduction).

    K_t = sum_k w_tk G_k^T (J^-1 J^-T)_tk G_k, with G_k the (d, l) reference
    gradients and w_tk = omega_k theta det J.  The metric J^-1 J^-T is
    symmetric, so each Gauss point contributes its P = d(d+1)/2 upper-triangle
    entries, and the reference tensor, built from the shape gradients alone
    and shared by every element, maps them to the element matrix: entry (i, j) of the metric multiplies
    G_ai G_bj + G_aj G_bi (G_ai G_bi on the diagonal).  Each element is then
    one (1, q*P) by (q*P, l*l) product.  The product is stacked per element
    on purpose: as one (m, q*P) by (q*P, l*l) GEMM, OpenBLAS splits it over
    its default two threads, which took 6-8 ms against under 1 ms stacked
    for m = 8192 (2 vCPUs), and leaves a woken thread pool that slows the
    layers after it.

    Each metric entry is summed over the rows of J^-T as x0*y0 + x1*y1
    (+ x2*y2), so no gathered (m, q, d, P) stack is formed.  Columns (a, b)
    and (b, a) of the reference tensor hold the same two products, so the
    product is bitwise symmetric (checked against the averaging oracle of the
    tests), and each block is made exactly symmetric by copying its upper
    triangle onto the lower one in place, with no (m, l, l) temporary.  The
    product keeps all l*l columns: one over only the l(l+1)/2 upper columns
    takes another BLAS loop and moved p = 2 entries in the last bit.
    """
    _, grads = tables if tables is not None else reference_tables(ref, rule)
    inv_t = geom.inverse_transposes                          # (m, q, d, d)
    m, q, d, _ = inv_t.shape
    l = grads.shape[1]
    iu, ju = np.triu_indices(d)
    w = rule.weights * geom.theta_vals * geom.dets           # (m, q)
    # Entry-major, the layout a ``.sum(axis=-2)`` over gathered columns
    # gives: numpy's matmul picks its loop, and so its summation order, from
    # the operand strides, and for a one-point rule the reshape below is a
    # strided view, not a copy.
    coef = np.empty((len(iu), m, q)).transpose(1, 2, 0)      # (m, q, P)
    for e, (i, j) in enumerate(zip(iu, ju)):
        entry = inv_t[..., 0, i] * inv_t[..., 0, j]
        for r in range(1, d):
            entry += inv_t[..., r, i] * inv_t[..., r, j]
        np.multiply(w, entry, out=coef[..., e])
    coef = coef.reshape(m, 1, -1)
    outer = grads[:, :, None, :, None] * grads[:, None, :, None, :]  # (q, l, l, d, d)
    tensor = outer[..., iu, ju] + np.where(iu != ju, outer[..., ju, iu], 0.0)
    out = (coef @ tensor.transpose(0, 3, 1, 2).reshape(-1, l * l)).reshape(m, l, l)
    for a, b in zip(*np.triu_indices(l, 1)):
        out[:, b, a] = out[:, a, b]
    return out


def assemble_global(mesh: Mesh, geometries: ElementGeometry,
                    ref: ReferenceElement, rule: QuadratureRule,
                    tables=None) -> sp.csr_matrix:
    """The reduced stiffness matrix over the non-Dirichlet nodes.

    The element matrices are computed here, in chunks of at most
    ``ASSEMBLY_CHUNK`` elements, and each chunk's upper-triangle entries of
    free node pairs are copied straight into the triplet values: no
    (m, l, l) stack is formed.  The triplets are element-major and row-major
    within each element, and each block is bitwise the one
    ``element_stiffness`` gives for the whole mesh, so K does not depend on
    the chunk size.
    """
    if tables is None:
        tables = reference_tables(ref, rule)
    n = mesh.n_free
    ids = mesh.elements.astype(index_dtype(mesh.n_nodes), copy=False)
    m, l = ids.shape
    # Local pairs a <= b of free nodes, element by element in row-major order.
    free = ids < n
    keep = free[:, :, None] & free[:, None, :]
    keep &= np.triu(np.ones((l, l), dtype=bool))
    del free
    rows = np.broadcast_to(ids[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(ids[:, None, :], keep.shape)[keep]
    vals = np.empty(rows.size)
    # Equal chunks: a one-element stack has a unit-stride coefficient row,
    # for which matmul takes another loop and moves p = 1 3D entries in the
    # last bit.
    chunks = -(-m // ASSEMBLY_CHUNK)
    end = 0
    for c in range(chunks):
        part = slice(m * c // chunks, m * (c + 1) // chunks)
        stop = end + np.count_nonzero(keep[part])
        vals[end:stop] = element_stiffness(ElementGeometry(
            jacobians=geometries.jacobians[part],
            inverse_transposes=geometries.inverse_transposes[part],
            dets=geometries.dets[part], theta_vals=geometries.theta_vals[part]),
            ref, rule, tables=tables)[keep[part]]
        end = stop
    # Only the triplets reach the mirror, which allocates the CSR arrays.
    del keep
    lo = np.minimum(rows, cols)
    np.maximum(rows, cols, out=cols)
    del rows
    return mirrored_csr(n, lo, cols, vals)


def _value_at(fn, x) -> float:
    try:
        return float(fn(x))
    except ArithmeticError:
        # Python's own float arithmetic (1/0, 10.0**400) raises where numpy
        # would give inf or nan: the value is undefined.
        return np.nan


def assemble_load(mesh: Mesh, ref: ReferenceElement, rule: QuadratureRule,
                  theta: ConductivityField, source,
                  dirichlet_values=None,
                  geometries: ElementGeometry | None = None,
                  tables=None) -> np.ndarray:
    """Load vector for the reduced system.

    ``source`` is a constant or a callable of the physical point; a callable
    that gives a non-finite value, or raises ArithmeticError, raises
    UnsupportedConfigError naming the first such element and Gauss point.
    Dirichlet data may be a constant, a callable, or an array over the
    constrained nodes; its coupling through the element stiffness matrices
    is subtracted here.  Only the natural (zero flux) boundary condition is
    supported on the remaining boundary.  ``geometries`` and ``tables`` are
    computed here when not given.
    """
    if tables is None:
        tables = reference_tables(ref, rule)
    vals = tables[0]
    n = mesh.n_free
    n_con = mesh.n_nodes - n

    if dirichlet_values is None:
        constrained = np.zeros(n_con)
    elif callable(dirichlet_values):
        constrained = np.array([dirichlet_values(x) for x in mesh.nodes[n:]])
    elif np.isscalar(dirichlet_values):
        constrained = np.full(n_con, float(dirichlet_values))
    else:
        constrained = np.asarray(dirichlet_values, dtype=float)
        if constrained.shape != (n_con,):
            raise UnsupportedConfigError(
                f"dirichlet values must have length {n_con}, got {constrained.shape}"
            )

    if geometries is None:
        geometries = element_geometry(mesh, ref, rule, theta, tables=tables)
    ids = mesh.elements
    if callable(source):
        points = np.einsum("tla,kl->tka", mesh.nodes[ids], vals)
        with np.errstate(all="ignore"):
            src = np.array([_value_at(source, x)
                            for x in points.reshape(-1, mesh.d)])
        src = src.reshape(points.shape[:2])
        bad = ~np.isfinite(src)
        if bad.any():
            t, k = np.argwhere(bad)[0]
            raise UnsupportedConfigError(
                f"source must be finite, got {src[t, k]:g} at "
                f"{tuple(points[t, k].tolist())} in element {t + 1}, "
                f"Gauss point {k + 1}")
    else:
        src = float(source)
    w = rule.weights * geometries.dets * src                 # (m, q)
    local = w @ vals                                         # (m, l)

    if n_con and np.any(constrained):
        element_k = element_stiffness(geometries, ref, rule, tables=tables)
        lifted = np.where(ids >= n, constrained[np.maximum(ids - n, 0)], 0.0)
        local = local - (element_k @ lifted[:, :, None])[:, :, 0]
    free = ids < n
    return np.bincount(ids[free], weights=local[free], minlength=n)

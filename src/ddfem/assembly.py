"""Element mappings, quadrature-based stiffness assembly, and load vectors.

The element map is the degree-p interpolant of the element's node positions,
so its Jacobian at a reference point z is sum_mu node_mu (x) grad N_mu(z).
Entry (i, j) of the assembled matrix sums, over elements containing both
nodes and over Gauss points,

    [J^-T grad N_mu] . theta [J^-T grad N_nu] det(J) omega_k,

with J the Jacobian at the Gauss point.  Every element quantity is computed
for all elements at once as a stacked array with the element index leading.
Element matrices (at most 10 x 10 each) are summed into the upper triangle in
one COO pass and mirrored, so the result is symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class ElementGeometry:
    """Per-Gauss-point geometry of every element map, element index leading."""

    jacobians: np.ndarray            # (m, q, d, d)
    inverse_transposes: np.ndarray   # (m, q, d, d)
    dets: np.ndarray                 # (m, q)
    theta_vals: np.ndarray           # (m, q)


def _mirrored_csr(n: int, rows, cols, vals) -> sp.csr_matrix:
    # Sum the upper-triangle triplets, then copy each strictly upper entry
    # below the diagonal: both halves hold the same floating-point value.
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr().tocoo()
    off = upper.row != upper.col
    return sp.csr_matrix(
        (np.concatenate([upper.data, upper.data[off]]),
         (np.concatenate([upper.row, upper.col[off]]),
          np.concatenate([upper.col, upper.row[off]]))),
        shape=(n, n))


class SparseSymmetricMatrix:
    """Symmetric sparse matrix held as CSR, mirrored from its upper triangle."""

    def __init__(self, n: int, upper: dict[tuple[int, int], float]):
        """Build from a ``{(i, j): value}`` map with i <= j."""
        keys = np.array(list(upper), dtype=np.int64).reshape(-1, 2)
        vals = np.fromiter(upper.values(), dtype=float, count=len(upper))
        self.n = n
        self.csr = _mirrored_csr(n, keys[:, 0], keys[:, 1], vals)

    @classmethod
    def from_upper(cls, n: int, rows, cols, vals) -> "SparseSymmetricMatrix":
        """Sum (row, col, value) triplets with row <= col; duplicates add up."""
        out = cls.__new__(cls)
        out.n = n
        out.csr = _mirrored_csr(n, rows, cols, vals)
        return out

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.csr @ x

    def __matmul__(self, x):
        return self.csr @ x

    def upper_entries(self):
        """Stored (i, j, value) triplets with i <= j, sorted."""
        upper = sp.triu(self.csr, format="csr")
        upper.sort_indices()
        rows = np.repeat(np.arange(self.n), np.diff(upper.indptr))
        return zip(rows.tolist(), upper.indices.tolist(), upper.data.tolist())

    def save_text(self, target) -> None:
        close = False
        if isinstance(target, (str, Path)):
            fh = open(target, "w", encoding="utf-8")
            close = True
        else:
            fh = target
        try:
            fh.write(f"{MATRIX_HEADER} n={self.n} symmetric=upper\n")
            for i, j, v in self.upper_entries():
                fh.write(f"entry {i + 1} {j + 1} {v:.17g}\n")
        finally:
            if close:
                fh.close()

    @classmethod
    def load_text(cls, source) -> "SparseSymmetricMatrix":
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
            raise MeshFormatError(f"bad header {lines[0]!r}", line=1) from None
        upper: dict[tuple[int, int], float] = {}
        for ln, raw in enumerate(lines[1:], start=2):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tok = stripped.split()
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
            if (i, j) in upper:
                raise MeshFormatError(f"duplicate entry {i + 1} {j + 1}", line=ln)
            upper[(i, j)] = v
        return cls(n, upper)


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
    whose determinant is not positive (or vanishing relative to the Jacobian
    scale, or NaN), and lets the conductivity field's own positivity error
    propagate.
    """
    vals, grads = tables if tables is not None else reference_tables(ref, rule)
    d = mesh.d
    coords = mesh.nodes[mesh.elements]                       # (m, l, d)
    # J[t, k] = coords[t]^T grads[k]
    jac = coords.swapaxes(1, 2)[:, None] @ grads             # (m, q, d, d)
    dets = _det_small(jac)
    scale = np.abs(jac).max(axis=(-2, -1))
    bad = ~(dets > DEGENERACY_RTOL * scale ** d)
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
    """Dense element stiffness matrices, shape (m, l, l) (no Dirichlet reduction)."""
    _, grads = tables if tables is not None else reference_tables(ref, rule)
    phys = grads @ geom.inverse_transposes.swapaxes(-1, -2)  # (m, q, l, d)
    w = rule.weights * geom.theta_vals * geom.dets           # (m, q)
    m, q, l, d = phys.shape
    right = phys.transpose(0, 2, 1, 3).reshape(m, l, q * d)
    left = (w[:, :, None, None] * phys).transpose(0, 2, 1, 3).reshape(m, l, q * d)
    out = left @ right.swapaxes(1, 2)
    # Averaging with the transpose makes every block exactly symmetric.
    return 0.5 * (out + out.swapaxes(1, 2))


def assemble_global(mesh: Mesh, element_k: np.ndarray) -> SparseSymmetricMatrix:
    """Sum the element matrices into the reduced matrix over the non-Dirichlet nodes."""
    n = mesh.n_free
    ids = mesh.elements
    a, b = np.triu_indices(ids.shape[1])
    rows, cols, vals = ids[:, a], ids[:, b], element_k[:, a, b]
    keep = (rows < n) & (cols < n)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return SparseSymmetricMatrix.from_upper(
        n, np.minimum(rows, cols), np.maximum(rows, cols), vals)


def assemble_load(mesh: Mesh, ref: ReferenceElement, rule: QuadratureRule,
                  theta: ConductivityField, source,
                  dirichlet_values=None, neumann=0.0,
                  geometries: ElementGeometry | None = None,
                  element_k: np.ndarray | None = None) -> np.ndarray:
    """Load vector for the reduced system.

    ``source`` is a constant or a callable of the physical point.  Dirichlet
    data may be a constant, a callable, or an array over the constrained
    nodes; its coupling through the element stiffness matrices (``element_k``,
    built here when not given) is subtracted here.  Only the natural (zero
    flux) boundary condition is supported on the remaining boundary.
    """
    if neumann != 0.0:
        raise UnsupportedConfigError("only zero Neumann data is supported")
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
        src = np.array([float(source(x)) for x in points.reshape(-1, mesh.d)])
        src = src.reshape(points.shape[:2])
    else:
        src = float(source)
    w = rule.weights * geometries.dets * src                 # (m, q)
    local = w @ vals                                         # (m, l)

    if n_con and np.any(constrained):
        if element_k is None:
            element_k = element_stiffness(geometries, ref, rule, tables=tables)
        lifted = np.where(ids >= n, constrained[np.maximum(ids - n, 0)], 0.0)
        local = local - (element_k @ lifted[:, :, None])[:, :, 0]
    free = ids < n
    return np.bincount(ids[free], weights=local[free], minlength=n)

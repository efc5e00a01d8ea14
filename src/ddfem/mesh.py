"""Simplicial mesh data model, text format, structured generators, refinement.

Internal numbering is 0-based; the text format is 1-based.  The data model
keeps every node with no essential (Dirichlet) boundary condition ahead of the
constrained ones, so the reduced stiffness system is simply the leading block.
A ``Mesh`` checks its structure and puts itself in that ordering when it is
built, recording the permutation applied.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    ConductivityPositivityError,
    MeshFormatError,
    MeshInvariantError,
    UnsupportedConfigError,
)
from .reference_element import make_reference, node_count

FORMAT_HEADER = "ddfem-mesh v1"


@dataclass(frozen=True, eq=False)
class Mesh:
    """Nodes, element connectivity, and Dirichlet flags.

    Attributes
    ----------
    d, p : int
        Space dimension and element order.
    nodes : ndarray, shape (n', d)
        Node coordinates, non-Dirichlet nodes first.
    elements : ndarray of int, shape (m, l)
        Per element, the global node index of each local node; local slot
        mu-1 corresponds to reference node mu.
    dirichlet : ndarray of bool, shape (n',)
        Essential boundary flag per node.
    theta_elem : optional ndarray, shape (m,)
        Per-element conductivity values carried by the mesh file, if any.
    permutation : optional ndarray of int, shape (n',)
        Maps the node index given to the constructor to the stored index,
        identity if None.

    Construction checks the structure in linear time (MeshInvariantError):
    shapes and dtypes, node references in range and not repeated, every node
    referenced, ``theta_elem`` of length m.  It then puts the non-Dirichlet
    nodes first, stably, and records the permutation (composed with any given).
    """

    d: int
    p: int
    nodes: np.ndarray
    elements: np.ndarray
    dirichlet: np.ndarray
    theta_elem: np.ndarray | None = None
    permutation: np.ndarray | None = None

    def __post_init__(self):
        n, d, elements = len(self.dirichlet), self.d, self.elements
        l = node_count(d, self.p) if d in (2, 3) and self.p in (1, 2) else None
        if not (l and self.nodes.shape == (n, d) and self.dirichlet.shape == (n,)
                and self.dirichlet.dtype == bool and elements.ndim == 2
                and elements.shape[1] == l and np.issubdtype(elements.dtype, np.integer)):
            raise MeshInvariantError(
                f"a d={d} p={self.p} mesh needs nodes (n, {d}), boolean dirichlet "
                f"(n,) and integer elements (m, {l}), got {self.nodes.shape}, "
                f"{self.dirichlet.dtype} {self.dirichlet.shape} and "
                f"{elements.dtype} {elements.shape}")
        problem = _reference_problem(elements, n)
        if problem:
            kind, i, what = problem
            raise MeshInvariantError(f"{kind} {i + 1} {what}")
        if self.theta_elem is not None and len(self.theta_elem) != len(elements):
            raise MeshInvariantError("per-element conductivity length does not match m")
        free = ~self.dirichlet
        if np.all(free[: int(free.sum())]):
            return
        order = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
        perm = np.empty_like(order)
        perm[order] = np.arange(len(order))
        if self.permutation is not None:
            perm = perm[self.permutation]
        # Frozen: the reordered fields are set directly.
        self.__dict__.update(nodes=self.nodes[order], elements=perm[elements],
                             dirichlet=self.dirichlet[order], permutation=perm)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_free(self) -> int:
        return int((~self.dirichlet).sum())

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def nodes_per_element(self) -> int:
        return self.elements.shape[1]


def _reference_problem(elements: np.ndarray, n: int):
    """(kind, 0-based row or node, what) of the first bad node reference, or None.

    First a row of ``elements`` with a node outside 0..n-1 or repeated, then
    a node no row references.
    """
    outside = (elements < 0) | (elements >= n)
    ordered = np.sort(elements, axis=1)
    repeats = ordered[:, 1:] == ordered[:, :-1]
    bad = outside.any(axis=1) | repeats.any(axis=1)
    if bad.any():
        t = int(np.argmax(bad))
        if outside[t].any():
            return ("element", t, f"references node {elements[t][outside[t]][0] + 1}, "
                                  f"out of range 1..{n}")
        return "element", t, f"repeats node {ordered[t, 1:][repeats[t]][0] + 1}"
    referenced = np.zeros(n, dtype=bool)
    referenced[elements.reshape(-1)] = True
    if not referenced.all():
        return "node", int(np.argmax(~referenced)), "is not referenced by any element"
    return None


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def save_mesh(mesh: Mesh, target) -> None:
    """Write the mesh in the line-oriented text format (full 17-digit precision).

    Each record kind is one ``%``-format over all of its rows at once.
    """
    n, m = mesh.n_nodes, mesh.n_elements
    node_fmt = "node %d" + " %.17g" * mesh.d + " %d\n"
    node_values = zip(range(1, n + 1), *mesh.nodes.T.tolist(),
                      mesh.dirichlet.astype(int).tolist())
    elem_fmt = "elem %d" + " %d" * mesh.nodes_per_element + "\n"
    elem_values = zip(range(1, m + 1), *(mesh.elements.T + 1).tolist())
    parts = [f"{FORMAT_HEADER} d={mesh.d} p={mesh.p}\n",
             (node_fmt * n) % tuple(chain.from_iterable(node_values)),
             (elem_fmt * m) % tuple(chain.from_iterable(elem_values))]
    if mesh.theta_elem is not None:
        theta = np.asarray(mesh.theta_elem, dtype=float)
        parts.append(("theta elem %d %.17g\n" * len(theta))
                     % tuple(chain.from_iterable(zip(range(1, len(theta) + 1),
                                                     theta.tolist()))))
    text = "".join(parts)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)


def _int_array(values) -> np.ndarray:
    """``values`` as int64, or as Python ints where one lies beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        # An integer beyond int64 is kept as is; no range check accepts it.
        return np.array(values, dtype=object)


def _read_lines(lines: list, d: int, l: int) -> tuple:
    """The records after the header, read one line at a time.

    This loop defines the format: tokens are ``str.split`` fields, numbers
    are Python ``int()`` and ``float()``, and the first bad line in file
    order raises MeshFormatError, as does a repeated index or one outside
    1..count (the number of node lines for nodes, of element lines for
    elements and theta).  Returns, in file order, the node indices,
    coordinates and Dirichlet flags, the element indices and node lists, and
    the theta element indices and values.
    """
    node_rows: dict[int, list] = {}     # coordinates, then the flag
    elem_rows: dict[int, list[int]] = {}
    theta_rows: dict[int, float] = {}
    kinds = [raw.split()[:1] for raw in lines[1:]]
    n, m = kinds.count(["node"]), kinds.count(["elem"])
    for ln, raw in enumerate(lines[1:], start=2):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        kind = tok[0]
        try:
            if kind == "node":
                if len(tok) != 3 + d:
                    raise ValueError(f"node line needs {3 + d} fields, got {len(tok)}")
                idx = int(tok[1])
                coords = [float(v) for v in tok[2:2 + d]]
                if not np.all(np.isfinite(coords)):
                    raise ValueError(f"node {idx} has a non-finite coordinate")
                flag = int(tok[2 + d])
                if flag not in (0, 1):
                    raise ValueError(f"dirichlet flag must be 0 or 1, got {flag}")
                if idx in node_rows:
                    raise ValueError(f"duplicate node index {idx}")
                if not 1 <= idx <= n:
                    raise ValueError(f"node indices must be exactly 1..{n}")
                node_rows[idx] = coords + [flag]
            elif kind == "elem":
                if len(tok) != 2 + l:
                    raise ValueError(f"elem line needs {2 + l} fields, got {len(tok)}")
                idx = int(tok[1])
                if idx in elem_rows:
                    raise ValueError(f"duplicate element index {idx}")
                if not 1 <= idx <= m:
                    raise ValueError(f"element indices must be exactly 1..{m}")
                elem_rows[idx] = [int(v) for v in tok[2:]]
            elif kind == "theta":
                if len(tok) != 4 or tok[1] != "elem":
                    raise ValueError("theta line must read 'theta elem <t> <value>'")
                value = float(tok[3])
                if not np.isfinite(value):
                    raise ValueError(f"theta value {tok[3]!r} is not finite")
                idx = int(tok[2])
                if idx in theta_rows:
                    raise ValueError(f"duplicate theta record for element {idx}")
                if not 1 <= idx <= m:
                    raise ValueError("theta lines must cover every element exactly once")
                theta_rows[idx] = value
            else:
                raise ValueError(f"unknown record {kind!r}")
        except ValueError as exc:
            raise MeshFormatError(str(exc), line=ln) from None
    if 0 < len(theta_rows) < m:   # named at the first element without theta
        missing = next(t for t in range(1, m + 1) if t not in theta_rows)
        raise MeshFormatError("theta lines must cover every element exactly once",
                              line=_record_line(lines, "elem", missing))
    nodes = np.array(list(node_rows.values()), dtype=float).reshape(-1, d + 1)
    return (_int_array(list(node_rows)), nodes[:, :d], nodes[:, d] == 1,
            _int_array(list(elem_rows)),
            _int_array(list(elem_rows.values())).reshape(-1, l),
            _int_array(list(theta_rows)),
            np.array(list(theta_rows.values()), dtype=float))


def _loadtxt(lines: list, words: tuple, fields: list) -> np.ndarray:
    """Rows of ``words``, an index, then ``fields``; raises otherwise.

    Each keyword is read into a fixed-width field one character longer than
    the word, so a longer token (``nodes``) still differs from it.
    """
    dtype = ([(word, f"U{len(word) + 1}") for word in words] + [("idx", np.int64)]
             + fields)
    if not lines:
        return np.zeros(0, dtype=dtype)
    # Raise any warning: some NumPy releases truncate "4.0" in an int field.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    if any((rows[word] != word).any() for word in words):
        raise ValueError("a keyword differs")
    return rows


def _read_arrays(lines: list, d: int, l: int) -> tuple | None:
    """What ``_read_lines`` returns, read in whole columns, or None.

    Lines are routed by their first non-blank character to one ``np.loadtxt``
    call per record kind; its structured dtype rejects a wrong field count.
    loadtxt reads a subset of Python's numbers (no ``1_0``, no non-ASCII
    digits, no integer beyond int64), so None, returned for any line it cannot
    read or ``_read_lines`` would reject, leaves the decision to ``_read_lines``.
    A text with a NUL character is one of them: NumPy strips trailing NULs
    from a string field, so ``node`` followed by a NUL would read as ``node``.
    So is a record kind whose indices are not exactly 1..count (a repeated
    index among them), with count the number of node lines for nodes and of
    element lines for elements and theta, which ``_read_lines`` rejects.
    """
    if "\x00" in "".join(lines):
        return None
    kinds = {"": [], "#": [], "n": [], "e": [], "t": []}
    try:
        for raw in lines[1:]:
            kinds[raw.lstrip()[:1]].append(raw)
        nodes = _loadtxt(kinds["n"], ("node",), [("x", float, (d,)), ("flag", np.int64)])
        elems = _loadtxt(kinds["e"], ("elem",), [("nodes", np.int64, (l,))])
        theta = _loadtxt(kinds["t"], ("theta", "elem"), [("value", float)])
    except (KeyError, ValueError, Warning):
        return None
    if not (np.isfinite(nodes["x"]).all() and np.isfinite(theta["value"]).all()
            and np.isin(nodes["flag"], (0, 1)).all()):
        return None
    if not (_is_one_to(nodes["idx"], len(nodes)) and _is_one_to(elems["idx"], len(elems))
            and (len(theta) == 0 or _is_one_to(theta["idx"], len(elems)))):
        return None
    return (nodes["idx"], nodes["x"], nodes["flag"].astype(bool), elems["idx"],
            elems["nodes"], theta["idx"], theta["value"])


def _is_one_to(idx: np.ndarray, count: int) -> bool:
    """Whether ``idx`` holds each of 1..count exactly once.

    O(len(idx)) and sized by ``count``, never by a value read from the file:
    bounds first, then one ``np.bincount`` of at most count + 1 bins.
    """
    if len(idx) != count:
        return False
    if count == 0:
        return True
    if idx.min() < 1 or idx.max() > count:
        return False
    return bool(np.bincount(idx).max() == 1)


def _record_line(lines: list, kind: str, index: int) -> int:
    """Line of the ``kind`` record with ``index`` in a readable text (for errors)."""
    return next(ln for ln, raw in enumerate(lines[1:], start=2)
                if raw.split()[:1] == [kind] and int(raw.split()[1]) == index)


def _from_one_to(idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` put in index order, for indices known to be 1..len(rows)."""
    out = np.empty_like(rows)
    out[idx - 1] = rows
    return out


def load_mesh(source) -> Mesh:
    """Parse a mesh from a path, text, bytes, or file-like object.

    Every rejection names the first bad line in file order, or for a bad
    node reference (MeshInvariantError) the record's line: references are
    checked in file order and numbering before the ``Mesh`` is built, which
    then puts the Dirichlet nodes last and records the permutation.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    lines = text.splitlines()
    if not lines:
        raise MeshFormatError("empty mesh file", line=1)
    header = lines[0].split()
    if len(header) != 4 or " ".join(header[:2]) != FORMAT_HEADER:
        raise MeshFormatError(f"bad header {lines[0]!r}", line=1)
    try:
        d = int(header[2].removeprefix("d="))
        p = int(header[3].removeprefix("p="))
    except ValueError:
        raise MeshFormatError(f"bad header {lines[0]!r}", line=1) from None
    if d not in (2, 3) or p not in (1, 2):
        raise MeshFormatError(f"unsupported d={d} p={p}", line=1)

    l = node_count(d, p)
    # Both readers return record indices that are exactly 1..count.
    node_idx, coords, flags, elem_idx, elem_nodes, theta_idx, theta_values = (
        _read_arrays(lines, d, l) or _read_lines(lines, d, l))

    n_nodes = len(node_idx)
    if n_nodes == 0:
        raise MeshFormatError("mesh has no nodes", line=1)
    if len(elem_idx) == 0:
        raise MeshFormatError("mesh has no elements", line=1)
    theta = _from_one_to(theta_idx, theta_values) if len(theta_idx) else None

    # In file order and numbering: renumbering would wrap a negative number.
    problem = _reference_problem(elem_nodes - 1, n_nodes)
    if problem:
        kind, i, what = problem
        index = elem_idx[i] if kind == "element" else i + 1
        raise MeshInvariantError(f"{kind} {index} {what}", line=_record_line(
            lines, "elem" if kind == "element" else "node", index))
    return Mesh(d=d, p=p, nodes=_from_one_to(node_idx, coords),
                elements=_from_one_to(elem_idx, elem_nodes) - 1,
                dirichlet=_from_one_to(node_idx, flags), theta_elem=theta)


# ---------------------------------------------------------------------------
# Structured generators
# ---------------------------------------------------------------------------

def _grid_nodes(k: int, d: int):
    """Nodes of the (k+1)^d unit grid, first axis fastest, and the boundary flags."""
    side = k + 1
    xs = np.linspace(0.0, 1.0, side)
    # indexing="ij" over (last axis, ..., first axis) puts the first axis fastest.
    idx = [g.ravel() for g in np.meshgrid(*([np.arange(side)] * d), indexing="ij")]
    idx.reverse()
    nodes = np.column_stack([xs[i] for i in idx])
    on_boundary = np.any([(i == 0) | (i == k) for i in idx], axis=0)
    return nodes, on_boundary


def _structured_mesh(d: int, k: int, p: int, dirichlet: str,
                     elements: np.ndarray) -> Mesh:
    """The unit grid with the given order-1 elements, refined to order p."""
    if k < 1:
        raise UnsupportedConfigError("subdivision count k must be >= 1")
    if dirichlet not in ("boundary", "none"):
        raise UnsupportedConfigError(f"unknown dirichlet mode {dirichlet!r}")
    nodes, on_boundary = _grid_nodes(k, d)
    flags = on_boundary if dirichlet == "boundary" else np.zeros(len(nodes), dtype=bool)
    mesh = Mesh(d=d, p=1, nodes=nodes, elements=elements, dirichlet=flags)
    if p == 2:
        return insert_midpoints(mesh)
    if p != 1:
        raise UnsupportedConfigError(f"unsupported order p={p}")
    return mesh


def gen_structured_square(k: int, p: int = 1, dirichlet: str = "boundary") -> Mesh:
    """Unit square split into 2*k^2 right triangles.

    Each grid cell is cut along its up-diagonal.  Boundary nodes are marked
    Dirichlet unless ``dirichlet="none"``.  For p=2 midpoint nodes are
    inserted on every edge.
    """
    side = k + 1
    a = (np.arange(k)[:, None] * side + np.arange(k)[None, :]).ravel()
    b, c, dd = a + 1, a + side, a + side + 1
    elements = np.stack([a, b, dd, a, dd, c], axis=1).reshape(-1, 3)
    return _structured_mesh(2, k, p, dirichlet, elements)


_CUBE_PERMS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]


def gen_structured_cube(k: int, p: int = 1, dirichlet: str = "boundary") -> Mesh:
    """Unit cube split into 6*k^3 positively oriented tetrahedra.

    Every subcube is decomposed into the six path tetrahedra sharing its main
    diagonal, so neighboring subcubes conform.  Vertex order is flipped where
    needed to keep every Jacobian determinant positive.
    """
    side = k + 1
    # Corner node offsets of each path tetrahedron within its subcube; the
    # orientation depends only on the path, not on the subcube.
    offsets = []
    for perm in _CUBE_PERMS:
        steps = [np.zeros(3, dtype=int)]
        for axis in perm:
            steps.append(steps[-1] + np.eye(3, dtype=int)[axis])
        if np.linalg.det(np.array(steps[1:], dtype=float)) < 0:
            steps[2], steps[3] = steps[3], steps[2]
        offsets.append([(s[2] * side + s[1]) * side + s[0] for s in steps])
    cells = np.arange(k)
    base = ((cells[:, None, None] * side + cells[None, :, None]) * side
            + cells[None, None, :]).ravel()
    elements = (base[:, None, None] + np.array(offsets)[None]).reshape(-1, 4)
    return _structured_mesh(3, k, p, dirichlet, elements)


# ---------------------------------------------------------------------------
# Midpoint refinement (order 1 -> order 2)
# ---------------------------------------------------------------------------

def _element_edges(elements: np.ndarray) -> np.ndarray:
    """Every element's node pairs, each sorted, in local pair order: (m, l(l-1)/2, 2)."""
    a, b = np.triu_indices(elements.shape[1], k=1)
    return np.sort(np.stack([elements[:, a], elements[:, b]], axis=-1), axis=-1)


def _edge_table(mesh: Mesh):
    """Unique edges in first-seen order, each element's edge numbers, boundary mask.

    Returns ``edges`` (E, 2), ``edge_of`` (m, l(l-1)/2) indexing into
    ``edges`` per local node pair, and ``on_boundary`` (E,).  2D: boundary
    edges belong to exactly one triangle.  3D: boundary edges lie on a face
    belonging to exactly one tetrahedron.
    """
    pairs = _element_edges(mesh.elements)
    keys = pairs[..., 0].astype(np.int64) * mesh.n_nodes + pairs[..., 1]
    _, first, inverse, counts = np.unique(keys.ravel(), return_index=True,
                                          return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edges = pairs.reshape(-1, 2)[first[order]]
    edge_of = rank[inverse].reshape(keys.shape)
    if mesh.d == 2:
        on_boundary = counts[order] == 1
    else:
        ordered = np.sort(mesh.elements, axis=1)
        faces = ordered[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].reshape(-1, 3)
        # Equal faces sort next to each other; a run of one is a boundary face.
        faces = faces[np.lexsort(faces.T[::-1])]
        starts = np.flatnonzero(np.concatenate(
            [[True], (faces[1:] != faces[:-1]).any(axis=1), [True]]))
        outer = faces[starts[:-1][np.diff(starts) == 1]]
        face_edges = outer[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
        edge_keys = edges[:, 0].astype(np.int64) * mesh.n_nodes + edges[:, 1]
        on_boundary = np.isin(edge_keys, face_edges[:, 0].astype(np.int64)
                              * mesh.n_nodes + face_edges[:, 1])
    return edges, edge_of, on_boundary


def insert_midpoints(mesh: Mesh, snap=None) -> Mesh:
    """Insert one node per unique edge, turning an order-1 mesh into order-2.

    Midpoints start as arithmetic means of the edge endpoints and are
    numbered in the order their edges are first met, element by element.  If
    ``snap`` is given, midpoints of boundary edges are replaced by
    ``snap(midpoint)``, which lets curved domains pull the new nodes onto the
    true boundary.  A midpoint is Dirichlet exactly when its edge is a
    boundary edge with both endpoints Dirichlet.
    """
    if mesh.p != 1:
        raise UnsupportedConfigError("midpoint insertion expects an order-1 mesh")
    edges, edge_of, on_boundary = _edge_table(mesh)
    mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    if snap is not None:
        for e in np.flatnonzero(on_boundary):
            mids[e] = np.asarray(snap(mids[e]), dtype=float)
    flags = on_boundary & mesh.dirichlet[edges[:, 0]] & mesh.dirichlet[edges[:, 1]]
    nodes = np.vstack([mesh.nodes, mids])
    dirichlet = np.concatenate([mesh.dirichlet, flags])

    # Reference nodes of the order-2 element, by barycentric signature:
    # a corner maps to the matching order-1 corner, an edge node to the
    # midpoint of the two corners it straddles.
    ref2 = make_reference(mesh.d, 2)
    pair_index = {pair: i for i, pair in
                  enumerate(zip(*np.triu_indices(mesh.d + 1, k=1)))}
    elements = np.zeros((mesh.n_elements, ref2.l), dtype=int)
    for s, z in enumerate(ref2.ref_nodes):
        bary = np.concatenate([[1.0 - z.sum()], z])
        ones = np.flatnonzero(np.isclose(bary, 1.0))
        halves = np.flatnonzero(np.isclose(bary, 0.5))
        if len(ones) == 1:
            elements[:, s] = mesh.elements[:, ones[0]]
        else:
            assert len(halves) == 2
            pair = pair_index[(halves[0], halves[1])]
            elements[:, s] = mesh.n_nodes + edge_of[:, pair]

    return Mesh(d=mesh.d, p=2, nodes=nodes, elements=elements, dirichlet=dirichlet,
                theta_elem=mesh.theta_elem)


def transform_mesh(mesh: Mesh, fn) -> Mesh:
    """Apply a coordinate map to every node (connectivity and flags unchanged)."""
    moved = np.array([fn(x) for x in mesh.nodes], dtype=float)
    return replace(mesh, nodes=moved)


# ---------------------------------------------------------------------------
# Conductivity
# ---------------------------------------------------------------------------

def _reduce(op):
    return lambda first, *rest: functools.reduce(op, rest, first)


# Names an expression may use; each works elementwise on arrays of points.
_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi, "e": np.e,
    "min": _reduce(np.minimum), "max": _reduce(np.maximum),
}


@dataclass(frozen=True, eq=False)
class ConductivityField:
    """Scalar conductivity, evaluated at mapped Gauss points.

    One of three modes: a single constant, one constant per element, or a
    closed-form expression in the coordinates (variables x, y, z), evaluated
    on whole arrays of points at once.
    """

    kind: str
    constant: float = 1.0
    per_element: np.ndarray | None = None
    fn: object = None

    @staticmethod
    def from_constant(value: float) -> "ConductivityField":
        return ConductivityField(kind="constant", constant=float(value))

    @staticmethod
    def from_per_element(values) -> "ConductivityField":
        vals = np.asarray(values, dtype=float)
        return ConductivityField(kind="per_element", per_element=vals)

    @staticmethod
    def from_expression(text: str) -> "ConductivityField":
        code = compile(text, "<conductivity>", "eval")
        for name in code.co_names:
            if name not in _EXPR_NAMES and name not in ("x", "y", "z"):
                raise UnsupportedConfigError(
                    f"conductivity expression uses unknown name {name!r}"
                )

        def fn(points):
            # points: (..., d) -> values of shape (...)
            points = np.asarray(points, dtype=float)
            env = dict(_EXPR_NAMES)
            env["x"] = points[..., 0]
            env["y"] = points[..., 1]
            env["z"] = points[..., 2] if points.shape[-1] > 2 else 0.0
            value = eval(code, {"__builtins__": {}}, env)
            return np.broadcast_to(np.asarray(value, dtype=float), points.shape[:-1])

        return ConductivityField(kind="expression", fn=fn)


def eval_conductivity(field: ConductivityField, x, element=None) -> np.ndarray:
    """Evaluate the conductivity at the points ``x`` of shape (..., d).

    Returns an array of shape x.shape[:-1].  ``element`` gives each point's
    element index (an int, or an integer array broadcasting against the
    leading axes of x) and is required by per-element fields.  For an
    (m, q, d) stack of Gauss points, pass ``element=np.arange(m)[:, None]``.

    Raises ConductivityPositivityError at the first point (in C order) whose
    value is not finite and strictly positive, naming its element when known
    and, for an (m, q) stack, its Gauss point.  An expression that divides by
    zero or overflows counts as such a value (nan where Python raises).
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1]
    if field.kind == "constant":
        values = np.full(shape, field.constant)
    elif field.kind == "per_element":
        if element is None:
            raise UnsupportedConfigError(
                "per-element conductivity needs the element index"
            )
        values = np.broadcast_to(field.per_element[element], shape)
    else:
        try:
            with np.errstate(all="ignore"):
                values = field.fn(x)
        except ArithmeticError:
            # Python evaluates constant subexpressions itself (1/0, 10.0**400,
            # 1/z in 2D) and raises where numpy would give inf or nan: the
            # formula is then undefined at every point.
            values = np.full(shape, np.nan)
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), shape)
        elem = None if element is None else int(np.broadcast_to(element, shape)[idx])
        raise ConductivityPositivityError(
            float(values[idx]), where=tuple(x[idx].tolist()), element=elem,
            gauss_point=int(idx[1]) if len(shape) == 2 else None)
    return values


def conductivity_from_mesh(mesh: Mesh, default: float = 1.0) -> ConductivityField:
    """Per-element field from the mesh's theta records, or a constant fallback."""
    if mesh.theta_elem is not None:
        return ConductivityField.from_per_element(mesh.theta_elem)
    return ConductivityField.from_constant(default)

import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.errors import (
    ConductivityPositivityError,
    MeshFormatError,
    MeshInvariantError,
    UnsupportedConfigError,
)
from ddfem.mesh import (
    _read_arrays,
    _read_lines,
    boundary_edges,
    mesh_to_text,
    normalize_numbering,
    validate_mesh,
)
from ddfem.reference_element import node_count

from conftest import ring_snap

SINGLE_TRIANGLE = """ddfem-mesh v1 d=2 p=1
node 1 0 0 0
node 2 1 0 0
node 3 0 1 0
elem 1 1 2 3
"""


def test_generator_counts_square():
    m1 = ddfem.gen_structured_square(1, p=1)
    assert (m1.n_elements, m1.n_nodes) == (2, 4)
    m2 = ddfem.gen_structured_square(2, p=1)
    assert (m2.n_elements, m2.n_nodes) == (8, 9)
    q1 = ddfem.gen_structured_square(1, p=2)
    assert q1.n_nodes == 9          # 4 corners + 5 edge midpoints
    assert q1.nodes_per_element == 6


def test_generator_counts_cube():
    c1 = ddfem.gen_structured_cube(1, p=1)
    assert (c1.n_elements, c1.n_nodes) == (6, 8)
    c2 = ddfem.gen_structured_cube(2, p=1)
    assert c2.n_elements == 48
    cq = ddfem.gen_structured_cube(1, p=2)
    assert cq.nodes_per_element == 10


def test_generator_marks_boundary_dirichlet():
    mesh = ddfem.gen_structured_square(2, p=1)
    assert mesh.n_free == 1
    free_node = mesh.nodes[0]
    np.testing.assert_allclose(free_node, [0.5, 0.5])
    none = ddfem.gen_structured_square(2, p=1, dirichlet="none")
    assert none.n_free == none.n_nodes


@pytest.mark.parametrize("gen,args", [
    (ddfem.gen_structured_square, (0,)),
    (ddfem.gen_structured_cube, (0,)),
    (ddfem.gen_structured_square, (2, 3)),
])
def test_generator_bad_arguments(gen, args):
    with pytest.raises(UnsupportedConfigError):
        gen(*args)


@pytest.mark.parametrize("d,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_structured_meshes_positively_oriented(d, p):
    # Assumption check by construction: every Gauss-point determinant positive.
    mesh = (ddfem.gen_structured_square(2, p=p) if d == 2
            else ddfem.gen_structured_cube(2, p=p))
    system = ddfem.build_system(mesh)
    assert np.all(system.geometries.dets > 0)


def test_insert_midpoints_counts(two_triangle_square):
    refined = ddfem.insert_midpoints(two_triangle_square)
    assert refined.n_nodes == 9   # 4 corners + 5 unique edges
    assert refined.p == 2
    # shared edge midpoints deduplicated: each element has 6 distinct nodes
    for t in range(refined.n_elements):
        assert len(set(refined.elements[t].tolist())) == 6


def test_insert_midpoints_are_means(two_triangle_square):
    refined = ddfem.insert_midpoints(two_triangle_square)
    ref2 = ddfem.make_reference(2, 2)
    for t in range(refined.n_elements):
        coords = refined.nodes[refined.elements[t]]
        corners = {tuple(np.round(c, 12)) for c in coords[[0, 2, 5]]}
        for a, b, mid in ((0, 2, 1), (0, 5, 3), (2, 5, 4)):
            np.testing.assert_allclose(coords[mid], 0.5 * (coords[a] + coords[b]))
        assert len(corners) == 3
    assert tuple(ref2.ref_nodes[1]) == (0.5, 0.0)


def test_midpoint_dirichlet_inheritance():
    mesh = ddfem.gen_structured_square(1, p=1)   # all 4 corners Dirichlet
    refined = ddfem.insert_midpoints(mesh)
    # 4 boundary-edge midpoints become Dirichlet, the diagonal midpoint stays
    # free even though both its endpoints are Dirichlet.
    assert refined.n_free == 1
    np.testing.assert_allclose(refined.nodes[0], [0.5, 0.5])


def test_insert_midpoints_rejects_quadratic_input():
    refined = ddfem.insert_midpoints(ddfem.gen_structured_square(1, p=1))
    with pytest.raises(UnsupportedConfigError):
        ddfem.insert_midpoints(refined)


def test_snap_projector_moves_boundary_midpoints(quarter_ring_mesh):
    refined = ddfem.insert_midpoints(quarter_ring_mesh, snap=ring_snap)
    radii = np.linalg.norm(refined.nodes, axis=1)
    near_inner = radii[np.abs(radii - 1.0) < 0.05]
    near_outer = radii[np.abs(radii - 2.0) < 0.1]
    np.testing.assert_allclose(near_inner, 1.0, atol=1e-14)
    np.testing.assert_allclose(near_outer, 2.0, atol=1e-14)
    # interior (radial) midpoints stay put as arithmetic means
    assert np.any((radii > 1.2) & (radii < 1.8))


def test_boundary_edges_square(two_triangle_square):
    edges = boundary_edges(two_triangle_square)
    assert len(edges) == 4   # the diagonal is interior


def test_midpoint_dirichlet_inheritance_3d():
    # Only the main-diagonal midpoint is interior in the refined unit cube.
    refined = ddfem.gen_structured_cube(1, p=2)
    assert refined.n_free == 1
    np.testing.assert_allclose(refined.nodes[0], [0.5, 0.5, 0.5])

    bigger = ddfem.gen_structured_cube(2, p=2)
    free = bigger.nodes[:bigger.n_free]
    fixed = bigger.nodes[bigger.n_free:]
    assert np.all((free > 0) & (free < 1))
    assert np.all(np.any(np.isclose(fixed, 0.0) | np.isclose(fixed, 1.0), axis=1))


@pytest.mark.parametrize("maker", [
    lambda: ddfem.insert_midpoints(ddfem.gen_structured_square(1, p=1,
                                                               dirichlet="none")),
    lambda: ddfem.gen_structured_cube(2, p=2),
    lambda: ddfem.gen_structured_square(40, p=1),
])
def test_roundtrip_identity(maker):
    mesh = maker()
    text = mesh_to_text(mesh)
    back = ddfem.load_mesh(text)
    np.testing.assert_array_equal(back.nodes, mesh.nodes)
    np.testing.assert_array_equal(back.elements, mesh.elements)
    np.testing.assert_array_equal(back.dirichlet, mesh.dirichlet)
    assert back.theta_elem is None


def test_roundtrip_theta(tmp_path):
    mesh = ddfem.gen_structured_square(2, p=1)
    withtheta = ddfem.Mesh(
        d=mesh.d, p=mesh.p, nodes=mesh.nodes, elements=mesh.elements,
        dirichlet=mesh.dirichlet,
        theta_elem=np.linspace(1.0, 2.0, mesh.n_elements))
    path = tmp_path / "m.mesh"
    ddfem.save_mesh(withtheta, path)
    back = ddfem.load_mesh(path)
    np.testing.assert_array_equal(back.theta_elem, withtheta.theta_elem)


def test_load_single_triangle():
    mesh = ddfem.load_mesh(SINGLE_TRIANGLE)
    assert mesh.n_elements == 1
    assert mesh.n_nodes == mesh.n_free == 3


def test_load_renumbers_dirichlet_last():
    text = SINGLE_TRIANGLE.replace("node 1 0 0 0", "node 1 0 0 1")
    mesh = ddfem.load_mesh(text)
    assert mesh.n_free == 2
    assert bool(mesh.dirichlet[2]) and not mesh.dirichlet[:2].any()
    np.testing.assert_allclose(mesh.nodes[2], [0.0, 0.0])
    assert mesh.permutation is not None
    # element still references the same geometry
    np.testing.assert_allclose(
        sorted(map(tuple, mesh.nodes[mesh.elements[0]])),
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])


def test_parse_error_names_line():
    bad = SINGLE_TRIANGLE.replace("elem 1 1 2 3", "elem 1 1 2")
    with pytest.raises(MeshFormatError) as exc:
        ddfem.load_mesh(bad)
    assert exc.value.line == 5
    with pytest.raises(MeshFormatError):
        ddfem.load_mesh("not a mesh\n")
    with pytest.raises(MeshFormatError):
        ddfem.load_mesh(io.StringIO("ddfem-mesh v1 d=2 p=1\nnode 1 0 0 2\n"))


# Two triangles on the unit square with per-element conductivity; nodes 1
# and 2 are Dirichlet, so loading renumbers them last.
CONTRACT_MESH = """ddfem-mesh v1 d=2 p=1
node 1 0 0 1
node 2 1 0 1
node 3 0 1 0
node 4 1 1 0
elem 1 1 2 4
elem 2 1 4 3
theta elem 1 2.5
theta elem 2 4
"""


def _edited(edits: dict) -> str:
    """CONTRACT_MESH with line number -> replacement text applied."""
    lines = CONTRACT_MESH.splitlines()
    for ln, text in edits.items():
        lines[ln - 1] = text
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edits,line,fragment", [
    ({1: "ddfem-mesh v2 d=2 p=1"}, 1, "bad header"),
    ({1: "ddfem-mesh v1 d=4 p=1"}, 1, "unsupported d=4 p=1"),
    ({4: "node 3 0 1"}, 4, "node line needs 5 fields, got 4"),
    ({4: "node 3 0 1 0 7"}, 4, "node line needs 5 fields, got 6"),
    ({4: "node 3.0 0 1 0"}, 4, "invalid literal for int() with base 10: '3.0'"),
    ({4: "node 3 0 one 0"}, 4, "could not convert string to float: 'one'"),
    ({4: "node 3 nan 1 0"}, 4, "node 3 has a non-finite coordinate"),
    ({4: "node 3 0 -inf 0"}, 4, "node 3 has a non-finite coordinate"),
    ({4: "node 3 0 1 x"}, 4, "invalid literal for int() with base 10: 'x'"),
    ({4: "node 3 0 1 2"}, 4, "dirichlet flag must be 0 or 1, got 2"),
    ({5: "node 3 1 1 0"}, 5, "duplicate node index 3"),
    ({7: "elem 2 1 4"}, 7, "elem line needs 5 fields, got 4"),
    ({6: "elem 1 1 2 4.0"}, 6, "invalid literal for int() with base 10: '4.0'"),
    ({6: "elem x 1 2 4"}, 6, "invalid literal for int() with base 10: 'x'"),
    ({7: "elem 1 1 4 3"}, 7, "duplicate element index 1"),
    ({8: "theta elem 1"}, 8, "theta line must read 'theta elem <t> <value>'"),
    ({8: "theta node 1 2.5"}, 8, "theta line must read 'theta elem <t> <value>'"),
    ({8: "theta elem 1 abc"}, 8, "could not convert string to float: 'abc'"),
    ({8: "theta elem 1 nan"}, 8, "theta value 'nan' is not finite"),
    ({9: "theta elem 2 inf"}, 9, "theta value 'inf' is not finite"),
    ({9: "theta elem 2.5 4"}, 9, "invalid literal for int() with base 10: '2.5'"),
    ({5: "edge 1 2"}, 5, "unknown record 'edge'"),
    ({4: "node 5 0 1 0"}, None, "node indices must be exactly 1..4"),
    ({7: "elem 3 1 4 3"}, None, "element indices must be exactly 1..2"),
    ({9: "theta elem 3 4"}, None, "theta lines must cover every element exactly once"),
    # Two bad lines: the first in file order is reported, whatever its check.
    ({3: "node 2 1 0 7", 4: "node 3 0 1"}, 3, "dirichlet flag must be 0 or 1, got 7"),
    ({5: "node 4 1 1", 7: "elem 2 1 4 3.5"}, 5, "node line needs 5 fields, got 4"),
    ({6: "elem 1 1 2 x", 8: "theta elem 1 nan"}, 6, "invalid literal"),
    ({4: "elem 1 1 2", 6: "node 3 0 nan 0"}, 4, "elem line needs 5 fields, got 4"),
    ({3: "theta elem 1 inf", 4: "node 3 0 1 9"}, 3, "theta value 'inf' is not finite"),
    ({2: "node 1 0 0 1", 3: "node 1 1 0 1", 4: "bogus"}, 3, "duplicate node index 1"),
    ({9: "theta elem 1 7"}, 9, "duplicate theta record for element 1"),
])
def test_reader_rejections(edits, line, fragment):
    with pytest.raises(MeshFormatError) as exc:
        ddfem.load_mesh(io.StringIO(_edited(edits)))
    assert exc.value.line == line
    assert fragment in str(exc.value)


def _large_mesh_lines():
    # 1681 node, 3200 element and 3200 theta lines, so a bad line sits deep
    # inside its record kind's column.
    mesh = ddfem.gen_structured_square(40, p=1)
    mesh = ddfem.Mesh(d=2, p=1, nodes=mesh.nodes, elements=mesh.elements,
                      dirichlet=mesh.dirichlet,
                      theta_elem=np.linspace(1.0, 2.0, mesh.n_elements))
    return mesh_to_text(mesh).splitlines()


@pytest.mark.parametrize("edits,line,fragment", [
    # line 1 + n holds node n, line 1682 + t element t, line 4882 + t theta t
    ({1501: "node 3 0.5 0.5 0"}, 1501, "duplicate node index 3"),
    ({1500: "node 1499 0.5 0.5 7", 1600: "node 1599 0.5"}, 1500,
     "dirichlet flag must be 0 or 1, got 7"),
    ({1682 + 2000: "elem 5 1 2 3"}, 3682, "duplicate element index 5"),
    ({1682 + 3000: "elem 3000 1 2"}, 4682, "elem line needs 5 fields, got 4"),
    ({4882 + 2500: "theta elem 2500 nan"}, 7382, "theta value 'nan' is not finite"),
    ({4882 + 3100: "thetas elem 3100 1"}, 7982, "unknown record 'thetas'"),
])
def test_reader_rejections_across_blocks(edits, line, fragment):
    lines = _large_mesh_lines()
    for ln, text in edits.items():
        lines[ln - 1] = text
    with pytest.raises(MeshFormatError) as exc:
        ddfem.load_mesh(io.StringIO("\n".join(lines) + "\n"))
    assert exc.value.line == line
    assert fragment in str(exc.value)


@pytest.mark.parametrize("text,line,fragment", [
    ("", 1, "empty mesh file"),
    ("ddfem-mesh v1 d=2 p=1\n# only a comment\n", 1, "mesh has no nodes"),
    ("ddfem-mesh v1 d=2 p=1\nnode 1 0 0 0\n", None, "mesh has no elements"),
])
def test_reader_rejects_empty_parts(text, line, fragment):
    with pytest.raises(MeshFormatError) as exc:
        ddfem.load_mesh(io.StringIO(text))
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_reader_accepts_layout_freedom():
    # Comments, blank lines, tabs, leading and trailing spaces, CRLF line
    # endings, and records interleaved out of index order.
    messy = "\r\n".join([
        "ddfem-mesh v1 d=2 p=1  ",
        "# comment before the records",
        "theta elem 2 4",
        "   node 4\t1 1 0",
        "",
        "elem 2 1\t4 3   ",
        "\t# indented comment",
        "node 2 1 0 1",
        "theta elem 1 2.5",
        "  ",
        "node 3 0 1 0",
        "elem 1 1 2 4",
        "node 1 0 0 1",
    ]) + "\r\n"
    clean = ddfem.load_mesh(io.StringIO(CONTRACT_MESH))
    got = ddfem.load_mesh(io.StringIO(messy))
    for name in ("nodes", "elements", "dirichlet", "theta_elem", "permutation"):
        np.testing.assert_array_equal(getattr(got, name), getattr(clean, name))
    assert clean.permutation is not None


def _square_p2_with_theta() -> str:
    mesh = ddfem.gen_structured_square(1, p=2)
    return mesh_to_text(ddfem.Mesh(d=2, p=2, nodes=mesh.nodes, elements=mesh.elements,
                                   dirichlet=mesh.dirichlet, theta_elem=np.array([2.5, 4.0])))


# Valid files the differential test mutates, and what it mutates them with:
# numbers loadtxt reads differently from Python or not at all, keywords, and
# whitespace str.split separates on.
READER_BASES = [CONTRACT_MESH, _square_p2_with_theta()]
READER_TOKENS = ["+3", "1_0", "\u0661", "0x1p3", "1e400", "1e-320", "-0", "1.0", "0",
                 "9223372036854775808", "-9223372036854775809", "nan", "-inf",
                 ".5", "5.", "#", "2", "node", "elem", "theta", "node\x00", "elem\x1f"]
READER_SPACES = [" ", "\t", "  ", "\x1f", "\xa0", "\u2003"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_whole_column_reader_reads_a_subset(data):
    # _read_arrays may decline any file (None), but what it returns must be
    # bitwise what the line-by-line reader returns, and it must decline every
    # file that reader rejects.
    base = data.draw(st.sampled_from(READER_BASES))
    lines = base.splitlines()
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.sampled_from(
            [k for k in range(1, len(lines)) if lines[k].split()]))
        tok = lines[i].split()
        j = data.draw(st.integers(0, len(tok) - 1))
        how = data.draw(st.sampled_from(
            ["replace", "drop", "insert", "space", "duplicate", "blank"]))
        if how == "replace":
            tok[j] = data.draw(st.sampled_from(READER_TOKENS))
        elif how == "drop":
            del tok[j]
        elif how == "insert":
            tok.insert(j, data.draw(st.sampled_from(READER_TOKENS)))
        elif how == "duplicate":
            lines.insert(data.draw(st.integers(1, len(lines))), lines[i])
            continue
        elif how == "blank":
            lines.insert(i, data.draw(st.sampled_from(READER_SPACES + ["", "# c"])))
            continue
        space = data.draw(st.sampled_from(READER_SPACES))
        lines[i] = data.draw(st.sampled_from(["", space])) + space.join(tok)
    d, p = (int(field[2:]) for field in lines[0].split()[2:])
    try:
        expected = _read_lines(lines, d, node_count(d, p))
    except MeshFormatError:
        expected = None
    got = _read_arrays(lines, d, node_count(d, p))
    if expected is None or got is None:
        assert got is None
        return
    for a, b in zip(got, expected):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_python_only_number_syntax_loads_like_canonical():
    # Underscores, non-ASCII digits and explicit signs are Python int() and
    # float() syntax; loadtxt declines some of them, so the line-by-line
    # reader takes this file, and it loads to the same mesh.
    python_only = "\r\n".join([
        "ddfem-mesh v1 d=2 p=1",
        "# nodes",
        "node +1 0_0 0.0e0_0 1",
        "node \u0662 1_0e-1_0 0 \u0661",
        "",
        "node 3 0 1.0_0 +0",
        "node 4 1 \u0661.\u0660 0",
        "\t# elements",
        "elem 1 1 2 \u0664",
        "elem 2 01 4 3",
        "theta elem 1 2.5_0",
        "theta elem 2 4",
    ]) + "\r\n"
    canonical = _edited({3: "node 2 1e-9 0 1"})
    lines = python_only.splitlines()
    assert _read_arrays(lines, 2, 3) is None
    assert _read_arrays(canonical.splitlines(), 2, 3) is not None
    clean = ddfem.load_mesh(io.StringIO(canonical))
    got = ddfem.load_mesh(io.StringIO(python_only))
    for name in ("nodes", "elements", "dirichlet", "theta_elem", "permutation"):
        np.testing.assert_array_equal(getattr(got, name), getattr(clean, name))


@pytest.mark.parametrize("edits", [
    {4: "node 3.0 0 1 0"},
    {4: "node 3 0 1 1.0"},
    {6: "elem 1 1 2 4.0"},
    {9: "theta elem 2.5 4"},
])
def test_whole_column_reader_declines_float_integers_whatever_the_filters(edits):
    # Some NumPy releases read "4.0" in an integer field by truncating a float
    # and only warn, which default filters hide; the file must still go to
    # the line-by-line reader, which rejects it.
    lines = _edited(edits).splitlines()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _read_arrays(lines, 2, 3) is None
    with pytest.raises(MeshFormatError):
        _read_lines(lines, 2, 3)


@pytest.mark.parametrize("index", ["0", "-1", "5", "100000000000000000000"])
def test_element_node_out_of_range_before_renumbering(index):
    # Node 1 is Dirichlet, so loading renumbers; a node index outside 1..4
    # must be rejected rather than wrap around to another node.
    text = _edited({3: "node 2 1 0 0", 7: f"elem 2 {index} 2 3"})
    with pytest.raises(MeshInvariantError, match="out of range"):
        ddfem.load_mesh(io.StringIO(text))


def test_invariant_violations():
    dup = SINGLE_TRIANGLE.replace("elem 1 1 2 3", "elem 1 1 2 2")
    with pytest.raises(MeshInvariantError):
        ddfem.load_mesh(dup)
    dangling = SINGLE_TRIANGLE.replace("elem 1 1 2 3", "elem 1 1 2 4")
    with pytest.raises(MeshInvariantError):
        ddfem.load_mesh(dangling)
    orphan = SINGLE_TRIANGLE + "node 4 2 2 0\n"
    orphan = orphan.replace("node 3 0 1 0", "node 3 0 1 0")
    with pytest.raises(MeshInvariantError):
        ddfem.load_mesh(orphan)


def test_normalize_numbering_stable():
    mesh = ddfem.Mesh(
        d=2, p=1,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        dirichlet=np.array([True, False, False]),
    )
    out = normalize_numbering(mesh)
    validate_mesh(out)
    np.testing.assert_array_equal(out.dirichlet, [False, False, True])
    np.testing.assert_allclose(out.nodes, [[1, 0], [0, 1], [0, 0]])
    np.testing.assert_array_equal(out.elements, [[2, 0, 1]])


def test_conductivity_modes():
    const = ddfem.ConductivityField.from_constant(1.0)
    assert ddfem.eval_conductivity(const, (0.3, 0.3)) == 1.0

    per = ddfem.ConductivityField.from_per_element([1.0, 100.0])
    assert ddfem.eval_conductivity(per, (0.9, 0.9), element=1) == 100.0
    with pytest.raises(UnsupportedConfigError):
        ddfem.eval_conductivity(per, (0.9, 0.9))

    expr = ddfem.ConductivityField.from_expression("1 + x**2")
    assert ddfem.eval_conductivity(expr, (1.0, 0.0)) == pytest.approx(2.0)


def test_conductivity_positivity():
    with pytest.raises(ConductivityPositivityError):
        ddfem.eval_conductivity(ddfem.ConductivityField.from_constant(0.0), (0, 0))
    expr = ddfem.ConductivityField.from_expression("x - 10")
    with pytest.raises(ConductivityPositivityError):
        ddfem.eval_conductivity(expr, (1.0, 0.0))


def test_conductivity_expression_rejects_unknown_names():
    with pytest.raises(UnsupportedConfigError):
        ddfem.ConductivityField.from_expression("__import__('os').getpid()")


def test_transform_mesh(two_triangle_square):
    doubled = ddfem.transform_mesh(two_triangle_square, lambda x: 2.0 * x)
    np.testing.assert_allclose(doubled.nodes, 2.0 * two_triangle_square.nodes)
    np.testing.assert_array_equal(doubled.elements, two_triangle_square.elements)


# sha256 of mesh_to_text for k=3, p=2, boundary Dirichlet: generated output
# must stay byte-identical.
GEN_SHA256 = {
    "square": "feec131043dc9a514dd61a04d1cd53ec1faaa28b960f1c8f2869442c4bae9722",
    "cube": "96cffcfc8d8618315fad9254776e366dcc6cf6198850dc0c83b658a82fe99f7e",
}


@pytest.mark.parametrize("kind", ["square", "cube"])
def test_generator_output_pinned(kind):
    gen = ddfem.gen_structured_square if kind == "square" else ddfem.gen_structured_cube
    text = mesh_to_text(gen(3, p=2))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GEN_SHA256[kind]


def test_conductivity_expression_on_point_stacks():
    expr = ddfem.ConductivityField.from_expression("1 + max(x, y, 0.5) + abs(z)")
    points = np.array([[[0.1, 0.2], [0.9, 0.3]], [[0.2, 0.7], [0.0, 0.0]]])
    values = ddfem.eval_conductivity(expr, points)
    np.testing.assert_allclose(values, [[1.5, 1.9], [1.7, 1.5]])


def test_conductivity_error_names_element_and_gauss_point():
    per = ddfem.ConductivityField.from_per_element([1.0, 2.0, np.inf])
    points = np.zeros((3, 2, 2))
    with pytest.raises(ConductivityPositivityError) as exc:
        ddfem.eval_conductivity(per, points, element=np.arange(3)[:, None])
    assert (exc.value.element, exc.value.gauss_point) == (2, 0)
    assert "element 3, Gauss point 1" in str(exc.value)

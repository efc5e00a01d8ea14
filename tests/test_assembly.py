import dataclasses
import io

import numpy as np
import pytest
import scipy.sparse as sp

import ddfem
from ddfem import assembly, dd_approx
from ddfem.assembly import load_matrix_text, reference_tables, save_matrix_text
from ddfem.errors import ElementOrientationError, MeshFormatError

from conftest import traced_peak
from oracles import (
    coo_mirrored_csr,
    exact_p1_element_stiffness,
    transpose_matmul_stiffness,
)

UNIT_TRIANGLE_K = np.array([
    [1.0, -0.5, -0.5],
    [-0.5, 0.5, 0.0],
    [-0.5, 0.0, 0.5],
])


def build_single(mesh_nodes, theta=1.0, dirichlet=None, d=2):
    nodes = np.asarray(mesh_nodes, dtype=float)
    flags = np.zeros(len(nodes), dtype=bool)
    if dirichlet:
        flags[list(dirichlet)] = True
    return ddfem.Mesh(d=d, p=1, nodes=nodes,
                      elements=np.array([list(range(len(nodes)))]),
                      dirichlet=flags)


def geometry_of(mesh, theta=1.0):
    ref = ddfem.make_reference(mesh.d, mesh.p)
    rule = ddfem.standard_rule(mesh.d, mesh.p)
    field = ddfem.ConductivityField.from_constant(theta)
    return ddfem.element_geometry(mesh, ref, rule, field), ref, rule


def stiffness_of(mesh, theta=1.0):
    """Element matrix of a single-element mesh."""
    geom, ref, rule = geometry_of(mesh, theta)
    return ddfem.element_stiffness(geom, ref, rule)[0]


def test_identity_map_geometry(unit_triangle_mesh):
    geom, ref, rule = geometry_of(unit_triangle_mesh)
    np.testing.assert_allclose(geom.jacobians[0, 0], np.eye(2))
    np.testing.assert_allclose(geom.dets[0], [1.0])
    np.testing.assert_allclose(geom.inverse_transposes[0, 0], np.eye(2))
    np.testing.assert_allclose(geom.theta_vals[0], [1.0])


def test_scaled_triangle_geometry():
    h = 0.25
    mesh = build_single([[0, 0], [h, 0], [0, h]])
    geom, _, _ = geometry_of(mesh)
    np.testing.assert_allclose(geom.jacobians[0, 0], h * np.eye(2))
    np.testing.assert_allclose(geom.dets[0], [h * h])


def test_inverted_element_raises():
    mesh = build_single([[0, 0], [0, 1], [1, 0]])   # two vertices swapped
    with pytest.raises(ElementOrientationError) as exc:
        geometry_of(mesh)
    assert exc.value.element == 0
    assert exc.value.gauss_point == 0
    assert exc.value.det < 0


def test_unit_triangle_stiffness(unit_triangle_mesh):
    kt = stiffness_of(unit_triangle_mesh)
    np.testing.assert_allclose(kt, UNIT_TRIANGLE_K, atol=1e-15)


def test_stiffness_scale_invariance_2d():
    for h in (0.1, 3.0):
        mesh = build_single([[0, 0], [h, 0], [0, h]])
        kt = stiffness_of(mesh)
        np.testing.assert_allclose(kt, UNIT_TRIANGLE_K, atol=1e-14)


def test_stiffness_linear_in_theta(unit_triangle_mesh):
    kt = stiffness_of(unit_triangle_mesh, theta=5.0)
    np.testing.assert_allclose(kt, 5.0 * UNIT_TRIANGLE_K, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_linear_elements_match_exact_integration(d):
    # With constant gradients the quadrature integrand has degree zero, so the
    # midpoint rule reproduces the exactly integrated matrix.
    rng = np.random.default_rng(3)
    for _ in range(10):
        base = rng.standard_normal((d + 1, d))
        while np.linalg.det((base[1:] - base[0]).T) < 0.05:
            base = rng.standard_normal((d + 1, d))
        mesh = build_single(base, d=d)
        kt = stiffness_of(mesh, theta=2.5)
        oracle = exact_p1_element_stiffness(base, theta=2.5)
        np.testing.assert_allclose(kt, oracle, atol=1e-12 * np.abs(oracle).max())


@pytest.mark.parametrize("maker,p", [
    (lambda p: ddfem.gen_structured_square(2, p=p, dirichlet="none"), 1),
    (lambda p: ddfem.gen_structured_square(2, p=p, dirichlet="none"), 2),
    (lambda p: ddfem.gen_structured_cube(2, p=p, dirichlet="none"), 1),
    (lambda p: ddfem.gen_structured_cube(2, p=p, dirichlet="none"), 2),
])
def test_element_row_sums_symmetry_psd(maker, p):
    mesh = maker(p)
    system = ddfem.build_system(mesh)
    for kt in system.element_stiffness:
        scale = np.linalg.norm(kt)
        assert np.abs(kt @ np.ones(len(kt))).max() <= 1e-12 * scale
        np.testing.assert_array_equal(kt, kt.T)
        assert np.linalg.eigvalsh(kt)[0] >= -1e-10 * scale


def _moved_mesh(d, p, rng):
    """Jittered structured mesh; at p = 2 every mid-edge node leaves its edge's midpoint."""
    gen = ddfem.gen_structured_square if d == 2 else ddfem.gen_structured_cube
    mesh = gen(3, p=p, dirichlet="none")
    nodes = mesh.nodes + 0.02 * rng.uniform(-1.0, 1.0, mesh.nodes.shape)
    if p == 2:
        ref_nodes = ddfem.make_reference(d, 2).ref_nodes
        corner = np.isin(ref_nodes, (0.0, 1.0)).all(axis=1)
        mid = np.unique(mesh.elements[:, ~corner])
        nodes[mid] += 0.02 * rng.uniform(-1.0, 1.0, (len(mid), d))
    return dataclasses.replace(mesh, nodes=nodes)


@pytest.mark.parametrize("d,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_reference_tensor_matches_transpose_matmul(d, p):
    rng = np.random.default_rng(10 * d + p)
    mesh = _moved_mesh(d, p, rng)
    theta = ddfem.ConductivityField.from_per_element(
        10.0 ** rng.uniform(-3.0, 3.0, mesh.n_elements))
    ref = ddfem.make_reference(d, p)
    rule = ddfem.standard_rule(d, p)
    tables = reference_tables(ref, rule)
    geom = ddfem.element_geometry(mesh, ref, rule, theta, tables=tables)
    if p == 2:
        # isoparametric: the metric differs between Gauss points
        assert np.ptp(geom.dets, axis=1).min() > 0.0
    got = ddfem.element_stiffness(geom, ref, rule, tables=tables)
    want = transpose_matmul_stiffness(geom.inverse_transposes, geom.dets,
                                      geom.theta_vals, rule.weights, tables[1])
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    np.testing.assert_array_equal(got, got.swapaxes(1, 2))


def test_assembled_linear_in_theta():
    mesh = ddfem.gen_structured_square(2, p=1)
    sys1 = ddfem.build_system(mesh, ddfem.ConductivityField.from_constant(1.0))
    sys7 = ddfem.build_system(mesh, ddfem.ConductivityField.from_constant(7.0))
    np.testing.assert_allclose(sys7.stiffness.toarray(),
                               7.0 * sys1.stiffness.toarray(), rtol=1e-15)


def test_two_triangle_square_assembly(two_triangle_square):
    system = ddfem.build_system(two_triangle_square)
    k = system.stiffness.toarray()
    assert k.shape == (4, 4)
    # hand assembly of the two element matrices through the connectivity
    oracle = np.zeros((4, 4))
    for t in range(2):
        ids = two_triangle_square.elements[t]
        kt = exact_p1_element_stiffness(two_triangle_square.nodes[ids])
        for a in range(3):
            for b in range(3):
                oracle[ids[a], ids[b]] += kt[a, b]
    np.testing.assert_allclose(k, oracle, atol=1e-14)
    w, v = np.linalg.eigh(k)
    assert abs(w[0]) <= 1e-14
    constant = v[:, 0] / v[0, 0]
    np.testing.assert_allclose(constant, np.ones(4), atol=1e-10)
    assert w[1] > 1e-10


def test_all_dirichlet_gives_empty_system():
    mesh = ddfem.gen_structured_square(1, p=1)   # every node on the boundary
    system = ddfem.build_system(mesh)
    assert system.stiffness.shape[0] == 0
    assert system.stiffness.toarray().shape == (0, 0)


def test_single_element_with_dirichlet_vertex(unit_triangle_mesh):
    full = stiffness_of(unit_triangle_mesh)
    mesh = build_single([[0, 0], [1, 0], [0, 1]], dirichlet=[0])
    system = ddfem.build_system(mesh)
    k = system.stiffness.toarray()
    assert k.shape == (2, 2)
    np.testing.assert_allclose(k, full[1:, 1:], atol=1e-15)


def test_load_zero_source_zero_dirichlet():
    mesh = ddfem.gen_structured_square(2, p=1)
    system = ddfem.build_system(mesh)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, system.theta, 0.0)
    np.testing.assert_array_equal(rhs, np.zeros(mesh.n_free))


def test_load_unit_source_single_triangle(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    rhs = ddfem.assemble_load(unit_triangle_mesh, system.ref, system.rule,
                              system.theta, 1.0)
    np.testing.assert_allclose(rhs, [1 / 6] * 3, atol=1e-15)


def test_load_picks_up_dirichlet_coupling():
    mesh = build_single([[0, 0], [1, 0], [0, 1]], dirichlet=[0])
    system = ddfem.build_system(mesh)
    c = 3.5
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, system.theta,
                              0.0, dirichlet_values=c)
    full_mesh = build_single([[0, 0], [1, 0], [0, 1]])
    kt = stiffness_of(full_mesh)
    # constrained node is the origin; couplings are the -1/2 entries
    np.testing.assert_allclose(rhs, [0.5 * c, 0.5 * c], atol=1e-14)
    assert kt[0, 1] == pytest.approx(-0.5)


def test_sparsity_confined_to_shared_elements():
    mesh = ddfem.gen_structured_square(3, p=1, dirichlet="none")
    system = ddfem.build_system(mesh)
    dense = system.stiffness.toarray()
    share = np.zeros_like(dense, dtype=bool)
    for t in range(mesh.n_elements):
        ids = mesh.elements[t]
        share[np.ix_(ids, ids)] = True
    assert np.all(dense[~share] == 0.0)


def test_matrix_text_roundtrip(two_triangle_square):
    system = ddfem.build_system(two_triangle_square)
    buf = io.StringIO()
    save_matrix_text(system.stiffness, buf)
    back = load_matrix_text(buf.getvalue())
    for name in ("indptr", "indices", "data"):
        got, want = getattr(back, name), getattr(system.stiffness, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for matrix in (system.stiffness, system.kbar):
        assert type(matrix) is sp.csr_matrix and matrix.has_canonical_format
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    with pytest.raises(MeshFormatError):
        load_matrix_text("bogus\n")


def test_matrix_text_rejects_nonfinite_entry():
    with pytest.raises(MeshFormatError) as exc:
        load_matrix_text(
            "ddfem-matrix v1 n=2 symmetric=upper\nentry 1 1 2\nentry 1 2 nan\n")
    assert exc.value.line == 3


def test_matrix_text_rejects_negative_size():
    with pytest.raises(MeshFormatError, match="bad header") as exc:
        load_matrix_text("ddfem-matrix v1 n=-1 symmetric=upper\n")
    assert exc.value.line == 1


def test_matrix_text_rejects_size_above_its_entry_lines():
    # save_matrix_text writes every diagonal entry, so n may not exceed the
    # entry lines; a huge n is rejected before an index pointer of n + 1
    # entries is allocated.
    text = "ddfem-matrix v1 n=1000000000000 symmetric=upper\nentry 1 1 2\n"

    def load():
        with pytest.raises(MeshFormatError, match="bad header") as exc:
            load_matrix_text(text)
        assert exc.value.line == 1
    assert traced_peak(load) < 2 ** 20
    with pytest.raises(MeshFormatError, match="n=3 exceeds the 2 entry lines") as exc:
        load_matrix_text("ddfem-matrix v1 n=3 symmetric=upper\n# K\n"
                         "entry 1 1 2\n\nentry 2 2 1\n")
    assert exc.value.line == 1
    back = load_matrix_text("ddfem-matrix v1 n=2 symmetric=upper\n# K\n"
                            "entry 1 1 2\n\nentry 2 2 1\n")
    np.testing.assert_array_equal(back.toarray(), np.diag([2.0, 1.0]))


def test_matrix_text_rejects_repeated_entry():
    with pytest.raises(MeshFormatError, match="duplicate entry 1 2") as exc:
        load_matrix_text(
            "ddfem-matrix v1 n=2 symmetric=upper\nentry 1 2 2\n"
            "entry 2 2 1\nentry 1 2 5\n")
    assert exc.value.line == 4


def test_nan_determinant_raises_orientation_error():
    mesh = build_single([[0, 0], [np.nan, 0], [0, 1]])
    with pytest.raises(ElementOrientationError) as exc:
        geometry_of(mesh)
    assert exc.value.element == 0 and np.isnan(exc.value.det)


def test_exact_symmetry_of_assembled_matrix():
    mesh = ddfem.gen_structured_cube(2, p=2, dirichlet="none")
    system = ddfem.build_system(
        mesh, ddfem.ConductivityField.from_expression("1 + x**2 + 0.5*y"))
    k = system.stiffness
    assert (k != k.T).nnz == 0


@pytest.mark.parametrize("kind,p", [("square", 1), ("square", 2),
                                    ("cube", 1), ("cube", 2)])
def test_mirrored_csr_matches_coo_oracle(monkeypatch, kind, p):
    # The triplets K and Kbar are built from, mirrored both ways: the CSR
    # arrays must agree bit for bit, explicit zeros (entries that sum to
    # exactly 0, as on the right-angled p=1 square) included.
    calls = []
    mirrored = assembly.mirrored_csr

    def spy(n, rows, cols, vals):
        calls.append((n, rows, cols, vals))
        return mirrored(n, rows, cols, vals)

    monkeypatch.setattr(assembly, "mirrored_csr", spy)
    monkeypatch.setattr(dd_approx, "mirrored_csr", spy)
    gen = ddfem.gen_structured_square if kind == "square" else ddfem.gen_structured_cube
    mesh = gen(6 if kind == "square" else 3, p=p)
    system = ddfem.build_system(mesh, ddfem.ConductivityField.from_expression("1 + x*y"))
    system.stiffness, system.kbar
    assert len(calls) == 2
    zeros = 0
    for n, rows, cols, vals in calls:
        got, want = mirrored(n, rows, cols, vals), coo_mirrored_csr(n, rows, cols, vals)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        zeros += int((want.data == 0).sum())
    if (kind, p) == ("square", 1):
        assert zeros > 0


def test_reference_tables_shapes():
    ref = ddfem.make_reference(3, 2)
    rule = ddfem.standard_rule(3, 2)
    vals, grads = reference_tables(ref, rule)
    assert vals.shape == (4, 10)
    assert grads.shape == (4, 10, 3)
    np.testing.assert_allclose(vals.sum(axis=1), np.ones(4), atol=1e-13)

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.factorization import (
    _largest_norm,
    element_j_singular_values,
    local_incidence,
    save_incidence,
    spectral_norm,
)
from ddfem.mesh import normalize_numbering

from conftest import jump_conductivity


def single_triangle(dirichlet=()):
    flags = np.zeros(3, dtype=bool)
    for i in dirichlet:
        flags[i] = True
    mesh = ddfem.Mesh(d=2, p=1,
                      nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      elements=np.array([[0, 1, 2]]),
                      dirichlet=flags)
    return normalize_numbering(mesh)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
@example([0, 2.5, 2.5, 1.192092896e-07])
def test_spectral_norm_2x2(entries):
    m = np.array(entries).reshape(2, 2)
    assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
def test_spectral_norm_3x3(entries):
    m = np.array(entries).reshape(3, 3)
    assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-9)


def test_incidence_single_triangle():
    inc = ddfem.build_incidence(single_triangle())
    np.testing.assert_array_equal(inc.matrix.toarray(),
                                  [[-1, 1, 0], [-1, 0, 1]])
    np.testing.assert_array_equal(inc.arcs, [[0, 1], [0, 2]])


def test_incidence_with_dirichlet_node():
    # Origin constrained: its entries vanish, rows keep only the +1 end.
    inc = ddfem.build_incidence(single_triangle(dirichlet=[0]))
    np.testing.assert_array_equal(inc.matrix.toarray(), [[1, 0], [0, 1]])
    np.testing.assert_array_equal(inc.arcs, [[-1, 0], [-1, 1]])


def test_incidence_shared_edge_multigraph(two_triangle_square):
    inc = ddfem.build_incidence(two_triangle_square)
    assert inc.matrix.shape == (4, 4)
    dense = inc.matrix.toarray()
    # every row has one +1, one -1
    np.testing.assert_array_equal(np.sort(dense, axis=1)[:, [0, -1]],
                                  np.tile([-1.0, 1.0], (4, 1)))
    counts = (dense != 0).sum(axis=1)
    assert np.all(counts <= 2)
    # both elements are stars rooted at their own first local node
    for t in range(2):
        root = two_triangle_square.elements[t][0]
        block = inc.block(t).toarray()
        assert np.all(block[:, root] == -1)


def test_local_incidence_shape():
    a = local_incidence(4)
    np.testing.assert_array_equal(a, [[-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]])


def test_identity_element_factors(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    fac = system.factors
    assert fac.alpha[0] == pytest.approx(1.0)
    assert fac.beta[0] == pytest.approx(1.0)
    np.testing.assert_allclose(fac.j[0], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(fac.d_diag[0], [0.5, 0.5])


def test_scaling_cancels_in_alpha_beta():
    h = 0.03125
    nodes = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
    mesh = ddfem.Mesh(d=2, p=1, nodes=nodes, elements=np.array([[0, 1, 2]]),
                      dirichlet=np.zeros(3, dtype=bool))
    system = ddfem.build_system(mesh)
    fac = system.factors
    assert fac.alpha[0] == pytest.approx(1.0 / h)
    assert fac.beta[0] == pytest.approx(h)
    assert fac.alpha[0] * fac.beta[0] == pytest.approx(1.0)


def test_sliver_blows_up_alpha_beta():
    products = []
    for eps in (1e-1, 1e-3, 1e-5):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, eps]])
        mesh = ddfem.Mesh(d=2, p=1, nodes=nodes, elements=np.array([[0, 1, 2]]),
                          dirichlet=np.zeros(3, dtype=bool))
        fac = ddfem.build_system(mesh).factors
        products.append(fac.alpha[0] * fac.beta[0])
    assert products[0] < products[1] < products[2]
    assert products[2] > 1e4


def _largest_norm_reference(blocks):
    """Worst 2-norm over Gauss points of 2x2 blocks, closed form in long double.

    The Gram block's largest eigenvalue is (tr + sqrt(tr^2 - 4 det)) / 2; the
    discriminant is taken as (g00 - g11)^2 + (g01 + g10)^2, a sum of squares,
    because tr^2 - 4 det cancels when the two singular values are close.
    """
    a = blocks.astype(np.longdouble)
    gram = np.swapaxes(a, -1, -2) @ a
    tr = gram[..., 0, 0] + gram[..., 1, 1]
    disc = np.hypot(gram[..., 0, 0] - gram[..., 1, 1],
                    gram[..., 0, 1] + gram[..., 1, 0])
    return np.sqrt((tr + disc) / 2).max(axis=1)


def test_alpha_beta_accurate_on_slivers():
    # Both norms are largest singular values, accurate to roundoff relative
    # to themselves.  beta taken as 1/sigma_min of the inverse
    # transpose would lose a factor of the element's condition (1e5 here).
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-5], [0.3, 0.7]])
    mesh = ddfem.Mesh(d=2, p=1, nodes=nodes, elements=np.array([[0, 1, 2], [0, 1, 3]]),
                      dirichlet=np.zeros(4, dtype=bool))
    system = ddfem.build_system(mesh)
    geom = system.geometries
    for got, blocks in ((system.factors.alpha, geom.inverse_transposes),
                        (system.factors.beta, geom.jacobians)):
        want = _largest_norm_reference(blocks)
        assert np.all(np.abs(got - want) <= 2e-15 * want)
    np.testing.assert_array_equal(system.alpha, system.factors.alpha)


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


_BLOCK = st.tuples(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi),
                   st.floats(-8, 8), st.floats(0, 8), st.booleans())


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 7), data=st.data())
def test_largest_norm_2x2_closed_form_matches_reference(q, data):
    # Each block is rotation . diag(s1, +-s2) . rotation with s1 = 10**scale
    # and s1 / s2 = 10**aspect, so stacks reach aspect ratios of 1e8 at
    # scales from 1e-8 to 1e8, and determinants of either sign.
    groups = data.draw(st.lists(st.lists(_BLOCK, min_size=q, max_size=q),
                                min_size=1, max_size=6))
    blocks = np.array([[_rotation(t1) @ np.diag([10.0 ** s, (1 if pos else -1)
                                                 * 10.0 ** (s - a)])
                        @ _rotation(t2)
                        for t1, t2, s, a, pos in group] for group in groups])
    got = _largest_norm(blocks)
    want = _largest_norm_reference(blocks)
    assert np.all(np.abs(got - want.astype(float)) <= 2e-15 * want)


def meshes_for_identity():
    yield ddfem.gen_structured_square(3, p=1), None
    yield ddfem.gen_structured_square(3, p=2), None
    yield ddfem.gen_structured_cube(2, p=1), None
    yield ddfem.gen_structured_cube(2, p=2), None
    jump = ddfem.gen_structured_square(4, p=1)
    yield jump, jump_conductivity(jump)
    expr = ddfem.gen_structured_cube(2, p=2)
    yield expr, ddfem.ConductivityField.from_expression("1 + x**2 + y")


@pytest.mark.parametrize("case", range(6))
def test_factorization_identity(case):
    mesh, theta = list(meshes_for_identity())[case]
    system = ddfem.build_system(mesh, theta)
    report = ddfem.verify_first_factorization(
        mesh, system.factors, system.incidence, system.element_stiffness,
        system.stiffness)
    assert report.passed
    assert report.max_element_residual <= 1e-10
    assert report.global_residual <= 1e-10


def test_identity_hand_check(unit_triangle_mesh):
    # With the identity map the middle factors collapse to diag(1/2), so the
    # product is half the star Laplacian, which is the known element matrix.
    system = ddfem.build_system(unit_triangle_mesh)
    gram = system.factors.gram()[0]
    local = local_incidence(3)
    product = local.T @ gram @ local
    np.testing.assert_allclose(product, system.element_stiffness[0], atol=1e-15)
    np.testing.assert_allclose(gram, 0.5 * np.eye(2), atol=1e-15)


def test_identity_unchanged_by_theta_scaling():
    mesh = ddfem.gen_structured_square(2, p=2)
    for c in (1.0, 1e4):
        system = ddfem.build_system(mesh, ddfem.ConductivityField.from_constant(c))
        report = ddfem.verify_first_factorization(
            mesh, system.factors, system.incidence, system.element_stiffness,
            system.stiffness)
        assert report.max_element_residual <= 1e-10


@pytest.mark.parametrize("d,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_j_singular_value_bounds(d, p):
    mesh = (ddfem.gen_structured_square(2, p=p) if d == 2
            else ddfem.gen_structured_cube(2, p=p))
    system = ddfem.build_system(mesh)
    sv = element_j_singular_values(system.factors)
    fac = system.factors
    for t in range(mesh.n_elements):
        assert sv[t, 0] <= system.sqp.sigma_qp + 1e-10
        assert sv[t, 1] >= system.sqp.tau_qp / (fac.alpha[t] * fac.beta[t]) - 1e-10


def test_d_diag_strictly_positive():
    mesh = ddfem.gen_structured_cube(2, p=2)
    system = ddfem.build_system(mesh)
    assert np.all(system.factors.d_diag > 0)


def test_incidence_debug_dump(two_triangle_square):
    inc = ddfem.build_incidence(two_triangle_square)
    buf = io.StringIO()
    save_incidence(inc, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("arc ") for line in lines)
    first_root = two_triangle_square.elements[0][0] + 1
    assert lines[0].split() == ["arc", str(first_root),
                                str(two_triangle_square.elements[0][1] + 1)]


def test_incidence_dump_marks_omitted_endpoints():
    inc = ddfem.build_incidence(single_triangle(dirichlet=[0]))
    buf = io.StringIO()
    save_incidence(inc, buf)
    for line in buf.getvalue().strip().splitlines():
        assert line.split()[1] == "0"

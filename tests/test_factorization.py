import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.cli import main
from ddfem.factorization import (
    JACOBI_MAX_SWEEPS,
    _gram_rows,
    _jacobi_sweeps,
    _largest_norm,
    element_j_singular_values,
    local_incidence,
    spectral_norm,
)

from conftest import jump_conductivity


def single_triangle(dirichlet=()):
    flags = np.zeros(3, dtype=bool)
    for i in dirichlet:
        flags[i] = True
    return ddfem.Mesh(d=2, p=1,
                      nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      elements=np.array([[0, 1, 2]]),
                      dirichlet=flags)


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
        block = inc.matrix[t * (inc.l - 1):(t + 1) * (inc.l - 1)].toarray()
        assert np.all(block[:, root] == -1)


def test_local_incidence_shape():
    a = local_incidence(4)
    np.testing.assert_array_equal(a, [[-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]])


def test_identity_element_factors(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    fac = system.factors
    assert system.alpha[0] == pytest.approx(1.0)
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
    assert system.alpha[0] == pytest.approx(1.0 / h)
    assert fac.beta[0] == pytest.approx(h)
    assert system.alpha[0] * fac.beta[0] == pytest.approx(1.0)


def test_sliver_blows_up_alpha_beta():
    products = []
    for eps in (1e-1, 1e-3, 1e-5):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, eps]])
        mesh = ddfem.Mesh(d=2, p=1, nodes=nodes, elements=np.array([[0, 1, 2]]),
                          dirichlet=np.zeros(3, dtype=bool))
        system = ddfem.build_system(mesh)
        products.append(system.alpha[0] * system.factors.beta[0])
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
    for got, blocks in ((system.alpha, geom.inverse_transposes),
                        (system.factors.beta, geom.jacobians)):
        want = _largest_norm_reference(blocks)
        assert np.all(np.abs(got - want) <= 2e-15 * want)


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
    # The 2D closed form is the one expression below, bit for bit.
    a, b = blocks[..., 0, 0], blocks[..., 0, 1]
    c, e = blocks[..., 1, 0], blocks[..., 1, 1]
    closed = (0.5 * (np.hypot(a + e, b - c) + np.hypot(a - e, b + c))).max(axis=1)
    assert got.tobytes() == closed.tobytes()


def _rotation3(a, b, c):
    """The z-y-z Euler rotation of angles a, b, c."""
    def about(axis, angle):
        i, j = [k for k in range(3) if k != axis]
        out = np.eye(3)
        out[[i, i, j, j], [i, j, i, j]] = (np.cos(angle), -np.sin(angle),
                                           np.sin(angle), np.cos(angle))
        return out
    return about(2, a) @ about(1, b) @ about(2, c)


_ANGLES = st.tuples(*[st.floats(0, 2 * np.pi)] * 3)
_UNIT = st.floats(-1, 1)

# 3 x 3 blocks the Jacobi kernel must get right: arbitrary entries, exactly
# diagonal blocks (no rotation runs), nearly repeated singular values
# (I + 1e-3 R), and U diag(1, s2, s3) V^T with s2, s3 down to 1e-16.
_BLOCK3 = st.one_of(
    st.lists(st.floats(-8, 8), min_size=9, max_size=9).map(
        lambda v: np.array(v).reshape(3, 3)),
    st.lists(st.floats(-8, 8), min_size=3, max_size=3).map(np.diag),
    st.lists(_UNIT, min_size=9, max_size=9).map(
        lambda v: np.eye(3) + 1e-3 * np.array(v).reshape(3, 3)),
    st.tuples(_ANGLES, _ANGLES, st.floats(0, 12), st.floats(0, 16)).map(
        lambda t: _rotation3(*t[0]) @ np.diag([1.0, 10.0 ** -t[2], 10.0 ** -t[3]])
        @ _rotation3(*t[1])),
)


def _svd_largest_norm(blocks):
    return np.linalg.svd(blocks, compute_uv=False)[..., 0].max(axis=1)


@settings(max_examples=300, deadline=None)
@given(q=st.integers(1, 5), scale=st.sampled_from([-330, 0, 330]), data=st.data())
def test_largest_norm_3x3_jacobi_matches_svd(q, scale, data):
    # Blocks scaled by 2**-330 or 2**330 square to below or above the double
    # range; the kernel's power-of-two scaling keeps them exact.
    groups = data.draw(st.lists(st.lists(_BLOCK3, min_size=q, max_size=q),
                                min_size=1, max_size=6))
    blocks = np.ldexp(np.array(groups), scale)
    given_blocks = blocks.copy()
    got = _largest_norm(blocks)
    assert blocks.tobytes() == given_blocks.tobytes()
    want = _svd_largest_norm(blocks)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def _spd_stacks(rng, count):
    """Random, nearly repeated and nearly rank-deficient 3 x 3 blocks."""
    q1 = np.linalg.qr(rng.standard_normal((count, 3, 3)))[0]
    q2 = np.linalg.qr(rng.standard_normal((count, 3, 3)))[0]
    spread = 10.0 ** -rng.uniform(0, 16, (count, 3))
    spread[:, 0] = 1.0
    return {
        "random": rng.standard_normal((count, 3, 3)),
        "nearly repeated": np.eye(3) + 1e-3 * rng.standard_normal((count, 3, 3)),
        "repeated": q1 @ np.diag([2.0, 2.0, 1.0]) @ q2,
        "nearly rank-deficient": q1 * spread[:, None, :] @ q2,
    }


@pytest.mark.parametrize("seed", range(3))
def test_jacobi_converges_within_the_sweep_cap(seed):
    rng = np.random.default_rng(seed)
    for name, blocks in _spd_stacks(rng, 20000).items():
        g, _ = _gram_rows(blocks)
        sweeps = _jacobi_sweeps(g)
        assert sweeps < JACOBI_MAX_SWEEPS, name
        off = g[3] ** 2 + g[4] ** 2 + g[5] ** 2
        assert np.all(off <= (np.finfo(float).eps * (g[0] + g[1] + g[2])) ** 2), name


def test_jacobi_leaves_diagonal_blocks_alone():
    blocks = np.zeros((4, 3, 3))
    blocks[:, [0, 1, 2], [0, 1, 2]] = [[3.0, 1.0, 2.0], [1.0, 1.0, 1.0],
                                       [0.0, 0.0, 0.0], [-5.0, 0.5, 0.0]]
    g, e = _gram_rows(blocks)
    assert _jacobi_sweeps(g) == 0
    np.testing.assert_array_equal(_largest_norm(blocks.reshape(4, 1, 3, 3)),
                                  [3.0, 1.0, 0.0, 5.0])


def test_largest_norm_3x3_nonfinite_block_is_nan():
    blocks = np.ones((3, 2, 3, 3))
    blocks[0, 1, 0, 0] = np.inf
    blocks[1, 0, 2, 1] = np.nan
    got = _largest_norm(blocks)
    assert np.isnan(got[:2]).all()
    assert got[2] == pytest.approx(3.0, rel=1e-15)


def _report_numbers(path, capsys):
    assert main(["report", "--mesh", str(path), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("p", [1, 2])
def test_alpha_beta_and_report_invariant_under_scaling(p, tmp_path, capsys):
    # A sheared cube scaled by 1e-100 and 1e100: the Jacobian norms scale
    # with it and the dimensionless report numbers do not.  The Gram blocks
    # of the scaled meshes hold entries near 1e-200 and 1e200.
    shear = np.array([[1.0, 0.3, 0.1], [0.0, 1.2, -0.2], [0.1, 0.0, 0.8]])
    mesh = ddfem.gen_structured_cube(2, p=p)
    mesh = replace(mesh, nodes=mesh.nodes @ shear.T)
    base = ddfem.build_system(mesh)
    ddfem.save_mesh(mesh, tmp_path / "base.mesh")
    want = _report_numbers(tmp_path / "base.mesh", capsys)
    for s in (1e-100, 1e100):
        scaled_mesh = replace(mesh, nodes=mesh.nodes * s)
        scaled = ddfem.build_system(scaled_mesh)
        np.testing.assert_allclose(scaled.alpha * s, base.alpha, rtol=1e-14, atol=0)
        np.testing.assert_allclose(scaled.factors.beta / s, base.factors.beta,
                                   rtol=1e-14, atol=0)
        ddfem.save_mesh(scaled_mesh, tmp_path / "scaled.mesh")
        got = _report_numbers(tmp_path / "scaled.mesh", capsys)
        for key in ("kappa1", "kappa2", "chi2", "chi3"):
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0), key


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
    gram = system.factors.gram[0]
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
        assert sv[t, 1] >= system.sqp.tau_qp / (system.alpha[t] * fac.beta[t]) - 1e-10


def test_d_diag_strictly_positive():
    mesh = ddfem.gen_structured_cube(2, p=2)
    system = ddfem.build_system(mesh)
    assert np.all(system.factors.d_diag > 0)


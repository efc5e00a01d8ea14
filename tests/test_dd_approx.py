from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.dd_approx import (
    build_dbar,
    build_h_blocks,
    refactorization_residuals,
)
from ddfem.errors import InfiniteSupportError
from ddfem.factorization import ElementFactors, local_incidence
from ddfem.pipeline import check_diagonal_dominance
from ddfem.quality import compute_quality
from ddfem.spectral import chi_report

from conftest import jump_conductivity

STAR_LAPLACIAN_3 = np.array([
    [2.0, -1.0, -1.0],
    [-1.0, 1.0, 0.0],
    [-1.0, 0.0, 1.0],
])


def synthetic_quality(kappa1=1.0, kappa2=1.0, theta_hat=1.0,
                      sigma=1.0, tau=1.0, m_q=1.0, M_q=1.0):
    """The quality report of one element with the given spreads and rule scalars."""
    geometries = SimpleNamespace(dets=np.array([[1.0, kappa2]]),
                                 theta_vals=np.array([[1.0, theta_hat]]))
    return compute_quality(geometries, np.array([kappa1]), np.array([1.0]),
                           SimpleNamespace(m_q=m_q, M_q=M_q),
                           SimpleNamespace(sigma_qp=sigma, tau_qp=tau))


def test_dbar_identity_triangle(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    # m_q = 1/2 times unit conductivity, determinant and alpha.
    dbar = build_dbar(system.alpha, system.geometries, system.rule)
    np.testing.assert_allclose(dbar, [0.5])


def test_dbar_scales_with_theta(unit_triangle_mesh):
    c = 42.0
    system = ddfem.build_system(
        unit_triangle_mesh, ddfem.ConductivityField.from_constant(c))
    dbar = build_dbar(system.alpha, system.geometries, system.rule)
    np.testing.assert_allclose(dbar, [0.5 * c])


def test_dbar_strictly_positive_under_jump():
    mesh = ddfem.gen_structured_square(4, p=1)
    system = ddfem.build_system(mesh, jump_conductivity(mesh))
    dbar = build_dbar(system.alpha, system.geometries, system.rule)
    assert np.all(dbar > 0)


def test_dbar_invariant_under_2d_rescaling(unit_triangle_mesh):
    for h in (1e-2, 1e2):
        scaled = ddfem.transform_mesh(unit_triangle_mesh, lambda x: h * x)
        system = ddfem.build_system(scaled)
        dbar = build_dbar(system.alpha, system.geometries, system.rule)
        np.testing.assert_allclose(dbar, [0.5], rtol=1e-12)


def test_kbar_single_triangle_star(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    np.testing.assert_allclose(system.kbar.toarray(), 0.5 * STAR_LAPLACIAN_3,
                               atol=1e-15)


def test_kbar_dirichlet_reduction_is_spd():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = ddfem.Mesh(d=2, p=1, nodes=nodes, elements=np.array([[0, 1, 2]]),
                      dirichlet=np.array([True, False, False]))
    system = ddfem.build_system(mesh)
    kbar = system.kbar.toarray()
    assert kbar.shape == (2, 2)
    assert np.linalg.eigvalsh(kbar)[0] > 0


def test_kbar_nullity_counts_components():
    # two disjoint triangles, nothing constrained -> nullity 2
    nodes = np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], dtype=float)
    mesh = ddfem.Mesh(d=2, p=1, nodes=nodes,
                      elements=np.array([[0, 1, 2], [3, 4, 5]]),
                      dirichlet=np.zeros(6, dtype=bool))
    system = ddfem.build_system(mesh)
    kbar = system.kbar.toarray()
    w = np.linalg.eigvalsh(kbar)
    assert np.sum(np.abs(w) < 1e-12) == 2


def test_kbar_equals_incidence_product():
    # independent route: A^T diag(dbar) A through scipy sparse algebra
    mesh = ddfem.gen_structured_square(3, p=2)
    system = ddfem.build_system(mesh)
    lm1 = system.ref.l - 1
    weights = np.repeat(system.dbar, lm1)
    a = system.incidence.matrix
    product = (a.T.multiply(weights) @ a).toarray()
    np.testing.assert_allclose(system.kbar.toarray(), product, atol=1e-12)


@pytest.mark.parametrize("mesh_theta", range(4))
def test_kbar_diagonally_dominant(mesh_theta):
    cases = [
        (ddfem.gen_structured_square(3, p=1), None),
        (ddfem.gen_structured_square(3, p=2), None),
        (ddfem.gen_structured_cube(2, p=2), None),
    ]
    jump = ddfem.gen_structured_square(4, p=1)
    cases.append((jump, jump_conductivity(jump)))
    mesh, theta = cases[mesh_theta]
    system = ddfem.build_system(mesh, theta)
    ok, detail = check_diagonal_dominance(system.kbar)
    assert ok, detail


def test_h_identity_triangle(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    bundle = ddfem.approximate(system)
    h = bundle.h_blocks
    np.testing.assert_allclose(h.h[0], np.eye(2), atol=1e-15)
    assert h.kappa_per_element[0] == pytest.approx(1.0)
    assert h.kappa_global == pytest.approx(1.0)


@pytest.mark.parametrize("p", [1, 2])
def test_scaled_block_bounds(p):
    mesh = ddfem.gen_structured_square(3, p=p)
    theta = ddfem.ConductivityField.from_expression("1 + x + 2*y")
    system = ddfem.build_system(mesh, theta)
    qual = ddfem.compute_quality(system.geometries, system.alpha,
                                 system.factors.beta, system.rule, system.sqp)
    dbar = build_dbar(system.alpha, system.geometries, system.rule)
    h = build_h_blocks(system.factors, dbar)
    upper = np.sqrt(qual.theta_ratio * qual.det_ratio
                    * system.rule.M_q / system.rule.m_q) \
        * system.sqp.sigma_qp
    lower = system.sqp.tau_qp / (qual.alpha * qual.beta)
    assert np.all(h.sigma_max <= upper + 1e-10)
    assert np.all(h.sigma_min >= lower - 1e-10)


def _h_blocks_of(j):
    """``build_h_blocks`` of a raw stack: unit weights and scalars scale nothing."""
    m = len(j)
    factors = ElementFactors(beta=np.ones(m), d_diag=np.ones(j.shape[:2]), j=j)
    return build_h_blocks(factors, np.ones(m))


def _conditioned_stack(rng, rows, cols, log_kappa):
    """Random (rows, cols) blocks with singular values 10**(-log_kappa * [0..1]), rescaled."""
    m = len(log_kappa)
    u = np.linalg.qr(rng.standard_normal((m, rows, cols)))[0]
    v = np.linalg.qr(rng.standard_normal((m, cols, cols)))[0]
    s = 10.0 ** -(log_kappa[:, None] * np.linspace(0.0, 1.0, cols))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (m, 1, 1))
    return scale * (u * s[:, None, :]) @ v.swapaxes(1, 2)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(6, 5), (12, 9), (3, 2), (4, 3)]),
       m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_h_block_spectra_match_svd(shape, m, seed):
    # Block condition numbers from 1 to 1e12: those up to 100 (Gram up to
    # 1e4) are read from the Gram eigenvalues, the rest take the SVD.
    rng = np.random.default_rng(seed)
    j = _conditioned_stack(rng, *shape, rng.uniform(0.0, 12.0, m))
    hb = _h_blocks_of(j)
    s = np.linalg.svd(j, compute_uv=False)
    np.testing.assert_allclose(hb.sigma_max, s[:, 0], rtol=1e-11)
    np.testing.assert_allclose(hb.sigma_min, s[:, -1], rtol=1e-11)
    np.testing.assert_allclose(hb.kappa_per_element, (s[:, 0] / s[:, -1]) ** 2,
                               rtol=1e-11)
    np.testing.assert_allclose(hb.kappa_global,
                               (s[:, 0].max() / s[:, -1].min()) ** 2, rtol=1e-11)
    np.testing.assert_array_equal(hb.h, j.swapaxes(1, 2) @ j)


def test_h_block_svd_runs_only_on_ill_conditioned_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    log_kappa = np.array([0.0, 1.0, 1.9, 2.1, 6.0, 12.0])  # Gram: 1 .. 1e24
    j = _conditioned_stack(rng, 6, 5, log_kappa)
    sizes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    hb = _h_blocks_of(j)
    assert sizes == [3]
    np.testing.assert_allclose(hb.kappa_per_element[:3],
                               10.0 ** (2 * log_kappa[:3]), rtol=1e-11)


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_zero_or_nan_column_has_no_support(bad):
    rng = np.random.default_rng(6)
    j = _conditioned_stack(rng, 6, 5, np.zeros(4))
    j[2, :, 1] = bad
    hb = _h_blocks_of(j)
    assert not hb.sigma_min[2] > 0.0
    keep = [0, 1, 3]
    np.testing.assert_allclose(hb.kappa_per_element[keep], 1.0, rtol=1e-13)
    with pytest.raises(InfiniteSupportError):
        chi_report(hb, synthetic_quality())


def test_refactorization_identity_on_meshes():
    for mesh in (ddfem.gen_structured_square(3, p=2),
                 ddfem.gen_structured_cube(2, p=2)):
        system = ddfem.build_system(mesh)
        dbar = build_dbar(system.alpha, system.geometries, system.rule)
        h = build_h_blocks(system.factors, dbar)
        residuals = refactorization_residuals(system.factors, dbar, h)
        assert residuals.max() <= 1e-10


def test_chi3_all_unity():
    assert synthetic_quality().chi3 == pytest.approx(1.0)


def test_chi3_square_of_kappa1():
    # matches the published magnitude for a linear mesh with shape 4.1
    assert synthetic_quality(kappa1=4.1).chi3 == pytest.approx(16.81)


def test_chi3_quadratic_magnitude():
    sqp = ddfem.build_sqp(ddfem.make_reference(2, 2), ddfem.standard_rule(2, 2))
    value = synthetic_quality(kappa1=4.7, kappa2=1.3,
                              sigma=sqp.sigma_qp, tau=sqp.tau_qp).chi3
    assert 1000 < value < 1300


def test_chi3_element_bounds_below_global():
    mesh = ddfem.gen_structured_square(3, p=2)
    system = ddfem.build_system(mesh)
    bundle = ddfem.approximate(system)
    local = bundle.quality.chi3_element
    assert np.all(bundle.h_blocks.kappa_per_element <= local * (1 + 1e-8))
    assert np.all(local <= bundle.quality.chi3 * (1 + 1e-8))


def test_max_element_kappa_vs_global():
    mesh = ddfem.gen_structured_cube(2, p=2)
    system = ddfem.build_system(mesh)
    h = ddfem.approximate(system).h_blocks
    assert h.max_kappa_element <= h.kappa_global * (1 + 1e-12)
    # congruent structured elements: the two coincide
    assert h.max_kappa_element == pytest.approx(h.kappa_global, rel=1e-10)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("maker", [
    lambda: ddfem.gen_structured_square(2, p=2),
    lambda: ddfem.gen_structured_cube(2, p=1),
])
def test_rescaling_leaves_conditioning_alone(scale, maker):
    base_sys = ddfem.build_system(maker())
    base = ddfem.approximate(base_sys)
    scaled_sys = ddfem.build_system(
        ddfem.transform_mesh(maker(), lambda x: scale * x))
    scaled = ddfem.approximate(scaled_sys)
    np.testing.assert_allclose(scaled.h_blocks.kappa_per_element,
                               base.h_blocks.kappa_per_element, rtol=1e-10)
    assert scaled.quality.chi3 == pytest.approx(base.quality.chi3, rel=1e-10)


def test_element_kbar_blocks_match_global(two_triangle_square):
    system = ddfem.build_system(two_triangle_square)
    star = local_incidence(3)
    scatter = np.zeros((4, 4))
    for t in range(2):
        ids = two_triangle_square.elements[t]
        scatter[np.ix_(ids, ids)] += system.dbar[t] * (star.T @ star)
    np.testing.assert_allclose(scatter, system.kbar.toarray(), atol=1e-14)

"""The stacked element arrays against the per-element loop oracles.

Three meshes exercise what the stacks must get right: a sheared p=2 square
(anisotropic affine elements), curved p=2 triangles snapped to a ring
(Gauss-point-dependent Jacobians), and a p=2 cube with a 1e6 conductivity
jump (widely scaled blocks).
"""

import numpy as np
import pytest

import ddfem
from ddfem.assembly import reference_tables
from ddfem.factorization import local_incidence

from conftest import jump_conductivity, ring_snap
from oracles import (
    dense_pencil_kappa,
    dict_scatter,
    dict_star_laplacian,
    loop_alpha_beta,
    loop_element_geometry,
    loop_element_stiffness,
    loop_h_block,
    restricted_pencil_eigenvalues,
)

RTOL_ELEMENT = 1e-12
RTOL_ASSEMBLED = 1e-13


def _sheared_square():
    mesh = ddfem.transform_mesh(ddfem.gen_structured_square(3, p=2),
                                lambda x: np.array([x[0] + 2.0 * x[1], x[1]]))
    return mesh, None


def _ring(quarter_ring_mesh):
    return ddfem.insert_midpoints(quarter_ring_mesh, snap=ring_snap), None


def _cube_jump():
    mesh = ddfem.gen_structured_cube(2, p=2)
    return mesh, jump_conductivity(mesh)


@pytest.fixture(params=["sheared-square-p2", "ring-p2", "cube-p2-jump"])
def case(request, quarter_ring_mesh):
    mesh, theta = {
        "sheared-square-p2": _sheared_square,
        "ring-p2": lambda: _ring(quarter_ring_mesh),
        "cube-p2-jump": _cube_jump,
    }[request.param]()
    system = ddfem.build_system(mesh, theta)
    return system, ddfem.approximate(system)


def _oracle_elements(system):
    """Per-element loop results: K, alpha, beta, H and the Kbar scalar."""
    mesh, rule = system.mesh, system.rule
    vals, grads = reference_tables(system.ref, rule)
    out = []
    for t in range(mesh.n_elements):
        def theta_at(x, t=t):
            return float(ddfem.eval_conductivity(system.theta, x, element=t))

        jac, inv_t, dets, theta = loop_element_geometry(
            mesh.nodes[mesh.elements[t]], vals, grads, theta_at)
        kt = loop_element_stiffness(inv_t, dets, theta, rule.weights, grads)
        alpha, beta = loop_alpha_beta(jac, inv_t)
        h, scalar = loop_h_block(inv_t, dets, theta, rule.weights,
                                 system.sqp.entries, rule.m_q)
        out.append((kt, alpha, beta, h, scalar))
    return out


def _close_blocks(got, want, rtol):
    # Relative to each block's own scale: entries that cancel to roundoff
    # carry no relative accuracy of their own.
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale)


def test_element_stacks_match_loops(case):
    system, bundle = case
    oracle = _oracle_elements(system)
    k_loop = np.array([o[0] for o in oracle])
    h_loop = np.array([o[3] for o in oracle])
    _close_blocks(system.element_stiffness, k_loop, RTOL_ELEMENT)
    _close_blocks(bundle.h_blocks.h, h_loop, RTOL_ELEMENT)
    np.testing.assert_allclose(system.alpha, [o[1] for o in oracle],
                               rtol=RTOL_ELEMENT)
    np.testing.assert_allclose(system.factors.beta, [o[2] for o in oracle],
                               rtol=RTOL_ELEMENT)
    np.testing.assert_allclose(system.dbar, [o[4] for o in oracle],
                               rtol=RTOL_ELEMENT)


def test_chi_chain_matches_dense_pencils(case):
    system, bundle = case
    oracle = _oracle_elements(system)
    star = local_incidence(system.ref.l)
    lap = star.T @ star
    chi1 = [dense_pencil_kappa(kt, scalar * lap) for kt, _, _, _, scalar in oracle]
    chi2 = [np.linalg.cond(h) for _, _, _, h, _ in oracle]
    # chi1 = chi2 per element: both are the H block condition numbers.
    kappa = bundle.h_blocks.kappa_per_element
    np.testing.assert_allclose(kappa, chi1, rtol=RTOL_ELEMENT)
    np.testing.assert_allclose(kappa, chi2, rtol=RTOL_ELEMENT)


def test_element_supports_match_dense_pencils(case):
    # The pencil (K_t, Kbar_t) has the spectrum of H_t, so the chain reads its
    # extremes off the H singular values: check them against the pencil.
    system, bundle = case
    oracle = _oracle_elements(system)
    star = local_incidence(system.ref.l)
    lap = star.T @ star
    eig = np.array([restricted_pencil_eigenvalues(kt, scalar * lap)
                    for kt, _, _, _, scalar in oracle])
    h = bundle.h_blocks
    np.testing.assert_allclose(h.sigma_max ** 2, eig[:, -1], rtol=RTOL_ELEMENT)
    np.testing.assert_allclose(1.0 / h.sigma_min ** 2, 1.0 / eig[:, 0],
                               rtol=RTOL_ELEMENT)


def test_assembled_matrices_match_dict_scatter(case):
    system, _ = case
    mesh = system.mesh
    n = mesh.n_free
    oracle = _oracle_elements(system)
    pairs = [
        (system.stiffness,
         dict_scatter(n, mesh.elements, [o[0] for o in oracle])),
        (system.kbar,
         dict_star_laplacian(n, mesh.elements, [o[4] for o in oracle])),
    ]
    for got, want in pairs:
        got, want = got.sorted_indices(), want.sorted_indices()
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=0,
                                   atol=RTOL_ASSEMBLED * np.abs(want.data).max())

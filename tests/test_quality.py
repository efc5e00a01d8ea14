import json

import numpy as np
import pytest

import ddfem
from ddfem.cli import main
from ddfem.quality import compute_quality

from conftest import ring_snap

GOLDEN_KAPPA1 = (3.0 + np.sqrt(5.0)) / 2.0   # structured-square triangle shape


def quality_of(mesh, theta=None, rule=None):
    system = ddfem.build_system(mesh, theta, rule)
    return compute_quality(system.geometries, system.alpha, system.factors.beta,
                           system.rule, system.sqp)


def test_structured_square_kappa1():
    # Both triangle families in the split square share singular values, and
    # det = 1 forces alpha * beta = sigma_max / sigma_min of the Jacobian.
    qual = quality_of(ddfem.gen_structured_square(4, p=1))
    assert qual.kappa1 == pytest.approx(GOLDEN_KAPPA1, abs=1e-12)


def test_kappa2_exactly_one_for_linear_elements():
    sheared = ddfem.transform_mesh(
        ddfem.gen_structured_square(3, p=1),
        lambda x: np.array([x[0] + 2.0 * x[1], x[1]]))
    qual = quality_of(sheared)
    assert qual.kappa2 == 1.0


def test_affine_elements_flat_under_multipoint_rule():
    # A 3-point rule on straight triangles still sees constant Jacobians.
    mesh = ddfem.gen_structured_square(2, p=1)
    qual = quality_of(mesh, rule=ddfem.standard_rule(2, 2))
    assert qual.kappa2 == 1.0


def test_theta_hat_per_element_constant():
    mesh = ddfem.gen_structured_square(2, p=1)
    theta = ddfem.ConductivityField.from_per_element(
        np.linspace(1.0, 9.0, mesh.n_elements))
    qual = quality_of(mesh, theta)
    assert qual.theta_hat == 1.0


def test_theta_hat_detects_intra_element_variation():
    mesh = ddfem.gen_structured_square(2, p=1)
    theta = ddfem.ConductivityField.from_expression("1 + 5*x")
    qual = quality_of(mesh, theta, rule=ddfem.standard_rule(2, 2))
    assert qual.theta_hat > 1.0


def test_kappa_bounds(quarter_ring_mesh):
    curved = ddfem.insert_midpoints(quarter_ring_mesh, snap=ring_snap)
    for mesh in (ddfem.gen_structured_square(2, p=2),
                 ddfem.gen_structured_cube(2, p=2),
                 curved):
        qual = quality_of(mesh)
        assert qual.kappa1 >= 1.0
        assert qual.kappa2 >= 1.0
        assert qual.theta_hat >= 1.0
        assert qual.kappa2 <= qual.kappa1 ** mesh.d + 1e-9


def test_curved_elements_have_kappa2_above_one(quarter_ring_mesh):
    curved = ddfem.insert_midpoints(quarter_ring_mesh, snap=ring_snap)
    assert quality_of(curved).kappa2 > 1.0


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_kappa1_rescaling_invariant(scale):
    base = quality_of(ddfem.gen_structured_square(3, p=1))
    scaled = quality_of(ddfem.transform_mesh(
        ddfem.gen_structured_square(3, p=1), lambda x: scale * x))
    assert scaled.kappa1 == pytest.approx(base.kappa1, rel=1e-12)


@pytest.mark.parametrize("angle", [0.3, 1.1, 2.5])
def test_quality_rotation_invariant(angle):
    # 2-norms only see singular values, so rigid motions change nothing.
    base = quality_of(ddfem.gen_structured_square(2, p=2))
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    rotated = quality_of(ddfem.transform_mesh(
        ddfem.gen_structured_square(2, p=2), lambda x: rot @ x + 1.5))
    assert rotated.kappa1 == pytest.approx(base.kappa1, rel=1e-12)
    assert rotated.kappa2 == pytest.approx(base.kappa2, rel=1e-12)
    np.testing.assert_allclose(rotated.alpha, base.alpha, rtol=1e-12)
    np.testing.assert_allclose(rotated.beta, base.beta, rtol=1e-12)


def test_report_carries_rule_and_sample_scalars(capsys):
    # The report reads them from their owners, SqpMatrix and QuadratureRule.
    assert main(["report", "--kind", "square", "--k", "2", "--p", "2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_qp"] == pytest.approx(5.2577, abs=1e-3)
    assert data["tau_qp"] == pytest.approx(0.8337, abs=1e-3)
    assert data["weight_ratio"] == pytest.approx(1.0)

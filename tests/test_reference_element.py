import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.errors import GradientSampleRankError, UnsupportedConfigError
from ddfem.reference_element import shape_gradients, shape_values

from oracles import closed_form_shapes

CONFIGS = [(2, 1), (2, 2), (3, 1), (3, 2)]


def interior_point(d, weights):
    """Map a tuple of unit floats to a strictly interior simplex point."""
    w = np.asarray(weights[:d + 1], dtype=float) + 1e-3
    w /= w.sum()
    return w[1:]


@pytest.mark.parametrize("d,p,l", [(2, 1, 3), (2, 2, 6), (3, 1, 4), (3, 2, 10)])
def test_node_counts(d, p, l):
    elem = ddfem.make_reference(d, p)
    assert elem.l == l
    assert elem.ref_nodes.shape == (l, d)


def test_p1_triangle_nodes_are_the_vertices():
    elem = ddfem.make_reference(2, 1)
    assert {tuple(z) for z in elem.ref_nodes} == {(0, 0), (1, 0), (0, 1)}
    assert tuple(elem.ref_nodes[0]) == (0, 0)


def test_nodes_distinct_and_inside_simplex():
    for d, p in CONFIGS:
        elem = ddfem.make_reference(d, p)
        assert len({tuple(z) for z in elem.ref_nodes}) == elem.l
        assert np.all(elem.ref_nodes >= 0)
        assert np.all(elem.ref_nodes.sum(axis=1) <= 1 + 1e-15)


@pytest.mark.parametrize("d,p", [(1, 1), (2, 3), (4, 1), (3, 0)])
def test_unsupported_configuration(d, p):
    with pytest.raises(UnsupportedConfigError):
        ddfem.make_reference(d, p)


@pytest.mark.parametrize("d,p", CONFIGS)
def test_delta_property(d, p):
    elem = ddfem.make_reference(d, p)
    for mu in range(1, elem.l + 1):
        for nu in range(elem.l):
            want = 1.0 if nu == mu - 1 else 0.0
            got = shape_values(elem, elem.ref_nodes[nu])[mu - 1]
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("d,p", CONFIGS)
@settings(max_examples=60, deadline=None)
@given(weights=st.tuples(*[st.floats(0, 1) for _ in range(4)]))
def test_partition_of_unity(d, p, weights):
    elem = ddfem.make_reference(d, p)
    z = interior_point(d, weights)
    assert abs(shape_values(elem, z).sum() - 1.0) <= 1e-12


def test_shape_value_examples():
    lin = ddfem.make_reference(2, 1)
    assert shape_values(lin, (0.0, 0.0))[0] == pytest.approx(1.0)
    # derived from the interpolation system: first function is 1 - x - y
    assert shape_values(lin, (1 / 3, 1 / 3))[0] == pytest.approx(1 / 3, abs=1e-14)

    quad = ddfem.make_reference(2, 2)
    vertex_10 = int(np.flatnonzero(
        np.all(quad.ref_nodes == np.array([1.0, 0.0]), axis=1))[0]) + 1
    assert shape_values(quad, (0.5, 0.0))[vertex_10 - 1] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("d,p", CONFIGS)
@settings(max_examples=40, deadline=None)
@given(weights=st.tuples(*[st.floats(0, 1) for _ in range(4)]))
def test_matches_textbook_formulas(d, p, weights):
    elem = ddfem.make_reference(d, p)
    z = interior_point(d, weights)
    np.testing.assert_allclose(shape_values(elem, z),
                               closed_form_shapes(d, p, z), atol=1e-12)


def test_gradient_examples():
    lin2 = ddfem.make_reference(2, 1)
    np.testing.assert_allclose(shape_gradients(lin2, (0.3, 0.2))[1], [1, 0])
    np.testing.assert_allclose(shape_gradients(lin2, (0.3, 0.2))[0], [-1, -1])
    lin3 = ddfem.make_reference(3, 1)
    np.testing.assert_allclose(shape_gradients(lin3, (0.2, 0.2, 0.2))[0],
                               [-1, -1, -1])


@pytest.mark.parametrize("d,p", CONFIGS)
def test_gradient_matches_central_difference(d, p):
    elem = ddfem.make_reference(d, p)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        w = rng.dirichlet(np.ones(d + 1)) * 0.98 + 0.02 / (d + 1)
        z = w[1:]
        grads = shape_gradients(elem, z)
        for mu in range(elem.l):
            for axis in range(d):
                zp = z.copy(); zp[axis] += h
                zm = z.copy(); zm[axis] -= h
                fd = (shape_values(elem, zp)[mu] - shape_values(elem, zm)[mu]) / (2 * h)
                assert abs(grads[mu, axis] - fd) <= 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_sqp_identity_for_linear_midpoint(d):
    elem = ddfem.make_reference(d, 1)
    rule = ddfem.standard_rule(d, 1)
    sqp = ddfem.build_sqp(elem, rule)
    np.testing.assert_array_equal(sqp.entries, np.eye(d))
    assert sqp.sigma_qp == pytest.approx(1.0)
    assert sqp.tau_qp == pytest.approx(1.0)


@pytest.mark.parametrize("d,p,sigma,tau", [
    (2, 1, 1.00, 1.00),
    (2, 2, 5.26, 0.83),
    (3, 1, 1.00, 1.00),
    (3, 2, 6.47, 0.63),
])
def test_sqp_extreme_singular_values(d, p, sigma, tau):
    sqp = ddfem.build_sqp(ddfem.make_reference(d, p), ddfem.standard_rule(d, p))
    assert round(sqp.sigma_qp, 2) == pytest.approx(sigma, abs=0.005)
    assert round(sqp.tau_qp, 2) == pytest.approx(tau, abs=0.005)
    assert sqp.tau_qp > 0
    assert sqp.entries.shape == (d * ddfem.standard_rule(d, p).q,
                                 ddfem.make_reference(d, p).l - 1)


def test_sqp_block_columns_are_gradients():
    elem = ddfem.make_reference(2, 2)
    rule = ddfem.standard_rule(2, 2)
    sqp = ddfem.build_sqp(elem, rule)
    for k in range(rule.q):
        for mu in range(2, elem.l + 1):
            np.testing.assert_allclose(
                sqp.entries[k * 2:(k + 1) * 2, mu - 2],
                shape_gradients(elem, rule.points[k])[mu - 1])


def test_sqp_rejects_underpowered_rule():
    # A single point cannot see all five quadratic gradient columns.
    elem = ddfem.make_reference(2, 2)
    weak = ddfem.make_rule(2, [(1 / 3, 1 / 3)], [1 / 2])
    with pytest.raises(GradientSampleRankError):
        ddfem.build_sqp(elem, weak)


def test_sqp_dimension_mismatch():
    with pytest.raises(UnsupportedConfigError):
        ddfem.build_sqp(ddfem.make_reference(2, 1), ddfem.standard_rule(3, 1))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.errors import (QuadratureVolumeError, QuadratureWeightError,
                          UnsupportedConfigError)
from ddfem.quadrature import parse_rule_records

SIMPLEX_VOLUME = {2: 0.5, 3: 1.0 / 6.0}


def test_triangle_midpoint_rule():
    rule = ddfem.standard_rule(2, 1)
    assert rule.q == 1
    np.testing.assert_allclose(rule.points, [[1 / 3, 1 / 3]])
    np.testing.assert_allclose(rule.weights, [1 / 2])


def test_triangle_three_point_rule():
    rule = ddfem.standard_rule(2, 2)
    assert rule.q == 3
    np.testing.assert_allclose(sorted(map(tuple, rule.points)),
                               sorted([(1 / 6, 1 / 6), (1 / 6, 2 / 3), (2 / 3, 1 / 6)]))
    np.testing.assert_allclose(rule.weights, [1 / 6] * 3)
    assert rule.M_q / rule.m_q == pytest.approx(1.0)


def test_tet_rules():
    one = ddfem.standard_rule(3, 1)
    np.testing.assert_allclose(one.points, [[0.25, 0.25, 0.25]])
    np.testing.assert_allclose(one.weights, [1 / 6])

    four = ddfem.standard_rule(3, 2)
    assert four.q == 4
    xi1 = (10 - math.sqrt(20)) / 40
    assert sorted(set(np.round(four.points.reshape(-1), 12))) == sorted(
        {round(xi1, 12), round(1 - 3 * xi1, 12)})
    np.testing.assert_allclose(four.weights, [1 / 24] * 4)


@pytest.mark.parametrize("d,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_weights_sum_to_simplex_volume(d, p):
    rule = ddfem.standard_rule(d, p)
    assert rule.weights.sum() == pytest.approx(SIMPLEX_VOLUME[d], abs=1e-15)
    assert rule.m_q > 0
    assert np.all(rule.points > 0)
    assert np.all(rule.points.sum(axis=1) < 1)


def test_unsupported_standard_pair():
    with pytest.raises(UnsupportedConfigError):
        ddfem.standard_rule(2, 3)


def test_factorial_integrator_spot_values():
    assert ddfem.exact_monomial_integral((0, 0)) == pytest.approx(1 / 2)
    assert ddfem.exact_monomial_integral((0, 0, 0)) == pytest.approx(1 / 6)
    assert ddfem.exact_monomial_integral((1, 0)) == pytest.approx(1 / 6)
    assert ddfem.exact_monomial_integral((2, 0)) == pytest.approx(1 / 12)
    assert ddfem.exact_monomial_integral((2, 1)) == pytest.approx(1 / 60)
    assert ddfem.exact_monomial_integral((1, 1, 1)) == pytest.approx(1 / 720)


@pytest.mark.parametrize("d,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_exactness_at_required_degree(d, p):
    rule = ddfem.standard_rule(d, p)
    report = ddfem.verify_exactness(rule, max(2 * p - 2, 0))
    assert report.passed
    assert report.max_error <= 1e-12


def test_three_point_rule_exact_to_degree_two():
    report = ddfem.verify_exactness(ddfem.standard_rule(2, 2), 2)
    assert report.passed


def test_midpoint_rule_fails_degree_two():
    report = ddfem.verify_exactness(ddfem.standard_rule(2, 1), 2)
    assert not report.passed
    by_exponent = {e: (approx, exact) for e, approx, exact, _ in report.failures}
    approx, exact = by_exponent[(2, 0)]
    assert approx == pytest.approx(1 / 18)
    assert exact == pytest.approx(1 / 12)


@pytest.mark.parametrize("d,p", [(2, 2), (3, 2)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_polynomial_integrated_exactly(d, p, data):
    # Any polynomial of total degree <= 2p-2 is a combination of monomials the
    # rule integrates exactly, so the rule must integrate it exactly too.
    rule = ddfem.standard_rule(d, p)
    degree = 2 * p - 2
    monos = []
    if d == 2:
        monos = [(a, t - a) for t in range(degree + 1) for a in range(t + 1)]
    else:
        monos = [(a, b, t - a - b) for t in range(degree + 1)
                 for a in range(t + 1) for b in range(t - a + 1)]
    coeffs = [data.draw(st.floats(-10, 10)) for _ in monos]

    quad_val = 0.0
    exact_val = 0.0
    for c, e in zip(coeffs, monos):
        vals = np.ones(rule.q)
        for axis, a in enumerate(e):
            vals *= rule.points[:, axis] ** a
        quad_val += c * float(vals @ rule.weights)
        exact_val += c * ddfem.exact_monomial_integral(e)
    assert quad_val == pytest.approx(exact_val, abs=1e-12)


def test_custom_rule_validation():
    with pytest.raises(QuadratureWeightError):
        ddfem.make_rule(2, [(0.3, 0.3)], [-0.5])
    with pytest.raises(UnsupportedConfigError):
        ddfem.make_rule(2, [(0.7, 0.7)], [0.5])   # outside the simplex
    with pytest.raises(UnsupportedConfigError):
        ddfem.make_rule(2, [(0.3, 0.3)], [0.25, 0.25])
    with pytest.raises(UnsupportedConfigError):
        ddfem.make_rule(2, [(0.3, 0.3, 0.1)], [0.5])
    with pytest.raises(UnsupportedConfigError):
        ddfem.make_rule(2, [(0.3, 0.3)], [np.inf])
    with pytest.raises(QuadratureVolumeError, match="line 7: .* volume 1/6"):
        ddfem.make_rule(3, [(0.2, 0.2, 0.2), (0.1, 0.1, 0.1)], [0.1, 0.1], lines=[7, 9])


def test_parse_rule_records():
    rule = parse_rule_records([["0.25", "0.25", "0.5"]], d=2)
    np.testing.assert_allclose(rule.points, [[0.25, 0.25]])
    np.testing.assert_allclose(rule.weights, [0.5])
    with pytest.raises(UnsupportedConfigError):
        parse_rule_records([["0.25", "0.5"]], d=2)

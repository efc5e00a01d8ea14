"""The pipeline's lean solve path against the full approximation."""

import numpy as np
import pytest

import ddfem

from conftest import jump_conductivity


def _sheared_square_p2():
    mesh = ddfem.transform_mesh(ddfem.gen_structured_square(4, p=2),
                                lambda x: np.array([x[0] + 2.0 * x[1], x[1]]))
    return mesh, None


def _cube_p2_jump():
    mesh = ddfem.gen_structured_cube(2, p=2)
    return mesh, jump_conductivity(mesh, high=1e6)


@pytest.mark.parametrize("make", [_sheared_square_p2, _cube_p2_jump],
                         ids=["sheared-square-p2", "cube-p2-jump"])
def test_kbar_for_solve_is_the_approximation_kbar(make):
    system = ddfem.build_system(*make())
    lean = ddfem.kbar_for_solve(system).csr
    full = ddfem.approximate(system).dd.kbar.csr
    assert lean.shape == full.shape
    np.testing.assert_array_equal(lean.indptr, full.indptr)
    np.testing.assert_array_equal(lean.indices, full.indices)
    np.testing.assert_array_equal(lean.data, full.data)

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import ddfem
from ddfem.errors import SingularSystemError
from ddfem.solver import (
    cg_iteration_bound,
    factor_kbar,
    independent_rows,
    pcg_solve,
)

from conftest import jump_conductivity


def test_factor_one_by_one():
    handle = factor_kbar(sp.csr_matrix([[4.0]]))
    np.testing.assert_allclose(handle.solve(np.array([2.0])), [0.5])


def test_factor_solve_residual():
    mesh = ddfem.gen_structured_square(8, p=1)
    system = ddfem.build_system(mesh)
    handle = factor_kbar(system.kbar)
    rng = np.random.default_rng(1)
    for _ in range(3):
        r = rng.standard_normal(system.kbar.shape[0])
        x = handle.solve(r)
        res = np.linalg.norm(system.kbar @ x - r) / np.linalg.norm(r)
        assert res <= 1e-12


def test_factor_rejects_floating_mesh(two_triangle_square):
    system = ddfem.build_system(two_triangle_square)
    with pytest.raises(SingularSystemError) as exc:
        factor_kbar(system.kbar)
    assert "component" in str(exc.value)
    assert exc.value.component is not None


def test_factor_names_the_floating_component():
    # one anchored triangle, one floating triangle
    nodes = np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], dtype=float)
    flags = np.array([True, False, False, False, False, False])
    mesh = ddfem.Mesh(
        d=2, p=1, nodes=nodes, elements=np.array([[0, 1, 2], [3, 4, 5]]),
        dirichlet=flags)
    system = ddfem.build_system(mesh)
    with pytest.raises(SingularSystemError):
        factor_kbar(system.kbar)


def test_empty_system_trivial():
    handle = factor_kbar(sp.csr_matrix((0, 0)))
    assert handle.solve(np.zeros(0)).shape == (0,)
    result = pcg_solve(sp.csr_matrix((0, 0)), np.zeros(0))
    assert result.converged


def test_identity_converges_in_one_iteration():
    n = 12
    k = sp.identity(n, format="csr")
    result = pcg_solve(k, np.arange(1.0, n + 1.0), tol=1e-12)
    assert result.converged
    assert result.iterations == 1


def test_self_preconditioning_converges_in_one_iteration():
    mesh = ddfem.gen_structured_square(6, p=1)
    system = ddfem.build_system(mesh)
    handle = factor_kbar(system.stiffness)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, system.theta, 1.0)
    result = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=1e-10)
    assert result.converged
    assert result.iterations == 1


def test_zero_rhs_short_circuits():
    k = sp.identity(3, format="csr")
    result = pcg_solve(k, np.zeros(3))
    assert result.converged
    assert result.iterations == 0
    np.testing.assert_array_equal(result.x, np.zeros(3))


def test_square_solve_matches_dense():
    # Large enough that plain CG cannot coast on the symmetric spectrum of the
    # uniform grid (tiny meshes finish in a handful of lucky iterations).
    mesh = ddfem.gen_structured_square(16, p=1)
    system = ddfem.build_system(mesh)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, system.theta, 1.0,
                              geometries=system.geometries)
    handle = factor_kbar(system.kbar)
    pre = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=1e-10)
    plain = pcg_solve(system.stiffness, rhs, preconditioner=None, tol=1e-10)
    assert pre.converged and plain.converged
    assert pre.iterations <= plain.iterations
    dense = np.linalg.solve(system.stiffness.toarray(), rhs)
    assert np.abs(pre.x - dense).max() <= 1e-8
    assert pre.relative_residual <= 1e-10


def test_iteration_bound_holds():
    mesh = ddfem.gen_structured_square(8, p=1)
    theta = jump_conductivity(mesh)
    system = ddfem.build_system(mesh, theta)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, theta, 1.0,
                              geometries=system.geometries)
    handle = factor_kbar(system.kbar)
    tol = 1e-10
    result = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=tol)
    pencil = ddfem.condition_pair(system.stiffness.toarray(),
                                  system.kbar.toarray())
    assert result.converged
    assert result.iterations <= cg_iteration_bound(pencil.kappa, tol)


def test_ritz_values_bracketed_by_pencil():
    mesh = ddfem.gen_structured_square(6, p=1)
    theta = jump_conductivity(mesh, high=100.0)
    system = ddfem.build_system(mesh, theta)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, theta, 1.0,
                              geometries=system.geometries)
    handle = factor_kbar(system.kbar)
    result = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=1e-12)
    pencil = ddfem.condition_pair(system.stiffness.toarray(),
                                  system.kbar.toarray())
    lam_min = 1.0 / pencil.support_ba
    lam_max = pencil.support_ab
    assert result.ritz_values.min() >= lam_min * 0.95
    assert result.ritz_values.max() <= lam_max * 1.05
    assert result.estimated_condition is not None


def test_ritz_values_of_diagonal_system():
    diag = np.array([1.0, 2.0, 5.0, 10.0])
    k = sp.diags(diag, format="csr")
    result = pcg_solve(k, np.ones(4), tol=1e-14)
    # full Krylov space reached: Ritz values are the eigenvalues
    np.testing.assert_allclose(np.sort(result.ritz_values), diag, rtol=1e-8)


def test_nonconvergence_reports_history():
    mesh = ddfem.gen_structured_square(10, p=1)
    system = ddfem.build_system(mesh)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, system.theta, 1.0)
    result = pcg_solve(system.stiffness, rhs, preconditioner=None, tol=1e-14,
                       max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    assert len(result.residual_history) == 2
    assert result.relative_residual > 1e-14


def test_no_step_reports_unit_residual():
    # With no step taken x stays zero: its residual is the whole rhs, never 0.
    n = 4
    eye = sp.identity(n, format="csr")
    negative = -eye
    for matrix, max_iter in ((eye, 0), (negative, None)):
        result = pcg_solve(matrix, np.ones(n), max_iter=max_iter)
        assert result.iterations == 0
        assert not result.converged
        assert result.relative_residual == 1.0
        np.testing.assert_array_equal(result.x, np.zeros(n))


def test_solver_accepts_plain_scipy_matrix():
    a = sp.csr_matrix(np.diag([2.0, 3.0]))
    result = pcg_solve(a, np.array([2.0, 3.0]), tol=1e-12)
    np.testing.assert_allclose(result.x, [1.0, 1.0])


def test_patch_linear_solution_reproduced_exactly():
    # Order-1 elements reproduce affine fields: zero source, boundary data
    # 2x + 3y, solution equals the field at every free node.
    mesh = ddfem.gen_structured_square(4, p=1)
    system = ddfem.build_system(mesh)
    exact = lambda x: 2 * x[0] + 3 * x[1]
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, system.theta, 0.0,
                              dirichlet_values=exact,
                              geometries=system.geometries)
    result = pcg_solve(system.stiffness, rhs,
                       preconditioner=factor_kbar(system.kbar), tol=1e-13)
    want = np.array([exact(x) for x in mesh.nodes[:mesh.n_free]])
    assert np.abs(result.x - want).max() <= 1e-12


def test_patch_quadratic_solution_reproduced_exactly():
    # Order-2 elements with the 3-point rule integrate the quadratic patch
    # x^2 - y + x*y exactly (source -2).
    mesh = ddfem.gen_structured_square(3, p=2)
    system = ddfem.build_system(mesh)
    exact = lambda x: x[0] ** 2 - x[1] + x[0] * x[1]
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, system.theta, -2.0,
                              dirichlet_values=exact,
                              geometries=system.geometries)
    result = pcg_solve(system.stiffness, rhs,
                       preconditioner=factor_kbar(system.kbar), tol=1e-13)
    want = np.array([exact(x) for x in mesh.nodes[:mesh.n_free]])
    assert np.abs(result.x - want).max() <= 1e-12


def _jump_cube_problem(k):
    mesh = ddfem.gen_structured_cube(k, p=2)
    theta = jump_conductivity(mesh)
    system = ddfem.build_system(mesh, theta)
    rhs = ddfem.assemble_load(mesh, system.ref, system.rule, theta, 1.0,
                              geometries=system.geometries)
    return system, rhs, factor_kbar(system.kbar)


def _true_residual(system, rhs, x):
    # The same CSR product the solver uses: a residual near 1e-11 computed in
    # another summation order would differ at its own roundoff level.
    return np.linalg.norm(rhs - system.stiffness @ x) / np.linalg.norm(rhs)


def test_converged_residual_is_the_true_residual():
    system, rhs, handle = _jump_cube_problem(2)
    tol = 1e-10
    result = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=tol)
    assert result.converged
    want = _true_residual(system, rhs, result.x)
    assert result.relative_residual == pytest.approx(want, rel=1e-12)
    assert result.relative_residual <= tol
    assert len(result.residual_history) == result.iterations
    assert result.residual_history[-1] == result.relative_residual


def test_unattainable_tol_reports_the_true_residual():
    # Below attainable accuracy the recurrence residual keeps shrinking while
    # the true residual stalls near roundoff: trusting the recurrence would
    # report convergence or a residual far below the real one.
    system, rhs, handle = _jump_cube_problem(2)
    result = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=1e-18,
                       max_iter=300)
    assert not result.converged
    assert result.iterations == 300
    want = _true_residual(system, rhs, result.x)
    assert result.relative_residual == pytest.approx(want, rel=1e-12)
    assert result.relative_residual > 1e-18
    assert len(result.residual_history) == 300
    assert result.residual_history[-1] == result.relative_residual


class _AlwaysRefined:
    """A preconditioner that ignores refine=False and refines every solve."""

    def __init__(self, handle):
        self.handle = handle

    def solve(self, rhs, *, refine=True):
        return self.handle.solve(rhs, refine=True)


def test_unrefined_preconditioner_keeps_iterations():
    system, rhs, handle = _jump_cube_problem(4)
    lean = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=1e-10)
    refined = pcg_solve(system.stiffness, rhs,
                        preconditioner=_AlwaysRefined(handle), tol=1e-10)
    assert lean.converged and refined.converged
    assert lean.iterations == refined.iterations
    assert (np.linalg.norm(lean.x - refined.x)
            <= 1e-12 * np.linalg.norm(refined.x))


class _PlainLU:
    """SuperLU on the whole matrix with the factor's settings, no elimination."""

    def __init__(self, matrix):
        self.csc = sp.csc_matrix(matrix)
        self.lu = spla.splu(self.csc, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})

    def solve(self, rhs, *, refine=True):
        x = self.lu.solve(rhs)
        if refine:
            x += self.lu.solve(rhs - self.csc @ x)
        return x


def _p2_square_problem():
    mesh = ddfem.gen_structured_square(16, p=2)
    system = ddfem.build_system(mesh)
    return system, ddfem.assemble_load(mesh, system.ref, system.rule,
                                       system.theta, 1.0,
                                       geometries=system.geometries)


def _p2_cube_jump_problem():
    system, rhs, _ = _jump_cube_problem(4)
    return system, rhs


@pytest.mark.parametrize("problem", [_p2_square_problem, _p2_cube_jump_problem])
def test_leaf_elimination_matches_plain_lu(problem):
    system, rhs = problem()
    kbar = system.kbar
    handle = factor_kbar(kbar)
    plain = _PlainLU(kbar)
    # The star leaves: every node that is not a star centre.
    assert handle.eliminated >= kbar.shape[0] // 2
    assert 0 < handle.lu_entries < plain.lu.L.nnz + plain.lu.U.nnz
    rng = np.random.default_rng(7)
    for r in [rhs, *rng.standard_normal((3, kbar.shape[0]))]:
        got = handle.solve(r, refine=False)
        want = plain.solve(r, refine=False)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        x = handle.solve(r)
        assert np.linalg.norm(kbar @ x - r) <= 1e-12 * np.linalg.norm(r)
    ours = pcg_solve(system.stiffness, rhs, preconditioner=handle, tol=1e-10)
    theirs = pcg_solve(system.stiffness, rhs, preconditioner=plain, tol=1e-10)
    assert ours.converged and theirs.converged
    assert ours.iterations == theirs.iterations


def _plain_path_matrices():
    mesh = ddfem.gen_structured_square(8, p=1)
    system = ddfem.build_system(mesh, jump_conductivity(mesh))
    cube = ddfem.build_system(ddfem.gen_structured_cube(3, p=2))
    # A leaf with a negative diagonal keeps the whole-matrix factor too.
    indefinite = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, 2.0]]))
    return [system.kbar, system.stiffness, cube.stiffness, indefinite]


def test_plain_path_is_bitwise_plain_lu():
    rng = np.random.default_rng(3)
    for matrix in _plain_path_matrices():
        handle = factor_kbar(matrix)
        plain = _PlainLU(matrix)
        assert handle.eliminated == 0
        r = rng.standard_normal(handle.n)
        for refine in (False, True):
            np.testing.assert_array_equal(handle.solve(r, refine=refine),
                                          plain.solve(r, refine=refine))


def _adjacent(csr, rows):
    inside = np.zeros(csr.shape[0], dtype=bool)
    inside[rows] = True
    coo = csr.tocoo()
    off = coo.row != coo.col
    return bool((inside[coo.row[off]] & inside[coo.col[off]]).any())


@st.composite
def sddm_with_leaves(draw):
    """A weighted Laplacian plus a positive diagonal, with many small leaves."""
    n_core = draw(st.integers(1, 8))
    n_leaf = draw(st.integers(0, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = n_core + n_leaf
    edges = [(i, j) for i in range(n_core) for j in range(i + 1, n_core)
             if rng.random() < 0.4]
    for leaf in range(n_core, n):
        # Degree-1 and degree-2 leaves hang off the core nodes.
        for j in rng.choice(n_core, size=min(n_core, rng.integers(1, 3)),
                            replace=False):
            edges.append((int(j), leaf))
    lap = np.zeros((n, n))
    for i, j in edges:
        w = rng.uniform(0.1, 10.0)
        lap[i, j] = lap[j, i] = -w
        lap[i, i] += w
        lap[j, j] += w
    return lap + np.diag(rng.uniform(1e-2, 1.0, n)), rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(sddm_with_leaves())
def test_elimination_on_random_sddm(case):
    dense, rhs = case
    csr = sp.csr_matrix(dense)
    chosen = independent_rows(csr)
    assert not _adjacent(csr, chosen)
    handle = factor_kbar(csr)
    assert handle.eliminated == (chosen.size if 2 * chosen.size >= len(rhs) else 0)
    want = np.linalg.solve(dense, rhs)
    got = handle.solve(rhs, refine=False)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_diagonal_matrix_needs_no_schur_factor():
    diag = np.array([2.0, 4.0, 0.5, 8.0])
    handle = factor_kbar(sp.diags(diag, format="csr"))
    assert handle.eliminated == 4
    assert handle.lu_entries == 0
    np.testing.assert_array_equal(handle.solve(diag), np.ones(4))


def test_empty_factor_eliminates_nothing():
    handle = factor_kbar(sp.csr_matrix((0, 0)))
    assert handle.eliminated == 0 and handle.lu_entries == 0


def test_floating_p2_mesh_still_raises():
    # Most of its rows are star leaves, but the floating check comes first.
    system = ddfem.build_system(ddfem.gen_structured_square(2, p=2, dirichlet="none"))
    assert 2 * independent_rows(system.kbar).size >= system.kbar.shape[0]
    with pytest.raises(SingularSystemError):
        factor_kbar(system.kbar)

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ddfem
from ddfem.assembly import mirrored_csr
from ddfem.errors import ConsistencyError, InfiniteSupportError
from ddfem.factorization import local_incidence
from ddfem import spectral
from ddfem.spectral import (LANCZOS_MIN_N, ORDER_RTOL, chi_report,
                            global_support_check)

from conftest import jump_conductivity
from oracles import (dense_global_support, random_psd_pair,
                     restricted_pencil_eigenvalues)


def test_support_trivial_cases():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert ddfem.condition_pair(a, a).support_ab == pytest.approx(1.0)
    assert ddfem.condition_pair(2 * a, a).support_ab == pytest.approx(2.0)
    assert (ddfem.condition_pair(np.diag([1.0, 3.0]), np.eye(2)).support_ab
            == pytest.approx(3.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(0.01, 100))
def test_support_scales_linearly(seed, c):
    rng = np.random.default_rng(seed)
    a, b = random_psd_pair(rng, 8, 5)
    assert (ddfem.condition_pair(c * a, b).support_ab
            == pytest.approx(c * ddfem.condition_pair(a, b).support_ab, rel=1e-9))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_quadratic_form_sandwich_bounds(seed):
    # sigma(V H V^T, V V^T) <= lam_max(H) and the reversed pair <= 1/lam_min(H),
    # hence the pair condition number is at most kappa(H).
    rng = np.random.default_rng(seed)
    n, r = 9, 5
    v = rng.standard_normal((n, r))
    h_half = rng.standard_normal((r, r))
    h = h_half @ h_half.T + 0.05 * np.eye(r)
    lam = np.linalg.eigvalsh(h)
    vhv = v @ h @ v.T
    vv = v @ v.T
    assert ddfem.condition_pair(vhv, vv).support_ab <= lam[-1] * (1 + 1e-9)
    assert ddfem.condition_pair(vv, vhv).support_ab <= 1.0 / lam[0] * (1 + 1e-9)
    pencil = ddfem.condition_pair(vhv, vv)
    assert pencil.kappa <= lam[-1] / lam[0] * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pair_condition_at_least_one(seed):
    rng = np.random.default_rng(seed)
    a, b = random_psd_pair(rng, 7, 4)
    pencil = ddfem.condition_pair(a, b)
    assert pencil.kappa >= 1.0 - 1e-12
    assert pencil.support_ab * pencil.support_ba >= 1.0 - 1e-12
    assert np.all(pencil.eigenvalues > 0)


def test_condition_of_equal_matrices():
    rng = np.random.default_rng(0)
    a, _ = random_psd_pair(rng, 6, 3)
    pencil = ddfem.condition_pair(a, a)
    assert pencil.kappa == pytest.approx(1.0, abs=1e-10)


def test_identity_triangle_pair_is_perfect(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    star = local_incidence(3)
    pencil = ddfem.condition_pair(system.element_stiffness[0],
                                  system.dbar[0] * (star.T @ star))
    assert pencil.kappa == pytest.approx(1.0, abs=1e-12)


def test_spd_pair_matches_standard_condition_number():
    rng = np.random.default_rng(5)
    g1 = rng.standard_normal((6, 6))
    g2 = rng.standard_normal((6, 6))
    a = g1 @ g1.T + 0.5 * np.eye(6)
    b = g2 @ g2.T + 0.5 * np.eye(6)
    pencil = ddfem.condition_pair(a, b)
    # dense-inverse cross-check
    w = np.sort(np.abs(np.linalg.eigvals(np.linalg.inv(b) @ a)))
    assert pencil.kappa == pytest.approx(w[-1] / w[0], rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       n=st.integers(5, 50))
def test_restricted_pencil_matches_bruteforce_oracle(seed, n):
    rng = np.random.default_rng(seed)
    rank = max(2, n - 3)
    a, b = random_psd_pair(rng, n, rank)
    pencil = ddfem.condition_pair(a, b)
    oracle = restricted_pencil_eigenvalues(a, b)
    np.testing.assert_allclose(np.sort(pencil.eigenvalues), np.sort(oracle),
                               rtol=1e-9, atol=1e-9 * oracle.max())


def test_infinite_support_detected():
    a = np.diag([1.0, 1.0])
    b = np.diag([1.0, 0.0])
    with pytest.raises(InfiniteSupportError) as exc:
        ddfem.condition_pair(a, b)
    direction = exc.value.direction
    assert abs(direction[1]) > 0.9


def test_condition_pair_requires_equal_nullspaces():
    a = np.diag([1.0, 0.0])
    b = np.diag([1.0, 1.0])
    with pytest.raises(InfiniteSupportError):
        ddfem.condition_pair(a, b)


def test_chi_report_on_mesh():
    mesh = ddfem.gen_structured_square(3, p=1)
    system = ddfem.build_system(mesh)
    bundle = ddfem.approximate(system)
    chi2 = bundle.h_blocks.kappa_per_element   # chi1 = chi2 per element
    assert np.all(chi2 <= bundle.quality.chi3_element * (1 + 1e-8))
    # linear elements under the one-point rule: the approximation is spot on
    np.testing.assert_allclose(chi2, (bundle.quality.alpha
                                      * bundle.quality.beta) ** 2, rtol=1e-10)


def test_chi_report_rejects_inconsistent_inputs(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    bundle = ddfem.approximate(system)
    h = bundle.h_blocks
    # claim a middle block conditioned far worse than its analytic bound allows
    broken = dataclasses.replace(h, sigma_max=2.0 * h.sigma_max,
                                 kappa_per_element=4.0 * h.kappa_per_element)
    with pytest.raises(ConsistencyError):
        chi_report(broken, bundle.quality)


def test_chi_report_rejects_rank_deficient_approximation(two_triangle_square):
    system = ddfem.build_system(two_triangle_square)
    bundle = ddfem.approximate(system)
    h = bundle.h_blocks
    for bad in (0.0, -1.0, np.nan, np.inf):
        sigma_min = h.sigma_min.copy()
        sigma_min[1] = bad
        with pytest.raises(InfiniteSupportError):
            chi_report(dataclasses.replace(h, sigma_min=sigma_min), bundle.quality)


def test_condition_pair_broadcasts_over_stacks():
    rng = np.random.default_rng(7)
    pairs = [random_psd_pair(rng, 6, 4) for _ in range(3)]
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    stacked = ddfem.condition_pair(a, b)
    for t, (at, bt) in enumerate(pairs):
        single = ddfem.condition_pair(at, bt)
        np.testing.assert_allclose(stacked.eigenvalues[t], single.eigenvalues,
                                   rtol=1e-12)
    # one shared b against a stack of a
    scales = np.array([1.0, 3.0])[:, None, None]
    shared = ddfem.condition_pair(scales * a[0], b[0])
    single = ddfem.condition_pair(a[0], b[0])
    np.testing.assert_allclose(shared.kappa, [single.kappa] * 2, rtol=1e-12)
    np.testing.assert_allclose(shared.support_ab,
                               [single.support_ab, 3.0 * single.support_ab],
                               rtol=1e-12)


def test_global_support_check_small_meshes():
    for mesh in (ddfem.gen_structured_square(4, p=1),
                 ddfem.gen_structured_square(3, p=2),
                 ddfem.gen_structured_cube(2, p=1)):
        system = ddfem.build_system(mesh)
        bundle = ddfem.approximate(system)
        report = global_support_check(system.stiffness, system.kbar,
                                      bundle.h_blocks)
        assert report.passed
        assert report.sigma_k_kbar <= report.max_element_sigma_k_kbar * (1 + 1e-8)
        assert report.sigma_kbar_k <= report.max_element_sigma_kbar_k * (1 + 1e-8)
        assert report.kappa <= bundle.h_blocks.kappa_global * (1 + 1e-8)


def test_single_element_global_equals_element(unit_triangle_mesh):
    system = ddfem.build_system(unit_triangle_mesh)
    bundle = ddfem.approximate(system)
    report = global_support_check(system.stiffness, system.kbar, bundle.h_blocks)
    assert report.sigma_k_kbar == pytest.approx(
        float(bundle.h_blocks.sigma_max[0]) ** 2, rel=1e-10)


def test_two_element_global_below_element_max(two_triangle_square):
    system = ddfem.build_system(two_triangle_square)
    bundle = ddfem.approximate(system)
    report = global_support_check(system.stiffness, system.kbar, bundle.h_blocks)
    assert report.sigma_k_kbar <= (float(bundle.h_blocks.sigma_max.max()) ** 2
                                   * (1 + 1e-8))


def test_size_limit_guard(monkeypatch):
    # verify_system's dense_limit is the one size gate of the global check,
    # which itself takes any size.  Square k=4 p=1 has n = 9.
    calls = []
    check = spectral.global_support_check
    monkeypatch.setattr(spectral, "global_support_check",
                        lambda *args: calls.append(args) or check(*args))
    system = ddfem.build_system(ddfem.gen_structured_square(4, p=1))
    for limit, runs in ((8, False), (9, True)):
        calls.clear()
        checks = ddfem.verify_system(system, dense_limit=limit).checks
        assert ("global-condition-bound" in [c.name for c in checks]) == runs
        assert len(calls) == runs


def _two_floating_squares():
    """Two disjoint Dirichlet-free squares: Kbar has two floating components."""
    one = ddfem.gen_structured_square(3, p=2, dirichlet="none")
    nodes = np.vstack([one.nodes, one.nodes + [2.0, 0.0]])
    return ddfem.Mesh(d=2, p=2, nodes=nodes,
                      elements=np.vstack([one.elements,
                                          one.elements + len(one.nodes)]),
                      dirichlet=np.zeros(len(nodes), dtype=bool))


def _cube_p2_jump():
    mesh = ddfem.gen_structured_cube(4, p=2)
    return mesh, jump_conductivity(mesh)


def _cube_p1_jump():
    mesh = ddfem.gen_structured_cube(5, p=1)
    return mesh, jump_conductivity(mesh)


def _jittered_sheared_square(k=12, jitter=0.15, shear=4.0):
    """Interior nodes moved by at most jitter/k in seeded directions, then sheared."""
    mesh = ddfem.gen_structured_square(k, p=1)
    rng = np.random.default_rng(11)
    angle = rng.uniform(0.0, 2.0 * np.pi, mesh.n_nodes)
    radius = jitter / k * rng.uniform(0.0, 1.0, mesh.n_nodes)
    step = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    nodes = mesh.nodes + np.where(mesh.dirichlet[:, None], 0.0, step)
    nodes[:, 0] += shear * nodes[:, 1]
    return dataclasses.replace(mesh, nodes=nodes)


# Grounded sizes 2, 3, 9, 64, 96, 120, 121, 225 and 343 run both the dense
# branch (below LANCZOS_MIN_N) and the Lanczos branch; the p=1 cases above
# LANCZOS_MIN_N take the top eigenvalue by shift-invert at the splitting
# bound, the p=2 ones by Lanczos on Kbar^-1 K.
ORACLE_CASES = {
    "unit-triangle": lambda r: (r.getfixturevalue("unit_triangle_mesh"), None),
    "two-triangles": lambda r: (r.getfixturevalue("two_triangle_square"), None),
    "quarter-ring": lambda r: (r.getfixturevalue("quarter_ring_mesh"), None),
    "two-floating-squares": lambda r: (_two_floating_squares(), None),
    "dirichlet-square-p2": lambda r: (ddfem.gen_structured_square(8, p=2), None),
    "cube-p2-jump": lambda r: _cube_p2_jump(),
    "jittered-sheared-square-p1": lambda r: (_jittered_sheared_square(), None),
    "cube-p1-jump": lambda r: _cube_p1_jump(),
    "floating-square-p1": lambda r: (
        ddfem.gen_structured_square(10, p=1, dirichlet="none"), None),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_global_support_check_matches_dense_oracle(case, request):
    mesh, theta = ORACLE_CASES[case](request)
    system = ddfem.build_system(mesh, theta)
    bundle = ddfem.approximate(system)
    report = global_support_check(system.stiffness, system.kbar, bundle.h_blocks)
    expect = dense_global_support(system.stiffness, system.kbar)
    np.testing.assert_allclose(
        [report.sigma_k_kbar, report.sigma_kbar_k, report.kappa], expect,
        rtol=1e-10)


def _eigsh_shifts(monkeypatch, mesh):
    """The sigma of every eigsh call the global check makes, and the shift."""
    shifts = []

    def spy(*args, **kwargs):
        shifts.append(kwargs.get("sigma"))
        return eigsh(*args, **kwargs)

    eigsh = spectral.spla.eigsh
    monkeypatch.setattr(spectral.spla, "eigsh", spy)
    system = ddfem.build_system(mesh)
    bundle = ddfem.approximate(system)
    global_support_check(system.stiffness, system.kbar, bundle.h_blocks)
    top = float(bundle.h_blocks.sigma_max.max())
    return shifts, top * top * (1.0 + ORDER_RTOL)


def test_top_eigenvalue_shift_only_without_leaf_elimination(monkeypatch):
    # p=1: Kbar has no star leaves to eliminate, so the top eigenvalue comes
    # from shift-invert at the splitting bound (the bottom from sigma=0).
    shifts, shift = _eigsh_shifts(monkeypatch,
                                  ddfem.gen_structured_square(8, p=1))
    assert shifts.count(shift) == 1 and shifts.count(0.0) == 1
    # p=2: the leaf-eliminated Kbar factor serves regular-mode Lanczos.
    shifts, shift = _eigsh_shifts(monkeypatch,
                                  ddfem.gen_structured_square(4, p=2))
    assert shift not in shifts and shifts.count(0.0) == 1


def test_broken_splitting_bound_falls_back_to_regular_lanczos():
    # A halved element bound is below lambda_max, so the shifted factor is
    # indefinite and the certificate fails: the top eigenvalue still comes
    # out exact, and the check reports the broken bound.
    system = ddfem.build_system(_jittered_sheared_square())
    bundle = ddfem.approximate(system)
    h = bundle.h_blocks
    halved = dataclasses.replace(h, sigma_max=h.sigma_max * 0.5 ** 0.5)
    report = global_support_check(system.stiffness, system.kbar, halved)
    expect = dense_global_support(system.stiffness, system.kbar)
    np.testing.assert_allclose(
        [report.sigma_k_kbar, report.sigma_kbar_k, report.kappa], expect,
        rtol=1e-10)
    assert not report.splitting_ok and not report.passed


def _symmetric(csr):
    upper = sp.triu(csr).tocoo()
    return mirrored_csr(csr.shape[0], upper.row, upper.col, upper.data)


@pytest.mark.parametrize("k", [2, 6])
def test_global_check_rejects_k_off_kbar_nullspace(k):
    # Kbar of a Dirichlet-free square floats; a K that no longer annihilates
    # the constant vector has infinite support over it.
    system = ddfem.build_system(ddfem.gen_structured_square(k, p=1,
                                                            dirichlet="none"))
    bundle = ddfem.approximate(system)
    n = system.stiffness.shape[0]
    bumped = _symmetric(system.stiffness
                        + sp.csr_matrix(([1.0], ([0], [0])), shape=(n, n)))
    with pytest.raises(InfiniteSupportError) as exc:
        global_support_check(bumped, system.kbar, bundle.h_blocks)
    np.testing.assert_allclose(exc.value.direction, np.full(n, n ** -0.5))


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("how", ["shifted-pencil", "zero-row-sums"])
def test_global_check_rejects_extra_k_nullspace(k, how):
    # Kbar is definite (Dirichlet square); K gets a nullspace Kbar lacks.
    system = ddfem.build_system(ddfem.gen_structured_square(k, p=1))
    bundle = ddfem.approximate(system)
    assert (system.stiffness.shape[0] < LANCZOS_MIN_N) == (k == 4)
    kk = system.stiffness
    if how == "shifted-pencil":
        lam_min = 1.0 / dense_global_support(system.stiffness, system.kbar)[1]
        singular = kk - lam_min * system.kbar
    else:
        singular = kk - sp.diags(np.asarray(kk.sum(axis=1)).reshape(-1))
    with pytest.raises(InfiniteSupportError):
        dense_global_support(_symmetric(singular), system.kbar)
    with pytest.raises(InfiniteSupportError):
        global_support_check(_symmetric(singular), system.kbar, bundle.h_blocks)

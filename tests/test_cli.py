import json
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import ddfem
from ddfem import dd_approx
from ddfem.assembly import SparseSymmetricMatrix
from ddfem.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_loadable_mesh(tmp_path, capsys):
    out = tmp_path / "m.mesh"
    code, _, err = run(capsys, "gen", "--kind", "square", "--k", "2", "--p", "1",
                       "--out", str(out))
    assert code == 0
    mesh = ddfem.load_mesh(out)
    assert mesh.n_elements == 8
    assert "8 elements" in err


def test_gen_cube_quadratic(tmp_path, capsys):
    out = tmp_path / "c.mesh"
    code, _, _ = run(capsys, "gen", "--kind", "cube", "--k", "1", "--p", "2",
                     "--out", str(out))
    assert code == 0
    mesh = ddfem.load_mesh(out)
    assert (mesh.d, mesh.p, mesh.nodes_per_element) == (3, 2, 10)
    assert mesh.n_elements == 6


def test_assemble_matches_library(tmp_path, capsys):
    mesh_file = tmp_path / "m.mesh"
    run(capsys, "gen", "--kind", "square", "--k", "3", "--out", str(mesh_file))
    out = tmp_path / "K.txt"
    code, _, _ = run(capsys, "assemble", "--mesh", str(mesh_file), "--out", str(out))
    assert code == 0
    loaded = SparseSymmetricMatrix.load_text(out)
    system = ddfem.build_system(ddfem.load_mesh(mesh_file))
    np.testing.assert_allclose(loaded.toarray(), system.stiffness.toarray(),
                               rtol=1e-15)


def test_approx_writes_kbar(tmp_path, capsys):
    out = tmp_path / "Kbar.txt"
    code, _, _ = run(capsys, "approx", "--kind", "square", "--k", "3",
                     "--out", str(out))
    assert code == 0
    loaded = SparseSymmetricMatrix.load_text(out)
    system = ddfem.build_system(ddfem.gen_structured_square(3, p=1))
    bundle = ddfem.approximate(system)
    np.testing.assert_allclose(loaded.toarray(), bundle.dd.kbar.toarray(),
                               rtol=1e-15)


def test_report_text_and_json_agree(tmp_path, capsys):
    code, text, _ = run(capsys, "report", "--kind", "square", "--k", "8",
                        "--p", "1")
    assert code == 0
    code, js, _ = run(capsys, "report", "--kind", "square", "--k", "8",
                      "--p", "1", "--format", "json")
    assert code == 0
    data = json.loads(js)
    assert data["kappa2"] == 1.0
    assert data["m"] == 128
    header, row = text.strip().splitlines()
    cells = dict(zip(header.split(), row.split()))
    for key in ("kappa1", "chi1", "chi2", "chi3", "sigma_qp", "tau_qp"):
        assert cells[key] == f"{data[key]:.6g}"
    # one-point linear case: the analytic bound collapses onto the measurement
    assert cells["chi2"] == cells["chi3"]


def test_report_quadratic_scalars(capsys):
    code, js, _ = run(capsys, "report", "--kind", "square", "--k", "2",
                      "--p", "2", "--format", "json")
    assert code == 0
    data = json.loads(js)
    assert round(data["sigma_qp"], 2) == pytest.approx(5.26)
    assert round(data["tau_qp"], 2) == pytest.approx(0.83)
    assert data["weight_ratio"] == pytest.approx(1.0)


def test_report_deterministic(tmp_path, capsys):
    args = ("report", "--kind", "cube", "--k", "2", "--p", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_report_assembles_neither_k_nor_kbar(capsys, monkeypatch):
    # The report's numbers come from element data alone.
    def forbidden(*args, **kwargs):
        raise AssertionError("report must not assemble K or Kbar")

    originals = (ddfem.assembly.assemble_global, dd_approx.build_kbar)
    for module in [m for name, m in sys.modules.items()
                   if name == "ddfem" or name.startswith("ddfem.")]:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in originals):
                monkeypatch.setattr(module, attr, forbidden)
    code, js, _ = run(capsys, "report", "--kind", "square", "--k", "4",
                      "--p", "2", "--format", "json")
    assert code == 0
    assert json.loads(js)["n"] == ddfem.gen_structured_square(4, p=2).n_free


def test_verify_healthy_mesh(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "square", "--k", "4")
    assert code == 0
    assert "all" in out and "FAIL" not in out


def test_verify_corrupt_kbar_exits_2(capsys, monkeypatch):
    build_kbar = dd_approx.build_kbar

    def corrupted(*args):
        # flip the sign of one off-diagonal entry: it turns positive
        upper = {(i, j): v for i, j, v in build_kbar(*args).upper_entries()}
        i, j = next(key for key in upper if key[0] != key[1])
        upper[i, j] = -upper[i, j]
        return SparseSymmetricMatrix(args[0].n, upper)

    monkeypatch.setattr(dd_approx, "build_kbar", corrupted)
    code, out, _ = run(capsys, "verify", "--kind", "square", "--k", "4")
    assert code == 2
    assert "FAIL approximation-diagonal-dominance" in out


def test_verify_inverted_element_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text(
        "ddfem-mesh v1 d=2 p=1\n"
        "node 1 0 0 0\nnode 2 1 0 0\nnode 3 0 1 0\nnode 4 1 1 0\n"
        "elem 1 1 2 4\n"
        "elem 2 1 3 4\n"   # clockwise: inverted
    )
    code, _, err = run(capsys, "verify", "--mesh", str(bad))
    assert code == 3
    assert "element 2" in err and "Gauss point" in err


def test_verify_missing_file_exits_4(capsys):
    code, _, err = run(capsys, "verify", "--mesh", "/nonexistent/path.mesh")
    assert code == 4


def test_malformed_mesh_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text("ddfem-mesh v1 d=2 p=1\nnode 1 0 0 0\nelem 1 1 2\n")
    code, _, err = run(capsys, "verify", "--mesh", str(bad))
    assert code == 4
    assert "line" in err


def test_usage_error_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kind", "pyramid", "--k", "2"])
    assert exc.value.code == 4


def test_solve_writes_solution(tmp_path, capsys):
    out = tmp_path / "sol.txt"
    code, stdout, err = run(capsys, "solve", "--kind", "square", "--k", "8",
                            "--tol", "1e-10", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ddfem-solution v1 n=49"
    assert sum(1 for l in lines if l.startswith("x ")) == 49
    residual = next(float(l.split()[1]) for l in lines
                    if l.startswith("residual "))
    assert residual <= 1e-10
    assert next(l for l in lines if l.startswith("converged")).endswith("1")
    assert "preconditioned" in stdout
    assert "unpreconditioned" not in stdout
    assert not any(l.startswith("iterations unpreconditioned") for l in lines)
    assert err.count("wall time") == 1


def test_solve_output_deterministic(tmp_path, capsys):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for out in (first, second):
        code, _, _ = run(capsys, "solve", "--kind", "square", "--k", "4",
                         "--out", str(out))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_dense_limit_skips_global_checks(capsys):
    code, full, _ = run(capsys, "verify", "--kind", "square", "--k", "4")
    assert code == 0
    code, gated, _ = run(capsys, "verify", "--kind", "square", "--k", "4",
                         "--dense-limit", "1")
    assert code == 0
    assert "global-splitting-bound" in full
    assert "global-splitting-bound" not in gated


def test_verify_default_runs_global_checks_at_n_961(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "square", "--k", "32")
    assert code == 0
    assert "PASS global-splitting-bound" in out
    assert "PASS global-condition-bound" in out


def test_verify_dense_limit_above_default_size_limit(capsys):
    # n = 2025 is above the library's default size limit of 2000: the
    # user's --dense-limit is the only limit.
    code, out, _ = run(capsys, "verify", "--kind", "square", "--k", "46",
                       "--p", "1", "--dense-limit", "3000")
    assert code == 0
    assert "PASS global-splitting-bound" in out
    assert "PASS global-condition-bound" in out


def test_verify_reports_lanczos_nonconvergence(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    # n = 49: large enough for the Lanczos branch of the global check
    code, out, _ = run(capsys, "verify", "--kind", "square", "--k", "8")
    assert code == 2
    assert "FAIL global-splitting-bound: Lanczos eigensolver failed" in out
    assert "No convergence" in out
    assert out.splitlines()[-1] == "verify: 1 of 8 checks failed"


@pytest.mark.parametrize("argv,key", [
    (["solve", "--tol", "0"], "tol"),
    (["solve", "--tol", "-1"], "tol"),
    (["solve", "--max-iter", "0"], "max_iter"),
    (["solve", "--max-iter", "-5"], "max_iter"),
    (["verify", "--dense-limit", "-1"], "dense_limit"),
])
def test_unreachable_limits_exit_4(tmp_path, capsys, argv, key):
    # A limit no run can meet is usage trouble, caught before any work.
    out = tmp_path / "x.txt"
    extra = ["--out", str(out)] if argv[0] == "solve" else []
    code, _, err = run(capsys, *argv, "--kind", "square", "--k", "4", *extra)
    assert code == 4
    assert key in err
    assert not out.exists()


def test_solve_without_dirichlet_exits_3(capsys):
    code, _, err = run(capsys, "solve", "--kind", "square", "--k", "2",
                       "--dirichlet", "none", "--out", "/tmp/never.txt")
    assert code == 3
    assert "singular" in err.lower()


def test_config_file_preloads_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = square\nk = 3\np = 1\nformat = json\n")
    code, js, _ = run(capsys, "report", "--config", str(cfg))
    assert code == 0
    assert json.loads(js)["m"] == 18

    # flags override the config file
    code, js2, _ = run(capsys, "report", "--config", str(cfg), "--k", "2")
    assert json.loads(js2)["m"] == 8


@pytest.mark.parametrize("line", ["toll = -1", "threads = 0",
                                  "debug_corrupt_kbar = true", "tol = 1e-8"])
def test_config_unknown_key_exits_4(tmp_path, capsys, line):
    # tol is a solve flag, not a verify flag.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kind = square\nk = 3\n# comment\n{line}\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 4
    assert out == ""
    key = line.split("=")[0].strip()
    assert f"line 4: unknown config key {key!r}" in err


def test_config_with_verify_flags_runs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = square\nk = 3\np = 2\ndense-limit = 100\n"
                   "theta = 2\nquad = standard\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "global-condition-bound" in out
    assert out.endswith("checks passed\n")


def test_config_custom_quadrature(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kind = square\nk = 2\np = 1\nformat = json\n"
        "quad_point = 0.33333333333333331 0.33333333333333331 0.5\n")
    code, js, _ = run(capsys, "report", "--config", str(cfg))
    assert code == 0
    data = json.loads(js)
    assert data["sigma_qp"] == pytest.approx(1.0)


def test_custom_quadrature_file(tmp_path, capsys):
    qf = tmp_path / "rule.txt"
    qf.write_text("# midpoint\n0.33333333333333331 0.33333333333333331 0.5\n")
    code, js, _ = run(capsys, "report", "--kind", "square", "--k", "2",
                      "--quad", str(qf), "--format", "json")
    assert code == 0
    assert json.loads(js)["tau_qp"] == pytest.approx(1.0)


def test_bad_quadrature_weight_exits_3(tmp_path, capsys):
    qf = tmp_path / "rule.txt"
    qf.write_text("0.3 0.3 -0.5\n")
    code, _, err = run(capsys, "report", "--kind", "square", "--k", "2",
                       "--quad", str(qf))
    assert code == 3
    assert "weight" in err


def test_theta_expression_flag(capsys):
    code, js, _ = run(capsys, "report", "--kind", "square", "--k", "2",
                      "--p", "2", "--theta", "expr:1 + x", "--format", "json")
    assert code == 0
    code, js_const, _ = run(capsys, "report", "--kind", "square", "--k", "2",
                            "--p", "2", "--format", "json")
    # intra-element conductivity variation inflates the analytic bound
    assert json.loads(js)["chi3"] > json.loads(js_const)["chi3"]


@pytest.mark.parametrize("text,line", [
    ("ddfem-mesh v1 d=2 p=1\nnode 1 0 0 0\nnode 2 nan 0 0\nnode 3 0 1 0\n"
     "elem 1 1 2 3\n", 3),
    ("ddfem-mesh v1 d=2 p=1\nnode 1 0 0 0\nnode 2 1 0 0\nnode 3 0 1 0\n"
     "elem 1 1 2 3\ntheta elem 1 inf\n", 6),
])
def test_nonfinite_mesh_values_exit_4(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.mesh"
    bad.write_text(text)
    code, _, err = run(capsys, "report", "--mesh", str(bad))
    assert code == 4
    assert f"line {line}" in err and "finite" in err


def test_nonfinite_quadrature_file_exits_4(tmp_path, capsys):
    qf = tmp_path / "rule.txt"
    qf.write_text("# midpoint\n0.3 0.3 inf\n")
    code, _, err = run(capsys, "report", "--kind", "square", "--k", "2",
                       "--quad", str(qf))
    assert code == 4
    assert "line 2" in err and "finite" in err


def test_nonfinite_config_values_exit_4(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = square\nk = 2\nquad_point = nan 0.3 0.5\n")
    code, _, err = run(capsys, "report", "--config", str(cfg))
    assert code == 4
    assert "line 3" in err and "finite" in err
    code, _, err = run(capsys, "solve", "--kind", "square", "--k", "2",
                       "--tol", "nan", "--out", str(tmp_path / "x.txt"))
    assert code == 4
    assert "finite" in err


def test_nan_determinant_exits_3(tmp_path, capsys):
    # Finite coordinates whose Jacobian determinant evaluates to inf - inf.
    bad = tmp_path / "huge.mesh"
    bad.write_text("ddfem-mesh v1 d=2 p=1\nnode 1 0 0 0\nnode 2 1e200 1e200 0\n"
                   "node 3 1e200 2e200 0\nelem 1 1 2 3\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, "report", "--mesh", str(bad))
    assert code == 3
    assert "element 1" in err and "determinant nan" in err


def test_infinite_conductivity_exits_3(capsys):
    code, _, err = run(capsys, "report", "--kind", "square", "--k", "2",
                       "--theta", "inf")
    assert code == 3
    assert "conductivity" in err and "element 1, Gauss point 1" in err

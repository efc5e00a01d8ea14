import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import ddfem
from ddfem import cli, dd_approx, pipeline
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
    loaded = ddfem.load_matrix_text(out)
    system = ddfem.build_system(ddfem.load_mesh(mesh_file))
    np.testing.assert_allclose(loaded.toarray(), system.stiffness.toarray(),
                               rtol=1e-15)


def test_approx_writes_kbar(tmp_path, capsys):
    out = tmp_path / "Kbar.txt"
    code, _, _ = run(capsys, "approx", "--kind", "square", "--k", "3",
                     "--out", str(out))
    assert code == 0
    loaded = ddfem.load_matrix_text(out)
    system = ddfem.build_system(ddfem.gen_structured_square(3, p=1))
    np.testing.assert_allclose(loaded.toarray(), system.kbar.toarray(),
                               rtol=1e-15)


@pytest.mark.parametrize("kind,k", [("square", 4), ("cube", 2)])
def test_approx_file_matches_full_approximation(tmp_path, capsys, kind, k):
    out = tmp_path / "Kbar.txt"
    code, _, _ = run(capsys, "approx", "--kind", kind, "--k", str(k), "--p", "2",
                     "--out", str(out))
    assert code == 0
    gen = ddfem.gen_structured_square if kind == "square" else ddfem.gen_structured_cube
    want = tmp_path / "want.txt"
    ddfem.save_matrix_text(ddfem.build_system(gen(k, p=2)).kbar, want)
    assert out.read_bytes() == want.read_bytes()


def test_approx_builds_no_quality_or_h_blocks(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("approx needs only Kbar")

    monkeypatch.setattr(dd_approx, "build_h_blocks", refuse)
    monkeypatch.setattr(ddfem.quality, "compute_quality", refuse)
    code, _, _ = run(capsys, "approx", "--kind", "square", "--k", "3",
                     "--out", str(tmp_path / "Kbar.txt"))
    assert code == 0


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


def replace_everywhere(monkeypatch, fn, replacement):
    """Rebind ``fn`` to ``replacement`` in every ddfem module that binds it."""
    for module in [m for name, m in sys.modules.items()
                   if name == "ddfem" or name.startswith("ddfem.")]:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)


def test_report_assembles_neither_k_nor_kbar(capsys, monkeypatch):
    # The report's numbers come from element data alone: it builds neither
    # K, Kbar nor the element stiffness matrices.
    def forbidden(*args, **kwargs):
        raise AssertionError("report must not build K, Kbar or element matrices")

    for fn in (ddfem.assembly.assemble_global, ddfem.assembly.element_stiffness,
               dd_approx.build_kbar):
        replace_everywhere(monkeypatch, fn, forbidden)
    code, js, _ = run(capsys, "report", "--kind", "square", "--k", "4",
                      "--p", "2", "--format", "json")
    assert code == 0
    assert json.loads(js)["n"] == ddfem.gen_structured_square(4, p=2).n_free


def test_solve_computes_element_matrices_in_chunks(tmp_path, capsys, monkeypatch):
    # K is summed from element blocks computed a bounded chunk at a time,
    # each element exactly once; no (m, l, l) stack is built.
    sizes = []
    element_stiffness = ddfem.assembly.element_stiffness

    def spy(geom, *args, **kwargs):
        sizes.append(geom.dets.shape[0])
        return element_stiffness(geom, *args, **kwargs)

    replace_everywhere(monkeypatch, element_stiffness, spy)
    code, _, _ = run(capsys, "solve", "--kind", "cube", "--k", "6", "--p", "2",
                     "--out", str(tmp_path / "x.txt"))
    assert code == 0
    assert len(sizes) >= 3
    assert max(sizes) <= ddfem.assembly.ASSEMBLY_CHUNK
    assert sum(sizes) == ddfem.gen_structured_cube(6, p=2).n_elements


def test_solve_output_independent_of_blas_threads(tmp_path):
    # n = 10609: long enough for OpenBLAS to split a dot product over two
    # threads, which would change the summation order of PCG's reductions.
    src = Path(ddfem.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"x{threads}.txt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "ddfem.cli", "solve", "--kind",
                        "square", "--k", "52", "--p", "2", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv,kbar_calls", [
    (["report", "--kind", "square", "--k", "4", "--p", "2"], 0),
    (["approx", "--kind", "square", "--k", "4", "--p", "2", "--out", "{out}"], 1),
    (["verify", "--kind", "square", "--k", "4", "--p", "2"], 1),
    (["solve", "--kind", "cube", "--k", "2", "--p", "2", "--out", "{out}"], 1),
], ids=["report", "approx", "verify", "solve"])
def test_dbar_and_kbar_built_once_per_command(tmp_path, capsys, monkeypatch,
                                             argv, kbar_calls):
    calls = {"build_dbar": 0, "build_kbar": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        fn = getattr(dd_approx, name)
        replace_everywhere(monkeypatch, fn, counting(name, fn))
    argv = [str(tmp_path / "out.txt") if a == "{out}" else a for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == {"build_dbar": 1, "build_kbar": kbar_calls}


@pytest.mark.parametrize("argv", [
    ["report", "--kind", "square", "--k", "6", "--p", "2", "--format", "json"],
    ["verify", "--kind", "square", "--k", "6", "--p", "2"],
    ["solve", "--kind", "cube", "--k", "2", "--p", "2", "--theta",
     "expr:1 + 1e4 * (x > 0.5)", "--out", "{out}"],
    ["approx", "--kind", "cube", "--k", "2", "--p", "2", "--theta",
     "expr:1 + 1e4 * (x > 0.5)", "--out", "{out}"],
    ["assemble", "--kind", "square", "--k", "6", "--p", "2", "--theta",
     "expr:1 + x*y", "--out", "{out}"],
], ids=["report-json", "verify", "solve", "approx", "assemble"])
def test_repeated_runs_in_one_process_are_identical(tmp_path, capsys, argv):
    # Nothing one run builds may leak into the next run in the same process.
    outputs = []
    for i in range(2):
        out = tmp_path / f"out{i}.txt"
        code, stdout, _ = run(capsys, *[str(out) if a == "{out}" else a
                                        for a in argv])
        assert code == 0
        outputs.append((stdout, out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]


def test_solve_frees_the_system_before_the_factor(tmp_path, capsys, monkeypatch):
    # Only K, Kbar and the load vector outlive assembly: the geometry, the
    # incidence and Dbar are gone before the factor.
    systems, alive = [], []
    build_system, factor_kbar = pipeline.build_system, cli.factor_kbar

    def build_spy(*args, **kwargs):
        system = build_system(*args, **kwargs)
        systems.append(weakref.ref(system))
        return system

    def factor_spy(kbar):
        alive.append([ref() is not None for ref in systems])
        return factor_kbar(kbar)

    monkeypatch.setattr(pipeline, "build_system", build_spy)
    monkeypatch.setattr(cli, "factor_kbar", factor_spy)
    code, _, _ = run(capsys, "solve", "--kind", "cube", "--k", "2", "--p", "2",
                     "--out", str(tmp_path / "x.txt"))
    assert code == 0
    assert alive == [[False]]


def test_each_run_builds_shared_stacks_once(tmp_path, capsys, monkeypatch):
    # solve reads the system's reference tables for its load vector, and
    # verify's two identity checks share one Gram stack of the factors.
    from ddfem import assembly, factorization
    calls = {"tables": 0, "gram": 0}
    tables, gram = assembly.reference_tables, factorization.ElementFactors.gram.func

    def tables_spy(*args):
        calls["tables"] += 1
        return tables(*args)

    def gram_spy(self):
        calls["gram"] += 1
        return gram(self)

    monkeypatch.setattr(assembly, "reference_tables", tables_spy)
    monkeypatch.setattr(factorization.ElementFactors.gram, "func", gram_spy)
    code, _, _ = run(capsys, "solve", "--kind", "square", "--k", "3", "--p", "2",
                     "--out", str(tmp_path / "x.txt"))
    assert (code, calls["tables"]) == (0, 1)
    code, _, _ = run(capsys, "verify", "--kind", "square", "--k", "3", "--p", "2")
    assert (code, calls["gram"]) == (0, 1)


def test_verify_healthy_mesh(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "square", "--k", "4")
    assert code == 0
    assert "all" in out and "FAIL" not in out


@pytest.mark.parametrize("theta", ["1e200", "1e-200"])
def test_verify_passes_at_extreme_conductivity_scales(capsys, theta):
    # Every check is scale invariant; the identity residuals take their norms
    # of blocks scaled by a power of two, so no square overflows (a NaN
    # residual) or underflows (a residual of 0) and no warning is raised.
    code, out, _ = run(capsys, "verify", "--kind", "square", "--k", "3", "--p", "1",
                       "--theta", theta)
    assert code == 0
    assert out.endswith("verify: all 9 checks passed\n")
    residuals = [line for line in out.splitlines() if "-identity:" in line]
    assert len(residuals) == 2 and "nan" not in "".join(residuals)


def test_verify_corrupt_kbar_exits_2(capsys, monkeypatch):
    build_kbar = dd_approx.build_kbar

    def corrupted(*args):
        # flip the sign of one off-diagonal pair: it turns positive
        kbar = build_kbar(*args)
        upper = sp.triu(kbar, k=1, format="coo")
        i, j, v = upper.row[0], upper.col[0], upper.data[0]
        return kbar - sp.csr_matrix(([2 * v, 2 * v], ([i, j], [j, i])),
                                    shape=kbar.shape)

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


@pytest.mark.parametrize("rule,message", [
    # The weights of every supported order must sum to the triangle's area.
    ("0.3 0.3 0.25\n0.2 0.5 0.2\n", "line 1: quadrature weights sum to 0.45, not the "
                                   "reference simplex volume 1/2"),
    # A huge weight used to overflow in the stiffness (four RuntimeWarnings).
    ("# overflow\n0.3 0.3 1e308\n", "line 2: quadrature weights sum to 1e+308"),
    ("0.3 0.3 0.25\n0.2 0.5 1e308\n0.2 0.2 1e308\n", "line 1: quadrature weights "
                                                     "sum to inf"),
])
def test_quadrature_weights_off_the_volume_exit_3(tmp_path, capsys, rule, message):
    qf = tmp_path / "rule.txt"
    qf.write_text(rule)
    for command in ("report", "verify"):
        code, out, err = run(capsys, command, "--kind", "square", "--k", "2",
                             "--quad", str(qf))
        assert (code, out) == (3, "")
        assert f"assumption violated: {message}" in err


@pytest.mark.parametrize("rule,message", [
    ("0.2 0.2 0.25\n0.3 0.3 0.25 1\n",
     "line 2: custom rule record [0.3, 0.3, 0.25, 1.0] has 4 fields, expected 3"),
    ("0.2 0.2 0.25\n2 2 0.25\n",
     "line 2: Gauss point 2 at (2.0, 2.0) is not strictly inside the unit simplex"),
    ("0.2 0.2 0.25\n0.3 0.3 -0.25\n", "line 2: quadrature weight 2 is -0.25"),
])
def test_rule_record_rejections_name_their_line(tmp_path, capsys, rule, message):
    qf = tmp_path / "rule.txt"
    qf.write_text(rule)
    code, _, err = run(capsys, "report", "--kind", "square", "--k", "2", "--quad", str(qf))
    assert code in (3, 4)
    assert message in err and "np.float64" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = square\nk = 2\n"
                   + "".join(f"quad_point = {r}\n" for r in rule.splitlines()))
    code, _, err = run(capsys, "report", "--config", str(cfg))
    assert message.replace("line 2", "line 4") in err


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


def test_nonfinite_source_exits_4(tmp_path, capsys):
    # Rejected at the first Gauss point, before any matrix reaches the solver;
    # the division by zero itself warns nowhere.
    out = tmp_path / "s.sol"
    code, stdout, err = run(capsys, "solve", "--kind", "square", "--k", "2",
                            "--source", "expr:x/0", "--out", str(out))
    assert code == 4
    assert stdout == "" and not out.exists()
    assert err.startswith("i/o error: source must be finite, got inf at (")
    assert "in element 1, Gauss point 1" in err


def test_python_division_by_zero_in_source_exits_4(tmp_path, capsys):
    # Python itself divides the constant 1/0 and raises; that point's source
    # is undefined, as for numpy's x/0.
    out = tmp_path / "s.sol"
    code, stdout, err = run(capsys, "solve", "--kind", "square", "--k", "2",
                            "--source", "expr:1/0", "--out", str(out))
    assert code == 4
    assert stdout == "" and not out.exists()
    assert err.startswith("i/o error: source must be finite, got nan at (")
    assert "in element 1, Gauss point 1" in err


@pytest.mark.parametrize("expr,value", [("x/0", "inf"), ("1/0", "nan"),
                                        ("10.0**400", "nan")])
def test_undefined_conductivity_exits_3_without_warnings(capsys, expr, value):
    # numpy's x/0 warns nowhere and Python's own 1/0 or overflow raises no
    # traceback: stderr holds the one assumption line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(capsys, "report", "--kind", "square", "--k",
                                "2", "--theta", f"expr:{expr}")
    assert code == 3 and stdout == "" and caught == []
    assert err.startswith("assumption violated: conductivity must be finite "
                          f"and strictly positive, got {value} at (")
    assert err.endswith("in element 1, Gauss point 1\n")
    assert err.count("\n") == 1


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

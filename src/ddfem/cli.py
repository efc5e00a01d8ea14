"""Command line front end.

Subcommands: gen, assemble, approx, report, verify, solve.  All flags are
long-form.  A ``key = value`` config file can preload any flag; flags given on
the command line win.  Exit codes: 0 success, 2 verification failure, 3 a
method assumption is violated by the input, 4 I/O or usage trouble.

Identical configurations produce bit-identical text output: tables round to 6
significant digits, vectors and matrix entries carry 17, and nothing
nondeterministic (like wall time) lands in an artifact.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import pipeline
from .assembly import assemble_load
from .errors import (
    DDFemError,
    MeshFormatError,
    MethodAssumptionError,
    SingularSystemError,
    UnsupportedConfigError,
)
from .mesh import (
    ConductivityField,
    conductivity_from_mesh,
    gen_structured_cube,
    gen_structured_square,
    load_mesh,
    save_mesh,
)
from .quadrature import parse_rule_records, standard_rule
from .solver import factor_kbar, pcg_solve

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_ASSUMPTION = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    # Usage problems belong to the I/O exit code, keeping 2 reserved for
    # verification failures.
    def error(self, message):
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _fmt6(v) -> str:
    return f"{float(v):.6g}"


def _fmt17(v) -> str:
    return f"{float(v):.17g}"


def read_config_file(path: str) -> tuple[dict, dict]:
    """Parse ``key = value`` lines into the values and each key's line number.

    Repeated ``quad_point`` keys accumulate as (line number, fields) records;
    any other repeated key keeps its last value and line.
    """
    values: dict = {}
    lines: dict = {}
    quad_points: list[tuple[int, list[str]]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MeshFormatError(f"cannot read config file: {exc}") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise MeshFormatError(f"expected 'key = value' in {raw!r}", line=ln)
        key, _, val = stripped.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key == "quad_point":
            quad_points.append((ln, val.split()))
        else:
            values[key] = val
            lines[key] = ln
    if quad_points:
        values["quad_point"] = quad_points
    return values, lines


def _add_input_options(sub):
    sub.add_argument("--config", help="key = value file preloading any flag")
    sub.add_argument("--mesh", help="mesh file to load")
    sub.add_argument("--kind", choices=["square", "cube"],
                     help="structured generator (alternative to --mesh)")
    sub.add_argument("--k", type=int, help="generator subdivision count")
    sub.add_argument("--p", type=int, choices=[1, 2], help="element order")
    sub.add_argument("--dirichlet", choices=["boundary", "none"],
                     default=None, help="generator boundary marking")
    sub.add_argument("--theta", default=None,
                     help="conductivity: a constant, 'expr:<formula in x,y,z>', "
                          "or 'mesh' for per-element values from the mesh file")
    sub.add_argument("--quad", default=None,
                     help="'standard' or a file of 'x y [z] w' lines")


def build_parser() -> _Parser:
    parser = _Parser(prog="ddfem",
                     description="Finite element stiffness matrices and their "
                                 "diagonally dominant approximations")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", parents=[], help="generate a structured mesh")
    _add_input_options(gen)
    gen.add_argument("--out", required=True, help="mesh file to write")

    assemble = subs.add_parser("assemble", help="assemble the stiffness matrix")
    _add_input_options(assemble)
    assemble.add_argument("--out", required=True, help="matrix file to write")

    approx = subs.add_parser("approx",
                             help="build the diagonally dominant approximation")
    _add_input_options(approx)
    approx.add_argument("--out", required=True, help="matrix file to write")

    report = subs.add_parser("report", help="mesh/rule quality and bound table")
    _add_input_options(report)
    report.add_argument("--format", choices=["text", "json"], default=None)
    report.add_argument("--out", default=None, help="default: stdout")

    verify = subs.add_parser("verify", help="run the invariant battery")
    _add_input_options(verify)
    verify.add_argument("--dense-limit", type=int, default=None,
                        help="largest n for the global support checks "
                             f"(default {pipeline.spectral.DEFAULT_SIZE_LIMIT}); "
                             "the checks form no dense matrix")

    solve = subs.add_parser("solve", help="preconditioned conjugate gradient demo")
    _add_input_options(solve)
    solve.add_argument("--source", default=None,
                       help="load: a constant or 'expr:<formula>' (default 1)")
    solve.add_argument("--tol", type=float, default=None,
                       help="relative residual target (default 1e-10)")
    solve.add_argument("--max-iter", type=int, default=None)
    solve.add_argument("--out", required=True, help="solution file to write")
    return parser


def _merge_config(args) -> dict:
    """Config file values overridden by the flags given on the command line.

    A config key must name a flag of the subcommand being run (or be
    ``quad_point``); any other key is rejected with its line number.
    """
    cfg = {}
    if getattr(args, "config", None):
        cfg, lines = read_config_file(args.config)
        flags = set(vars(args)) - {"command", "config"}
        for key, ln in lines.items():
            if key not in flags:
                raise MeshFormatError(
                    f"unknown config key {key!r}: not a flag of {args.command}",
                    line=ln)
    merged = dict(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _intval(cfg, key, default=None, *, least=None):
    v = cfg.get(key, default)
    if v is None:
        return None
    try:
        value = int(v)
    except (TypeError, ValueError):
        raise UnsupportedConfigError(f"{key} must be an integer, got {v!r}") from None
    if least is not None and value < least:
        raise UnsupportedConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _floatval(cfg, key, default=None):
    v = cfg.get(key, default)
    if v is None:
        return None
    try:
        value = float(v)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise UnsupportedConfigError(f"{key} must be a finite number, got {v!r}")
    return value


def _resolve_mesh(cfg):
    if cfg.get("mesh") and cfg.get("kind"):
        raise UnsupportedConfigError("give either --mesh or --kind, not both")
    if cfg.get("mesh"):
        return load_mesh(cfg["mesh"])
    kind = cfg.get("kind")
    if not kind:
        raise UnsupportedConfigError("a mesh source is required: --mesh or --kind")
    k = _intval(cfg, "k")
    if k is None:
        raise UnsupportedConfigError("--kind needs --k")
    p = _intval(cfg, "p", 1)
    dirichlet = cfg.get("dirichlet") or "boundary"
    if kind == "square":
        return gen_structured_square(k, p=p, dirichlet=dirichlet)
    return gen_structured_cube(k, p=p, dirichlet=dirichlet)


def _resolve_theta(cfg, mesh):
    raw = cfg.get("theta")
    if raw is None or raw == "mesh":
        return conductivity_from_mesh(mesh)
    if isinstance(raw, str) and raw.startswith("expr:"):
        return ConductivityField.from_expression(raw.removeprefix("expr:"))
    return ConductivityField.from_constant(float(raw))


def _resolve_rule(cfg, mesh):
    quad = cfg.get("quad")
    records = cfg.get("quad_point")   # (line number, fields) pairs
    name = "config"
    if not records:
        if quad in (None, "standard"):
            return standard_rule(mesh.d, mesh.p)
        try:
            text = Path(quad).read_text(encoding="utf-8")
        except OSError as exc:
            raise MeshFormatError(f"cannot read quadrature file: {exc}") from None
        records = [(ln, raw.split()) for ln, raw in enumerate(text.splitlines(), 1)
                   if raw.strip() and not raw.strip().startswith("#")]
        name = Path(quad).name
    lines, fields = zip(*records) if records else ((), ())
    return parse_rule_records(fields, mesh.d, name=name, lines=lines)


def _resolve_source(cfg):
    raw = cfg.get("source")
    if raw is None:
        return 1.0
    if isinstance(raw, str) and raw.startswith("expr:"):
        field = ConductivityField.from_expression(raw.removeprefix("expr:"))
        return lambda x: float(field.fn(x))
    return _floatval(cfg, "source")


def _report_dict(system, bundle) -> dict:
    qual = bundle.quality
    return {
        "m": system.mesh.n_elements,
        "n": system.mesh.n_free,
        "kappa1": qual.kappa1,
        "kappa2": qual.kappa2,
        "chi1": bundle.chi.max_chi1,
        "chi2": bundle.chi.max_chi2,
        "chi3": bundle.chi.chi3,
        "sigma_qp": qual.sigma_qp,
        "tau_qp": qual.tau_qp,
        "weight_ratio": qual.M_q / qual.m_q,
    }


_REPORT_COLUMNS = ["m", "n", "kappa1", "kappa2", "chi1", "chi2", "chi3",
                   "sigma_qp", "tau_qp", "weight_ratio"]


def _report_text(data: dict) -> str:
    cells = [str(data["m"]), str(data["n"])]
    cells += [_fmt6(data[c]) for c in _REPORT_COLUMNS[2:]]
    widths = [max(len(h), len(c)) for h, c in zip(_REPORT_COLUMNS, cells)]
    head = "  ".join(h.rjust(w) for h, w in zip(_REPORT_COLUMNS, widths))
    row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return head + "\n" + row + "\n"


def _write_out(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_gen(cfg) -> int:
    mesh = _resolve_mesh(cfg)
    save_mesh(mesh, cfg["out"])
    sys.stderr.write(
        f"wrote {mesh.n_elements} elements, {mesh.n_nodes} nodes "
        f"({mesh.n_free} free) to {cfg['out']}\n")
    return EXIT_OK


def _cmd_assemble(cfg) -> int:
    mesh = _resolve_mesh(cfg)
    system = pipeline.build_system(mesh, _resolve_theta(cfg, mesh),
                                   _resolve_rule(cfg, mesh))
    system.stiffness.save_text(cfg["out"])
    return EXIT_OK


def _cmd_approx(cfg) -> int:
    mesh = _resolve_mesh(cfg)
    system = pipeline.build_system(mesh, _resolve_theta(cfg, mesh),
                                   _resolve_rule(cfg, mesh))
    bundle = pipeline.approximate(system)
    bundle.dd.kbar.save_text(cfg["out"])
    return EXIT_OK


def _cmd_report(cfg) -> int:
    mesh = _resolve_mesh(cfg)
    system = pipeline.build_system(mesh, _resolve_theta(cfg, mesh),
                                   _resolve_rule(cfg, mesh))
    bundle = pipeline.approximate(system)
    data = _report_dict(system, bundle)
    if cfg.get("format") == "json":
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        text = _report_text(data)
    _write_out(text, cfg.get("out"))
    return EXIT_OK


def _cmd_verify(cfg) -> int:
    mesh = _resolve_mesh(cfg)
    system = pipeline.build_system(mesh, _resolve_theta(cfg, mesh),
                                   _resolve_rule(cfg, mesh))
    limit = _intval(cfg, "dense_limit", least=0)
    options = {} if limit is None else {"dense_limit": limit}
    summary = pipeline.verify_system(system, **options)
    for check in summary.checks:
        status = "PASS" if check.passed else "FAIL"
        sys.stdout.write(f"{status} {check.name}: {check.detail}\n")
    if summary.passed:
        sys.stdout.write(f"verify: all {len(summary.checks)} checks passed\n")
        return EXIT_OK
    failed = sum(1 for c in summary.checks if not c.passed)
    sys.stdout.write(f"verify: {failed} of {len(summary.checks)} checks failed\n")
    return EXIT_VERIFY


def _cmd_solve(cfg) -> int:
    tol = _floatval(cfg, "tol", 1e-10)
    if tol <= 0.0:
        raise UnsupportedConfigError(f"tol must be positive, got {tol!r}")
    max_iter = _intval(cfg, "max_iter", least=1)
    mesh = _resolve_mesh(cfg)
    if mesh.n_free == mesh.n_nodes:
        raise SingularSystemError(
            "no Dirichlet nodes: the reduced system is singular")
    theta = _resolve_theta(cfg, mesh)
    rule = _resolve_rule(cfg, mesh)
    system = pipeline.build_system(mesh, theta, rule)
    # K is assembled before Kbar is factored, so its assembly temporaries
    # are freed before the LU factor is allocated.
    stiffness = system.stiffness
    kbar = pipeline.kbar_for_solve(system)
    rhs = assemble_load(mesh, system.ref, rule, theta, _resolve_source(cfg),
                        geometries=system.geometries,
                        element_k=system.element_stiffness)
    handle = factor_kbar(kbar)
    pre = pcg_solve(stiffness, rhs, preconditioner=handle, tol=tol,
                    max_iter=max_iter)

    lines = [f"ddfem-solution v1 n={stiffness.n}"]
    lines += [f"x {i + 1} {_fmt17(v)}" for i, v in enumerate(pre.x)]
    lines += [
        f"iterations preconditioned {pre.iterations}",
        f"residual {_fmt17(pre.relative_residual)}",
        f"converged {1 if pre.converged else 0}",
    ]
    Path(cfg["out"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    sys.stdout.write(f"solve: {pre.iterations} preconditioned iterations, "
                     f"residual {_fmt6(pre.relative_residual)}\n")
    sys.stderr.write(f"wall time {pre.wall_time:.3f}s\n")
    if not pre.converged:
        sys.stderr.write("solve: preconditioned iteration did not converge\n")
        return EXIT_VERIFY
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "assemble": _cmd_assemble,
    "approx": _cmd_approx,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "solve": _cmd_solve,
}


@functools.cache
def _main_parser() -> _Parser:
    # Built once per process and only read: a fresh parser costs a few
    # thousand allocations per call, and a garbage collection they set off
    # lands outside every traced stage of an in-process run.
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except MethodAssumptionError as exc:
        sys.stderr.write(f"assumption violated: {exc}\n")
        return EXIT_ASSUMPTION
    except SingularSystemError as exc:
        sys.stderr.write(f"singular system: {exc}\n")
        return EXIT_ASSUMPTION
    except (MeshFormatError, UnsupportedConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except DDFemError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())

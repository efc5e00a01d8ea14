"""Seeded inputs, command lines and output checks for the benchmark workloads.

Each workload is one ``ddfem`` subcommand.  Its inputs are drawn from the
seed alone (the same seed always gives the same mesh files and argv), and the
mesh files are written by this module's own generators, so a later change to
``ddfem``'s mesh generators cannot change what the benchmark feeds the
program.  The ``{op}`` placeholder in an argv template is replaced by the
operation index, so every operation writes its own output file.

Checks return a list of problems (empty when the output is correct).  For the
seeds listed in ``references.json`` (recorded by ``make_references.py``) the
output is compared with stored values; for every seed, invariants that need
no stored value are checked too.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"

# Relative slack of the chi chain, the same slack ddfem's own chain check uses.
CHAIN_RTOL = 1e-8
REPORT_RTOL = 1e-9
SOLUTION_RTOL = 1e-8
VERIFY_KAPPA_RTOL = 1e-6
SOLVE_TOL = 1e-10

# Rows of the fixed random-sign sketch that stands in for a stored solution
# vector: the sketch of a difference keeps its 2-norm to within about +-35%.
SKETCH_ROWS = 32
SKETCH_SEED = 2004


@dataclass
class Prepared:
    """One workload's inputs for one seed."""

    argv: list            # argv template for ddfem.cli.main, with {op}
    m: int                # element count
    n: int                # free node count
    seed: int
    full_size: bool       # True at the shipped size, where references apply

    def argv_for(self, op: int) -> list:
        return [a.replace("{op}", str(op)) for a in self.argv]


@dataclass
class Workload:
    name: str
    full_k: int
    tiny_k: int
    prepare: Callable     # (rng, k, workdir) -> (argv, m, n)
    extract: Callable     # (stdout text, out path) -> dict of output values
    check: Callable       # (values, reference or None) -> list of problems


# ---------------------------------------------------------------------------
# Mesh writers (ddfem-mesh v1 text format)
# ---------------------------------------------------------------------------

def _lattice(d: int, p: int) -> list:
    # ddfem's reference node order: last coordinate most significant.
    if d == 2:
        return [(i, j) for j in range(p + 1) for i in range(p + 1 - j)]
    return [(i, j, k) for k in range(p + 1) for j in range(p + 1 - k)
            for i in range(p + 1 - k - j)]


def _det3(a, b, c) -> int:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _cube_tets() -> list:
    """Corner offsets of the six positively oriented Kuhn tetrahedra."""
    tets = []
    for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        cur = [0, 0, 0]
        corners = [tuple(cur)]
        for axis in perm:
            cur[axis] += 1
            corners.append(tuple(cur))
        vecs = [[c[i] - corners[0][i] for i in range(3)] for c in corners[1:]]
        if _det3(*vecs) < 0:
            corners[2], corners[3] = corners[3], corners[2]
        tets.append(corners)
    return tets


def write_cube_mesh(path: Path, k: int, p: int, theta_of_centroid) -> tuple:
    """Unit cube, 6k^3 tetrahedra of order p, boundary nodes Dirichlet.

    Every node of an order-p Kuhn mesh sits on the grid of spacing 1/(p k), so
    nodes are that whole grid and element nodes are found by integer
    arithmetic.  ``theta_of_centroid`` gives the per-element conductivity
    record written for each element.
    """
    side = p * k + 1
    lines = [f"ddfem-mesh v1 d=3 p={p}"]
    for z in range(side):
        for y in range(side):
            for x in range(side):
                flag = int(0 in (x, y, z) or side - 1 in (x, y, z))
                lines.append(f"node {(z * side + y) * side + x + 1} {x / (side - 1):.17g} "
                             f"{y / (side - 1):.17g} {z / (side - 1):.17g} {flag}")
    lattice = _lattice(3, p)
    thetas = []
    t = 0
    for cz in range(k):
        for cy in range(k):
            for cx in range(k):
                for corners in _cube_tets():
                    v = [(cx + c[0], cy + c[1], cz + c[2]) for c in corners]
                    ids = []
                    for (i, j, kk) in lattice:
                        pt = [p * v[0][a] + i * (v[1][a] - v[0][a])
                              + j * (v[2][a] - v[0][a]) + kk * (v[3][a] - v[0][a])
                              for a in range(3)]
                        ids.append((pt[2] * side + pt[1]) * side + pt[0] + 1)
                    t += 1
                    lines.append(f"elem {t} " + " ".join(map(str, ids)))
                    centroid = [sum(c[a] for c in v) / (4 * k) for a in range(3)]
                    thetas.append(theta_of_centroid(centroid))
    lines += [f"theta elem {i + 1} {v:.17g}" for i, v in enumerate(thetas)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 6 * k ** 3, (side - 2) ** 3


def write_sheared_square_mesh(path: Path, k: int, rng: random.Random,
                              jitter: float, shear: float) -> tuple:
    """Unit square, 2k^2 order-1 triangles, interior nodes jittered, then sheared.

    Each interior node moves by at most ``jitter * h`` in a seeded direction;
    a right triangle of leg h has heights of at least h/sqrt(2), so any
    jitter below 0.35h keeps every triangle positively oriented, and the
    shear x += shear * y keeps orientation too.
    """
    side = k + 1
    h = 1.0 / k
    lines = ["ddfem-mesh v1 d=2 p=1"]
    for j in range(side):
        for i in range(side):
            x, y = i * h, j * h
            boundary = i in (0, k) or j in (0, k)
            if not boundary:
                angle = 2.0 * math.pi * rng.random()
                radius = jitter * h * rng.random()
                x += radius * math.cos(angle)
                y += radius * math.sin(angle)
            x += shear * y
            lines.append(f"node {j * side + i + 1} {x:.17g} {y:.17g} {int(boundary)}")
    t = 0
    for j in range(k):
        for i in range(k):
            a, b = j * side + i + 1, j * side + i + 2
            c, d = a + side, b + side
            for tri in ((a, b, d), (a, d, c)):
                t += 1
                lines.append(f"elem {t} {tri[0]} {tri[1]} {tri[2]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 2 * k * k, (k - 1) ** 2


# ---------------------------------------------------------------------------
# report-square-p2
# ---------------------------------------------------------------------------

REPORT_FLOATS = ["kappa1", "kappa2", "chi2", "chi3", "sigma_qp", "tau_qp",
                 "weight_ratio"]


def _prepare_report(rng, k, workdir):
    # A smooth conductivity bounded away from zero, since c0 > amp.
    c0 = rng.uniform(1.5, 3.0)
    amp = rng.uniform(0.2, 1.0)
    w1, w2 = rng.uniform(1.0, 2.0 * math.pi), rng.uniform(1.0, 2.0 * math.pi)
    ph1, ph2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
    expr = (f"{c0:.6f} + {amp:.6f}*sin({w1:.6f}*x + {ph1:.6f})"
            f"*cos({w2:.6f}*y + {ph2:.6f})")
    argv = ["report", "--kind", "square", "--k", str(k), "--p", "2",
            "--format", "json", "--theta", f"expr:{expr}"]
    return argv, 2 * k * k, (2 * k - 1) ** 2


def _extract_report(stdout, _out):
    return json.loads(stdout)


def _check_report(values, ref):
    problems = []
    if not values["chi1"] <= values["chi2"] * (1.0 + CHAIN_RTOL):
        problems.append(f"chi1 {values['chi1']!r} exceeds chi2 {values['chi2']!r}")
    if not values["chi2"] <= values["chi3"] * (1.0 + CHAIN_RTOL):
        problems.append(f"chi2 {values['chi2']!r} exceeds chi3 {values['chi3']!r}")
    if ref is not None:
        for key in ("m", "n"):
            if values[key] != ref[key]:
                problems.append(f"{key} {values[key]} != reference {ref[key]}")
        for key in REPORT_FLOATS:
            if not _close(values[key], ref[key], REPORT_RTOL):
                problems.append(f"{key} {values[key]!r} != reference {ref[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# solve-cube-p2-jump
# ---------------------------------------------------------------------------

def _prepare_solve(rng, k, workdir):
    # One decade around 1e6: the plain CG comparison takes 1.9k iterations at
    # a 1e4 jump and 3.4k at 1e7, so a wider band would make op_s depend on
    # the seed more than on the program.
    jump = 10.0 ** rng.uniform(5.5, 6.5)
    mesh = workdir / "cube.mesh"
    m, n = write_cube_mesh(mesh, k, 2, lambda c: 1.0 if c[0] < 0.5 else jump)
    argv = ["solve", "--mesh", str(mesh), "--tol", repr(SOLVE_TOL),
            "--out", str(workdir / "op{op}.sol")]
    return argv, m, n


def _extract_solve(_stdout, out):
    x, stats = [], {}
    lines = out.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        tok = line.split()
        if tok[0] == "x":
            x.append(float(tok[2]))
        else:
            stats[" ".join(tok[:-1])] = float(tok[-1])
    return {"header": lines[0], "x": x, "n": len(x),
            "converged": stats.get("converged"), "residual": stats.get("residual"),
            "pcg_iterations": stats.get("iterations preconditioned"),
            "cg_iterations": stats.get("iterations unpreconditioned")}


def sketch(x: list) -> list:
    """Fixed random-sign projections of x, scaled to keep its 2-norm."""
    gen = random.Random(SKETCH_SEED)
    out = []
    scale = 1.0 / math.sqrt(SKETCH_ROWS)
    for _ in range(SKETCH_ROWS):
        signs = format(gen.getrandbits(len(x)), f"0{len(x)}b")
        out.append(scale * math.fsum(v if s == "1" else -v
                                     for s, v in zip(signs, x)))
    return out


def _check_solve(values, ref):
    problems = []
    if values["converged"] != 1:
        problems.append(f"converged reads {values['converged']}")
    if values["residual"] is None or not values["residual"] <= SOLVE_TOL:
        problems.append(f"residual {values['residual']!r} above {SOLVE_TOL}")
    if ref is not None:
        if values["n"] != ref["n"]:
            problems.append(f"solution length {values['n']} != reference {ref['n']}")
        else:
            diff = math.sqrt(math.fsum((a - b) ** 2 for a, b in
                                       zip(sketch(values["x"]), ref["sketch"])))
            if not diff <= SOLUTION_RTOL * ref["norm"]:
                problems.append(f"solution differs from reference by "
                                f"{diff / ref['norm']:.3e} (relative, sketched)")
    return problems


# ---------------------------------------------------------------------------
# verify-sheared-square-p1
# ---------------------------------------------------------------------------

def _prepare_verify(rng, k, workdir):
    mesh = workdir / "sheared.mesh"
    m, n = write_sheared_square_mesh(mesh, k, rng, jitter=0.15, shear=4.0)
    argv = ["verify", "--mesh", str(mesh), "--dense-limit", "2000"]
    return argv, m, n


def _extract_verify(stdout, _out):
    lines = stdout.splitlines()
    kappa = None
    for line in lines:
        if " global-condition-bound: " in line:
            kappa = line.split("kappa ", 1)[1].split()[0]
    return {"lines": lines, "kappa": kappa}


def _check_verify(values, ref):
    lines = values["lines"]
    problems = [f"check line reads {line!r}" for line in lines[:-1]
                if not line.startswith("PASS ")]
    if not lines or not lines[-1].startswith("verify: all "):
        problems.append(f"summary line reads {lines[-1] if lines else None!r}")
    if values["kappa"] is None:
        problems.append("no global-condition-bound line")
    elif ref is not None:
        # The line prints 6 significant digits, and two values within the
        # tolerance can round to neighbouring strings: allow the tolerance
        # plus one unit in the last printed place.
        got, want = float(values["kappa"]), float(ref["kappa"])
        unit = 10.0 ** (math.floor(math.log10(abs(want))) - 5)
        if not abs(got - want) <= VERIFY_KAPPA_RTOL * abs(want) + unit:
            problems.append(f"kappa {values['kappa']} != reference {ref['kappa']}")
    return problems


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * abs(b)


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="report-square-p2",
            full_k=64, tiny_k=4,
            prepare=_prepare_report, extract=_extract_report, check=_check_report),
        Workload(
            name="solve-cube-p2-jump",
            full_k=10, tiny_k=2,
            prepare=_prepare_solve, extract=_extract_solve, check=_check_solve),
        Workload(
            name="verify-sheared-square-p1",
            full_k=40, tiny_k=4,
            prepare=_prepare_verify, extract=_extract_verify, check=_check_verify),
    ]
}


def prepare(name: str, seed: int, workdir: Path, tiny: bool = False,
            k: int | None = None) -> Prepared:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    w = WORKLOADS[name]
    if k is None:
        k = w.tiny_k if tiny else w.full_k
    rng = random.Random(f"{name}/{seed}")
    argv, m, n = w.prepare(rng, k, workdir)
    return Prepared(argv=argv, m=m, n=n, seed=seed, full_size=(k == w.full_k))


def load_reference(name: str, prepared: Prepared):
    """Stored output values for this workload and seed, or None."""
    if not prepared.full_size:
        return None
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table.get(name, {}).get(str(prepared.seed))


def check_output(name: str, stdout: str, out: Path, reference) -> list:
    """Problems with one operation's output; never raises."""
    w = WORKLOADS[name]
    try:
        return w.check(w.extract(stdout, out), reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

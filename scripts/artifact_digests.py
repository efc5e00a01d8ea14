"""Hash every artifact of a fixed set of ddfem commands, for one or two trees.

    python scripts/artifact_digests.py --src DIR [--src DIR2]

DIR is a directory holding the ``ddfem`` package (the ``src`` of a checkout;
an older revision can be unpacked with ``git archive REV src | tar -x -C
OUT``).  Each of the 84 commands runs as ``ddfem.cli.main(argv)`` in a fresh
child process, in an empty working directory of its own that holds only the
command's input files, so every path it prints is the same for any tree.
The commands:

- ``gen``, ``assemble``, ``approx``, ``report`` (text and JSON), ``verify``
  and ``solve`` on the square k=5 and the cube k=2, for p=1 and 2 and both
  ``--dirichlet`` modes (56 commands);
- ``verify`` at ``--theta 1e200`` and ``--theta 1e-200`` on those meshes
  with boundary Dirichlet nodes (8);
- ``report`` on eight inputs that are rejected: custom rules whose weights
  overflow, miss the reference volume or are not positive, a rule record of
  the wrong length, a Gauss point outside the simplex, and mesh files with
  no element, an element node out of range and an unreferenced node (8);
- each benchmark workload's command at seeds 0-3, on the inputs
  ``perfbench/workloads.py`` writes (12).

Artifacts are the exit code, stdout, stderr (without ``solve``'s wall-time
line) and every file the command writes.  With one tree the script prints
one sha256 per artifact; with two it prints the artifacts that differ and
the names of their commands.  It exits 1 when a command of either tree ends
in anything other than an exit code of the command line (0, 2, 3 or 4), a
traceback for instance; run it with ``PYTHONWARNINGS=error`` (the children
inherit it) to count every warning as such an end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

CLI_EXIT_CODES = {0, 2, 3, 4}

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from ddfem.cli import main
sys.exit(main(json.loads(sys.argv[2])))
"""

ONE_TRIANGLE = "ddfem-mesh v1 d=2 p=1\nnode 1 0 0 0\nnode 2 1 0 0\nnode 3 0 1 0\n"
CONFIG = ["--config", "run.cfg"]
RULE = ["--kind", "square", "--k", "2", "--quad", "rule.txt"]
MESH = ["--mesh", "bad.mesh"]

# name: (report's input flags, the last naming the input file; that file's text)
REJECTED = {
    "rule-weight-overflow": (CONFIG, "kind = square\nk = 2\nquad_point = 0.3 0.3 1e308\n"),
    "rule-weight-sum": (RULE, "0.3 0.3 0.25\n0.2 0.5 0.2\n"),
    "rule-weight-negative": (RULE, "0.2 0.2 0.75\n0.3 0.3 -0.25\n"),
    "rule-record-length": (CONFIG, "kind = square\nk = 2\nquad_point = 0.3 0.3 0.25 1\n"),
    "rule-point-outside": (RULE, "0.2 0.2 0.25\n2 2 0.25\n"),
    "mesh-no-elements": (MESH, ONE_TRIANGLE),
    "mesh-node-out-of-range": (MESH, ONE_TRIANGLE + "elem 1 1 2 4\n"),
    "mesh-node-unreferenced": (MESH, ONE_TRIANGLE + "node 4 1 1 0\nelem 1 1 2 3\n"),
}


def commands() -> list:
    """(name, argv, input files, workload to prepare or None) of every command."""
    out = []
    for kind, k in (("square", 5), ("cube", 2)):
        for p in (1, 2):
            for mode in ("boundary", "none"):
                name = f"{kind}-k{k}-p{p}-{mode}"
                mesh = ["--kind", kind, "--k", str(k), "--p", str(p), "--dirichlet", mode]
                for sub, extra in (("gen", ["--out", "out.mesh"]),
                                   ("assemble", ["--out", "out.mat"]),
                                   ("approx", ["--out", "out.mat"]),
                                   ("report", []),
                                   ("report", ["--format", "json"]),
                                   ("verify", []),
                                   ("solve", ["--out", "out.sol"])):
                    label = f"{sub}-json" if "--format" in extra else sub
                    out.append((f"{label} {name}", [sub] + mesh + extra, {}, None))
                if mode == "boundary":
                    for theta in ("1e200", "1e-200"):
                        out.append((f"verify-theta-{theta} {name}",
                                    ["verify"] + mesh + ["--theta", theta], {}, None))
    for name, (flags, text) in REJECTED.items():
        out.append((f"report {name}", ["report"] + flags, {flags[-1]: text}, None))
    for workload in sorted(workloads.WORKLOADS):
        for seed in range(4):
            out.append((f"{workload} seed {seed}", None, {}, (workload, seed)))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(src: Path, argv, files: dict, workload) -> tuple:
    """The exit code and {artifact: sha256} of one command in a fresh child."""
    with tempfile.TemporaryDirectory(prefix="ddfem-digest-") as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        if workload is not None:
            prepared = workloads.prepare(workload[0], workload[1], work)
            argv = [a.replace(f"{work}/", "") for a in prepared.argv_for(0)]
        before = set(work.iterdir())
        proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(argv)],
                              cwd=work, capture_output=True)
        stderr = b"".join(line for line in proc.stderr.splitlines(keepends=True)
                          if not line.startswith(b"wall time "))
        digests = {"exit": _sha(str(proc.returncode).encode()),
                   "stdout": _sha(proc.stdout), "stderr": _sha(stderr)}
        for path in sorted(set(work.iterdir()) - before):
            digests[f"file {path.name}"] = _sha(path.read_bytes())
        return proc.returncode, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, type=Path,
                        help="directory holding the ddfem package (give one or two)")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one or two --src directories")
    cmds = commands()
    results = [{} for _ in args.src]
    crashed = []
    for name, cmd_argv, files, workload in cmds:
        for tree, src in enumerate(args.src):
            code, digests = run_command(src.resolve(), cmd_argv, files, workload)
            results[tree][name] = digests
            if code not in CLI_EXIT_CODES:
                crashed.append(f"{src}: {name} ended with exit code {code}")
    if len(args.src) == 1:
        for name, digests in results[0].items():
            for artifact, sha in digests.items():
                print(f"{sha}  {name}: {artifact}")
    else:
        differ = []
        for name in results[0]:
            a, b = results[0][name], results[1][name]
            for artifact in sorted(set(a) | set(b)):
                if a.get(artifact) != b.get(artifact):
                    print(f"{name}: {artifact} {a.get(artifact, 'absent')[:12]} "
                          f"!= {b.get(artifact, 'absent')[:12]}")
            if a != b:
                differ.append(name)
        print(f"{len(differ)} of {len(cmds)} commands differ"
              + "".join(f"\n  {name}" for name in differ))
    for line in crashed:
        print(line, file=sys.stderr)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())

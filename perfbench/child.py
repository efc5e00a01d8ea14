"""One benchmark child process: import ddfem.cli, then run ``cli.main``.

Usage: ``python3 child.py SPEC.json``.  The spec names the ddfem source
directory, the mode and where to write the stats JSON:

- ``import``: only time ``import ddfem.cli``.
- ``op``: run ``main(argv)`` once, its standard output going to a file.
- ``trace``: run ``main(argv)`` in this process, alternating untraced and
  traced operations (untraced, traced, traced, untraced, ...; at least one of
  each), while the next one is expected to end within ``seconds``; with
  ``traced_only`` run one traced operation.  Spans and counters are written
  out at the end.

Import and ``main`` are timed separately, so ``op_s`` excludes interpreter
start and import.  The child never raises: a failure is recorded in the stats.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy
    blas = None
    with contextlib.suppress(Exception):   # show_config's layout varies by version
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_main(main, argv: list, stdout_path: str, call=None) -> dict:
    """Run ``main(argv)`` with stdout in a file; ``call`` wraps the invocation."""
    error = None
    with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = call(lambda: main(argv)) if call else main(argv)
        except SystemExit as exc:   # argparse exits on usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:           # recorded as a failed operation
            rc, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    return {"rc": rc, "op_s": elapsed, "cpu_s": cpu, "error": error}


def trace_loop(main, spec: dict) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    ops = []
    pattern = [True] if spec.get("traced_only") else [False, True, True, False]
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        op = len(ops)
        traced = pattern[op % len(pattern)]
        argv = [a.replace("{op}", str(op)) for a in spec["argv"]]
        stdout = os.path.join(spec["workdir"], f"op{op}.stdout")
        started = time.perf_counter()
        if traced:
            tracer.install()
            try:
                result = run_main(main, argv, stdout,
                                  call=lambda fn, op=op: tracer.run_op(op, fn))
            finally:
                tracer.uninstall()
        else:
            result = run_main(main, argv, stdout)
        last = time.perf_counter() - started
        ops.append({"op": op, "traced": traced, **result})
        done = {o["traced"] for o in ops}
        if spec.get("traced_only") or (done == {False, True}
                                       and time.perf_counter() + last > deadline):
            break
    return {"ops": ops, "spans": tracer.spans,
            "counts": {str(k): v for k, v in tracer.counts.items()},
            "missing": tracer.missing}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    stats: dict = {"error": None}
    try:
        sys.path.insert(0, spec["src"])
        start = time.perf_counter()
        import ddfem.cli
        stats["import_s"] = time.perf_counter() - start
        origin = Path(ddfem.cli.__file__).resolve()
        if not origin.is_relative_to(Path(spec["src"]).resolve()):
            raise ImportError(f"ddfem imported from {origin}, not {spec['src']}")
        stats["env"] = environment()
        if spec["mode"] == "op":
            stats["ops"] = [{"op": spec["op"], "traced": False,
                             **run_main(ddfem.cli.main, spec["argv"], spec["stdout"])}]
        elif spec["mode"] == "trace":
            stats.update(trace_loop(ddfem.cli.main, spec))
    except Exception:
        stats["error"] = traceback.format_exc()
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["stats"]).write_text(json.dumps(stats), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

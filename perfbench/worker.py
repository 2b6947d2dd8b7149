"""One pass of a cknstab benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec gives the package's ``src`` directory, the ``result`` and ``out``
paths, and either ``"warmup": true`` or a CLI ``command``, its ``points`` as
``[[n, p], ...]`` and a ``trace`` flag.  The worker times
``import cknstab.cli`` (the set-up every CLI invocation pays), then runs
``cknstab.cli.main`` once per point with ``--format json --out <out>``,
timing each call, and writes the timings, its peak resident memory and the
output rows to ``result``.  The points of one pass are distinct, so no call
is served from a cache that an earlier call filled.

Traced, the worker first routes the package's public entry points through
spans (see spans.py) and wraps each call in a root span whose trace id is
the sweep point.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_points(cli, spec):
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    out = Path(spec["out"])
    command = spec["command"]
    status, rows, walls = [], [], []
    for n, p in spec["points"]:
        argv = [command, "--n", str(n), "--p", repr(p), "--format", "json", "--out", str(out)]
        if tracer:
            tracer.trace_id = [p, n]
        t0 = time.perf_counter()
        with tracer.span(f"cli.{command}") if tracer else nullcontext():
            status.append(cli.main(argv))
        walls.append(time.perf_counter() - t0)
        rows += json.loads(out.read_text())["rows"]
    result = {"walls": walls, "status": status, "rows": rows}
    if tracer:
        result["spans"] = tracer.spans
    return result


def main():
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    t0 = time.perf_counter()
    import cknstab.cli as cli

    setup_s = time.perf_counter() - t0
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"cknstab was imported from {cli.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if spec.get("warmup"):
        result["env"] = environment()
    else:
        result.update(run_points(cli, spec))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

"""The cknstab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload (see workloads.py) pass after pass until ``--seconds``
have gone, each pass in a fresh interpreter with BLAS pinned to one thread
and one CLI call per sweep point, checks every output row, and prints one
JSON object as the last line of stdout.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` each untraced pass is followed by a
traced one, and it reports the per-layer metrics as medians over the traced
passes.  A readable summary goes to stderr; the run record (environment,
points, grids, per-pass figures, failures and spans) is written to
``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = "1"
PASS_TIMEOUT_S = 170

# end-to-end metric -> unit
E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}


def worker_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(spec):
    """Run one worker process; its result dict, or None if it failed."""
    result = WORK / "result.json"
    result.unlink(missing_ok=True)
    spec = dict(spec, src=str(SRC), result=str(result), out=str(WORK / "rows.json"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=worker_env(), stdout=sys.stderr, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


def run_pass(command, pts, traced):
    return run_worker({"command": command, "points": pts, "trace": traced})


def pass_failures(command, pts, res, reference):
    """Failure reasons by point key for one pass's worker result."""
    if res is None:
        return {workloads.point_key(n, p): ["worker process failed"] for n, p in pts}
    fails = workloads.point_failures(command, res["rows"], pts, reference)
    for pt, status in zip(pts, res["status"]):
        if status:
            fails[pt].append(f"CLI exit status {status}")
    return {workloads.point_key(n, p): why for (n, p), why in fails.items() if why}


def median_wall(results):
    """Median over passes of the summed CLI call times of a pass."""
    return statistics.median(sum(r["walls"]) for r in results)


def end_to_end(passes, attempted, failed):
    done = [rec["untraced"] for rec in passes if rec["untraced"]]
    return {
        "wall_s": median_wall(done),
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in done),
        "pass_frac": 1.0 - failed / attempted,
    }


def per_layer(passes):
    done = [rec for rec in passes if rec["untraced"] and rec["traced"]]
    per_pass = [spans.layer_metrics(rec["traced"]["spans"]) for rec in done]
    out = {k: statistics.median(m[k] for m in per_pass) for k in spans.LAYER_METRICS
           if k != "trace.overhead"}
    out["trace.overhead"] = (median_wall([rec["traced"] for rec in done])
                             / median_wall([rec["untraced"] for rec in done]) - 1.0)
    return out


def grids(span_list):
    """Distinct (N, S, L, M) of the cylinders built at each sweep point."""
    out = {}
    for s in span_list:
        if s["name"] == "cylinder.build":
            key = workloads.point_key(s["trace"][1], s["trace"][0])
            g = [s["attrs"][k] for k in ("N", "S", "L", "M")]
            out.setdefault(key, [])
            if g not in out[key]:
                out[key].append(g)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "cknstab" / "cli.py").is_file():
        sys.exit(f"no cknstab sources under {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)
    command, _ = workloads.WORKLOADS[args.workload]
    pts = workloads.points(args.workload, args.seed)
    reference = workloads.load_reference().get(command) if args.seed == 0 else None

    warm = run_worker({"warmup": True})  # compiles bytecode, fills the page cache
    if warm is None:
        sys.exit("cknstab.cli does not import")

    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rec = {"untraced": run_pass(command, pts, False)}
        if args.trace:
            rec["traced"] = run_pass(command, pts, True)
        passes.append(rec)
        # stop before a pass that would likely end past the budget
        now = time.monotonic()
        if now - start + (now - began) > args.seconds:
            break
    elapsed = time.monotonic() - start

    evaluated = [res for rec in passes for res in rec.values()]
    failures = [pass_failures(command, pts, res, reference) for res in evaluated]
    attempted = len(pts) * len(evaluated)
    failed = sum(len(f) for f in failures)
    if not any(rec["untraced"] and rec.get("traced", True) for rec in passes):
        sys.exit("no pass completed: every pass had a failed worker")

    if args.trace:
        values = per_layer(passes)
        units = {k: unit for k, (unit, _) in spans.LAYER_METRICS.items()}
    else:
        values = end_to_end(passes, attempted, failed)
        units = E2E_METRICS

    first_traced = passes[0].get("traced") or {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": warm["env"], "points": pts,
        "grids": grids(first_traced.get("spans", [])),
        "passes": [
            {kind: res and {k: res[k] for k in ("setup_s", "walls", "rss_mb")}
             for kind, res in rec.items()}
            for rec in passes
        ],
        "failures": failures, "metrics": values,
        "spans": first_traced.get("spans"),
    }
    record_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    env = warm["env"]
    print(
        f"{args.workload} seed {args.seed}: {len(pts)} points, {len(passes)} "
        f"passes in {elapsed:.1f} s; python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
        f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}",
        file=sys.stderr,
    )
    for name, val in values.items():
        print(f"  {name:36s} {val:.6g} {units[name]}", file=sys.stderr)
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"point evaluations); record in {record_path}", file=sys.stderr)
    for f in failures:
        for key, why in f.items():
            print(f"  FAILED {key}: {'; '.join(why)}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()

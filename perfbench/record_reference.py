"""Record the seed-0 reference values that run.py compares against.

    python3 perfbench/record_reference.py

Runs the seed-0 spectrum and constants sweeps once through the CLI, checks
that every point passes its acceptance gates, and writes the sector levels,
gamma3, E0, F and both R routes to reference_seed0.json.  Rerun it only when
a change is meant to move these numbers, and say so in that change.
"""

import json
import sys

import run
import workloads


def main():
    run.WORK.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in ("spectrum_sweep", "constants_sweep"):
        command, _ = workloads.WORKLOADS[workload]
        pts = workloads.points(workload, 0)
        res = run.run_pass(command, pts, False)
        failures = run.pass_failures(command, pts, res, None)
        if failures:
            sys.exit(f"{workload} fails its gates: {failures}")
        reference[command] = workloads.reference_values(command, res["rows"])
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

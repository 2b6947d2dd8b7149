"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

Synthetic CLI rows check the failure accounting; one real traced worker call
checks that spans reach calls made inside the package.
"""

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- inputs -------------------------------------------------------------------


def test_seed0_points_are_the_acceptance_inputs():
    path = ROOT / "tests" / "test_acceptance.py"
    if not path.exists():
        pytest.skip("acceptance suite not present")
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("REFERENCE_POINTS", "SPECTRUM_SWEEP", "CONSTANTS_SWEEP"):
                found[name] = ast.literal_eval(node.value)
    assert found["SPECTRUM_SWEEP"] == workloads.points("spectrum_sweep", 0)
    assert found["CONSTANTS_SWEEP"] == workloads.points("constants_sweep", 0)
    assert found["REFERENCE_POINTS"] == workloads.points("sharpness_study", 0)
    assert found["REFERENCE_POINTS"] == workloads.points("interaction_windows", 0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_jittered_points_stay_in_the_hull(workload):
    base = workloads.points(workload, 0)
    for seed in range(1, 60):
        pts = workloads.points(workload, seed)
        assert pts == workloads.points(workload, seed)
        assert [n for n, _ in pts] == [n for n, _ in base]
        for (n, p), (_, p0) in zip(pts, base):
            assert workloads.P_LO[n] <= p <= workloads.P_HI[n]
            assert abs(p - p0) <= workloads.JITTER * p0 + 1e-4
            assert n != 2 or p <= workloads.N2_P_CAP
            assert n == 2 or p < 2.0 * n / (n - 2.0)
    assert workloads.points(workload, 1) != base


def test_bubble_norm_matches_the_acceptance_point():
    # ||V0||_H1 at (3, 4) from the package's own quadrature is 6.03998
    assert abs(workloads.bubble_h1_norm(3, 4.0) - 6.03998) <= 1e-4


# -- failure accounting -----------------------------------------------------


def clean_rows(command, n, p):
    base = {"n": n, "p": p, "error": ""}
    if command == "spectrum":
        levels = [(0, 0, 1.0), (0, 1, p - 1.0), (0, 2, p + 2.0), (1, 0, p - 1.0),
                  (1, 1, p + 1.0), ("all", "gamma3", p + 0.5)]
        return [dict(base, ell=l, index=i, gamma=g, residual=1e-12) for l, i, g in levels]
    if command == "constants":
        floor = 1e-8 * workloads.bubble_h1_norm(n, p)
        return [dict(base, E0=-1.0, F=2.0, rel_discrepancy=1e-9, tail_bound=1e-11,
                     residual_floor=floor, R_energy=0.5, R_gamma=0.5)]
    if command == "sharpness":
        return [dict(base, kind="slopes", residual=3.0, distance=1.0,
                     naive_residual=2.0, proj_norm=1.0, perp_distance=2.0)]
    kinds = ("pair_min_exponent", "pair_balanced", "derivative", "sum_residual",
             "gap_norm_W1")
    return [dict(base, kind=k, gap=g, value=0.1 * g, predicted=0.1, ratio=g)
            for k in kinds for g in (1.0, 2.0, 3.0)]


def synthetic_pass(pts, rows_of):
    return {"setup_s": 0.5, "walls": [0.1] * len(pts), "rss_mb": 100.0,
            "status": [0] * len(pts), "rows": [r for n, p in pts for r in rows_of(n, p)]}


BROKEN = {
    "spectrum": lambda r: r["index"] == "gamma3" and r.update(gamma=r["p"] - 1.0),
    "constants": lambda r: r.update(F=-1.0),
    "sharpness": lambda r: r.update(distance=1.05),
    "interactions": lambda r: (r["kind"], r["gap"]) == ("derivative", 3.0)
    and r.update(ratio=100.0),
}


def failed_frac(command, pts, rows_of):
    res = synthetic_pass(pts, rows_of)
    failed = len(run.pass_failures(command, pts, res, None))
    return 1.0 - run.end_to_end([{"untraced": res}], len(pts), failed)["pass_frac"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_clean_rows_do_not_fail(workload):
    command, _ = workloads.WORKLOADS[workload]
    pts = workloads.points(workload, 0)
    assert failed_frac(command, pts, lambda n, p: clean_rows(command, n, p)) == 0.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_error_row_raises_failed_frac(workload):
    command, _ = workloads.WORKLOADS[workload]
    pts = workloads.points(workload, 0)
    bad = pts[1]

    def rows_of(n, p):
        rows = clean_rows(command, n, p)
        if (n, p) == bad:
            rows[0]["error"] = "ArithmeticError: synthetic"
        return rows

    assert failed_frac(command, pts, rows_of) == pytest.approx(1.0 / len(pts))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_broken_gate_raises_failed_frac(workload):
    command, _ = workloads.WORKLOADS[workload]
    pts = workloads.points(workload, 0)
    bad = pts[0]

    def rows_of(n, p):
        rows = clean_rows(command, n, p)
        if (n, p) == bad:
            for r in rows:
                BROKEN[command](r)
        return rows

    assert failed_frac(command, pts, rows_of) == pytest.approx(1.0 / len(pts))


def test_missing_rows_and_failed_workers_count_as_failed():
    pts = workloads.points("spectrum_sweep", 0)
    res = synthetic_pass(pts[1:], lambda n, p: clean_rows("spectrum", n, p))
    assert list(run.pass_failures("spectrum", pts, res, None)) == [
        workloads.point_key(*pts[0])]
    assert len(run.pass_failures("spectrum", pts, None, None)) == len(pts)
    res = synthetic_pass(pts, lambda n, p: clean_rows("spectrum", n, p))
    res["status"][2] = 3
    assert list(run.pass_failures("spectrum", pts, res, None)) == [
        workloads.point_key(*pts[2])]


def test_reference_mismatch_fails_the_point():
    pts = [(3, 4.0)]
    rows = clean_rows("constants", 3, 4.0)
    ref = workloads.reference_values("constants", rows)
    assert workloads.point_failures("constants", rows, pts, ref) == {(3, 4.0): []}
    ref[workloads.point_key(3, 4.0)]["E0"] *= 1.0 + 1e-6
    assert workloads.point_failures("constants", rows, pts, ref)[(3, 4.0)]


def test_reference_file_covers_every_seed0_point():
    ref = workloads.load_reference()
    for workload in ("spectrum_sweep", "constants_sweep"):
        command, _ = workloads.WORKLOADS[workload]
        keys = {workloads.point_key(n, p) for n, p in workloads.points(workload, 0)}
        assert set(ref[command]) == keys


# -- metrics ------------------------------------------------------------------


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "trace": [4.0, 3], "attrs": attrs}


def test_self_time_coverage_and_overhead():
    s = [
        span("cli.sharpness", 0.0, 10.0),
        span("stability.nearest_bubble", 1.0, 5.0, 0, stationarity=1e-10),
        span("stability.project_Y", 2.0, 3.0, 1),
        span("operators.apply_H1", 6.0, 8.0, 0, tail_fraction=1e-12),
        span("cli.sharpness", 10.0, 20.0),
        span("stability.nearest_bubble", 11.0, 15.0, 4, stationarity=1e-12),
        span("stability.project_Y", 12.0, 13.0, 5),
        span("operators.apply_H1", 16.0, 18.0, 4, tail_fraction=1e-13),
    ]
    m = spans.layer_metrics(s)
    assert m["stability.nearest_bubble_s"] == pytest.approx(6.0)
    assert m["stability.project_Y_s"] == pytest.approx(2.0)
    assert m["operators.apply_H1_calls"] == 2
    assert m["stability.stationarity_max"] == 1e-10
    assert m["trace.coverage"] == pytest.approx(0.6)


def test_wall_is_the_median_pass_and_overhead_compares_medians():
    untraced = [{"walls": [1.0, 2.0]}, {"walls": [0.5, 3.0]}, {"walls": [1.0, 1.0]}]
    assert run.median_wall(untraced) == 3.0
    root = [span("cli.constants", 0.0, 1.0)]
    passes = [{"untraced": u, "traced": {"walls": [1.0, 2.6], "spans": root}}
              for u in untraced]
    assert run.per_layer(passes)["trace.overhead"] == pytest.approx(3.6 / 3.0 - 1.0)


def test_printed_metrics_are_declared():
    bench = benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    pts = workloads.points("constants_sweep", 0)
    res = synthetic_pass(pts, lambda n, p: clean_rows("constants", n, p))
    e2e = run.end_to_end([{"untraced": res}], len(pts), 0)
    assert {k: run.E2E_METRICS[k] for k in e2e} == declared_e2e

    passes = [{"untraced": res, "traced": dict(res, spans=[span("cli.constants", 0.0, 1.0)])}]
    layer = run.per_layer(passes)
    units = {k: unit for k, (unit, _) in spans.LAYER_METRICS.items()}
    assert {k: units[k] for k in layer} == declared_layer
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    assert better == {k: b for k, (_, b) in spans.LAYER_METRICS.items()}


def test_traced_worker_records_calls_inside_the_package(tmp_path):
    spec = {"src": str(ROOT / "src"), "result": str(tmp_path / "r.json"),
            "out": str(tmp_path / "o.json"), "command": "interactions",
            "points": [[3, 4.0]], "trace": True}
    # --gaps is not passed by the benchmark; the default nine gaps run here
    proc = subprocess.run([sys.executable, str(Path(run.__file__).parent / "worker.py"),
                           json.dumps(spec)], env=run.worker_env(), timeout=170)
    assert proc.returncode == 0
    res = json.loads((tmp_path / "r.json").read_text())
    m = spans.layer_metrics(res["spans"])
    assert m["cylinder.build_calls"] == 9
    assert m["operators.apply_H1_calls"] == 9
    assert m["multibubble.bubble_sum_residual_s"] > 0.0
    assert 0.5 < m["trace.coverage"] <= 1.0
    assert all(s["trace"] == [4.0, 3] for s in res["spans"])
    assert not workloads.point_failures("interactions", res["rows"], [(3, 4.0)])[(3, 4.0)]
    assert math.isfinite(res["setup_s"]) and res["rss_mb"] > 0

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import cknstab as ck
from cknstab import _lapack, cli
from cknstab import spectrum as spec_mod
from cknstab._discrete import Band
from cknstab._oracles import solvable_gamma
from cknstab.stability import STUDY_MIN_L, STUDY_REFINE


def run_cli(args):
    """Run the CLI in a fresh interpreter, for tests about the process itself."""
    proc = subprocess.run(
        [sys.executable, "-m", "cknstab.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def test_cli_import_floor():
    """Importing the CLI loads no scipy module when numpy's OpenBLAS has the
    banded LAPACK routines, and at most scipy.linalg when it does not."""
    code = ("import sys, cknstab.cli; from cknstab import _lapack; "
            "print(_lapack._LIB is not None, *(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    openblas, *loaded = proc.stdout.split()
    if openblas == "True":
        assert loaded == []
    assert not [m for m in loaded if m in ("scipy.special", "scipy.optimize", "scipy.interpolate")
                or m.startswith("scipy.sparse")]


def test_parser_is_built_once_and_keeps_its_defaults(monkeypatch):
    seen = []

    def record(cfg):
        seen.append(cfg["mu"])
        return 0

    monkeypatch.setattr(cli, "cmd_sharpness", record)
    assert cli.main(["sharpness", "--mu", "0.01"]) == 0
    assert cli.main(["sharpness"]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert list(seen[0]) == [0.01]
    assert list(seen[1]) == list(np.geomspace(1e-3, 3e-2, 7))


def test_range_syntax():
    vals = cli._parse_values(["2.5:3.5:0.5", "4.0"])
    assert vals == [2.5, 3.0, 3.5, 4.0]
    assert cli._parse_values(["2.2:2.8:0.2"]) == [2.2, 2.4, 2.6, 2.8]
    assert cli._parse_values(["5.1:5.7:0.2"]) == [5.1, 5.3, 5.5, 5.7]


@pytest.mark.parametrize("n, p", [(3, "6.5"), (1, "4"), (0, "4")])
def test_inadmissible_pair_rejected(capsys, n, p):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--n", str(n), "--p", p])
    assert exc.value.code == 2
    assert "inadmissible" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["3:4:0", "4:3:0.5", "2.2:inf:0.1", "2.2:2.8:nan",
                                   "2.2:2.8:1e-320", "2.2:2.8:1e-6"])
def test_bad_range_rejected(capsys, token):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--n", "3", "--p", token])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gap", ["nan", "inf", "0", "-2"])
def test_bad_gap_rejected(capsys, gap):
    with pytest.raises(SystemExit) as exc:
        cli.main(["interactions", "--n", "3", "--p", "4", "--gaps", "5", gap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --gaps: must be finite and positive" in err
    assert "Traceback" not in err


def test_post_parse_check_prints_the_command_usage(capsys):
    # a check made after parsing reports like argparse's own errors do
    with pytest.raises(SystemExit) as exc:
        cli.main(["interactions", "--gaps", "nan"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: cknstab interactions")


def test_n2_sweep_cap():
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--n", "2", "--p", "13"])
    assert exc.value.code == 2


def test_empty_pair_list_is_success(tmp_path):
    out = tmp_path / "t.csv"
    assert cli.main(["constants", "--n", "--p", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    assert lines[0].startswith("n,p,E0")


def coarse_cylinders(monkeypatch):
    """Give every Cylinder the CLI builds a 129-point grid, which its spacing check refuses."""
    monkeypatch.setattr(cli, "Cylinder", lambda params, L, refine=1:
                        ck.Cylinder(params, grid=ck.Grid(S=40.0, N=129), L=L))


def test_failed_row_sets_exit_status(tmp_path, capsys, monkeypatch):
    coarse_cylinders(monkeypatch)
    out = tmp_path / "c.csv"
    assert cli.main(["constants", "--n", "3", "--p", "4", "--out", str(out)]) == 3
    assert "1 of 1 rows carry an error" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and "exceeds 0.05" in lines[1]


def test_module_entry_point_exit_status(tmp_path):
    """``python -m cknstab.cli`` passes a failed row's status 3 to the process."""
    out = tmp_path / "c.csv"
    proc = run_cli(["interactions", "--n", "3", "--p", "4", "--gaps", "600",
                    "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr == "cknstab: 1 of 1 rows carry an error\n"
    assert "ValueError: centers exceed the extensible range" in out.read_text()


def test_spectrum_rows_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        proc = run_cli(["spectrum", "--n", "3", "--p", "4", "--out", str(path)])
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [ln.split(",") for ln in a.read_text().strip().splitlines()[1:]]
    gammas = {(r[2], r[3]): float(r[4]) for r in rows}
    assert abs(gammas[("0", "0")] - 1.0) <= 1e-4
    assert abs(gammas[("0", "1")] - 3.0) <= 1e-4
    assert abs(gammas[("1", "0")] - 3.0) <= 1e-4
    assert gammas[("all", "gamma3")] > 3.0


def test_spectrum_solves_each_sector_once(tmp_path, monkeypatch):
    solve = spec_mod.eigensolve_sector
    calls = []

    def counted(cyl, ell, k=3, parities=spec_mod.PARITIES):
        calls.extend((ell, parity) for parity in parities)
        return solve(cyl, ell, k=k, parities=parities)

    monkeypatch.setattr(spec_mod, "eigensolve_sector", counted)
    out = tmp_path / "s.json"
    assert cli.main(["spectrum", "--n", "3", "--p", "4", "--format", "json",
                     "--out", str(out)]) == 0
    # the odd minimum of sector 1 is the gap level itself, so sector 2 solves
    # its even pencil alone; the rows reuse the gap's walk
    assert calls == [(0, "even"), (0, "odd"), (1, "even"), (1, "odd"), (2, "even")]
    rows = json.loads(out.read_text())["rows"]
    cyl = ck.Cylinder(ck.from_pn(4.0, 3))
    for ell, k in ((0, 3), (1, 2)):
        spec = solve(cyl, ell, k=k)
        expect = [(i, float(g), float(r))
                  for i, (g, r) in enumerate(zip(spec.eigenvalues, spec.residuals))]
        assert [(r["index"], r["gamma"], r["residual"])
                for r in rows if r["ell"] == ell] == expect


def test_spectrum_solve_count(monkeypatch):
    # 6 Lanczos runs of 20 steps took 120 solves; the walk skips the odd
    # sector-2 run, and each run stops once its pairs have converged
    solve = Band.cho_solve
    count = [0]

    def counted(self, b):
        count[0] += 1
        return solve(self, b)

    monkeypatch.setattr(Band, "cho_solve", counted)
    assert cli.main(["spectrum", "--n", "3", "--p", "4", "--out", "-"]) == 0
    assert 0 < count[0] < 100


@pytest.mark.parametrize("n, p", [(2, 2.05), (3, 2.05), (6, 2.01)])
def test_spectrum_near_p2_matches_closed_forms(tmp_path, n, p):
    # the levels crowd with spacing about p - 2 here, and a fixed 20-step
    # Lanczos left residuals above the bound on the gamma = 1 pairs
    out = tmp_path / "s.json"
    assert cli.main(["spectrum", "--n", str(n), "--p", str(p), "--format", "json",
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert all(r["error"] == "" for r in rows)
    gamma = {(r["ell"], r["index"]): r["gamma"] for r in rows}
    par = ck.from_pn(p, n)
    closed = {(0, 0): 1.0, (0, 1): p - 1.0, (1, 0): p - 1.0,
              ("all", "gamma3"): (p - 1.0) * (3.0 * p - 4.0) / p}
    for key, want in closed.items():
        ell, j = (0, 2) if key[0] == "all" else key
        assert solvable_gamma(par, ell, j) == pytest.approx(want, rel=1e-12)
        assert gamma[key] == pytest.approx(want, rel=1e-9)


def test_failed_point_warnings_stay_off_stderr():
    # the bubble's powers overflow here; the error row carries the reason
    proc = run_cli(["interactions", "--n", "5", "--p", "2.0133", "--gaps", "4",
                    "--out", "-"])
    assert proc.returncode == 3
    assert proc.stderr == "cknstab: 1 of 1 rows carry an error\n"


def test_clean_point_warnings_reach_stderr():
    code = ("import warnings; from cknstab import cli, spectrum as s; walk = s.sector_walk; "
            "s.sector_walk = lambda cyl: (warnings.warn('probe', RuntimeWarning), walk(cyl))[1]; "
            "raise SystemExit(cli.main(['spectrum', '--n', '3', '--p', '4', '--out', '-']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0
    assert "RuntimeWarning: probe" in proc.stderr
    assert "rows carry an error" not in proc.stderr


def test_constants_near_p2_rows_are_clean(tmp_path):
    # F is 1e174..1e245 here; t2**2 and ||Y||^4 overflowed before the quotient
    out = tmp_path / "c.json"
    assert cli.main(["constants", "--n", "2", "3", "4", "5", "6", "--p", "2.02",
                     "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
    for r in rows:
        assert r["error"] == ""
        assert all(np.isfinite(r[k]) and r[k] != 0.0 for k in ("E0", "F", "R_energy", "R_gamma"))
        assert r["rel_discrepancy"] <= 5e-10


def test_constants_json_meta(tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["constants", "--n", "3", "--p", "4", "--format", "json",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["command"] == "constants"
    row = doc["rows"][0]
    assert row["F"] > 0 and row["E0"] + row["F"] > 0
    assert row["grid_signature"].startswith("N=")


def test_config_file_with_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 3\np = 4.0\nformat = json\n# comment\n")
    out = tmp_path / "o.json"
    assert cli.main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["pairs"] == [[4.0, 3]]
    # explicit flag wins over the file value
    out2 = tmp_path / "o.csv"
    assert cli.main(["spectrum", "--config", str(cfgfile), "--format", "csv",
                     "--out", str(out2)]) == 0
    assert out2.read_text().startswith("n,p,ell")


@pytest.mark.parametrize("line, message", [
    ("grid_N = 129", "unrecognized arguments: --grid_N 129"),
    ("form = json", "unrecognized arguments: --form json"),
    ("format = xml", "argument --format: invalid choice: 'xml'"),
    ("n = abc", "argument --n: invalid int value: 'abc'"),
    ("seed = 1", "unrecognized arguments: --seed 1"),
    ("p = abc", "argument --p: could not convert string to float: 'abc'"),
    ("n 3", "bad config line: 'n 3\\n'"),
    ("config = other.cfg", "config files do not nest"),
    ("p = 6.5", "inadmissible pair (p, n) = (6.5, 3)"),
], ids=["unknown_key", "abbreviation", "bad_choice", "bad_int", "foreign_key", "bad_p",
        "no_equals", "nested", "inadmissible"])
def test_config_file_rejects_bad_input(tmp_path, capsys, line, message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"n = 3\np = 4.0\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_keys_are_long_flags(tmp_path, monkeypatch):
    """A key is a long flag without its dashes, and ``fmt`` means ``format``."""
    coarse_cylinders(monkeypatch)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 3\np = 4\nfmt = json\nL = 4\n")
    out = tmp_path / "o.json"
    assert cli.main(["sharpness", "--config", str(cfgfile), "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["meta"]["L"] == 4
    assert doc["rows"][0]["error"] == "ValueError: grid spacing 0.625 exceeds 0.05"


INTERACTION_KINDS = ["pair_min_exponent", "pair_balanced", "derivative",
                     "sum_residual", "gap_norm_W2"]


@pytest.mark.parametrize("argv, coarse, clean_kinds, cells", [
    (["constants"], True, [], {}),
    (["spectrum"], True, [],
     {"ell": "", "index": "", "gamma": "", "residual": "", "grid_signature": ""}),
    (["sharpness"], True, [], {"kind": "error", "mu": ""}),
    (["interactions", "--gaps", "5", "600"], False, INTERACTION_KINDS,
     {"kind": "error", "gap": ""}),
    (["sharpness", "--mu", "1e-3", "1e-3", "1e-3", "1e-3", "1e-3"], False, [],
     {"kind": "error", "mu": ""}),
], ids=["constants", "spectrum", "sharpness", "interactions", "repeated_mu"])
def test_failed_point_row(tmp_path, capsys, monkeypatch, argv, coarse, clean_kinds, cells):
    """A failing point keeps the rows it made, adds one error row, and exits 3."""
    if coarse:
        coarse_cylinders(monkeypatch)
    out = tmp_path / "f.json"
    status = cli.main([argv[0], "--n", "3", "--p", "4", *argv[1:],
                       "--format", "json", "--out", str(out)])
    assert status == 3
    rows = json.loads(out.read_text())["rows"]
    assert capsys.readouterr().err == f"cknstab: 1 of {len(rows)} rows carry an error\n"
    *clean, failed = rows
    assert [r["kind"] for r in clean] == clean_kinds
    assert all(r["error"] == "" for r in clean)
    assert failed.pop("error").startswith("ValueError: ")
    assert failed == {"n": 3, "p": 4.0, **cells}


@pytest.mark.parametrize("n, p, gap, kind", [
    ("3", "4", "400", "pair_balanced"),        # the interaction underflows to 0.0
    ("5", "2.0133", "4", "pair_min_exponent"),  # the bubble's powers overflow
])
def test_nonfinite_window_is_an_error_row(tmp_path, capsys, n, p, gap, kind):
    out = tmp_path / "w.json"
    with np.errstate(all="ignore"):
        status = cli.main(["interactions", "--n", n, "--p", p, "--gaps", gap,
                           "--format", "json", "--out", str(out)])
    assert status == 3
    [row] = json.loads(out.read_text())["rows"]
    assert row["kind"] == "error"
    assert row["error"].startswith(f"ArithmeticError: {kind} at gap ")
    assert capsys.readouterr().err == "cknstab: 1 of 1 rows carry an error\n"


def test_selftest_exits_clean(capsys):
    assert cli.main(["selftest", "--seed", "3"]) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    assert stdout.count("PASS") >= 10


@pytest.mark.parametrize("fallback", [False, True])
def test_selftest_checks_the_banded_backend(monkeypatch, fallback):
    """The LAPACK check passes on either backend and names the one in use."""
    if fallback:
        monkeypatch.setattr(_lapack, "_LIB", None)
    checks = dict(cli._selftest_checks({"seed": 3}))
    ok, detail = checks["banded_solves_vs_dense"]()
    assert ok, detail
    assert detail.endswith(f"via {_lapack.backend()}")
    assert ("fallback" in detail) == (fallback or _lapack._LIB is None)
    ok, detail = checks["lanczos_vs_dense_eigh"]()
    assert ok, detail


def test_selftest_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err
    assert "Traceback" not in err


def test_selftest_report_on_stdout_is_parseable(capsys):
    """With ``--out -`` the JSON report owns stdout; the check lines go to stderr."""
    assert cli.main(["selftest", "--seed", "3", "--format", "json", "--out", "-"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert {r["status"] for r in report["rows"]} == {"PASS"}
    assert captured.err.count("PASS") == len(report["rows"])


def test_constants_column_tracks_critical_limit(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["constants", "--n", "3", "--p", "4.0", "5.8",
                     "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    header = out.read_text().splitlines()[0].split(",")
    col = header.index("E0_over_F_plus_1")
    vals = [float(r[col]) for r in rows]
    assert vals[0] > vals[1] > 0.0


def test_sharpness_command_slopes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli(["sharpness", "--n", "3", "--p", "4", "--format", "json",
                        "--out", str(path)])
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    slopes = [r for r in doc["rows"] if r["kind"] == "slopes"][0]
    assert abs(slopes["residual"] - 3.0) <= 0.1
    assert abs(slopes["naive_residual"] - 2.0) <= 0.1


@pytest.mark.parametrize("p, refines", [
    (4.0, [STUDY_REFINE]),
    (5.98, [STUDY_REFINE, 2 * STUDY_REFINE]),  # the refine-2 defect is 1.7e-7
])
def test_sharpness_refines_once_on_a_large_corrector_defect(tmp_path, monkeypatch, p, refines):
    built = []

    def recorded(params, L, refine=1):
        built.append(refine)
        return ck.Cylinder(params, L=L, refine=refine)

    monkeypatch.setattr(cli, "Cylinder", recorded)
    out = tmp_path / "s.json"
    assert cli.main(["sharpness", "--n", "3", "--p", str(p), "--format", "json",
                     "--out", str(out)]) == 0
    assert built == refines
    [slopes] = [r for r in json.loads(out.read_text())["rows"] if r["kind"] == "slopes"]
    assert abs(slopes["residual"] - 3.0) <= 0.1
    assert abs(slopes["distance"] - 1.0) <= 0.02
    assert abs(slopes["naive_residual"] - 2.0) <= 0.1


@pytest.mark.parametrize("L", [0, 1, 2, 3, cli.L_CAP, cli.L_CAP + 1])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_sharpness_L_is_capped(tmp_path, capsys, L, source):
    """--L outside STUDY_MIN_L..L_CAP is a usage error, from the command line or a
    config file: below degree 3 the study would cut its residual's leading terms."""
    argv = ["sharpness", "--L", str(L)]
    if source == "config":
        (tmp_path / "run.cfg").write_text(f"L = {L}\n")
        argv = ["sharpness", "--config", str(tmp_path / "run.cfg")]
    if STUDY_MIN_L <= L <= cli.L_CAP:
        assert cli.resolve_config(argv)["L"] == L
        return
    with pytest.raises(SystemExit) as exc:
        cli.resolve_config(argv)
    assert exc.value.code == 2
    assert (f"argument --L: must satisfy {STUDY_MIN_L} <= L <= {cli.L_CAP}, got {L}"
            in capsys.readouterr().err)


# the flags each command takes, and a valid value for each
COMMAND_FLAGS = {
    "constants": {"--config", "--n", "--p", "--out", "--format"},
    "spectrum": {"--config", "--n", "--p", "--out", "--format"},
    "sharpness": {"--config", "--n", "--p", "--L", "--mu", "--out", "--format"},
    "interactions": {"--config", "--n", "--p", "--gaps", "--out", "--format"},
    "selftest": {"--config", "--seed", "--out", "--format"},
}
# no command takes --M (the node count is 2L + 2) or --grid-N/--grid-S (each grid
# is worked out from (p, n)), so every command refuses them
FLAG_VALUES = {"--config": "run.cfg", "--n": "3", "--p": "4", "--grid-N": "4097",
               "--grid-S": "30", "--L": "4", "--M": "32", "--mu": "0.01", "--gaps": "5",
               "--out": "o.csv", "--format": "json", "--seed": "1"}
FOREIGN_FLAGS = [(cmd, flag) for cmd, own in COMMAND_FLAGS.items()
                 for flag in FLAG_VALUES if flag not in own]


@pytest.mark.parametrize("command, flag", FOREIGN_FLAGS)
def test_command_rejects_flags_it_does_not_read(command, flag, capsys):
    # a usage error (exit 2), distinct from selftest's failed-check exit 1
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_command_takes_its_own_flags(command):
    own = sorted(COMMAND_FLAGS[command] - {"--config"})
    cfg = cli.resolve_config([command, *(tok for f in own for tok in (f, FLAG_VALUES[f]))])
    dest = {"--format": "fmt"}
    assert set(cfg) - {"command", "pairs"} == {dest.get(f, f[2:]) for f in COMMAND_FLAGS[command]}


@pytest.mark.parametrize("command, keys", [
    ("constants", {"pairs"}),
    ("spectrum", {"pairs"}),
    ("sharpness", {"pairs", "L"}),
    ("interactions", {"pairs"}),
    ("selftest", {"seed"}),
])
def test_json_meta_records_own_flags(tmp_path, monkeypatch, command, keys):
    """``meta`` holds the version, the command and the values of its own flags."""
    monkeypatch.setattr(cli, "_selftest_checks", lambda cfg: [])
    out = tmp_path / "m.json"
    pairs = ["--n", "--p"] if "pairs" in keys else []
    assert cli.main([command, *pairs, "--format", "json", "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert set(meta) == {"version", "command", *keys}
    assert meta["command"] == command
    flags = {"pairs": {"--n", "--p"}, "L": {"--L"}, "seed": {"--seed"}}
    assert all(flags[key] <= COMMAND_FLAGS[command] for key in keys)


def test_interactions_command(tmp_path):
    out = tmp_path / "i.csv"
    assert cli.main(["interactions", "--n", "3", "--p", "4", "--gaps", "5", "9",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,p,kind,gap")
    assert sum("pair_min_exponent" in ln for ln in lines) == 2
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(row["error"] == "" for row in rows)

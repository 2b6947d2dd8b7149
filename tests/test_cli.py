import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import cknstab as ck
from cknstab import cli
from cknstab import spectrum as spec_mod


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
    """Importing the CLI loads banded LAPACK, not the rest of scipy."""
    code = ("import sys, cknstab.cli; print(*(m for m in sys.modules if m in "
            "('scipy.special', 'scipy.optimize', 'scipy.interpolate') "
            "or m.startswith('scipy.sparse')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


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


@pytest.mark.parametrize("token", ["3:4:0", "4:3:0.5", "2.2:inf:0.1", "2.2:2.8:nan"])
def test_bad_range_rejected(capsys, token):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--n", "3", "--p", token])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad range" in err
    assert "Traceback" not in err


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


def test_failed_row_sets_exit_status(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli.main(["constants", "--n", "3", "--p", "4", "--grid-N", "129",
                     "--out", str(out)]) == 3
    assert "1 of 1 rows carry an error" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and "exceeds 0.05" in lines[1]


def test_module_entry_point_exit_status(tmp_path):
    """``python -m cknstab.cli`` passes a failed row's status 3 to the process."""
    out = tmp_path / "c.csv"
    proc = run_cli(["constants", "--n", "3", "--p", "4", "--grid-N", "129",
                    "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr == "cknstab: 1 of 1 rows carry an error\n"
    assert "exceeds 0.05" in out.read_text()


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

    def counted(cyl, ell, k=3):
        calls.append((ell, k))
        return solve(cyl, ell, k=k)

    monkeypatch.setattr(spec_mod, "eigensolve_sector", counted)
    out = tmp_path / "s.json"
    assert cli.main(["spectrum", "--n", "3", "--p", "4", "--format", "json",
                     "--out", str(out)]) == 0
    assert calls == [(0, 3), (1, 2), (2, 1)]  # the rows reuse the gap's walk
    rows = json.loads(out.read_text())["rows"]
    cyl = ck.Cylinder(ck.from_pn(4.0, 3))
    for ell, k in ((0, 3), (1, 2)):
        spec = solve(cyl, ell, k=k)
        expect = [(i, float(g), float(r))
                  for i, (g, r) in enumerate(zip(spec.eigenvalues, spec.residuals))]
        assert [(r["index"], r["gamma"], r["residual"])
                for r in rows if r["ell"] == ell] == expect


def test_spectrum_rejects_L0(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["spectrum", "--n", "3", "--p", "4", "--L", "0",
                     "--out", str(out)]) == 3
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 1 and len(rows[0]) == len(header) == 8
    assert rows[0][header.index("error")] == ("ValueError: angular rule needs L >= 1 "
                                              "and M >= L + 1, got L=0, M=64")


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
    ("grid_n = 129", "unrecognized arguments: --grid-n 129"),
    ("m = 32", "unrecognized arguments: --m 32"),
    ("format = xml", "argument --format: invalid choice: 'xml'"),
    ("L = abc", "argument --L: invalid int value: 'abc'"),
    ("seed = 1", "unrecognized arguments: --seed 1"),
    ("p = abc", "argument --p: could not convert string to float: 'abc'"),
    ("grid_N 129", "bad config line: 'grid_N 129\\n'"),
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


def test_config_keys_are_long_flags(tmp_path):
    """``_`` and ``-`` are interchangeable in keys, and ``fmt`` means ``format``."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 3\np = 4\nfmt = json\ngrid_N = 129\ngrid-S = 40\nM = 32\n")
    out = tmp_path / "o.json"
    assert cli.main(["constants", "--config", str(cfgfile), "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["meta"]["M"] == 32
    assert doc["rows"][0]["error"] == "ValueError: grid spacing 0.625 exceeds 0.05"


INTERACTION_KINDS = ["pair_min_exponent", "pair_balanced", "derivative",
                     "sum_residual", "gap_norm_W2"]


@pytest.mark.parametrize("argv, clean_kinds, cells", [
    (["constants", "--grid-N", "129"], [], {}),
    (["spectrum", "--L", "0"], [],
     {"ell": "", "index": "", "gamma": "", "residual": "", "grid_signature": ""}),
    (["sharpness", "--grid-N", "129"], [], {"kind": "error", "mu": ""}),
    (["interactions", "--gaps", "5", "600"], INTERACTION_KINDS, {"kind": "error", "gap": ""}),
    (["sharpness", "--mu", "1e-3", "1e-3", "1e-3", "1e-3", "1e-3"], [],
     {"kind": "error", "mu": ""}),
], ids=["constants", "spectrum", "sharpness", "interactions", "repeated_mu"])
def test_failed_point_row(tmp_path, capsys, argv, clean_kinds, cells):
    """A failing point keeps the rows it made, adds one error row, and exits 3."""
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


def test_selftest_exits_clean(capsys):
    assert cli.main(["selftest", "--seed", "3"]) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    assert stdout.count("PASS") >= 10


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


@pytest.mark.parametrize("flags", [["--L", "0"], ["--grid-N", "129"]])
def test_sharpness_uses_grid_flags(tmp_path, flags):
    out = tmp_path / "s.json"
    status = cli.main(["sharpness", "--n", "3", "--p", "4", *flags,
                       "--format", "json", "--out", str(out)])
    assert status == 3
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["error"].startswith("ValueError")


# the flags each command takes, and a valid value for each
COMMAND_FLAGS = {
    "constants": {"--config", "--n", "--p", "--grid-N", "--grid-S", "--L", "--M",
                  "--out", "--format"},
    "spectrum": {"--config", "--n", "--p", "--grid-N", "--grid-S", "--L", "--M",
                 "--out", "--format"},
    "sharpness": {"--config", "--n", "--p", "--grid-N", "--grid-S", "--L", "--M",
                  "--mu", "--out", "--format"},
    "interactions": {"--config", "--n", "--p", "--gaps", "--out", "--format"},
    "selftest": {"--config", "--seed", "--out", "--format"},
}
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
    dest = {"--grid-N": "grid_N", "--grid-S": "grid_S", "--format": "fmt"}
    assert set(cfg) - {"command", "pairs"} == {dest.get(f, f[2:]) for f in COMMAND_FLAGS[command]}


@pytest.mark.parametrize("command, keys", [
    ("constants", {"pairs", "L", "M"}),
    ("spectrum", {"pairs", "L", "M"}),
    ("sharpness", {"pairs", "L", "M"}),
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
    flags = {"pairs": {"--n", "--p"}, "L": {"--L"}, "M": {"--M"}, "seed": {"--seed"}}
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

"""Command-line driver: sweeps, tables, and machine-readable reports.

Commands
--------
constants     E0, F, and both R routes per (p, n)
spectrum      sector eigenvalues and the spectral gap per (p, n)
sharpness     log-log slope study of the degenerate family per (p, n)
interactions  pairwise interaction windows and bubble-sum residuals
selftest      quick battery over the package invariants (exit code reports)

Each command takes only the flags it reads (see ``COMMAND_FLAGS``); any
other flag is a usage error.  Output is CSV (default) or JSON; identical
flags give identical bytes.  Each line ``key = value`` of a --config file
reads as the flag ``--key value`` placed before the command line, so explicit
flags win, and a key for a flag the command does not take is a usage error.
A sweep keeps the rows of points that failed, with their ``error`` column
filled, and then exits with status 3.
``sharpness`` builds its grid at ``stability.STUDY_REFINE``, and once more at
twice that where the corrector defect exceeds ``stability.CORRECTOR_BOUND``.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings

import numpy as np

from . import _lapack
from . import cylinder as cyl_mod
from . import multibubble as mb
from . import spectrum as spec_mod
from . import stability as stab
from ._discrete import Band
from ._oracles import bubble_mass_exact, plane_bubble, sphere_moment_beta
from .cylinder import Cylinder, sphere_moment
from .operators import apply_H1, hminus1_norm, riesz_solve
from .params import bubble_profile, emden_fowler, from_pn, two_star

N2_P_CAP = 12.0  # sweep cap for n = 2, where 2* is unbounded
RANGE_CAP = 10_000  # most steps one a:b:step range may span
L_CAP = 64  # largest --L; the fields, bands and 2L + 2 angular nodes all grow with it


def _parse_values(tokens):
    """Expand 'a:b:step' range syntax, rounding each value to 12 decimals so
    that 2.2:2.8:0.2 gives 2.4, not 2.4000000000000004; plain floats pass
    through."""
    out = []
    for tok in tokens:
        if ":" in str(tok):
            a, b, step = (float(x) for x in str(tok).split(":"))
            if not (0 < step < math.inf and -math.inf < a <= b < math.inf
                    and (b - a) / step < RANGE_CAP):
                raise ValueError(f"bad range {tok!r}: need finite a <= b, step > 0 "
                                 f"and at most {RANGE_CAP} steps")
            k = int(math.floor((b - a) / step + 1e-9))
            out.extend(round(a + i * step, 12) for i in range(k + 1))
        else:
            out.append(float(tok))
    return out


# one spec per flag: its option string and add_argument keywords; the tuple
# defaults are shared by every parse, so no run can change what the next sees
FLAGS = {
    "--config": dict(help="flat key=value file; flags override"),
    "--n": dict(nargs="*", type=int, default=(3,)),
    "--p": dict(nargs="*", default=("4.0",), help="values or a:b:step ranges"),
    "--L": dict(type=int, default=cyl_mod.DEFAULT_L),
    "--mu": dict(nargs="*", type=float, default=tuple(np.geomspace(1e-3, 3e-2, 7))),
    "--gaps": dict(nargs="*", type=float, default=tuple(np.linspace(4.0, 12.0, 9)),
                   help="center gaps in units of 1/sqrt(Lambda)"),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
    "--seed": dict(type=int, default=0),
}
_OUT = ("--out", "--format")
# the flags each command reads, and no others
COMMAND_FLAGS = {
    "constants": ("--config", "--n", "--p", *_OUT),
    "spectrum": ("--config", "--n", "--p", *_OUT),
    "sharpness": ("--config", "--n", "--p", "--L", "--mu", *_OUT),
    "interactions": ("--config", "--n", "--p", "--gaps", *_OUT),
    "selftest": ("--config", "--seed", *_OUT),
}


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later call."""
    ap = argparse.ArgumentParser(prog="cknstab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        # no prefix matching, so a config key or flag must name a whole option
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(usage_error=sp.error)  # checks made after parsing print its usage
    return ap


def _config_flags(path):
    """The flags ``--key value...`` spelled by a flat ``key = value`` file."""
    flags = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, val = (x.strip() for x in line.split("=", 1))
            key = "format" if key == "fmt" else key
            if key == "config":
                raise ValueError("config files do not nest")
            flags += [f"--{key}", *val.split()]
    return flags


def resolve_config(argv=None):
    """Parse argv, with its --config file's flags ahead of it, and check the pairs.

    The file goes through the same parser as the command line, so an unknown
    key, a key for a flag the command does not take, or a bad value stops with
    a usage error, and an explicit flag, seen after the file's, wins.
    """
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    if args.config:
        try:
            flags = _config_flags(args.config)
        except (OSError, ValueError) as exc:
            args.usage_error(str(exc))
        # argv[0] is the command: the top-level parser takes nothing else
        args = ap.parse_args([args.command, *flags, *argv[1:]])
    cfg = vars(args)
    error = cfg.pop("usage_error")
    if cfg.get("seed", 0) < 0:
        error(f"argument --seed: must be non-negative, got {cfg['seed']}")
    if "L" in cfg and not stab.STUDY_MIN_L <= cfg["L"] <= L_CAP:
        error(f"argument --L: must satisfy {stab.STUDY_MIN_L} <= L <= {L_CAP}, got {cfg['L']}")
    for gap in cfg.get("gaps", ()):
        if not 0.0 < gap < math.inf:
            error(f"argument --gaps: must be finite and positive, got {gap}")
    if "p" not in cfg:
        return cfg
    try:
        cfg["p"] = _parse_values(cfg["p"])
    except ValueError as exc:
        error(f"argument --p: {exc}")
    pairs = []
    for n in cfg["n"]:
        for p in cfg["p"]:
            if n < 2 or not 2.0 < p < two_star(n):
                error(f"inadmissible pair (p, n) = ({p}, {n})")
            if n == 2 and p > N2_P_CAP:
                error(f"n = 2 sweeps are capped at p <= {N2_P_CAP}")
            pairs.append((p, n))
    cfg["pairs"] = pairs
    return cfg


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit(cfg, columns, rows, meta):
    if cfg["fmt"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(r.get(c, "")) for c in columns] for r in rows)
        text = buf.getvalue()
    else:
        text = json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
    if cfg["out"] in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(cfg["out"], "w") as fh:
            fh.write(text)


def _meta(cfg):
    """The version, the command, and the values of its pair, grid and seed flags."""
    from . import __version__

    meta = {"version": __version__, "command": cfg["command"]}
    if "pairs" in cfg:
        meta["pairs"] = [[p, n] for (p, n) in cfg["pairs"]]
    meta.update((key, cfg[key]) for key in ("L", "seed") if key in cfg)
    return meta


def _sweep(cfg, columns, point_rows, **error_cells):
    """Emit the rows ``point_rows(p, n)`` yields at every pair; return the exit status.

    A point that raises keeps the rows it yielded before and adds one row with
    ``error_cells`` and the ``error`` column filled; the sweep goes on.  The
    warnings a point raises are shown once it succeeds and dropped when it
    fails, since its error row gives the reason.  The status is 3 when any
    row carries an error (summarized on stderr), else 0.
    """
    rows = []
    for p, n in cfg["pairs"]:
        with warnings.catch_warnings(record=True) as caught:
            try:
                rows.extend(point_rows(p, n))
            except Exception as exc:  # keep the sweep alive, record the failure
                rows.append({"n": n, "p": p, **error_cells,
                             "error": f"{type(exc).__name__}: {exc}"})
                caught.clear()
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    emit(cfg, columns, rows, _meta(cfg))
    failed = sum(1 for r in rows if r["error"])
    if not failed:
        return 0
    print(f"cknstab: {failed} of {len(rows)} rows carry an error", file=sys.stderr)
    return 3


def cmd_constants(cfg):
    columns = [
        "n", "p", "E0", "F", "E0_over_F_plus_1", "R_energy", "R_gamma",
        "rel_discrepancy", "series_terms", "tail_bound", "residual_floor",
        "grid_signature", "error",
    ]

    def point_rows(p, n):
        # the constants read sectors 0 and 1 only, so the smallest angular rule will do
        cyl = Cylinder(from_pn(p, n), L=1)
        sc = stab.stability_constants(cyl)
        floor = hminus1_norm(apply_H1(cyl.bubble_field()))
        yield {
            "n": n, "p": p, "E0": sc.E0, "F": sc.F,
            "E0_over_F_plus_1": sc.E0 / sc.F + 1.0,
            "R_energy": sc.R_energy, "R_gamma": sc.R_gamma,
            "rel_discrepancy": abs(sc.R_energy - sc.R_gamma) / sc.R_gamma,
            "series_terms": sc.series_terms, "tail_bound": sc.tail_bound,
            "residual_floor": floor, "grid_signature": sc.grid_signature,
            "error": "",
        }

    return _sweep(cfg, columns, point_rows)


def cmd_spectrum(cfg):
    columns = ["n", "p", "ell", "index", "gamma", "residual", "grid_signature", "error"]

    def point_rows(p, n):
        # the walk forms each sector's band itself and reads no angular rule
        cyl = Cylinder(from_pn(p, n), L=1)
        sig = f"N={cyl.grid.N};S={cyl.grid.S:.6g}"
        g3, spectra = spec_mod.sector_walk(cyl)
        for spec in spectra[:2]:
            for i, (g, r) in enumerate(zip(spec.eigenvalues, spec.residuals)):
                yield {"n": n, "p": p, "ell": spec.ell, "index": i,
                       "gamma": float(g), "residual": float(r),
                       "grid_signature": sig, "error": ""}
        yield {"n": n, "p": p, "ell": "all", "index": "gamma3", "gamma": g3,
               "residual": 0.0, "grid_signature": sig, "error": ""}

    return _sweep(cfg, columns, point_rows, ell="", index="", gamma="",
                  residual="", grid_signature="")


def cmd_sharpness(cfg):
    columns = [
        "n", "p", "kind", "mu", "residual", "distance", "proj_norm",
        "perp_distance", "naive_residual", "ratio", "error",
    ]

    def point_rows(p, n):
        cyl = Cylinder(from_pn(p, n), L=cfg["L"], refine=stab.STUDY_REFINE)
        if stab.corrector(cyl).identity_residual_l2 > stab.CORRECTOR_BOUND:
            # the defect falls about 16x per halving of h; one rebuild, no more
            cyl = Cylinder(cyl.params, L=cyl.L, refine=2 * stab.STUDY_REFINE)
        rep = stab.sharpness_study(cyl, cfg["mu"])
        for i, mu in enumerate(rep.mus):
            yield {
                "n": n, "p": p, "kind": "sample", "mu": float(mu),
                "residual": float(rep.residuals[i]),
                "distance": float(rep.distances[i]),
                "proj_norm": float(rep.proj_norms[i]),
                "perp_distance": float(rep.perp_distances[i]),
                "naive_residual": float(rep.naive_residuals[i]),
                "ratio": float(rep.ratios[i]), "error": "",
            }
        yield {
            "n": n, "p": p, "kind": "slopes", "mu": "",
            "residual": rep.residual_slope, "distance": rep.distance_slope,
            "proj_norm": rep.proj_slope, "perp_distance": rep.perp_slope,
            "naive_residual": rep.naive_slope,
            "ratio": float(rep.ratios[-1]), "error": "",
        }

    return _sweep(cfg, columns, point_rows, kind="error", mu="")


def cmd_interactions(cfg):
    columns = ["n", "p", "kind", "gap", "value", "predicted", "ratio", "error"]

    def point_rows(p, n):
        par = from_pn(p, n)
        rl = par.sqrt_lam
        for rel_gap in cfg["gaps"]:
            gap = rel_gap / rl
            t = (-gap / 2, gap / 2)
            cyl = mb.window_cylinder(par, t)
            diag = mb.bubble_sum_residual(cyl, t)
            cells = [
                ("pair_min_exponent", mb.interaction(cyl, *t, 1.0, p - 1.0), math.exp(-rl * gap)),
                ("pair_balanced", mb.interaction(cyl, *t, p / 2.0, p / 2.0),
                 (gap + 1.0) * math.exp(-p * rl / 2.0 * gap)),
                ("derivative", mb.interaction_derivative(cyl, *t), math.exp(-rl * gap)),
                ("sum_residual", diag.residual, diag.Q),
                (f"gap_norm_W{diag.norm_index}", diag.nonlinear_gap_norm, 1.0),
            ]
            for kind, val, pred in cells:  # a gap that overflows or underflows is one error row
                if not (math.isfinite(val) and math.isfinite(pred) and pred != 0.0):
                    raise ArithmeticError(f"{kind} at gap {gap!r}: {val!r} vs {pred!r}")
            for kind, val, pred in cells:
                yield {"n": n, "p": p, "kind": kind, "gap": gap, "value": val,
                       "predicted": pred, "ratio": val / pred, "error": ""}

    return _sweep(cfg, columns, point_rows, kind="error", gap="")


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _selftest_checks(cfg):
    rng = np.random.default_rng(cfg["seed"])
    par = from_pn(4.0, 3)
    cyl = Cylinder(par)

    def curve_roundtrip():
        worst = 0.0
        for n in (2, 3, 4, 5, 6):
            cap = N2_P_CAP if n == 2 else two_star(n) - 0.05
            for p in np.linspace(2.1, cap, 10):
                worst = max(worst, max(from_pn(float(p), n).curve_residuals()))
        return worst <= 1e-12, f"max curve defect {worst:.2e}"

    def moments_vs_beta():
        worst = 0.0
        for n in (2, 3, 4, 5, 6):
            for k in range(5):
                oracle = sphere_moment_beta(n, k)
                got = sphere_moment(n, k)
                worst = max(worst, abs(got - oracle) / oracle)
        return worst <= 1e-12, f"max moment defect {worst:.2e}"

    def bubble_mass():
        exact = bubble_mass_exact(par, par.p)
        got = cyl.quad_s(cyl.bubble() ** par.p)
        return abs(got - exact) / exact <= 1e-9, f"rel err {abs(got-exact)/exact:.2e}"

    def zonal_gram():
        d = cyl.sphere.gram_defect()
        return d <= 1e-12, f"gram defect {d:.2e}"

    def random_band(N):
        """A random pentadiagonal band, diagonally dominant, so that it and its
        folds are positive definite."""
        ab = rng.uniform(-1.0, 1.0, (3, N))
        ab[2] = rng.uniform(4.5, 5.5, N)
        ab[1, 0] = ab[0, :2] = 0.0
        return Band(ab)

    def dense(band):
        u2, u1, d = band.ab
        upper = np.diag(u1[1:], 1) + np.diag(u2[2:], 2)
        return np.diag(d) + upper + upper.T

    def banded_solves():
        full = random_band(65)
        worst = 0.0
        for band in (full, full.fold("even"), full.fold("odd")):
            b = rng.standard_normal(band.n)
            x = np.linalg.solve(dense(band), b)
            for got in (band.solve(b), band.cho_solve(b)):
                worst = max(worst, float(np.max(np.abs(got - x)) / np.max(np.abs(x))))
            y = band.cho_half_solve(b)  # |U^{-T} b|^2 = b . A^{-1} b
            worst = max(worst, abs(float(y @ y) - float(b @ x)) / float(b @ x))
        return worst <= 1e-12, f"max rel err {worst:.2e} via {_lapack.backend()}"

    def lanczos_check():
        # at n = 20 the Lanczos stops with its three Ritz values converged to
        # KRYLOV_TOL, or spans R^n at 20 steps, where they are the eigenvalues
        band = random_band(20)
        b = rng.uniform(0.1, 1.0, band.n)
        got = spec_mod._lanczos(band, b, 3)[0]
        s = 1.0 / np.sqrt(b)
        want = np.linalg.eigvalsh(s[:, None] * dense(band) * s)[:3]
        err = float(np.max(np.abs(got - want) / want))
        return err <= 1e-10, f"max rel err {err:.2e}"

    def duality():
        prof = rng.standard_normal((cyl.L + 1, cyl.grid.N))
        prof *= cyl.bubble() ** 2  # decay envelope
        f = cyl.field(prof)
        w = cyl.field(rng.standard_normal((cyl.L + 1, cyl.grid.N)) * cyl.bubble())
        lhs = abs(cyl_mod.duality_pairing(f, w))
        bound = hminus1_norm(f) * cyl_mod.h1_norm(w) * (1 + 1e-8)
        phi = riesz_solve(f)
        sharp = abs(
            cyl_mod.duality_pairing(f, phi)
            - hminus1_norm(f) * cyl_mod.h1_norm(phi)
        ) <= 1e-8 * cyl_mod.duality_pairing(f, phi)
        return lhs <= bound and sharp, f"pairing {lhs:.3e} vs bound {bound:.3e}"

    def spectrum_check():
        s0 = spec_mod.eigensolve_sector(cyl, 0, k=2)
        s1 = spec_mod.eigensolve_sector(cyl, 1, k=1)
        e = max(abs(s0.eigenvalues[0] - 1.0), abs(s0.eigenvalues[1] - (par.p - 1)),
                abs(s1.eigenvalues[0] - (par.p - 1)))
        return e <= 1e-4, f"eigenvalue defect {e:.2e}"

    def residual_floor():
        r = hminus1_norm(apply_H1(cyl.bubble_field()))
        return r <= 1e-6, f"floor {r:.2e}"

    def emden_fowler_roundtrip():
        s = np.arange(-cyl.grid.S, cyl.grid.S, 0.005)
        r = np.exp(-s)
        fld = emden_fowler(r, plane_bubble(par, math.e, r), cyl)
        err = np.max(np.abs(fld.radial_profile() - bubble_profile(par, cyl.grid.s, 1.0)))
        return err <= 1e-10, f"max err {err:.2e}"

    return [
        ("curve_roundtrip", curve_roundtrip),
        ("sphere_moments_vs_beta", moments_vs_beta),
        ("bubble_mass_vs_gamma", bubble_mass),
        ("zonal_orthonormality", zonal_gram),
        ("banded_solves_vs_dense", banded_solves),
        ("lanczos_vs_dense_eigh", lanczos_check),
        ("duality_sharpness", duality),
        ("sector_spectrum", spectrum_check),
        ("bubble_residual_floor", residual_floor),
        ("emden_fowler_roundtrip", emden_fowler_roundtrip),
    ]


def cmd_selftest(cfg):
    failures = 0
    rows = []
    log = sys.stderr if cfg["out"] == "-" else sys.stdout  # keep a stdout report parseable
    for name, check in _selftest_checks(cfg):
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        failures += not ok
        rows.append({"check": name, "status": "PASS" if ok else "FAIL",
                     "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})", file=log)
    if cfg["out"] is not None:
        emit(cfg, ["check", "status", "detail"], rows, _meta(cfg))
    return 1 if failures else 0


def main(argv=None):
    cfg = resolve_config(argv)
    handler = {
        "constants": cmd_constants,
        "spectrum": cmd_spectrum,
        "sharpness": cmd_sharpness,
        "interactions": cmd_interactions,
        "selftest": cmd_selftest,
    }[cfg["command"]]
    return handler(cfg)


if __name__ == "__main__":
    raise SystemExit(main())

"""Workload definitions: seeded CLI jobs, correctness gates, reference check.

A workload is a list of ``dipolebounds`` CLI arguments.  The seed only picks
physical parameters that leave the problem size unchanged (polarizability,
resonance, photon number, source radius), so every seed does the same work.
Seeds map onto ``VARIANTS`` parameter sets (``seed % VARIANTS``); variant 0
is the unmodified preset.  Reference outputs for every variant are stored
under ``reference/``, so each run can be checked against them.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

VARIANTS = 8

# preset values; variant 0 uses exactly these
_BASE = {"chi0_nm3": 13.0, "resonance_nm": 100.0, "nsc_target": 1.0,
         "a0_nm": 35.0}

# ranges drawn for variants 1..VARIANTS-1.  All keep the drive far below the
# resonance (check_off_resonance needs resonance < lambda / 2 = 515 nm) and
# the incident light dominant on every pixel (positive mean counts at 0.05
# wavelengths, the nearest distance scanned).
_RANGES = {"chi0_nm3": (10.0, 16.0), "resonance_nm": (90.0, 110.0),
           "nsc_target": (0.5, 2.0), "a0_nm": (30.0, 40.0)}

# how far each workload's outputs may move from the reference, as a share of
# each column's largest magnitude.  crb_scan allows the documented pixel-grid
# convergence error (refinement 1 -> 2 moves the CRBs by 2e-4 at 2 lambda);
# the QFI workloads allow rounding-level changes only.
REFERENCE_TOL = {"crb_scan": 1e-3, "qfi_time": 1e-6, "size_scan": 1e-6}

# transient_photon_identity tolerance used by `dipolebounds validate`
PHOTON_IDENTITY_TOL = 1e-2

NAMES = ("crb_scan", "qfi_time", "size_scan")


def variant_params(seed: int) -> dict:
    """Physical parameters for a seed; variant 0 is the preset."""
    variant = seed % VARIANTS
    if variant == 0:
        return dict(_BASE)
    rng = random.Random(1000 + variant)
    return {key: float(f"{rng.uniform(lo, hi):.4g}")
            for key, (lo, hi) in _RANGES.items()}


def job_args(workload: str, seed: int, tiny: bool = False) -> list:
    """CLI arguments of one job, without ``--out``."""
    p = variant_params(seed)
    common = [f"scatterer.chi0_nm3={p['chi0_nm3']!r}",
              f"scatterer.resonance_nm={p['resonance_nm']!r}",
              f"pulse.nsc_target={p['nsc_target']!r}"]
    if workload == "crb_scan":
        args = ["crb-scan", "--preset", "fig2"]
        sets = common + [f"run.finite_a0_nm={p['a0_nm']!r}"]
        if tiny:
            sets += ["run.z_min_over_lambda=1", "run.z_max_over_lambda=2",
                     "run.points_per_decade=1",
                     "detector.solid_angle_over_pi=0.5"]
        else:
            # 7 distances, 0.05-2 wavelengths: 4 on the pixel-count floor,
            # 3 where pixels grow as z^2
            sets += ["run.z_min_over_lambda=0.05", "run.z_max_over_lambda=2",
                     "run.points_per_decade=4"]
    elif workload == "qfi_time":
        args = ["qfi-time", "--preset", "fig3"]
        sets = common + [f"scatterer.a0_nm={p['a0_nm']!r}"]
        if tiny:
            sets += ["run.t_min_over_tau=-0.5", "run.t_max_over_tau=0.5",
                     "run.samples_per_period=2"]
    elif workload == "size_scan":
        args = ["size-scan"]
        sets = list(common)
        if tiny:
            sets += ["run.sizes=3", "run.peak_samples=5"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for s in sets:
        args += ["--set", s]
    return args


def resolve_args(argv: list) -> tuple:
    """``(preset, overrides)`` of a job, as ``cli.resolve_config`` takes them."""
    preset = argv[argv.index("--preset") + 1] if "--preset" in argv else None
    sets = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
    return preset, sets


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def read_table(out_dir: Path) -> dict:
    """``data.csv`` as ``{column: float array}`` (header order kept)."""
    with open(out_dir / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, j] for j, name in enumerate(names)}


def output_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _gate_crb(table: dict, params: dict, out_dir: Path) -> list:
    errors = []
    far = table["z_over_lambda"] >= 1.0
    if not far.any():
        errors.append("no distance at or beyond one wavelength")
    for placement in ("fwd", "bwd", "finite"):
        for par in ("chi", "x", "y", "z"):
            crb = table[f"crb_{par}_norm_{placement}"]
            qcrb = table[f"qcrb_{par}_norm"]
            # position CRBs fall below the far-field QCRB in the near field,
            # and so does the finite-source chi CRB (0.94 x QCRB at 0.05
            # lambda); only the point-dipole chi bound holds at every distance
            rows = (np.ones_like(far) if par == "chi" and placement != "finite"
                    else far)
            if not np.all(crb[rows] >= qcrb[rows]):
                errors.append(f"crb_{par}_norm_{placement} below the QCRB")
    return errors


def _gate_qfi(table: dict, params: dict, out_dir: Path) -> list:
    errors = []
    tags = [name[len("nsc_"):] for name in table if name.startswith("nsc_")]
    if not tags:
        errors.append("no photon-number column")
    for tag in tags:
        nsc = table[f"nsc_{tag}"]
        j00 = table[f"j00_per_nm6_multipolar_{tag}"]
        # J00 chi0^2 / (4 N_sc) is unit-free once both are in the CSV units
        # (J00 per nm^6, chi0 in nm^3)
        rows = nsc > 1e-3 * nsc.max()
        ratio = j00[rows] * params["chi0_nm3"] ** 2 / (4.0 * nsc[rows])
        err = float(np.max(np.abs(ratio - 1.0))) if rows.any() else math.inf
        if not err < PHOTON_IDENTITY_TOL:
            errors.append(f"photon identity at {tag}: error {err:.3e}")
    return errors


def _gate_size(table: dict, params: dict, out_dir: Path) -> list:
    errors = []
    for name, col in table.items():
        if name.startswith("peak_") and not np.all(np.isfinite(col) & (col > 0)):
            errors.append(f"{name} not finite and positive")
    meta = json.loads((out_dir / "config.resolved.json").read_text("utf-8"))
    for key, fit in meta["_meta"]["fits"].items():
        if not math.isfinite(fit["exponent"]):
            errors.append(f"fit {key}: exponent not finite")
    return errors


_GATES = {"crb_scan": _gate_crb, "qfi_time": _gate_qfi,
          "size_scan": _gate_size}


def check_gates(workload: str, seed: int, out_dir: Path) -> list:
    """Physics gates on one job's outputs; returns the list of failures."""
    return _GATES[workload](read_table(out_dir), variant_params(seed), out_dir)


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

_MAX_REFERENCE_ROWS = 32


def reference_record(table: dict) -> dict:
    """Evenly spaced rows of an output table, for storage as a reference."""
    n = len(next(iter(table.values())))
    step = max(1, math.ceil(n / _MAX_REFERENCE_ROWS))
    rows = list(range(0, n, step))
    return {"nrows": n, "rows": rows,
            "columns": {k: [float(v[i]) for i in rows] for k, v in table.items()}}


def load_reference(workload: str, seed: int, tiny: bool) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text("utf-8"))
    return doc["tiny" if tiny else "full"].get(str(seed % VARIANTS))


def reference_deviation(table: dict, ref: dict) -> float:
    """Largest column deviation from the reference, relative to the column's
    largest reference magnitude; ``inf`` when the shape or names differ."""
    if list(table) != list(ref["columns"]):
        return math.inf
    if len(next(iter(table.values()))) != ref["nrows"]:
        return math.inf
    worst = 0.0
    for name, want in ref["columns"].items():
        want = np.asarray(want)
        got = table[name][ref["rows"]]
        scale = np.max(np.abs(want))
        dev = np.max(np.abs(got - want)) / (scale if scale > 0 else 1.0)
        if not np.isfinite(dev):
            return math.inf
        worst = max(worst, float(dev))
    return worst

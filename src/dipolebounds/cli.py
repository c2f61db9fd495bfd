"""Command-line interface: JSON config, subcommand dispatch, CSV emission.

Subcommands
-----------
``crb-scan``
    Classical bounds vs detector distance (forward, backward, finite size).
``qfi-time``
    Time-resolved quantum Fisher information, optionally at two carrier
    wavelengths on a shared femtosecond axis.
``size-scan``
    Peak transient QFI vs source radius with fitted power-law exponents.
``farfield``
    Print the closed-form long-time bounds.
``validate``
    Run the numerical-oracle battery.

All subcommands accept ``--config FILE`` (JSON), ``--preset fig2|fig3``,
repeated ``--set dotted.key=value`` overrides, and ``--out DIR``.  Exit
codes: 0 success, 1 validation failure, 2 config error, 3 physics-domain
error, 4 environment/resource error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, detector, fisher, qfi, scenarios
from .model import C_SI, PhysicsError, Pulse, Scatterer, UnitSystem
from .quadrature import SinhGrid

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_RESOURCE = 4

_TWO_PI = 2.0 * math.pi


class ConfigError(Exception):
    """Configuration problem; carries a dotted field path when known."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


# ---------------------------------------------------------------------------
# fields (default and rule), presets
# ---------------------------------------------------------------------------

def _number(gt=None, ge=None, lt=None, integer=False, nullable=False):
    """Rule for a number (only an ``int`` if ``integer``, or ``None`` if
    ``nullable``) that is ``> gt``, ``>= ge`` and ``< lt`` where given."""
    def rule(value):
        if value is None and nullable:
            return None
        if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)):
            return f"{value!r} is not {'an integer' if integer else 'a number'}"
        if gt is not None and not value > gt:
            return f"{value!r} is not > {gt}"
        if ge is not None and not value >= ge:
            return f"{value!r} is not >= {ge}"
        if lt is not None and not value < lt:
            return f"{value!r} is not < {lt}"
        return None
    return rule


def _choice(options):
    return lambda value: (None if value in options
                          else f"{value!r} is not one of {list(options)}")


def _boolean(value):
    return None if isinstance(value, bool) else f"{value!r} is not a boolean"


def _position(value):
    ok = isinstance(value, list) and len(value) == 3 and not any(map(_NUM, value))
    return None if ok else f"{value!r} is not a list of 3 numbers"


def _gauges(value):
    ok = isinstance(value, list) and value and not any(map(_GAUGE, value))
    return None if ok else f"{value!r} is not a non-empty list of {list(qfi.GAUGES)}"


_NUM = _number()
_POS = _number(gt=0)
_GAUGE = _choice(qfi.GAUGES)
_NO_DEFAULT = object()

#: section -> key -> (default, rule); a rule returns ``None`` or a reason
FIELDS = {
    "scatterer": {
        "chi0_nm3": (13.0, _POS),
        "a0_nm": (0.0, _number(ge=0)),
        "resonance_nm": (100.0, _POS),
        "position_nm": ([0.0, 0.0, 0.0], _position),
    },
    "pulse": {
        "lambda_nm": (1030.0, _POS),
        "tau_fs": (24.0, _POS),
        "phi_per_um2": (_NO_DEFAULT, _POS),
        "nsc_target": (1.0, _POS),
    },
    "detector": {
        "solid_angle_over_pi": (1.97, _number(gt=0, lt=2)),
        "refinement": (1, _number(ge=1, integer=True)),
    },
    "grid": {
        "d_over_k0": (2.5e-3, _POS),
        "delta": (3.8e-2, _POS),
        "kmax_over_k0": (1.1e3, _number(gt=1)),
    },
    "run": {
        # crb-scan
        "z_min_over_lambda": (0.02, _POS),
        "z_max_over_lambda": (10.0, _POS),
        "points_per_decade": (40, _number(ge=1, integer=True)),
        "finite_a0_nm": (35.0, _POS),
        # qfi-time
        "t_min_over_tau": (-3.0, _NUM),
        "t_max_over_tau": (5.0, _NUM),
        "samples_per_period": (8, _number(ge=2, integer=True)),
        "second_lambda_nm": (None, _number(gt=0, nullable=True)),
        "fluence_ratio": (None, _number(gt=0, nullable=True)),
        "gauges": (["multipolar"], _gauges),
        "corrections": (False, _boolean),
        "normalize": (False, _boolean),
        # size-scan
        "a0_min_over_lambda": (1.0 / 120.0, _POS),
        "a0_max_over_lambda": (1.0 / 20.0, _POS),
        "sizes": (8, _number(ge=3, integer=True)),
        "peak_samples": (65, _number(ge=5, integer=True)),
        # validate
        "level": ("quick", _choice(("quick", "full"))),
    },
}

DEFAULT_CONFIG = {
    section: {key: default for key, (default, _) in fields.items()
              if default is not _NO_DEFAULT}
    for section, fields in FIELDS.items()
}

#: each preset holds only what differs from ``DEFAULT_CONFIG``
PRESETS = {
    # Distance scan of the classical bounds with a wide planar detector:
    # the defaults.
    "fig2": {},
    # Two-color transient QFI of a finite-size scatterer.
    "fig3": {
        "scatterer": {"a0_nm": 35.0},
        "run": {"second_lambda_nm": 4500.0},
    },
}

_FLUENCE_KEYS = ("phi_per_um2", "nsc_target")

#: (lower, upper) bounds of the scan ranges in ``run``; each must ascend
_RANGES = (("z_min_over_lambda", "z_max_over_lambda"),
           ("t_min_over_tau", "t_max_over_tau"),
           ("a0_min_over_lambda", "a0_max_over_lambda"))


def _apply_layer(base: dict, layer: dict) -> dict:
    """Recursive dict merge; the fluence mode keys displace each other."""
    out = dict(base)
    for key, val in layer.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _apply_layer(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    if "pulse" in layer and isinstance(layer["pulse"], dict):
        given = [k for k in _FLUENCE_KEYS if k in layer["pulse"]]
        if len(given) == 1:
            other = _FLUENCE_KEYS[1 - _FLUENCE_KEYS.index(given[0])]
            out["pulse"].pop(other, None)
    return out


def _parse_set(expr: str) -> tuple:
    if "=" not in expr:
        raise ConfigError(f"--set expects dotted.key=value, got {expr!r}")
    key, _, raw = expr.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"--set expects dotted.key=value, got {expr!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _non_finite_paths(node, prefix: str = ""):
    """Dotted paths of the numbers in ``node`` that no finite float holds:
    ``json.loads`` reads ``Infinity`` and ``NaN``, overflows ``1e400`` to
    infinity and keeps integers of any length."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, val in items:
            yield from _non_finite_paths(val, f"{prefix}{key}.")
    elif isinstance(node, (int, float)) and not abs(node) <= sys.float_info.max:
        yield prefix[:-1]


def _field_errors(cfg: dict):
    """(dotted path, reason) of each non-finite, unknown or refused field."""
    for where in _non_finite_paths(cfg):
        yield where, "not a finite number"
    for section, body in cfg.items():
        fields = FIELDS.get(section)
        if fields is None:
            yield section, "unknown section"
        elif not isinstance(body, dict):
            yield section, f"{body!r} is not an object"
        else:
            for key, value in body.items():
                reason = fields[key][1](value) if key in fields else "unknown key"
                if reason is not None:
                    yield f"{section}.{key}", reason
    if all(key in cfg["pulse"] for key in _FLUENCE_KEYS):
        yield "pulse", "phi_per_um2 and nsc_target are given together"


def _nested(path: list, value) -> dict:
    node = value
    for part in reversed(path):
        node = {part: node}
    return node


def resolve_config(config_path: str | None, preset: str | None,
                   overrides: list | None) -> dict:
    """Merge defaults, preset, config file, and --set overrides; validate."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        cfg = _apply_layer(cfg, PRESETS[preset])
    if config_path is not None:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        text = text.strip()
        if text:
            try:
                user = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(user, dict):
                raise ConfigError("config file must contain a JSON object")
            cfg = _apply_layer(cfg, user)
    for expr in overrides or []:
        path, value = _parse_set(expr)
        cfg = _apply_layer(cfg, _nested(path, value))

    for where, reason in _field_errors(cfg):
        raise ConfigError(f"config field {where}: {reason}", path=where)
    run = cfg["run"]
    for lo, hi in _RANGES:
        if run[lo] >= run[hi]:
            where = f"run.{lo}"
            raise ConfigError(
                f"config field {where}: {run[lo]!r} must be below "
                f"run.{hi} = {run[hi]!r}", path=where)
    return cfg


# ---------------------------------------------------------------------------
# config -> internal objects
# ---------------------------------------------------------------------------

def build_physics(cfg: dict, lambda_nm: float | None = None,
                  fluence_si: float | None = None) -> tuple:
    """``(units, scatterer, pulse)`` of ``cfg`` at ``lambda_nm`` (default
    ``pulse.lambda_nm``); a ``fluence_si`` (photons per m^2) replaces the
    config's fluence."""
    units = UnitSystem.from_wavelength_nm(
        cfg["pulse"]["lambda_nm"] if lambda_nm is None else lambda_nm)
    scatterer = build_scatterer(cfg, units)
    phi = None if fluence_si is None else units.fluence_to_internal(fluence_si)
    return units, scatterer, build_pulse(cfg, units, scatterer, phi)


def build_scatterer(cfg: dict, units: UnitSystem) -> Scatterer:
    s = cfg["scatterer"]
    chi0 = units.polarizability_to_internal(s["chi0_nm3"] * 1e-27)
    a0 = units.length_to_internal(s["a0_nm"] * 1e-9)
    omega0 = units.frequency_to_internal(_TWO_PI * C_SI / (s["resonance_nm"] * 1e-9))
    r0 = tuple(units.length_to_internal(x * 1e-9) for x in s["position_nm"])
    scatterer = Scatterer(chi0=chi0, a0=a0, omega0=omega0, r0=r0)
    scatterer.check_off_resonance()
    return scatterer


def build_pulse(cfg: dict, units: UnitSystem, scatterer: Scatterer,
                phi_internal: float | None = None) -> Pulse:
    p = cfg["pulse"]
    tau = units.time_to_internal(p["tau_fs"] * 1e-15)
    if phi_internal is not None:
        phi = phi_internal
    elif "phi_per_um2" in p:
        phi = units.fluence_to_internal(p["phi_per_um2"] * 1e12)
    else:
        phi = p["nsc_target"] / scatterer.cross_section()
    return Pulse(phi=phi, tau=tau)


def build_grid(cfg: dict, arrays: int = 3) -> SinhGrid:
    """The momentum grid, refused before any ``n x n`` operator on it is
    built if ``arrays`` such float64 arrays would not fit in physical
    memory.

    The counts cover the measured tracemalloc peaks on the default
    537-node grid: 2.75 ``n^2`` for ``size-scan`` (3 arrays, the default),
    3.03 for ``qfi-time --preset fig3`` (4) and 5.18 with the covariance
    corrections (6).  A block of times adds a fixed working set to the
    ``n x n`` arrays; on 2145 nodes the two ``qfi-time`` peaks are 2.53 and
    4.52 ``n^2``.
    """
    g = cfg["grid"]
    grid = SinhGrid(d=g["d_over_k0"], delta=g["delta"],
                    k_max=g["kmax_over_k0"])
    _within_memory(arrays * 8 * grid.size**2,
                   f"momentum grid of {grid.size} nodes",
                   f"{arrays} {grid.size} x {grid.size} arrays",
                   "raise grid.delta or lower grid.kmax_over_k0")
    return grid


def _within_memory(need: int, what: str, held: str, remedy: str) -> None:
    """Raise ``MemoryError`` if ``need`` bytes exceed physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise MemoryError(
            f"{what} needs {need / 2**30:.1f} GiB for {held}, more than the "
            f"{have / 2**30:.1f} GiB of physical memory; {remedy}")


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    return v if isinstance(v, str) else format(float(v), ".17g")


def write_csv(path: Path, names: list, rows) -> None:
    """A header of ``names`` and one line per row: numbers to 17 significant
    digits, strings as they are."""
    lines = [",".join(names)]
    # Python floats format faster than numpy scalars, to the same digits
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    lines += [",".join(_format_value(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _numpy_to_json(obj):
    """``json.dumps`` hook: numpy arrays and scalars as lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_resolved_config(out_dir: Path, cfg: dict, subcommand: str,
                          extra_meta: dict | None = None) -> None:
    doc = copy.deepcopy(cfg)
    doc["_meta"] = {
        "package": "dipolebounds",
        "version": __version__,
        "subcommand": subcommand,
    }
    if extra_meta:
        doc["_meta"].update(extra_meta)
    out = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                     default=_numpy_to_json) + "\n"
    (out_dir / "config.resolved.json").write_text(out, encoding="utf-8",
                                                  newline="\n")


_PLOT_HEADER = """\
# Companion plot script (gnuplot).  Regenerate with:  gnuplot plot.script
set datafile separator ','
set key autotitle columnhead outside
set term pngcairo size 960,680
set output 'plot.png'
"""


def _plot_lines(y_columns: list, x_column: str) -> str:
    parts = [
        f"'data.csv' using (column('{x_column}')):(column('{y}')) with lines"
        for y in y_columns
    ]
    return "plot \\\n    " + ", \\\n    ".join(parts) + "\n"


def emit_outputs(out_dir: Path, cfg: dict, subcommand: str, names: list,
                 rows, plot_body: str, meta: dict | None = None) -> None:
    """Write ``data.csv`` (``names`` and ``rows``), ``config.resolved.json``
    (``meta`` joins its ``_meta``) and ``plot.script`` to ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "data.csv", names, rows)
    write_resolved_config(out_dir, cfg, subcommand, extra_meta=meta)
    (out_dir / "plot.script").write_text(_PLOT_HEADER + plot_body,
                                         encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_crb_scan(cfg: dict, out_dir: Path) -> int:
    units, scatterer, pulse = build_physics(cfg)
    run = cfg["run"]
    det = cfg["detector"]
    axis = scenarios.default_distance_axis(run["z_min_over_lambda"],
                                           run["z_max_over_lambda"],
                                           run["points_per_decade"])
    finite_a0 = units.length_to_internal(run["finite_a0_nm"] * 1e-9)
    solid_angle = det["solid_angle_over_pi"] * math.pi
    # pixels grow with distance; a mirror cell holds a center and an area
    cells = detector.cell_pixels(axis[-1] * _TWO_PI, solid_angle,
                                 det["refinement"])
    _within_memory(4 * 8 * cells, f"plate at {axis[-1]:g} wavelengths",
                   f"a mirror cell of {cells} pixels",
                   "lower run.z_max_over_lambda or detector.refinement")
    result = scenarios.crb_distance_sweep(
        scatterer, pulse,
        solid_angle=solid_angle,
        z_over_lambda=axis,
        finite_a0=finite_a0,
        refinement=det["refinement"],
    )
    ycols = [c for c in result.columns if c.startswith(("crb_", "qcrb_"))]
    body = (
        "set logscale xy\n"
        "set xlabel 'detector distance |Z| / lambda'\n"
        "set ylabel 'normalized bound sqrt(N_sc) sigma'\n"
        + _plot_lines(ycols, "z_over_lambda")
    )
    emit_outputs(out_dir, cfg, "crb-scan", result.column_names, result.table(),
                 body, result.meta)
    return EXIT_OK


def _qfi_physical_columns(sweep: scenarios.SweepResult, units: UnitSystem,
                          normalize: bool, tag: str) -> dict:
    """Re-label (and for raw output re-unit) one wavelength's QFI columns."""
    k = units.k_si
    out = {}
    for name, col in sweep.columns.items():
        if name == "nsc":
            out[f"nsc_{tag}"] = col
            continue
        entry, gauge = name.split("_", 1)
        if normalize:
            out[f"{entry}_norm_{gauge}_{tag}"] = col
        elif entry == "j00":
            out[f"{entry}_per_nm6_{gauge}_{tag}"] = col * k**6 * 1e-54
        elif entry == "j03":
            out[f"{entry}_per_nm3um_{gauge}_{tag}"] = col * k**4 * 1e-33
        else:
            out[f"{entry}_per_um2_{gauge}_{tag}"] = col * k**2 * 1e-12
    return out


def cmd_qfi_time(cfg: dict, out_dir: Path) -> int:
    run = cfg["run"]
    normalize = run["normalize"]
    lam1, lam2 = cfg["pulse"]["lambda_nm"], run["second_lambda_nm"]
    columns, meta = {}, {}
    # the first pulse fixes the fluence in SI and the femtosecond time axis,
    # which a second wavelength shares
    for i, lam in enumerate((lam1,) if lam2 is None else (lam1, lam2), 1):
        if i == 1:
            units, scat, pulse = build_physics(cfg)
            # the covariance corrections hold two n x n kernels more, and
            # their blocks' working set
            kernels = run["corrections"] and "multipolar" in run["gauges"]
            grid = build_grid(cfg, 6 if kernels else 4)
            phi1_si = units.fluence_from_internal(pulse.phi)
            times = scenarios.default_time_axis(
                pulse, run["samples_per_period"],
                (run["t_min_over_tau"], run["t_max_over_tau"]))
            t_fs = units.time_from_internal(times) * 1e15
        else:
            ratio = run["fluence_ratio"]
            ratio = lam2 / lam1 if ratio is None else ratio
            meta["fluence_ratio"] = ratio
            units, scat, pulse = build_physics(cfg, lam, ratio * phi1_si)
            times = units.time_to_internal(t_fs * 1e-15)
        sweep = scenarios.qfi_time_sweep(scat, pulse, times=times,
                                         gauges=tuple(run["gauges"]),
                                         corrections=run["corrections"],
                                         normalize=normalize, grid=grid)
        columns.update(_qfi_physical_columns(sweep, units, normalize,
                                             f"{lam:g}nm"))
        meta[f"wavelength_{i}_nm"] = lam
        meta[f"sweep_{i}"] = sweep.meta

    result = scenarios.SweepResult("t_fs", t_fs, columns, meta)
    ycols = [c for c in columns if c.startswith("j11")]
    body = (
        "set xlabel 'time (fs)'\n"
        "set ylabel 'position information J_11'\n"
        + _plot_lines(ycols, "t_fs")
    )
    emit_outputs(out_dir, cfg, "qfi-time", result.column_names, result.table(),
                 body, result.meta)
    return EXIT_OK


def cmd_size_scan(cfg: dict, out_dir: Path) -> int:
    _, scatterer, pulse = build_physics(cfg)
    run = cfg["run"]
    axis = np.geomspace(run["a0_min_over_lambda"], run["a0_max_over_lambda"],
                        run["sizes"])
    # both couplings always: the scaling contrast is the point of this scan
    result = scenarios.size_scaling_sweep(
        scatterer, pulse, a0_over_lambda=axis,
        gauges=("multipolar", "coulomb"),
        peak_samples=run["peak_samples"],
        grid=build_grid(cfg),
    )
    body = (
        "set logscale xy\n"
        "set xlabel 'source radius a0 / lambda'\n"
        "set ylabel 'peak transient information (internal units)'\n"
        + _plot_lines(list(result.columns), "a0_over_lambda")
    )
    emit_outputs(out_dir, cfg, "size-scan", result.column_names, result.table(),
                 body, result.meta)
    for key, fit in result.meta["fits"].items():
        print(f"{key}: exponent {fit['exponent']:+.3f} "
              f"(rms residual {fit['residual']:.3e}"
              f"{', outer sizes excluded' if fit['excluded_two_largest_a0'] else ''})")
    return EXIT_OK


def cmd_farfield(cfg: dict, out_dir: Path | None) -> int:
    _, scatterer, pulse = build_physics(cfg)
    consts = qfi.farfield_qcrb_constants()
    nsc = fisher.n_scattered(scatterer, pulse)
    labels = (
        "sqrt(N_sc) sigma_chi / chi0",
        "sqrt(N_sc) sigma_x / lambda",
        "sqrt(N_sc) sigma_y / lambda",
        "sqrt(N_sc) sigma_z / lambda",
    )
    print("long-time quantum bounds (normalized):")
    for label, value in zip(labels, consts):
        print(f"  {label} = {value:.6f}")
    print(f"scattered photons N_sc = {nsc:.6g}")
    if out_dir is not None:
        diag = np.diag(qfi.farfield_qfi(scatterer, pulse.phi))
        names = ["qcrb_chi_norm", "qcrb_x_norm", "qcrb_y_norm", "qcrb_z_norm",
                 "j00_internal", "j11_internal", "j22_internal", "j33_internal",
                 "n_sc"]
        emit_outputs(out_dir, cfg, "farfield", names,
                     [np.concatenate([consts, diag, [nsc]])],
                     "# single-row summary; nothing to plot\n")
    return EXIT_OK


def cmd_validate(cfg: dict, out_dir: Path | None) -> int:
    checks = scenarios.validate_suite(cfg["run"]["level"])
    for check in checks:
        print(check.line())
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if out_dir is not None:
        emit_outputs(out_dir, cfg, "validate",
                     ["name", "error", "tolerance", "passed"],
                     [(c.name, c.error, c.tolerance, int(c.passed))
                      for c in checks],
                     "# validation table; nothing to plot\n")
    return EXIT_OK if n_fail == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolebounds",
        description="Estimation bounds for light scattered by a small dipole.",
    )
    parser.add_argument("--version", action="version",
                        version=f"dipolebounds {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, needs_out in (("crb-scan", True), ("qfi-time", True),
                            ("size-scan", True), ("farfield", False),
                            ("validate", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="named parameter preset applied before the config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       dest="overrides", help="dotted config override")
        p.add_argument("--out", default=None, required=needs_out,
                       help="output directory for data.csv / config / plot")
    return parser


_DISPATCH = {
    "crb-scan": cmd_crb_scan,
    "qfi-time": cmd_qfi_time,
    "size-scan": cmd_size_scan,
    "farfield": cmd_farfield,
    "validate": cmd_validate,
}


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.preset, args.overrides)
        out_dir = Path(args.out) if args.out is not None else None
        handler = _DISPATCH[args.subcommand]
        return handler(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (OSError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

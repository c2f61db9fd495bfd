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
import sys
from pathlib import Path

import numpy as np

from . import __version__, qfi, scenarios
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
# schema, defaults, presets
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "scatterer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "chi0_nm3": _POS,
                "a0_nm": _NONNEG,
                "resonance_nm": _POS,
                "position_nm": {
                    "type": "array",
                    "items": _NUM,
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "pulse": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda_nm": _POS,
                "tau_fs": _POS,
                "phi_per_um2": _POS,
                "nsc_target": _POS,
            },
            "not": {"required": ["phi_per_um2", "nsc_target"]},
        },
        "detector": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "solid_angle_over_pi": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 2,
                },
                "refinement": {"type": "integer", "minimum": 1},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d_over_k0": _POS,
                "delta": _POS,
                "kmax_over_k0": {"type": "number", "exclusiveMinimum": 1},
            },
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # crb-scan
                "z_min_over_lambda": _POS,
                "z_max_over_lambda": _POS,
                "points_per_decade": {"type": "integer", "minimum": 1},
                "finite_a0_nm": _POS,
                # qfi-time
                "t_min_over_tau": _NUM,
                "t_max_over_tau": _NUM,
                "samples_per_period": {"type": "integer", "minimum": 2},
                "second_lambda_nm": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "fluence_ratio": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "gauges": {
                    "type": "array",
                    "items": {"enum": ["multipolar", "coulomb"]},
                    "minItems": 1,
                },
                "corrections": {"type": "boolean"},
                "normalize": {"type": "boolean"},
                # size-scan
                "a0_min_over_lambda": _POS,
                "a0_max_over_lambda": _POS,
                "sizes": {"type": "integer", "minimum": 3},
                "peak_samples": {"type": "integer", "minimum": 5},
                # validate
                "level": {"enum": ["quick", "full"]},
            },
        },
    },
}

DEFAULT_CONFIG = {
    "scatterer": {
        "chi0_nm3": 13.0,
        "a0_nm": 0.0,
        "resonance_nm": 100.0,
        "position_nm": [0.0, 0.0, 0.0],
    },
    "pulse": {
        "lambda_nm": 1030.0,
        "tau_fs": 24.0,
        "nsc_target": 1.0,
    },
    "detector": {
        "solid_angle_over_pi": 1.97,
        "refinement": 1,
    },
    "grid": {
        "d_over_k0": 2.5e-3,
        "delta": 3.8e-2,
        "kmax_over_k0": 1.1e3,
    },
    "run": {
        "z_min_over_lambda": 0.02,
        "z_max_over_lambda": 10.0,
        "points_per_decade": 40,
        "finite_a0_nm": 35.0,
        "t_min_over_tau": -3.0,
        "t_max_over_tau": 5.0,
        "samples_per_period": 8,
        "second_lambda_nm": None,
        "fluence_ratio": None,
        "gauges": ["multipolar"],
        "corrections": False,
        "normalize": False,
        "a0_min_over_lambda": 1.0 / 120.0,
        "a0_max_over_lambda": 1.0 / 20.0,
        "sizes": 8,
        "peak_samples": 65,
        "level": "quick",
    },
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


def _nested(path: list, value) -> dict:
    node = value
    for part in reversed(path):
        node = {part: node}
    return node


def resolve_config(config_path: str | None, preset: str | None,
                   overrides: list | None) -> dict:
    """Merge defaults, preset, config file, and --set overrides; validate."""
    import jsonschema

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

    where = next(_non_finite_paths(cfg), None)
    if where is not None:
        raise ConfigError(f"config field {where}: not a finite number",
                          path=where)
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field {where}: {err.message}", path=where)
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

def build_units(cfg: dict, lambda_nm: float | None = None) -> UnitSystem:
    lam = lambda_nm if lambda_nm is not None else cfg["pulse"]["lambda_nm"]
    return UnitSystem.from_wavelength_nm(lam)


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


def build_grid(cfg: dict) -> SinhGrid:
    g = cfg["grid"]
    return SinhGrid(d=g["d_over_k0"], delta=g["delta"],
                    k_max=g["kmax_over_k0"])


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------

def _format_value(v: float) -> str:
    return format(float(v), ".17g")


def write_csv(path: Path, names: list, table: np.ndarray) -> None:
    lines = [",".join(names)]
    for row in np.atleast_2d(table):
        lines.append(",".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def write_resolved_config(out_dir: Path, cfg: dict, subcommand: str,
                          extra_meta: dict | None = None) -> None:
    doc = copy.deepcopy(cfg)
    doc["_meta"] = {
        "package": "dipolebounds",
        "version": __version__,
        "subcommand": subcommand,
    }
    if extra_meta:
        doc["_meta"].update(_jsonable(extra_meta))
    out = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
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


def write_plot_script(out_dir: Path, body: str) -> None:
    (out_dir / "plot.script").write_text(_PLOT_HEADER + body, encoding="utf-8",
                                         newline="\n")


def emit_outputs(result: scenarios.SweepResult, out_dir: Path, cfg: dict,
                 subcommand: str, plot_body: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "data.csv", result.column_names, result.table())
    write_resolved_config(out_dir, cfg, subcommand, extra_meta=result.meta)
    write_plot_script(out_dir, plot_body)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_crb_scan(cfg: dict, out_dir: Path) -> int:
    units = build_units(cfg)
    scatterer = build_scatterer(cfg, units)
    pulse = build_pulse(cfg, units, scatterer)
    run = cfg["run"]
    det = cfg["detector"]
    axis = scenarios.default_distance_axis(run["z_min_over_lambda"],
                                           run["z_max_over_lambda"],
                                           run["points_per_decade"])
    finite_a0 = units.length_to_internal(run["finite_a0_nm"] * 1e-9)
    result = scenarios.crb_distance_sweep(
        scatterer, pulse,
        solid_angle=det["solid_angle_over_pi"] * math.pi,
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
    emit_outputs(result, out_dir, cfg, "crb-scan", body)
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
    lam1 = cfg["pulse"]["lambda_nm"]
    units1 = build_units(cfg, lam1)
    scat1 = build_scatterer(cfg, units1)
    pulse1 = build_pulse(cfg, units1, scat1)
    grid = build_grid(cfg)
    gauges = tuple(run["gauges"])
    normalize = run["normalize"]

    span = (run["t_min_over_tau"], run["t_max_over_tau"])
    t1 = scenarios.default_time_axis(pulse1, run["samples_per_period"], span)
    t_fs = units1.time_from_internal(t1) * 1e15

    sweep1 = scenarios.qfi_time_sweep(scat1, pulse1, times=t1, gauges=gauges,
                                      corrections=run["corrections"],
                                      normalize=normalize, grid=grid)
    tag1 = f"{lam1:g}nm"
    columns = _qfi_physical_columns(sweep1, units1, normalize, tag1)
    meta = {"wavelength_1_nm": lam1, "sweep_1": sweep1.meta}

    lam2 = run["second_lambda_nm"]
    if lam2 is not None:
        units2 = build_units(cfg, lam2)
        scat2 = build_scatterer(cfg, units2)
        ratio = run["fluence_ratio"]
        if ratio is None:
            ratio = lam2 / lam1
        phi1_si = units1.fluence_from_internal(pulse1.phi)
        phi2 = units2.fluence_to_internal(ratio * phi1_si)
        pulse2 = build_pulse(cfg, units2, scat2, phi_internal=phi2)
        t2 = units2.time_to_internal(t_fs * 1e-15)
        sweep2 = scenarios.qfi_time_sweep(scat2, pulse2, times=t2,
                                          gauges=gauges,
                                          corrections=run["corrections"],
                                          normalize=normalize, grid=grid)
        tag2 = f"{lam2:g}nm"
        columns.update(_qfi_physical_columns(sweep2, units2, normalize, tag2))
        meta["wavelength_2_nm"] = lam2
        meta["fluence_ratio"] = ratio
        meta["sweep_2"] = sweep2.meta

    result = scenarios.SweepResult("t_fs", t_fs, columns, meta)
    ycols = [c for c in columns if c.startswith("j11")]
    body = (
        "set xlabel 'time (fs)'\n"
        "set ylabel 'position information J_11'\n"
        + _plot_lines(ycols, "t_fs")
    )
    emit_outputs(result, out_dir, cfg, "qfi-time", body)
    return EXIT_OK


def cmd_size_scan(cfg: dict, out_dir: Path) -> int:
    units = build_units(cfg)
    scatterer = build_scatterer(cfg, units)
    pulse = build_pulse(cfg, units, scatterer)
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
    emit_outputs(result, out_dir, cfg, "size-scan", body)
    for key, fit in result.meta["fits"].items():
        print(f"{key}: exponent {fit['exponent']:+.3f} "
              f"(rms residual {fit['residual']:.3e}"
              f"{', outer sizes excluded' if fit['excluded_two_largest_a0'] else ''})")
    return EXIT_OK


def cmd_farfield(cfg: dict, out_dir: Path | None) -> int:
    units = build_units(cfg)
    scatterer = build_scatterer(cfg, units)
    pulse = build_pulse(cfg, units, scatterer)
    consts = qfi.farfield_qcrb_constants()
    nsc = scatterer.cross_section() * pulse.phi
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
        row = np.concatenate([consts, diag, [nsc]])
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "data.csv", names, row[None, :])
        write_resolved_config(out_dir, cfg, "farfield")
        write_plot_script(out_dir, "# single-row summary; nothing to plot\n")
    return EXIT_OK


def cmd_validate(cfg: dict, out_dir: Path | None) -> int:
    checks = scenarios.validate_suite(cfg["run"]["level"])
    for check in checks:
        print(check.line())
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["name,error,tolerance,passed"]
        for c in checks:
            lines.append(f"{c.name},{_format_value(c.error)},"
                         f"{_format_value(c.tolerance)},{int(c.passed)}")
        (out_dir / "data.csv").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8", newline="\n")
        write_resolved_config(out_dir, cfg, "validate")
        write_plot_script(out_dir, "# validation table; nothing to plot\n")
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

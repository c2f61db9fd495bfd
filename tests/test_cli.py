"""Command-line interface: config resolution, outputs, exit codes."""
import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dipolebounds
from dipolebounds import cli, scenarios
from dipolebounds.cli import (
    DEFAULT_CONFIG,
    PRESETS,
    ConfigError,
    _format_value,
    _parse_set,
    main,
    resolve_config,
)


class TestResolveConfig:
    def test_defaults_pass_validation(self):
        cfg = resolve_config(None, None, None)
        assert cfg["scatterer"]["chi0_nm3"] == 13.0
        assert cfg["pulse"]["nsc_target"] == 1.0
        assert "phi_per_um2" not in cfg["pulse"]

    def test_defaults_are_not_mutated(self):
        resolve_config(None, None, ["scatterer.chi0_nm3=99"])
        assert DEFAULT_CONFIG["scatterer"]["chi0_nm3"] == 13.0

    def test_fluence_modes_displace_each_other(self):
        cfg = resolve_config(None, None, ["pulse.phi_per_um2=5.0"])
        assert cfg["pulse"]["phi_per_um2"] == 5.0
        assert "nsc_target" not in cfg["pulse"]
        # and the explicit target wins back in a later layer
        cfg = resolve_config(None, None, ["pulse.phi_per_um2=5.0",
                                          "pulse.nsc_target=2.0"])
        assert cfg["pulse"]["nsc_target"] == 2.0
        assert "phi_per_um2" not in cfg["pulse"]

    def test_preset_then_overrides(self):
        cfg = resolve_config(None, "fig3", ["run.second_lambda_nm=3000"])
        assert cfg["scatterer"]["a0_nm"] == 35.0     # from the preset
        assert cfg["run"]["second_lambda_nm"] == 3000  # override wins

    def test_fig2_is_the_defaults(self):
        assert resolve_config(None, "fig2", None) == DEFAULT_CONFIG

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            resolve_config(None, "fig9", None)

    def test_config_file_layering(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"pulse": {"tau_fs": 48.0}}))
        cfg = resolve_config(str(f), None, None)
        assert cfg["pulse"]["tau_fs"] == 48.0
        assert cfg["pulse"]["lambda_nm"] == 1030.0  # untouched default

    def test_bad_config_files(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="cannot read"):
            resolve_config(str(missing), None, None)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            resolve_config(str(bad), None, None)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            resolve_config(str(arr), None, None)

    def test_schema_violation_carries_the_path(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(None, None, ["scatterer.chi0_nm3=-1"])
        assert "chi0_nm3" in err.value.path

    def test_level_is_schema_checked(self):
        with pytest.raises(ConfigError):
            resolve_config(None, None, ["run.level=paranoid"])


class TestParseSet:
    def test_dotted_path_and_json_value(self):
        assert _parse_set("a.b.c=3.5") == (["a", "b", "c"], 3.5)
        assert _parse_set("run.corrections=true") == (["run", "corrections"], True)
        assert _parse_set("run.level=full") == (["run", "level"], "full")
        assert _parse_set("run.gauges=[\"coulomb\"]") == (["run", "gauges"],
                                                          ["coulomb"])

    @pytest.mark.parametrize("expr", ["novalue", "=5", "  =x"])
    def test_rejects_malformed(self, expr):
        with pytest.raises(ConfigError):
            _parse_set(expr)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_round_trips(v):
    assert float(_format_value(v)) == v


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dipolebounds" in capsys.readouterr().out


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["farfield", "--set", "scatterer.chi0_nm3=-1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_physics_error_is_3(self, capsys):
        # resonance at 2000 nm sits below the 1030 nm drive: rejected
        assert main(["farfield", "--set", "scatterer.resonance_nm=2000"]) == 3
        assert "physics error" in capsys.readouterr().err

    def test_unknown_detector_key_is_2(self, capsys):
        # the planar plate is placed by the scan axis, not by a distance key
        assert main(["farfield", "--set", "detector.distance_um=5"]) == 2
        assert "distance_um" in capsys.readouterr().err

    def test_detector_type_is_2(self, capsys):
        # the plate is the only detector, so there is no type to choose
        assert main(["farfield", "--set", "detector.type=planar"]) == 2
        assert "type" in capsys.readouterr().err

    def test_half_space_solid_angle_is_2(self, tmp_path, capsys):
        # a plate covers less than a half space: 2 pi is out of range
        rc = main(["crb-scan", "--set", "detector.solid_angle_over_pi=2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "detector.solid_angle_over_pi" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where,value", [
        ("run.z_max_over_lambda", "Infinity"),
        ("scatterer.chi0_nm3", "Infinity"),
        ("pulse.tau_fs", "1e400"),
        ("run.z_min_over_lambda", "NaN"),
        ("scatterer.position_nm", "[0, NaN, 0]"),
    ])
    def test_non_finite_number_is_2(self, tmp_path, capsys, where, value):
        # json.loads reads Infinity and NaN and overflows 1e400 to infinity;
        # each must stop as a config error naming the field, from --set and
        # from --config alike
        cfg = tmp_path / "cfg.json"
        head, _, leaf = where.partition(".")
        cfg.write_text(f'{{"{head}": {{"{leaf}": {value}}}}}')
        path = where + (".1" if value.startswith("[") else "")
        for source in (["--set", f"{where}={value}"], ["--config", str(cfg)]):
            rc = main(["crb-scan", *source, "--out", str(tmp_path / "out")])
            assert rc == 2
            assert f"config field {path}: not a finite number" \
                in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,lo,hi", [
        ("crb-scan", "z_min_over_lambda=2", "z_max_over_lambda=1"),
        ("qfi-time", "t_min_over_tau=1", "t_max_over_tau=-1"),
        ("size-scan", "a0_min_over_lambda=0.05", "a0_max_over_lambda=0.01"),
    ])
    def test_inverted_range_is_2(self, tmp_path, capsys, command, lo, hi):
        rc = main([command, "--set", f"run.{lo}", "--set", f"run.{hi}",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"run.{lo.split('=')[0]}" in err
        assert not (tmp_path / "out").exists()


class TestFarfield:
    def test_prints_the_constants(self, capsys):
        assert main(["farfield"]) == 0
        out = capsys.readouterr().out
        for value in ("0.500000", "0.177941", "0.125823", "0.067255"):
            assert value in out
        assert "N_sc = 1" in out

    def test_writes_single_row_summary(self, tmp_path, capsys):
        out = tmp_path / "ff"
        assert main(["farfield", "--out", str(out)]) == 0
        capsys.readouterr()
        header, row = (out / "data.csv").read_text().strip().splitlines()
        names = header.split(",")
        assert names[:4] == ["qcrb_chi_norm", "qcrb_x_norm", "qcrb_y_norm",
                             "qcrb_z_norm"]
        assert len(names) == len(row.split(",")) == 9
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["_meta"]["subcommand"] == "farfield"
        assert (out / "plot.script").exists()


def test_validate_quick_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "12/12 checks passed" in out
    assert out.count("PASS") == 12


@pytest.mark.slow
class TestCrbScanEndToEnd:
    ARGS = ["--set", "run.z_min_over_lambda=0.5",
            "--set", "run.z_max_over_lambda=1.0",
            "--set", "run.points_per_decade=7"]

    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "scan"
        assert main(["crb-scan", *self.ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "data.csv").read_text().strip().splitlines()
        names = lines[0].split(",")
        assert names[0] == "z_over_lambda"
        assert len(names) == 18  # axis + 12 classical + 4 quantum + pixel count
        assert len(lines) == 1 + 3  # 7 points/decade over a factor 2
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert table[0, 0] == pytest.approx(0.5) and table[-1, 0] == pytest.approx(1.0)

        # the plot script references only columns that exist in the CSV
        script = (out / "plot.script").read_text()
        for token in script.split("column('")[1:]:
            assert token.split("')")[0] in names

        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["run"]["points_per_decade"] == 7
        meta = resolved["_meta"]
        assert meta["scenario"] == "crb_distance_sweep"
        # every plate of the three placements counts in full, folded or not
        cells = table[:, names.index("cells_per_axis")]
        assert meta["pixels"] == 3 * int(np.sum(cells**2))
        assert "pixels_evaluated" not in meta

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["crb-scan", *self.ARGS, "--out", str(a)]) == 0
        assert main(["crb-scan", *self.ARGS, "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()


# The solver path must run without scipy; only the validate oracles use it.
# A fresh interpreter, because other tests import scipy into this one.
_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import importlib.abc
    import sys

    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"refused: {name}")
            return None

    sys.meta_path.insert(0, RefuseScipy())
    sys.path.insert(0, sys.argv[1])
    out = sys.argv[2]
    from dipolebounds.cli import main

    runs = [
        ["farfield", "--set", "scatterer.chi0_nm3=13",
         "--set", "pulse.nsc_target=1"],
        ["crb-scan", "--set", "run.z_min_over_lambda=1",
         "--set", "run.z_max_over_lambda=2",
         "--set", "run.points_per_decade=1",
         "--set", "detector.solid_angle_over_pi=0.5", "--out", out + "/crb"],
        ["qfi-time", "--preset", "fig3", "--set", "run.t_min_over_tau=-0.5",
         "--set", "run.t_max_over_tau=0.5",
         "--set", "run.samples_per_period=2", "--out", out + "/qfi"],
        ["size-scan", "--set", "run.sizes=3", "--set", "run.peak_samples=5",
         "--out", out + "/size"],
    ]
    codes = [main(argv) for argv in runs]
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print("RESULT", codes, loaded)
""")


def test_solver_subcommands_run_without_scipy(tmp_path):
    src = str(Path(dipolebounds.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, src, str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT [0, 0, 0, 0] []", proc.stderr
    for name in ("crb", "qfi", "size"):
        assert (tmp_path / name / "data.csv").is_file()


def test_qfi_time_two_color_columns(tmp_path, capsys):
    out = tmp_path / "qt"
    rc = main(["qfi-time", "--preset", "fig3", "--out", str(out),
               "--set", "run.t_min_over_tau=-0.2",
               "--set", "run.t_max_over_tau=0.2",
               "--set", "run.samples_per_period=2"])
    assert rc == 0
    capsys.readouterr()
    names = (out / "data.csv").read_text().splitlines()[0].split(",")
    assert names[0] == "t_fs"
    # raw (unnormalized) output carries per-unit labels and wavelength tags
    for tag in ("1030nm", "4500nm"):
        assert f"j00_per_nm6_multipolar_{tag}" in names
        assert f"j11_per_um2_multipolar_{tag}" in names
        assert f"j03_per_nm3um_multipolar_{tag}" in names
        assert f"nsc_{tag}" in names
    assert len(names) == 1 + 2 * 6


def _leaf_paths(node: dict, prefix: str = "") -> set:
    paths = set()
    for key, val in node.items():
        if isinstance(val, dict):
            paths |= _leaf_paths(val, f"{prefix}{key}.")
        else:
            paths.add(f"{prefix}{key}")
    return paths


class _Recording(dict):
    """A config dict that notes the dotted path of every leaf it hands out."""

    def __init__(self, data: dict, seen: set, prefix: str = ""):
        super().__init__(data)
        self._seen = seen
        self._prefix = prefix

    def __getitem__(self, key):
        val = super().__getitem__(key)
        path = f"{self._prefix}{key}"
        if isinstance(val, dict):
            return _Recording(val, self._seen, f"{path}.")
        self._seen.add(path)
        return val


def test_every_default_key_is_read(tmp_path, monkeypatch, capsys):
    # a key that no subcommand reads is a knob that does nothing; the sweeps
    # are stubbed, so only the reads in the cmd_* layer are exercised
    def sweep(axis_name, axis_arg, meta=None):
        def stub(*args, **kwargs):
            axis = np.asarray(kwargs[axis_arg], dtype=float)
            columns = {"nsc": np.zeros(axis.size)} if axis_name == "t" else {}
            return scenarios.SweepResult(axis_name, axis, columns, meta or {})
        return stub

    monkeypatch.setattr(scenarios, "crb_distance_sweep",
                        sweep("z_over_lambda", "z_over_lambda"))
    monkeypatch.setattr(scenarios, "qfi_time_sweep", sweep("t", "times"))
    monkeypatch.setattr(scenarios, "size_scaling_sweep",
                        sweep("a0_over_lambda", "a0_over_lambda",
                              {"fits": {}}))
    monkeypatch.setattr(scenarios, "validate_suite", lambda level: [])
    monkeypatch.setattr(cli, "emit_outputs", lambda *args: None)

    seen = set()
    for preset in (None, *PRESETS):
        cfg = resolve_config(None, preset, None)
        for name, handler in cli._DISPATCH.items():
            handler(_Recording(cfg, seen), tmp_path / name)
    capsys.readouterr()
    assert _leaf_paths(DEFAULT_CONFIG) - seen == set()

"""Command-line interface: config resolution, outputs, exit codes."""
import inspect
import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dipolebounds
from dipolebounds import cli, detector, oracles, qfi, scenarios
from dipolebounds.cli import (
    DEFAULT_CONFIG,
    PRESETS,
    ConfigError,
    _parse_set,
    main,
    resolve_config,
)
from dipolebounds.model import UnitSystem


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
        # run.level is no longer a key: the schema refuses any value of it
        with pytest.raises(ConfigError):
            resolve_config(None, None, ["run.level=paranoid"])

    @pytest.mark.parametrize("override,path", [
        ("scatterer.chi0_nm3=0", "scatterer.chi0_nm3"),           # > 0
        ("scatterer.a0_nm=-0.1", "scatterer.a0_nm"),              # >= 0
        ("detector.solid_angle_over_pi=2", "detector.solid_angle_over_pi"),
        ("grid.kmax_over_k0=1", "grid.kmax_over_k0"),             # > 1
        ("detector.refinement=0", "detector.refinement"),         # int >= 1
        ("run.sizes=2", "run.sizes"),                             # int >= 3
        ("run.points_per_decade=2.5", "run.points_per_decade"),
        ("detector.refinement=true", "detector.refinement"),
        ("scatterer.a0_nm=true", "scatterer.a0_nm"),
        ("run.t_min_over_tau=\"a\"", "run.t_min_over_tau"),
        ("pulse.tau_fs=null", "pulse.tau_fs"),
        ("run.second_lambda_nm=0", "run.second_lambda_nm"),       # nullable
        ("run.fluence_ratio=\"a\"", "run.fluence_ratio"),
        ("run.corrections=1", "run.corrections"),                 # boolean
        ("run.normalize=\"yes\"", "run.normalize"),
        ("scatterer.position_nm=[1,2]", "scatterer.position_nm"),
        ("scatterer.position_nm=[1,2,3,4]", "scatterer.position_nm"),
        ("scatterer.position_nm=[1,\"a\",3]", "scatterer.position_nm"),
        ("scatterer.position_nm=[1,true,3]", "scatterer.position_nm"),
        ("scatterer.position_nm=5", "scatterer.position_nm"),
        ("run.gauges=[]", "run.gauges"),
        ("run.gauges=[\"x\"]", "run.gauges"),
        ("run.gauges=\"coulomb\"", "run.gauges"),
        ("run.gauges=[\"multipolar\",\"multipolar\"]", "run.gauges"),
        ("bogus=1", "bogus"),                                     # root key
        ("pulse.bogus=1", "pulse.bogus"),                         # section key
        ("run.level=1", "run.level"),                             # deleted key
        ("scatterer=5", "scatterer"),                             # not an object
        ("run=null", "run"),
    ])
    def test_rule_rejects_with_the_path(self, override, path):
        with pytest.raises(ConfigError) as err:
            resolve_config(None, None, [override])
        assert err.value.path == path
        assert str(err.value).startswith(f"config field {path}: ")

    @pytest.mark.parametrize("override", [
        "detector.solid_angle_over_pi=1.99",
        "scatterer.a0_nm=0",
        "grid.kmax_over_k0=1.0001",
        "detector.refinement=1",
        "run.sizes=3",
        "run.samples_per_period=2",
        "run.t_min_over_tau=-10",
        "run.second_lambda_nm=null",
        "run.fluence_ratio=0.5",
        "run.corrections=true",
        "scatterer.position_nm=[1, -2.5, 3]",
        "run.gauges=[\"coulomb\", \"multipolar\"]",
        "pulse.phi_per_um2=2",
    ])
    def test_rule_accepts_edge_values(self, override):
        path, value = _parse_set(override)
        cfg = resolve_config(None, None, [override])
        assert cfg[path[0]][path[1]] == value

    def test_both_fluence_keys_in_one_file(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"pulse": {"phi_per_um2": 1.0,
                                           "nsc_target": 1.0}}))
        with pytest.raises(ConfigError) as err:
            resolve_config(str(f), None, None)
        assert err.value.path == "pulse"


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


def _format_value(v) -> str:
    # the per-value reference for write_csv's one %-format string per row
    return v if isinstance(v, str) else format(float(v), ".17g")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_round_trips(v):
    assert float(_format_value(v)) == v


def test_csv_of_an_array_matches_the_per_value_join(tmp_path):
    # an array's rows are formatted as Python floats, byte for byte as
    # _format_value formats each numpy scalar
    rows = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072e-309],
                     [1e308, -1.7976931348623157e308, 3.0, -12345678901.0],
                     [1.0 / 3.0, 2.0**53, 1e-300, 6.02214076e23]])
    names = ["a", "b", "c", "d"]
    cli.write_csv(tmp_path / "data.csv", names, rows)
    lines = [",".join(names)] + [",".join(_format_value(v) for v in row)
                                 for row in rows]
    want = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "data.csv").read_bytes() == want
    assert want.splitlines()[1].startswith(b"-0,0,4.9406564584124654e-324,")


@given(st.floats())
def test_percent_format_matches_format_value(v):
    # write_csv formats a row with one %-format string of "%.17g" fields
    assert "%.17g" % v == _format_value(v)


def test_csv_of_mixed_rows_matches_the_per_value_join(tmp_path):
    # validate's rows: a string column, then floats and an integer flag
    rows = [("pv_analytic_log", 8.881784197001252e-16, 1e-08, 1),
            ("gauge", -0.0, 2e-2, 0),
            ("planar_solid_angle_sum", float("inf"), 5e-324, True)]
    names = ["name", "error", "tolerance", "passed"]
    cli.write_csv(tmp_path / "data.csv", names, rows)
    lines = [",".join(names)] + [",".join(_format_value(v) for v in row)
                                 for row in rows]
    want = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "data.csv").read_bytes() == want


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

    def test_singular_plate_is_3(self, tmp_path, capsys):
        # a 16-pixel plate of 1e-8 pi sr sees chi0 and z0 alike: the 2 x 2
        # block of the information matrix cancels to rounding
        rc = main(["crb-scan", "--set", "detector.solid_angle_over_pi=1e-8",
                   "--set", "run.z_min_over_lambda=1",
                   "--set", "run.z_max_over_lambda=2",
                   "--set", "run.points_per_decade=1",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "information matrix is singular" in capsys.readouterr().err
        assert not (tmp_path / "out" / "data.csv").exists()

    def test_unknown_detector_key_is_2(self, capsys):
        # the planar plate is placed by the scan axis, not by a distance key
        assert main(["farfield", "--set", "detector.distance_um=5"]) == 2
        assert "distance_um" in capsys.readouterr().err

    def test_validate_level_is_2(self, capsys):
        # one battery: there is no level to choose
        assert main(["validate", "--set", "run.level=full"]) == 2
        assert "run.level" in capsys.readouterr().err

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

    def test_oversized_qfi_grid_is_4(self, tmp_path, capsys):
        # ~272 k nodes: four n x n float64 arrays would take ~2.4 TB, so
        # the grid is refused before anything n x n is allocated
        start = time.perf_counter()
        rc = main(["qfi-time", "--set", "grid.delta=1e-4",
                   "--set", "grid.kmax_over_k0=1e6",
                   "--out", str(tmp_path / "out")])
        assert rc == 4
        assert time.perf_counter() - start < 1.0
        assert "271849 nodes" in capsys.readouterr().err
        assert not (tmp_path / "out" / "data.csv").exists()

    def test_grid_limit_is_physical_memory(self, tmp_path, monkeypatch):
        # the default 537-node grid needs 9.2 MB: refused with 4 MB of RAM
        sizes = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(cli.os, "sysconf", sizes.__getitem__)
        rc = main(["qfi-time", "--out", str(tmp_path / "out")])
        assert rc == 4
        assert not (tmp_path / "out" / "data.csv").exists()

    def test_corrected_grid_counts_its_kernels(self, tmp_path, monkeypatch):
        # 10 MB of RAM hold the default grid's four n x n arrays (9.2 MB)
        # but not the five of a corrected run (11.5 MB), which is refused
        # before its photon-number series; 12 MB hold the five
        def refuse(*args, **kwargs):
            raise AssertionError("series computed")

        sizes = {"SC_PHYS_PAGES": 2560, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(cli.os, "sysconf", sizes.__getitem__)
        with monkeypatch.context() as patch:
            patch.setattr(qfi, "nsc_series_list", refuse)
            rc = main(["qfi-time", "--set", "run.corrections=true",
                       "--out", str(tmp_path / "corrected")])
        assert rc == 4
        assert not (tmp_path / "corrected").exists()
        assert main(["qfi-time", "--out", str(tmp_path / "plain")]) == 0
        assert (tmp_path / "plain" / "data.csv").exists()
        sizes["SC_PHYS_PAGES"] = 3072
        assert main(["qfi-time", "--set", "run.corrections=true",
                     "--out", str(tmp_path / "corrected")]) == 0

    @pytest.mark.parametrize("pages,sets", [
        (2048, []), (2560, ["--set", "run.corrections=true"])])
    def test_grid_budget_covers_the_measured_peak(self, tmp_path, monkeypatch,
                                                  pages, sets):
        # 8 and 10 MB hold 3 and 4 n x n arrays (6.9 and 9.2 MB) but not
        # the 4 and 5 (9.2 and 11.5 MB) that cover the measured peaks of
        # 2.59 and 4.21 n^2
        sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(cli.os, "sysconf", sizes.__getitem__)
        rc = main(["qfi-time", *sets, "--out", str(tmp_path / "out")])
        assert rc == 4
        assert not (tmp_path / "out").exists()

    def test_oversized_plate_is_4(self, tmp_path, capsys, monkeypatch):
        # a plate at 1e9 wavelengths has an edge axis of ~1.7e11 cells, 3.8
        # TiB to build: the scan is refused before any plate is built
        def refuse(*args, **kwargs):
            raise AssertionError("plate built")

        monkeypatch.setattr(detector, "planar_grid", refuse)
        start = time.perf_counter()
        rc = main(["crb-scan", "--set", "run.z_max_over_lambda=1e9",
                   "--out", str(tmp_path / "out")])
        assert rc == 4
        assert time.perf_counter() - start < 1.0
        assert "an edge axis of 172360687528 cells" in capsys.readouterr().err
        assert not (tmp_path / "out" / "data.csv").exists()

    def test_plate_limit_is_physical_memory(self, tmp_path, monkeypatch):
        # the default scan's largest plate, at 10 wavelengths, holds an
        # edge axis of 1724 cells, 41 KB: the default scan is refused with
        # 32 KB of RAM, and that plate runs with 64 MB, less than its
        # mirror cell's 95 MB of pixel centers and areas
        sizes = {"SC_PHYS_PAGES": 8, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(cli.os, "sysconf", sizes.__getitem__)
        assert main(["crb-scan", "--out", str(tmp_path / "out")]) == 4
        assert not (tmp_path / "out" / "data.csv").exists()
        sizes["SC_PHYS_PAGES"] = 16384
        assert main(["crb-scan", "--set", "run.z_min_over_lambda=9.9",
                     "--out", str(tmp_path / "largest")]) == 0
        rows = (tmp_path / "largest" / "data.csv").read_text().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [9.9, 10.0]

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

    @pytest.mark.parametrize("command,where,value", [
        ("size-scan", "run.sizes", "3.0"),
        ("size-scan", "run.peak_samples", "5.0"),
        ("crb-scan", "detector.refinement", "2.0"),
    ])
    def test_integral_float_in_integer_field_is_2(self, tmp_path, capsys,
                                                   command, where, value):
        # an integer field takes only an int; 3.0 used to pass the check
        # and then crash the scan with a TypeError (exit 1)
        rc = main([command, "--set", f"{where}={value}",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"config field {where}: " in capsys.readouterr().err
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
    assert "15/15 checks passed" in out
    assert out.count("PASS") == 15


def test_validate_writes_one_row_per_check(tmp_path, capsys, monkeypatch,
                                           battery):
    # the battery's results, written as `validate --out` writes them
    monkeypatch.setattr(oracles, "validate_suite", lambda: battery)
    out = tmp_path / "val"
    assert main(["validate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()[:-1]
    header, *rows = (out / "data.csv").read_text().splitlines()
    assert header == "name,error,tolerance,passed"
    assert len(rows) == len(printed) == len(battery)
    for row, check in zip(rows, battery):
        name, error, tolerance, passed = row.split(",")
        assert (name, float(error), float(tolerance), passed) == \
            (check.name, check.error, check.tolerance, "1")
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["_meta"]["subcommand"] == "validate"
    # each check's seconds, keyed in the CSV's row order
    seconds = resolved["_meta"]["seconds"]
    assert list(seconds) == [row.split(",")[0] for row in rows]
    assert seconds == {c.name: c.seconds for c in battery}
    assert all(s > 0.0 for s in seconds.values())
    assert (out / "plot.script").read_text().endswith(
        "# validation table; nothing to plot\n")


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


# Every subcommand, validate's full battery included, must run without
# scipy, which only the tests use, and without jsonschema, which the
# package does not use at all.  A fresh interpreter, because other tests
# import scipy into this one.
_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import importlib.abc
    import sys

    class RefuseImports(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in ("scipy", "jsonschema"):
                raise ImportError(f"refused: {name}")
            return None

    sys.meta_path.insert(0, RefuseImports())
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
        ["validate", "--out", out + "/validate"],
    ]
    codes = [main(argv) for argv in runs]
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[0] in ("scipy", "jsonschema"))
    print("RESULT", codes, loaded)
""")


def test_solver_subcommands_run_without_scipy_or_jsonschema(tmp_path):
    src = str(Path(dipolebounds.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, src, str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT [0, 0, 0, 0, 0] []", \
        proc.stderr
    for name in ("crb", "qfi", "size", "validate"):
        assert (tmp_path / name / "data.csv").is_file()


def test_size_scan_fits_in_column_order(tmp_path, capsys):
    # config.resolved.json keeps insertion order: _meta.fits follows the
    # columns after the radius axis, as the printed fits do
    out = tmp_path / "size"
    assert main(["size-scan", "--set", "run.sizes=3",
                 "--set", "run.peak_samples=5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    columns = (out / "data.csv").read_text().splitlines()[0].split(",")[1:]
    meta = json.loads((out / "config.resolved.json").read_text())["_meta"]
    assert list(meta["fits"]) == columns
    assert [line.split(":")[0] for line in printed] == columns


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


@pytest.mark.parametrize("second,ratio", [
    (None, None), (4500.0, None), (4500.0, 0.5)])
def test_qfi_time_meta(tmp_path, capsys, second, ratio):
    # the first pulse fixes the SI fluence; a second wavelength carries
    # fluence_ratio (default lambda2 / lambda1) times it
    out = tmp_path / "qt"
    rc = main(["qfi-time", "--preset", "fig3", "--out", str(out),
               "--set", f"run.second_lambda_nm={json.dumps(second)}",
               "--set", f"run.fluence_ratio={json.dumps(ratio)}",
               "--set", "run.t_min_over_tau=-0.2",
               "--set", "run.t_max_over_tau=0.2",
               "--set", "run.samples_per_period=2"])
    assert rc == 0
    capsys.readouterr()
    meta = json.loads((out / "config.resolved.json").read_text())["_meta"]
    assert meta["wavelength_1_nm"] == 1030.0
    assert meta["sweep_1"]["scenario"] == "qfi_time_sweep"
    if second is None:
        assert not [key for key in meta if "_2" in key or "ratio" in key]
        return
    expect = 4500.0 / 1030.0 if ratio is None else ratio
    assert meta["fluence_ratio"] == pytest.approx(expect, rel=1e-15)
    assert meta["wavelength_2_nm"] == 4500.0
    phi1_si = UnitSystem.from_wavelength_nm(1030.0).fluence_from_internal(
        meta["sweep_1"]["phi_internal"])
    phi2 = UnitSystem.from_wavelength_nm(4500.0).fluence_to_internal(
        expect * phi1_si)
    assert meta["sweep_2"]["phi_internal"] == pytest.approx(phi2, rel=1e-12)


@pytest.mark.parametrize("second,code", [
    (1030.0, 2), (1030.0001, 2), (4500.0, 0), (2000.0, 0)])
def test_two_wavelengths_need_two_labels(tmp_path, monkeypatch, capsys,
                                         second, code):
    # each wavelength tags its columns f"{lambda:g}nm": a second wavelength
    # with the first's tag would write its columns over the first's, so it
    # is refused before the grid is built; fig3 and others run as before
    build_grid = cli.build_grid

    def grid(cfg, arrays=3):
        assert code == 0, "grid built for a refused run"
        return build_grid(cfg, arrays)

    monkeypatch.setattr(cli, "build_grid", grid)
    out = tmp_path / "qt"
    assert main(["qfi-time", "--preset", "fig3", "--out", str(out),
                 "--set", f"run.second_lambda_nm={second}",
                 "--set", "run.fluence_ratio=3",
                 "--set", "run.t_min_over_tau=-0.2",
                 "--set", "run.t_max_over_tau=0.2",
                 "--set", "run.samples_per_period=2"]) == code
    err = capsys.readouterr().err
    if code:
        assert "config field run.second_lambda_nm: " in err
        assert not out.exists()
        return
    names = (out / "data.csv").read_text().splitlines()[0].split(",")
    assert [n for n in names if n.startswith("nsc_")] == [
        "nsc_1030nm", f"nsc_{second:g}nm"]
    assert len(names) == 1 + 2 * 6


@pytest.mark.parametrize("sets,path", [
    (["run.fluence_ratio=3"], "run.fluence_ratio"),
    (["run.corrections=true", 'run.gauges=["coulomb"]'], "run.corrections"),
    (["run.fluence_ratio=3", "run.second_lambda_nm=4500"], None),
    (["run.corrections=true", 'run.gauges=["coulomb","multipolar"]'], None)])
def test_inputs_the_run_would_not_use_are_refused(tmp_path, monkeypatch,
                                                  capsys, sets, path):
    # a fluence ratio without a second wavelength, or corrections with no
    # multipolar gauge, would be echoed and never used: both are refused
    # before the grid is built; with a use for them the run goes ahead
    build_grid = cli.build_grid

    def grid(cfg, arrays=3):
        assert path is None, "grid built for a refused run"
        return build_grid(cfg, arrays)

    monkeypatch.setattr(cli, "build_grid", grid)
    out = tmp_path / "qt"
    argv = ["qfi-time", "--out", str(out), "--set", "run.t_min_over_tau=-0.2",
            "--set", "run.t_max_over_tau=0.2",
            "--set", "run.samples_per_period=2"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == (2 if path else 0)
    err = capsys.readouterr().err
    if path:
        assert f"config field {path}: " in err
        assert not out.exists()
    else:
        assert (out / "data.csv").is_file()


def test_two_wavelengths_build_their_operators_once(tmp_path, monkeypatch):
    # fig3's two pulses share one grid: the photon-number oracle builds one
    # operator and the QFI one set of transforms, each over both bands
    calls = {"_pole_subtraction": 0, "pv_matrix": 0}

    def counted(name):
        original = getattr(qfi, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(qfi, name, counted(name))
    assert main(["qfi-time", "--preset", "fig3", "--out", str(tmp_path),
                 "--set", "run.t_min_over_tau=-0.5",
                 "--set", "run.t_max_over_tau=0.5",
                 "--set", "run.samples_per_period=2"]) == 0
    assert calls == {"_pole_subtraction": 1, "pv_matrix": 1}


@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    """``qfi-time --preset fig3`` in full: its data table and ``_meta``."""
    out = tmp_path_factory.mktemp("fig3")
    assert main(["qfi-time", "--preset", "fig3", "--out", str(out)]) == 0
    table = np.genfromtxt(out / "data.csv", delimiter=",", names=True)
    doc = json.loads((out / "config.resolved.json").read_text())
    return table, doc


def test_fig3_pairs_its_times(fig3_run):
    # the axis is mirrored about t = 0 and the second wavelength's times
    # follow from the first's by multiplications, so both pair alike
    _, doc = fig3_run
    for i in (1, 2):
        sweep = doc["_meta"][f"sweep_{i}"]
        assert (sweep["times"], sweep["product_rows"]) == (449, 281)


def test_fig3_photon_identity(fig3_run):
    # J00 chi0^2 / (4 N_sc) = 1 on the paired axis wherever photons are
    # out: the unpaired nsc_series checks qfi_matrices' pairing
    table, doc = fig3_run
    chi0 = doc["scatterer"]["chi0_nm3"]
    for tag in ("1030nm", "4500nm"):
        nsc = table[f"nsc_{tag}"]
        j00 = table[f"j00_per_nm6_multipolar_{tag}"]
        rows = nsc > 1e-3 * nsc.max()
        assert rows.sum() > 200
        ratio = j00[rows] * chi0**2 / (4.0 * nsc[rows])
        assert np.abs(ratio - 1.0).max() <= 1e-12, tag


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


def test_the_cli_refinement_is_the_plates():
    # the one default stated twice: the plate's refinement and the CLI's
    default = inspect.signature(detector.planar_grid).parameters["refinement"]
    assert default.default == DEFAULT_CONFIG["detector"]["refinement"]


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
    monkeypatch.setattr(
        scenarios, "qfi_time_sweeps",
        lambda runs, **kwargs: [sweep("t", "times")(times=times)
                                for *_, times in runs])
    monkeypatch.setattr(scenarios, "size_scaling_sweep",
                        sweep("a0_over_lambda", "a0_over_lambda",
                              {"fits": {}}))
    monkeypatch.setattr(oracles, "validate_suite", lambda: [])
    monkeypatch.setattr(cli, "emit_outputs", lambda *args: None)

    seen = set()
    for preset in (None, *PRESETS):
        cfg = resolve_config(None, preset, None)
        for name, handler in cli._DISPATCH.items():
            handler(_Recording(cfg, seen), tmp_path / name)
    capsys.readouterr()
    assert _leaf_paths(DEFAULT_CONFIG) - seen == set()

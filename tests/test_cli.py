import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import windfleet
from windfleet import fleet, pipeline, powerflux, svgplot, validate, windgrid
from windfleet.windgrid import VARIABLES, WindGrid, grid_to_bytes, load_windgrid
from windfleet.cli import build_parser, main
from windfleet.pipeline import (CONFIG_KEYS, PipelineError, load_config_file,
                                parse_scenario, stage)
from windfleet.errors import ConfigError, DataError, InvariantError


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """One deterministic synthetic bundle shared by the CLI tests."""
    path = tmp_path_factory.mktemp("bundle")
    code = main(["synth", "--out", str(path), "--n-turbines", "10",
                 "--years", "2010:2011", "--wind", "sinusoidal:8,2,720",
                 "--hub", "80,2", "--rotor", "100,3",
                 "--efficiency", "0.3,-0.003", "--seed", "5"])
    assert code == 0
    return path


def run_report(fixture_dir, out, extra=()):
    return main(["report", "--config", str(fixture_dir / "run.conf"),
                 "--out", str(out), *extra])


@pytest.fixture
def registry_reads(monkeypatch):
    reads = []
    parse = fleet.parse_turbine_csv

    def counting(source):
        reads.append(source)
        return parse(source)

    monkeypatch.setattr(fleet, "parse_turbine_csv", counting)
    return reads


class TestSynthCommand:
    def test_bundle_files(self, fixture_dir):
        for name in ("turbines.csv", "wind.wgrd", "generation.csv",
                     "reference.csv", "run.conf"):
            assert (fixture_dir / name).is_file()

    def test_config_parses(self, fixture_dir):
        values = load_config_file(fixture_dir / "run.conf")
        assert values["start_year"] == "2010"
        assert Path(values["turbines"]).is_file()

    def test_whole_globe_box(self, tmp_path):
        """The coordinate limits themselves are inside the box's range."""
        out = tmp_path / "globe"
        assert main(["synth", "--out", str(out), "--bbox", "-180", "180", "-90", "90",
                     "--n-turbines", "3", "--years", "2010:2010"]) == 0
        assert (out / "run.conf").is_file()


class TestConvertGrid:
    def make_csv(self, path, drop_last=False, u10="3"):
        rows = ["time_index,lat,lon,u10,v10,u100,v100"]
        for t in range(2):
            for lat in (36.0, 37.0):
                for lon in (-99.0, -98.0):
                    rows.append(f"{t},{lat},{lon},{u10},4,6,8")
        if drop_last:
            rows.pop()
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        self.make_csv(csv_path)
        out = tmp_path / "grid.wgrd"
        assert main(["convert-grid", "--csv", str(csv_path), "--out", str(out),
                     "--start-time", "2010-01-01"]) == 0
        grid = load_windgrid(out)
        assert grid.n_time == 2
        assert grid.t0 == 1262304000
        assert float(grid.u10[0, 0, 0]) == 3.0

    def test_ragged_grid_exit_code(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        self.make_csv(csv_path, drop_last=True)
        code = main(["convert-grid", "--csv", str(csv_path),
                     "--out", str(tmp_path / "x.wgrd")])
        assert code == 3
        assert "ragged grid" in capsys.readouterr().err

    def test_invalid_grid_leaves_no_file(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        self.make_csv(csv_path, u10="nan")
        out = tmp_path / "x.wgrd"
        assert main(["convert-grid", "--csv", str(csv_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data: variable u10 contains non-finite")
        assert not out.exists()


class TestPinCommand:
    def test_series_csv(self, fixture_dir, tmp_path):
        out = tmp_path / "pin.csv"
        code = main(["pin", "--turbines", str(fixture_dir / "turbines.csv"),
                     "--windgrid", str(fixture_dir / "wind.wgrd"),
                     "--years", "2010:2011", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "year,value,unit"
        assert len(lines) == 3
        year, value, unit = lines[1].split(",")
        assert year == "2010" and unit == "W" and float(value) > 0


class TestReportCommand:
    def test_full_run(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_report(fixture_dir, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 2
        assert report["series"]["efficiency"]["values"] == pytest.approx(
            [0.3, 0.297], rel=1e-9)
        assert (out / "series.csv").is_file()
        assert (out / "output_power_density.svg").is_file()
        assert not (out / ".staging").exists()

    def test_worker_counts_byte_identical(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run_report(fixture_dir, out1, ["--workers", "1"]) == 0
        assert run_report(fixture_dir, out2, ["--workers", "2"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_pooled_worker_counts_byte_identical(self, tmp_path):
        bundle = tmp_path / "pooled"  # three 64-turbine chunks, so workers > 1 fork a pool
        assert main(["synth", "--out", str(bundle), "--n-turbines", "130",
                     "--years", "2010:2011", "--wind", "noise:7,3", "--seed", "9"]) == 0
        outs = {}
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            assert main(["report", "--config", str(bundle / "run.conf"),
                         "--out", str(out), "--workers", str(workers)]) == 0
            outs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outs[1] == outs[2] == outs[4]

    def test_repeated_runs_reproducible(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_report(fixture_dir, out1) == 0
        assert run_report(fixture_dir, out2) == 0
        for p in out1.iterdir():
            assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name

    def test_every_figure_has_data_csv(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert run_report(fixture_dir, out) == 0
        # plots are views: each chart's numbers live in one of the CSV tables
        data_for = {
            "output_power_density.svg": "series.csv",
            "driving_factors.svg": "decomposition.csv",
            "efficiency.svg": "series.csv",
            "additive_effects.svg": "decomposition.csv",
            "waterfall.svg": "waterfall.csv",
            "efficiency_vs_density.svg": "monthly.csv",
            "capacity_factors.svg": "series.csv",
            "missingness.svg": "missingness.csv",
            "relative_difference.svg": "relative_difference.csv",
        }
        svgs = {p.name for p in out.iterdir() if p.suffix == ".svg"}
        assert svgs == set(data_for)
        for csv_name in data_for.values():
            assert (out / csv_name).is_file(), csv_name

    def test_no_reference_draws_placeholder(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_report(fixture_dir, out, ["--reference", ""]) == 0
        assert capsys.readouterr().out == f"wrote {len(list(out.iterdir()))} files to {out}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["inputs"]["reference"] is None
        assert report["validation"]["relative_capacity_difference_pct"] == {}
        assert not (out / "relative_difference.csv").exists()
        assert (out / "relative_difference.svg").read_text(encoding="utf-8") == \
            svgplot.placeholder("Capacity: registry vs reference")

    def test_missing_windgrid_path(self, fixture_dir, tmp_path, capsys):
        code = main(["report", "--config", str(fixture_dir / "run.conf"),
                     "--windgrid", str(tmp_path / "nowhere.wgrd"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("windgrid: file not found")

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("frobnicate = 1\n")
        code = main(["report", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_corrupt_data_exit_code(self, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("turbines.csv", "generation.csv", "reference.csv"):
            (bad / name).write_bytes((fixture_dir / name).read_bytes())
        (bad / "wind.wgrd").write_bytes(b"XXXX" + (fixture_dir / "wind.wgrd").read_bytes()[4:])
        (bad / "run.conf").write_text((fixture_dir / "run.conf").read_text())
        code = main(["report", "--config", str(bad / "run.conf"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "windgrid:" in capsys.readouterr().err

    def test_nan_nowhere_read_fails_before_bundle(self, fixture_dir, tmp_path, capsys):
        # one more stamp after the study years and one more longitude east
        # of every turbine; the NaN sits at that stamp and node, which the
        # pass never reads
        grid = load_windgrid(fixture_dir / "wind.wgrd")
        wider = {}
        for var in VARIABLES:
            x = grid.variable(var)
            x = np.concatenate([x, x[-1:]], axis=0)
            wider[var] = np.concatenate([x, x[:, :, -1:]], axis=2)
        wider_grid = WindGrid(lons=np.append(grid.lons, grid.lons[-1] + 1.0), lats=grid.lats,
                              t0=grid.t0, step=grid.step, **wider)
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("turbines.csv", "generation.csv", "reference.csv", "run.conf"):
            (bad / name).write_bytes((fixture_dir / name).read_bytes())
        data = grid_to_bytes(wider_grid)
        (bad / "wind.wgrd").write_bytes(data[:-4] + struct.pack("<f", math.nan))
        out = tmp_path / "o"
        code = main(["report", "--config", str(bad / "run.conf"), "--out", str(out)])
        assert code == 3
        assert "variable v100 contains non-finite values" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_failed_run_leaves_no_partial_bundle(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        code = run_report(fixture_dir, out, ["--base-year", "2031"])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_one_year_study_rejected_before_compute(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_report(fixture_dir, out, ["--start-year", "2011", "--end-year", "2011",
                                             "--base-year", "2011"])
        assert code == 2
        assert "at least two years" in capsys.readouterr().err
        assert not out.exists()

    def test_study_year_without_turbines_fails_before_grid(self, fixture_dir, tmp_path,
                                                           monkeypatch, capsys):
        header, *rows = [row.split(",") for row in
                         (fixture_dir / "turbines.csv").read_text().splitlines()]
        year = header.index("p_year")
        exclusions = tmp_path / "exclusions.txt"
        exclusions.write_text("".join(row[0] + "\n" for row in rows if row[year] == "2010"))
        calls = []
        for module, name in ((windgrid, "load_windgrid"), (powerflux, "_chunk_cube_sums")):
            monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
        out = tmp_path / "out"
        assert run_report(fixture_dir, out, ["--exclusions", str(exclusions)]) == 3
        assert capsys.readouterr().err == "fleet: no operating turbines in 2010\n"
        assert calls == []
        assert not out.exists()

    def test_one_kernel_pass_per_report(self, fixture_dir, tmp_path, monkeypatch):
        chunks = []  # (result array, turbine-hours) of every chunk evaluated
        chunk_cube_sums = powerflux._chunk_cube_sums

        def counting(grid, bounds, nodes, weights, shear, sums, columns):
            chunks.append((sums, len(weights) * int(bounds[-1] - bounds[0])))
            return chunk_cube_sums(grid, bounds, nodes, weights, shear, sums, columns)

        monkeypatch.setattr(powerflux, "_chunk_cube_sums", counting)
        assert run_report(fixture_dir, tmp_path / "out", ["--workers", "2"]) == 0
        assert chunks and all(sums is chunks[0][0] for sums, _ in chunks)  # one pass
        assert sum(hours for _, hours in chunks) == 10 * 17520  # every turbine-hour, once

    def test_calm_hours_count_turbine_hours_once(self, tmp_path):
        bundle = tmp_path / "calm"
        assert main(["synth", "--out", str(bundle), "--n-turbines", "10",
                     "--years", "2010:2011", "--wind", "constant:0,8"]) == 0
        out = tmp_path / "out"
        assert main(["report", "--config", str(bundle / "run.conf"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["events"]["calm_hours"] == 10 * 17520

    def test_pre_2010_years_flagged_low_confidence(self, tmp_path):
        bundle = tmp_path / "old"
        assert main(["synth", "--out", str(bundle), "--n-turbines", "6",
                     "--years", "2008:2010", "--seed", "2"]) == 0
        out = tmp_path / "out"
        assert main(["report", "--config", str(bundle / "run.conf"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["validation"]["low_confidence_years"] == [2008, 2009]


class TestDecomposeTrendsSubcommands:
    def write_series(self, path, values, unit="W", start=2010):
        rows = ["year,value,unit"] + [f"{start + i},{v},{unit}"
                                      for i, v in enumerate(values)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def test_decompose(self, tmp_path):
        self.write_series(tmp_path / "n.csv", [2, 4], "count")
        self.write_series(tmp_path / "area.csv", [200, 400], "m²")
        self.write_series(tmp_path / "pin.csv", [1000, 2200])
        self.write_series(tmp_path / "pout.csv", [100, 230])
        out = tmp_path / "dec.json"
        code = main(["decompose", "--n", str(tmp_path / "n.csv"),
                     "--area", str(tmp_path / "area.csv"),
                     "--pin", str(tmp_path / "pin.csv"),
                     "--pout", str(tmp_path / "pout.csv"), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["factors"]["n"]["values"] == [2.0, 4.0]
        assert payload["factors"]["area_per_turbine"]["values"] == [100.0, 100.0]
        assert payload["indexed_factors"]["n"]["values"] == [100.0, 200.0]

    def test_decompose_writes_report_decomposition(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert run_report(fixture_dir, out) == 0
        report = json.loads((out / "report.json").read_text())
        args = []
        for flag, key in (("--n", "n"), ("--area", "area_m2"), ("--pin", "p_in_w"),
                          ("--pout", "p_out_w"), ("--pin-avg", "p_in_avg_w"),
                          ("--pin-ref-avg", "p_in_ref_avg_w")):
            series = report["series"][key]
            path = tmp_path / f"{key}.csv"
            path.write_text("year,value,unit\n" + "".join(
                f"{series['start_year'] + i},{v!r},{series['unit']}\n"
                for i, v in enumerate(series["values"])), encoding="utf-8")
            args += [flag, str(path)]
        dec = tmp_path / "dec.json"
        assert main(["decompose", *args, "--out", str(dec)]) == 0
        assert json.loads(dec.read_text()) == report["decomposition"]

    @pytest.mark.parametrize("base_year", ["0", "1999"])
    def test_decompose_base_year_outside_series_is_data_error(self, tmp_path, capsys,
                                                               base_year):
        args = []
        for flag, values in (("--n", [2, 4, 6]), ("--area", [200, 400, 600]),
                             ("--pin", [1000, 2200, 3000]), ("--pout", [100, 230, 290])):
            path = tmp_path / f"{flag.strip('-')}.csv"
            self.write_series(path, values)
            args += [flag, str(path)]
        out = tmp_path / "dec.json"
        assert main(["decompose", *args, "--base-year", base_year, "--out", str(out)]) == 3
        assert (capsys.readouterr().err
                == f"decomp: year {base_year} outside series 2010..2012\n")
        assert not out.exists()

    @pytest.mark.parametrize("given", ["--pin-avg", "--pin-ref-avg"])
    def test_decompose_one_additive_input_is_config_error(self, tmp_path, capsys, given):
        args = []
        for flag, values in (("--n", [2, 4]), ("--area", [200, 400]),
                             ("--pin", [1000, 2200]), ("--pout", [100, 230]),
                             (given, [900, 2000])):
            path = tmp_path / f"{flag.strip('-')}.csv"
            self.write_series(path, values)
            args += [flag, str(path)]
        out = tmp_path / "dec.json"
        assert main(["decompose", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config: ") and "--pin-avg" in err and "--pin-ref-avg" in err
        assert not out.exists()

    def test_trends_series(self, tmp_path):
        self.write_series(tmp_path / "s.csv", [1.0, 2.0, 3.0])
        out = tmp_path / "fit.json"
        assert main(["trends", "--series", str(tmp_path / "s.csv"),
                     "--out", str(out)]) == 0
        fit = json.loads(out.read_text())["trend"]
        assert fit["slope"] == pytest.approx(1.0)

    def test_trends_counterfactual(self, tmp_path):
        self.write_series(tmp_path / "e.csv", [0.3, 0.28, 0.31, 0.29], "dimensionless")
        self.write_series(tmp_path / "d.csv", [400, 420, 390, 410], "W/m²")
        out = tmp_path / "cf.json"
        out_csv = tmp_path / "cf.csv"
        assert main(["trends", "--efficiency", str(tmp_path / "e.csv"),
                     "--density", str(tmp_path / "d.csv"),
                     "--out", str(out), "--out-csv", str(out_csv)]) == 0
        assert "counterfactual" in json.loads(out.read_text())
        assert out_csv.read_text().startswith("year,value,unit")

    def test_trends_needs_inputs(self, tmp_path, capsys):
        assert main(["trends", "--out", str(tmp_path / "x.json")]) == 2

    def test_trends_series_overflow_is_data_error(self, tmp_path, capsys):
        """Deviations of ~1e200 square past the float range."""
        self.write_series(tmp_path / "s.csv", [1e200, 3e200, 2e200])
        out = tmp_path / "fit.json"
        assert main(["trends", "--series", str(tmp_path / "s.csv"), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data: a trend sum overflows the float range\n"
        assert not out.exists()

    def test_trends_counterfactual_overflow_is_data_error(self, tmp_path, capsys):
        self.write_series(tmp_path / "e.csv", [1e300, -1e300, 1e300], "dimensionless")
        self.write_series(tmp_path / "d.csv", [1e-300, 2e-300, 3e300], "W/m²")
        out = tmp_path / "cf.json"
        assert main(["trends", "--efficiency", str(tmp_path / "e.csv"),
                     "--density", str(tmp_path / "d.csv"), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data: a trend sum overflows the float range\n"
        assert not out.exists()

    def test_decompose_underflowed_density_is_data_error(self, tmp_path, capsys):
        """P_in/A = 1e-300/1e300 underflows to 0: extreme input, not a broken
        identity (exit 4)."""
        args = []
        for flag, values, unit in (("--n", [1e300, 1e300], "count"),
                                   ("--area", [1e300, 1e300], "m²"),
                                   ("--pin", [1e-300, 1e-300], "W"),
                                   ("--pout", [1e-300, 1e-300], "W")):
            path = tmp_path / f"{flag.strip('-')}.csv"
            self.write_series(path, values, unit)
            args += [flag, str(path)]
        out = tmp_path / "dec.json"
        assert main(["decompose", *args, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "decomp: input density 0.0 outside the normal float range, year 2010\n")
        assert not out.exists()


class TestValidateSubcommand:
    def test_tables(self, fixture_dir, tmp_path):
        out = tmp_path / "val"
        code = main(["validate", "--turbines", str(fixture_dir / "turbines.csv"),
                     "--years", "2010:2011",
                     "--reference", str(fixture_dir / "reference.csv"),
                     "--out", str(out)])
        assert code == 0
        scen = (out / "scenarios.csv").read_text().strip().splitlines()
        assert scen[0] == "scenario,year,capacity_mw"
        assert len(scen) > 1
        rel = (out / "relative_difference.csv").read_text().strip().splitlines()
        # the synthetic reference equals the default-scenario capacity
        default_rows = [r for r in rel[1:] if r.startswith("default,")]
        assert default_rows
        for row in default_rows:
            assert abs(float(row.split(",")[2])) < 1e-9
        assert (out / "missingness.csv").is_file()

    def validate_args(self, fixture_dir, out, *extra):
        return ["validate", "--turbines", str(fixture_dir / "turbines.csv"),
                "--years", "2010:2011", "--out", str(out), *extra]

    def test_bad_scenario_fails_before_registry(self, fixture_dir, tmp_path,
                                                registry_reads):
        out = tmp_path / "val"
        code = main(self.validate_args(
            fixture_dir, out, "--reference", str(fixture_dir / "reference.csv"),
            "--scenarios", "default,lifetime-zero"))
        assert code == 2
        assert registry_reads == []
        assert not out.exists()

    def test_reference_outside_study_fails_before_registry(self, fixture_dir, tmp_path,
                                                           registry_reads):
        reference = tmp_path / "old_reference.csv"
        reference.write_text("year,installed_capacity_mw,generation_gwh\n"
                             "1999,100.0,\n2000,120.0,\n", encoding="utf-8")
        out = tmp_path / "val"
        code = main(self.validate_args(fixture_dir, out, "--reference", str(reference)))
        assert code == 3
        assert registry_reads == []
        assert not out.exists()

    def test_missing_reference_is_config_error(self, fixture_dir, tmp_path, capsys,
                                               registry_reads):
        out = tmp_path / "val"
        missing = tmp_path / "nowhere.csv"
        assert main(self.validate_args(fixture_dir, out, "--reference", str(missing))) == 2
        assert capsys.readouterr().err.startswith(f"reference: file not found: {missing}")
        assert registry_reads == []
        assert not out.exists()

    def test_each_scenario_computed_once(self, fixture_dir, tmp_path, monkeypatch):
        calls = []
        scenario_capacity = validate.scenario_capacity

        def counting(fleet_, years, spec):
            calls.append(spec)
            return scenario_capacity(fleet_, years, spec)

        monkeypatch.setattr(validate, "scenario_capacity", counting)
        labels = ["default", "drop-flagged", "lifetime-15", "lifetime-20"]
        assert main(self.validate_args(
            fixture_dir, tmp_path / "val", "--reference", str(fixture_dir / "reference.csv"),
            "--scenarios", ",".join(labels))) == 0
        assert calls == [parse_scenario(label) for label in labels]
        rows = (tmp_path / "val" / "relative_difference.csv").read_text().splitlines()[1:]
        assert sorted({row.split(",")[0] for row in rows}) == sorted(labels)

        calls.clear()
        assert run_report(fixture_dir, tmp_path / "out",
                          ["--scenarios", ",".join(labels)]) == 0
        assert calls == [parse_scenario(label) for label in labels]

    def test_tables_identical_to_report_bundle(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert run_report(fixture_dir, out) == 0
        val = tmp_path / "val"
        assert main(self.validate_args(
            fixture_dir, val, "--reference", str(fixture_dir / "reference.csv"))) == 0
        names = ("scenarios.csv", "missingness.csv", "relative_difference.csv")
        assert sorted(p.name for p in val.iterdir()) == sorted(names)
        for name in names:
            assert (val / name).read_bytes() == (out / name).read_bytes(), name


    def test_negative_reference_value_is_data_error(self, fixture_dir, tmp_path, capsys,
                                                    registry_reads):
        reference = tmp_path / "negative_reference.csv"
        reference.write_text("year,installed_capacity_mw,generation_gwh\n"
                             "2010,100.0,\n2011,-5,\n", encoding="utf-8")
        out = tmp_path / "val"
        assert main(self.validate_args(fixture_dir, out, "--reference", str(reference))) == 3
        assert capsys.readouterr().err == "reference: negative capacity, row 2\n"
        assert registry_reads == []
        assert not out.exists()

    def test_duplicate_extension_id_is_fleet_data_error(self, fixture_dir, tmp_path,
                                                         capsys):
        """Two extension rows for one base turbine: neither may win silently."""
        base = (fixture_dir / "turbines.csv").read_text(encoding="utf-8").splitlines()
        row = base[1].split(",")
        extension = tmp_path / "extension.csv"
        extension.write_text("\n".join([base[0],
                                        ",".join(row[:7] + ["true", "2015"]),
                                        ",".join(row[:7] + ["true", "2016"])]) + "\n",
                             encoding="utf-8")
        out = tmp_path / "val"
        assert main(self.validate_args(fixture_dir, out, "--extension", str(extension))) == 3
        assert capsys.readouterr().err == (
            f"fleet: duplicate turbine id {row[0]} in extension\n")
        assert not out.exists()


#: ids of over 15 UTF-8 bytes, not ASCII: the id column keeps them outside
#: its 16-byte elements
LONG_IDS = ("Éolienne-Ω-000000000001", "Éolienne-Ω-000000000002")


class TestIdsStoredOutOfLine:
    """Long non-ASCII ids go through the ingest as short ones do: the
    extension's flag fills in by id, the exclusions drop by id, and validate
    writes the tables it writes for the same registry under short ids."""

    def inputs(self, fixture_dir, path, ids):
        """The fixture registry with its first two ids renamed to ``ids``, an
        extension that decommissions the first and an exclusions file naming
        the second."""
        header, *rows = (fixture_dir / "turbines.csv").read_text(encoding="utf-8").splitlines()
        rows = [row.split(",") for row in rows]
        for row, tid in zip(rows, ids):
            row[0] = tid
        path.mkdir()
        (path / "turbines.csv").write_text(
            "\n".join([header, *map(",".join, rows)]) + "\n", encoding="utf-8")
        (path / "extension.csv").write_text(
            "\n".join([header, ",".join(rows[0][:7] + ["true", "2030"])]) + "\n",
            encoding="utf-8")
        (path / "exclusions.txt").write_text(ids[1] + "\n", encoding="utf-8")
        return ["--turbines", str(path / "turbines.csv"),
                "--extension", str(path / "extension.csv"),
                "--exclusions", str(path / "exclusions.txt")]

    def test_ingest_and_validate(self, fixture_dir, tmp_path):
        args = self.inputs(fixture_dir, tmp_path / "long", LONG_IDS)
        table = fleet.parse_turbine_csv((tmp_path / "long" / "turbines.csv").read_bytes())
        assert table.id[:2].tolist() == list(LONG_IDS)
        ext = fleet.parse_turbine_csv((tmp_path / "long" / "extension.csv").read_bytes())
        merged = fleet.merge_extension(table, ext)
        assert len(merged) == len(table)
        assert (merged[0].decommissioned_flag, merged[0].decommissioning_year) == (True, 2030)
        fleet_ = fleet.preprocess(merged, {LONG_IDS[1]})
        assert fleet_.provenance["excluded"] == 1
        assert LONG_IDS[1] not in fleet_.turbines.id.tolist()
        assert fleet_.turbines[0].id == LONG_IDS[0]

        short = self.inputs(fixture_dir, tmp_path / "short", ("S0", "S1"))
        tables = []
        for registry, out in ((args, tmp_path / "long-val"), (short, tmp_path / "short-val")):
            assert main(["validate", *registry, "--reference", str(fixture_dir / "reference.csv"),
                         "--years", "2010:2011", "--out", str(out)]) == 0
            tables.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert tables[0] == tables[1]

    def test_a_repeated_long_id_is_named_whole(self, fixture_dir, tmp_path, capsys):
        args = self.inputs(fixture_dir, tmp_path / "dup", (LONG_IDS[0], LONG_IDS[0]))
        out = tmp_path / "val"
        assert main(["validate", *args[:2], "--years", "2010:2011", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"fleet: duplicate turbine id {LONG_IDS[0]}\n"
        assert not out.exists()


class TestRegistryErrorsPerCommand:
    """Every command that reads the registry reports its errors alike: a
    missing file as its input's configuration error, a bad file as the
    fleet stage's data error."""

    def run(self, command, fixture_dir, tmp_path, *registry):
        out = tmp_path / "out"
        registry = ["--turbines", str(fixture_dir / "turbines.csv"), *registry]
        if command == "report":
            return run_report(fixture_dir, out, registry), out
        if command == "validate":
            return main(["validate", *registry, "--years", "2010:2011",
                         "--out", str(out)]), out
        return main(["pin", *registry, "--windgrid", str(fixture_dir / "wind.wgrd"),
                     "--years", "2010:2011", "--out", str(out)]), out

    @pytest.mark.parametrize("command", ["report", "validate", "pin"])
    def test_bad_header_is_fleet_data_error(self, command, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "bad_turbines.csv"
        bad.write_text("id,lon\nT1,-97.0\n", encoding="utf-8")
        code, out = self.run(command, fixture_dir, tmp_path, "--turbines", str(bad))
        assert code == 3
        assert capsys.readouterr().err.startswith("fleet: turbine CSV missing columns")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "validate", "pin"])
    @pytest.mark.parametrize("name", ["turbines", "extension", "exclusions"])
    def test_missing_file_is_config_error(self, command, name, fixture_dir, tmp_path,
                                          capsys):
        missing = tmp_path / "nowhere.csv"
        code, out = self.run(command, fixture_dir, tmp_path, f"--{name}", str(missing))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"{name}: file not found: {missing}")
        assert not out.exists()


class TestReportReferencePolicy:
    """``report`` checks its reference as ``validate`` does, and then its
    generation file: before the registry or the grid is read, exit 3 on a
    bad one."""

    @pytest.fixture
    def compute(self, monkeypatch):
        """The compute steps a run reaches: registry parses and the kernel
        pass's chunks."""
        seen = []
        for module, name in ((fleet, "parse_turbine_csv"), (powerflux, "_chunk_cube_sums")):
            def recording(*args, _original=getattr(module, name), _name=name):
                seen.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, recording)
        return seen

    def run_with_reference(self, fixture_dir, tmp_path, text):
        reference = tmp_path / "bad_reference.csv"
        reference.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        return run_report(fixture_dir, out, ["--reference", str(reference)]), out

    def test_reference_outside_study(self, fixture_dir, tmp_path, compute, capsys):
        code, out = self.run_with_reference(
            fixture_dir, tmp_path, "year,installed_capacity_mw,generation_gwh\n"
                                   "1999,100.0,\n2000,120.0,\n")
        assert code == 3
        assert "do not overlap the study period" in capsys.readouterr().err
        assert compute == []
        assert not out.exists()

    def test_malformed_reference_header(self, fixture_dir, tmp_path, compute, capsys):
        code, out = self.run_with_reference(
            fixture_dir, tmp_path, "year,capacity\n2010,100.0\n")
        assert code == 3
        assert "reference CSV header" in capsys.readouterr().err
        assert compute == []
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("net_generation_mwh", "mwh", 1),
         "generation CSV header must be year,month,net_generation_mwh"),
        (lambda text: text.rstrip("\n").rsplit("\n", 1)[0] + "\n",
         "missing generation for 2011-12"),
    ], ids=["header", "missing_month"])
    def test_bad_generation(self, fixture_dir, tmp_path, compute, capsys, edit, message):
        generation = tmp_path / "bad_generation.csv"
        generation.write_text(edit((fixture_dir / "generation.csv").read_text()),
                              encoding="utf-8")
        out = tmp_path / "out"
        assert run_report(fixture_dir, out, ["--generation", str(generation)]) == 3
        assert capsys.readouterr().err == f"generation: {message}\n"
        assert compute == []
        assert not out.exists()


class TestOversizedCsvField:
    """A field over the csv module's limit is a data error in every CSV
    input: exit 3 with the stage's prefix, no traceback and no output."""

    FIELD = "9" * 140_000

    @pytest.mark.parametrize("name, prefix", [
        ("turbines", "fleet"), ("reference", "reference"), ("generation", "generation")])
    def test_report_input(self, name, prefix, fixture_dir, tmp_path, capsys):
        bad = tmp_path / f"{name}.csv"
        bad.write_text((fixture_dir / f"{name}.csv").read_text() + self.FIELD + "\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run_report(fixture_dir, out, [f"--{name}", str(bad)]) == 3
        assert capsys.readouterr().err.startswith(f"{prefix}: field larger than field limit")
        assert not out.exists()

    def test_decompose_series(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("year,value,unit\n2010,1.0,W\n2011,2.0,W\n", encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"year,value,unit\n2010,1.0,W\n2011,{self.FIELD},W\n",
                       encoding="utf-8")
        out = tmp_path / "dec.json"
        code = main(["decompose", "--n", str(good), "--area", str(good), "--pin", str(bad),
                     "--pout", str(good), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"data: {bad}: field larger than field limit")
        assert not out.exists()


class TestScenarioParsing:
    def test_named_scenarios(self):
        spec = parse_scenario("drop-flagged+lifetime-20")
        assert spec.drop_decommissioned_flagged
        assert spec.lifetime_years == 20
        assert parse_scenario("default").lifetime_years is None
        assert not parse_scenario("discard-missing-capacity").impute_capacity

    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            parse_scenario("lifetime-zero")
        with pytest.raises(ConfigError):
            parse_scenario("frob")

    @pytest.mark.parametrize("label", ["lifetime-0", "lifetime--5", "drop-flagged+lifetime-0",
                                       "lifetime-0+lifetime-20", "lifetime-20+lifetime-30"])
    def test_bad_lifetime(self, label):
        """The spec checks the lifetime; a label names at most one."""
        with pytest.raises(ConfigError, match=f"^bad scenario {re.escape(repr(label))}$"):
            parse_scenario(label)


class TestBadFlagValues:
    """A bad flag value is a configuration error, found before any input is
    read and before any output is written."""

    @pytest.fixture
    def grid_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        TestConvertGrid().make_csv(path)
        return path

    @pytest.mark.parametrize("command, extra, message", [
        ("synth", ["--n-turbines", "0"], "counts must be positive"),
        ("synth", ["--grid", "0x3"], "counts must be positive"),
        ("synth", ["--grid", "3"], "bad grid '3'"),
        ("pin", ["--height", "-5"], "height must be positive"),
        ("pin", ["--height", "abc"], "bad height 'abc'"),
        ("pin", ["--height", "inf"], "height must be positive and finite"),
        ("report", ["--reference-height", "nan"],
         "reference_height must be positive and finite"),
        ("pin", ["--workers", "0"], "workers must be >= 1"),
        ("report", ["--workers", "0"], "workers must be >= 1"),
        ("convert-grid", ["--step", "0"], "step must be positive"),
        ("convert-grid", ["--step", "-3600"], "step must be positive"),
        # values the registry or the report would reject after files were written
        ("synth", ["--specific-power", "0"], "specific power must be positive"),
        ("synth", ["--specific-power", "inf"], "must be finite"),
        ("synth", ["--hub", "80,-50", "--years", "2010:2012"],
         "hub trend must be positive in every year"),
        ("synth", ["--rotor", "1,-1"], "rotor trend must be positive in every year"),
        ("synth", ["--hub", "0,10"], "hub trend must be positive in every year"),
        ("synth", ["--bbox", "-100", "nan", "35", "40"], "must be finite"),
        ("synth", ["--efficiency", "nan,0"], "must be finite"),
        ("synth", ["--wind", "sinusoidal:nan,1,720"], "parameters must be finite"),
        ("synth", ["--wind", "noise:8,inf"], "parameters must be finite"),
        # finite flags whose derived capacity leaves the float range
        ("synth", ["--rotor", "1e200,0"], "capacity inf kW"),
        ("synth", ["--specific-power", "1e308"], "capacity inf kW"),
        ("synth", ["--rotor", "1e-170,0"], "capacity 0.0 kW"),
        # a finite start and slope whose last year leaves the float range
        ("synth", ["--hub", "1e308,1e308", "--years", "2010:2011"],
         "hub trend must be finite in every year"),
        ("synth", ["--rotor", "1e308,1e308", "--years", "2010:2011"],
         "rotor trend must be finite in every year"),
        # finite wind parameters whose speeds leave the float32 range
        ("synth", ["--wind", "sinusoidal:1e300,1e300,720"], "must be finite in float32"),
        ("synth", ["--wind", "noise:1e308,1e308"], "must be finite in float32"),
        ("synth", ["--wind", "constant:1e300,1e300"], "must be finite in float32"),
        # a finite box whose extent leaves the float range is out of range
        ("synth", ["--bbox", " -1e308", "1e308", "35", "40"],
         "bounding box must lie within lon -180..180 and lat -90..90"),
        # a one-node axis has no extent for a turbine to lie on
        ("synth", ["--grid", "1x1", "--n-turbines", "3"],
         "grid needs at least 2 nodes on each axis"),
        ("synth", ["--grid", "1x3"], "grid needs at least 2 nodes on each axis"),
        # a box beyond the registry's coordinate ranges
        ("synth", ["--bbox", "-100", "-95", "85", "95"],
         "bounding box must lie within lon -180..180 and lat -90..90"),
        ("synth", ["--bbox", "170", "190", "30", "40"],
         "bounding box must lie within lon -180..180 and lat -90..90"),
    ])
    def test_config_error(self, command, extra, message, fixture_dir, grid_csv, tmp_path,
                          registry_reads, capsys):
        out = tmp_path / "out"
        args = {
            "synth": ["--out", str(out)],
            "pin": ["--turbines", str(fixture_dir / "turbines.csv"),
                    "--windgrid", str(fixture_dir / "wind.wgrd"),
                    "--years", "2010:2011", "--out", str(out)],
            "report": ["--config", str(fixture_dir / "run.conf"), "--out", str(out)],
            "convert-grid": ["--csv", str(grid_csv), "--out", str(out)],
        }[command]
        assert main([command, *args, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config: ") and message in err
        assert registry_reads == []
        assert not out.exists()


class TestVerbose:
    def test_flag_follows_the_subcommand(self):
        parser = build_parser()
        assert parser.parse_args(["trends", "-v", "--out", "x"]).verbose
        assert not parser.parse_args(["trends", "--out", "x"]).verbose
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(["-v", "trends", "--out", "x"])
        assert exit_.value.code == 2

    def test_turns_on_info_logging(self, fixture_dir, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(windfleet.__file__).resolve().parents[1]))
        command = [sys.executable, "-m", "windfleet.cli", "report",
                   "--config", str(fixture_dir / "run.conf")]
        quiet = subprocess.run([*command, "--out", str(tmp_path / "q")], env=env,
                               capture_output=True, text=True, timeout=120)
        loud = subprocess.run([*command, "--out", str(tmp_path / "v"), "-v"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert quiet.returncode == loud.returncode == 0, quiet.stderr + loud.stderr
        assert "INFO" not in quiet.stderr
        assert "INFO windfleet.pipeline: fleet: 10 turbines" in loud.stderr


class TestConfigBoundary:
    """``RunConfig``'s fields are the one schema of the config file and the
    ``report`` flags."""

    #: two valid settings for every config key
    SETTINGS = {
        "turbines": ("/data/a/turbines.csv", "/data/b/turbines.csv"),
        "windgrid": ("/data/a/wind.wgrd", "/data/b/wind.wgrd"),
        "generation": ("/data/a/generation.csv", "/data/b/generation.csv"),
        "start_year": ("2010", "2011"),
        "end_year": ("2014", "2015"),
        "out": ("/data/a/out", "/data/b/out"),
        "extension": ("/data/a/extension.csv", "/data/b/extension.csv"),
        "exclusions": ("/data/a/exclusions.txt", "/data/b/exclusions.txt"),
        "reference": ("/data/a/reference.csv", "/data/b/reference.csv"),
        "base_year": ("2012", "2013"),
        "reference_height": ("80.5", "100"),
        "scenarios": ("default,lifetime-20", "drop-flagged"),
        "workers": ("2", "3"),
    }

    @pytest.fixture
    def configs(self, monkeypatch):
        """The ``RunConfig`` every ``report`` run was given; nothing runs."""
        seen = []

        def record(config):
            seen.append(config)
            return []

        monkeypatch.setattr(pipeline, "run_pipeline", record)
        return seen

    def report(self, tmp_path, configs, settings, flags=()):
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                        encoding="utf-8")
        assert main(["report", "--config", str(conf), *flags]) == 0
        return configs[-1]

    def test_settings_cover_every_key(self):
        assert set(self.SETTINGS) == set(CONFIG_KEYS)

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_flag_equals_config_file_and_wins(self, key, tmp_path, configs):
        base = {k: v[1] for k, v in self.SETTINGS.items() if k in pipeline.REQUIRED_KEYS}
        first, second = self.SETTINGS[key]
        flag = ["--" + key.replace("_", "-"), first]
        from_file = self.report(tmp_path, configs, {**base, key: first})
        from_flag = self.report(tmp_path, configs, base, flag)
        from_both = self.report(tmp_path, configs, {**base, key: second}, flag)
        assert from_file == from_flag == from_both
        assert from_file != self.report(tmp_path, configs, {**base, key: second})

    def test_bad_integer_same_from_flag_and_file(self, fixture_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text((fixture_dir / "run.conf").read_text() + "start_year = abc\n")
        from_file = main(["report", "--config", str(conf)]), capsys.readouterr().err
        from_flag = run_report(fixture_dir, tmp_path / "o", ["--start-year", "abc"]), \
            capsys.readouterr().err
        assert from_file == from_flag == (2, "config: start_year must be an integer\n")

    def test_help_lists_every_key(self, capsys):
        for command in ("synth", "convert-grid", "pin", "decompose", "trends",
                        "validate", "report"):
            with pytest.raises(SystemExit) as exit_:
                main([command, "--help"])
            assert exit_.value.code == 0, command
        usage = capsys.readouterr().out
        for key in CONFIG_KEYS:
            assert "--" + key.replace("_", "-") in usage, key


class TestExitPolicy:
    """``stage`` is the one map from an exception to an exit code and prefix."""

    @pytest.mark.parametrize("error, code, kind, message", [
        (ConfigError("bad value"), 2, "config", "bad value"),
        (FileNotFoundError(2, "No such file or directory", "x.csv"), 2, "config",
         "file not found: x.csv"),
        (DataError("bad row"), 3, "data", "bad row"),
        (ValueError("bad number"), 3, "data", "bad number"),
        (OSError("disk full"), 3, "data", "disk full"),
        (InvariantError("broken"), 4, "internal", "broken"),
    ])
    @pytest.mark.parametrize("name", ["fleet", None])
    def test_stage(self, name, error, code, kind, message):
        with pytest.raises(PipelineError) as failure:
            with stage(name):
                raise error
        assert failure.value.exit_code == code
        assert failure.value.stage == (name or kind)
        assert failure.value.message == message

    @pytest.mark.parametrize("grid, code", [("missing", 2), ("truncated", 3)])
    def test_pin_reports_grid_errors_as_report_does(self, grid, code, fixture_dir,
                                                    tmp_path, capsys):
        path = tmp_path / "wind.wgrd"
        if grid == "truncated":
            path.write_bytes((fixture_dir / "wind.wgrd").read_bytes()[:-8])
        flags = ["--windgrid", str(path)]
        results = []
        for argv in (["pin", "--turbines", str(fixture_dir / "turbines.csv"),
                      "--years", "2010:2011", "--out", str(tmp_path / "pin.csv"), *flags],
                     ["report", "--config", str(fixture_dir / "run.conf"),
                      "--out", str(tmp_path / "out"), *flags]):
            results.append((main(argv), capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == code and results[0][1].startswith("windgrid: ")

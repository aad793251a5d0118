import calendar
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import const_grid, fleet_of, grid_from_field, report_json, turbine
from windfleet import powerflux, windgrid
from windfleet.cli import main
from windfleet.decomp import multiplicative_decomposition
from windfleet.errors import DataError
from windfleet.powerflux import (BETZ_LIMIT, RHO, BetzLimitWarning,
                                 MonthlySeries, aggregate_pin,
                                 annual_pin_series, cube_sums,
                                 hours_in_period,
                                 parse_generation_csv, period_bounds,
                                 pout_series, system_efficiency)
from windfleet.series import AnnualSeries
from windfleet.synth import brute_force_pin
from windfleet.windgrid import grid_to_bytes, load_windgrid, write_windgrid

UNIT_ROTOR = 2.0 / math.sqrt(math.pi)  # swept area exactly ~1 m²


def gen_csv(rows):
    return ("year,month,net_generation_mwh\n"
            + "\n".join(f"{y},{m},{v}" for y, m, v in rows) + "\n").encode()


class TestPeriods:
    def test_year_hours(self):
        assert hours_in_period(2010) == 8760
        assert hours_in_period(2012) == 8784  # leap

    def test_month_hours(self):
        assert hours_in_period((2010, 1)) == 744
        assert hours_in_period((2010, 2)) == 672
        assert hours_in_period((2012, 2)) == 696

    def test_bounds_contiguous(self):
        for m in range(1, 12):
            assert period_bounds((2011, m))[1] == period_bounds((2011, m + 1))[0]

    def test_bad_month(self):
        with pytest.raises(ValueError):
            period_bounds((2010, 13))


class TestKineticPower:
    """½·rho·A·v³ of one turbine through the pass: a constant wind of speed v
    over January 2010, no shear."""

    @staticmethod
    def power(v, rotor):
        grid = const_grid(v10=v, v100=v, n_time=24 * 31)
        return aggregate_pin(grid, fleet_of([turbine(year=2009, rotor=rotor)]), (2010, 1))

    def test_unit_inputs(self):
        assert self.power(1.0, UNIT_ROTOR) == pytest.approx(0.6125, rel=1e-12)

    def test_worked_example(self):
        # A = pi·100²/4 = 7853.98 m²
        assert self.power(10.0, 100.0) == pytest.approx(4810563.7508, rel=1e-10)

    def test_zero_speed(self):
        assert self.power(0.0, 100.0) == 0.0

    def test_negative_rejected(self):
        for rotor in (-1.0, 0.0):
            with pytest.raises(ValueError, match="rotor diameter must be positive"):
                self.power(1.0, rotor)

    def test_cubic_scaling(self):
        # speeds exact in f32 and power-of-two factors: c·v is stored exactly
        rng = random.Random(1)
        for _ in range(20):
            v = float(np.float32(rng.uniform(0.5, 20)))
            rotor, c = rng.uniform(20, 150), rng.choice([0.25, 0.5, 2.0, 4.0])
            assert self.power(c * v, rotor) == pytest.approx(
                c ** 3 * self.power(v, rotor), rel=1e-12)


class TestAggregatePin:
    def grid_2010(self, n_days=366):
        return const_grid(v10=8.0, v100=8.0, n_time=24 * n_days)

    def test_constant_field_closed_form_all_modes(self):
        grid = self.grid_2010()
        fleet = fleet_of([turbine("A", year=2009, rotor=UNIT_ROTOR)])
        expected = 0.6125 * 512  # 313.6 for one fully weighted unit-area turbine
        for height in ("hub", 76.0):
            for climate in ("actual", "long_term_average"):
                pin = aggregate_pin(grid, fleet, 2010, height, climate)
                assert pin == pytest.approx(expected, rel=1e-12)

    def test_empty_fleet(self):
        assert aggregate_pin(self.grid_2010(), fleet_of([]), 2010) == 0.0

    def test_empty_fleet_still_validates_the_period(self):
        with pytest.raises(DataError, match="not covered"):
            aggregate_pin(const_grid(n_time=24), fleet_of([]), 2011)
        with pytest.raises(ValueError, match="unknown climate mode 'hourly'"):
            aggregate_pin(self.grid_2010(), fleet_of([]), 2010, climate_mode="hourly")

    def test_colocated_turbines_double(self):
        grid = self.grid_2010()
        one = fleet_of([turbine("A", year=2009)])
        two = fleet_of([turbine("A", year=2009), turbine("B", year=2009)])
        assert aggregate_pin(grid, two, 2010) == pytest.approx(
            2 * aggregate_pin(grid, one, 2010), rel=1e-12)

    def test_commissioning_weight_half(self):
        grid = self.grid_2010()
        fleet = fleet_of([turbine("A", year=2010, rotor=UNIT_ROTOR)])
        assert aggregate_pin(grid, fleet, 2010) == pytest.approx(0.5 * 0.6125 * 512,
                                                                 rel=1e-12)

    def test_additive_and_order_invariant(self):
        rng = random.Random(8)
        u10 = rng.uniform(4, 8) + np.zeros((31 * 24, 2, 2))
        u10 += np.linspace(0, 2, u10.size).reshape(u10.shape)
        grid = grid_from_field(u10, np.zeros_like(u10), 1.7 * u10,
                               np.zeros_like(u10), lons=[-100.0, -95.0],
                               lats=[35.0, 40.0])
        recs = [turbine(f"T{i}", lon=rng.uniform(-100, -95),
                        lat=rng.uniform(35, 40), year=2009 + (i % 2),
                        rotor=rng.uniform(60, 120)) for i in range(9)]
        whole = aggregate_pin(grid, fleet_of(recs), (2010, 1))
        part = (aggregate_pin(grid, fleet_of(recs[:4]), (2010, 1))
                + aggregate_pin(grid, fleet_of(recs[4:]), (2010, 1)))
        assert whole == pytest.approx(part, rel=1e-12)
        shuffled = recs[::-1]
        assert aggregate_pin(grid, fleet_of(shuffled), (2010, 1)) == pytest.approx(
            whole, rel=1e-12)

    def test_time_constant_field_climate_modes_agree(self):
        grid = const_grid(v10=5.0, v100=10.0, n_time=31 * 24)
        fleet = fleet_of([turbine("A", year=2009, hub=90.0)])
        actual = aggregate_pin(grid, fleet, (2010, 1), "hub", "actual")
        avg = aggregate_pin(grid, fleet, (2010, 1), "hub", "long_term_average")
        assert avg == pytest.approx(actual, rel=1e-12)

    def test_turbine_outside_grid(self):
        grid = self.grid_2010()
        fleet = fleet_of([turbine("FAR", lon=-50.0, lat=37.0, year=2009)])
        with pytest.raises(DataError, match="outside wind grid: FAR"):
            aggregate_pin(grid, fleet, 2010)

    def test_many_turbines_outside_grid(self):
        """The error names the first ten turbines outside the grid, in
        registry order, and counts the rest."""
        grid = const_grid(n_time=24)
        # past each of the four edges in turn, between turbines inside
        beyond = [(-97.0, 34.0), (-97.0, 41.0), (-101.0, 37.0), (-94.0, 37.0)]
        recs = []
        for i in range(13):
            lon, lat = beyond[i % 4]
            recs += [turbine(f"IN{i}"), turbine(f"OUT{i}", lon=lon, lat=lat)]
        with pytest.raises(DataError) as err:
            cube_sums(grid, recs, ["hub"], (0, 24))
        shown = ", ".join(f"OUT{i}" for i in range(10))
        assert str(err.value) == f"turbines outside wind grid: {shown} (+3 more)"

    def test_period_not_covered(self):
        grid = const_grid(n_time=24)  # one day of 2010
        fleet = fleet_of([turbine("A", year=2009)])
        with pytest.raises(DataError, match="not covered"):
            aggregate_pin(grid, fleet, 2011)

    def test_annual_series_matches_per_year_calls(self):
        grid = const_grid(v10=6.0, v100=9.0, n_time=2 * 8760)
        recs = [turbine(f"T{i}", lon=-97.0 - i / 2, lat=36.0 + i / 2, year=2010 + i % 2,
                        hub=70.0 + 5 * i) for i in range(5)]
        fleet = fleet_of(recs)
        span = (2010, 2011)
        for climate in ("actual", "long_term_average"):
            series = annual_pin_series(grid, fleet, range(2010, 2012), "hub",
                                       climate, span)
            for year in (2010, 2011):
                assert series.value(year) == aggregate_pin(grid, fleet, year, "hub",
                                                           climate, span)

    def test_workers_bit_identical(self):
        rng = random.Random(4)
        n = 24 * 31
        u10 = np.fromiter((rng.uniform(3, 9) for _ in range(n * 4)), float).reshape(n, 2, 2)
        grid = grid_from_field(u10, np.zeros_like(u10), 1.4 * u10,
                               np.zeros_like(u10), lons=[-100.0, -95.0],
                               lats=[35.0, 40.0])
        recs = [turbine(f"T{i}", lon=rng.uniform(-100, -95), lat=rng.uniform(35, 40),
                        year=2009, hub=60.0 + i) for i in range(150)]
        fleet = fleet_of(recs)
        serial = aggregate_pin(grid, fleet, (2010, 1), workers=1)
        before = dict(vars(powerflux))
        # three chunks on three threads that switch often: a chunk's lost or
        # misplaced write would change the sum
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = aggregate_pin(grid, fleet, (2010, 1), workers=3)
        finally:
            sys.setswitchinterval(interval)
        assert serial == parallel  # bitwise
        # the pooled pass leaves no state in the module
        after = vars(powerflux)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    def test_calm_hours_counted(self):
        u10 = np.full((744, 2, 2), 5.0)
        u10[:3] = 0.0  # three calm hours
        grid = grid_from_field(u10, np.zeros_like(u10), u10, np.zeros_like(u10),
                               lons=[-100.0, -95.0], lats=[35.0, 40.0])
        fleet = fleet_of([turbine("A", year=2009)])
        sums = cube_sums(grid, fleet.turbines, ["hub", 76.0], (0, 744))
        assert sums.calm_hours == 3  # once per turbine-hour, not per height


class TestPolicyFreeReductions:
    """``CubeSums.fleet_pin`` reduces a pass over the stamps and with the
    weights its caller chooses; ``report_pin`` builds one weight vector a
    study year and shares it between that year's fifteen reductions, and
    ``pin_series`` builds one a year for its periods of that year."""

    YEARS = range(2010, 2015)

    @staticmethod
    def grid(n_hours):
        rng = np.random.default_rng(16)
        shape = (n_hours, 2, 2)
        u10 = rng.uniform(0.0, 8.0, shape)
        return grid_from_field(u10, rng.uniform(-2.0, 2.0, shape),
                               u10 * rng.uniform(1.1, 1.8, shape), np.zeros(shape),
                               lons=[-100.0, -95.0], lats=[35.0, 40.0])

    def test_one_weight_vector_per_study_year(self, monkeypatch):
        ys = self.YEARS
        grid = self.grid(sum(hours_in_period(y) for y in ys))
        fleet = fleet_of([turbine(f"T{i}", lon=-99.0 + i, lat=36.0 + 0.5 * i,
                                  year=2008 + 2 * i, hub=70.0 + 10 * i) for i in range(4)])
        calls, weights = [], powerflux.operating_weights
        monkeypatch.setattr(powerflux, "operating_weights",
                            lambda turbines, year: calls.append(year) or weights(turbines, year))
        pins = powerflux.report_pin(grid, fleet, ys, 76.0)
        assert calls == list(ys)  # 75 calls when each reduction built its own
        monkeypatch.undo()
        span = (ys[0], ys[-1])
        months = [(y, m) for y in ys for m in range(1, 13)]
        assert pins.annual.values == powerflux.pin_series(grid, fleet, ys)
        assert pins.annual_avg.values == powerflux.pin_series(
            grid, fleet, ys, "hub", "long_term_average", span)
        assert pins.annual_ref_avg.values == powerflux.pin_series(
            grid, fleet, ys, 76.0, "long_term_average", span)
        assert pins.monthly == powerflux.pin_series(grid, fleet, months)

    def test_pin_series_one_weight_vector_per_year(self, monkeypatch):
        ys = self.YEARS
        grid = self.grid(sum(hours_in_period(y) for y in ys))
        fleet = fleet_of([turbine(f"T{i}", lon=-99.0 + i, lat=36.0 + 0.5 * i,
                                  year=2008 + 2 * i) for i in range(4)])
        calls, weights = [], powerflux.operating_weights
        monkeypatch.setattr(powerflux, "operating_weights",
                            lambda turbines, year: calls.append(year) or weights(turbines, year))
        months = [(y, m) for y in ys for m in range(1, 13)]
        for climate in ("actual", "long_term_average"):
            calls.clear()
            powerflux.pin_series(grid, fleet, months, "hub", climate, (ys[0], ys[-1]))
            assert calls == list(ys)  # 60 calls when each month built its own

    @pytest.mark.parametrize("stamps", [(1, 744), (0, 743), (0, 745), (744, 1488),
                                        (-744, 744)])
    def test_fleet_pin_rejects_a_span_that_is_not_blocks(self, stamps):
        grid = self.grid(744)
        recs = [turbine("A", year=2009), turbine("B", lon=-96.0, year=2010)]
        sums = cube_sums(grid, recs, ["hub"], (0, 744))
        weights = np.ones(len(recs))
        assert sums.fleet_pin(0, (0, 744), weights) > 0
        with pytest.raises(ValueError, match="not a span of the pass's blocks"):
            sums.fleet_pin(0, stamps, weights)


class TestFileBackedPass:
    """The pass reads a loaded grid's file one stamp block per variable."""

    @staticmethod
    def grid_and_turbines():
        rng = np.random.default_rng(8)
        n = 24 * (31 + 28 + 31)  # January to March 2010: three month blocks
        u10, v10, u100, v100 = rng.uniform(-12.0, 12.0, (4, n, 3, 4))
        u10[5:9] = v10[5:9] = 0.0  # calm at 10 m
        grid = grid_from_field(u10, v10, u100, v100, lons=[-100.0, -98.0, -96.0, -95.0],
                               lats=[35.0, 37.5, 40.0])
        recs = [turbine(f"T{i}", lon=float(rng.uniform(-100, -95)),
                        lat=float(rng.uniform(35, 40)), year=2009, hub=60.0 + i % 50)
                for i in range(150)]
        return grid, recs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sums_bit_identical_to_in_memory(self, tmp_path, workers):
        grid, recs = self.grid_and_turbines()
        path = tmp_path / "g.wgrd"
        write_windgrid(grid, path)
        span = (0, grid.n_time)
        memory = cube_sums(grid, recs, ["hub", 76.0], span)
        disk = cube_sums(load_windgrid(path), recs, ["hub", 76.0], span, workers)
        assert len(disk.bounds) == 4 and disk.sums.shape == (2, 3, 150)
        assert np.array_equal(disk.sums, memory.sums)
        assert disk.calm_hours == memory.calm_hours == 4 * 150

    @pytest.mark.parametrize("change, workers", [
        pytest.param(change, workers, id=change if workers == 1 else f"{change}-{workers}workers")
        for workers in (1, 2) for change in ("rewritten", "replaced", "truncated")])
    def test_file_changed_after_load_fails_pass(self, tmp_path, change, workers):
        grid, recs = self.grid_and_turbines()
        path = tmp_path / "g.wgrd"
        data = grid_to_bytes(grid)
        path.write_bytes(data)
        loaded = load_windgrid(path)
        st = path.stat()
        nan_last = data[:-4] + struct.pack("<f", math.nan)
        if change == "rewritten":
            path.write_bytes(nan_last)
            # a later write: file clocks can be coarser than the time between writes
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        elif change == "replaced":  # same size and time stamp, another file
            other = tmp_path / "other.wgrd"
            other.write_bytes(nan_last)
            os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns))
            os.replace(other, path)
        else:
            with open(path, "r+b") as fh:
                fh.truncate(len(data) - 4)
        # 150 turbines are three chunks, so with two workers the error is
        # raised on a pool thread and must reach the caller unchanged
        with pytest.raises(DataError, match="changed after it was loaded"):
            cube_sums(loaded, recs, ["hub"], (0, grid.n_time), workers)


class TestPreparedChunks:
    """Each chunk task of ``cube_sums`` prepares its own chunk: its sizes
    follow ``_chunk_bounds``, its weight columns are its distinct nodes in
    ascending order, and each weight row is one turbine's bilinear weights."""

    @pytest.mark.parametrize("chunk", [64, 7, 149])
    def test_chunks_of_a_pass(self, monkeypatch, chunk):
        grid, recs = TestFileBackedPass.grid_and_turbines()
        chunks = []
        chunk_cube_sums = powerflux._chunk_cube_sums

        def capturing(grid, bounds, nodes, weights, shear, sums, columns):
            chunks.append((nodes, weights, columns))
            return chunk_cube_sums(grid, bounds, nodes, weights, shear, sums, columns)

        monkeypatch.setattr(powerflux, "_chunk_cube_sums", capturing)
        monkeypatch.setattr(powerflux, "CHUNK_TURBINES", chunk)
        cube_sums(grid, recs, ["hub"], (0, grid.n_time))
        assert [len(columns) for _, _, columns in chunks] == \
            [b - a for a, b in powerflux._chunk_bounds(len(recs))]
        # every turbine in one chunk, once
        np.testing.assert_array_equal(
            np.sort(np.concatenate([columns for _, _, columns in chunks])),
            np.arange(len(recs)))
        node_lon = np.tile(grid.lons, len(grid.lats))
        node_lat = np.repeat(grid.lats, len(grid.lons))
        positions = np.asarray([(r.lon, r.lat) for r in recs])
        for nodes, weights, columns in chunks:
            assert weights.shape == (len(columns), len(nodes))
            assert np.all(np.diff(nodes) > 0)
            assert np.all(np.count_nonzero(weights, axis=1) <= 4)
            assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            # the rows blend the grid's node coordinates back to the positions
            # of the turbines in the chunk's registry columns
            blended = np.stack([weights @ node_lon[nodes], weights @ node_lat[nodes]],
                               axis=1)
            assert np.allclose(blended, positions[columns], rtol=1e-12, atol=1e-9)


class TestWindowedReads:
    """The load and the pass read a file in windows of whole stamps, never
    more than ``WINDOW_VALUES`` values unless one stamp is larger."""

    @pytest.mark.parametrize("window, largest", [(60, 5 * 12), (7, 12)],
                             ids=["five_stamps", "one_stamp"])
    def test_sums_bit_identical_in_small_windows(self, tmp_path, monkeypatch, window,
                                                 largest):
        grid, recs = TestFileBackedPass.grid_and_turbines()
        path = tmp_path / "g.wgrd"
        write_windgrid(grid, path)
        span = (0, grid.n_time)
        memory = cube_sums(grid, recs, ["hub", 76.0], span)
        reads = []
        pread_into = windgrid._pread_into

        def recording(fd, out, offset):
            reads.append((offset, out.size))
            pread_into(fd, out, offset)

        monkeypatch.setattr(windgrid, "WINDOW_VALUES", window)
        monkeypatch.setattr(windgrid, "_pread_into", recording)
        loaded = load_windgrid(path)
        # the load's finite check reads every payload value exactly once, in
        # file order
        payload = 4 * grid.n_time * 12
        assert max(size for _, size in reads) == largest
        position = loaded.source.offset
        for offset, size in reads:
            assert offset == position
            position += 4 * size
        assert position == loaded.source.offset + 4 * payload
        reads.clear()
        disk = cube_sums(loaded, recs, ["hub", 76.0], span)
        assert np.array_equal(disk.sums, memory.sums)
        assert disk.calm_hours == memory.calm_hours
        # 150 turbines make 3 chunks; each reads every stamp of the four
        # variables at the 12 nodes once
        assert max(size for _, size in reads) == largest
        assert sum(size for _, size in reads) == 3 * payload


_RSS_CHILD = """
import json, sys
from pathlib import Path

from conftest import turbine
from windfleet.powerflux import cube_sums
from windfleet.windgrid import load_windgrid


def peak_kb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])


path, points = sys.argv[1], json.loads(sys.argv[2])
recs = [turbine(f"T{i}", lon=lon, lat=lat, year=2009) for i, (lon, lat) in enumerate(points)]
before = peak_kb()
grid = load_windgrid(path)
loaded = peak_kb()
sums = cube_sums(grid, recs, ["hub", 76.0], (0, grid.n_time))
print(json.dumps({"load_kb": loaded - before, "growth_kb": peak_kb() - before,
                  "sums": sums.sums.tolist(), "calm_hours": sums.calm_hours}))
"""

needs_proc_status = pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                                       reason="needs /proc/self/status for the peak RSS")


def rss_child(path, points) -> dict:
    """Load ``path`` and run the pass at hub height and 76 m for turbines at
    ``points`` in a fresh interpreter: the peak RSS growth of the load and
    of load plus pass, the sums and the calm hours."""
    import windfleet
    src = Path(windfleet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(path), json.dumps(points)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def corner_grid(n_time, side):
    """``side`` x ``side`` nodes over 30° x 25°, the same u wind at 10 m and
    100 m and no v wind."""
    rng = np.random.default_rng(5)
    u = (rng.random((n_time, side, side), dtype=np.float32) * 10.0 + 2.0)
    zeros = np.zeros_like(u)
    return grid_from_field(u, zeros, u, zeros, lons=np.linspace(-100.0, -70.0, side),
                           lats=np.linspace(25.0, 50.0, side))


class TestBoundedMemory:
    #: turbines near the south-west corner node
    POINTS = [(-99.9, 25.1), (-99.75, 25.3), (-99.6, 25.05)]

    @needs_proc_status
    def test_pass_memory_does_not_grow_with_file(self, tmp_path):
        # 60x60 nodes over January-March 2010, turbines in the south-west
        # corner cell only: the file is 124 MB, the turbines read 4 nodes
        n = 24 * (31 + 28 + 31)
        grid = corner_grid(n, 60)
        path = tmp_path / "big.wgrd"
        write_windgrid(grid, path)
        size = path.stat().st_size
        assert size >= 80e6
        recs = [turbine(f"T{i}", lon=lon, lat=lat, year=2009)
                for i, (lon, lat) in enumerate(self.POINTS)]
        expected = cube_sums(grid, recs, ["hub", 76.0], (0, n))
        del grid

        child = rss_child(path, self.POINTS)
        assert child["sums"] == expected.sums.tolist()
        assert child["calm_hours"] == 0
        assert child["growth_kb"] * 1024 < 0.25 * size, (child["growth_kb"], size)

    @needs_proc_status
    def test_growth_does_not_depend_on_node_count(self, tmp_path):
        # January 2010 on 30x30 and on 90x90 nodes, the same three turbines:
        # reading a whole month block of every node would take 2.7 MB on
        # the first grid and 24 MB on the second
        children = {}
        for side in (30, 90):
            path = tmp_path / f"g{side}.wgrd"
            write_windgrid(corner_grid(24 * 31, side), path)
            children[side] = rss_child(path, self.POINTS)
        for child in children.values():
            assert child["load_kb"] < 1024, children
        assert abs(children[90]["growth_kb"] - children[30]["growth_kb"]) < 1024, children

    def test_pass_holds_one_result_array(self):
        # daily stamps over 2010-2019: 120 month blocks at two heights, so the
        # result outweighs every per-chunk array; a pass that kept each
        # chunk's sums and concatenated them would peak near three results
        import tracemalloc

        n = 3652
        rng = np.random.default_rng(3)
        u = rng.random((n, 2, 2), dtype=np.float32) * 10.0 + 2.0
        zeros = np.zeros_like(u)
        grid = grid_from_field(u, zeros, 1.2 * u, zeros, lons=(-100.0, -95.0),
                               lats=(35.0, 40.0), step=86400)
        recs = [turbine(f"T{i}", lon=-100.0 + 5.0 * x, lat=35.0 + 5.0 * y, year=2009)
                for i, (x, y) in enumerate(rng.random((1000, 2)))]
        tracemalloc.start()
        try:
            sums = cube_sums(grid, recs, ["hub", 76.0], (0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sums.sums.shape == (2, 120, 1000)
        assert peak < 1.6 * sums.sums.nbytes, (peak, sums.sums.nbytes)


@st.composite
def oracle_instances(draw):
    """Small daily grids over January-February 2010 with nonzero v
    components, calm stamps at 10 m, 100 m or both, single-node axes, and
    turbines on nodes, on grid edges or anywhere inside."""
    def axis(start):
        steps = draw(st.lists(st.floats(0.5, 3.0), min_size=0, max_size=2))
        return start + np.concatenate([[0.0], np.cumsum(steps)])

    lons, lats = axis(-100.0), axis(35.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u10, v10, u100, v100 = rng.uniform(-25.0, 25.0, (4, 59, len(lats), len(lons)))
    calm = draw(st.lists(st.tuples(st.integers(0, 58), st.sampled_from(["10", "100", "both"])),
                         max_size=12))
    for k, height in calm:
        for u, v, h in ((u10, v10, "10"), (u100, v100, "100")):
            if height in (h, "both"):
                u[k] = v[k] = 0.0
    grid = grid_from_field(u10, v10, u100, v100, lons=lons, lats=lats, step=86400)

    def coordinate(ax):
        return draw(st.one_of(st.sampled_from(list(ax)), st.floats(ax[0], ax[-1])))

    recs = [turbine(f"T{i}", lon=coordinate(lons), lat=coordinate(lats),
                    year=draw(st.sampled_from([2009, 2010, 2011])),
                    hub=draw(st.floats(30.0, 200.0)), rotor=draw(st.floats(20.0, 150.0)))
            for i in range(draw(st.integers(1, 5)))]
    return grid, fleet_of(recs)


class TestPassMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(oracle_instances())
    def test_all_modes_within_1e9(self, instance):
        grid, fleet = instance
        for height, climate in (("hub", "actual"), ("hub", "long_term_average"),
                                (76.0, "long_term_average")):
            fast = aggregate_pin(grid, fleet, (2010, 1), height, climate)
            slow = brute_force_pin(grid, fleet, (2010, 1), height, climate)
            if slow == 0.0:
                assert fast == 0.0
            else:
                assert abs(fast - slow) <= 1e-9 * slow, (height, climate, fast, slow)


class TestSubHourlyBlocks:
    """A half-hourly grid over January and February 2010: a month longer
    than ``BLOCK_STAMPS`` stamps is cut every ``BLOCK_STAMPS`` stamps."""

    LONS, LATS = (-100.0, -98.5, -97.0), (35.0, 37.0)

    @classmethod
    def grid(cls):
        rng = np.random.default_rng(17)
        n_time = 48 * (31 + 28)
        u10, v10, u100, v100 = rng.uniform(-20.0, 20.0, (4, n_time, 2, 3))
        calm10, calm100 = [5, 900, 2000], [40, 1500, 2800]  # in both months' blocks
        u10[calm10] = v10[calm10] = 0.0
        u100[calm100] = v100[calm100] = 0.0
        return grid_from_field(u10, v10, u100, v100, lons=cls.LONS, lats=cls.LATS, step=1800)

    @classmethod
    def turbines(cls, n):
        rng = np.random.default_rng(n)
        return [turbine(f"T{i}", lon=float(rng.uniform(cls.LONS[0], cls.LONS[-1])),
                        lat=float(rng.uniform(cls.LATS[0], cls.LATS[-1])), year=2009,
                        hub=float(rng.uniform(30.0, 200.0))) for i in range(n)]

    def test_block_edges(self):
        grid = self.grid()
        assert powerflux.BLOCK_STAMPS == 744
        assert powerflux._block_bounds(grid, 0, grid.n_time).tolist() == [
            0, 744, 1488, 2232, 2832]

    @settings(max_examples=300, deadline=None)
    @given(t0=st.integers(0, 4_000_000_000) | st.builds(
               lambda y, m: calendar.timegm((y, m, 1, 0, 0, 0)),
               st.integers(1970, 2090), st.integers(1, 12)),
           step=st.sampled_from([60, 900, 1800, 3600, 86400]) | st.integers(60, 86400),
           k0=st.integers(0, 50_000), span=st.integers(1, 20_000))
    def test_block_edges_any_start_and_step(self, t0, step, k0, span):
        """From ``k0`` to ``k1``, strictly increasing, no block longer than
        ``BLOCK_STAMPS``; an inner edge is a stamp on a UTC month start or
        ``BLOCK_STAMPS`` after the edge before it, and every month-start
        stamp inside is an edge."""
        k1 = k0 + span
        edges = powerflux._block_bounds(SimpleNamespace(t0=t0, step=step), k0, k1).tolist()
        assert edges[0] == k0 and edges[-1] == k1
        gaps = np.diff(edges)
        assert (gaps > 0).all() and (gaps <= powerflux.BLOCK_STAMPS).all()
        inner = np.arange(k0 + 1, k1)
        at = (t0 + inner * step).astype("datetime64[s]")
        month_starts = set(inner[at == at.astype("datetime64[M]")].tolist())
        assert month_starts <= set(edges)
        for before, edge in zip(edges, edges[1:-1]):
            assert edge in month_starts or edge == before + powerflux.BLOCK_STAMPS

    def test_pass_matches_oracle_with_calm_hours(self):
        grid, fleet = self.grid(), fleet_of(self.turbines(4))
        assert cube_sums(grid, fleet.turbines, ["hub"], (0, grid.n_time)).calm_hours == 4 * 6
        for height in ("hub", 76.0):
            for period in ((2010, 1), (2010, 2)):
                fast = aggregate_pin(grid, fleet, period, height)
                slow = brute_force_pin(grid, fleet, period, height)
                assert abs(fast - slow) <= 1e-9 * slow, (height, period, fast, slow)

    def test_sums_bit_identical_at_any_worker_count(self):
        grid, recs = self.grid(), self.turbines(70)
        one, two = (cube_sums(grid, recs, ["hub", 76.0], (0, grid.n_time), workers)
                    for workers in (1, 2))
        assert one.sums.shape == (2, 4, 70)
        assert np.array_equal(one.sums, two.sums)
        assert one.calm_hours == two.calm_hours == 70 * 6


@st.composite
def permuted_fleets(draw):
    """An hourly January 2010 grid with calm stamps, a fleet crowded into few
    cells (on nodes, on edges, single-node axes) and one permutation of it.
    Fleet sizes include ones that leave one turbine over after chunks of 2,
    7 or 64."""
    lons = -100.0 + np.arange(draw(st.integers(1, 4))) * 1.5
    lats = 35.0 + np.arange(draw(st.integers(1, 3))) * 2.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u10, v10, u100, v100 = rng.uniform(-20.0, 20.0, (4, 744, len(lats), len(lons)))
    calm = rng.integers(0, 744, 6)
    u10[calm[:3]] = v10[calm[:3]] = 0.0
    u100[calm[3:]] = v100[calm[3:]] = 0.0
    grid = grid_from_field(u10, v10, u100, v100, lons=lons, lats=lats)

    def coordinate(ax):
        return float(rng.choice(ax) if rng.random() < 0.3 else rng.uniform(ax[0], ax[-1]))

    n = draw(st.one_of(st.integers(1, 16), st.sampled_from([22, 64, 65, 129])))
    recs = [turbine(f"T{i}", lon=coordinate(lons), lat=coordinate(lats), year=2009,
                    hub=float(rng.uniform(30.0, 200.0))) for i in range(n)]
    return grid, recs, draw(st.permutations(range(n)))


class TestPassPermutation:
    """A turbine's row of sums does not depend on the fleet's order, on the
    chunk that holds it or on the worker that runs the chunk."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(permuted_fleets())
    def test_rows_bit_identical_under_permutation(self, monkeypatch, instance):
        grid, recs, order = instance
        span = (0, grid.n_time)
        base = cube_sums(grid, recs, ["hub", 76.0], span)
        expected = base.sums[:, :, list(order)]
        for chunk in (2, 7, 64):
            monkeypatch.setattr(powerflux, "CHUNK_TURBINES", chunk)
            for workers in (1, 2):
                sums = cube_sums(grid, [recs[k] for k in order], ["hub", 76.0], span,
                                 workers)
                assert np.array_equal(sums.sums, expected), (chunk, workers)
                assert sums.calm_hours == base.calm_hours, (chunk, workers)


_BLAS_PROBE = ("import os, windfleet; "
               "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")


class TestBlasThreads:
    """The chunk tasks of ``--workers`` are the only parallelism: one BLAS
    thread per calling thread unless the environment chooses a thread
    count."""

    @staticmethod
    def blas_environment(**chosen):
        import windfleet
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(chosen, PYTHONPATH=str(Path(windfleet.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_one_thread_by_default(self):
        assert self.blas_environment() == ["1", "None"]

    def test_openblas_choice_kept(self):
        assert self.blas_environment(OPENBLAS_NUM_THREADS="3") == ["3", "None"]

    def test_omp_choice_kept(self):
        assert self.blas_environment(OMP_NUM_THREADS="3") == ["None", "3"]


class TestGenerationCsv:
    def test_two_months(self):
        series = parse_generation_csv(gen_csv([(2010, 1, 9000), (2010, 2, 8000)]))
        assert series.start == (2010, 1)
        assert series.values == [9000.0, 8000.0]

    def test_duplicate_month(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_generation_csv(gen_csv([(2010, 1, 9000), (2010, 1, 8000)]))

    def test_empty(self):
        with pytest.raises(DataError, match="no generation data"):
            parse_generation_csv(b"year,month,net_generation_mwh\n")

    def test_gap_rejected(self):
        with pytest.raises(DataError, match="missing month 2010-02"):
            parse_generation_csv(gen_csv([(2010, 1, 9000), (2010, 3, 8000)]))

    def test_rows_any_order(self):
        series = parse_generation_csv(gen_csv([(2010, 2, 8000), (2010, 1, 9000)]))
        assert series.values == [9000.0, 8000.0]


class TestPoutSeries:
    def test_non_leap_year(self):
        series = MonthlySeries((2010, 1), [730.0] * 12)
        total = 730.0 * 12  # 8760 MWh
        assert pout_series(series, 2010) == pytest.approx(total * 1e6 / 8760)

    def test_leap_year_exact_megawatt(self):
        values = [hours_in_period((2012, m)) * 1.0 for m in range(1, 13)]  # MWh at 1 MW
        series = MonthlySeries((2012, 1), values)
        assert sum(values) == 8784.0
        assert pout_series(series, 2012) == pytest.approx(1e6, rel=1e-12)

    def test_single_month(self):
        series = MonthlySeries((2010, 1), [744.0])
        assert pout_series(series, (2010, 1)) == pytest.approx(1e6, rel=1e-12)

    def test_missing_month(self):
        series = MonthlySeries((2010, 1), [744.0] * 3)
        with pytest.raises(DataError, match="missing generation for 2010-05"):
            pout_series(series, (2010, 5))
        with pytest.raises(DataError, match="missing generation"):
            pout_series(series, 2010)


def report_values(report, name):
    """The values of one report.json series."""
    return report["series"][name]["values"]


class TestRatios:
    """The report's annual ratios: input density and efficiency are the
    decomposition's factors, the others plain quotients of report series."""

    def test_densities(self, synth_report):
        factors = synth_report["decomposition"]["factors"]
        assert (report_values(synth_report, "input_power_density_w_m2")
                == factors["input_density"]["values"])
        assert report_values(synth_report, "output_power_density_w_m2") == [
            p_out / area for p_out, area in zip(report_values(synth_report, "p_out_w"),
                                                report_values(synth_report, "area_m2"))]

    @staticmethod
    def decomposition(area, p_in):
        years = len(area)
        return multiplicative_decomposition(
            AnnualSeries(2010, [1.0] * years, "count"), AnnualSeries(2010, area, "m²"),
            AnnualSeries(2010, p_in, "W"), AnnualSeries(2010, [0.1 * p for p in p_in], "W"))

    def test_density_scale_invariance(self):
        density = [self.decomposition([area], [p_in])[0].input_density.values
                   for p_in, area in ((500.0, 10.0), (1000.0, 20.0))]
        assert density == [[50.0], [50.0]]

    def test_density_zero_area(self):
        # a report never gets here: its fleet stage fails a year with no
        # operating turbine (test_fleet.py::TestSpecificPower::test_zero_area)
        for area in (0.0, -2.0):
            with pytest.raises(ValueError, match="area must be positive, year 2011"):
                self.decomposition([1.0, area], [1.0, 1.0])

    def test_system_efficiency(self):
        assert system_efficiency(100.0, 1000.0) == pytest.approx(0.1)

    def test_betz_warning(self):
        with pytest.warns(BetzLimitWarning):
            assert system_efficiency(1000.0, 1000.0) == 1.0

    def test_no_warning_below_betz(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system_efficiency(0.59 * 1000, 1000.0)

    def test_efficiency_bad_pin(self):
        with pytest.raises(ValueError):
            system_efficiency(1.0, 0.0)

    def test_density_ratio_identity(self, synth_report):
        # efficiency is the decomposition's, and equals the density ratio
        efficiency = report_values(synth_report, "efficiency")
        assert efficiency == synth_report["decomposition"]["factors"]["efficiency"]["values"]
        for e, d_out, d_in in zip(efficiency,
                                  report_values(synth_report, "output_power_density_w_m2"),
                                  report_values(synth_report, "input_power_density_w_m2")):
            assert e == pytest.approx(d_out / d_in, rel=1e-12)

    def test_capacity_factor(self, synth_report):
        assert report_values(synth_report, "capacity_factor") == [
            p_out / (capacity * 1e6)
            for p_out, capacity in zip(report_values(synth_report, "p_out_w"),
                                       report_values(synth_report, "capacity_mw"))]

    def test_report_over_betz_limit_warns(self, tmp_path):
        """A planted efficiency over the Betz limit still warns: every month
        is over it, and the monthly efficiencies raise the warning."""
        bundle = tmp_path / "bundle"
        assert main(["synth", "--out", str(bundle), "--n-turbines", "4",
                     "--years", "2010:2011", "--efficiency", "0.7,0", "--seed", "4"]) == 0
        with pytest.warns(BetzLimitWarning):
            report = report_json(bundle, tmp_path / "out")
        assert all(e > BETZ_LIMIT for e in report_values(report, "efficiency"))

    def test_betz_limit_value(self):
        assert BETZ_LIMIT == pytest.approx(16 / 27)
        assert RHO == 1.225


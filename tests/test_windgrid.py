import math
import os
import random
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_grid, grid_from_field
from windfleet import windgrid
from windfleet.errors import DataError
from windfleet.windgrid import (WindGrid, bilinear, cell_weights, grid_from_bytes,
                                grid_from_csv, grid_to_bytes, hub_height_speed,
                                load_windgrid, shear_exponent, speed_at_height,
                                speed_from_components, write_windgrid)


def small_grid():
    # 2 time steps, 2x2 cells; distinct values per cell
    u10 = [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]
    return grid_from_field(u10, np.zeros((2, 2, 2)),
                           np.asarray(u10) * 2.0, np.zeros((2, 2, 2)),
                           lons=[-100.0, -99.0], lats=[40.0, 41.0])


class TestWgrdFormat:
    def test_round_trip(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "g.wgrd"
        write_windgrid(grid, path)
        loaded = load_windgrid(path)
        assert loaded.t0 == grid.t0 and loaded.step == grid.step
        np.testing.assert_array_equal(loaded.lons, grid.lons)
        np.testing.assert_array_equal(loaded.lats, grid.lats)
        for var in windgrid.VARIABLES:
            np.testing.assert_array_equal(loaded.variable(var), grid.variable(var))

    def test_header_arithmetic(self):
        grid = const_grid(n_time=2)
        loaded = grid_from_bytes(grid_to_bytes(grid))
        assert loaded.n_time == 2
        assert loaded.u10.size == 8

    def test_bad_magic(self):
        data = bytearray(grid_to_bytes(small_grid()))
        data[:4] = b"XXXX"
        with pytest.raises(DataError, match="magic"):
            grid_from_bytes(bytes(data))

    def test_bad_version(self):
        data = bytearray(grid_to_bytes(small_grid()))
        data[4] = 9
        with pytest.raises(DataError, match="version"):
            grid_from_bytes(bytes(data))

    def test_truncation(self):
        data = grid_to_bytes(small_grid())
        with pytest.raises(DataError, match="truncated"):
            grid_from_bytes(data[:-8])

    def test_trailing_bytes(self):
        data = grid_to_bytes(small_grid()) + b"\x00\x00"
        with pytest.raises(DataError, match="trailing"):
            grid_from_bytes(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: b"XXXX" + d[4:], "magic"),
        (lambda d: d[:4] + b"\x09" + d[5:], "version"),
        (lambda d: d[:20], "truncated WGRD header"),
        (lambda d: d[:-8], "truncated WGRD payload"),
        (lambda d: d + b"\x00\x00", "trailing"),
        (lambda d: d[:36] + struct.pack("<d", math.nan) + d[44:], "lats axis contains non-finite"),
        (lambda d: d[:-4] + struct.pack("<f", math.inf), "variable v100 contains non-finite"),
    ], ids=["magic", "version", "header", "truncated", "trailing", "nan_axis", "inf_last_value"])
    def test_file_checks(self, tmp_path, edit, message):
        path = tmp_path / "g.wgrd"
        path.write_bytes(edit(grid_to_bytes(small_grid())))
        with pytest.raises(DataError, match=message):
            load_windgrid(path)

    def test_file_payload_checked_in_bounded_reads(self, tmp_path, monkeypatch):
        # a window of 3 values: every variable is read in several parts,
        # the last one short, and a NaN inside u100 is still found
        monkeypatch.setattr(windgrid, "WINDOW_VALUES", 3)
        path = tmp_path / "g.wgrd"
        write_windgrid(small_grid(), path)
        assert load_windgrid(path).n_time == 2
        data = bytearray(path.read_bytes())
        u100_second_stamp = 36 + 8 * 4 + 4 * (2 * 8 + 4)
        data[u100_second_stamp:u100_second_stamp + 4] = struct.pack("<f", math.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="variable u100 contains non-finite"):
            load_windgrid(path)

    def test_nan_in_last_window_of_memory_grid(self, monkeypatch):
        """The finite check reads an in-memory grid through the same windows:
        a NaN in the last stamp of v100 is found in a window of one stamp."""
        monkeypatch.setattr(windgrid, "WINDOW_VALUES", 3)
        grid = small_grid()
        grid.validate()
        grid.v100[-1, -1, -1] = np.nan
        with pytest.raises(DataError, match="variable v100 contains non-finite"):
            grid.validate()

    def test_one_payload_read_site(self):
        """Every read of a WGRD payload goes through ``stamp_windows``: one
        ``_pread_into`` call site and no ``readinto``."""
        lines = Path(windgrid.__file__).read_text(encoding="utf-8").splitlines()
        calls = [line for line in lines
                 if "_pread_into(" in line and not line.startswith("def ")]
        assert len(calls) == 1, calls
        assert not any("readinto" in line for line in lines)

    def test_one_header_parse_site(self):
        """Bytes and files go through one WGRD parser: one ``_read_header``
        call site."""
        lines = Path(windgrid.__file__).read_text(encoding="utf-8").splitlines()
        calls = [line for line in lines
                 if "_read_header(" in line and not line.startswith("def ")]
        assert len(calls) == 1, calls

    def test_loaded_payload_stays_on_disk(self, tmp_path):
        path = tmp_path / "g.wgrd"
        write_windgrid(small_grid(), path)
        loaded = load_windgrid(path)
        assert loaded.source.size == path.stat().st_size
        for var in windgrid.VARIABLES:
            arr = loaded.variable(var)
            assert isinstance(arr, np.memmap) and not arr.flags.writeable

    def test_non_monotonic_axis(self):
        grid = small_grid()
        grid.lons = np.asarray([-99.0, -100.0])
        with pytest.raises(DataError, match="ascending"):
            grid_to_bytes(grid)

    def test_non_finite_payload(self):
        grid = small_grid()
        grid.u10[0, 0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            grid_to_bytes(grid)

    @pytest.mark.parametrize("step", [0, -3600])
    def test_invalid_grid_writes_no_file(self, tmp_path, step):
        grid = small_grid()
        grid.step = step
        path = tmp_path / "g.wgrd"
        with pytest.raises(DataError, match="step must be positive"):
            write_windgrid(grid, path)
        assert not path.exists()

    def test_zero_windows_are_file_holes(self, tmp_path):
        """The 1 MiB v10 and v100 of a calm grid take no disk blocks where
        the file system keeps holes."""
        probe = tmp_path / "probe"
        with open(probe, "wb") as fh:
            fh.seek(1 << 20)
            fh.write(b"\0")
        if not hasattr(probe.stat(), "st_blocks") or probe.stat().st_blocks * 512 >= 1 << 20:
            pytest.skip("the file system does not keep holes")
        u = np.broadcast_to(np.float32(8.0), (4096, 8, 8))
        calm = np.broadcast_to(np.float32(0.0), u.shape)
        grid = WindGrid(lons=np.arange(8.0), lats=np.arange(8.0), t0=1262304000, step=3600,
                        u10=u, v10=calm, u100=u, v100=calm)
        path = tmp_path / "g.wgrd"
        write_windgrid(grid, path)
        assert path.read_bytes() == concatenated_bytes(grid)
        st = path.stat()
        assert st.st_blocks * 512 < st.st_size - (1 << 20), (st.st_blocks, st.st_size)


def windowed_fields(case):
    """(u10, v10, u100, v100) over 9 stamps of 2x2 nodes, random but for
    the zero windows of ``case``; with 8 values a window, each variable is
    five windows of 2, 2, 2, 2 and 1 stamps."""
    rng = np.random.default_rng(17)
    fields = [rng.random((9, 2, 2), dtype=np.float32) * 10.0 + 1.0 for _ in range(4)]
    if case == "zeros-first":
        fields[0][:2] = 0.0
    elif case == "zeros-middle":
        fields[1][:] = 0.0
        fields[2][4:6] = 0.0
    elif case == "zeros-last":
        fields[2][8] = 0.0
        fields[3][:] = 0.0
    elif case == "negative-zero":
        fields[1][2:4] = -0.0
        fields[3][:] = -0.0
    elif case == "float64":
        fields = [f.astype(np.float64) * 1.1 for f in fields]  # not all exact in f32
        fields[3][6:] = 0.0
    elif case == "broadcast":  # the synth grid's fields: one value per stamp, a scalar 0
        calm = np.broadcast_to(np.float32(0.0), (9, 2, 2))
        per_stamp = np.broadcast_to(fields[0][:, :1, :1], (9, 2, 2))
        fields = [per_stamp, calm, per_stamp * np.float32(2.0), calm]
    return fields


def concatenated_bytes(grid):
    """The WGRD bytes of ``grid`` as one plain concatenation."""
    header = struct.pack("<4s4I2q", b"WGRD", 1, grid.n_time, len(grid.lats),
                         len(grid.lons), grid.t0, grid.step)
    return b"".join([header, grid.lats.astype("<f8").tobytes(),
                     grid.lons.astype("<f8").tobytes(),
                     *(np.asarray(grid.variable(name), "<f4").tobytes()
                       for name in windgrid.VARIABLES)])


class TestWindowedWriter:
    """The payload is written one window at a time, an all-zero window left
    as a hole where the destination can seek, and the bytes are those of
    every variable's f32 bytes in a row."""

    CASES = ["zeros-first", "zeros-middle", "zeros-last", "negative-zero", "float64",
             "broadcast"]

    @pytest.fixture(autouse=True)
    def small_windows(self, monkeypatch):
        monkeypatch.setattr(windgrid, "WINDOW_VALUES", 8)

    def grid(self, case):
        return WindGrid(lons=np.array([-100.0, -99.0]), lats=np.array([40.0, 41.0]),
                        t0=1262304000, step=3600,
                        **dict(zip(windgrid.VARIABLES, windowed_fields(case))))

    @pytest.mark.parametrize("case", CASES)
    def test_bytes(self, case):
        grid = self.grid(case)
        assert grid_to_bytes(grid) == concatenated_bytes(grid)

    @pytest.mark.parametrize("case", CASES)
    def test_file(self, case, tmp_path):
        grid = self.grid(case)
        write_windgrid(grid, tmp_path / "g.wgrd")
        assert (tmp_path / "g.wgrd").read_bytes() == concatenated_bytes(grid)

    def test_file_backed_grid(self, tmp_path):
        """A loaded grid is written from positioned reads of its file."""
        grid = self.grid("zeros-last")
        write_windgrid(grid, tmp_path / "a.wgrd")
        loaded = load_windgrid(tmp_path / "a.wgrd")
        write_windgrid(loaded, tmp_path / "b.wgrd")
        assert (tmp_path / "b.wgrd").read_bytes() == concatenated_bytes(grid)
        assert grid_to_bytes(loaded) == concatenated_bytes(grid)

    @pytest.mark.parametrize("link", [None, "hard", "symbolic"])
    def test_own_file_refused(self, tmp_path, link):
        """Opening the grid's own file for writing would truncate the payload
        the write reads: the write is refused and the file keeps its bytes."""
        path = tmp_path / "a.wgrd"
        write_windgrid(self.grid("zeros-middle"), path)
        before = path.read_bytes()
        loaded = load_windgrid(path)
        target = tmp_path / "link.wgrd"
        if link == "hard":
            os.link(path, target)
        elif link == "symbolic":
            target.symlink_to(path)
        else:
            target = path
        with pytest.raises(DataError, match="over its own file"):
            write_windgrid(loaded, target)
        assert path.read_bytes() == before
        assert grid_to_bytes(loaded) == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    @pytest.mark.parametrize("case", ["zeros-first", "zeros-last"])
    def test_destination_that_cannot_seek(self, case, tmp_path):
        """A pipe cannot seek: the zero windows are written as zeros."""
        grid = self.grid(case)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            write_windgrid(grid, fifo)
        finally:
            reader.join(timeout=30)
        assert received == [concatenated_bytes(grid)]


class TestBilinear:
    def test_exact_at_nodes(self):
        grid = small_grid()
        for j, lat in enumerate(grid.lats):
            for i, lon in enumerate(grid.lons):
                assert bilinear(grid, "u10", 1, lon, lat) == grid.u10[1, j, i]

    def test_cell_center_average(self):
        grid = small_grid()
        value = bilinear(grid, "u10", 0, -99.5, 40.5)
        assert value == pytest.approx(2.5, rel=1e-15)

    def test_constant_field(self):
        grid = const_grid(v10=7.25)
        for lon, lat in [(-98.0, 36.5), (-100.0, 40.0), (-95.3, 35.0)]:
            assert bilinear(grid, "u10", 3, lon, lat) == pytest.approx(7.25, rel=1e-7)

    def test_outside_domain(self):
        grid = small_grid()
        with pytest.raises(DataError, match="outside grid"):
            bilinear(grid, "u10", 0, -101.0, 40.5)
        with pytest.raises(DataError, match="outside grid"):
            bilinear(grid, "u10", 0, -99.5, 42.0)

    def test_time_index_bounds(self):
        with pytest.raises(ValueError, match="time index"):
            bilinear(small_grid(), "u10", 2, -99.5, 40.5)

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            bilinear(small_grid(), "u50", 0, -99.5, 40.5)

    def test_result_within_corner_range(self):
        grid = small_grid()
        rng = random.Random(5)
        for _ in range(200):
            lon = rng.uniform(-100.0, -99.0)
            lat = rng.uniform(40.0, 41.0)
            v = bilinear(grid, "u100", 1, lon, lat)
            corners = grid.u100[1].ravel()
            assert corners.min() - 1e-9 <= v <= corners.max() + 1e-9


@st.composite
def axis_and_points(draw, n_points):
    """An ascending axis of 1–5 nodes and ``n_points`` points on it: nodes,
    the upper edge among them, and points inside."""
    steps = draw(st.lists(st.floats(0.01, 5.0), min_size=0, max_size=4))
    axis = draw(st.floats(-180.0, 170.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    inside = st.floats(float(axis[0]), float(axis[-1]))
    points = draw(st.lists(st.one_of(st.sampled_from(axis.tolist()), inside),
                           min_size=n_points, max_size=n_points))
    return axis, np.asarray(points)


@st.composite
def grid_and_points(draw):
    """A one-stamp grid and 1–12 points on it, as lon and lat arrays."""
    n = draw(st.integers(1, 12))
    lons, lon = draw(axis_and_points(n))
    lats, lat = draw(axis_and_points(n))
    return const_grid(n_time=1, lons=lons, lats=lats), lon, lat


class TestCellWeights:
    """``cell_weights`` on arrays of points gives each point the bits it gets
    alone."""

    @settings(max_examples=300, deadline=None)
    @given(case=grid_and_points())
    def test_arrays_match_points(self, case):
        grid, lon, lat = case
        arrays = np.stack([np.asarray(v, dtype=np.float64)
                           for v in cell_weights(grid, lon, lat)], axis=1)
        points = np.asarray([[float(v) for v in cell_weights(grid, x, y)]
                             for x, y in zip(lon.tolist(), lat.tolist())])
        assert arrays.tobytes() == points.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=grid_and_points(), axis=st.sampled_from(["lon", "lat"]),
           past=st.floats(1e-6, 1e3), above=st.booleans(), data=st.data())
    def test_point_outside_names_its_axis(self, case, axis, past, above, data):
        grid, lon, lat = case
        points = {"lon": lon, "lat": lat}
        edges = grid.lons if axis == "lon" else grid.lats
        k = data.draw(st.integers(0, len(lon) - 1))
        points[axis][k] = edges[-1] + past if above else edges[0] - past
        with pytest.raises(DataError, match=f"^{axis} .* outside grid range"):
            cell_weights(grid, points["lon"], points["lat"])


class TestSpeedFromComponents:
    def test_pythagorean(self):
        assert speed_from_components(3.0, 4.0) == 5.0

    def test_zero(self):
        assert speed_from_components(0.0, 0.0) == 0.0

    def test_sign_symmetry(self):
        assert speed_from_components(-3.0, 4.0) == 5.0
        rng = random.Random(2)
        for _ in range(50):
            u, v = rng.uniform(-30, 30), rng.uniform(-30, 30)
            s = speed_from_components(u, v)
            assert speed_from_components(-u, -v) == s
            assert speed_from_components(v, u) == s


class TestShearExponent:
    def test_doubling(self):
        assert shear_exponent(5.0, 10.0) == pytest.approx(math.log10(2), rel=1e-15)

    def test_equal_speeds(self):
        assert shear_exponent(7.0, 7.0) == 0.0

    def test_calm_fallback_counts(self):
        assert shear_exponent(0.0, 5.0) == 0.0
        assert shear_exponent(5.0, 0.0) == 0.0


class TestSpeedAtHeight:
    def test_anchor_identity(self):
        assert speed_at_height(9.37, 0.41, 100.0) == 9.37

    def test_worked_case(self):
        vh = speed_at_height(10.0, math.log10(2), 50.0)
        assert vh == pytest.approx(8.116727049819131, rel=1e-12)
        assert vh == pytest.approx(8.1167, abs=1e-3)

    def test_zero_shear(self):
        for h in (10.0, 50.0, 150.0):
            assert speed_at_height(6.5, 0.0, h) == 6.5

    def test_bad_height(self):
        with pytest.raises(ValueError):
            speed_at_height(10.0, 0.1, 0.0)

    def test_monotonicity_in_height(self):
        hs = [20.0, 50.0, 100.0, 160.0]
        up = [speed_at_height(8.0, 0.2, h) for h in hs]
        down = [speed_at_height(8.0, -0.2, h) for h in hs]
        assert up == sorted(up)
        assert down == sorted(down, reverse=True)

    def test_round_trip_recovers_v10(self):
        rng = random.Random(9)
        for _ in range(500):
            v10 = rng.uniform(0.1, 25.0)
            v100 = rng.uniform(0.1, 30.0)
            alpha = shear_exponent(v10, v100)
            back = speed_at_height(v100, alpha, 10.0)
            assert abs(back - v10) <= 1e-12 * v10


class TestHubHeightSpeed:
    def test_uniform_field_no_shear(self):
        grid = const_grid(v10=8.0, v100=8.0)
        for h in (30.0, 76.0, 120.0):
            assert hub_height_speed(grid, -97.0, 37.0, 0, h) == pytest.approx(8.0, rel=1e-7)

    def test_anchor_height(self):
        grid = const_grid(v10=5.0, v100=10.0)
        assert hub_height_speed(grid, -97.0, 37.0, 5, 100.0) == pytest.approx(10.0, rel=1e-7)

    def test_half_height(self):
        grid = const_grid(v10=5.0, v100=10.0)
        v = hub_height_speed(grid, -97.0, 37.0, 5, 50.0)
        assert v == pytest.approx(8.116727049819131, rel=1e-6)


class TestGridFromCsv:
    def csv_text(self, rows):
        return "time_index,lat,lon,u10,v10,u100,v100\n" + "\n".join(rows) + "\n"

    def complete_rows(self):
        rows = []
        for t in range(2):
            for lat in (40.0, 41.0):
                for lon in (-100.0, -99.0):
                    rows.append(f"{t},{lat},{lon},1.5,0,3.5,0")
        return rows

    def test_complete_grid(self):
        grid = grid_from_csv(self.csv_text(self.complete_rows()), t0=0)
        assert grid.n_time == 2
        assert list(grid.lons) == [-100.0, -99.0]
        assert grid.u100[1, 0, 1] == pytest.approx(3.5)

    def test_missing_cell(self):
        with pytest.raises(DataError, match="ragged grid"):
            grid_from_csv(self.csv_text(self.complete_rows()[:-1]), t0=0)

    def test_duplicate_cell(self):
        rows = self.complete_rows()
        rows.append(rows[0])
        with pytest.raises(DataError, match="duplicate"):
            grid_from_csv(self.csv_text(rows), t0=0)

    def test_round_trip_f32(self):
        # values survive CSV -> WGRD -> load at f32 precision
        value = 3.14159
        rows = [f"0,40.0,{lon},{value},0,{value},0" for lon in (-100.0, -99.0)]
        grid = grid_from_csv(self.csv_text(rows), t0=0)
        loaded = grid_from_bytes(grid_to_bytes(grid))
        assert loaded.u10[0, 0, 0] == np.float32(value)

    def test_descending_source_rows_reordered(self):
        # descending-latitude sources are normalized to ascending axes
        grid = grid_from_csv(self.csv_text(self.complete_rows()[::-1]), t0=0)
        assert list(grid.lats) == [40.0, 41.0]
        assert list(grid.lons) == [-100.0, -99.0]

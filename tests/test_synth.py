import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_grid, fleet_of, grid_from_field, turbine
from windfleet.errors import DataError
from windfleet.fleet import parse_turbine_csv, preprocess
from windfleet.powerflux import aggregate_pin, cube_sums, parse_generation_csv, pout_series
from windfleet.synth import (SplitMix64, SynthSpec, WindModel, _box_muller,
                             broadcast_windgrid, brute_force_pin, generate_fleet,
                             generate_generation, generate_windgrid, make_windgrid)
from windfleet.windgrid import VARIABLES, grid_from_bytes, grid_to_bytes


#: seeds at the edges of the 64-bit state: negative, zero, 2**63 and beyond 2**64
EDGE_SEEDS = (-1, -12345, 0, 1, 2 ** 63, 2 ** 64 + 7, 2 ** 70)

_MASK64 = (1 << 64) - 1


class ScalarSplitMix64:
    """The reference generator: the splitmix64 recurrence on one Python int
    at a time, with the scalar uniform and Box-Muller formulas."""

    def __init__(self, seed):
        self.state = seed & _MASK64
        self.spare = None

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self, mean, sd):
        if self.spare is not None:
            z, self.spare = self.spare, None
        else:
            u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
            u2 = (self.next_u64() >> 11) * 2.0 ** -53
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self.spare = r * math.sin(2.0 * math.pi * u2)
        return mean + sd * z


def reference_fleet(spec, seed):
    """``generate_fleet`` one row at a time: two ``uniform`` draws, ``repr``
    of every float and a ``csv.writer`` row per turbine."""
    rng = ScalarSplitMix64(seed)
    lon0, lon1, lat0, lat1 = spec.bbox
    years = spec.year_list()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["case_id", "xlong", "ylat", "p_year", "t_hh", "t_rd",
                     "t_cap", "is_decommissioned", "d_year"])
    for i in range(spec.n_turbines):
        year = years[i % len(years)]
        k = year - years[0]
        lon = rng.uniform(lon0, lon1)
        lat = rng.uniform(lat0, lat1)
        hub = spec.hub_trend[0] + spec.hub_trend[1] * k
        rotor = spec.rotor_trend[0] + spec.rotor_trend[1] * k
        writer.writerow([f"S{i:05d}", repr(lon), repr(lat), year, repr(hub),
                         repr(rotor), repr(spec.capacity_kw(rotor)), "false", ""])
    return out.getvalue().encode("utf-8")


def reference_speeds(model, rng, hour_index):
    """(v10, v100) of one cell-hour by the scalar formulas; draws at most
    one normal from ``rng``."""
    if model.kind == "constant":
        return model.params
    if model.kind == "sinusoidal":
        mean, amplitude, period = model.params
        v100 = max(0.0, mean + amplitude * math.sin(2.0 * math.pi * hour_index / period))
        return 0.8 * v100, v100
    mean, sd = model.params
    v100 = max(0.0, rng.normal(mean, sd))
    return 0.8 * v100, v100


def spec_of(**kwargs):
    defaults = dict(n_turbines=4, years=(2010, 2011),
                    wind=WindModel("constant", (5.0, 10.0)))
    defaults.update(kwargs)
    return SynthSpec(**defaults)


class TestSplitMix64:
    def test_canonical_vectors_seed_zero(self):
        # published reference outputs of the splitmix64 recurrence
        assert SplitMix64(0).draws(3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_draws_match_the_scalar_recurrence(self, seed):
        """Array draws of any length continue the recurrence where the last
        call left it."""
        rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        for count in (0, 1, 2, 3, 97):
            words = rng.draws(count)
            assert words.dtype == np.uint64
            assert words.tolist() == [ref.next_u64() for _ in range(count)]
            assert rng.state == ref.state

    def test_one_draw_wraps_without_a_warning(self):
        rng = SplitMix64(_MASK64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rng.draws(1).tolist() == [ScalarSplitMix64(_MASK64).next_u64()]
            rng.draws(2)

    def test_normal_moments(self):
        """The noise grid's normals are standard normals."""
        values = _box_muller(SplitMix64(7).draws(4000))
        assert np.mean(values) == pytest.approx(0.0, abs=0.075)
        assert np.std(values) == pytest.approx(1.0, abs=0.075)


class TestGenerateFleet:
    def test_matches_a_per_row_writer(self):
        for seed in EDGE_SEEDS:
            for n in (1, 2, 3, 97):
                spec = spec_of(n_turbines=n, years=(2010, 2014), hub_trend=(80.0, 2.5),
                               rotor_trend=(100.0, 3.3), bbox=(-101.25, -99.0, 36.0, 37.7))
                assert generate_fleet(spec, seed) == reference_fleet(spec, seed), (seed, n)

    def test_rows_per_year(self):
        data = generate_fleet(spec_of(), seed=1)
        records = parse_turbine_csv(data)
        assert len(records) == 4
        assert sum(1 for r in records if r.commissioning_year == 2010) == 2
        assert sum(1 for r in records if r.commissioning_year == 2011) == 2

    def test_deterministic(self):
        assert generate_fleet(spec_of(), 9) == generate_fleet(spec_of(), 9)
        assert generate_fleet(spec_of(), 9) != generate_fleet(spec_of(), 10)

    def test_hub_trend(self):
        data = generate_fleet(spec_of(hub_trend=(80.0, 2.0)), seed=1)
        for r in parse_turbine_csv(data):
            expected = 80.0 + 2.0 * (r.commissioning_year - 2010)
            assert r.hub_height == pytest.approx(expected)

    def test_placement_inside_bbox(self):
        spec = spec_of(n_turbines=50, bbox=(-101.0, -99.0, 36.0, 37.0))
        for r in parse_turbine_csv(generate_fleet(spec, 3)):
            assert -101.0 <= r.lon <= -99.0
            assert 36.0 <= r.lat <= 37.0


def coordinate(bound):
    """A coordinate drawn across, and often at, the registry's limit ``bound``."""
    return st.floats(-1.1 * bound, 1.1 * bound) | st.sampled_from([-bound, bound])


class TestSpecOnItsGrid:
    @settings(max_examples=100, deadline=None)
    @given(n_lat=st.integers(1, 4), n_lon=st.integers(1, 4),
           lons=st.tuples(coordinate(180.0), coordinate(180.0)),
           lats=st.tuples(coordinate(90.0), coordinate(90.0)),
           n_turbines=st.integers(1, 20), seed=st.integers(0, 2 ** 64))
    def test_a_spec_that_constructs_places_every_turbine_on_its_grid(
            self, n_lat, n_lon, lons, lats, n_turbines, seed):
        try:
            spec = spec_of(n_turbines=n_turbines, years=(2010, 2010), n_lat=n_lat,
                           n_lon=n_lon, bbox=(*sorted(lons), *sorted(lats)))
        except ValueError:
            return
        fleet = preprocess(parse_turbine_csv(generate_fleet(spec, seed)), set())
        sums = cube_sums(broadcast_windgrid(spec, seed + 1), fleet.turbines, ["hub"], (0, 24))
        assert np.isfinite(sums.sums).all()


class TestGenerateWindgrid:
    def test_constant_model_values(self):
        grid = grid_from_bytes(generate_windgrid(spec_of(), seed=2))
        assert float(grid.u10[0, 0, 0]) == 5.0
        assert float(grid.u100[-1, -1, -1]) == 10.0
        assert not grid.v10.any() and not grid.v100.any()
        assert grid.n_time == (365 + 365) * 24

    def test_sinusoidal_zero_amplitude_equals_constant(self):
        sin_spec = spec_of(wind=WindModel("sinusoidal", (10.0, 0.0, 720.0)))
        const_spec = spec_of(wind=WindModel("constant", (8.0, 10.0)))
        assert generate_windgrid(sin_spec, 5) == generate_windgrid(const_spec, 5)

    def test_deterministic_noise(self):
        spec = spec_of(wind=WindModel("noise", (8.0, 1.5)), years=(2010, 2010),
                       n_lat=2, n_lon=2)
        assert generate_windgrid(spec, 11) == generate_windgrid(spec, 11)

    def test_noise_nonnegative(self):
        spec = spec_of(wind=WindModel("noise", (1.0, 2.0)), years=(2010, 2010),
                       n_lat=2, n_lon=2)
        grid = grid_from_bytes(generate_windgrid(spec, 13))
        assert (grid.u100 >= 0).all()

    @pytest.mark.parametrize("wind", [
        WindModel("constant", (5.5, 9.25)),
        WindModel("sinusoidal", (6.0, 7.0, 30.0)),
        WindModel("noise", (4.0, 3.0)),
        pytest.param(WindModel("sinusoidal", (1.0, 3.0, 24.0)), id="sinusoidal-clipped"),
        pytest.param(WindModel("sinusoidal", (0.0, 5.0, 7.0)), id="sinusoidal-zero-mean"),
        pytest.param(WindModel("sinusoidal", (4.0, 0.0, 30.0)),
                     id="sinusoidal-zero-amplitude"),
        pytest.param(WindModel("sinusoidal", (-0.0, 0.0, 5.0)), id="sinusoidal-negative-zero"),
    ], ids=lambda w: w.kind)
    def test_matches_a_per_stamp_fill(self, wind):
        """The grid equals one filled a stamp (or, for noise, a cell-hour)
        at a time by the scalar formulas and generator, in time-lat-lon
        order."""
        spec = spec_of(wind=wind, years=(2010, 2010), n_lat=2, n_lon=3)
        rng = ScalarSplitMix64(21)
        shape = (8760, 2, 3)
        u10, u100 = np.empty(shape, np.float32), np.empty(shape, np.float32)
        for k in range(shape[0]):
            if wind.kind != "noise":
                u10[k], u100[k] = reference_speeds(wind, rng, k)
                continue
            for j in range(shape[1]):
                for i in range(shape[2]):
                    u10[k, j, i], u100[k, j, i] = reference_speeds(wind, rng, k)
        grid = make_windgrid(spec, 21)
        for name, expected in (("u10", u10), ("u100", u100)):
            actual = getattr(grid, name)
            assert actual.dtype == np.float32 and actual.flags.c_contiguous
            assert actual.tobytes() == expected.tobytes(), name
        assert not grid.v10.any() and not grid.v100.any()

    @pytest.mark.parametrize("wind, stamp_strides", [
        (WindModel("constant", (5.5, 9.25)), (0, 0, 0)),
        (WindModel("sinusoidal", (6.0, 7.0, 30.0)), (4, 0, 0)),
        (WindModel("noise", (4.0, 3.0)), (24, 12, 4)),
    ], ids=["constant", "sinusoidal", "noise"])
    def test_broadcast_fields(self, wind, stamp_strides):
        """The written grid's fields are read-only f32 views that broadcast
        one value, one an hour or (noise) one a cell-hour, and a scalar 0 for
        v; its bytes are those of ``make_windgrid``'s copies."""
        spec = spec_of(wind=wind, years=(2010, 2010), n_lat=2, n_lon=3)
        grid = broadcast_windgrid(spec, 21)
        for name in VARIABLES:
            field = grid.variable(name)
            assert field.dtype == np.float32 and not field.flags.writeable
            assert field.strides == (stamp_strides if name[0] == "u" else (0, 0, 0))
        assert generate_windgrid(spec, 21) == grid_to_bytes(make_windgrid(spec, 21))

    def test_bad_model(self):
        with pytest.raises(ValueError):
            WindModel("gusty", (1.0,))
        with pytest.raises(ValueError):
            WindModel("constant", (1.0,))

    def test_speeds_must_be_finite_in_float32(self):
        f32_max = float(np.finfo(np.float32).max)
        # the largest speed of each model: v100, mean + |amplitude|, and mean +
        # |sd| times the largest Box-Muller normal of 53-bit uniforms (~8.57),
        # which words 0, 0 reach: u1 = 2**-53 and cos(0) = 1
        assert _box_muller(np.zeros(2, np.uint64))[0] == math.sqrt(-2.0 * math.log(2.0 ** -53))
        for kind, params in (("constant", (0.0, f32_max)), ("sinusoidal", (2e38, -1.4e38, 24.0)),
                             ("noise", (1.0, 3.9e37))):
            WindModel(kind, params)
        for kind, params in (("constant", (3.5e38, 0.0)), ("sinusoidal", (2e38, -1.5e38, 24.0)),
                             ("noise", (1.0, -4e37))):
            with pytest.raises(ValueError, match="finite in float32"):
                WindModel(kind, params)


class TestGenerateGeneration:
    def build(self, spec, seed=1):
        fleet = preprocess(parse_turbine_csv(generate_fleet(spec, seed)), set())
        grid = grid_from_bytes(generate_windgrid(spec, seed + 1))
        return fleet, grid

    def test_round_trip_constant_efficiency(self):
        spec = spec_of(n_turbines=6, wind=WindModel("sinusoidal", (8.0, 2.0, 720.0)))
        fleet, grid = self.build(spec)
        data = generate_generation(fleet, grid, spec.true_efficiency, spec.years)
        energy = parse_generation_csv(data)
        for year in (2010, 2011):
            p_out = pout_series(energy, year)
            p_in = aggregate_pin(grid, fleet, year)
            assert p_out / p_in == pytest.approx(0.3, rel=1e-9)

    def test_linear_efficiency_recovered(self):
        spec = spec_of(n_turbines=4, years=(2010, 2012),
                       efficiency=(0.30, -0.01))
        fleet, grid = self.build(spec)
        data = generate_generation(fleet, grid, spec.true_efficiency, spec.years)
        energy = parse_generation_csv(data)
        for k, year in enumerate(range(2010, 2013)):
            ratio = pout_series(energy, year) / aggregate_pin(grid, fleet, year)
            assert ratio == pytest.approx(0.30 - 0.01 * k, rel=1e-9)

    def test_zero_wind_zero_generation(self):
        spec = spec_of(wind=WindModel("constant", (0.0, 0.0)), years=(2010, 2010))
        fleet, grid = self.build(spec)
        data = generate_generation(fleet, grid, spec.true_efficiency, spec.years)
        energy = parse_generation_csv(data)
        assert all(v == 0.0 for v in energy.values)


class TestBruteForcePin:
    def month_grid(self, seed, n_hours=744):
        rng = np.random.default_rng(seed)
        shape = (n_hours, 2, 2)
        u10 = rng.uniform(2.0, 8.0, shape)
        u100 = u10 * rng.uniform(1.1, 1.8, shape)
        return grid_from_field(u10, np.zeros(shape), u100, np.zeros(shape),
                               lons=[-100.0, -95.0], lats=[35.0, 40.0])

    def test_constant_closed_form(self):
        grid = const_grid(v10=8.0, v100=8.0, n_time=744)
        fleet = fleet_of([turbine("A", year=2009, rotor=2.0 / math.sqrt(math.pi))])
        assert brute_force_pin(grid, fleet, (2010, 1)) == pytest.approx(313.6, rel=1e-9)

    def test_empty_fleet(self):
        assert brute_force_pin(const_grid(n_time=744), fleet_of([]), (2010, 1)) == 0.0

    def test_empty_fleet_still_validates_the_period(self):
        with pytest.raises(ValueError, match="month 13 outside 1..12"):
            brute_force_pin(const_grid(n_time=744), fleet_of([]), (2010, 13))
        with pytest.raises(DataError, match="not covered"):
            brute_force_pin(const_grid(n_time=744), fleet_of([]), (2010, 2))

    def test_own_climate_mode_check(self):
        with pytest.raises(ValueError, match="unknown climate mode 'hourly'"):
            brute_force_pin(const_grid(n_time=744), fleet_of([]), (2010, 1),
                            climate_mode="hourly")

    def test_guard(self):
        grid = const_grid(n_time=8760)
        fleet = fleet_of([turbine(f"T{i}", year=2009) for i in range(1200)])
        with pytest.raises(ValueError, match="too large"):
            brute_force_pin(grid, fleet, 2010)

    def test_matches_aggregate_on_random_instances(self):
        rng = random.Random(99)
        for trial in range(3):
            grid = self.month_grid(trial)
            recs = [turbine(f"T{i}", lon=rng.uniform(-100, -95),
                            lat=rng.uniform(35, 40), year=rng.choice([2009, 2010]),
                            hub=rng.uniform(60, 120), rotor=rng.uniform(40, 120))
                    for i in range(rng.randint(1, 4))]
            fleet = fleet_of(recs)
            for height in ("hub", 76.0):
                for climate in ("actual", "long_term_average"):
                    fast = aggregate_pin(grid, fleet, (2010, 1), height, climate)
                    slow = brute_force_pin(grid, fleet, (2010, 1), height, climate)
                    assert fast == pytest.approx(slow, rel=1e-9)


_SYNTH_CHILD = """
import json, sys
from pathlib import Path

# imported before the baseline, so the growth counts no module code
from windfleet import cli, fleet, powerflux, synth, windgrid


def peak_kb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])


before = peak_kb()
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "growth_kb": peak_kb() - before}))
"""


class TestBoundedMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="needs /proc/self/status for the peak RSS")
    def test_synth_memory_does_not_grow_with_file(self, tmp_path):
        """``synth`` writes a sinusoidal grid (one value an hour, broadcast)
        and runs the generation pass on it without holding its payload: a
        1-year 27x27 grid is a 102 MB file, its u10 and u100 alone 51 MB."""
        import windfleet
        src = Path(windfleet.__file__).resolve().parents[1]
        out = tmp_path / "bundle"
        proc = subprocess.run(
            [sys.executable, "-c", _SYNTH_CHILD, "synth", "--out", str(out),
             "--n-turbines", "3", "--years", "2010:2010", "--grid", "27x27",
             "--wind", "sinusoidal:8,2,720"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.splitlines()[-1])
        size = (out / "wind.wgrd").stat().st_size
        assert child["code"] == 0 and size >= 100e6
        assert child["growth_kb"] * 1024 < 0.25 * size, (child["growth_kb"], size)

import math
import random

import numpy as np
import pytest

from conftest import const_grid, fleet_of, grid_from_field, turbine
from windfleet.errors import DataError
from windfleet.fleet import parse_turbine_csv, preprocess
from windfleet.powerflux import aggregate_pin, parse_generation_csv, pout_series
from windfleet.synth import (SplitMix64, SynthSpec, WindModel, brute_force_pin,
                             _speeds_at, generate_fleet, generate_generation,
                             generate_windgrid, make_windgrid)
from windfleet.windgrid import grid_from_bytes


def spec_of(**kwargs):
    defaults = dict(n_turbines=4, years=(2010, 2011),
                    wind=WindModel("constant", (5.0, 10.0)))
    defaults.update(kwargs)
    return SynthSpec(**defaults)


class TestSplitMix64:
    def test_canonical_vectors_seed_zero(self):
        # published reference outputs of the splitmix64 recurrence
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_uniform_range(self):
        rng = SplitMix64(123)
        values = [rng.uniform(2.0, 3.0) for _ in range(1000)]
        assert all(2.0 <= v < 3.0 for v in values)

    def test_normal_moments(self):
        rng = SplitMix64(7)
        values = [rng.normal(10.0, 2.0) for _ in range(4000)]
        assert np.mean(values) == pytest.approx(10.0, abs=0.15)
        assert np.std(values) == pytest.approx(2.0, abs=0.15)


class TestGenerateFleet:
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

    @pytest.mark.parametrize("wind", [WindModel("constant", (5.5, 9.25)),
                                      WindModel("sinusoidal", (6.0, 7.0, 30.0)),
                                      WindModel("noise", (4.0, 3.0))],
                             ids=lambda w: w.kind)
    def test_matches_a_per_stamp_fill(self, wind):
        """The grid equals one filled a stamp (or, for noise, a cell-hour)
        at a time with the same ``_speeds_at`` draws, in time-lat-lon order."""
        spec = spec_of(wind=wind, years=(2010, 2010), n_lat=2, n_lon=3)
        rng = SplitMix64(21)
        shape = (8760, 2, 3)
        u10, u100 = np.empty(shape, np.float32), np.empty(shape, np.float32)
        for k in range(shape[0]):
            if wind.kind != "noise":
                u10[k], u100[k] = _speeds_at(wind, rng, k)
                continue
            for j in range(shape[1]):
                for i in range(shape[2]):
                    u10[k, j, i], u100[k, j, i] = _speeds_at(wind, rng, k)
        grid = make_windgrid(spec, 21)
        for name, expected in (("u10", u10), ("u100", u100)):
            actual = getattr(grid, name)
            assert actual.dtype == np.float32 and actual.flags.c_contiguous
            assert actual.tobytes() == expected.tobytes(), name
        assert not grid.v10.any() and not grid.v100.any()

    def test_bad_model(self):
        with pytest.raises(ValueError):
            WindModel("gusty", (1.0,))
        with pytest.raises(ValueError):
            WindModel("constant", (1.0,))


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

"""Acceptance gate: one test per contract criterion, each printing a
PASS line when it holds.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.

 1. constant-wind closed form (313.6 W/m² in every year and mode)
 2. four-factor product reconstructs output power
 3. additive effects telescope back to input power density
 4. chunked aggregation matches the naive triple-loop reference
 5. shear round trip recovers the 10 m speed
 6. counterfactual efficiency contract (mean kept, fallback, planted slope)
 7. manufactured generation round-trips the planted efficiency
 8. report bundle is byte-identical across worker counts
 9. desk-scale throughput and bit-identity across worker counts
 9b. ≥2× wall-time speedup at 4 workers (needs ≥4 physical cores)
10. validation algebra (relative difference, scenario monotonicity)
11. ratio of sums is the denominator-weighted mean of ratios
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import fleet_of, grid_from_field, physical_cores, turbine
from windfleet.cli import main
from windfleet.decomp import additive_pin_decomposition, multiplicative_decomposition
from windfleet.fleet import (ScenarioSpec, annual_swept_area, parse_turbine_csv,
                             preprocess)
from windfleet.powerflux import aggregate_pin, annual_pin_series, pout_series, \
    parse_generation_csv, system_efficiency
from windfleet.series import AnnualSeries
from windfleet.synth import (SynthSpec, WindModel, brute_force_pin,
                             generate_fleet, generate_generation,
                             generate_windgrid)
from windfleet.trends import counterfactual_efficiency, ols_fit
from windfleet.validate import relative_difference, scenario_capacity
from windfleet.windgrid import grid_from_bytes, shear_exponent, speed_at_height

UNIT_ROTOR = 2.0 / math.sqrt(math.pi)  # rotor diameter giving 1 m² swept area
PHYSICAL_CORES = physical_cores()


def report(n, name):
    print(f"[acceptance] criterion {n:>2} ({name}): PASS")


def build_universe(spec, seed=42):
    fleet = preprocess(parse_turbine_csv(generate_fleet(spec, seed)), set())
    grid = grid_from_bytes(generate_windgrid(spec, seed + 1))
    return fleet, grid


def test_01_constant_wind_closed_form():
    start = time.perf_counter()
    spec = SynthSpec(n_turbines=100, years=(2010, 2012),
                     wind=WindModel("constant", (8.0, 8.0)),
                     hub_trend=(80.0, 0.0), rotor_trend=(UNIT_ROTOR, 0.0))
    fleet, grid = build_universe(spec)
    years = range(2010, 2013)
    span = (2010, 2012)
    area = annual_swept_area(fleet, years)

    expected = 0.5 * 1.225 * 8.0 ** 3  # 313.6
    modes = {"hub_actual": ("hub", "actual"),
             "hub_average": ("hub", "long_term_average"),
             "ref_average": (76.0, "long_term_average")}
    pins = {}
    for label, (height, climate) in modes.items():
        pins[label] = annual_pin_series(grid, fleet, years, height, climate, span)
        for year in years:
            density = pins[label].value(year) / area.value(year)
            assert density == pytest.approx(expected, rel=1e-9), (label, year)

    add, _ = additive_pin_decomposition(pins["hub_actual"], pins["hub_average"],
                                        pins["ref_average"], area, 2010)
    baseline = add.baseline
    assert baseline == pytest.approx(expected, rel=1e-9)
    for effect in (add.new_locations, add.hub_height, add.annual_variation):
        for v in effect.values:
            assert abs(v) <= 1e-9 * baseline

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"constant-wind check took {elapsed:.2f}s"
    report(1, "constant-wind closed form")


def test_02_multiplicative_identity_randomized():
    rng = random.Random(101)
    for _ in range(100):
        length = rng.randint(1, 12)
        n = AnnualSeries(2010, [rng.uniform(1, 1e4) for _ in range(length)], "count")
        area = AnnualSeries(2010, [rng.uniform(10, 1e7) for _ in range(length)], "m²")
        p_in = AnnualSeries(2010, [rng.uniform(1e3, 1e9) for _ in range(length)], "W")
        p_out = AnnualSeries(2010, [rng.uniform(1e2, 1e8) for _ in range(length)], "W")
        f, _ = multiplicative_decomposition(n, area, p_in, p_out)
        for i, expected in enumerate(p_out.values):
            product = (f.n.values[i] * f.area_per_turbine.values[i]
                       * f.input_density.values[i] * f.efficiency.values[i])
            assert abs(product - expected) <= 1e-12 * expected
    report(2, "four-factor product identity")


def test_03_additive_telescoping_randomized():
    rng = random.Random(103)
    for _ in range(100):
        length = rng.randint(1, 12)
        base_year = 2010 + rng.randrange(length)
        area = AnnualSeries(2010, [rng.uniform(1e5, 1e6) for _ in range(length)], "m²")
        p_in = AnnualSeries(2010, [rng.uniform(1e8, 2e9) for _ in range(length)], "W")
        p_avg = AnnualSeries(2010, [rng.uniform(1e8, 2e9) for _ in range(length)], "W")
        p_ref = AnnualSeries(2010, [rng.uniform(1e8, 2e9) for _ in range(length)], "W")
        add, _ = additive_pin_decomposition(p_in, p_avg, p_ref, area, base_year)
        for i in range(length):
            total = (add.baseline + add.new_locations.values[i]
                     + add.hub_height.values[i] + add.annual_variation.values[i])
            density = p_in.values[i] / area.values[i]
            assert abs(total - density) <= 1e-12 * density
        assert add.new_locations.values[base_year - 2010] == 0.0
    report(3, "additive telescoping identity")


def test_04_oracle_equivalence():
    rng = random.Random(104)
    np_rng = np.random.default_rng(104)
    for trial in range(20):
        shape = (744, 2, 2)  # January 2010
        u10 = np_rng.uniform(0.0, 9.0, shape)
        u100 = u10 * np_rng.uniform(1.05, 1.9, shape)
        grid = grid_from_field(u10, np.zeros(shape), u100, np.zeros(shape),
                               lons=[-100.0, -95.0], lats=[35.0, 40.0])
        recs = [turbine(f"T{i}", lon=rng.uniform(-100, -95), lat=rng.uniform(35, 40),
                        year=rng.choice([2009, 2010, 2011]),
                        hub=rng.uniform(50, 130), rotor=rng.uniform(30, 130))
                for i in range(rng.randint(1, 10))]
        fleet = fleet_of(recs)
        for height in ("hub", 76.0):
            for climate in ("actual", "long_term_average"):
                fast = aggregate_pin(grid, fleet, (2010, 1), height, climate)
                slow = brute_force_pin(grid, fleet, (2010, 1), height, climate)
                if slow == 0.0:
                    assert fast == 0.0
                else:
                    assert abs(fast - slow) <= 1e-9 * abs(slow), (trial, height, climate)
    report(4, "oracle equivalence")


def test_05_shear_round_trip():
    rng = random.Random(105)
    for _ in range(1000):
        v10 = rng.uniform(1e-3, 40.0)
        v100 = rng.uniform(1e-3, 45.0)
        alpha = shear_exponent(v10, v100)
        back = speed_at_height(v100, alpha, 10.0)
        assert abs(back - v10) <= 1e-12 * v10
    worked = speed_at_height(10.0, shear_exponent(5.0, 10.0), 50.0)
    assert worked == pytest.approx(8.1167, abs=1e-3)
    report(5, "shear round trip")


def test_06_counterfactual_contract():
    rng = random.Random(106)
    for _ in range(50):
        n = rng.randint(3, 15)
        e = AnnualSeries(2010, [rng.uniform(0.1, 0.5) for _ in range(n)], "dimensionless")
        d = AnnualSeries(2010, [rng.uniform(200, 600) for _ in range(n)], "W/m²")
        cf = counterfactual_efficiency(e, d).series
        assert sum(cf.values) / n == pytest.approx(sum(e.values) / n, rel=1e-12)

    e = AnnualSeries(2010, [0.31, 0.26, 0.33, 0.30], "dimensionless")
    d_const = AnnualSeries(2010, [400.0] * 4, "W/m²")
    assert counterfactual_efficiency(e, d_const).series.values == e.values

    planted = -0.01 / 3.0
    spec = SynthSpec(n_turbines=4, years=(2010, 2019), n_lat=2, n_lon=2,
                     wind=WindModel("constant", (6.0, 8.0)),
                     efficiency=(0.30, planted))
    fleet, grid = build_universe(spec, seed=7)
    gen = parse_generation_csv(
        generate_generation(fleet, grid, spec.true_efficiency, spec.years))
    efficiency = []
    for year in range(2010, 2020):
        efficiency.append(pout_series(gen, year) / aggregate_pin(grid, fleet, year))
    slope = ols_fit(list(range(2010, 2020)), efficiency).slope
    assert abs(slope - planted) <= 1e-9 * abs(planted)
    report(6, "counterfactual contract")


def test_07_round_trip_efficiency():
    spec = SynthSpec(n_turbines=12, years=(2010, 2011),
                     wind=WindModel("sinusoidal", (8.0, 3.0, 720.0)),
                     hub_trend=(80.0, 3.0), efficiency=(0.3, 0.0))
    fleet, grid = build_universe(spec, seed=21)
    gen = parse_generation_csv(
        generate_generation(fleet, grid, spec.true_efficiency, spec.years))
    for year in (2010, 2011):
        eff = system_efficiency(pout_series(gen, year),
                                aggregate_pin(grid, fleet, year))
        assert eff == pytest.approx(0.3, abs=1e-9)
    report(7, "round-trip efficiency recovery")


def test_08_worker_determinism(tmp_path):
    bundle = tmp_path / "bundle"
    assert main(["synth", "--out", str(bundle), "--n-turbines", "14",
                 "--years", "2010:2011", "--wind", "sinusoidal:8,2,480",
                 "--hub", "78,3", "--rotor", "90,4",
                 "--efficiency", "0.32,-0.004", "--seed", "33"]) == 0
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        assert main(["report", "--config", str(bundle / "run.conf"),
                     "--out", str(out), "--workers", str(workers)]) == 0
        outs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outs[1]) == sorted(outs[8])
    for name in outs[1]:
        assert outs[1][name] == outs[8][name], f"{name} differs between worker counts"
    assert any(name.endswith(".svg") for name in outs[1])
    report(8, "byte-identical reports across workers")


@pytest.fixture(scope="module")
def desk_universe():
    """1,000 turbines × 8,760 hours, shared by the criterion 9 tests."""
    spec = SynthSpec(n_turbines=1000, years=(2010, 2010), n_lat=4, n_lon=4,
                     wind=WindModel("constant", (6.5, 9.0)),
                     hub_trend=(80.0, 0.0), rotor_trend=(100.0, 0.0))
    fleet, grid = build_universe(spec, seed=11)
    assert grid.n_time == 8760 and len(fleet.turbines) == 1000
    aggregate_pin(grid, fleet, (2010, 1))  # warm caches before timing
    return fleet, grid


def best_of(universe, workers, repeats=3):
    fleet, grid = universe
    best = math.inf
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = aggregate_pin(grid, fleet, 2010, workers=workers)
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_09_desk_scale_performance(desk_universe):
    t1, v1 = best_of(desk_universe, 1)
    t4, v4 = best_of(desk_universe, 4)
    assert v1 == v4
    print(f"[acceptance] criterion  9 timing: single-thread {t1:.3f}s, "
          f"4 workers {t4:.3f}s, speedup {t1 / t4:.2f}x "
          f"on {PHYSICAL_CORES} physical cores")
    assert t1 < 10.0, f"single-threaded run took {t1:.2f}s"
    report(9, "desk-scale performance")


@pytest.mark.skipif(PHYSICAL_CORES < 4,
                    reason=f"4-worker speedup needs >=4 physical cores, "
                           f"found {PHYSICAL_CORES}")
def test_09b_desk_scale_parallel_speedup(desk_universe):
    t1, _ = best_of(desk_universe, 1)
    t4, _ = best_of(desk_universe, 4)
    assert t1 / t4 >= 2.0, (
        f"4-worker speedup {t1 / t4:.2f}x below 2x "
        f"(single {t1:.3f}s vs 4 workers {t4:.3f}s)")
    report("9b", "desk-scale parallel speedup")


def test_10_validation_algebra():
    b = AnnualSeries(2010, [40000.0, 46123.5, 52999.25], "MW")
    a = AnnualSeries(2010, [1.05 * v for v in b.values], "MW")
    for v in relative_difference(a, b).values:
        assert v == pytest.approx(5.0, rel=1e-12)

    rng = random.Random(110)
    for _ in range(50):
        recs = [turbine(f"T{i}", year=1990 + rng.randint(0, 25),
                        cap=rng.uniform(100, 3000)) for i in range(rng.randint(1, 20))]
        fleet = fleet_of(recs)
        years = range(2010, 2020)
        l_short, l_long = sorted(rng.sample(range(3, 40), 2))
        short = scenario_capacity(fleet, years, ScenarioSpec(lifetime_years=l_short))
        long = scenario_capacity(fleet, years, ScenarioSpec(lifetime_years=l_long))
        for s, l in zip(short.values, long.values):
            assert s <= l + 1e-12
    report(10, "validation algebra")


def test_11_ratio_of_averages():
    import warnings

    from windfleet.powerflux import BetzLimitWarning

    rng = random.Random(111)
    with warnings.catch_warnings():
        # unconstrained random pairs routinely exceed the physical ratio bound
        warnings.simplefilter("ignore", BetzLimitWarning)
        for _ in range(100):
            n = rng.randint(2, 24)
            a = [rng.uniform(0.5, 50.0) for _ in range(n)]
            b = [rng.uniform(0.5, 50.0) for _ in range(n)]
            ratio_of_sums = system_efficiency(sum(a) / n, sum(b) / n)
            mean_b = sum(b) / n
            weighted = sum((bi / mean_b) * (ai / bi) for ai, bi in zip(a, b)) / n
            assert ratio_of_sums == pytest.approx(weighted, rel=1e-12)

        a, b = (1.0, 4.0), (1.0, 2.0)
        ratio_of_sums = system_efficiency(sum(a) / 2, sum(b) / 2)
        plain_mean = (a[0] / b[0] + a[1] / b[1]) / 2
    assert ratio_of_sums == pytest.approx(5 / 3, rel=1e-12)
    assert plain_mean == pytest.approx(1.5, rel=1e-12)
    assert abs(ratio_of_sums - plain_mean) > 0.1
    report(11, "ratio-of-averages weighting")

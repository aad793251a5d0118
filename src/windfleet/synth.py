"""Synthetic fleets, wind grids and generation series with known ground
truth, plus a deliberately naive reference evaluation of input power.

Randomness comes from a self-contained splitmix64 generator so fixtures are
byte-identical across platforms and Python versions.
"""

from __future__ import annotations

import calendar
import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fleet import Fleet, operating_weight, rotor_swept_area
from .powerflux import RHO, period_year, _stamp_slice, _study_slice
from .windgrid import WindGrid, grid_to_bytes, hub_height_speed

#: cap on stamp×turbine evaluations accepted by the brute-force oracle
BRUTE_FORCE_GUARD = 10_000_000

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit add-xor-multiply recurrence.

    state += 0x9E3779B97F4A7C15; z = state; z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9; z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31.  Uniform doubles take the top 53 bits.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
        else:
            # Box-Muller; u1 shifted into (0, 1] so the log is defined
            u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
            u2 = (self.next_u64() >> 11) * 2.0 ** -53
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mean + sd * z


@dataclass(frozen=True)
class WindModel:
    """Declarative wind field: ``constant(v10, v100)``,
    ``sinusoidal(mean, amplitude, period_hours)`` or ``noise(mean, sd)``.

    The sinusoidal and noise models define the 100 m speed; the 10 m speed
    is a fixed 0.8 of it.  Speeds are written to the u component, v = 0.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        arity = {"constant": 2, "sinusoidal": 3, "noise": 2}
        if self.kind not in arity:
            raise ValueError(f"unknown wind model {self.kind!r}")
        if len(self.params) != arity[self.kind]:
            raise ValueError(f"{self.kind} model takes {arity[self.kind]} parameters")
        if not all(map(math.isfinite, self.params)):
            raise ValueError("wind model parameters must be finite")
        if self.kind == "constant" and (self.params[0] < 0 or self.params[1] < 0):
            raise ValueError("wind speeds must be nonnegative")
        if self.kind == "sinusoidal" and self.params[2] <= 0:
            raise ValueError("period must be positive")


@dataclass
class SynthSpec:
    """Everything needed to build a deterministic test universe."""

    n_turbines: int
    years: tuple[int, int]
    wind: WindModel
    n_lat: int = 3
    n_lon: int = 3
    bbox: tuple[float, float, float, float] = (-100.0, -95.0, 35.0, 40.0)
    hub_trend: tuple[float, float] = (80.0, 0.0)
    rotor_trend: tuple[float, float] = (100.0, 0.0)
    efficiency: tuple[float, float] = (0.3, 0.0)
    specific_power_w_m2: float = 300.0

    def __post_init__(self):
        if self.n_turbines <= 0 or self.n_lat <= 0 or self.n_lon <= 0:
            raise ValueError("counts must be positive")
        if self.years[0] > self.years[1]:
            raise ValueError("years must be an ascending (start, end) pair")
        if not all(map(math.isfinite, (*self.bbox, *self.hub_trend, *self.rotor_trend,
                                       *self.efficiency, self.specific_power_w_m2))):
            raise ValueError("bounding box, trends and specific power must be finite")
        lon0, lon1, lat0, lat1 = self.bbox
        if lon0 >= lon1 or lat0 >= lat1:
            raise ValueError("bounding box must have positive extent")
        span = self.years[1] - self.years[0]
        for (start, per_year), name in ((self.hub_trend, "hub"), (self.rotor_trend, "rotor")):
            if start <= 0 or start + per_year * span <= 0:
                raise ValueError(f"{name} trend must be positive in every year")
        if self.specific_power_w_m2 <= 0:
            raise ValueError("specific power must be positive")
        start, per_year = self.rotor_trend
        for rotor in (start, start + per_year * span):  # the extremes of a linear trend
            if not 0 < (cap_kw := self.capacity_kw(rotor)) < math.inf:
                raise ValueError(f"capacity {cap_kw!r} kW of a {rotor!r} m rotor "
                                 "must be positive and finite")

    def capacity_kw(self, rotor: float) -> float:
        """Registry capacity (kW) of a rotor of diameter ``rotor`` (m)."""
        return self.specific_power_w_m2 * rotor_swept_area(rotor) / 1000.0

    def true_efficiency(self, year: int) -> float:
        base, per_year = self.efficiency
        return base + per_year * (year - self.years[0])

    def year_list(self) -> list[int]:
        return list(range(self.years[0], self.years[1] + 1))


def generate_fleet(spec: SynthSpec, seed: int) -> bytes:
    """Turbine registry CSV: turbines round-robin across years, uniformly
    placed inside the bounding box, hub/rotor trends applied per year."""
    rng = SplitMix64(seed)
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


def _speeds_at(model: WindModel, rng: SplitMix64, hour_index: int) -> tuple[float, float]:
    """(v10, v100) for one cell-hour; draws at most one random value."""
    if model.kind == "constant":
        return model.params
    if model.kind == "sinusoidal":
        mean, amplitude, period = model.params
        v100 = max(0.0, mean + amplitude * math.sin(2.0 * math.pi * hour_index / period))
        return 0.8 * v100, v100
    mean, sd = model.params
    v100 = max(0.0, rng.normal(mean, sd))
    return 0.8 * v100, v100


def make_windgrid(spec: SynthSpec, seed: int) -> WindGrid:
    """Wind grid covering the requested years hourly on the requested grid."""
    rng = SplitMix64(seed)
    lon0, lon1, lat0, lat1 = spec.bbox
    lons = np.linspace(lon0, lon1, spec.n_lon)
    lats = np.linspace(lat0, lat1, spec.n_lat)
    t0 = calendar.timegm((spec.years[0], 1, 1, 0, 0, 0))
    t_end = calendar.timegm((spec.years[1] + 1, 1, 1, 0, 0, 0))
    n_time = (t_end - t0) // 3600

    shape = (n_time, spec.n_lat, spec.n_lon)
    # one (v10, v100) pair per cell-hour for noise, drawn time-major, then
    # lat, then lon; one per hour for sinusoidal wind; one for constant wind
    draws = {"constant": (1, 1, 1), "sinusoidal": (n_time, 1, 1)}.get(spec.wind.kind, shape)
    pairs = np.fromiter(itertools.chain.from_iterable(
        _speeds_at(spec.wind, rng, k)
        for k in range(draws[0]) for _ in range(draws[1] * draws[2])),
        dtype=np.float32, count=2 * math.prod(draws)).reshape(*draws, 2)
    u10, u100 = (np.broadcast_to(pairs[..., c], shape).copy() for c in (0, 1))
    zeros = np.zeros(shape, dtype=np.float32)
    return WindGrid(lons=lons, lats=lats, t0=t0, step=3600,
                    u10=u10, v10=zeros, u100=u100, v100=zeros)


def generate_windgrid(spec: SynthSpec, seed: int) -> bytes:
    """WGRD bytes of ``make_windgrid``."""
    return grid_to_bytes(make_windgrid(spec, seed))


def generate_generation(fleet: Fleet, grid: WindGrid, true_efficiency,
                        period: tuple[int, int]) -> bytes:
    """Monthly generation CSV manufactured so the pipeline's system
    efficiency recovers ``true_efficiency`` exactly.

    ``true_efficiency`` is a callable year -> efficiency; ``period`` is an
    inclusive (start_year, end_year) pair.  Monthly energy is
    efficiency(year) · monthly input power · hours, in MWh.
    """
    from .powerflux import hours_in_period, pin_series

    months = [(year, month) for year in range(period[0], period[1] + 1)
              for month in range(1, 13)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["year", "month", "net_generation_mwh"])
    for (year, month), p_in in zip(months, pin_series(grid, fleet, months)):
        energy_mwh = true_efficiency(year) * p_in * hours_in_period((year, month)) / 1e6
        writer.writerow([year, month, repr(float(energy_mwh))])
    return out.getvalue().encode("utf-8")


def brute_force_pin(grid: WindGrid, fleet: Fleet, period,
                    height_mode="hub", climate_mode: str = "actual",
                    study_span: tuple[int, int] | None = None) -> float:
    """Reference input power: plain triple loop, scalar math, naive summation.

    Oracle for the chunked vectorized aggregation; guarded against instances
    large enough to make the loop unreasonable.
    """
    if climate_mode not in ("actual", "long_term_average"):
        raise ValueError(f"unknown climate mode {climate_mode!r}")
    turbines = fleet.turbines
    k0, k1 = _stamp_slice(grid, period)
    if not turbines:
        return 0.0
    if climate_mode == "long_term_average":
        sk0, sk1 = _study_slice(grid, study_span)
        evals = len(turbines) * ((sk1 - sk0) + (k1 - k0))
    else:
        evals = len(turbines) * (k1 - k0)
    if evals > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute-force instance too large: {evals} point evaluations")

    year = period_year(period)
    total = 0.0
    for rec in turbines:
        w = operating_weight(rec, year)
        if w == 0.0:
            continue
        area = rotor_swept_area(rec.rotor_diameter)
        height = rec.hub_height if height_mode == "hub" else float(height_mode)
        if climate_mode == "long_term_average":
            lo, hi = sk0, sk1
        else:
            lo, hi = k0, k1
        cube_sum = 0.0
        for t in range(lo, hi):
            v = hub_height_speed(grid, rec.lon, rec.lat, t, height)
            cube_sum += v ** 3
        total += w * 0.5 * RHO * area * cube_sum / (hi - lo)
    return total

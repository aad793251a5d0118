"""Synthetic fleets, wind grids and generation series with known ground
truth, plus a deliberately naive reference evaluation of input power.

Randomness comes from a self-contained splitmix64 generator so fixtures are
byte-identical across platforms and Python versions.  The generators work on
whole arrays: one ``SplitMix64.draws`` call gives every random word a fleet
or a noise grid needs, a sinusoidal grid's hours are one array, and each
commissioning year's registry fields are formatted once.  Their bytes are
those of a loop that draws and formats one value at a time: every formula
keeps its scalar operation order, and ``math.sin``, ``math.cos`` and
``math.log`` are mapped over the arrays, since numpy's own functions may
differ from them in the last bit.
"""

from __future__ import annotations

import calendar
import csv
import io
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .fleet import REQUIRED_COLUMNS, Fleet, operating_weight, rotor_swept_area

if TYPE_CHECKING:  # the grid and kernel modules are imported where they run
    from .windgrid import WindGrid

#: cap on stamp×turbine evaluations accepted by the brute-force oracle
BRUTE_FORCE_GUARD = 10_000_000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64: 64-bit add-xor-multiply recurrence.

    state += 0x9E3779B97F4A7C15; z = state; z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9; z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31.  Uniform doubles take the top 53 bits.

    ``draws(count)`` mixes the next ``count`` states as one uint64 array
    (the k-th is state + k·0x9E3779B97F4A7C15 mod 2⁶⁴), so every value comes
    from that one mixer and equals the k-th step of the recurrence.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def draws(self, count: int) -> np.ndarray:
        """The next ``count`` outputs, as a uint64 array."""
        with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2**64
            z = np.arange(1, count + 1, dtype=np.uint64)
            z *= np.uint64(_GOLDEN)
            z += np.uint64(self.state)
            z ^= z >> np.uint64(30)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        self.state = (self.state + _GOLDEN * count) & _MASK64
        return z


def _libm(f, values: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function) of each float64 of ``values``."""
    return np.fromiter(map(f, memoryview(values)), np.float64, count=len(values))


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals, two from each pair (w1, w2) of ``words``:
    r·cos(2π·u2) and r·sin(2π·u2), with r = sqrt(-2·log u1) and u1 shifted
    into (0, 1] so the log is defined."""
    u1 = ((words[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * _libm(math.log, u1))
    angle = 2.0 * math.pi * u2
    normals = np.empty(len(words))
    normals[0::2] = r * _libm(math.cos, angle)
    normals[1::2] = r * _libm(math.sin, angle)
    return normals


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
        if self.kind == "constant":
            largest = max(self.params)
        elif self.kind == "sinusoidal":
            largest = self.params[0] + abs(self.params[1])
        else:  # a Box-Muller normal of 53-bit uniforms: |z| <= sqrt(-2 log 2**-53)
            largest = self.params[0] + abs(self.params[1]) * math.sqrt(-2.0 * math.log(2.0 ** -53))
        with np.errstate(over="ignore"):
            if np.isinf(np.float32(largest)):
                raise ValueError("wind speeds must be finite in float32 "
                                 f"(largest {largest!r} m/s)")


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
        if self.n_lat < 2 or self.n_lon < 2:  # a one-node axis has no extent
            raise ValueError("grid needs at least 2 nodes on each axis")
        if self.years[0] > self.years[1]:
            raise ValueError("years must be an ascending (start, end) pair")
        if not all(map(math.isfinite, (*self.bbox, *self.hub_trend, *self.rotor_trend,
                                       *self.efficiency, self.specific_power_w_m2))):
            raise ValueError("bounding box, trends and specific power must be finite")
        lon0, lon1, lat0, lat1 = self.bbox
        if lon0 >= lon1 or lat0 >= lat1:
            raise ValueError("bounding box must have positive extent")
        if not (-180.0 <= lon0 and lon1 <= 180.0 and -90.0 <= lat0 and lat1 <= 90.0):
            raise ValueError("bounding box must lie within lon -180..180 and lat -90..90")
        span = self.years[1] - self.years[0]
        for (start, per_year), name in ((self.hub_trend, "hub"), (self.rotor_trend, "rotor")):
            last = start + per_year * span  # a finite start and slope may overflow
            if start <= 0 or last <= 0:
                raise ValueError(f"{name} trend must be positive in every year")
            if last == math.inf:
                raise ValueError(f"{name} trend must be finite in every year "
                                 f"({last!r} m in {self.years[1]})")
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
    placed inside the bounding box, hub/rotor trends applied per year.

    Turbine i's lon and lat are ``uniform`` draws 2i and 2i+1, and a year's
    fields are the same for all of its turbines, so they are formatted once.
    """
    lon0, lon1, lat0, lat1 = spec.bbox
    u = (SplitMix64(seed).draws(2 * spec.n_turbines) >> np.uint64(11)).astype(np.float64)
    lons = lon0 + (lon1 - lon0) * u[0::2] * 2.0 ** -53
    lats = lat0 + (lat1 - lat0) * u[1::2] * 2.0 ** -53
    tails = []
    for k, year in enumerate(spec.year_list()):
        hub = spec.hub_trend[0] + spec.hub_trend[1] * k
        rotor = spec.rotor_trend[0] + spec.rotor_trend[1] * k
        tails.append(f"{year},{hub!r},{rotor!r},{spec.capacity_kw(rotor)!r},false,\n")
    rows = (f"S{i:05d},{lon!r},{lat!r},{tails[i % len(tails)]}"
            for i, (lon, lat) in enumerate(zip(lons.tolist(), lats.tolist())))
    header = ",".join(REQUIRED_COLUMNS) + "\n"
    return "".join([header, *rows]).encode("utf-8")


def _speeds_at(model: WindModel, rng: SplitMix64,
               shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(v10, v100) as float64 arrays that broadcast to the (hour, lat, lon)
    ``shape``: one value for constant wind, one an hour for sinusoidal wind,
    and one a cell-hour for noise, drawn time-major, then lat, then lon."""
    if model.kind == "constant":
        return np.array(model.params[0]), np.array(model.params[1])
    if model.kind == "sinusoidal":
        mean, amplitude, period = model.params
        phases = 2.0 * math.pi * np.arange(shape[0], dtype=np.float64) / period
        v100 = (mean + amplitude * _libm(math.sin, phases))[:, None, None]
    else:
        mean, sd = model.params
        n = math.prod(shape)
        v100 = (mean + sd * _box_muller(rng.draws(n + n % 2))[:n]).reshape(shape)
    v100 = np.where(v100 > 0.0, v100, 0.0)  # max(0.0, v), also for -0.0
    return 0.8 * v100, v100


def broadcast_windgrid(spec: SynthSpec, seed: int) -> WindGrid:
    """Wind grid covering the requested years hourly on the requested grid.

    Its fields are read-only float32 views that broadcast to (hour, lat,
    lon): one value for constant wind, one an hour for sinusoidal wind, the
    drawn cell-hours for noise, and a scalar 0.0 for both v components, so
    only a noise grid holds a value per cell-hour.
    """
    from .windgrid import WindGrid

    lon0, lon1, lat0, lat1 = spec.bbox
    lons = np.linspace(lon0, lon1, spec.n_lon)
    lats = np.linspace(lat0, lat1, spec.n_lat)
    t0 = calendar.timegm((spec.years[0], 1, 1, 0, 0, 0))
    t_end = calendar.timegm((spec.years[1] + 1, 1, 1, 0, 0, 0))
    shape = ((t_end - t0) // 3600, spec.n_lat, spec.n_lon)
    u10, u100 = (np.broadcast_to(v.astype(np.float32), shape)
                 for v in _speeds_at(spec.wind, SplitMix64(seed), shape))
    calm = np.broadcast_to(np.float32(0.0), shape)
    return WindGrid(lons=lons, lats=lats, t0=t0, step=3600,
                    u10=u10, v10=calm, u100=u100, v100=calm)


def make_windgrid(spec: SynthSpec, seed: int) -> WindGrid:
    """``broadcast_windgrid`` with every field a C-contiguous copy."""
    from .windgrid import VARIABLES

    grid = broadcast_windgrid(spec, seed)
    return replace(grid, **{name: np.array(grid.variable(name), order="C")
                            for name in VARIABLES})


def generate_windgrid(spec: SynthSpec, seed: int) -> bytes:
    """WGRD bytes of ``broadcast_windgrid``."""
    from .windgrid import grid_to_bytes

    return grid_to_bytes(broadcast_windgrid(spec, seed))


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
    from .powerflux import RHO, _stamp_slice, _study_slice, period_year
    from .windgrid import hub_height_speed

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

"""Kinetic input power at turbine locations and aggregate power series.

All power values are carried in watts, energies in watt-hours, areas in m².
One kernel pass evaluates the cubed wind speed for every turbine and stamp
and keeps its sum per turbine and stamp block (calendar month); every fleet
input power series is then a reduction of those sums under one climate rule,
``_pin_pass``, which ``pin_series`` and ``report_pin`` share.  The pass runs
over a fixed partition of the fleet into chunks; each chunk task prepares its
own nodes and weights and evaluates them in three [turbine × stamp] work rows;
the reductions are correctly rounded, so results are bit-identical at any
worker count.  A pass runs in one process and holds one result array,
[height × block × turbine]: each chunk writes its turbines' sums into it
directly, whichever thread runs the chunk.

A report's annual ratios are formed in ``decomp`` and ``pipeline.power_stage``;
``system_efficiency`` forms the monthly efficiencies and raises the Betz warning.
"""

from __future__ import annotations

import calendar
import math
import time
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import csvinput
from .errors import DataError
from .fleet import (Fleet, TurbineColumns, TurbineRecord, operating_weights,
                    swept_areas)
from .series import AnnualSeries
from .windgrid import REFERENCE_HEIGHT, WindGrid, cell_weights, stamp_windows

#: air density, kg/m³ (constant; not configurable)
RHO = 1.225
#: upper bound on single-turbine conversion efficiency
BETZ_LIMIT = 16.0 / 27.0
#: fixed turbine-chunk size of the kernel pass
CHUNK_TURBINES = 64


class BetzLimitWarning(UserWarning):
    """System efficiency above the Betz limit signals inconsistent inputs."""


def period_bounds(period) -> tuple[int, int]:
    """Unix-second bounds [start, end) of a year or (year, month), UTC."""
    if isinstance(period, int):
        return (calendar.timegm((period, 1, 1, 0, 0, 0)),
                calendar.timegm((period + 1, 1, 1, 0, 0, 0)))
    year, month = period
    if not 1 <= month <= 12:
        raise ValueError(f"month {month} outside 1..12")
    if month == 12:
        end = calendar.timegm((year + 1, 1, 1, 0, 0, 0))
    else:
        end = calendar.timegm((year, month + 1, 1, 0, 0, 0))
    return calendar.timegm((year, month, 1, 0, 0, 0)), end


def hours_in_period(period) -> int:
    start, end = period_bounds(period)
    return (end - start) // 3600


def period_year(period) -> int:
    return period if isinstance(period, int) else period[0]


# ---------------------------------------------------------------------------
# fleet-level aggregation: one kernel pass, then weighted reductions
# ---------------------------------------------------------------------------

#: longest stamp block of a pass: a 31-day month of hourly stamps.  Months
#: of sub-hourly grids are split, so a chunk's temporaries stay small.
BLOCK_STAMPS = 744


def _chunk_cube_sums(grid: WindGrid, bounds: np.ndarray, nodes: np.ndarray,
                     weights: np.ndarray, shear: np.ndarray, sums: np.ndarray,
                     columns: np.ndarray) -> int:
    """Write Σ v³ per [height, block] of one turbine chunk into its turbines'
    ``columns`` of ``sums``, and return the chunk's calm turbine-stamps.

    ``nodes`` are the chunk's distinct flat node indices lat·n_lon + lon,
    ascending, ``weights`` its [turbine × node] bilinear weights over them,
    ``shear`` its [height × turbine] 1.5·log10(h/100), and ``bounds`` the
    block edges as grid stamp indices.  The bilinear blend of each variable
    in a block is one f64 product of the weights with the variable's values
    at the nodes.  With q = u² + v², the power-law speed v100·(h/100)^α,
    α = log10(v100/v10), cubes to exp(1.5·ln q100 + 1.5·c·(ln q100 − ln q10)),
    c = log10(h/100).  The blend and both logarithms serve every height.  A
    calm stamp (q10 = 0 or q100 = 0) takes zero shear: q100^1.5, which is 0
    when q100 = 0.  Three [turbine × stamp] rows hold q10, q100 and each v²
    or exponent in turn.
    """
    n, m = weights.shape
    calm = 0
    # work space of the longest block, reused by every block: one variable's
    # values at the chunk's nodes, and q10, q100 and the scratch row
    longest = int(np.diff(bounds).max(initial=0))
    values = np.empty(longest * m)
    work = np.empty((3, n * longest))

    def view(buf: np.ndarray, *shape: int) -> np.ndarray:
        return buf[:math.prod(shape)].reshape(shape)

    with stamp_windows(grid) as windows:
        for col in range(len(bounds) - 1):
            k0, k1 = bounds[col], bounds[col + 1]
            x = view(values, k1 - k0, m)
            q10, q100, scratch = (view(buf, n, k1 - k0) for buf in work)
            for q, names in ((q10, ("u10", "v10")), (q100, ("u100", "v100"))):
                for y, name in zip((q, scratch), names):
                    for s, window in windows(name, k0, k1):
                        x[s - k0:s - k0 + len(window)] = window.take(nodes, axis=1)
                    np.square(np.matmul(weights, x.T, out=y), out=y)
                q += scratch
            with np.errstate(divide="ignore", invalid="ignore"):
                ln100 = np.log(q100, out=q100)
                diff = np.log(q10, out=q10)
                np.subtract(ln100, diff, out=diff)
            finite = np.isfinite(diff)
            n_calm = diff.size - int(np.count_nonzero(finite))
            if n_calm:
                diff[~finite] = 0.0
                calm += n_calm
            ln100 *= 1.5
            for h, k in enumerate(shear[:, :, None]):
                np.multiply(diff, k, out=scratch)
                scratch += ln100
                np.exp(scratch, out=scratch)
                sums[h, col, columns] = scratch.sum(axis=1)
    return calm


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    """Fixed CHUNK_TURBINES chunks; a lone last turbine joins the chunk
    before it, because a one-row product takes another BLAS routine whose
    last bits differ."""
    starts = list(range(0, n, CHUNK_TURBINES))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _stamp_slice(grid: WindGrid, first, last=None) -> tuple[int, int]:
    """Grid stamps [k0, k1) from the start of period ``first`` to the end of
    period ``last`` (``first`` when not given)."""
    start_ts = period_bounds(first)[0]
    end_ts = period_bounds(first if last is None else last)[1]
    if (start_ts - grid.t0) % grid.step != 0 or (end_ts - start_ts) % grid.step != 0:
        raise DataError("period not aligned with grid time step")
    k0 = (start_ts - grid.t0) // grid.step
    k1 = k0 + (end_ts - start_ts) // grid.step
    if k0 < 0 or k1 > grid.n_time:
        raise DataError(
            f"period not covered by wind grid (needs steps {k0}..{k1}, have {grid.n_time})")
    return k0, k1


def _study_slice(grid: WindGrid, study_span) -> tuple[int, int]:
    return (0, grid.n_time) if study_span is None else _stamp_slice(grid, *study_span)


def _block_bounds(grid: WindGrid, k0: int, k1: int) -> np.ndarray:
    """Block edges over stamps [k0, k1): a cut at every calendar-month start
    that falls on a stamp, and every BLOCK_STAMPS stamps inside a month."""
    cuts = []
    year, month = time.gmtime(grid.t0 + k0 * grid.step)[:2]
    while True:
        year, month = _next_month(year, month)
        offset = calendar.timegm((year, month, 1, 0, 0, 0)) - grid.t0
        if offset >= k1 * grid.step:
            break
        if offset % grid.step == 0:
            cuts.append(offset // grid.step)
    edges = [k0]
    for k in cuts + [k1]:
        edges.extend(range(edges[-1] + BLOCK_STAMPS, k, BLOCK_STAMPS))
        edges.append(k)
    return np.asarray(edges)


def _turbine_heights(turbines: TurbineColumns, height_mode) -> np.ndarray:
    if isinstance(height_mode, str):
        if height_mode != "hub":
            raise ValueError(f"unknown height mode {height_mode!r}")
        missing = np.flatnonzero(np.isnan(turbines.hub_height))
        if len(missing):
            raise DataError(f"turbine {turbines.id[missing[0]]} has no hub height")
        return turbines.hub_height
    h = float(height_mode)
    if h <= 0:
        raise ValueError("fixed height must be positive")
    return np.full(len(turbines), h)


@dataclass
class CubeSums:
    """Σ v³ per evaluation height, stamp block and turbine, from one pass.

    ``sums[h, block, turbine]`` sums the cubed wind speed at the h-th
    evaluation height over the block's stamps; ``bounds`` holds the block
    edges as grid stamp indices.  ``calm_hours`` counts the turbine-stamps
    with zero wind at 10 m or 100 m, each once.  ``scale`` is ½·rho·A per
    turbine.
    """

    bounds: np.ndarray
    sums: np.ndarray
    calm_hours: int
    scale: np.ndarray

    def fleet_pin(self, height: int, stamps: tuple[int, int], weights: np.ndarray) -> float:
        """Σ weight · ½·rho·A · Σ v³ / stamps, in watts, over grid stamps
        [k0, k1) at the ``height``-th evaluation height, with one weight per
        turbine.  The sum over turbines is correctly rounded (``math.fsum``),
        so it does not depend on order.
        """
        k0, k1 = stamps
        c0, c1 = np.searchsorted(self.bounds, (k0, k1))
        if c1 >= len(self.bounds) or self.bounds[c0] != k0 or self.bounds[c1] != k1:
            raise ValueError(f"stamps {k0}..{k1} are not a span of the pass's blocks")
        total = self.sums[height, c0:c1].sum(axis=0)
        return math.fsum((weights * self.scale * (total / (k1 - k0))).tolist())


def cube_sums(grid: WindGrid, turbines: Iterable[TurbineRecord], height_modes,
              stamps: tuple[int, int], workers: int = 1) -> CubeSums:
    """One kernel pass over grid stamps [k0, k1) at each of ``height_modes``
    (``"hub"`` or a fixed height in meters) for every turbine.

    The pass locates every turbine in one ``cell_weights`` call and orders
    the turbines by grid cell, so a chunk blends few nodes.  It cuts them
    into fixed 64-turbine chunks; each chunk task prepares its own nodes and
    weights and writes its sums into the result, in the order of
    ``turbines``.  With ``workers > 1`` the tasks run on a pool of threads in
    this process.  A turbine's sums do not depend on the chunk that holds it
    or the thread that runs it, so every reduction is bit-identical at any
    worker count.
    """
    turbines = TurbineColumns.of(turbines)
    lon, lat = turbines.lon, turbines.lat
    outside = ~((grid.lons[0] <= lon) & (lon <= grid.lons[-1])
                & (grid.lats[0] <= lat) & (lat <= grid.lats[-1]))
    bad = turbines.id[outside].tolist()
    if bad:
        shown = ", ".join(bad[:10])
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise DataError(f"turbines outside wind grid: {shown}{more}")
    areas = swept_areas(turbines)
    shear = 1.5 * np.log10(np.stack([_turbine_heights(turbines, h) for h in height_modes])
                           / REFERENCE_HEIGHT)
    j0, j1, i0, i1, *corners = cell_weights(grid, lon, lat)
    order = np.lexsort((i1, i0, j1, j0))
    n_lon = len(grid.lons)
    nodes = np.stack([j0 * n_lon + i0, j0 * n_lon + i1, j1 * n_lon + i0, j1 * n_lon + i1],
                     axis=1)[order]
    corners, shear = np.stack(corners, axis=1)[order], shear[:, order]
    bounds = _block_bounds(grid, *stamps)
    sums = np.empty((len(shear), len(bounds) - 1, len(turbines)))

    def chunk_task(chunk: tuple[int, int]) -> int:
        # every chunk writes its own columns of ``sums``, so tasks need no lock
        a, b = chunk
        distinct, local = np.unique(nodes[a:b], return_inverse=True)
        weights = np.zeros((b - a, len(distinct)))
        np.add.at(weights, (np.arange(b - a)[:, None], local.reshape(b - a, 4)), corners[a:b])
        return _chunk_cube_sums(grid, bounds, distinct, weights, shear[:, a:b], sums,
                                order[a:b])

    chunks = _chunk_bounds(len(turbines))
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(workers, len(chunks))) as pool:
            calm = sum(pool.map(chunk_task, chunks))
    else:
        calm = sum(map(chunk_task, chunks))
    return CubeSums(bounds, sums, calm, 0.5 * RHO * areas)


def _pin_pass(grid: WindGrid, turbines, series, study_span: tuple[int, int] | None,
              workers: int) -> tuple[list[list[float]], int]:
    """``pin_series`` of each ``(height_mode, climate_mode, periods)`` of
    ``series`` from one kernel pass over the stamps they read, and the pass's
    calm turbine-stamps.  Each period takes its year's ``operating_weights``,
    one vector per distinct year."""
    reads = []
    for _, climate_mode, periods in series:
        if climate_mode not in ("actual", "long_term_average"):
            raise ValueError(f"unknown climate mode {climate_mode!r}")
        stamps = [_stamp_slice(grid, p) for p in periods]
        if climate_mode != "actual":
            stamps = [_study_slice(grid, study_span)] * len(stamps)
        reads.append(stamps)
    if not turbines or not any(reads):
        return [[0.0] * len(stamps) for stamps in reads], 0
    span = (min(k0 for stamps in reads for k0, _ in stamps),
            max(k1 for stamps in reads for _, k1 in stamps))
    heights = list(dict.fromkeys(height for height, _, _ in series))
    sums = cube_sums(grid, turbines, heights, span, workers)
    weights = {year: operating_weights(turbines, year) for year in dict.fromkeys(
        period_year(p) for *_, periods in series for p in periods)}
    return [[sums.fleet_pin(heights.index(height), k, weights[period_year(p)])
             for p, k in zip(periods, stamps)]
            for (height, _, periods), stamps in zip(series, reads)], sums.calm_hours


def pin_series(grid: WindGrid, fleet: Fleet, periods,
               height_mode="hub", climate_mode: str = "actual",
               study_span: tuple[int, int] | None = None,
               workers: int = 1) -> list[float]:
    """Fleet kinetic input power over each of ``periods``, from one kernel
    pass: mean over hours of the sum over turbines of ½·rho·A·v³ at the
    evaluation height, in watts.

    ``height_mode`` is ``"hub"`` (per-turbine hub height) or a fixed height
    in meters.  ``climate_mode`` ``"actual"`` evaluates hour by hour;
    ``"long_term_average"`` replaces each location's cubed speed with its
    mean over ``study_span`` (whole grid coverage when not given).  Turbines
    in their commissioning year contribute with weight 0.5.
    """
    periods = list(periods)
    return _pin_pass(grid, fleet.turbines, [(height_mode, climate_mode, periods)],
                     study_span, workers)[0][0]


def aggregate_pin(grid: WindGrid, fleet: Fleet, period,
                  height_mode="hub", climate_mode: str = "actual",
                  study_span: tuple[int, int] | None = None,
                  workers: int = 1) -> float:
    """``pin_series`` of one period."""
    return pin_series(grid, fleet, [period], height_mode, climate_mode,
                      study_span, workers)[0]


def annual_pin_series(grid: WindGrid, fleet: Fleet, years,
                      height_mode="hub", climate_mode: str = "actual",
                      study_span: tuple[int, int] | None = None,
                      workers: int = 1) -> AnnualSeries:
    """``pin_series`` of each of ``years``, as an annual series."""
    ys = list(years)
    if not ys:
        raise ValueError("years must be nonempty")
    return AnnualSeries(ys[0], pin_series(grid, fleet, ys, height_mode, climate_mode,
                                          study_span, workers), "W")


@dataclass
class ReportPin:
    """The fleet input power series of a report, reduced from one pass at
    hub height and the reference height over the study years."""

    #: hub height, actual wind, per year
    annual: AnnualSeries
    #: hub height, long-term average over the study years
    annual_avg: AnnualSeries
    #: reference height, long-term average over the study years
    annual_ref_avg: AnnualSeries
    #: hub height, actual wind, per calendar month of the study years
    monthly: list[float]
    #: calm turbine-hours over the study years
    calm_hours: int


def report_pin(grid: WindGrid, fleet: Fleet, years, reference_height: float,
               workers: int = 1) -> ReportPin:
    """Every P_in series of a report from one kernel pass over ``years``,
    the study span, reduced through ``pin_series``'s climate rule."""
    ys = list(years)
    months = [(y, m) for y in ys for m in range(1, 13)]
    (annual, annual_avg, annual_ref_avg, monthly), calm_hours = _pin_pass(
        grid, fleet.turbines,
        [("hub", "actual", ys), ("hub", "long_term_average", ys),
         (reference_height, "long_term_average", ys), ("hub", "actual", months)],
        (ys[0], ys[-1]), workers)
    return ReportPin(annual=AnnualSeries(ys[0], annual, "W"),
                     annual_avg=AnnualSeries(ys[0], annual_avg, "W"),
                     annual_ref_avg=AnnualSeries(ys[0], annual_ref_avg, "W"),
                     monthly=monthly, calm_hours=calm_hours)


# ---------------------------------------------------------------------------
# generation ingestion and derived ratios
# ---------------------------------------------------------------------------

@dataclass
class MonthlySeries:
    """Dense month-indexed energies in MWh starting at ``start`` (year, month)."""

    start: tuple[int, int]
    values: list[float]

    def value(self, year: int, month: int) -> float:
        y0, m0 = self.start
        k = (year - y0) * 12 + (month - m0)
        if not 0 <= k < len(self.values):
            raise DataError(f"missing generation for {year}-{month:02d}")
        return self.values[k]


def _next_month(y: int, m: int) -> tuple[int, int]:
    return (y + 1, 1) if m == 12 else (y, m + 1)


def parse_generation_csv(data: bytes) -> MonthlySeries:
    """Parse monthly net generation: CSV ``year,month,net_generation_mwh``.

    The covered span must be dense: duplicate or missing months are errors.
    """
    energies: dict[int, float] = {}  # by month count, year · 12 + month − 1
    with csvinput.table(data, "generation", ("year", "month", "net_generation_mwh")) as table:
        for row_no, (y, m, mwh) in table:
            y = csvinput.number(int, y, "year", row_no)
            m = csvinput.number(int, m, "month", row_no)
            mwh = csvinput.number(float, mwh, "energy", row_no)
            if not 1 <= m <= 12:
                raise DataError(f"month {m} outside 1..12, row {row_no}")
            if not np.isfinite(mwh):
                raise DataError(f"non-finite energy, row {row_no}")
            if (k := y * 12 + m - 1) in energies:
                raise DataError(f"duplicate month {y}-{m:02d}, row {row_no}")
            energies[k] = mwh
    months = range(min(energies), max(energies) + 1)
    for k in months:
        if k not in energies:
            raise DataError(f"missing month {k // 12}-{k % 12 + 1:02d} inside covered span")
    return MonthlySeries((months[0] // 12, months[0] % 12 + 1), [energies[k] for k in months])


def pout_series(energy: MonthlySeries, period) -> float:
    """Average generated power over ``period`` in watts.

    Energy is summed over the period's months and divided by the exact UTC
    hour count (leap years included).
    """
    if isinstance(period, int):
        months = [(period, m) for m in range(1, 13)]
    else:
        months = [period]
    total_mwh = 0.0
    for y, m in months:
        total_mwh += energy.value(y, m)
    return total_mwh * 1e6 / hours_in_period(period)


def system_efficiency(p_out: float, p_in: float) -> float:
    """Share of kinetic input power converted to electricity.

    Values above the Betz limit are physically impossible for the fleet as a
    whole and signal inconsistent input data; they warn but do not fail.
    """
    if p_in <= 0:
        raise ValueError("input power must be positive")
    ratio = p_out / p_in
    if ratio > BETZ_LIMIT:
        warnings.warn(
            f"system efficiency {ratio:.4f} exceeds the Betz limit {BETZ_LIMIT:.4f}; "
            "input data are likely inconsistent", BetzLimitWarning, stacklevel=2)
    return ratio

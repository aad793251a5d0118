"""Kinetic input power at turbine locations and aggregate power series.

All power values are carried in watts, energies in watt-hours, areas in m².
One kernel pass evaluates the cubed wind speed for every turbine and stamp
and keeps its sum per turbine and stamp block (calendar month); every fleet
input power series is then a weighted reduction of those sums.  The pass runs
over a fixed partition of the fleet into chunks and the reductions are
correctly rounded, so results are bit-identical regardless of how many
workers evaluate the chunks.

A report's annual ratios are formed in ``decomp`` and ``pipeline.power_stage``;
``system_efficiency`` forms the monthly efficiencies and raises the Betz warning.
"""

from __future__ import annotations

import calendar
import math
import multiprocessing
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


@dataclass(frozen=True)
class _PassInputs:
    """What every turbine chunk of one pass reads, turbines in cell order."""

    grid: WindGrid
    #: [turbine, corner] flat node index lat·n_lon + lon, corners as in cell_weights
    nodes: np.ndarray
    #: [turbine, corner] bilinear weights
    corners: np.ndarray
    #: [height, turbine] 1.5·log10(h/100) of each evaluation height
    shear: np.ndarray
    #: block edges as grid stamp indices
    bounds: np.ndarray


def _chunk_cube_sums(inputs: _PassInputs, chunk: tuple[int, int]) -> tuple[np.ndarray, int]:
    """Σ v³ per [height, block, turbine] of one turbine chunk, and the
    chunk's calm turbine-stamps.

    The bilinear blend of each variable in a block is one f64 product of the
    chunk's [turbine × node] weight matrix, four nonzeros a row, with the
    variable's values at the chunk's nodes.  With q = u² + v², the power-law
    speed v100·(h/100)^α, α = log10(v100/v10), cubes to
    exp(1.5·ln q100 + 1.5·c·(ln q100 − ln q10)), c = log10(h/100).  The blend
    and both logarithms serve every height.  A calm stamp (q10 = 0 or
    q100 = 0) takes zero shear: q100^1.5, which is 0 when q100 = 0.
    """
    a, b = chunk
    n, shear = b - a, inputs.shear[:, a:b, None]
    nodes, local = np.unique(inputs.nodes[a:b], return_inverse=True)
    m = len(nodes)
    weights = np.zeros((n, m))
    np.add.at(weights, (np.arange(n)[:, None], local.reshape(n, 4)), inputs.corners[a:b])
    edges = inputs.bounds
    out = np.empty((len(shear), len(edges) - 1, n))
    calm = 0
    # work space of the longest block, reused by every block: one variable's
    # values at the chunk's nodes, and u, v, q10, q100 and the cube per turbine
    longest = int(np.diff(edges).max(initial=0))
    values = np.empty(longest * m)
    work = np.empty((5, n * longest))

    def view(buf: np.ndarray, *shape: int) -> np.ndarray:
        return buf[:math.prod(shape)].reshape(shape)

    with stamp_windows(inputs.grid) as windows:
        for col in range(len(edges) - 1):
            k0, k1 = edges[col], edges[col + 1]
            x = view(values, k1 - k0, m)
            u, v, q10, q100, cube = (view(buf, n, k1 - k0) for buf in work)
            for q, names in ((q10, ("u10", "v10")), (q100, ("u100", "v100"))):
                for y, name in zip((u, v), names):
                    for s, window in windows(name, k0, k1):
                        x[s - k0:s - k0 + len(window)] = window.take(nodes, axis=1)
                    np.square(np.matmul(weights, x.T, out=y), out=y)
                np.add(u, v, out=q)
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
            for h, k in enumerate(shear):
                np.multiply(diff, k, out=cube)
                cube += ln100
                np.exp(cube, out=cube)
                out[h, col] = cube.sum(axis=1)
    return out, calm


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    """Fixed CHUNK_TURBINES chunks; a lone last turbine joins the chunk
    before it, because a one-row product takes another BLAS routine whose
    last bits differ."""
    starts = list(range(0, n, CHUNK_TURBINES))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


# The pass a forked pool worker serves.  Bound by the pool initializer
# inside each worker; the parent process never sets it.
_worker_inputs: _PassInputs | None = None


def _init_worker(inputs: _PassInputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_cube_sums(chunk: tuple[int, int]) -> tuple[np.ndarray, int]:
    return _chunk_cube_sums(_worker_inputs, chunk)


def _map_chunks(inputs: _PassInputs, workers: int) -> list:
    chunks = _chunk_bounds(len(inputs.nodes))
    if workers <= 1 or len(chunks) <= 1:
        return [_chunk_cube_sums(inputs, c) for c in chunks]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: results are identical anyway
        return [_chunk_cube_sums(inputs, c) for c in chunks]
    with ctx.Pool(processes=min(workers, len(chunks)), initializer=_init_worker,
                  initargs=(inputs,)) as pool:
        return pool.map(_worker_cube_sums, chunks)


def _stamp_slice(grid: WindGrid, start_ts: int, end_ts: int) -> tuple[int, int]:
    if (start_ts - grid.t0) % grid.step != 0 or (end_ts - start_ts) % grid.step != 0:
        raise DataError("period not aligned with grid time step")
    k0 = (start_ts - grid.t0) // grid.step
    k1 = k0 + (end_ts - start_ts) // grid.step
    if k0 < 0 or k1 > grid.n_time:
        raise DataError(
            f"period not covered by wind grid (needs steps {k0}..{k1}, have {grid.n_time})")
    return k0, k1


def _study_slice(grid: WindGrid, study_span) -> tuple[int, int]:
    if study_span is None:
        return 0, grid.n_time
    y0, y1 = study_span
    start = period_bounds(y0)[0]
    end = period_bounds(y1)[1]
    return _stamp_slice(grid, start, end)


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


def _check_climate_mode(climate_mode: str) -> None:
    if climate_mode not in ("actual", "long_term_average"):
        raise ValueError(f"unknown climate mode {climate_mode!r}")


@dataclass
class CubeSums:
    """Σ v³ per evaluation height, stamp block and turbine, from one pass.

    ``sums[h, block, turbine]`` sums the cubed wind speed at the h-th
    evaluation height over the block's stamps; ``bounds`` holds the block
    edges as grid stamp indices.  ``calm_hours`` counts the turbine-stamps
    with zero wind at 10 m or 100 m, each once.  ``scale`` is ½·rho·A per
    turbine.
    """

    grid: WindGrid
    turbines: TurbineColumns
    bounds: np.ndarray
    sums: np.ndarray
    calm_hours: int
    scale: np.ndarray

    def fleet_pin(self, height: int, period, climate_mode: str = "actual") -> float:
        """Fleet kinetic input power over ``period`` at the ``height``-th
        evaluation height, in watts: Σ weight · ½·rho·A · Σ v³ / stamps.

        ``actual`` sums the period's blocks; ``long_term_average`` takes
        each turbine's mean over the whole pass.  The sum over turbines is
        correctly rounded (``math.fsum``), so it does not depend on order.
        """
        _check_climate_mode(climate_mode)
        k0, k1 = _stamp_slice(self.grid, *period_bounds(period))
        if climate_mode == "long_term_average":
            k0, k1 = self.bounds[0], self.bounds[-1]
        c0, c1 = np.searchsorted(self.bounds, (k0, k1))
        if c1 >= len(self.bounds) or self.bounds[c0] != k0 or self.bounds[c1] != k1:
            raise ValueError(f"period {period} is not a span of the pass's blocks")
        total = self.sums[height, c0:c1].sum(axis=0)
        weights = operating_weights(self.turbines, period_year(period))
        return math.fsum((weights * self.scale * (total / (k1 - k0))).tolist())


def cube_sums(grid: WindGrid, turbines: Iterable[TurbineRecord], height_modes,
              stamps: tuple[int, int], workers: int = 1) -> CubeSums:
    """One kernel pass over grid stamps [k0, k1) at each of ``height_modes``
    (``"hub"`` or a fixed height in meters) for every turbine.

    The pass orders the turbines by grid cell, so a chunk blends few nodes,
    cuts them into fixed 64-turbine chunks and scatters the sums back to the
    order of ``turbines``; with ``workers > 1`` the chunks run on one forked
    pool.  A turbine's sums do not depend on the chunk that holds it or where
    it runs, so every reduction is bit-identical at any worker count.
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
    cells = np.asarray([cell_weights(grid, x, y)
                        for x, y in zip(lon.tolist(), lat.tolist())]).reshape(-1, 8)
    j0, j1, i0, i1 = cells[:, :4].T.astype(np.intp)
    order = np.lexsort((i1, i0, j1, j0))
    n_lon = len(grid.lons)
    nodes = np.stack([j0 * n_lon + i0, j0 * n_lon + i1, j1 * n_lon + i0, j1 * n_lon + i1],
                     axis=1)
    inputs = _PassInputs(grid, nodes[order], cells[order, 4:], shear[:, order],
                         _block_bounds(grid, *stamps))
    parts = _map_chunks(inputs, workers)
    sums = np.empty((len(shear), len(inputs.bounds) - 1, len(turbines)))
    if parts:
        sums[:, :, order] = np.concatenate([s for s, _ in parts], axis=2)
    return CubeSums(grid, turbines, inputs.bounds, sums, sum(c for _, c in parts),
                    0.5 * RHO * areas)


def pin_series(grid: WindGrid, fleet: Fleet, periods,
               height_mode="hub", climate_mode: str = "actual",
               study_span: tuple[int, int] | None = None,
               workers: int = 1) -> list[float]:
    """``aggregate_pin`` for each of ``periods``, all from one kernel pass."""
    _check_climate_mode(climate_mode)
    periods = list(periods)
    if not fleet.turbines or not periods:
        return [0.0] * len(periods)
    stamps = [_stamp_slice(grid, *period_bounds(p)) for p in periods]
    if climate_mode == "actual":
        span = min(k0 for k0, _ in stamps), max(k1 for _, k1 in stamps)
    else:
        span = _study_slice(grid, study_span)
    sums = cube_sums(grid, fleet.turbines, [height_mode], span, workers)
    return [sums.fleet_pin(0, p, climate_mode) for p in periods]


def aggregate_pin(grid: WindGrid, fleet: Fleet, period,
                  height_mode="hub", climate_mode: str = "actual",
                  study_span: tuple[int, int] | None = None,
                  workers: int = 1) -> float:
    """Fleet kinetic input power over ``period``: mean over hours of the sum
    over turbines of ½·rho·A·v³ at the evaluation height, in watts.

    ``height_mode`` is ``"hub"`` (per-turbine hub height) or a fixed height
    in meters.  ``climate_mode`` ``"actual"`` evaluates hour by hour;
    ``"long_term_average"`` replaces each location's cubed speed with its
    mean over ``study_span`` (whole grid coverage when not given).  Turbines
    in their commissioning year contribute with weight 0.5.
    """
    return pin_series(grid, fleet, [period], height_mode, climate_mode,
                      study_span, workers)[0]


def annual_pin_series(grid: WindGrid, fleet: Fleet, years,
                      height_mode="hub", climate_mode: str = "actual",
                      study_span: tuple[int, int] | None = None,
                      workers: int = 1) -> AnnualSeries:
    """Per-year ``aggregate_pin`` values from one kernel pass."""
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
    """Every P_in series of a report from one kernel pass over ``years``."""
    ys = list(years)
    sums = cube_sums(grid, fleet.turbines, ["hub", reference_height],
                     _study_slice(grid, (ys[0], ys[-1])), workers)

    def annual(height: int, climate_mode: str) -> AnnualSeries:
        return AnnualSeries(ys[0], [sums.fleet_pin(height, y, climate_mode) for y in ys],
                            "W")

    return ReportPin(annual=annual(0, "actual"),
                     annual_avg=annual(0, "long_term_average"),
                     annual_ref_avg=annual(1, "long_term_average"),
                     monthly=[sums.fleet_pin(0, (y, m)) for y in ys for m in range(1, 13)],
                     calm_hours=sums.calm_hours)


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

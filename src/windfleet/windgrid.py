"""Gridded hourly wind components and point/height evaluation.

Wind data live in a little-endian WGRD container: magic ``WGRD``, u32
version (=1), u32 n_time, u32 n_lat, u32 n_lon, i64 start timestamp (Unix
seconds UTC), i64 step seconds, then the ascending f64 latitude and longitude
axes, then four f32 payload arrays ``u10, v10, u100, v100`` laid out
[time][lat][lon] row-major.  Payload is stored as 32-bit floats; all
arithmetic on it is done in 64-bit.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MAGIC = b"WGRD"
VERSION = 1
VARIABLES = ("u10", "v10", "u100", "v100")
#: anchor height of the power-law extrapolation, meters
REFERENCE_HEIGHT = 100.0

_HEADER = struct.Struct("<4s4I2q")

# Calm-air events of the scalar path (zero wind speed makes the shear
# exponent undefined; the fallback is zero shear).  Best-effort diagnostics,
# mutated single-threaded; the powerflux kernel pass returns its own count.
_calm_events = 0


def calm_fallback_count() -> int:
    return _calm_events


def reset_calm_fallback_count() -> None:
    global _calm_events
    _calm_events = 0


def note_calm_events(n: int) -> None:
    """Register calm-air fallbacks observed by a bulk evaluation."""
    global _calm_events
    _calm_events += int(n)


@dataclass
class WindGrid:
    """Hourly u/v wind components at 10 m and 100 m on a regular lon/lat grid."""

    lons: np.ndarray
    lats: np.ndarray
    t0: int
    step: int
    u10: np.ndarray
    v10: np.ndarray
    u100: np.ndarray
    v100: np.ndarray

    @property
    def n_time(self) -> int:
        return self.u10.shape[0]

    def variable(self, name: str) -> np.ndarray:
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}")
        return getattr(self, name)

    def validate(self) -> None:
        if self.step <= 0:
            raise DataError("grid step must be positive")
        for axis, name in ((self.lons, "lons"), (self.lats, "lats")):
            if axis.ndim != 1 or len(axis) < 1:
                raise DataError(f"{name} axis must be a nonempty vector")
            if np.any(np.diff(axis) <= 0):
                raise DataError(f"{name} axis must be strictly ascending")
        shape = (self.n_time, len(self.lats), len(self.lons))
        for name in VARIABLES:
            arr = self.variable(name)
            if arr.shape != shape:
                raise DataError(f"variable {name} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"variable {name} contains non-finite values")
        if self.n_time < 1:
            raise DataError("grid must contain at least one time step")


def grid_to_bytes(grid: WindGrid) -> bytes:
    grid.validate()
    out = io.BytesIO()
    out.write(_HEADER.pack(MAGIC, VERSION, grid.n_time, len(grid.lats),
                           len(grid.lons), grid.t0, grid.step))
    out.write(np.ascontiguousarray(grid.lats, dtype="<f8").tobytes())
    out.write(np.ascontiguousarray(grid.lons, dtype="<f8").tobytes())
    for name in VARIABLES:
        out.write(np.ascontiguousarray(grid.variable(name), dtype="<f4").tobytes())
    return out.getvalue()


def write_windgrid(grid: WindGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(grid_to_bytes(grid))


def grid_from_bytes(data: bytes) -> WindGrid:
    if len(data) < _HEADER.size:
        raise DataError("truncated WGRD header")
    magic, version, n_time, n_lat, n_lon = _HEADER.unpack_from(data)[:5]
    t0, step = _HEADER.unpack_from(data)[5:]
    if magic != MAGIC:
        raise DataError(f"bad magic {magic!r}, not a WGRD file")
    if version != VERSION:
        raise DataError(f"unsupported WGRD version {version}")
    n_cells = n_time * n_lat * n_lon
    expected = _HEADER.size + 8 * (n_lat + n_lon) + 4 * len(VARIABLES) * n_cells
    if len(data) < expected:
        raise DataError(f"truncated WGRD payload: {len(data)} bytes, expected {expected}")
    if len(data) > expected:
        raise DataError(f"trailing bytes in WGRD file: {len(data)} bytes, expected {expected}")

    offset = _HEADER.size
    lats = np.frombuffer(data, "<f8", n_lat, offset).copy()
    offset += 8 * n_lat
    lons = np.frombuffer(data, "<f8", n_lon, offset).copy()
    offset += 8 * n_lon
    arrays = {}
    for name in VARIABLES:
        arr = np.frombuffer(data, "<f4", n_cells, offset).copy()
        arrays[name] = arr.reshape(n_time, n_lat, n_lon)
        offset += 4 * n_cells
    grid = WindGrid(lons=lons, lats=lats, t0=t0, step=step, **arrays)
    grid.validate()
    return grid


def load_windgrid(path) -> WindGrid:
    with open(path, "rb") as fh:
        return grid_from_bytes(fh.read())


def _axis_cell(axis: np.ndarray, x: float, name: str) -> tuple[int, int, float]:
    """Locate ``x`` on an ascending axis: (lower index, upper index, fraction)."""
    if x < axis[0] or x > axis[-1]:
        raise DataError(f"{name} {x} outside grid range [{axis[0]}, {axis[-1]}]")
    if len(axis) == 1:
        return 0, 0, 0.0
    i = int(np.searchsorted(axis, x, side="right")) - 1
    if i >= len(axis) - 1:  # exactly on the upper edge
        i = len(axis) - 2
    frac = (x - axis[i]) / (axis[i + 1] - axis[i])
    return i, i + 1, frac


def cell_weights(grid: WindGrid, lon: float, lat: float):
    """Corner indices and bilinear weights of the cell enclosing a point.

    Returns ``(j0, j1, i0, i1, w00, w01, w10, w11)`` where j indexes latitude
    and i longitude; w00 weights corner (j0, i0), w01 corner (j0, i1), etc.
    """
    i0, i1, fx = _axis_cell(grid.lons, lon, "lon")
    j0, j1, fy = _axis_cell(grid.lats, lat, "lat")
    return (j0, j1, i0, i1,
            (1.0 - fy) * (1.0 - fx), (1.0 - fy) * fx,
            fy * (1.0 - fx), fy * fx)


def bilinear(grid: WindGrid, var: str, t: int, lon: float, lat: float) -> float:
    """Bilinear blend of the four grid nodes enclosing (lon, lat) at time t.

    Exact at grid nodes; querying outside the grid bounding box is an error
    (turbines outside the grid are a data problem, not an extrapolation case).
    """
    arr = grid.variable(var)
    if not 0 <= t < grid.n_time:
        raise ValueError(f"time index {t} outside 0..{grid.n_time - 1}")
    j0, j1, i0, i1, w00, w01, w10, w11 = cell_weights(grid, lon, lat)
    return (w00 * float(arr[t, j0, i0]) + w01 * float(arr[t, j0, i1])
            + w10 * float(arr[t, j1, i0]) + w11 * float(arr[t, j1, i1]))


def speed_from_components(u: float, v: float) -> float:
    """Directionless wind speed from u/v components."""
    return math.hypot(u, v)


def shear_exponent(v10: float, v100: float) -> float:
    """Power-law exponent from the speeds at the two reference heights.

    alpha = log(v100/v10) / log(100/10).  Calm air (either speed zero) makes
    the logarithm undefined; the fallback is zero shear, and the event is
    counted (it contributes zero power anyway).
    """
    if v10 <= 0.0 or v100 <= 0.0:
        note_calm_events(1)
        return 0.0
    return math.log10(v100 / v10)


def speed_at_height(v100: float, alpha: float, h: float) -> float:
    """Power-law extrapolation from the 100 m anchor: v100 * (h/100)^alpha."""
    if h <= 0:
        raise ValueError("height must be positive")
    return v100 * (h / REFERENCE_HEIGHT) ** alpha


def hub_height_speed(grid: WindGrid, lon: float, lat: float, t: int, h: float) -> float:
    """Wind speed at height ``h`` above a point: interpolate the four
    components first, then form speeds, shear exponent, and extrapolate."""
    u10 = bilinear(grid, "u10", t, lon, lat)
    v10 = bilinear(grid, "v10", t, lon, lat)
    u100 = bilinear(grid, "u100", t, lon, lat)
    v100 = bilinear(grid, "v100", t, lon, lat)
    s10 = speed_from_components(u10, v10)
    s100 = speed_from_components(u100, v100)
    alpha = shear_exponent(s10, s100)
    return speed_at_height(s100, alpha, h)


def grid_from_csv(text: str, t0: int, step: int = 3600) -> WindGrid:
    """Build a grid from desk-scale CSV rows ``time_index,lat,lon,u10,v10,u100,v100``.

    Every (time, lat, lon) combination must appear exactly once and time
    indices must run 0..n-1; anything else is a ragged grid.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    expected_header = ["time_index", "lat", "lon", "u10", "v10", "u100", "v100"]
    if header is None or [h.strip() for h in header] != expected_header:
        raise DataError(f"grid CSV header must be {','.join(expected_header)}")
    rows = []
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != 7:
            raise DataError(f"expected 7 columns, got {len(row)}, row {row_no}")
        try:
            rows.append((int(row[0]), float(row[1]), float(row[2]),
                         float(row[3]), float(row[4]), float(row[5]), float(row[6])))
        except ValueError:
            raise DataError(f"non-numeric value, row {row_no}") from None
    if not rows:
        raise DataError("no grid data rows")

    times = sorted({r[0] for r in rows})
    lats = sorted({r[1] for r in rows})
    lons = sorted({r[2] for r in rows})
    if times != list(range(len(times))):
        raise DataError("ragged grid: time indices must run 0..n-1")
    lat_idx = {v: j for j, v in enumerate(lats)}
    lon_idx = {v: i for i, v in enumerate(lons)}
    shape = (len(times), len(lats), len(lons))
    arrays = {name: np.zeros(shape, dtype=np.float32) for name in VARIABLES}
    filled = np.zeros(shape, dtype=bool)
    for t, la, lo, a, b, c, d in rows:
        j, i = lat_idx[la], lon_idx[lo]
        if filled[t, j, i]:
            raise DataError(f"duplicate grid cell (t={t}, lat={la}, lon={lo})")
        filled[t, j, i] = True
        for name, value in zip(VARIABLES, (a, b, c, d)):
            arrays[name][t, j, i] = value
    if not filled.all():
        t, j, i = np.argwhere(~filled)[0]
        raise DataError(f"ragged grid: missing cell (t={t}, lat={lats[j]}, lon={lons[i]})")
    return WindGrid(lons=np.asarray(lons, dtype=np.float64),
                    lats=np.asarray(lats, dtype=np.float64),
                    t0=t0, step=step, **arrays)

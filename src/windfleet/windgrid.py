"""Gridded hourly wind components and point/height evaluation.

Wind data live in a little-endian WGRD container: magic ``WGRD``, u32
version (=1), u32 n_time, u32 n_lat, u32 n_lon, i64 start timestamp (Unix
seconds UTC), i64 step seconds, then the ascending f64 latitude and longitude
axes, then four f32 payload arrays ``u10, v10, u100, v100`` laid out
[time][lat][lon] row-major.  Payload is stored as 32-bit floats; all
arithmetic on it is done in 64-bit.

Every pass that reads a payload goes through one window of
``WINDOW_VALUES`` values: ``load_windgrid``'s check, the finite check of
``WindGrid.validate`` and the kernel's positioned reads in ``stamp_blocks``,
which read at most ``max(1, WINDOW_VALUES // grid nodes)`` stamps at a time.  A
loaded payload stays on disk, mapped read-only, so a report holds the
interpreter, numpy and its BLAS, the window and one turbine chunk's work
arrays: its memory grows neither with the file size nor with the grid's node
count.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import csvinput
from .errors import DataError

MAGIC = b"WGRD"
VERSION = 1
VARIABLES = ("u10", "v10", "u100", "v100")
#: anchor height of the power-law extrapolation, meters
REFERENCE_HEIGHT = 100.0

_HEADER = struct.Struct("<4s4I2q")
#: payload values one pass over a payload holds at a time (256 KiB of f32)
WINDOW_VALUES = 1 << 16
#: largest finite payload value
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class GridFile:
    """The WGRD file behind a loaded grid and the file state that
    ``load_windgrid`` validated."""

    path: str
    #: byte offset of the first payload value
    offset: int
    size: int
    mtime_ns: int
    dev: int
    ino: int

    def open(self) -> int:
        """A read-only descriptor on the file, after checking that it is
        still the file that was validated."""
        fd = os.open(self.path, os.O_RDONLY)
        st = os.fstat(fd)
        if (st.st_size, st.st_mtime_ns, st.st_dev, st.st_ino) != \
                (self.size, self.mtime_ns, self.dev, self.ino):
            os.close(fd)
            raise DataError(f"wind grid file {self.path} changed after it was loaded")
        return fd


@dataclass
class WindGrid:
    """Hourly u/v wind components at 10 m and 100 m on a regular lon/lat grid.

    A grid from ``load_windgrid`` holds read-only maps of its file's payload
    and names the file in ``source``; other grids hold arrays in memory.
    """

    lons: np.ndarray
    lats: np.ndarray
    t0: int
    step: int
    u10: np.ndarray
    v10: np.ndarray
    u100: np.ndarray
    v100: np.ndarray
    source: GridFile | None = None

    @property
    def n_time(self) -> int:
        return self.u10.shape[0]

    def variable(self, name: str) -> np.ndarray:
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}")
        return getattr(self, name)

    def validate(self) -> None:
        _check_layout(self.step, self.n_time, self.lats, self.lons)
        shape = (self.n_time, len(self.lats), len(self.lons))
        for name in VARIABLES:
            arr = self.variable(name)
            if arr.shape != shape:
                raise DataError(f"variable {name} has shape {arr.shape}, expected {shape}")
            _check_finite(name, arr)


def _check_layout(step: int, n_time: int, lats: np.ndarray, lons: np.ndarray) -> None:
    if step <= 0:
        raise DataError("grid step must be positive")
    for axis, name in ((lons, "lons"), (lats, "lats")):
        if axis.ndim != 1 or len(axis) < 1:
            raise DataError(f"{name} axis must be a nonempty vector")
        if not np.isfinite(axis).all():
            raise DataError(f"{name} axis contains non-finite values")
        if np.any(np.diff(axis) <= 0):
            raise DataError(f"{name} axis must be strictly ascending")
    if n_time < 1:
        raise DataError("grid must contain at least one time step")


def _check_finite(name: str, values: np.ndarray) -> None:
    flat = values.reshape(-1)
    for start in range(0, flat.size, WINDOW_VALUES):
        if not np.isfinite(flat[start:start + WINDOW_VALUES]).all():
            raise DataError(f"variable {name} contains non-finite values")


def _write_grid(grid: WindGrid, fh) -> None:
    """Write a grid that passed ``validate``."""
    fh.write(_HEADER.pack(MAGIC, VERSION, grid.n_time, len(grid.lats),
                          len(grid.lons), grid.t0, grid.step))
    fh.write(np.ascontiguousarray(grid.lats, dtype="<f8"))
    fh.write(np.ascontiguousarray(grid.lons, dtype="<f8"))
    for name in VARIABLES:
        fh.write(np.ascontiguousarray(grid.variable(name), dtype="<f4"))


def grid_to_bytes(grid: WindGrid) -> bytes:
    grid.validate()
    out = io.BytesIO()
    _write_grid(grid, out)
    return out.getvalue()


def write_windgrid(grid: WindGrid, path) -> None:
    """Write ``grid`` as a WGRD file, one variable at a time; an invalid grid
    fails before the file is opened."""
    grid.validate()
    with open(path, "wb") as fh:
        _write_grid(grid, fh)


def _read_header(head: bytes, size: int) -> tuple[int, int, int, int, int]:
    """(n_time, n_lat, n_lon, t0, step) of a WGRD file of ``size`` bytes that
    starts with ``head``; the size must be exactly what the header declares."""
    if len(head) < _HEADER.size:
        raise DataError("truncated WGRD header")
    magic, version, n_time, n_lat, n_lon, t0, step = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise DataError(f"bad magic {magic!r}, not a WGRD file")
    if version != VERSION:
        raise DataError(f"unsupported WGRD version {version}")
    expected = (_HEADER.size + 8 * (n_lat + n_lon)
                + 4 * len(VARIABLES) * n_time * n_lat * n_lon)
    if size < expected:
        raise DataError(f"truncated WGRD payload: {size} bytes, expected {expected}")
    if size > expected:
        raise DataError(f"trailing bytes in WGRD file: {size} bytes, expected {expected}")
    return n_time, n_lat, n_lon, t0, step


def grid_from_bytes(data: bytes) -> WindGrid:
    """A validated grid whose arrays are read-only views of ``data``."""
    n_time, n_lat, n_lon, t0, step = _read_header(data, len(data))
    axes = np.frombuffer(data, "<f8", n_lat + n_lon, _HEADER.size)
    payload = np.frombuffer(data, "<f4", offset=_HEADER.size + axes.nbytes)
    grid = WindGrid(lons=axes[n_lat:], lats=axes[:n_lat], t0=t0, step=step,
                    **dict(zip(VARIABLES, payload.reshape(-1, n_time, n_lat, n_lon))))
    grid.validate()
    return grid


def load_windgrid(path) -> WindGrid:
    """Validate a WGRD file and return a grid whose variables are read-only
    maps of its payload.

    The header, the size and the axes are checked as in ``grid_from_bytes``;
    the payload is read once, one window at a time into one reused buffer,
    and every value must be finite.  Nothing of the payload stays in memory.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        n_time, n_lat, n_lon, t0, step = _read_header(fh.read(_HEADER.size), st.st_size)
        axes = np.frombuffer(fh.read(8 * (n_lat + n_lon)), "<f8")
        lats, lons = axes[:n_lat], axes[n_lat:]
        _check_layout(step, n_time, lats, lons)
        offset = fh.tell()
        n_cells = n_time * n_lat * n_lon
        buf = np.empty(min(n_cells, WINDOW_VALUES), dtype="<f4")
        for name in VARIABLES:
            for start in range(0, n_cells, len(buf)):
                part = buf[:min(len(buf), n_cells - start)]
                if fh.readinto(part) != part.nbytes:
                    raise DataError(f"WGRD file {path} shrank while it was read")
                _check_finite(name, part)
        payload = np.memmap(fh, dtype="<f4", mode="r", offset=offset,
                            shape=(len(VARIABLES), n_time, n_lat, n_lon))
    source = GridFile(os.path.abspath(path), offset, st.st_size, st.st_mtime_ns,
                      st.st_dev, st.st_ino)
    return WindGrid(lons=lons, lats=lats, t0=t0, step=step, source=source,
                    **dict(zip(VARIABLES, payload)))


def _pread_into(fd: int, out: np.ndarray, offset: int) -> None:
    view = memoryview(out).cast("B")
    while view:
        n = os.preadv(fd, [view], offset)
        if n == 0:
            raise DataError("wind grid file shrank after it was loaded")
        view, offset = view[n:], offset + n


@contextmanager
def stamp_blocks(grid: WindGrid, nodes: np.ndarray):
    """Yield ``fill(name, k0, k1, out)``: put stamps [k0, k1) of one variable
    at the flat nodes ``nodes`` (lat·n_lon + lon) into ``out``, a
    [k1 - k0, len(nodes)] f64 array.

    An in-memory grid is sliced.  A file-backed grid is read in positioned
    reads of at most ``max(1, WINDOW_VALUES // grid nodes)`` whole stamps
    into one reused buffer, and ``nodes`` are taken from each read, so no
    buffer grows with the grid's node count beyond one stamp.  The file is opened once and
    must still be the file that ``load_windgrid`` validated.
    """
    n_nodes = len(grid.lats) * len(grid.lons)
    if grid.source is None:
        def fill(name: str, k0: int, k1: int, out: np.ndarray) -> None:
            values = grid.variable(name)[k0:k1].reshape(k1 - k0, n_nodes)
            out[...] = values.take(nodes, axis=1)

        yield fill
        return
    span = max(1, WINDOW_VALUES // n_nodes)
    buf = np.empty(span * n_nodes, dtype="<f4")
    stamp_bytes = buf.itemsize * n_nodes
    fd = grid.source.open()

    def fill(name: str, k0: int, k1: int, out: np.ndarray) -> None:
        first = VARIABLES.index(name) * grid.n_time
        for s in range(k0, k1, span):
            e = min(s + span, k1)
            block = buf[:(e - s) * n_nodes].reshape(e - s, n_nodes)
            _pread_into(fd, block, grid.source.offset + (first + s) * stamp_bytes)
            out[s - k0:e - k0] = block.take(nodes, axis=1)

    try:
        yield fill
    finally:
        os.close(fd)


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
    the logarithm undefined; the fallback is zero shear, so every height
    gets the 100 m speed.
    """
    if v10 <= 0.0 or v100 <= 0.0:
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


def grid_from_csv(data: bytes | str, t0: int, step: int = 3600) -> WindGrid:
    """Build a grid from desk-scale CSV rows ``time_index,lat,lon,u10,v10,u100,v100``.

    Every (time, lat, lon) combination must appear exactly once and time
    indices must run 0..n-1; anything else is a ragged grid.  A finite wind
    value outside the float32 range is an error naming its row.
    """
    columns = ("time_index", "lat", "lon", *VARIABLES)
    cells: dict[tuple[int, float, float], list[float]] = {}
    data = data.encode("utf-8") if isinstance(data, str) else data
    with csvinput.table(data, "grid", columns) as table:
        for row_no, row in table:
            t = csvinput.number(int, row[0], columns[0], row_no)
            lat, lon, *values = [csvinput.number(float, raw, name, row_no)
                                 for raw, name in zip(row[1:], columns[1:])]
            for name, value in zip(VARIABLES, values):
                if _F32_MAX < abs(value) < math.inf:
                    raise DataError(f"{name} outside the float32 range, row {row_no}")
            if (t, lat, lon) in cells:
                raise DataError(f"duplicate grid cell (t={t}, lat={lat}, lon={lon}), row {row_no}")
            cells[t, lat, lon] = values
    times, lats, lons = (sorted({cell[k] for cell in cells}) for k in range(3))
    if times != list(range(len(times))):
        raise DataError("ragged grid: time indices must run 0..n-1")
    order = list(itertools.product(times, lats, lons))
    missing = next((cell for cell in order if cell not in cells), None)
    if missing is not None:
        raise DataError("ragged grid: missing cell (t={}, lat={}, lon={})".format(*missing))
    payload = np.array([cells[cell] for cell in order], dtype=np.float32)
    payload = payload.T.reshape(len(VARIABLES), len(times), len(lats), len(lons))
    return WindGrid(lons=np.asarray(lons, dtype=np.float64),
                    lats=np.asarray(lats, dtype=np.float64),
                    t0=t0, step=step, **dict(zip(VARIABLES, payload)))

"""Gridded hourly wind components and point/height evaluation.

Wind data live in a little-endian WGRD container: magic ``WGRD``, u32
version (=1), u32 n_time, u32 n_lat, u32 n_lon, i64 start timestamp (Unix
seconds UTC), i64 step seconds, then the ascending f64 latitude and longitude
axes, then four f32 payload arrays ``u10, v10, u100, v100`` laid out
[time][lat][lon] row-major.  Payload is stored as 32-bit floats; all
arithmetic on it is done in 64-bit.

Every pass over a payload reads it through one generator, ``stamp_windows``,
in windows of at most ``max(1, WINDOW_VALUES // grid nodes)`` whole stamps:
the finite check of ``WindGrid.validate`` (which ``load_windgrid`` runs),
the writer behind ``write_windgrid`` and ``grid_to_bytes``, and the kernel
pass.  An in-memory grid's windows are views, also of fields that broadcast
one value or one value per stamp; a file's are positioned reads into one
reused buffer.  A loaded payload stays on disk,
mapped read-only, so a report holds the interpreter, numpy and its BLAS, the
window, one turbine chunk's work arrays and the pass's one result array of
sums per [height × block × turbine]: its memory grows neither with the file
size nor with the grid's node count.
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
        if self.step <= 0:
            raise DataError("grid step must be positive")
        for axis, name in ((self.lons, "lons"), (self.lats, "lats")):
            if axis.ndim != 1 or len(axis) < 1:
                raise DataError(f"{name} axis must be a nonempty vector")
            if not np.isfinite(axis).all():
                raise DataError(f"{name} axis contains non-finite values")
            if np.any(np.diff(axis) <= 0):
                raise DataError(f"{name} axis must be strictly ascending")
        if self.n_time < 1:
            raise DataError("grid must contain at least one time step")
        shape = (self.n_time, len(self.lats), len(self.lons))
        for name in VARIABLES:
            arr = self.variable(name)
            if arr.shape != shape:
                raise DataError(f"variable {name} has shape {arr.shape}, expected {shape}")
        with stamp_windows(self) as windows:
            for name in VARIABLES:
                if not all(np.isfinite(window).all() for _, window in windows(name)):
                    raise DataError(f"variable {name} contains non-finite values")


def _write_grid(grid: WindGrid, fh) -> None:
    """Write a grid that passed ``validate``, its payload one window at a
    time.  On a destination that can seek, a window whose bits are all zero
    is skipped (a hole in a file) and the output still ends at its full
    length; elsewhere its zeros are written."""
    fh.write(_HEADER.pack(MAGIC, VERSION, grid.n_time, len(grid.lats),
                          len(grid.lons), grid.t0, grid.step))
    fh.write(np.ascontiguousarray(grid.lats, dtype="<f8"))
    fh.write(np.ascontiguousarray(grid.lons, dtype="<f8"))
    seekable = fh.seekable()
    skipped = False
    with stamp_windows(grid) as windows:
        for name in VARIABLES:
            for _, window in windows(name):
                data = np.ascontiguousarray(window, dtype="<f4")
                skipped = seekable and not data.view("<u4").any()
                if skipped:
                    fh.seek(data.nbytes, io.SEEK_CUR)
                else:
                    fh.write(data)
    if skipped:  # a seek past the end does not lengthen the output; a write does
        fh.seek(-1, io.SEEK_CUR)
        fh.write(b"\0")


def grid_to_bytes(grid: WindGrid) -> bytes:
    grid.validate()
    out = io.BytesIO()
    _write_grid(grid, out)
    return out.getvalue()


def write_windgrid(grid: WindGrid, path) -> None:
    """Write ``grid`` as a WGRD file, its payload read through
    ``stamp_windows`` one window at a time, so a grid of broadcast fields or
    a file-backed grid is never held whole.  An invalid grid, or a grid's own
    file as ``path`` (which opening would truncate), fails before the open."""
    grid.validate()
    if grid.source is not None and os.path.exists(path):
        st = os.stat(path)
        if (st.st_dev, st.st_ino) == (grid.source.dev, grid.source.ino):
            raise DataError(f"cannot write a wind grid over its own file {path}")
    with open(path, "wb") as fh:
        _write_grid(grid, fh)


def _read_header(buf) -> tuple[int, int, int, int, int]:
    """(n_time, n_lat, n_lon, t0, step) of the WGRD file held in ``buf``;
    its size must be exactly what the header declares."""
    if (size := len(buf)) < _HEADER.size:
        raise DataError("truncated WGRD header")
    magic, version, n_time, n_lat, n_lon, t0, step = _HEADER.unpack_from(buf)
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


def _parse(buf: np.ndarray, path=None, st: os.stat_result | None = None) -> WindGrid:
    """The validated grid of the WGRD file in ``buf``, a read-only uint8 array:
    its variables are views of ``buf`` and its axes copies.  A file's grid
    (``path`` and its ``st`` given) names its ``source`` before it is
    validated, so the finite check reads through ``stamp_windows``."""
    n_time, n_lat, n_lon, t0, step = _read_header(buf)
    offset = _HEADER.size + 8 * (n_lat + n_lon)
    # copied: a file that shrinks after the load is never read through its map
    axes = np.frombuffer(bytes(buf[_HEADER.size:offset]), "<f8")
    payload = buf[offset:].view("<f4").reshape(len(VARIABLES), n_time, n_lat, n_lon)
    source = None if path is None else GridFile(
        os.path.abspath(path), offset, st.st_size, st.st_mtime_ns, st.st_dev, st.st_ino)
    grid = WindGrid(lons=axes[n_lat:], lats=axes[:n_lat], t0=t0, step=step, source=source,
                    **dict(zip(VARIABLES, payload)))
    grid.validate()
    return grid


def grid_from_bytes(data: bytes) -> WindGrid:
    """A validated grid whose variables are read-only views of ``data``."""
    return _parse(np.frombuffer(data, np.uint8))


def load_windgrid(path) -> WindGrid:
    """Validate a WGRD file and return a grid whose variables are read-only
    maps of its payload.

    The file is parsed as ``grid_from_bytes`` parses bytes, through a
    read-only map of the whole file; ``WindGrid.validate`` then reads the
    payload once through ``stamp_windows`` and every value must be finite.
    Nothing of the payload stays in memory.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        # numpy cannot map an empty file; it is a truncated header all the same
        buf = np.memmap(fh, np.uint8, "r") if st.st_size else np.empty(0, np.uint8)
    return _parse(buf, path, st)


def _pread_into(fd: int, out: np.ndarray, offset: int) -> None:
    view = memoryview(out).cast("B")
    while view:
        n = os.preadv(fd, [view], offset)
        if n == 0:
            raise DataError("wind grid file shrank after it was loaded")
        view, offset = view[n:], offset + n


@contextmanager
def stamp_windows(grid: WindGrid):
    """Yield ``windows(name, k0=0, k1=n_time)``, a generator of
    ``(s, window)`` over stamps [k0, k1) of one variable: ``window`` holds
    stamps [s, s + len(window)) as a [stamps × nodes] f32 array, nodes flat
    (lat·n_lon + lon), at most ``max(1, WINDOW_VALUES // nodes)`` stamps.

    An in-memory grid yields views of its arrays.  A file-backed grid is read
    in positioned reads into one reused buffer, so each window is valid
    until the next; the file is opened once, and must still be the file that
    ``load_windgrid`` validated.
    """
    n_nodes = len(grid.lats) * len(grid.lons)
    span = max(1, WINDOW_VALUES // n_nodes)
    buf = None if grid.source is None else np.empty(span * n_nodes, dtype="<f4")
    fd = None if grid.source is None else grid.source.open()

    def windows(name: str, k0: int = 0, k1: int = grid.n_time):
        first = VARIABLES.index(name) * grid.n_time
        for s in range(k0, k1, span):
            e = min(s + span, k1)
            if fd is None:
                window = grid.variable(name)[s:e].reshape(e - s, n_nodes)
            else:
                window = buf[:(e - s) * n_nodes].reshape(e - s, n_nodes)
                _pread_into(fd, window,
                            grid.source.offset + (first + s) * n_nodes * buf.itemsize)
            yield s, window

    try:
        yield windows
    finally:
        if fd is not None:
            os.close(fd)


def _axis_cell(axis: np.ndarray, x, name: str):
    """Locate ``x``, a number or an array, on an ascending axis: (lower
    index, upper index, fraction), each of ``x``'s shape.  A point on the
    upper edge takes the last cell; a single-node axis gives fraction 0."""
    x = np.asarray(x, dtype=np.float64)
    outside = x[(x < axis[0]) | (x > axis[-1])]
    if outside.size:
        raise DataError(f"{name} {outside[0]} outside grid range [{axis[0]}, {axis[-1]}]")
    if len(axis) == 1:
        zero = np.zeros_like(x, dtype=np.intp)
        return zero, zero, np.zeros_like(x)
    i = np.minimum(np.searchsorted(axis, x, side="right") - 1, len(axis) - 2)
    return i, i + 1, (x - axis[i]) / (axis[i + 1] - axis[i])


def cell_weights(grid: WindGrid, lon, lat):
    """Corner indices and bilinear weights of the cells enclosing points.

    ``lon`` and ``lat`` are numbers or arrays of one shape.  Returns
    ``(j0, j1, i0, i1, w00, w01, w10, w11)``, each of that shape, where j
    indexes latitude and i longitude; w00 weights corner (j0, i0), w01
    corner (j0, i1), etc.  The arithmetic is elementwise, so a point gets
    the same bits alone or in an array.
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

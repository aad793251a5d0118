"""Turbine registry: ingestion, merge, cleaning, imputation and annual aggregates.

The registry CSV is column-mapped (``case_id,xlong,ylat,p_year,t_hh,t_rd,
t_cap,is_decommissioned,d_year``); empty fields mean "missing".  Records with
no commissioning year are dropped during preprocessing, the remaining missing
meta parameters (hub height, rotor diameter, capacity) are filled by
per-commissioning-year mean imputation.

In memory the registry is one ``TurbineColumns`` table: every field is an
array in registry order, and parsing, merging, imputation and every annual
reduction are array operations on it.  ``TurbineRecord`` is the one-turbine
view that the table builds on demand.

The ingest holds one table at a time.  ``parse_turbine_csv`` streams the CSV
into columns sized once, from the file's newline count, and returns a
writable table; ``merge_extension`` and ``preprocess`` change a writable
table in place, a column at a time, and a ``Fleet`` makes its table
read-only.
"""

from __future__ import annotations

import datetime
import functools
import itertools
import logging
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from typing import BinaryIO

import numpy as np

from . import csvinput
from .errors import DataError
from .series import AnnualSeries

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = (
    "case_id", "xlong", "ylat", "p_year", "t_hh", "t_rd", "t_cap",
    "is_decommissioned", "d_year",
)
IMPUTABLE_FIELDS = ("hub_height", "rotor_diameter", "capacity")

#: ``is_decommissioned`` values after strip and lower-case; others are errors
_BOOLEANS = {"": False, "false": False, "f": False, "0": False, "no": False,
             "true": True, "t": True, "1": True, "yes": True}

#: commissioning or decommissioning year standing in for a missing one:
#: later than any year
_NEVER = np.iinfo(np.int64).max // 2


@dataclass
class TurbineRecord:
    """One turbine; optional numeric fields are ``None`` when missing.

    ``capacity`` is in kilowatts as ingested; ``imputed_fields`` names the
    meta parameters that were filled by imputation rather than observed.
    """

    id: str
    lon: float
    lat: float
    commissioning_year: int | None = None
    hub_height: float | None = None
    rotor_diameter: float | None = None
    capacity: float | None = None
    decommissioned_flag: bool = False
    decommissioning_year: int | None = None
    imputed_fields: set[str] = field(default_factory=set)


@dataclass(frozen=True, eq=False, repr=False)
class TurbineColumns(Sequence):
    """The registry as one table: each ``TurbineRecord`` field is an array
    with one entry per turbine, in registry order.

    Missing numbers are NaN and missing years ``_NEVER``; ``imputed`` has
    one boolean column per ``IMPUTABLE_FIELDS`` entry.  The table is a
    sequence of records: ``len``, an integer index and iteration build
    ``TurbineRecord``s on demand, and a slice is a read-only table sharing
    the columns' memory.  A writable table is the ingest's own, which its
    stages change in place (see the module docstring); a read-only one is
    never changed.
    """

    id: np.ndarray  # object: str
    lon: np.ndarray
    lat: np.ndarray
    commissioning_year: np.ndarray  # int64
    hub_height: np.ndarray
    rotor_diameter: np.ndarray
    capacity: np.ndarray
    decommissioned_flag: np.ndarray  # bool
    decommissioning_year: np.ndarray  # int64
    imputed: np.ndarray  # bool, [turbine, imputable field]

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    @classmethod
    def of(cls, turbines: Iterable[TurbineRecord]) -> "TurbineColumns":
        """``turbines`` as a table; a table is returned as it is."""
        if isinstance(turbines, TurbineColumns):
            return turbines
        recs = list(turbines)
        n = len(recs)

        def numbers(name: str, dtype, missing) -> np.ndarray:
            return np.fromiter((missing if (v := getattr(r, name)) is None else v
                                for r in recs), dtype, n)

        return cls(
            np.array([r.id for r in recs], dtype=object),
            np.fromiter((r.lon for r in recs), np.float64, n),
            np.fromiter((r.lat for r in recs), np.float64, n),
            numbers("commissioning_year", np.int64, _NEVER),
            numbers("hub_height", np.float64, math.nan),
            numbers("rotor_diameter", np.float64, math.nan),
            numbers("capacity", np.float64, math.nan),
            np.fromiter((r.decommissioned_flag for r in recs), bool, n),
            numbers("decommissioning_year", np.int64, _NEVER),
            np.array([[f in r.imputed_fields for f in IMPUTABLE_FIELDS] for r in recs],
                     dtype=bool).reshape(n, len(IMPUTABLE_FIELDS)))

    def _frozen(self) -> "TurbineColumns":
        """The table, read-only from now on."""
        for column in self._columns():
            column.flags.writeable = False
        return self

    def _owned(self) -> "TurbineColumns":
        """The table if it is writable, the ingest's own; else a writable copy."""
        if all(column.flags.writeable for column in self._columns()):
            return self
        return TurbineColumns(*(column.copy() for column in self._columns()))

    def _rebuild(self, column_of: Callable[[str, np.ndarray], np.ndarray]) -> None:
        """Replace each column of an owned table by ``column_of(name,
        column)``, one at a time, so that at most one old column is held
        beside the new ones."""
        for f in fields(self):
            object.__setattr__(self, f.name, column_of(f.name, getattr(self, f.name)))

    def imputed_mask(self, name: str) -> np.ndarray:
        return self.imputed[:, IMPUTABLE_FIELDS.index(name)]

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return TurbineColumns(*(column[key] for column in self._columns()))._frozen()
        i = range(len(self))[key]
        return next(self._records(slice(i, i + 1)))

    def __iter__(self) -> Iterator[TurbineRecord]:
        return self._records(slice(None))

    def _records(self, index: slice) -> Iterator[TurbineRecord]:
        rows = zip(*(column[index].tolist() for column in self._columns()))
        for tid, lon, lat, cy, hub, rotor, cap, flag, dy, imputed in rows:
            yield TurbineRecord(
                id=tid, lon=lon, lat=lat,
                commissioning_year=None if cy == _NEVER else cy,
                hub_height=None if math.isnan(hub) else hub,
                rotor_diameter=None if math.isnan(rotor) else rotor,
                capacity=None if math.isnan(cap) else cap,
                decommissioned_flag=flag,
                decommissioning_year=None if dy == _NEVER else dy,
                imputed_fields={f for f, marked in zip(IMPUTABLE_FIELDS, imputed) if marked})

    def __repr__(self) -> str:
        return f"TurbineColumns({len(self)} turbines)"


@dataclass
class Fleet:
    """Preprocessed registry: every turbine has a commissioning year and
    (possibly imputed) hub height, rotor diameter and capacity.  Records
    given as ``turbines`` are converted to a table once, here, and the table
    is read-only from then on."""

    turbines: TurbineColumns
    provenance: dict[str, int]
    imputation: "ImputationReport"

    def __post_init__(self):
        self.turbines = TurbineColumns.of(self.turbines)._frozen()


@dataclass
class ImputationReport:
    """What ``impute_missing`` filled, per imputable field.  The share of
    missing values per year is ``validate.missingness_report``'s."""

    #: field -> number of values filled
    imputed_counts: dict[str, int]
    #: field -> years where no in-year value existed and the global mean was used
    fallback_years: dict[str, list[int]]


@dataclass
class ScenarioSpec:
    """Fleet retention assumptions for validation runs.

    Defaults reproduce the primary pipeline: decommissioning ignored,
    missing capacities imputed, no lifetime cutoff.
    """

    drop_decommissioned_flagged: bool = False
    lifetime_years: int | None = None
    impute_capacity: bool = True

    def __post_init__(self):
        if self.lifetime_years is not None and self.lifetime_years <= 0:
            raise ValueError("lifetime_years must be positive")


def parse_turbine_csv(source: bytes | BinaryIO) -> TurbineColumns:
    """Parse a turbine registry CSV (``csvinput``'s format), bytes or a binary
    file, into a writable table.

    Unknown extra columns are ignored; the required columns may appear in any
    order.  Rows are read and checked ``csvinput.BLOCK_ROWS`` at a time, each
    block as arrays, and copied into columns allocated once for the source's
    newline count; the first failing row raises.
    """
    with csvinput.table(source) as table:
        if table.header is None:
            raise DataError("empty turbine CSV")
        missing = [c for c in REQUIRED_COLUMNS if c not in table.header]
        if missing:
            raise DataError(f"turbine CSV missing columns: {', '.join(missing)}")
        col = {name: table.header.index(name) for name in REQUIRED_COLUMNS}
        columns = [np.empty((table.max_rows, *c.shape[1:]), c.dtype)  # an empty table's dtypes
                   for c in TurbineColumns.of([])._columns()]
        n = 0
        # starmap holds no block's rows while the next block is read
        for block in itertools.starmap(functools.partial(_parse_rows, col=col),
                                       table.blocks()):
            for column, values in zip(columns, block._columns()):
                column[n:n + len(block)] = values
            n += len(block)
    return TurbineColumns(*(column[:n] for column in columns))


def _floats(raw: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``float()`` of every field, NaN where it is blank or not a number;
    the masks of blank fields and of fields ``float()`` rejects."""
    n = len(raw)
    blank = np.fromiter(map(operator.not_, raw), bool, n)
    try:
        values = np.fromiter(map(float, [v or "nan" for v in raw]), np.float64, n)
        return values, blank, np.zeros(n, bool)
    except ValueError:  # blanks of white space, or non-numbers: field by field
        values, rejected = np.full(n, math.nan), np.zeros(n, bool)
        for i, v in enumerate(raw):
            v = v.strip()
            if not v:
                blank[i] = True
                continue
            try:
                values[i] = float(v)
            except ValueError:
                rejected[i] = True
        return values, blank, rejected


def _parse_rows(row_nos: np.ndarray, rows: list[list[str]],
                col: dict[str, int]) -> TurbineColumns:
    """The table of nonblank rows of the right length, or the first failing
    row's error: each row's checks run in a fixed order, as masks."""
    columns = list(zip(*rows))
    raw = {name: columns[i] for name, i in col.items()}
    checks: list[tuple[np.ndarray, Callable[[int], str]]] = []

    ids = list(map(str.strip, raw["case_id"]))
    checks.append((np.fromiter(map(operator.not_, ids), bool, len(ids)),
                   lambda i: "empty case_id"))

    def number(column: str):
        values, blank, rejected = _floats(raw[column])
        checks.append((rejected, lambda i: f"non-numeric {column} {raw[column][i].strip()!r}"))
        checks.append((~(blank | np.isfinite(values)), lambda i: f"non-finite {column}"))
        return values, blank

    (lon, lon_blank), (lat, lat_blank) = number("xlong"), number("ylat")
    checks.append((lon_blank | lat_blank, lambda i: "missing coordinates"))
    checks.append((~((lon >= -180.0) & (lon <= 180.0)), lambda i: "lon out of range"))
    checks.append((~((lat >= -90.0) & (lat <= 90.0)), lambda i: "lat out of range"))

    values = {}
    for column in ("t_hh", "t_rd", "t_cap", "p_year", "d_year"):
        values[column] = number(column)[0]
        if column.endswith("_year"):
            v = values[column]
            checks.append((np.isfinite(v) & (v != np.trunc(v)),
                           lambda i, c=column: f"non-integer {c} {raw[c][i]!r}"))
    for column, v in values.items():
        checks.append((v <= 0, lambda i, c=column: f"non-positive {c}"))

    flags = list(map(_BOOLEANS.get, map(str.lower, map(str.strip, raw["is_decommissioned"]))))
    checks.append((np.fromiter(map(operator.is_, flags, itertools.repeat(None)), bool,
                               len(flags)),
                   lambda i: "bad boolean is_decommissioned "
                             f"{raw['is_decommissioned'][i].strip().lower()!r}"))
    for column in ("p_year", "d_year"):  # a calendar year: missingness spans the years
        checks.append((values[column] > datetime.MAXYEAR, lambda i, c=column: f"{c} out of range"))

    # the error is the first failing row's earliest failing check: a check
    # that fails on that row has it as its own first failing row
    first = [(hits[0], k) for k, (mask, _) in enumerate(checks)
             if len(hits := np.flatnonzero(mask))]
    if first:
        i, k = min(first)
        raise DataError(f"{checks[k][1](i)}, row {row_nos[i]}")

    def years(v: np.ndarray) -> np.ndarray:
        out = np.full(len(v), _NEVER)
        known = ~np.isnan(v)
        out[known] = v[known]
        return out

    return TurbineColumns(
        np.array(ids, dtype=object), lon, lat, years(values["p_year"]),
        values["t_hh"], values["t_rd"], values["t_cap"], np.array(flags, dtype=bool),
        years(values["d_year"]), np.zeros((len(ids), len(IMPUTABLE_FIELDS)), bool))


def parse_exclusion_ids(text: str) -> set[str]:
    """Newline-separated turbine ids to drop; blank lines ignored."""
    return {line.strip() for line in text.splitlines() if line.strip()}


def _first_duplicate(ids: np.ndarray) -> str | None:
    """The first id of the registry ``ids`` that repeats an earlier one, or
    None.  Equal ids have equal hashes, so sorted hashes rule duplicates out
    without a set of every id, which would cost more than the ids themselves."""
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes.sort()
    if not (hashes[1:] == hashes[:-1]).any():
        return None
    seen: set[str] = set()
    for tid in ids:
        if tid in seen:
            return tid
        seen.add(tid)
    return None


def merge_extension(base: Iterable[TurbineRecord],
                    ext: Iterable[TurbineRecord]) -> TurbineColumns:
    """Union of base registry and decommissioned-turbine extension.

    On duplicate ids the base record wins, except that the decommissioning
    flag/year are filled from the extension when the base lacks them; the
    extension's other turbines follow the base's, in extension order.  An id
    that appears twice in the extension is an error.  A writable ``base``
    table is merged in place and returned; any other ``base`` is copied.
    """
    ext = TurbineColumns.of(ext)
    last: dict[str, int] = {}  # extension id -> its last base row, or -1
    for tid in ext.id:
        if tid in last:
            raise DataError(f"duplicate turbine id {tid} in extension")
        last[tid] = -1
    base = TurbineColumns.of(base)._owned()
    for row, tid in enumerate(base.id):
        if tid in last:
            last[tid] = row
    at = np.fromiter(last.values(), np.intp, len(ext))
    hit = at >= 0
    i = at[hit]
    flag, d_year = base.decommissioned_flag, base.decommissioning_year
    gains_flag = ext.decommissioned_flag[hit] & ~flag[i]
    fill = d_year[i] == _NEVER
    gains_year = fill & (ext.decommissioning_year[hit] != _NEVER)
    flag[i[gains_flag]] = True
    d_year[i[fill]] = ext.decommissioning_year[hit][fill]
    new = ~hit
    base._rebuild(lambda name, column: np.concatenate([column, getattr(ext, name)[new]]))
    log.info("merged extension: %d new records, %d decommissioning fills",
             np.count_nonzero(new), np.count_nonzero(gains_flag | gains_year))
    return base


def check_commissioning_years(turbines: TurbineColumns) -> None:
    """A turbine without a commissioning year is an error."""
    missing = np.flatnonzero(turbines.commissioning_year == _NEVER)
    if len(missing):
        raise DataError(f"turbine {turbines.id[missing[0]]} has no commissioning year")


def impute_missing(records: Iterable[TurbineRecord]
                   ) -> tuple[TurbineColumns, ImputationReport]:
    """Fill missing hub height / rotor diameter / capacity by the mean of the
    observed values in the same commissioning year, and mark them imputed.

    Years with no observed value fall back to the mean over all years.  A
    field observed nowhere in the dataset is an error, raised before any
    value is filled.  Every mean adds its values in turbine order.  A
    writable table is filled in place and returned; other ``records`` are
    copied.
    """
    table = TurbineColumns.of(records)._owned()
    check_commissioning_years(table)
    for fname in IMPUTABLE_FIELDS:
        if np.isnan(getattr(table, fname)).all():
            raise DataError(f"field never observed: {fname}")
    first = int(table.commissioning_year.min())
    cohort = table.commissioning_year - first  # a year's bin, in year order
    per_year = np.bincount(cohort)
    imputed_counts: dict[str, int] = {}
    fallback_years: dict[str, list[int]] = {}

    for k, fname in enumerate(IMPUTABLE_FIELDS):
        values = getattr(table, fname)
        missing = np.isnan(values)
        blanks = cohort[missing]
        # a blank holds 0.0 until it is filled: x + 0.0 is x, bit for bit, for
        # every x but -0.0, which no registry value is, so these sums are the
        # observed values' sums, each added left to right in turbine order
        values[missing] = 0.0
        counts = per_year - np.bincount(blanks, minlength=len(per_year))
        with np.errstate(over="ignore"):  # finite values, sums past the float range
            sums = np.bincount(cohort, weights=values, minlength=len(per_year))
            global_mean = _turbine_order_sum(values) / (len(values) - len(blanks))
        means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
        fills = means[blanks]
        if len(bad := np.flatnonzero(~np.isfinite(fills))):
            raise DataError(f"non-finite mean {fname} to impute for commissioning year "
                            f"{first + blanks[bad[0]]}")
        fallback_years[fname] = (first + np.flatnonzero((per_year > 0) & (counts == 0))).tolist()
        imputed_counts[fname] = len(blanks)
        values[missing] = fills
        table.imputed[:, k] |= missing
    return table, ImputationReport(imputed_counts, fallback_years)


def preprocess(records: Iterable[TurbineRecord],
               exclusion_ids: set[str] | None = None) -> Fleet:
    """Drop unusable records, record why, and impute the rest.

    Dropped: records on the exclusion list, and records with no
    commissioning year (unusable for annual aggregation).  A writable table
    is changed in place and becomes the fleet's; other ``records`` are
    copied.
    """
    table = TurbineColumns.of(records)
    if (duplicate := _first_duplicate(table.id)) is not None:
        raise DataError(f"duplicate turbine id {duplicate}")
    excluded = np.zeros(len(table), bool)
    if exclusion_ids:
        excluded = np.fromiter(map(exclusion_ids.__contains__, table.id), bool, len(table))
    no_year = ~excluded & (table.commissioning_year == _NEVER)
    dropped = excluded | no_year
    if dropped.all():
        raise DataError("no usable turbines")
    table = table._owned()
    if dropped.any():
        kept = ~dropped
        table._rebuild(lambda name, column: column[kept])
    imputed, report = impute_missing(table)
    provenance = {"missing_commissioning_year": int(np.count_nonzero(no_year)),
                  "excluded": int(np.count_nonzero(excluded))}
    return Fleet(turbines=imputed, provenance=provenance, imputation=report)


def rotor_swept_area(d: float) -> float:
    """Swept area of a rotor with diameter ``d`` (m), pi*d^2/4."""
    if d <= 0:
        raise ValueError("rotor diameter must be positive")
    return math.pi * d * d / 4.0


def swept_areas(turbines: TurbineColumns) -> np.ndarray:
    """``rotor_swept_area`` of every turbine, in turbine order."""
    d = turbines.rotor_diameter
    bad = np.flatnonzero(~(d > 0))
    if len(bad):
        if math.isnan(d[bad[0]]):
            raise DataError(f"turbine {turbines.id[bad[0]]} has no rotor diameter")
        raise ValueError("rotor diameter must be positive")
    with np.errstate(over="ignore"):  # inf, as for one rotor; the series check rejects it
        return math.pi * d * d / 4.0


def operating_weight(rec: TurbineRecord, year: int,
                     scenario: ScenarioSpec | None = None) -> float:
    """Contribution weight of a turbine to year ``year``.

    0 before commissioning, 0.5 in the commissioning year (build-out is
    assumed uniform over the year), 1 afterwards.  A scenario may remove the
    turbine entirely (decommissioned flag) or retire it after a lifetime:
    commissioned in y with lifetime L it contributes through y+L-1.
    """
    cy = rec.commissioning_year
    if cy is None or year < cy:
        return 0.0
    if scenario is not None:
        if scenario.drop_decommissioned_flagged and rec.decommissioned_flag:
            return 0.0
        if scenario.lifetime_years is not None and year >= cy + scenario.lifetime_years:
            return 0.0
    return 0.5 if year == cy else 1.0


def operating_weights(turbines: Iterable[TurbineRecord], year: int,
                      scenario: ScenarioSpec | None = None) -> np.ndarray:
    """``operating_weight`` of every turbine in ``year``, in turbine order."""
    cols = TurbineColumns.of(turbines)
    cy = cols.commissioning_year
    weights = (cy <= year).astype(np.float64)
    weights[cy == year] = 0.5
    if scenario is not None:
        if scenario.drop_decommissioned_flagged:
            weights[cols.decommissioned_flag] = 0.0
        if scenario.lifetime_years is not None:
            weights[cy <= year - scenario.lifetime_years] = 0.0  # no fleet-sized cy + L
    return weights


def _turbine_order_sum(terms: np.ndarray, out: np.ndarray | None = None) -> float:
    """Sum of ``terms`` added left to right, as a plain ``+=`` loop adds them
    (``np.sum`` adds pairwise, and Python 3.12's ``sum`` compensates; both
    change the last bits).  The running sums go to ``out``, which may be
    ``terms`` itself."""
    return float(np.cumsum(terms, out=out)[-1]) if len(terms) else 0.0


def _year_range(years) -> list[int]:
    out = list(years)
    if not out:
        raise ValueError("years must be nonempty")
    return out


def _weighted_series(fleet: Fleet, years, scenario: ScenarioSpec | None,
                     values) -> list[float]:
    """Per year, Σ operating weight · value over the fleet in turbine order.
    Each year's terms are formed and summed in its weights' array, so a year
    allocates one fleet-sized array: when a year freed several, the
    allocator gave them back to the system and faulted them in again, year
    after year."""
    sums = []
    for y in years:
        terms = operating_weights(fleet.turbines, y, scenario)
        with np.errstate(invalid="ignore"):  # 0 · inf: nan, which the series rejects
            terms *= values
        sums.append(_turbine_order_sum(terms, out=terms))
    return sums


def annual_counts(fleet: Fleet, years: range) -> AnnualSeries:
    """Operating turbine count per year with the commissioning-year 0.5 weight."""
    ys = _year_range(years)
    return AnnualSeries(ys[0], _weighted_series(fleet, ys, None, 1.0), "count")


def annual_swept_area(fleet: Fleet, years: range) -> AnnualSeries:
    """Total rotor swept area per year (m²), same weighting as counts."""
    ys = _year_range(years)
    return AnnualSeries(ys[0], _weighted_series(fleet, ys, None,
                                                swept_areas(fleet.turbines)), "m²")


def annual_capacity(fleet: Fleet, years: range,
                    scenario: ScenarioSpec | None = None) -> AnnualSeries:
    """Installed capacity per year in MW under a retention scenario.

    With ``impute_capacity`` disabled, turbines whose capacity was originally
    missing contribute zero instead of their imputed value.
    """
    scenario = scenario or ScenarioSpec()
    ys = _year_range(years)
    cap = fleet.turbines.capacity
    dropped = np.isnan(cap)
    if not scenario.impute_capacity:
        dropped |= fleet.turbines.imputed_mask("capacity")
    kw = np.where(dropped, 0.0, cap)
    return AnnualSeries(ys[0], [total / 1000.0 for total in
                                _weighted_series(fleet, ys, scenario, kw)], "MW")

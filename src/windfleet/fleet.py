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
"""

from __future__ import annotations

import datetime
import itertools
import logging
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace

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
    read-only sequence of records: ``len``, an integer index and iteration
    build ``TurbineRecord``s on demand, and a slice is a table.
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

    def __post_init__(self):
        for column in self._columns():
            column.flags.writeable = False

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

    @classmethod
    def concat(cls, tables: list["TurbineColumns"]) -> "TurbineColumns":
        return cls(*(np.concatenate(columns)
                     for columns in zip(*(t._columns() for t in tables))))

    def take(self, index) -> "TurbineColumns":
        """The turbines at ``index`` (a slice, indices or a boolean mask)."""
        return TurbineColumns(*(column[index] for column in self._columns()))

    def imputed_mask(self, name: str) -> np.ndarray:
        return self.imputed[:, IMPUTABLE_FIELDS.index(name)]

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(key)
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
    given as ``turbines`` are converted to a table once, here."""

    turbines: TurbineColumns
    provenance: dict[str, int]
    imputation: "ImputationReport"

    def __post_init__(self):
        self.turbines = TurbineColumns.of(self.turbines)


@dataclass
class ImputationReport:
    """Per-year, per-field share of originally missing values."""

    #: field -> year -> share of that year's turbines with the field missing
    missing_share: dict[str, dict[int, float]]
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


def parse_turbine_csv(data: bytes) -> TurbineColumns:
    """Parse a turbine registry CSV (``csvinput``'s format) into a table.

    Unknown extra columns are ignored; the required columns may appear in any
    order.  Rows are read and checked ``csvinput.BLOCK_ROWS`` at a time, each
    block as arrays; the first failing row raises.
    """
    with csvinput.table(data) as table:
        if table.header is None:
            raise DataError("empty turbine CSV")
        missing = [c for c in REQUIRED_COLUMNS if c not in table.header]
        if missing:
            raise DataError(f"turbine CSV missing columns: {', '.join(missing)}")
        col = {name: table.header.index(name) for name in REQUIRED_COLUMNS}
        tables = [_parse_rows(rows, row_nos, col)
                  for row_nos, rows in table.blocks()]
    return TurbineColumns.concat(tables) if tables else TurbineColumns.of([])


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


def _parse_rows(rows: list[list[str]], row_nos: np.ndarray,
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
    """The first id that repeats an earlier one, or None.  Equal ids have
    equal hashes, so sorted hashes rule duplicates out without a set of
    every id, which would cost more than the ids themselves."""
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes = hashes[np.argsort(hashes)]  # argsort, as np.unique: one sort's code paged in
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
    flag/year are filled from the extension when the base lacks them.  An id
    that appears twice in the extension is an error.
    """
    base, ext = TurbineColumns.of(base), TurbineColumns.of(ext)
    if (duplicate := _first_duplicate(ext.id)) is not None:
        raise DataError(f"duplicate turbine id {duplicate} in extension")
    by_id = dict(zip(base.id, range(len(base))))
    at = np.fromiter(map(by_id.get, ext.id, itertools.repeat(-1)), np.intp, len(ext))
    hit = at >= 0
    i = at[hit]
    flag = base.decommissioned_flag.copy()
    flag[i] |= ext.decommissioned_flag[hit]
    d_year = base.decommissioning_year.copy()
    fill = d_year[i] == _NEVER
    d_year[i[fill]] = ext.decommissioning_year[hit][fill]
    n_filled = int(np.count_nonzero((flag[i] != base.decommissioned_flag[i])
                                    | (d_year[i] != base.decommissioning_year[i])))
    new = ext.take(~hit)
    log.info("merged extension: %d new records, %d decommissioning fills", len(new), n_filled)
    merged = replace(base, decommissioned_flag=flag, decommissioning_year=d_year)
    return TurbineColumns.concat([merged, new])


def check_commissioning_years(turbines: TurbineColumns) -> None:
    """A turbine without a commissioning year is an error."""
    missing = np.flatnonzero(turbines.commissioning_year == _NEVER)
    if len(missing):
        raise DataError(f"turbine {turbines.id[missing[0]]} has no commissioning year")


def impute_missing(records: Iterable[TurbineRecord]
                   ) -> tuple[TurbineColumns, ImputationReport]:
    """Fill missing hub height / rotor diameter / capacity by the mean of the
    observed values in the same commissioning year.

    Years with no observed value fall back to the mean over all years.  A
    field observed nowhere in the dataset is an error.  Every mean adds its
    values in turbine order.
    """
    table = TurbineColumns.of(records)
    check_commissioning_years(table)
    years, cohort, in_year = np.unique(table.commissioning_year, return_inverse=True,
                                       return_counts=True)
    year_list = years.tolist()
    missing_share: dict[str, dict[int, float]] = {}
    imputed_counts: dict[str, int] = {}
    fallback_years: dict[str, list[int]] = {}
    filled = {}

    for fname in IMPUTABLE_FIELDS:
        values = getattr(table, fname)
        observed = ~np.isnan(values)
        n_observed = int(np.count_nonzero(observed))
        if not n_observed:
            raise DataError(f"field never observed: {fname}")
        counts = np.bincount(cohort[observed], minlength=len(years))
        # bincount adds each year's values left to right, in turbine order
        sums = np.bincount(cohort[observed], weights=values[observed], minlength=len(years))
        global_mean = _turbine_order_sum(values[observed]) / n_observed
        means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
        missing_share[fname] = dict(zip(year_list, (1.0 - counts / in_year).tolist()))
        fallback_years[fname] = years[counts == 0].tolist()
        imputed_counts[fname] = len(values) - n_observed
        filled[fname] = np.where(observed, values, means[cohort])

    imputed = table.imputed | np.isnan(
        np.stack([getattr(table, f) for f in IMPUTABLE_FIELDS], axis=1))
    return (replace(table, imputed=imputed, **filled),
            ImputationReport(missing_share, imputed_counts, fallback_years))


def preprocess(records: Iterable[TurbineRecord],
               exclusion_ids: set[str] | None = None) -> Fleet:
    """Drop unusable records, record why, and impute the rest.

    Dropped: records on the exclusion list, and records with no
    commissioning year (unusable for annual aggregation).
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
    imputed, report = impute_missing(table.take(~dropped) if dropped.any() else table)
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
    weights = np.where(year < cy, 0.0, np.where(year == cy, 0.5, 1.0))
    if scenario is not None:
        if scenario.drop_decommissioned_flagged:
            weights[cols.decommissioned_flag] = 0.0
        if scenario.lifetime_years is not None:
            weights[year >= cy + scenario.lifetime_years] = 0.0
    return weights


def _turbine_order_sum(terms: np.ndarray) -> float:
    """Sum of ``terms`` added left to right, as a plain ``+=`` loop adds them
    (``np.sum`` adds pairwise, and Python 3.12's ``sum`` compensates; both
    change the last bits)."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def _year_range(years) -> list[int]:
    out = list(years)
    if not out:
        raise ValueError("years must be nonempty")
    return out


def _weighted_series(fleet: Fleet, years, scenario: ScenarioSpec | None,
                     values) -> list[float]:
    """Per year, Σ operating weight · value over the fleet in turbine order."""
    return [_turbine_order_sum(operating_weights(fleet.turbines, y, scenario) * values)
            for y in years]


def annual_counts(fleet: Fleet, years: range,
                  scenario: ScenarioSpec | None = None) -> AnnualSeries:
    """Operating turbine count per year with the commissioning-year 0.5 weight."""
    ys = _year_range(years)
    return AnnualSeries(ys[0], _weighted_series(fleet, ys, scenario, 1.0), "count")


def annual_swept_area(fleet: Fleet, years: range,
                      scenario: ScenarioSpec | None = None) -> AnnualSeries:
    """Total rotor swept area per year (m²), same weighting as counts."""
    ys = _year_range(years)
    return AnnualSeries(ys[0], _weighted_series(fleet, ys, scenario,
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

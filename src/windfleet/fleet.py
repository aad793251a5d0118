"""Turbine registry: ingestion, merge, cleaning, imputation and annual aggregates.

The registry CSV is column-mapped (``case_id,xlong,ylat,p_year,t_hh,t_rd,
t_cap,is_decommissioned,d_year``); empty fields mean "missing".  Records with
no commissioning year are dropped during preprocessing, the remaining missing
meta parameters (hub height, rotor diameter, capacity) are filled by
per-commissioning-year mean imputation.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .series import AnnualSeries

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = (
    "case_id", "xlong", "ylat", "p_year", "t_hh", "t_rd", "t_cap",
    "is_decommissioned", "d_year",
)
IMPUTABLE_FIELDS = ("hub_height", "rotor_diameter", "capacity")

_TRUE = {"true", "t", "1", "yes"}
_FALSE = {"false", "f", "0", "no"}


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


@dataclass
class Fleet:
    """Preprocessed registry: every turbine has a commissioning year and
    (possibly imputed) hub height, rotor diameter and capacity."""

    turbines: list[TurbineRecord]
    provenance: dict[str, int]
    imputation: "ImputationReport"


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


def _parse_float(raw: str, column: str, row_no: int) -> float | None:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"non-numeric {column} {raw!r}, row {row_no}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite {column}, row {row_no}")
    return value


def _parse_year(raw: str, column: str, row_no: int) -> int | None:
    value = _parse_float(raw, column, row_no)
    if value is None:
        return None
    if value != int(value):
        raise DataError(f"non-integer {column} {raw!r}, row {row_no}")
    return int(value)


def _parse_bool(raw: str, column: str, row_no: int) -> bool:
    raw = raw.strip().lower()
    if raw == "" or raw in _FALSE:
        return False
    if raw in _TRUE:
        return True
    raise DataError(f"bad boolean {column} {raw!r}, row {row_no}")


def parse_turbine_csv(data: bytes) -> list[TurbineRecord]:
    """Parse a turbine registry CSV.

    Row numbers in error messages are 1-based over data rows (the header is
    row 0).  Unknown extra columns are ignored; the required columns may
    appear in any order.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader, None)
    if header is None:
        raise DataError("empty turbine CSV")
    header = [h.strip() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DataError(f"turbine CSV missing columns: {', '.join(missing)}")
    col = {name: header.index(name) for name in REQUIRED_COLUMNS}

    records = []
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"expected {len(header)} columns, got {len(row)}, row {row_no}"
            )
        turbine_id = row[col["case_id"]].strip()
        if not turbine_id:
            raise DataError(f"empty case_id, row {row_no}")
        lon = _parse_float(row[col["xlong"]], "xlong", row_no)
        lat = _parse_float(row[col["ylat"]], "ylat", row_no)
        if lon is None or lat is None:
            raise DataError(f"missing coordinates, row {row_no}")
        if not -180.0 <= lon <= 180.0:
            raise DataError(f"lon out of range, row {row_no}")
        if not -90.0 <= lat <= 90.0:
            raise DataError(f"lat out of range, row {row_no}")

        hub = _parse_float(row[col["t_hh"]], "t_hh", row_no)
        rotor = _parse_float(row[col["t_rd"]], "t_rd", row_no)
        cap = _parse_float(row[col["t_cap"]], "t_cap", row_no)
        p_year = _parse_year(row[col["p_year"]], "p_year", row_no)
        d_year = _parse_year(row[col["d_year"]], "d_year", row_no)
        for name, value in (("t_hh", hub), ("t_rd", rotor), ("t_cap", cap),
                            ("p_year", p_year), ("d_year", d_year)):
            if value is not None and value <= 0:
                raise DataError(f"non-positive {name}, row {row_no}")

        records.append(TurbineRecord(
            id=turbine_id,
            lon=lon,
            lat=lat,
            commissioning_year=p_year,
            hub_height=hub,
            rotor_diameter=rotor,
            capacity=cap,
            decommissioned_flag=_parse_bool(row[col["is_decommissioned"]],
                                            "is_decommissioned", row_no),
            decommissioning_year=d_year,
        ))
    return records


def parse_exclusion_ids(text: str) -> set[str]:
    """Newline-separated turbine ids to drop; blank lines ignored."""
    return {line.strip() for line in text.splitlines() if line.strip()}


def merge_extension(base: list[TurbineRecord],
                    ext: list[TurbineRecord]) -> list[TurbineRecord]:
    """Union of base registry and decommissioned-turbine extension.

    On duplicate ids the base record wins, except that the decommissioning
    flag/year are filled from the extension when the base lacks them.
    """
    by_id = {r.id: i for i, r in enumerate(base)}
    merged = list(base)
    n_new = n_filled = 0
    for rec in ext:
        i = by_id.get(rec.id)
        if i is None:
            merged.append(rec)
            n_new += 1
            continue
        kept = merged[i]
        flag = kept.decommissioned_flag or rec.decommissioned_flag
        d_year = kept.decommissioning_year
        if d_year is None:
            d_year = rec.decommissioning_year
        if flag != kept.decommissioned_flag or d_year != kept.decommissioning_year:
            merged[i] = replace(kept, decommissioned_flag=flag,
                                decommissioning_year=d_year)
            n_filled += 1
    log.info("merged extension: %d new records, %d decommissioning fills", n_new, n_filled)
    return merged


def impute_missing(records: list[TurbineRecord]) -> tuple[list[TurbineRecord], ImputationReport]:
    """Fill missing hub height / rotor diameter / capacity by the mean of the
    observed values in the same commissioning year.

    Years with no observed value fall back to the mean over all years.  A
    field observed nowhere in the dataset is an error.  Each field takes one
    pass over the records, adding its values in record order.
    """
    in_year: dict[int, int] = {}
    for rec in records:
        if rec.commissioning_year is None:
            raise DataError(f"turbine {rec.id} has no commissioning year")
        in_year[rec.commissioning_year] = in_year.get(rec.commissioning_year, 0) + 1

    years = sorted(in_year)
    missing_share: dict[str, dict[int, float]] = {}
    imputed_counts = {f: 0 for f in IMPUTABLE_FIELDS}
    fallback_years: dict[str, list[int]] = {f: [] for f in IMPUTABLE_FIELDS}
    year_means: dict[str, dict[int, float]] = {}

    for fname in IMPUTABLE_FIELDS:
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        total, n_observed = 0, 0
        for rec in records:
            value = getattr(rec, fname)
            if value is not None:
                year = rec.commissioning_year
                sums[year] = sums.get(year, 0) + value
                counts[year] = counts.get(year, 0) + 1
                total += value
                n_observed += 1
        if not n_observed:
            raise DataError(f"field never observed: {fname}")
        global_mean = total / n_observed
        year_means[fname] = {}
        missing_share[fname] = {}
        for year in years:
            n = counts.get(year, 0)
            missing_share[fname][year] = 1.0 - n / in_year[year]
            if n:
                year_means[fname][year] = sums[year] / n
            else:
                year_means[fname][year] = global_mean
                fallback_years[fname].append(year)

    out = []
    for rec in records:
        fills = {f: year_means[f][rec.commissioning_year]
                 for f in IMPUTABLE_FIELDS if getattr(rec, f) is None}
        if not fills:
            out.append(rec)
            continue
        for f in fills:
            imputed_counts[f] += 1
        out.append(replace(rec, imputed_fields=rec.imputed_fields | set(fills), **fills))

    report = ImputationReport(missing_share, imputed_counts, fallback_years)
    return out, report


def preprocess(records: list[TurbineRecord], exclusion_ids: set[str] | None = None) -> Fleet:
    """Drop unusable records, record why, and impute the rest.

    Dropped: records on the exclusion list, and records with no
    commissioning year (unusable for annual aggregation).
    """
    exclusion_ids = exclusion_ids or set()
    seen: set[str] = set()
    kept = []
    n_excluded = n_no_year = 0
    for rec in records:
        if rec.id in seen:
            raise DataError(f"duplicate turbine id {rec.id}")
        seen.add(rec.id)
        if rec.id in exclusion_ids:
            n_excluded += 1
            continue
        if rec.commissioning_year is None:
            n_no_year += 1
            continue
        kept.append(rec)
    if not kept:
        raise DataError("no usable turbines")
    imputed, report = impute_missing(kept)
    provenance = {"missing_commissioning_year": n_no_year, "excluded": n_excluded}
    return Fleet(turbines=imputed, provenance=provenance, imputation=report)


def rotor_swept_area(d: float) -> float:
    """Swept area of a rotor with diameter ``d`` (m), pi*d^2/4."""
    if d <= 0:
        raise ValueError("rotor diameter must be positive")
    return math.pi * d * d / 4.0


def imputation_bounds(records: list[TurbineRecord], year: int) -> tuple[float, float]:
    """Bounds on the swept area added in ``year`` under extreme imputation.

    Missing rotor diameters are filled with the smallest (low) and largest
    (high) diameter observed among that year's turbines; a year with no
    observed diameter falls back to the global extremes, mirroring the mean
    imputation fallback.  Mean imputation always lands inside these bounds.
    """
    for rec in records:
        if rec.commissioning_year is None:
            raise DataError(f"turbine {rec.id} has no commissioning year")
    in_year = [r for r in records if r.commissioning_year == year]
    if not in_year:
        return 0.0, 0.0
    observed = [r.rotor_diameter for r in in_year if r.rotor_diameter is not None]
    if not observed:
        observed = [r.rotor_diameter for r in records if r.rotor_diameter is not None]
        if not observed:
            raise DataError("field never observed: rotor_diameter")
    d_lo, d_hi = min(observed), max(observed)
    low = sum(rotor_swept_area(r.rotor_diameter if r.rotor_diameter is not None else d_lo)
              for r in in_year)
    high = sum(rotor_swept_area(r.rotor_diameter if r.rotor_diameter is not None else d_hi)
               for r in in_year)
    return low, high


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


#: commissioning year standing in for a missing one: later than any year
_NEVER = np.iinfo(np.int64).max // 2


@dataclass(frozen=True)
class TurbineColumns:
    """The fields ``operating_weights`` reads, one array entry per turbine."""

    commissioning_year: np.ndarray
    decommissioned_flag: np.ndarray

    @classmethod
    def of(cls, turbines: list[TurbineRecord]) -> "TurbineColumns":
        n = len(turbines)
        cy = np.fromiter((_NEVER if r.commissioning_year is None else r.commissioning_year
                          for r in turbines), np.int64, n)
        flag = np.fromiter((r.decommissioned_flag for r in turbines), bool, n)
        return cls(cy, flag)


def operating_weights(turbines: list[TurbineRecord] | TurbineColumns, year: int,
                      scenario: ScenarioSpec | None = None) -> np.ndarray:
    """``operating_weight`` of every turbine in ``year``, in turbine order.

    ``turbines`` may be given as its ``TurbineColumns``, so that callers
    weighting many years read the records once.
    """
    cols = turbines if isinstance(turbines, TurbineColumns) else TurbineColumns.of(turbines)
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
    cols = TurbineColumns.of(fleet.turbines)
    return [_turbine_order_sum(operating_weights(cols, y, scenario) * values) for y in years]


def annual_counts(fleet: Fleet, years: range,
                  scenario: ScenarioSpec | None = None) -> AnnualSeries:
    """Operating turbine count per year with the commissioning-year 0.5 weight."""
    ys = _year_range(years)
    return AnnualSeries(ys[0], _weighted_series(fleet, ys, scenario, 1.0), "count")


def annual_swept_area(fleet: Fleet, years: range,
                      scenario: ScenarioSpec | None = None) -> AnnualSeries:
    """Total rotor swept area per year (m²), same weighting as counts."""
    ys = _year_range(years)
    areas = np.fromiter((rotor_swept_area(r.rotor_diameter) for r in fleet.turbines),
                        np.float64, len(fleet.turbines))
    return AnnualSeries(ys[0], _weighted_series(fleet, ys, scenario, areas), "m²")


def annual_capacity(fleet: Fleet, years: range,
                    scenario: ScenarioSpec | None = None) -> AnnualSeries:
    """Installed capacity per year in MW under a retention scenario.

    With ``impute_capacity`` disabled, turbines whose capacity was originally
    missing contribute zero instead of their imputed value.
    """
    scenario = scenario or ScenarioSpec()
    ys = _year_range(years)
    kw = np.fromiter(
        (0.0 if r.capacity is None
         or (not scenario.impute_capacity and "capacity" in r.imputed_fields)
         else r.capacity for r in fleet.turbines),
        np.float64, len(fleet.turbines))
    return AnnualSeries(ys[0], [total / 1000.0 for total in
                                _weighted_series(fleet, ys, scenario, kw)], "MW")


def specific_power(capacity: float, area: float) -> float:
    """Nameplate capacity (W) per unit rotor swept area (m²)."""
    if area <= 0:
        raise ValueError("area must be positive")
    return capacity / area

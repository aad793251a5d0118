"""Cross-dataset validation: reference comparison, retention scenarios,
missing-data reporting."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import DataError
from .fleet import (IMPUTABLE_FIELDS, Fleet, ScenarioSpec, TurbineRecord,
                    annual_capacity)
from .series import AnnualSeries, check_aligned

__all__ = [
    "ScenarioSpec", "ReferenceData", "parse_reference_csv",
    "relative_difference", "scenario_capacity", "missingness_report",
    "DEFAULT_LIFETIMES", "LOW_CONFIDENCE_BEFORE",
]

#: lifetimes offered as default sensitivity scenarios
DEFAULT_LIFETIMES = (15, 20, 25, 30)
#: years before this are reported as low confidence
LOW_CONFIDENCE_BEFORE = 2010


@dataclass
class ReferenceData:
    """Independent annual reference: installed capacity and/or generation."""

    capacity_mw: AnnualSeries | None
    generation_gwh: AnnualSeries | None


def _column_series(pairs: list[tuple[int, float]], unit: str, label: str) -> AnnualSeries | None:
    if not pairs:
        return None
    pairs.sort()
    years = [y for y, _ in pairs]
    if years != list(range(years[0], years[-1] + 1)):
        raise DataError(f"non-contiguous years in reference {label}")
    return AnnualSeries(years[0], [v for _, v in pairs], unit)


def parse_reference_csv(data: bytes) -> ReferenceData:
    """Parse ``year,installed_capacity_mw,generation_gwh``; either value
    column may be empty on any row."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader, None)
    expected = ["year", "installed_capacity_mw", "generation_gwh"]
    if header is None or [h.strip() for h in header] != expected:
        raise DataError(f"reference CSV header must be {','.join(expected)}")
    seen: set[int] = set()
    capacity: list[tuple[int, float]] = []
    generation: list[tuple[int, float]] = []
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != 3:
            raise DataError(f"expected 3 columns, got {len(row)}, row {row_no}")
        try:
            year = int(row[0])
        except ValueError:
            raise DataError(f"non-numeric year, row {row_no}") from None
        if year in seen:
            raise DataError(f"duplicate year {year}, row {row_no}")
        seen.add(year)
        for raw, bucket, label in ((row[1], capacity, "capacity"),
                                   (row[2], generation, "generation")):
            raw = raw.strip()
            if raw == "":
                continue
            try:
                bucket.append((year, float(raw)))
            except ValueError:
                raise DataError(f"non-numeric {label}, row {row_no}") from None
    if not seen:
        raise DataError("no reference data")
    return ReferenceData(
        capacity_mw=_column_series(capacity, "MW", "capacity"),
        generation_gwh=_column_series(generation, "GWh", "generation"),
    )


def relative_difference(a: AnnualSeries, b: AnnualSeries) -> AnnualSeries:
    """Percent deviation of ``a`` from reference ``b``: 100·(a−b)/b.

    Positive values mean ``a`` reports more than the reference.
    """
    check_aligned(a, b)
    values = []
    for (year, av), bv in zip(a.items(), b.values):
        if bv == 0:
            raise DataError(f"zero reference value in year {year}")
        values.append(100.0 * (av - bv) / bv)
    return AnnualSeries(a.start_year, values, "%")


def scenario_capacity(fleet: Fleet, years, spec: ScenarioSpec) -> AnnualSeries:
    """Installed capacity per year under a retention scenario (MW)."""
    return annual_capacity(fleet, years, spec)


def missingness_report(records: list[TurbineRecord]) -> dict[str, AnnualSeries]:
    """Share of the operating fleet with originally missing meta parameters.

    For each year y and each imputable field, the share of turbines
    commissioned in or before y whose field was missing before imputation
    (decommissioning is neglected).  Imputed records are recognized via
    their imputation marks, so the report is the same before and after
    imputation.  One pass counts each commissioning year's turbines and
    blanks; the shares are ratios of their running totals.
    """
    cohort: dict[int, int] = {}
    blanks: dict[str, dict[int, int]] = {f: {} for f in IMPUTABLE_FIELDS}
    for rec in records:
        cy = rec.commissioning_year
        if cy is None:
            raise DataError(f"turbine {rec.id} has no commissioning year")
        cohort[cy] = cohort.get(cy, 0) + 1
        for fname, counts in blanks.items():
            if getattr(rec, fname) is None or fname in rec.imputed_fields:
                counts[cy] = counts.get(cy, 0) + 1
    if not records:
        raise DataError("no turbines")
    years = range(min(cohort), max(cohort) + 1)

    out = {}
    for fname, counts in blanks.items():
        shares = []
        n = missing = 0
        for y in years:
            n += cohort.get(y, 0)
            missing += counts.get(y, 0)
            shares.append(missing / n)
        out[fname] = AnnualSeries(years.start, shares, "dimensionless")
    return out

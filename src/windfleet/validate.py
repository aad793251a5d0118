"""Cross-dataset validation: reference comparison, retention scenarios,
missing-data reporting."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fleet import (IMPUTABLE_FIELDS, Fleet, ScenarioSpec, TurbineColumns,
                    TurbineRecord, annual_capacity, check_commissioning_years)
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
    column may be empty on any row, and no value may be negative."""
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
                value = float(raw)
            except ValueError:
                raise DataError(f"non-numeric {label}, row {row_no}") from None
            if value < 0:
                raise DataError(f"negative {label}, row {row_no}")
            bucket.append((year, value))
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


def missingness_report(records: Iterable[TurbineRecord]) -> dict[str, AnnualSeries]:
    """Share of the operating fleet with originally missing meta parameters.

    For each year y and each imputable field, the share of turbines
    commissioned in or before y whose field was missing before imputation
    (decommissioning is neglected).  Imputed records are recognized via
    their imputation marks, so the report is the same before and after
    imputation.  The shares are ratios of running totals of each
    commissioning year's turbines and blanks.
    """
    table = TurbineColumns.of(records)
    check_commissioning_years(table)
    if not len(table):
        raise DataError("no turbines")
    first = int(table.commissioning_year.min())
    offset = table.commissioning_year - first
    n = np.cumsum(np.bincount(offset))
    out = {}
    for fname in IMPUTABLE_FIELDS:
        blank = np.isnan(getattr(table, fname)) | table.imputed_mask(fname)
        missing = np.cumsum(np.bincount(offset[blank], minlength=len(n)))
        out[fname] = AnnualSeries(first, (missing / n).tolist(), "dimensionless")
    return out

"""Cross-dataset validation: reference comparison, retention scenarios,
missing-data reporting."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import csvinput
from .errors import DataError
from .fleet import (IMPUTABLE_FIELDS, Fleet, ScenarioSpec, TurbineColumns,
                    TurbineRecord, annual_capacity, check_commissioning_years)
from .series import AnnualSeries, check_aligned, dense_series

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


def parse_reference_csv(data: bytes) -> ReferenceData:
    """Parse ``year,installed_capacity_mw,generation_gwh``; either value
    column may be empty on any row, and no value may be negative."""
    seen: set[int] = set()
    capacity: list[tuple[int, float]] = []
    generation: list[tuple[int, float]] = []
    with csvinput.table(data, "reference",
                        ("year", "installed_capacity_mw", "generation_gwh")) as table:
        for row_no, (year, *values) in table:
            year = csvinput.number(int, year, "year", row_no)
            if year in seen:
                raise DataError(f"duplicate year {year}, row {row_no}")
            seen.add(year)
            for raw, bucket, label in zip(values, (capacity, generation),
                                          ("capacity", "generation")):
                if not raw.strip():  # a blank value is a missing one
                    continue
                value = csvinput.number(float, raw, label, row_no)
                if value < 0:
                    raise DataError(f"negative {label}, row {row_no}")
                bucket.append((year, value))
    return ReferenceData(
        capacity_mw=dense_series(capacity, "MW", "reference capacity") if capacity else None,
        generation_gwh=(dense_series(generation, "GWh", "reference generation")
                        if generation else None),
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

"""Year-indexed scalar series shared by all pipeline stages."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError

#: Unit tags accepted on a series.  Everything is carried in these units
#: internally; conversions happen at ingestion and reporting only.
UNITS = ("W", "m²", "count", "W/m²", "dimensionless", "MW", "%", "GWh")


@dataclass
class AnnualSeries:
    """A dense run of yearly values starting at ``start_year``."""

    start_year: int
    values: list[float]
    unit: str

    def __post_init__(self):
        if self.unit not in UNITS:
            raise ValueError(f"unknown unit {self.unit!r}, expected one of {UNITS}")
        self.values = [float(v) for v in self.values]
        if len(self.values) < 1:
            raise ValueError("series must contain at least one value")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def years(self) -> range:
        return range(self.start_year, self.start_year + len(self.values))

    @property
    def end_year(self) -> int:
        return self.start_year + len(self.values) - 1

    def value(self, year: int) -> float:
        if year not in self.years:
            raise DataError(f"year {year} outside series {self.start_year}..{self.end_year}")
        return self.values[year - self.start_year]

    def items(self):
        """Iterate ``(year, value)`` pairs."""
        return zip(self.years, self.values)

    def slice(self, start_year: int, end_year: int) -> "AnnualSeries":
        """Restrict to ``start_year..end_year`` (inclusive); must be covered."""
        if start_year < self.start_year or end_year > self.end_year or start_year > end_year:
            raise DataError(
                f"cannot slice {start_year}..{end_year} out of series "
                f"{self.start_year}..{self.end_year}"
            )
        lo = start_year - self.start_year
        return AnnualSeries(start_year, self.values[lo : lo + end_year - start_year + 1], self.unit)


def check_aligned(*series: AnnualSeries) -> None:
    """Raise DataError unless all series cover the exact same years."""
    first = series[0]
    for s in series[1:]:
        if s.start_year != first.start_year or len(s) != len(first):
            raise DataError(
                f"misaligned series: {s.start_year}..{s.end_year} vs "
                f"{first.start_year}..{first.end_year}"
            )


def dense_series(pairs: list[tuple[int, float]], unit: str, what: str) -> AnnualSeries:
    """The series of ``(year, value)`` pairs given in any order; the years
    must run without a gap."""
    pairs = sorted(pairs)
    years = [y for y, _ in pairs]
    if years != list(range(years[0], years[-1] + 1)):
        raise DataError(f"non-contiguous years in {what}")
    return AnnualSeries(years[0], [v for _, v in pairs], unit)

"""Linear trend fitting, constant-input-density counterfactual, correlation."""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DataError
from .series import AnnualSeries, check_aligned

log = logging.getLogger(__name__)


@dataclass
class OlsFit:
    slope: float
    intercept: float
    residuals: list[float]
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def _fsum(terms) -> float:
    """The correctly rounded sum of ``terms`` (``math.fsum``), so the bits do
    not depend on the Python version.  A term or a sum past the float range
    is a data error; every fit value is finite when its sums are."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a term overflowed, or inf - inf
        total = math.inf
    if not math.isfinite(total):
        raise DataError("a trend sum overflows the float range")
    return total


def _centred_sums(x, y) -> tuple[list[float], list[float], float, float, float, float, float]:
    """Both samples as floats, their means, and their centred sums of squares
    and of products: ``(xs, ys, xbar, ybar, sxx, syy, sxy)``, each sum one
    ``_fsum``."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError("x and y must have equal lengths")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    xbar = _fsum(xs) / len(xs)
    ybar = _fsum(ys) / len(ys)
    sxx = _fsum((v - xbar) ** 2 for v in xs)
    syy = _fsum((v - ybar) ** 2 for v in ys)
    sxy = _fsum((a - xbar) * (b - ybar) for a, b in zip(xs, ys))
    return xs, ys, xbar, ybar, sxx, syy, sxy


def ols_fit(xs, ys) -> OlsFit:
    """Ordinary least squares line through (xs, ys).

    The fitted line passes through the sample means.  R² is defined as 0 for
    a zero-variance target so it stays inside [0, 1].
    """
    xs, ys, xbar, ybar, sxx, ss_tot, sxy = _centred_sums(xs, ys)
    if sxx == 0:
        raise ValueError("all x values identical; fit is degenerate")
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    ss_res = _fsum(r * r for r in residuals)
    r_squared = 0.0 if ss_tot == 0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return OlsFit(slope, intercept, residuals, r_squared)


class Counterfactual(NamedTuple):
    series: AnnualSeries
    #: the input density was constant, so ``series`` is the observed efficiency
    fallback: bool


def counterfactual_efficiency(e: AnnualSeries, d_in: AnnualSeries) -> Counterfactual:
    """Efficiency series under the hypothetical of constant input density.

    Regress efficiency on input density, then replace each year's density by
    the period mean while keeping the year's residual: the counterfactual
    removes only the density-explained part, so its mean equals the observed
    mean.  A constant density makes the regression degenerate; the observed
    series is returned unchanged with ``fallback`` set.
    """
    check_aligned(e, d_in)
    if len(e) < 3:
        raise ValueError("need at least three years")
    if all(v == d_in.values[0] for v in d_in.values):
        log.warning("input density is constant; counterfactual equals observed efficiency")
        return Counterfactual(AnnualSeries(e.start_year, list(e.values), e.unit), True)
    dbar = _fsum(d_in.values) / len(d_in)
    fit = ols_fit(d_in.values, e.values)
    values = [ev - fit.slope * (dv - dbar) for ev, dv in zip(e.values, d_in.values)]
    return Counterfactual(AnnualSeries(e.start_year, values, e.unit), False)


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equally long samples.  The
    divisor is √sxx·√syy where sxx·syy leaves the normal float range."""
    *_, sxx, syy, sxy = _centred_sums(x, y)
    product = sxx * syy
    divisor = (math.sqrt(product) if sys.float_info.min <= product < math.inf
               else math.sqrt(sxx) * math.sqrt(syy))
    if divisor == 0:
        raise ValueError("correlation undefined for zero-variance series")
    return min(1.0, max(-1.0, sxy / divisor))

"""Multiplicative output decomposition and additive input-density decomposition.

The multiplicative identity splits generated power into turbine count,
average rotor area per turbine, input power density and system efficiency;
the product of the four factors reconstructs the output exactly.  The
additive decomposition splits input power density into a constant baseline,
a new-locations effect (windiness at a fixed reference height under average
climate), a hub-height effect, and annual climate variation; the four terms
telescope back to the observed density.  Each returns its series and the
worst relative error of its identity; ``pipeline.decomposition_stage`` makes
the ``DecompositionResult`` from them in one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DataError, InvariantError
from .series import AnnualSeries, check_aligned

#: identity checks must hold to this relative tolerance
IDENTITY_RTOL = 1e-12


@dataclass
class FactorSeries:
    n: AnnualSeries
    area_per_turbine: AnnualSeries
    input_density: AnnualSeries
    efficiency: AnnualSeries


@dataclass
class AdditiveEffects:
    baseline: float
    new_locations: AnnualSeries
    hub_height: AnnualSeries
    annual_variation: AnnualSeries

    @property
    def effects(self) -> dict[str, AnnualSeries]:
        """The effect series by field name, in field order."""
        return {k: s for k, s in vars(self).items() if k != "baseline"}


@dataclass(frozen=True)
class DecompositionResult:
    """Made in one call, by ``pipeline.decomposition_stage``; its years are
    ``factors.n.years``."""

    factors: FactorSeries
    indexed_factors: FactorSeries
    #: worst relative reconstruction error observed by the identity checks
    factor_identity_error: float
    additive: AdditiveEffects | None = None
    additive_identity_error: float = 0.0


def multiplicative_decomposition(n: AnnualSeries, area: AnnualSeries, p_in: AnnualSeries,
                                 p_out: AnnualSeries) -> tuple[FactorSeries, float]:
    """Split output power into N · (A/N) · (P_in/A) · (P_out/P_in); returns
    the four factors and the worst relative error of their product."""
    check_aligned(n, area, p_in, p_out)
    for name, s in (("n", n), ("area", area), ("p_in", p_in)):
        for year, v in s.items():
            if v <= 0:
                raise ValueError(f"{name} must be positive, year {year}")

    area_per_turbine, density, efficiency = [], [], []
    worst = 0.0
    for (year, nv), av, pv, ov in zip(n.items(), area.values, p_in.values, p_out.values):
        apt = av / nv
        d = pv / av
        e = ov / pv
        # a factor that overflowed, underflowed or lost precision as a
        # subnormal is extreme input, not a broken identity
        for name, factor, numerator in (("area per turbine", apt, av),
                                        ("input density", d, pv), ("efficiency", e, ov)):
            if numerator != 0 and not (math.isfinite(factor)
                                       and abs(factor) >= sys.float_info.min):
                raise DataError(f"{name} {factor!r} outside the normal float range, "
                                f"year {year}")
        area_per_turbine.append(apt)
        density.append(d)
        efficiency.append(e)
        product = nv * apt * d * e
        scale = max(abs(ov), 1e-300)
        worst = max(worst, abs(product - ov) / scale)
    if worst > IDENTITY_RTOL:
        raise InvariantError(
            f"factor product deviates from output power by {worst:.3e} relative")

    return FactorSeries(
        n=AnnualSeries(n.start_year, list(n.values), "count"),
        area_per_turbine=AnnualSeries(n.start_year, area_per_turbine, "m²"),
        input_density=AnnualSeries(n.start_year, density, "W/m²"),
        efficiency=AnnualSeries(n.start_year, efficiency, "dimensionless"),
    ), worst


def index_relative(series: AnnualSeries, base_year: int) -> AnnualSeries:
    """Series rescaled to percent of its base-year value."""
    base = series.value(base_year)
    if base == 0:
        raise DataError(f"base year {base_year} value is zero")
    return AnnualSeries(series.start_year,
                        [100.0 * v / base for v in series.values], "%")


def indexed_factors(f: FactorSeries, base_year: int) -> FactorSeries:
    """The four factors, each in percent of its base-year value."""
    return FactorSeries(**{k: index_relative(s, base_year) for k, s in vars(f).items()})


def additive_pin_decomposition(p_in: AnnualSeries, p_in_avg: AnnualSeries,
                               p_in_76_avg: AnnualSeries, area: AnnualSeries,
                               base_year: int) -> tuple[AdditiveEffects, float]:
    """Split input power density into baseline + location + hub height +
    annual-variation effects, all in W/m²; returns the effects and the worst
    relative error of their sum.

    The baseline is the base-year density at the reference height under
    average climate, which makes the new-locations effect zero in the base
    year by construction.  Inputs are the actual input power, the input power
    at hub heights under average climate, and the input power at the fixed
    reference height under average climate.
    """
    check_aligned(p_in, p_in_avg, p_in_76_avg, area)
    for year, a in area.items():
        if a <= 0:
            raise ValueError(f"area must be positive, year {year}")
    if base_year not in area.years:
        raise DataError(f"base year {base_year} outside series")

    baseline = p_in_76_avg.value(base_year) / area.value(base_year)
    new_locations, hub_height, annual_variation = [], [], []
    worst = 0.0
    for year in area.years:
        a = area.value(year)
        d_ref = p_in_76_avg.value(year) / a
        d_avg = p_in_avg.value(year) / a
        d_act = p_in.value(year) / a
        new_locations.append(d_ref - baseline)
        hub_height.append(d_avg - d_ref)
        annual_variation.append(d_act - d_avg)
        recon = baseline + new_locations[-1] + hub_height[-1] + annual_variation[-1]
        # scale by the largest telescoping term: cancellation between a huge
        # baseline and a tiny density is not an identity violation
        scale = max(abs(d_act), abs(baseline), abs(d_ref), abs(d_avg), 1e-300)
        worst = max(worst, abs(recon - d_act) / scale)
    if worst > IDENTITY_RTOL:
        raise InvariantError(
            f"additive effects deviate from input density by {worst:.3e} relative")

    return AdditiveEffects(
        baseline=baseline,
        new_locations=AnnualSeries(area.start_year, new_locations, "W/m²"),
        hub_height=AnnualSeries(area.start_year, hub_height, "W/m²"),
        annual_variation=AnnualSeries(area.start_year, annual_variation, "W/m²"),
    ), worst

"""End-to-end run: ingest, compute, decompose, analyse, validate, publish.

``run_pipeline`` chains one typed stage function per concern, each mapping
its errors to an exit code through ``stage``; the subcommands call the same
stages, table writer and serializers.  ``RunConfig``'s fields are the config
schema of the config file and the ``report`` flags.  Each report ratio is
formed once: the decomposition forms input density and efficiency, and
``power_stage`` the output density, capacity factor and specific power.
Outputs are staged in a scratch directory and only moved into the output
directory when the whole run succeeded, so a failed run leaves no partial
bundle behind.  Reports contain no timestamps or execution parameters:
identical inputs produce byte-identical outputs at any worker count.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import shutil
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import fleet as fleet_mod
from . import validate
from .errors import (EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, ConfigError,
                     DataError, InvariantError)
from .series import AnnualSeries

if TYPE_CHECKING:  # the report-only modules are imported where they run
    from . import decomp, powerflux, trends

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2
DEFAULT_REFERENCE_HEIGHT = 76.0

#: scenario labels run when none are configured
DEFAULT_SCENARIOS = ("default", "drop-flagged") + tuple(
    f"lifetime-{n}" for n in validate.DEFAULT_LIFETIMES)

#: config keys that name input files, required then optional
REQUIRED_INPUTS = ("turbines", "windgrid", "generation")
OPTIONAL_INPUTS = ("extension", "exclusions", "reference")

ADDITIVE_NOTE = ("the annual-variation effect is not independent of the "
                 "hub-height effect: taller fleets see larger absolute "
                 "climate swings")


class PipelineError(Exception):
    """A stage failure with the module name and mapped exit code."""

    def __init__(self, stage: str, message: str, exit_code: int):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.message = message
        self.exit_code = exit_code


@contextmanager
def stage(name: str | None):
    """Run a block as stage ``name``: the one map from an exception to an exit
    code.  Outside any stage (``name`` None) the prefix is the kind of error:
    ``config``, ``data`` or ``internal``."""
    try:
        yield
    except PipelineError:
        raise
    except FileNotFoundError as exc:
        raise PipelineError(name or "config", f"file not found: {exc.filename}",
                            EXIT_CONFIG) from exc
    except ConfigError as exc:
        raise PipelineError(name or "config", str(exc), EXIT_CONFIG) from exc
    except InvariantError as exc:
        raise PipelineError(name or "internal", str(exc), EXIT_INTERNAL) from exc
    except (DataError, ValueError, OSError) as exc:
        raise PipelineError(name or "data", str(exc), EXIT_DATA) from exc


def _require_file(name: str, path) -> None:
    """A configured input file that is missing is a configuration error named
    after its input."""
    if path and not Path(path).is_file():
        raise PipelineError(name, f"file not found: {path}", EXIT_CONFIG)


@dataclass
class RunConfig:
    turbines: str
    windgrid: str
    generation: str
    start_year: int
    end_year: int
    out: str
    extension: str | None = None
    exclusions: str | None = None
    reference: str | None = None
    base_year: int | None = None
    reference_height: float = DEFAULT_REFERENCE_HEIGHT
    scenarios: list[str] = field(default_factory=lambda: list(DEFAULT_SCENARIOS))
    workers: int = 1

    def __post_init__(self):
        if self.base_year is None:
            self.base_year = self.start_year

    def check(self) -> None:
        if self.start_year >= self.end_year:
            raise ConfigError(f"study needs at least two years, got start_year "
                              f"{self.start_year} and end_year {self.end_year}")
        if not self.start_year <= self.base_year <= self.end_year:
            raise ConfigError(f"base_year {self.base_year} outside study period")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 < self.reference_height < float("inf"):
            raise ConfigError("reference_height must be positive and finite")
        for name in REQUIRED_INPUTS + OPTIONAL_INPUTS:
            path = getattr(self, name)
            if not path and name in REQUIRED_INPUTS:
                raise ConfigError(f"{name}: path not configured")
            _require_file(name, path)
        for label in self.scenarios:
            parse_scenario(label)

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)


#: the config-file keys and ``report`` flags: ``RunConfig``'s fields
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
REQUIRED_KEYS = tuple(f.name for f in fields(RunConfig)
                      if f.default is MISSING and f.default_factory is MISSING)


def _converted(kind, what: str):
    def parse(key: str, raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{key} must be {what}") from None
    return parse


#: parser of a setting's text, by its field's annotation
_PARSE = {"str": lambda key, raw: raw, "int": _converted(int, "an integer"),
          "float": _converted(float, "numeric"),
          "list[str]": lambda key, raw: [s.strip() for s in raw.split(",") if s.strip()]}
#: config key -> parser; a field of a type not in ``_PARSE`` fails at import
_PARSERS = {f.name: _PARSE[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def load_config_file(path) -> dict[str, str]:
    """Plain ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    base = Path(path).parent
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        if key in REQUIRED_INPUTS + OPTIONAL_INPUTS + ("out",) and value:
            value = str((base / value)) if not os.path.isabs(value) else value
        values[key] = value
    return values


def config_from_mapping(values: dict[str, str]) -> RunConfig:
    """A ``RunConfig`` from ``CONFIG_KEYS`` settings as text; a blank value
    keeps the field's default."""
    given = {key: raw for key, raw in values.items() if raw != ""}
    for key in REQUIRED_KEYS:
        if key not in given:
            raise ConfigError(f"missing required config key {key!r}")
    return RunConfig(**{key: _PARSERS[key](key, raw) for key, raw in given.items()})


def parse_scenario(label: str) -> fleet_mod.ScenarioSpec:
    """Scenario names: ``default``, ``drop-flagged``, ``lifetime-N``,
    ``discard-missing-capacity``; combine with '+', with at most one lifetime."""
    settings = {}
    try:
        for part in label.split("+"):
            part = part.strip()
            if part == "drop-flagged":
                settings["drop_decommissioned_flagged"] = True
            elif part == "discard-missing-capacity":
                settings["impute_capacity"] = False
            elif part.startswith("lifetime-"):
                if "lifetime_years" in settings:
                    raise ValueError("a second lifetime")
                settings["lifetime_years"] = int(part.removeprefix("lifetime-"))
            elif part != "default":
                raise ConfigError(f"unknown scenario {part!r}")
        return fleet_mod.ScenarioSpec(**settings)
    except ValueError:
        raise ConfigError(f"bad scenario {label!r}") from None


def series_json(s: AnnualSeries) -> dict:
    return {"start_year": s.start_year, "unit": s.unit, "values": list(s.values)}


def fit_json(fit: trends.OlsFit) -> dict:
    return {"slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "residuals": list(fit.residuals)}


def json_text(payload) -> str:
    """The JSON layout of every file the program writes: sorted keys, indent 2."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def decomposition_json(result: decomp.DecompositionResult) -> dict:
    """The ``decomposition`` object of report.json; ``additive`` and its
    identity error only when the additive decomposition was computed."""
    payload = {
        "factors": {k: series_json(s) for k, s in vars(result.factors).items()},
        "indexed_factors": {k: series_json(s)
                            for k, s in vars(result.indexed_factors).items()},
        "factor_identity_error": result.factor_identity_error,
    }
    if result.additive is not None:
        payload["additive"] = {k: series_json(s) for k, s in result.additive.effects.items()}
        payload["additive"].update(baseline_w_m2=result.additive.baseline, note=ADDITIVE_NOTE)
        payload["additive_identity_error"] = result.additive_identity_error
    return payload


# ---------------------------------------------------------------------------
# stages: each maps its errors to an exit code through ``stage``
# ---------------------------------------------------------------------------

def load_reference(path, years: range) -> AnnualSeries | None:
    """The reference capacity over the study years it covers, or None without
    a reference file or without a capacity column.  A capacity column that
    covers none of the study years is a data error."""
    if not path:
        return None
    _require_file("reference", path)
    with stage("reference"):
        ref = validate.parse_reference_csv(Path(path).read_bytes()).capacity_mw
        if ref is None:
            return None
        lo, hi = max(ref.start_year, years[0]), min(ref.end_year, years[-1])
        if lo > hi:
            raise DataError("reference years do not overlap the study period")
        return ref.slice(lo, hi)


def load_generation(path, years: range) -> powerflux.MonthlySeries:
    """Monthly net generation, checked to cover every month of the study
    years, so a bad generation file fails before the wind grid is read."""
    from . import powerflux

    with stage("generation"):
        energy = powerflux.parse_generation_csv(Path(path).read_bytes())
        for year in years:
            for month in range(1, 13):
                energy.value(year, month)  # the first month it lacks raises
        return energy


def load_fleet(turbines, extension=None, exclusions=None) -> fleet_mod.Fleet:
    """The fleet stage's input: parse the registry, merge the decommissioning
    extension, drop the excluded ids, and preprocess (impute) the rest.
    Missing files fail as configuration errors before anything is read.  The
    CSVs are streamed, and the registry's table is merged and imputed in
    place: one table is held at a time."""
    for name, path in (("turbines", turbines), ("extension", extension),
                       ("exclusions", exclusions)):
        _require_file(name, path)
    with stage("fleet"):
        with open(turbines, "rb") as file:
            records = fleet_mod.parse_turbine_csv(file)
        if extension:
            with open(extension, "rb") as file:
                ext = fleet_mod.parse_turbine_csv(file)
            records = fleet_mod.merge_extension(records, ext)
        exclusion_ids = set()
        if exclusions:
            exclusion_ids = fleet_mod.parse_exclusion_ids(
                Path(exclusions).read_text(encoding="utf-8"))
        return fleet_mod.preprocess(records, exclusion_ids)


@dataclass
class FleetSeries:
    """The preprocessed fleet and its count, swept area and capacity per year."""

    fleet: fleet_mod.Fleet
    n: AnnualSeries
    area: AnnualSeries
    capacity: AnnualSeries


def fleet_stage(config: RunConfig) -> FleetSeries:
    """The fleet's series.  A study year with no operating turbine fails here,
    before the grid is read, so every study year's area and capacity are positive."""
    with stage("fleet"):
        fleet = load_fleet(config.turbines, config.extension, config.exclusions)
        log.info("fleet: %d turbines (%s dropped)", len(fleet.turbines), fleet.provenance)
        n = fleet_mod.annual_counts(fleet, config.years)
        for year, count in n.items():
            if count == 0:
                raise DataError(f"no operating turbines in {year}")
        return FleetSeries(fleet, n, fleet_mod.annual_swept_area(fleet, config.years),
                           fleet_mod.annual_capacity(fleet, config.years))


@dataclass
class PowerSeries:
    """Input and output power of the study years, the annual ratios the
    decomposition does not form, and output, input, efficiency and density
    per calendar month."""

    #: every P_in series and the calm-hour count, from one kernel pass
    pin: powerflux.ReportPin
    p_out: AnnualSeries
    output_density: AnnualSeries
    capacity_factor: AnnualSeries
    specific_power: AnnualSeries
    #: per calendar month of the study years, in time order
    monthly_p_out: list[float]
    monthly_efficiency: list[float]
    monthly_density: list[float]


def power_stage(config: RunConfig, fleet: FleetSeries,
                energy: powerflux.MonthlySeries) -> PowerSeries:
    """P_in from one kernel pass over the grid, P_out from ``load_generation``'s
    series; ``fleet_stage`` has made every area and capacity positive."""
    from . import powerflux, windgrid

    years = config.years
    with stage("windgrid"):
        grid = windgrid.load_windgrid(config.windgrid)
        log.info("windgrid: %d steps, %dx%d cells", grid.n_time,
                 len(grid.lats), len(grid.lons))

    with stage("powerflux"):
        pins = powerflux.report_pin(grid, fleet.fleet, years, config.reference_height,
                                    config.workers)
        p_out = [powerflux.pout_series(energy, y) for y in years]
        area = fleet.area.values
        capacity_w = [cap * 1e6 for cap in fleet.capacity.values]
        monthly_p_out = [powerflux.pout_series(energy, (y, m))
                         for y in years for m in range(1, 13)]

        def annual(values, unit):
            return AnnualSeries(years.start, values, unit)

        # A year's efficiency (the decomposition's P_out/P_in) is its months'
        # efficiencies weighted by their input energy, so a year over the Betz
        # limit has a month over it, up to rounding, and that month warns.
        return PowerSeries(
            pin=pins, p_out=annual(p_out, "W"),
            output_density=annual([po / a for po, a in zip(p_out, area)], "W/m²"),
            capacity_factor=annual([po / c for po, c in zip(p_out, capacity_w)],
                                   "dimensionless"),
            specific_power=annual([c / a for c, a in zip(capacity_w, area)], "W/m²"),
            monthly_p_out=monthly_p_out,
            monthly_efficiency=[powerflux.system_efficiency(po, pi)
                                for po, pi in zip(monthly_p_out, pins.monthly)],
            monthly_density=[pi / area[k // 12] for k, pi in enumerate(pins.monthly)])


def decomposition_stage(n: AnnualSeries, area: AnnualSeries, p_in: AnnualSeries,
                        p_out: AnnualSeries, base_year: int,
                        p_in_avg: AnnualSeries | None = None,
                        p_in_ref_avg: AnnualSeries | None = None,
                        ) -> decomp.DecompositionResult:
    """The one ``DecompositionResult``: the four factors, indexed to
    ``base_year``, and, given both long-term average input powers, the
    additive input-density effects."""
    from . import decomp

    with stage("decomp"):
        factors, factor_error = decomp.multiplicative_decomposition(n, area, p_in, p_out)
        indexed = decomp.indexed_factors(factors, base_year)
        additive, additive_error = None, 0.0
        if p_in_avg is not None and p_in_ref_avg is not None:
            additive, additive_error = decomp.additive_pin_decomposition(
                p_in, p_in_avg, p_in_ref_avg, area, base_year)
        return decomp.DecompositionResult(
            factors=factors, indexed_factors=indexed, factor_identity_error=factor_error,
            additive=additive, additive_identity_error=additive_error)


@dataclass
class TrendResult:
    """Linear time trends of the study years and the constant-density
    counterfactual efficiency."""

    fits: dict[str, trends.OlsFit]
    #: efficiency under a constant input density; None below three years
    counterfactual: AnnualSeries | None
    #: 1 when a constant input density left the observed efficiency unchanged
    counterfactual_fallbacks: int
    #: Pearson r of monthly efficiency and input density; None when undefined
    monthly_correlation: float | None


def trends_stage(power: PowerSeries, factors: decomp.FactorSeries) -> TrendResult:
    """Trends of output density and the decomposition's density and efficiency."""
    from . import trends

    with stage("trends"):
        years = list(factors.efficiency.years)
        fits = {
            "output_power_density": trends.ols_fit(years, power.output_density.values),
            "input_power_density": trends.ols_fit(years, factors.input_density.values),
            "efficiency": trends.ols_fit(years, factors.efficiency.values),
        }
        counterfactual, fallbacks = None, 0
        if len(years) >= 3:
            counterfactual, fallback = trends.counterfactual_efficiency(
                factors.efficiency, factors.input_density)
            fallbacks = int(fallback)
            fits["counterfactual_efficiency"] = trends.ols_fit(years, counterfactual.values)
        try:
            monthly_r = trends.pearson(power.monthly_density, power.monthly_efficiency)
        except ValueError:
            monthly_r = None  # constant fixture fields have no correlation
        return TrendResult(fits, counterfactual, fallbacks, monthly_r)


@dataclass
class Validation:
    """Capacity per scenario label, its percent difference from the reference
    (empty without one) and the missing-field shares."""

    scenarios: dict[str, AnnualSeries]
    relative_difference: dict[str, AnnualSeries]
    missingness: dict[str, AnnualSeries]


def validation_stage(fleet: fleet_mod.Fleet, years: range, scenarios: list[str],
                     reference: AnnualSeries | None) -> Validation:
    """``reference`` is ``load_reference``'s slice of the study years."""
    with stage("validate"):
        capacity = {label: validate.scenario_capacity(fleet, years, parse_scenario(label))
                    for label in scenarios}
        missing = validate.missingness_report(fleet.turbines)
        rel_diff = {}
        if reference is not None:
            lo, hi = reference.start_year, reference.end_year
            rel_diff = {label: validate.relative_difference(series.slice(lo, hi), reference)
                        for label, series in capacity.items()}
        return Validation(capacity, rel_diff, missing)


def run_pipeline(config: RunConfig) -> list[str]:
    """Execute every stage and write the report bundle to ``config.out``;
    returns the names of the files written.  See module docs."""
    config.check()
    reference = load_reference(config.reference, config.years)
    energy = load_generation(config.generation, config.years)
    fleet = fleet_stage(config)
    power = power_stage(config, fleet, energy)
    result = decomposition_stage(fleet.n, fleet.area, power.pin.annual, power.p_out,
                                 config.base_year, power.pin.annual_avg,
                                 power.pin.annual_ref_avg)
    trend = trends_stage(power, result.factors)
    checks = validation_stage(fleet.fleet, config.years, config.scenarios, reference)
    return write_stage(config, fleet, power, result, trend, checks)


# ---------------------------------------------------------------------------
# report and bundle
# ---------------------------------------------------------------------------

def _report(config: RunConfig, fleet: FleetSeries, series: dict[str, AnnualSeries | None],
            result: decomp.DecompositionResult, trend: TrendResult, checks: Validation,
            calm_hours: int) -> dict:
    def each(named):
        return {k: series_json(s) if s is not None else None for k, s in named.items()}

    return {
        "schema_version": SCHEMA_VERSION,
        "study_period": [config.start_year, config.end_year],
        "base_year": config.base_year,
        "reference_height_m": config.reference_height,
        "inputs": {key: str(path) if (path := getattr(config, key)) else None
                   for key in REQUIRED_INPUTS + OPTIONAL_INPUTS},
        "fleet": {
            "n_turbines": len(fleet.fleet.turbines),
            "provenance": fleet.fleet.provenance,
            "imputed_counts": fleet.fleet.imputation.imputed_counts,
            "imputation_fallback_years": fleet.fleet.imputation.fallback_years,
        },
        "series": each(series),
        "decomposition": decomposition_json(result),
        "trends": {name: fit_json(fit) for name, fit in trend.fits.items()},
        "monthly_efficiency_density_correlation": trend.monthly_correlation,
        "validation": {
            "scenarios": each(checks.scenarios),
            "relative_capacity_difference_pct": each(checks.relative_difference),
            "missingness": each(checks.missingness),
            "low_confidence_years": [y for y in config.years
                                     if y < validate.LOW_CONFIDENCE_BEFORE],
        },
        "events": {
            "calm_hours": calm_hours,
            "counterfactual_fallbacks": trend.counterfactual_fallbacks,
        },
    }


def write_stage(config: RunConfig, fleet: FleetSeries, power: PowerSeries,
                result: decomp.DecompositionResult, trend: TrendResult,
                checks: Validation) -> list[str]:
    """Build report.json and write the bundle through a staging directory;
    returns the names of the files written."""
    series = {  # report.json's "series", in series.csv row order
        "n": fleet.n,
        "area_m2": fleet.area,
        "capacity_mw": fleet.capacity,
        "p_in_w": power.pin.annual,
        "p_in_avg_w": power.pin.annual_avg,
        "p_in_ref_avg_w": power.pin.annual_ref_avg,
        "p_out_w": power.p_out,
        "input_power_density_w_m2": result.factors.input_density,
        "output_power_density_w_m2": power.output_density,
        "efficiency": result.factors.efficiency,
        "capacity_factor": power.capacity_factor,
        "specific_power_w_m2": power.specific_power,
        "counterfactual_efficiency": trend.counterfactual,
    }
    report = _report(config, fleet, series, result, trend, checks, power.pin.calm_hours)
    with stage("report"):
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = out_dir / ".staging"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            files = _write_bundle(staging, report, series, power, result, trend, checks)
            for name in files:
                os.replace(staging / name, out_dir / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return files


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _num(v) -> str:
    return repr(float(v))


def _long_rows(named: dict[str, AnnualSeries | None]):
    """``(name, year, value, unit)`` for every value of every named series;
    absent (None) series give no rows."""
    for name, s in named.items():
        if s is not None:
            for year, v in s.items():
                yield name, year, _num(v), s.unit


def write_validation_tables(out_dir: Path, checks: Validation) -> list[str]:
    """scenarios.csv, relative_difference.csv (with a reference) and
    missingness.csv; returns the names written."""
    tables = [("scenarios.csv", ["scenario", "year", "capacity_mw"],
               [[label, y, v] for label, y, v, _ in _long_rows(checks.scenarios)])]
    if checks.relative_difference:
        tables.append(("relative_difference.csv", ["scenario", "year", "percent"],
                       [[label, y, v] for label, y, v, _
                        in _long_rows(checks.relative_difference)]))
    tables.append(("missingness.csv", ["year", "field", "share"],
                   [[y, field, v] for field, y, v, _ in _long_rows(checks.missingness)]))
    for name, header, rows in tables:
        write_csv(out_dir / name, header, rows)
    return [name for name, _, _ in tables]


def _write_bundle(staging: Path, report: dict, series: dict[str, AnnualSeries | None],
                  power: PowerSeries, result: decomp.DecompositionResult,
                  trend: TrendResult, checks: Validation) -> list[str]:
    files = []

    def table(name: str, header: list[str], rows) -> None:
        write_csv(staging / name, header, rows)
        files.append(name)

    (staging / "report.json").write_text(json_text(report), encoding="utf-8")
    files.append("report.json")

    table("series.csv", ["year", "series", "value", "unit"],
          [[y, name, v, unit] for name, y, v, unit in _long_rows(series)])

    # the FactorSeries and AdditiveEffects fields, in their table order
    components = {"factor_" + k: s for k, s in vars(result.factors).items()}
    components.update({"indexed_" + k: s for k, s in vars(result.indexed_factors).items()})
    additive = result.additive
    components.update({"effect_" + k: s for k, s in additive.effects.items()})
    table("decomposition.csv", ["year", "component", "value", "unit"],
          [[y, name, v, unit] for name, y, v, unit in _long_rows(components)])

    segments: dict[int, list[tuple[str, float, float]]] = {}
    for i, year in enumerate(result.factors.n.years):
        level, segments[year] = 0.0, []
        for label, v in [("baseline", additive.baseline),
                         *((k, s.values[i]) for k, s in additive.effects.items())]:
            segments[year].append((label, level, level + v))
            level += v
    table("waterfall.csv", ["year", "component", "y0", "y1"],
          [[year, label, _num(y0), _num(y1)]
           for year, segs in segments.items() for label, y0, y1 in segs])

    months = [(y, m) for y in result.factors.n.years for m in range(1, 13)]
    table("monthly.csv",
          ["year", "month", "p_in_w", "p_out_w", "efficiency", "input_power_density_w_m2"],
          [[y, m, _num(pi), _num(po), _num(e), _num(d)]
           for (y, m), pi, po, e, d in zip(months, power.pin.monthly,
                                           power.monthly_p_out, power.monthly_efficiency,
                                           power.monthly_density)])

    files.extend(write_validation_tables(staging, checks))

    for name, content in emit_plots(power, result, trend, checks, segments).items():
        (staging / name).write_text(content, encoding="utf-8")
        files.append(name)
    return files


def emit_plots(power: PowerSeries, result: decomp.DecompositionResult, trend: TrendResult,
               checks: Validation, segments) -> dict[str, str]:
    """One SVG per result display; every chart's data also exists as CSV."""
    from . import svgplot

    years = result.factors.n.years
    plots: dict[str, str] = {}

    fit = trend.fits["output_power_density"]
    plots["output_power_density.svg"] = svgplot.line_chart(
        "Output power density", "year", "W/m2",
        [("output power density", years, power.output_density.values),
         ("trend", years, [fit.predict(x) for x in years])],
        annotation=svgplot.slope_label(fit.slope))

    indexed = result.indexed_factors
    plots["driving_factors.svg"] = svgplot.line_chart(
        "Driving factors, % of base year", "year", "%",
        [("turbines", years, indexed.n.values),
         ("area per turbine", years, indexed.area_per_turbine.values),
         ("input power density", years, indexed.input_density.values),
         ("system efficiency", years, indexed.efficiency.values)])

    eff_series = [("system efficiency", years, result.factors.efficiency.values)]
    if trend.counterfactual is not None:
        eff_series.append(("constant-density counterfactual", years,
                           trend.counterfactual.values))
    plots["efficiency.svg"] = svgplot.line_chart(
        "System efficiency", "year", "efficiency", eff_series,
        annotation=svgplot.slope_label(trend.fits["efficiency"].slope))

    plots["additive_effects.svg"] = svgplot.grouped_bars(
        "Input power density effects", "year", "W/m2", years,
        [(k.replace("_", " "), s.values) for k, s in result.additive.effects.items()])

    plots["waterfall.svg"] = svgplot.stacked_segments(
        "Input power density build-up", "year", "W/m2", years, segments,
        list(vars(result.additive)))

    plots["efficiency_vs_density.svg"] = svgplot.scatter_chart(
        "Monthly system efficiency vs input power density",
        "input power density, W/m2", "efficiency", power.monthly_density,
        power.monthly_efficiency)

    plots["capacity_factors.svg"] = svgplot.line_chart(
        "Capacity factor", "year", "capacity factor",
        [("capacity factor", years, power.capacity_factor.values)])

    plots["missingness.svg"] = svgplot.line_chart(
        "Share of missing meta parameters", "commissioning year", "share",
        [(f, list(s.years), s.values) for f, s in checks.missingness.items()])

    # without a reference there are no series, and line_chart draws its placeholder
    plots["relative_difference.svg"] = svgplot.line_chart(
        "Capacity: registry vs reference", "year", "%",
        [(label, list(s.years), s.values) for label, s in checks.relative_difference.items()])
    return plots

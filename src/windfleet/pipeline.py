"""End-to-end run: ingest, compute, decompose, analyse, validate, publish.

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
from dataclasses import dataclass, field
from pathlib import Path

from . import decomp, powerflux, svgplot, trends, validate, windgrid
from . import fleet as fleet_mod
from .errors import (EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, ConfigError,
                     DataError, InvariantError)
from .series import AnnualSeries

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2
DEFAULT_REFERENCE_HEIGHT = 76.0

CONFIG_KEYS = ("turbines", "extension", "exclusions", "windgrid", "generation",
               "reference", "start_year", "end_year", "base_year",
               "reference_height", "scenarios", "out", "workers")

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
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except ConfigError as exc:
        raise PipelineError(name, str(exc), EXIT_CONFIG) from exc
    except InvariantError as exc:
        raise PipelineError(name, str(exc), EXIT_INTERNAL) from exc
    except (DataError, ValueError, OSError) as exc:
        raise PipelineError(name, str(exc), EXIT_DATA) from exc


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
    scenarios: list[str] = field(default_factory=lambda: ["default", "drop-flagged"]
                                 + [f"lifetime-{n}" for n in validate.DEFAULT_LIFETIMES])
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
        if self.reference_height <= 0:
            raise ConfigError("reference_height must be positive")
        for name in ("turbines", "windgrid", "generation"):
            path = getattr(self, name)
            if not path:
                raise ConfigError(f"{name}: path not configured")
            if not Path(path).is_file():
                raise PipelineError(name, f"file not found: {path}", EXIT_CONFIG)
        for name in ("extension", "exclusions", "reference"):
            path = getattr(self, name)
            if path and not Path(path).is_file():
                raise PipelineError(name, f"file not found: {path}", EXIT_CONFIG)
        for label in self.scenarios:
            parse_scenario(label)

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)


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
        if key in ("turbines", "extension", "exclusions", "windgrid",
                   "generation", "reference", "out") and value:
            value = str((base / value)) if not os.path.isabs(value) else value
        values[key] = value
    return values


def config_from_mapping(values: dict[str, str]) -> RunConfig:
    def intval(key):
        try:
            return int(values[key])
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be an integer") from None

    for key in ("turbines", "windgrid", "generation", "start_year", "end_year", "out"):
        if key not in values or values[key] == "":
            raise ConfigError(f"missing required config key {key!r}")
    cfg = RunConfig(
        turbines=values["turbines"],
        windgrid=values["windgrid"],
        generation=values["generation"],
        start_year=intval("start_year"),
        end_year=intval("end_year"),
        out=values["out"],
        extension=values.get("extension") or None,
        exclusions=values.get("exclusions") or None,
        reference=values.get("reference") or None,
    )
    if values.get("base_year"):
        cfg.base_year = intval("base_year")
    if values.get("reference_height"):
        try:
            cfg.reference_height = float(values["reference_height"])
        except ValueError:
            raise ConfigError("reference_height must be numeric") from None
    if values.get("workers"):
        cfg.workers = intval("workers")
    if values.get("scenarios"):
        cfg.scenarios = [s.strip() for s in values["scenarios"].split(",") if s.strip()]
    return cfg


def parse_scenario(label: str) -> fleet_mod.ScenarioSpec:
    """Scenario names: ``default``, ``drop-flagged``, ``lifetime-N``,
    ``discard-missing-capacity``; combine with '+'."""
    spec = fleet_mod.ScenarioSpec()
    for part in label.split("+"):
        part = part.strip()
        if part == "default":
            continue
        elif part == "drop-flagged":
            spec.drop_decommissioned_flagged = True
        elif part == "discard-missing-capacity":
            spec.impute_capacity = False
        elif part.startswith("lifetime-"):
            try:
                spec.lifetime_years = int(part.removeprefix("lifetime-"))
            except ValueError:
                raise ConfigError(f"bad scenario {label!r}") from None
            if spec.lifetime_years <= 0:
                raise ConfigError(f"bad scenario {label!r}")
        else:
            raise ConfigError(f"unknown scenario {part!r}")
    return spec


def _series_json(s: AnnualSeries) -> dict:
    return {"start_year": s.start_year, "unit": s.unit, "values": list(s.values)}


def _fit_json(fit: trends.OlsFit) -> dict:
    return {"slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "residuals": list(fit.residuals)}


@dataclass
class ReportBundle:
    report: dict
    out_dir: Path
    files: list[str]


def load_fleet(turbines, extension=None, exclusions=None) -> fleet_mod.Fleet:
    """The fleet stage's input: parse the registry, merge the decommissioning
    extension, drop the excluded ids, and preprocess (impute) the rest."""
    records = fleet_mod.parse_turbine_csv(Path(turbines).read_bytes())
    if extension:
        ext = fleet_mod.parse_turbine_csv(Path(extension).read_bytes())
        records = fleet_mod.merge_extension(records, ext)
    exclusion_ids = set()
    if exclusions:
        exclusion_ids = fleet_mod.parse_exclusion_ids(
            Path(exclusions).read_text(encoding="utf-8"))
    return fleet_mod.preprocess(records, exclusion_ids)


def run_pipeline(config: RunConfig) -> ReportBundle:
    """Execute every stage and write the report bundle; see module docs."""
    config.check()
    years = config.years
    year_list = list(years)

    with _stage("fleet"):
        fleet = load_fleet(config.turbines, config.extension, config.exclusions)
        n_series = fleet_mod.annual_counts(fleet, years)
        area_series = fleet_mod.annual_swept_area(fleet, years)
        capacity_series = fleet_mod.annual_capacity(fleet, years)
        log.info("fleet: %d turbines (%s dropped)", len(fleet.turbines), fleet.provenance)

    with _stage("windgrid"):
        grid = windgrid.load_windgrid(config.windgrid)
        log.info("windgrid: %d steps, %dx%d cells", grid.n_time,
                 len(grid.lats), len(grid.lons))

    with _stage("powerflux"):
        pins = powerflux.report_pin(grid, fleet, years, config.reference_height,
                                    config.workers)
        pin, pin_avg, pin_ref_avg = pins.annual, pins.annual_avg, pins.annual_ref_avg
        energy = powerflux.parse_generation_csv(Path(config.generation).read_bytes())
        pout = AnnualSeries(config.start_year,
                            [powerflux.pout_series(energy, y) for y in year_list], "W")
        monthly_periods = [(y, m) for y in year_list for m in range(1, 13)]
        monthly_pout = [powerflux.pout_series(energy, p) for p in monthly_periods]
        monthly = powerflux.PowerAggregates(
            period=monthly_periods, p_in=pins.monthly, p_out=monthly_pout,
            area=[area_series.value(p[0]) for p in monthly_periods],
            n=[n_series.value(p[0]) for p in monthly_periods],
            capacity=[capacity_series.value(p[0]) * 1e6 for p in monthly_periods])

        density_in = AnnualSeries(config.start_year,
                                  [powerflux.input_power_density(p, a)
                                   for p, a in zip(pin.values, area_series.values)], "W/m²")
        density_out = AnnualSeries(config.start_year,
                                   [powerflux.output_power_density(p, a)
                                    for p, a in zip(pout.values, area_series.values)], "W/m²")
        efficiency = AnnualSeries(config.start_year,
                                  [powerflux.system_efficiency(po, pi)
                                   for po, pi in zip(pout.values, pin.values)],
                                  "dimensionless")
        cap_factor = AnnualSeries(config.start_year,
                                  [powerflux.capacity_factor(po, cap * 1e6)
                                   for po, cap in zip(pout.values, capacity_series.values)],
                                  "dimensionless")
        spec_power = AnnualSeries(config.start_year,
                                  [fleet_mod.specific_power(cap * 1e6, a)
                                   for cap, a in zip(capacity_series.values,
                                                     area_series.values)], "W/m²")

    with _stage("decomp"):
        result = decomp.multiplicative_decomposition(n_series, area_series, pin, pout)
        decomp.indexed_factors(result, config.base_year)
        additive = decomp.additive_pin_decomposition(pin, pin_avg, pin_ref_avg,
                                                     area_series, config.base_year)
        result.additive = additive.additive
        result.additive_identity_error = additive.additive_identity_error

    with _stage("trends"):
        fits = {
            "output_power_density": trends.ols_fit(year_list, density_out.values),
            "input_power_density": trends.ols_fit(year_list, density_in.values),
            "efficiency": trends.ols_fit(year_list, efficiency.values),
        }
        counterfactual, fallbacks = None, 0
        if len(year_list) >= 3:
            counterfactual, fallback = trends.counterfactual_efficiency(efficiency, density_in)
            fallbacks = int(fallback)
            fits["counterfactual_efficiency"] = trends.ols_fit(
                year_list, counterfactual.values)
        monthly_eff = [powerflux.system_efficiency(po, pi)
                       for po, pi in zip(monthly.p_out, monthly.p_in)]
        monthly_density = [powerflux.input_power_density(pi, a)
                           for pi, a in zip(monthly.p_in, monthly.area)]
        try:
            monthly_r = trends.pearson(monthly_density, monthly_eff)
        except ValueError:
            monthly_r = None  # constant fixture fields have no correlation

    with _stage("validate"):
        scenario_series = {label: validate.scenario_capacity(
            fleet, years, parse_scenario(label)) for label in config.scenarios}
        missing = validate.missingness_report(fleet.turbines)
        reference = None
        rel_diff: dict[str, AnnualSeries] = {}
        if config.reference:
            reference = validate.parse_reference_csv(Path(config.reference).read_bytes())
            if reference.capacity_mw is not None:
                ref = reference.capacity_mw
                lo = max(ref.start_year, config.start_year)
                hi = min(ref.end_year, config.end_year)
                if lo <= hi:
                    ref_slice = ref.slice(lo, hi)
                    for label, series in scenario_series.items():
                        rel_diff[label] = validate.relative_difference(
                            series.slice(lo, hi), ref_slice)
        low_confidence = [y for y in year_list if y < validate.LOW_CONFIDENCE_BEFORE]

    report = {
        "schema_version": SCHEMA_VERSION,
        "study_period": [config.start_year, config.end_year],
        "base_year": config.base_year,
        "reference_height_m": config.reference_height,
        "inputs": {
            "turbines": str(config.turbines),
            "extension": str(config.extension) if config.extension else None,
            "exclusions": str(config.exclusions) if config.exclusions else None,
            "windgrid": str(config.windgrid),
            "generation": str(config.generation),
            "reference": str(config.reference) if config.reference else None,
        },
        "fleet": {
            "n_turbines": len(fleet.turbines),
            "provenance": fleet.provenance,
            "imputed_counts": fleet.imputation.imputed_counts,
            "imputation_fallback_years": fleet.imputation.fallback_years,
        },
        "series": {
            "n": _series_json(n_series),
            "area_m2": _series_json(area_series),
            "capacity_mw": _series_json(capacity_series),
            "p_in_w": _series_json(pin),
            "p_in_avg_w": _series_json(pin_avg),
            "p_in_ref_avg_w": _series_json(pin_ref_avg),
            "p_out_w": _series_json(pout),
            "input_power_density_w_m2": _series_json(density_in),
            "output_power_density_w_m2": _series_json(density_out),
            "efficiency": _series_json(efficiency),
            "capacity_factor": _series_json(cap_factor),
            "specific_power_w_m2": _series_json(spec_power),
            "counterfactual_efficiency":
                _series_json(counterfactual) if counterfactual else None,
        },
        "decomposition": {
            "factors": {
                "n": _series_json(result.factors.n),
                "area_per_turbine": _series_json(result.factors.area_per_turbine),
                "input_density": _series_json(result.factors.input_density),
                "efficiency": _series_json(result.factors.efficiency),
            },
            "indexed_factors": {
                "n": _series_json(result.indexed_factors.n),
                "area_per_turbine": _series_json(result.indexed_factors.area_per_turbine),
                "input_density": _series_json(result.indexed_factors.input_density),
                "efficiency": _series_json(result.indexed_factors.efficiency),
            },
            "additive": {
                "baseline_w_m2": result.additive.baseline,
                "new_locations": _series_json(result.additive.new_locations),
                "hub_height": _series_json(result.additive.hub_height),
                "annual_variation": _series_json(result.additive.annual_variation),
                "note": ADDITIVE_NOTE,
            },
            "factor_identity_error": result.factor_identity_error,
            "additive_identity_error": result.additive_identity_error,
        },
        "trends": {name: _fit_json(fit) for name, fit in fits.items()},
        "monthly_efficiency_density_correlation": monthly_r,
        "validation": {
            "scenarios": {k: _series_json(v) for k, v in scenario_series.items()},
            "relative_capacity_difference_pct":
                {k: _series_json(v) for k, v in rel_diff.items()},
            "missingness": {k: _series_json(v) for k, v in missing.items()},
            "low_confidence_years": low_confidence,
        },
        "events": {
            "calm_hours": pins.calm_hours,
            "counterfactual_fallbacks": fallbacks,
        },
    }

    with _stage("report"):
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = out_dir / ".staging"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            files = _write_bundle(staging, report, monthly, monthly_eff,
                                  monthly_density, result, fits)
            for name in files:
                os.replace(staging / name, out_dir / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return ReportBundle(report=report, out_dir=out_dir, files=files)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _num(v) -> str:
    return repr(float(v))


def _write_bundle(staging: Path, report: dict, monthly, monthly_eff,
                  monthly_density, result, fits) -> list[str]:
    files = []

    def emit(name: str, content: str) -> None:
        (staging / name).write_text(content, encoding="utf-8")
        files.append(name)

    emit("report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")

    series_rows = []
    for name, payload in report["series"].items():
        if payload is None:
            continue
        for i, v in enumerate(payload["values"]):
            series_rows.append([payload["start_year"] + i, name, _num(v), payload["unit"]])
    _write_csv(staging / "series.csv", ["year", "series", "value", "unit"], series_rows)
    files.append("series.csv")

    dec_rows = []
    dec = report["decomposition"]
    for group, prefix in (("factors", "factor_"), ("indexed_factors", "indexed_")):
        for name, payload in dec[group].items():
            for i, v in enumerate(payload["values"]):
                dec_rows.append([payload["start_year"] + i, prefix + name,
                                 _num(v), payload["unit"]])
    for name in ("new_locations", "hub_height", "annual_variation"):
        payload = dec["additive"][name]
        for i, v in enumerate(payload["values"]):
            dec_rows.append([payload["start_year"] + i, "effect_" + name,
                             _num(v), payload["unit"]])
    _write_csv(staging / "decomposition.csv",
               ["year", "component", "value", "unit"], dec_rows)
    files.append("decomposition.csv")

    additive = result.additive
    waterfall_rows = []
    segments: dict[int, list[tuple[str, float, float]]] = {}
    for i, year in enumerate(result.years):
        level = 0.0
        segs = []
        for label, v in (("baseline", additive.baseline),
                         ("new_locations", additive.new_locations.values[i]),
                         ("hub_height", additive.hub_height.values[i]),
                         ("annual_variation", additive.annual_variation.values[i])):
            segs.append((label, level, level + v))
            waterfall_rows.append([year, label, _num(level), _num(level + v)])
            level += v
        segments[year] = segs
    _write_csv(staging / "waterfall.csv", ["year", "component", "y0", "y1"],
               waterfall_rows)
    files.append("waterfall.csv")

    monthly_rows = [
        [p[0], p[1], _num(pi), _num(po), _num(e), _num(d)]
        for p, pi, po, e, d in zip(monthly.period, monthly.p_in, monthly.p_out,
                                   monthly_eff, monthly_density)
    ]
    _write_csv(staging / "monthly.csv",
               ["year", "month", "p_in_w", "p_out_w", "efficiency",
                "input_power_density_w_m2"], monthly_rows)
    files.append("monthly.csv")

    scen_rows = []
    for label, payload in report["validation"]["scenarios"].items():
        for i, v in enumerate(payload["values"]):
            scen_rows.append([label, payload["start_year"] + i, _num(v)])
    _write_csv(staging / "scenarios.csv", ["scenario", "year", "capacity_mw"], scen_rows)
    files.append("scenarios.csv")

    rel = report["validation"]["relative_capacity_difference_pct"]
    if rel:
        rel_rows = []
        for label, payload in rel.items():
            for i, v in enumerate(payload["values"]):
                rel_rows.append([label, payload["start_year"] + i, _num(v)])
        _write_csv(staging / "relative_difference.csv",
                   ["scenario", "year", "percent"], rel_rows)
        files.append("relative_difference.csv")

    miss_rows = []
    for fname, payload in report["validation"]["missingness"].items():
        for i, v in enumerate(payload["values"]):
            miss_rows.append([payload["start_year"] + i, fname, _num(v)])
    _write_csv(staging / "missingness.csv", ["year", "field", "share"], miss_rows)
    files.append("missingness.csv")

    for name, content in emit_plots(report, monthly_eff, monthly_density,
                                    segments, fits).items():
        emit(name, content)
    return files


def emit_plots(report: dict, monthly_eff, monthly_density, segments, fits) -> dict[str, str]:
    """One SVG per result display; every chart's data also exists as CSV."""
    series = report["series"]
    years = list(range(report["study_period"][0], report["study_period"][1] + 1))
    plots: dict[str, str] = {}

    dens_out = series["output_power_density_w_m2"]["values"]
    fit = fits["output_power_density"]
    trend_ys = [fit.predict(x) for x in years]
    plots["output_power_density.svg"] = svgplot.line_chart(
        "Output power density", "year", "W/m2",
        [("output power density", years, dens_out), ("trend", years, trend_ys)],
        annotation=svgplot.slope_label(fit.slope), markers=True)

    indexed = report["decomposition"]["indexed_factors"]
    plots["driving_factors.svg"] = svgplot.line_chart(
        "Driving factors, % of base year", "year", "%",
        [("turbines", years, indexed["n"]["values"]),
         ("area per turbine", years, indexed["area_per_turbine"]["values"]),
         ("input power density", years, indexed["input_density"]["values"]),
         ("system efficiency", years, indexed["efficiency"]["values"])],
        markers=True)

    eff_series = [("system efficiency", years, series["efficiency"]["values"])]
    if series["counterfactual_efficiency"] is not None:
        eff_series.append(("constant-density counterfactual", years,
                           series["counterfactual_efficiency"]["values"]))
    plots["efficiency.svg"] = svgplot.line_chart(
        "System efficiency", "year", "efficiency", eff_series,
        annotation=svgplot.slope_label(fits["efficiency"].slope), markers=True)

    additive = report["decomposition"]["additive"]
    plots["additive_effects.svg"] = svgplot.grouped_bars(
        "Input power density effects", "year", "W/m2", years,
        [("new locations", additive["new_locations"]["values"]),
         ("hub height", additive["hub_height"]["values"]),
         ("annual variation", additive["annual_variation"]["values"])])

    plots["waterfall.svg"] = svgplot.stacked_segments(
        "Input power density build-up", "year", "W/m2", years, segments,
        ["baseline", "new_locations", "hub_height", "annual_variation"])

    plots["efficiency_vs_density.svg"] = svgplot.scatter_chart(
        "Monthly system efficiency vs input power density",
        "input power density, W/m2", "efficiency", monthly_density, monthly_eff)

    plots["capacity_factors.svg"] = svgplot.line_chart(
        "Capacity factor", "year", "capacity factor",
        [("capacity factor", years, series["capacity_factor"]["values"])], markers=True)

    missing = report["validation"]["missingness"]
    miss_series = []
    for fname, payload in missing.items():
        ys = list(range(payload["start_year"], payload["start_year"] + len(payload["values"])))
        miss_series.append((fname, ys, payload["values"]))
    plots["missingness.svg"] = svgplot.line_chart(
        "Share of missing meta parameters", "commissioning year", "share",
        miss_series, markers=True)

    rel = report["validation"]["relative_capacity_difference_pct"]
    rel_series = []
    for label, payload in rel.items():
        ys = list(range(payload["start_year"], payload["start_year"] + len(payload["values"])))
        rel_series.append((label, ys, payload["values"]))
    plots["relative_difference.svg"] = (
        svgplot.line_chart("Capacity: registry vs reference", "year", "%",
                           rel_series, markers=True)
        if rel_series else svgplot.placeholder("Capacity: registry vs reference"))
    return plots

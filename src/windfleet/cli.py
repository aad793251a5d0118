"""Command-line interface: synth, convert-grid, pin, decompose, trends,
validate and report subcommands over the intermediate CSV/WGRD artifacts."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import csvinput, pipeline
from .errors import EXIT_OK, ConfigError, DataError
from .pipeline import PipelineError
from .series import AnnualSeries, dense_series

log = logging.getLogger(__name__)


def _year_span(raw: str) -> tuple[int, int]:
    try:
        a, _, b = raw.partition(":")
        start, end = int(a), int(b)
    except ValueError:
        raise ConfigError(f"bad year span {raw!r}, expected START:END") from None
    if start > end:
        raise ConfigError(f"bad year span {raw!r}, start after end")
    return start, end


def _pair(raw: str, what: str, kind=float, sep=",") -> tuple:
    parts = raw.split(sep)
    if len(parts) != 2:
        raise ConfigError(f"bad {what} {raw!r}, expected A{sep}B")
    try:
        return kind(parts[0]), kind(parts[1])
    except ValueError:
        raise ConfigError(f"bad {what} {raw!r}") from None


def _height(raw: str) -> str | float:
    """``hub`` or a fixed height in meters."""
    if raw == "hub":
        return raw
    try:
        height = float(raw)
    except ValueError:
        raise ConfigError(f"bad height {raw!r}, expected 'hub' or meters") from None
    if not 0 < height < float("inf"):
        raise ConfigError("height must be positive and finite")
    return height


def _wind_model(raw: str):
    from .synth import WindModel

    kind, _, rest = raw.partition(":")
    try:
        params = tuple(float(p) for p in rest.split(",")) if rest else ()
        return WindModel(kind, params)
    except ValueError as exc:
        raise ConfigError(f"bad wind model {raw!r}: {exc}") from None


def _parse_timestamp(raw: str) -> int:
    """ISO date/datetime (UTC) or raw Unix seconds."""
    try:
        return int(raw)
    except ValueError:
        pass
    from datetime import datetime, timezone
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M", "%Y-%m-%d"):
        try:
            dt = datetime.strptime(raw.removesuffix("Z"), fmt)
            return int(dt.replace(tzinfo=timezone.utc).timestamp())
        except ValueError:
            continue
    raise ConfigError(f"bad timestamp {raw!r}")


def _read_series_csv(path) -> AnnualSeries:
    """Read a ``year,value,unit`` series, its years dense in any order, each
    once, and every row in the first row's unit; its data errors name the
    file."""
    values: dict[int, float] = {}
    first_unit = None
    try:
        with csvinput.table(Path(path).read_bytes(), "series",
                            ("year", "value", "unit")) as table:
            for row_no, (year, value, unit) in table:
                year = csvinput.number(int, year, "year", row_no)
                if year in values:
                    raise DataError(f"duplicate year {year}, row {row_no}")
                if first_unit is None:
                    first_unit = unit
                elif unit != first_unit:
                    raise DataError(f"unit {unit} differs from {first_unit}, row {row_no}")
                values[year] = csvinput.number(float, value, "value", row_no)
        return dense_series(list(values.items()), first_unit, "series")
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _write_series_csv(path, series: AnnualSeries) -> None:
    pipeline.write_csv(path, ["year", "value", "unit"],
                       [[year, repr(value), series.unit] for year, value in series.items()])


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    from . import fleet as fleet_mod
    from . import powerflux, synth, windgrid

    n_lat, n_lon = _pair(args.grid, "grid", int, "x")
    try:
        spec = synth.SynthSpec(
            n_turbines=args.n_turbines,
            years=_year_span(args.years),
            wind=_wind_model(args.wind),
            n_lat=n_lat, n_lon=n_lon,
            bbox=tuple(args.bbox),
            hub_trend=_pair(args.hub, "hub trend"),
            rotor_trend=_pair(args.rotor, "rotor trend"),
            efficiency=_pair(args.efficiency, "efficiency"),
            specific_power_w_m2=args.specific_power,
        )
    except ValueError as exc:  # the spec's own checks of the flag values
        raise ConfigError(str(exc)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    turbine_bytes = synth.generate_fleet(spec, args.seed)
    (out / "turbines.csv").write_bytes(turbine_bytes)
    grid = synth.broadcast_windgrid(spec, args.seed + 1)
    windgrid.write_windgrid(grid, out / "wind.wgrd")

    fleet = fleet_mod.preprocess(fleet_mod.parse_turbine_csv(turbine_bytes), set())
    gen_bytes = synth.generate_generation(fleet, grid, spec.true_efficiency, spec.years)
    (out / "generation.csv").write_bytes(gen_bytes)

    years = range(spec.years[0], spec.years[1] + 1)
    capacity = fleet_mod.annual_capacity(fleet, years)
    energy = powerflux.parse_generation_csv(gen_bytes)
    pipeline.write_csv(
        out / "reference.csv", ["year", "installed_capacity_mw", "generation_gwh"],
        [[year, repr(cap),
          repr(powerflux.pout_series(energy, year) * powerflux.hours_in_period(year) / 1e9)]
         for year, cap in capacity.items()])

    conf = "\n".join([
        "turbines = turbines.csv",
        "windgrid = wind.wgrd",
        "generation = generation.csv",
        "reference = reference.csv",
        f"start_year = {spec.years[0]}",
        f"end_year = {spec.years[1]}",
        f"base_year = {spec.years[0]}",
        "out = out",
    ]) + "\n"
    (out / "run.conf").write_text(conf, encoding="utf-8")
    print(f"wrote synthetic bundle to {out}")
    return EXIT_OK


def _cmd_convert_grid(args) -> int:
    from . import windgrid

    t0 = _parse_timestamp(args.start_time)
    if args.step <= 0:
        raise ConfigError("step must be positive")
    grid = windgrid.grid_from_csv(Path(args.csv).read_bytes(), t0=t0, step=args.step)
    windgrid.write_windgrid(grid, args.out)
    print(f"wrote {args.out}: {grid.n_time} steps, "
          f"{len(grid.lats)}x{len(grid.lons)} cells")
    return EXIT_OK


def _cmd_pin(args) -> int:
    from . import powerflux, windgrid

    start, end = _year_span(args.years)
    height = _height(args.height)
    climate = {"actual": "actual", "average": "long_term_average"}[args.climate]
    study = _year_span(args.study_span) if args.study_span else (start, end)
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    fleet = pipeline.load_fleet(args.turbines, args.extension, args.exclusions)
    with pipeline.stage("windgrid"):
        grid = windgrid.load_windgrid(args.windgrid)
    with pipeline.stage("powerflux"):
        values = powerflux.pin_series(grid, fleet, range(start, end + 1), height, climate,
                                      study, args.workers)
    _write_series_csv(args.out, AnnualSeries(start, values, "W"))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    if bool(args.pin_avg) != bool(args.pin_ref_avg):
        raise ConfigError("the additive decomposition needs both --pin-avg and "
                          "--pin-ref-avg")
    n = _read_series_csv(args.n)
    area = _read_series_csv(args.area)
    p_in = _read_series_csv(args.pin)
    p_out = _read_series_csv(args.pout)
    p_in_avg = p_in_ref_avg = None
    if args.pin_avg:
        p_in_avg = _read_series_csv(args.pin_avg)
        p_in_ref_avg = _read_series_csv(args.pin_ref_avg)
    result = pipeline.decomposition_stage(n, area, p_in, p_out,
                                          n.start_year if args.base_year is None
                                          else args.base_year,
                                          p_in_avg, p_in_ref_avg)
    Path(args.out).write_text(pipeline.json_text(pipeline.decomposition_json(result)),
                              encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_trends(args) -> int:
    from . import trends

    if args.efficiency and args.density:
        e = _read_series_csv(args.efficiency)
        d = _read_series_csv(args.density)
        counterfactual = trends.counterfactual_efficiency(e, d).series
        fit = trends.ols_fit(list(counterfactual.years), counterfactual.values)
        payload = {"counterfactual": pipeline.fit_json(fit)}
        if args.out_csv:
            _write_series_csv(args.out_csv, counterfactual)
    elif args.series:
        s = _read_series_csv(args.series)
        payload = {"trend": pipeline.fit_json(trends.ols_fit(list(s.years), s.values))}
    else:
        raise ConfigError("trends needs --series or both --efficiency and --density")
    Path(args.out).write_text(pipeline.json_text(payload), encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    start, end = _year_span(args.years)
    years = range(start, end + 1)
    labels = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    for label in labels:
        pipeline.parse_scenario(label)
    reference = pipeline.load_reference(args.reference, years)
    fleet = pipeline.load_fleet(args.turbines, args.extension, args.exclusions)
    checks = pipeline.validation_stage(fleet, years, labels, reference)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_validation_tables(out, checks)
    print(f"wrote validation tables to {out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    values = pipeline.load_config_file(args.config) if args.config else {}
    values.update({key: getattr(args, key) for key in pipeline.CONFIG_KEYS
                   if getattr(args, key) is not None})
    config = pipeline.config_from_mapping(values)
    files = pipeline.run_pipeline(config)
    print(f"wrote {len(files)} files to {Path(config.out)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windfleet",
        description="Wind fleet power decomposition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--n-turbines", type=int, default=30)
    p.add_argument("--years", default="2010:2012")
    p.add_argument("--wind", default="constant:8,8",
                   help="constant:v10,v100 | sinusoidal:mean,amp,period | noise:mean,sd")
    p.add_argument("--grid", default="3x3", help="ROWSxCOLS lat/lon nodes")
    p.add_argument("--bbox", type=float, nargs=4,
                   default=[-100.0, -95.0, 35.0, 40.0],
                   metavar=("LON0", "LON1", "LAT0", "LAT1"))
    p.add_argument("--hub", default="80,0", help="start,per-year")
    p.add_argument("--rotor", default="100,0", help="start,per-year")
    p.add_argument("--efficiency", default="0.3,0", help="base,per-year")
    p.add_argument("--specific-power", type=float, default=300.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("convert-grid", help="build a WGRD file from CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--start-time", default="2010-01-01",
                   help="first timestamp, ISO date/datetime UTC or Unix seconds")
    p.add_argument("--step", type=int, default=3600)
    p.set_defaults(handler=_cmd_convert_grid)

    p = sub.add_parser("pin", help="annual kinetic input power series")
    p.add_argument("--turbines", required=True)
    p.add_argument("--extension")
    p.add_argument("--exclusions")
    p.add_argument("--windgrid", required=True)
    p.add_argument("--years", required=True, help="START:END")
    p.add_argument("--height", default="hub", help="'hub' or meters")
    p.add_argument("--climate", choices=("actual", "average"), default="actual")
    p.add_argument("--study-span", help="START:END years for the climate mean")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_pin)

    p = sub.add_parser("decompose", help="multiplicative/additive decomposition")
    p.add_argument("--n", required=True)
    p.add_argument("--area", required=True)
    p.add_argument("--pin", required=True)
    p.add_argument("--pout", required=True)
    p.add_argument("--pin-avg")
    p.add_argument("--pin-ref-avg")
    p.add_argument("--base-year", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("trends", help="trend fit or counterfactual efficiency")
    p.add_argument("--series")
    p.add_argument("--efficiency")
    p.add_argument("--density")
    p.add_argument("--out", required=True)
    p.add_argument("--out-csv")
    p.set_defaults(handler=_cmd_trends)

    p = sub.add_parser("validate", help="scenario capacities and reference checks")
    p.add_argument("--turbines", required=True)
    p.add_argument("--extension")
    p.add_argument("--exclusions")
    p.add_argument("--years", required=True, help="START:END")
    p.add_argument("--reference")
    p.add_argument("--scenarios", default=",".join(pipeline.DEFAULT_SCENARIOS))
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("report", help="run the full pipeline")
    p.add_argument("--config")
    for key in pipeline.CONFIG_KEYS:  # text, parsed as config-file values are
        p.add_argument("--" + key.replace("_", "-"))
    p.set_defaults(handler=_cmd_report)

    for p in sub.choices.values():
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        with pipeline.stage(None):
            return args.handler(args)
    except PipelineError as exc:
        print(f"{exc.stage}: {exc.message}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

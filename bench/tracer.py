"""In-memory span tracer that wraps windfleet's public functions from outside
the package, and the per-layer metrics derived from its spans.

The pipeline and the CLI call every stage through module attributes
(``powerflux.annual_pin_series``, ``validate.scenario_capacity`` ...), so
replacing those attributes with timing wrappers traces a run without any
change to the program.  Only coarse public functions are wrapped: hot helpers
such as ``fleet.operating_weight`` are looked up through module globals by
their own module and would add per-call overhead.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time

#: module -> public functions wrapped with a span
WRAPPED = {
    "fleet": ("parse_turbine_csv", "merge_extension", "preprocess",
              "annual_counts", "annual_swept_area", "annual_capacity"),
    "windgrid": ("load_windgrid", "grid_from_bytes"),
    "powerflux": ("annual_pin_series", "aggregate_pin", "parse_generation_csv"),
    "decomp": ("multiplicative_decomposition", "indexed_factors",
               "additive_pin_decomposition"),
    "trends": ("ols_fit", "counterfactual_efficiency", "pearson"),
    "validate": ("parse_reference_csv", "relative_difference",
                 "scenario_capacity", "missingness_report"),
    "svgplot": ("line_chart", "scatter_chart", "grouped_bars",
                "stacked_segments", "placeholder"),
    "pipeline": ("run_pipeline",),
    "synth": ("generate_fleet", "generate_windgrid", "generate_generation"),
}

#: metrics computed from input sizes rather than counted at a wrapper
COMPUTED = ("powerflux.turbine_hours", "windgrid.payload_mb")

PIN_SPANS = ("powerflux.annual_pin_series", "powerflux.aggregate_pin")
PIN_SITES = ("annual_actual", "lta_hub", "lta_ref", "monthly")


def _pin_site(name: str, args, kwargs) -> str:
    """Which of run_pipeline's four P_in call sites a span belongs to."""
    if name == "powerflux.aggregate_pin":
        return "monthly"
    height = args[3] if len(args) > 3 else kwargs.get("height_mode", "hub")
    climate = args[4] if len(args) > 4 else kwargs.get("climate_mode", "actual")
    if climate == "actual":
        return "annual_actual"
    return "lta_hub" if height == "hub" else "lta_ref"


class Tracer:
    """Spans of one run, kept in memory: name, start, end, parent, run id,
    plus CPU time (self and reaped children) and peak RSS at both ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @staticmethod
    def _sample():
        t = os.times()
        return (time.perf_counter_ns(),
                t.user + t.system + t.children_user + t.children_system,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def start(self, name: str, **attrs) -> dict:
        t, cpu, rss = self._sample()
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "name": name, "start_ns": t, "end_ns": None,
                "cpu0": cpu, "rss0_kb": rss, **attrs}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end_ns"], cpu, span["rss1_kb"] = self._sample()
        span["cpu_s"] = cpu - span.pop("cpu0")
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if name in PIN_SPANS:
                attrs["site"] = _pin_site(name, args, kwargs)
            elif name == "windgrid.load_windgrid":
                attrs["file_bytes"] = os.path.getsize(args[0])
            span = self.start(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if name == "fleet.parse_turbine_csv":
                span["rows"] = len(result)
            return result
        return traced

    def install(self) -> None:
        """Replace every function in ``WRAPPED`` by its traced version."""
        for mod_name, names in WRAPPED.items():
            mod = importlib.import_module(f"windfleet.{mod_name}")
            for fname in names:
                setattr(mod, fname, self.wrap(f"{mod_name}.{fname}", getattr(mod, fname)))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _dur(span) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def _outermost(spans, prefix: str) -> list[dict]:
    """Spans of one layer whose parent is not in the same layer, so nested
    calls inside a layer are not counted twice."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if not s["name"].startswith(prefix):
            continue
        parent = by_id.get(s["parent"])
        if parent is None or not parent["name"].startswith(prefix):
            out.append(s)
    return out


def _seconds(spans) -> float:
    return sum((_dur(s) for s in spans), 0.0)


def _total(spans, *names) -> float:
    """Seconds in spans with one of the given names."""
    return _seconds(s for s in spans if s["name"] in names)


def _layer_s(spans, prefix: str) -> float:
    return _seconds(_outermost(spans, prefix))


def _under(spans, ancestor: str) -> list[dict]:
    """Spans that have a span named ``ancestor`` above them."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        p = by_id.get(s["parent"])
        while p is not None and p["name"] != ancestor:
            p = by_id.get(p["parent"])
        if p is not None:
            out.append(s)
    return out


def _rss_growth_mb(spans) -> float:
    return sum(s["rss1_kb"] - s["rss0_kb"] for s in spans) / 1024.0


def command_metrics(spans: list[dict], turbine_hours: int, workers: int) -> dict:
    """Per-layer metrics of one traced command (``report`` or ``validate``).

    ``turbine_hours`` is computed from the input sizes (2 heights × turbines
    × study hours): the minimum kernel work, not the work the code does.
    """
    pin = [s for s in _under(spans, "pipeline.run_pipeline") if s["name"] in PIN_SPANS]
    pin_s = _seconds(pin)
    loads = [s for s in spans if s["name"] == "windgrid.load_windgrid"]
    load_s = _seconds(loads)
    payload_mb = sum(s["file_bytes"] for s in loads) / 1e6
    pipeline = [s for s in spans if s["name"] == "pipeline.run_pipeline"]
    pipeline_s = _seconds(pipeline)
    pipeline_ids = {p["id"] for p in pipeline}
    children_s = _seconds(s for s in spans if s["parent"] in pipeline_ids)
    command_s = _total(spans, "cli.main")
    fleet_validate_s = _layer_s(spans, "fleet.") + _layer_s(spans, "validate.")

    m = {f"powerflux.{site}_s": _seconds(s for s in pin if s["site"] == site)
         for site in PIN_SITES}
    m.update({
        "powerflux.pin_calls": len(pin),
        "powerflux.turbine_hours": turbine_hours,
        "powerflux.ns_per_turbine_hour": pin_s * 1e9 / turbine_hours if turbine_hours else 0.0,
        "powerflux.cpu_util": (sum(s["cpu_s"] for s in pin) / (pin_s * workers)
                               if pin_s else 0.0),
        "powerflux.rss_growth_mb": _rss_growth_mb(pin),
        "powerflux.pipeline_share": pin_s / pipeline_s if pipeline_s else 0.0,
        "windgrid.load_s": load_s,
        "windgrid.payload_mb": payload_mb,
        "windgrid.load_mb_per_s": payload_mb / load_s if load_s else 0.0,
        "windgrid.rss_growth_mb": _rss_growth_mb(loads),
        "fleet.parse_s": _total(spans, "fleet.parse_turbine_csv", "fleet.merge_extension"),
        "fleet.preprocess_s": _total(spans, "fleet.preprocess"),
        "fleet.aggregate_s": _total(spans, "fleet.annual_counts", "fleet.annual_swept_area",
                                    "fleet.annual_capacity"),
        "fleet.records": sum(s.get("rows", 0) for s in spans),
        "validate.scenario_s": _total(spans, "validate.scenario_capacity"),
        "validate.scenario_calls": sum(s["name"] == "validate.scenario_capacity"
                                       for s in spans),
        "validate.missingness_s": _total(spans, "validate.missingness_report"),
        "fleet_validate.command_share": fleet_validate_s / command_s if command_s else 0.0,
        "decomp.s": _layer_s(spans, "decomp."),
        "trends.s": _layer_s(spans, "trends."),
        "svgplot.s": _layer_s(spans, "svgplot."),
        "pipeline.self_s": pipeline_s - children_s,
    })
    return m


def setup_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of the traced input preparation."""
    return {
        "synth.fleet_s": _total(spans, "synth.generate_fleet"),
        "synth.windgrid_s": _total(spans, "synth.generate_windgrid"),
        "synth.generation_s": _total(spans, "synth.generate_generation"),
        "synth.pin_calls": sum(s["name"] == "powerflux.aggregate_pin"
                               for s in _under(spans, "synth.generate_generation")),
    }

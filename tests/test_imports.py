"""Each command imports only the modules it runs, and the package's public
names resolve on first use.  Every check runs in a fresh interpreter,
because the test session itself has imported every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import windfleet
from windfleet.cli import main

#: every public name of the package, by the submodule that defines it
PUBLIC_NAMES = {
    "decomp": ("additive_pin_decomposition", "index_relative",
               "multiplicative_decomposition"),
    "errors": ("ConfigError", "DataError", "InvariantError"),
    "fleet": ("Fleet", "ScenarioSpec", "TurbineColumns", "TurbineRecord",
              "annual_capacity", "annual_counts", "annual_swept_area", "impute_missing",
              "merge_extension", "parse_turbine_csv", "preprocess", "rotor_swept_area"),
    "powerflux": ("BETZ_LIMIT", "RHO", "BetzLimitWarning", "aggregate_pin",
                  "annual_pin_series", "parse_generation_csv", "pout_series",
                  "system_efficiency"),
    "series": ("AnnualSeries",),
    "synth": ("SplitMix64", "SynthSpec", "WindModel", "brute_force_pin"),
    "trends": ("counterfactual_efficiency", "ols_fit", "pearson"),
    "validate": ("missingness_report", "parse_reference_csv", "relative_difference",
                 "scenario_capacity"),
    "windgrid": ("WindGrid", "bilinear", "hub_height_speed", "load_windgrid",
                 "shear_exponent", "speed_at_height", "speed_from_components",
                 "write_windgrid"),
}

#: modules only the report, pin, synth and convert-grid commands run
REPORT_ONLY = ("windfleet.decomp", "windfleet.powerflux", "windfleet.svgplot",
               "windfleet.synth", "windfleet.trends", "windfleet.windgrid")

_COMMAND = """
import json, sys
from windfleet import cli

code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""

_NAMES = """
import importlib, json, sys
import windfleet.cli

loaded = sorted(sys.modules)
from windfleet import load_windgrid

names = json.loads(sys.argv[1])
same = {name: getattr(windfleet, name)
        is getattr(importlib.import_module(f"windfleet.{module}"), name)
        for module, module_names in names.items() for name in module_names}
try:
    windfleet.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "same": same, "unknown": unknown,
                  "readme_import": load_windgrid is windfleet.windgrid.load_windgrid,
                  "version": windfleet.__version__}))
"""


def run_python(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout; the JSON it
    prints last."""
    env = dict(os.environ, PYTHONPATH=str(Path(windfleet.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "bundle"
    assert main(["synth", "--out", str(path), "--n-turbines", "6",
                 "--years", "2010:2011", "--seed", "3"]) == 0
    return path


def test_validate_loads_no_kernel_grid_or_plot_code(bundle, tmp_path):
    run = run_python(_COMMAND, "validate", "--turbines", str(bundle / "turbines.csv"),
                     "--reference", str(bundle / "reference.csv"), "--years", "2010:2011",
                     "--out", str(tmp_path / "v"))
    assert run["exit"] == 0
    loaded = {m for m in run["modules"] if m.startswith("windfleet.")}
    assert loaded == {"windfleet.cli", "windfleet.pipeline", "windfleet.validate",
                      "windfleet.fleet", "windfleet.csvinput", "windfleet.series",
                      "windfleet.errors"}
    assert "multiprocessing" not in run["modules"]


@pytest.fixture(scope="module")
def pooled_bundle(tmp_path_factory):
    """Three 64-turbine chunks, so a report at two workers starts its pool."""
    path = tmp_path_factory.mktemp("imports") / "pooled"
    assert main(["synth", "--out", str(path), "--n-turbines", "130",
                 "--years", "2010:2011", "--seed", "3"]) == 0
    return path


def test_report_with_one_worker_loads_no_synth_or_pool(bundle, pooled_bundle, tmp_path):
    run = run_python(_COMMAND, "report", "--config", str(bundle / "run.conf"),
                     "--out", str(tmp_path / "r"), "--workers", "1")
    assert run["exit"] == 0
    assert "windfleet.synth" not in run["modules"]
    assert "multiprocessing" not in run["modules"]
    # the chunk pool is threads in the report's own process
    pooled = run_python(_COMMAND, "report", "--config", str(pooled_bundle / "run.conf"),
                        "--out", str(tmp_path / "p"), "--workers", "2")
    assert pooled["exit"] == 0
    assert "concurrent.futures.thread" in pooled["modules"]
    assert "multiprocessing" not in pooled["modules"]


def test_public_names_resolve_to_their_modules():
    got = run_python(_NAMES, json.dumps(PUBLIC_NAMES))
    assert not set(REPORT_ONLY) & set(got["loaded"])
    assert got["same"] == {name: True for names in PUBLIC_NAMES.values() for name in names}
    assert got["readme_import"]
    assert got["unknown"] == "module 'windfleet' has no attribute 'no_such_name'"
    assert got["version"] == windfleet.__version__


def test_synth_module_loads_no_grid_or_kernel_code():
    """The registry generator needs only ``synth``: the grid and kernel
    modules are imported by the functions that use them."""
    got = run_python("import json, sys\nimport windfleet.synth\n"
                     "print(json.dumps(sorted(sys.modules)))")
    loaded = {m for m in got if m.startswith("windfleet.")}
    assert loaded == {"windfleet.synth", "windfleet.fleet", "windfleet.csvinput",
                      "windfleet.series", "windfleet.errors"}


def test_dir_lists_the_public_names():
    assert {name for names in PUBLIC_NAMES.values() for name in names} <= set(dir(windfleet))

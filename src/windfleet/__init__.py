"""Wind fleet power decomposition: kinetic input power at hub heights from
gridded wind data, multiplicative output decomposition, additive
input-density decomposition, trend and validation analyses.

The public names below are resolved on first use, so importing one module
(``windfleet.cli`` for a command) loads only the modules that it imports.
"""

import importlib
import os

# The chunk threads of a kernel pass (--workers) are windfleet's only
# parallelism: each BLAS call runs on the thread that makes it unless the
# environment sets a thread count.  This must run before numpy is first
# imported; it has no effect after that.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("additive_pin_decomposition", "index_relative",
                     "multiplicative_decomposition"), "decomp"),
    **dict.fromkeys(("ConfigError", "DataError", "InvariantError"), "errors"),
    **dict.fromkeys(("Fleet", "ScenarioSpec", "TurbineColumns", "TurbineRecord",
                     "annual_capacity", "annual_counts", "annual_swept_area",
                     "impute_missing", "merge_extension", "parse_turbine_csv",
                     "preprocess", "rotor_swept_area"), "fleet"),
    **dict.fromkeys(("BETZ_LIMIT", "RHO", "BetzLimitWarning", "aggregate_pin",
                     "annual_pin_series", "parse_generation_csv", "pout_series",
                     "system_efficiency"), "powerflux"),
    "AnnualSeries": "series",
    **dict.fromkeys(("SplitMix64", "SynthSpec", "WindModel", "brute_force_pin"), "synth"),
    **dict.fromkeys(("counterfactual_efficiency", "ols_fit", "pearson"), "trends"),
    **dict.fromkeys(("missingness_report", "parse_reference_csv",
                     "relative_difference", "scenario_capacity"), "validate"),
    **dict.fromkeys(("WindGrid", "bilinear", "hub_height_speed", "load_windgrid",
                     "shear_exponent", "speed_at_height", "speed_from_components",
                     "write_windgrid"), "windgrid"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

"""Wind fleet power decomposition: kinetic input power at hub heights from
gridded wind data, multiplicative output decomposition, additive
input-density decomposition, trend and validation analyses."""

import os

# The chunk pool (--workers) is windfleet's only parallelism: one BLAS thread
# per process unless the environment sets a thread count.  This must run
# before numpy is first imported; it has no effect after that.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .decomp import (additive_pin_decomposition, index_relative,
                     multiplicative_decomposition)
from .errors import ConfigError, DataError, InvariantError
from .fleet import (Fleet, ScenarioSpec, TurbineColumns, TurbineRecord,
                    annual_capacity, annual_counts, annual_swept_area, impute_missing,
                    merge_extension, parse_turbine_csv, preprocess, rotor_swept_area,
                    specific_power)
from .powerflux import (BETZ_LIMIT, RHO, BetzLimitWarning, aggregate_pin,
                        annual_pin_series, capacity_factor, input_power_density,
                        output_power_density, parse_generation_csv, pout_series,
                        system_efficiency)
from .series import AnnualSeries
from .synth import SplitMix64, SynthSpec, WindModel, brute_force_pin
from .trends import counterfactual_efficiency, ols_fit, pearson
from .validate import (missingness_report, parse_reference_csv,
                       relative_difference, scenario_capacity)
from .windgrid import (WindGrid, bilinear, hub_height_speed, load_windgrid,
                       shear_exponent, speed_at_height, speed_from_components,
                       write_windgrid)

__version__ = "0.1.0"

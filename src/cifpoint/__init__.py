"""Fixed-time inference for cumulative incidence under competing risks.

The package estimates cumulative incidence functions, attaches two
variance estimators, and compares groups at chosen time points through
transformation tests, quadratic-form tests, pointwise confidence
intervals, and pseudo-value regression.  One battery function runs the
twelve fixed-time tests for the command line and for a simulation
harness, which measures size and power of the tests and summarizes the
resulting rates with linear models.
"""

import importlib

from . import data, errors, estimation, fixed_time, variance
from .data import *
from .errors import *
from .estimation import *
from .fixed_time import *
from .variance import *

# names of the simulation, pseudo-value and ANOVA layers, imported on
# first use (PEP 562) so that a command which never runs them does not
# pay for loading them
_LAZY = {
    **dict.fromkeys(("GeeFit", "PseudoValueMatrix", "gee_fit", "pseudo_test", "pseudo_values"),
                    "pseudo"),
    **dict.fromkeys(("Scenario", "ScenarioResult", "analytic_cif", "analytic_survival",
                     "calibrate_censoring", "parse_scenarios", "read_results_csv",
                     "results_to_json", "run_scenario", "sample_group", "write_results_csv"),
                    "simulation"),
    **dict.fromkeys(("AnovaTable", "Coefficient", "anova_summarize", "ols_no_intercept"),
                    "anova"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [*data.__all__, *errors.__all__, *estimation.__all__, *fixed_time.__all__,
           *variance.__all__, *_LAZY, "__version__"]

"""Fixed-time inference for cumulative incidence under competing risks.

The package estimates cumulative incidence functions, attaches two
variance estimators, and compares groups at chosen time points through
transformation tests, quadratic-form tests, pointwise confidence
intervals, and pseudo-value regression.  One battery function runs the
twelve fixed-time tests for the command line and for a simulation
harness, which measures size and power of the tests and summarizes the
resulting rates with linear models.
"""

from .data import (
    Dataset,
    EventTable,
    SubjectRecord,
    build_event_table,
    event_table_from_arrays,
    parse_dataset,
)
from .errors import (
    CifPointError,
    DegenerateRiskSet,
    InvalidRecord,
    NonConvergence,
    NotEstimable,
    NumericalError,
    RankDeficientDesign,
    SeparationDetected,
    ZeroVariance,
)
from .estimation import CifCurve, StepFunction, cif_at, cif_estimate, km_survival
from .fixed_time import (
    FixedTimeTestResult,
    GroupSummary,
    TransformKind,
    chi2_pvalue,
    inverse_transform,
    k_sample_test,
    pointwise_ci,
    transform,
    transform_variance,
    two_sample_test,
)
from .anova import AnovaTable, Coefficient, anova_summarize, ols_no_intercept
from .errors import UnreachableTarget
from .pseudo import GeeFit, LinkKind, PseudoValueMatrix, gee_fit, pseudo_test, pseudo_values
from .simulation import (
    TEST_IDS,
    TEST_METHODS,
    BatteryOutcome,
    Scenario,
    ScenarioResult,
    analytic_cif,
    analytic_survival,
    calibrate_censoring,
    parse_scenarios,
    read_results_csv,
    results_to_json,
    run_battery,
    run_scenario,
    sample_group,
    write_results_csv,
)
from .variance import VarianceKind, aalen_variance, cif_variance, gaynor_variance

__version__ = "0.1.0"

__all__ = [
    "AnovaTable",
    "BatteryOutcome",
    "CifCurve",
    "CifPointError",
    "Coefficient",
    "Dataset",
    "DegenerateRiskSet",
    "EventTable",
    "FixedTimeTestResult",
    "GeeFit",
    "GroupSummary",
    "InvalidRecord",
    "LinkKind",
    "NonConvergence",
    "NotEstimable",
    "NumericalError",
    "PseudoValueMatrix",
    "RankDeficientDesign",
    "Scenario",
    "ScenarioResult",
    "SeparationDetected",
    "StepFunction",
    "SubjectRecord",
    "TEST_IDS",
    "TEST_METHODS",
    "TransformKind",
    "UnreachableTarget",
    "VarianceKind",
    "ZeroVariance",
    "aalen_variance",
    "analytic_cif",
    "analytic_survival",
    "anova_summarize",
    "build_event_table",
    "calibrate_censoring",
    "chi2_pvalue",
    "cif_at",
    "cif_estimate",
    "cif_variance",
    "event_table_from_arrays",
    "gaynor_variance",
    "gee_fit",
    "inverse_transform",
    "k_sample_test",
    "km_survival",
    "ols_no_intercept",
    "parse_dataset",
    "parse_scenarios",
    "pointwise_ci",
    "pseudo_test",
    "pseudo_values",
    "read_results_csv",
    "results_to_json",
    "run_battery",
    "run_scenario",
    "sample_group",
    "transform",
    "transform_variance",
    "two_sample_test",
    "write_results_csv",
    "__version__",
]

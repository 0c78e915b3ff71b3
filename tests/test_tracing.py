"""The per-layer trace in `bench/tracing.py` finds its lookup sites.

The trace wraps each layer entry point under the module attribute its
callers look it up by, and reports a site that no longer exists as
absent instead of failing.  A refactor that moves a lookup therefore
blinds that layer's trace silently; this pins the absent sites, so that
such a move fails here until `bench/tracing.py` follows it.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# sites that the traced layers list but the package does not look up
ABSENT = [
    "cifpoint.simulation.event_table_from_arrays",
    "cifpoint.simulation.cif_estimate",
    "cifpoint.fixed_time.cif_estimate",
    "cifpoint.simulation.gaynor_variance",
    "cifpoint.simulation.aalen_variance",
    "cifpoint.fixed_time.cif_variance",
    "cifpoint.cli.cif_variance",
    "cifpoint.simulation.transform",
    "cifpoint.simulation.transform_variance",
    "cifpoint.pseudo.chi2_pvalue",
    "cifpoint.cli.two_sample_test",
    "cifpoint.cli.pointwise_ci",
    "cifpoint.simulation._pooled_pseudo",
    "cifpoint.simulation.gee_fit",
    "cifpoint.cli.pseudo_test",
]


def test_installed_reports_exactly_the_known_absent_sites():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.installed(tracing.Tracer()) as absent:
        assert absent == ABSENT

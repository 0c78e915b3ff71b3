"""Per-layer spans recorded from outside the program.

Each layer entry point is replaced, for the length of a traced run, by
a wrapper installed under the name its caller looks it up by (a module
attribute such as ``cifpoint.simulation.gee_fit``).  The wrapper
appends one span per call -- name, start, end, parent span, exception
type -- to an in-memory list, and the summary derives call counts, busy
time, self time and exceptions by type from those spans afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter


def _rows(dataset):
    return len(dataset.times)


def _iterations(fit):
    return fit.iterations


# (span name, lookup sites, has wrapped children, exception types
# reported as metrics, value read from the return value).  A span name
# is `<module of src/cifpoint>.<entry point>`; the lookup sites are the
# module attributes that callers resolve at call time.
LAYERS = (
    ("data.parse_dataset", [("cifpoint.cli", "parse_dataset")],
     False, ("InvalidRecord",), _rows),
    ("data.build_event_table", [("cifpoint.cli", "build_event_table")],
     True, (), None),
    ("data.event_table_from_arrays",
     [("cifpoint.data", "event_table_from_arrays"),
      ("cifpoint.simulation", "event_table_from_arrays")],
     False, (), None),
    ("simulation.sample_group", [("cifpoint.simulation", "sample_group")],
     False, (), None),
    ("simulation.calibrate_censoring", [("cifpoint.simulation", "calibrate_censoring")],
     False, ("UnreachableTarget",), None),
    ("simulation.run_scenario", [("cifpoint.simulation", "run_scenario")],
     True, (), None),
    ("estimation.cif_estimate",
     [("cifpoint.simulation", "cif_estimate"), ("cifpoint.fixed_time", "cif_estimate"),
      ("cifpoint.cli", "cif_estimate")],
     False, (), None),
    ("variance.gaynor_variance",
     [("cifpoint.simulation", "gaynor_variance"), ("cifpoint.variance", "gaynor_variance")],
     False, ("DegenerateRiskSet", "NumericalError"), None),
    ("variance.aalen_variance",
     [("cifpoint.simulation", "aalen_variance"), ("cifpoint.variance", "aalen_variance")],
     False, ("DegenerateRiskSet", "NumericalError"), None),
    ("variance.cif_variance",
     [("cifpoint.fixed_time", "cif_variance"), ("cifpoint.cli", "cif_variance")],
     True, (), None),
    ("fixed_time.transform_block",
     [(module, attr)
      for module in ("cifpoint.simulation", "cifpoint.fixed_time")
      for attr in ("transform", "transform_variance", "chi2_pvalue")]
     + [("cifpoint.pseudo", "chi2_pvalue")],
     False, ("NotEstimable",), None),
    ("fixed_time.two_sample_test", [("cifpoint.cli", "two_sample_test")],
     True, ("NotEstimable", "ZeroVariance", "DegenerateRiskSet"), None),
    ("fixed_time.pointwise_ci", [("cifpoint.cli", "pointwise_ci")],
     True, ("NotEstimable",), None),
    ("pseudo.pseudo_values",
     [("cifpoint.simulation", "_pooled_pseudo"), ("cifpoint.pseudo", "pseudo_values")],
     False, (), None),
    ("pseudo.gee_fit", [("cifpoint.simulation", "gee_fit"), ("cifpoint.pseudo", "gee_fit")],
     False, ("SeparationDetected", "NonConvergence"), _iterations),
    ("pseudo.pseudo_test", [("cifpoint.cli", "pseudo_test")],
     True, ("SeparationDetected", "NonConvergence", "ZeroVariance"), None),
    ("anova.anova_summarize", [("cifpoint.anova", "anova_summarize")],
     False, (), None),
    ("cli.run_cli", [("cifpoint.cli", "run_cli")],
     True, (), None),
)

# Metrics that do not come from one span name.
EXTRA_METRICS = (
    ("pseudo.gee_fit.iterations", "count", "lower"),
    ("data.parse_dataset.rows_per_s", "1/s", "higher"),
    ("cli.import_s", "s", "lower"),
    ("simulation.excluded_share", "ratio", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for name, _, has_children, raised, _ in LAYERS:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.busy_s", "s", "lower"))
        if has_children:
            spec.append((f"{name}.self_s", "s", "lower"))
        spec.extend((f"{name}.raised.{exc}", "count", "lower") for exc in raised)
    spec.extend(EXTRA_METRICS)
    return spec


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        # [name, start, end, parent index or -1, exception type or None, value]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, read=None):
        """Return `fn` recording a span per call; results and exceptions
        pass through unchanged."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if read is not None:
                try:
                    span[5] = read(result)
                except (AttributeError, TypeError):
                    pass
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Wrap every lookup site of `layers` for the duration of the block.

    Yields the sites that no longer exist; they are reported as absent
    rather than failing the run.
    """
    saved, absent = [], []
    try:
        for name, sites, _, _, read in layers:
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    absent.append(f"{module_name}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, tracer.wrap(name, fn, read))
                saved.append((module, attr, fn))
        yield absent
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _empty_stats() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": Counter(), "values": []}


def summarize(spans) -> dict:
    """Per span name: calls, busy_s, self_s, raised by type, values.

    Busy time counts a span only when no enclosing span has the same
    name, so a layer that re-enters itself is not counted twice.  Self
    time is a span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, exc, value) in enumerate(spans):
        st = stats.setdefault(name, _empty_stats())
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            st["busy_s"] += end - start
        if exc is not None:
            st["raised"][exc] += 1
        if value is not None:
            st["values"].append(value)
    return stats


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values from a span summary; layers that never
    ran report zero."""
    values = {}
    for name, _, has_children, raised, _ in LAYERS:
        st = stats.get(name) or _empty_stats()
        values[f"{name}.calls"] = st["calls"]
        values[f"{name}.busy_s"] = st["busy_s"]
        if has_children:
            values[f"{name}.self_s"] = st["self_s"]
        for exc in raised:
            values[f"{name}.raised.{exc}"] = st["raised"].get(exc, 0)
    gee = stats.get("pseudo.gee_fit", {}).get("values", [])
    values["pseudo.gee_fit.iterations"] = sum(gee) / len(gee) if gee else 0.0
    parse = stats.get("data.parse_dataset")
    rows = sum(parse["values"]) if parse else 0
    values["data.parse_dataset.rows_per_s"] = rows / parse["busy_s"] if rows else 0.0
    return values

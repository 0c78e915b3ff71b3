"""Command-line interface.

Subcommands: `estimate` (incidence curves, variances and intervals at
chosen times), `test` (fixed-time comparisons, single method or the
whole battery), `simulate` (replicate a scenario grid to CSV/JSON),
`summarize-anova` (linear-model summary of a results CSV), and
`plot-data` (tidy CSV of step curves for external plotting).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure.  JSON output keeps full double precision; tables round to
three decimals.

Each command imports the layers it runs when it runs, so `estimate`,
`test` and `plot-data` never load the simulation, pseudo-value or ANOVA
code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .data import _check_cause, build_event_table, parse_dataset
from .errors import (
    CifPointError,
    InvalidRecord,
    NonConvergence,
    NotEstimable,
    NumericalError,
    RankDeficientDesign,
    SeparationDetected,
    UnreachableTarget,
    ZeroVariance,
)
from .estimation import _finite_horizon, cif_estimate
from .fixed_time import (TEST_IDS, TEST_METHODS, TransformKind, _check_groups, _check_level,
                         _interval, _table_summaries, run_battery)
from .variance import VarianceKind, _first_row

_NUMERICAL_ERRORS = (
    NotEstimable,
    NonConvergence,
    ZeroVariance,
    SeparationDetected,
    NumericalError,
    RankDeficientDesign,
    UnreachableTarget,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="cifpoint", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cifpoint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    variances = [kind.value for kind in VarianceKind]

    def add_input_flags(p):
        p.add_argument("--input", required=True, help="CSV with one row per subject")
        p.add_argument("--time-col", default="time")
        p.add_argument("--status-col", default="status")
        p.add_argument("--group-col", default=None)

    est = sub.add_parser("estimate", help="incidence estimates at fixed times")
    add_input_flags(est)
    est.add_argument("--cause", type=int, required=True)
    est.add_argument("--times", required=True, help="comma-separated times")
    est.add_argument("--variance", choices=variances, default="gaynor")
    est.add_argument("--method", choices=[k.value for k in TransformKind], default="llog",
                     help="transform used for the confidence intervals")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--json", action="store_true")
    est.add_argument("--out", default=None, help="write JSON here as well")

    tst = sub.add_parser("test", help="fixed-time comparison of groups")
    add_input_flags(tst)
    tst.add_argument("--cause", type=int, required=True)
    group = tst.add_mutually_exclusive_group(required=True)
    group.add_argument("--time", type=float, default=None)
    group.add_argument("--times", default=None, help="comma-separated times, tested independently")
    tst.add_argument("--method", default="llog",
                     choices=list(dict.fromkeys(m for m, _ in TEST_METHODS.values())) + ["all"])
    tst.add_argument("--variance", choices=variances, default="gaynor")
    tst.add_argument("--json", action="store_true")
    tst.add_argument("--out", default=None)

    sim = sub.add_parser("simulate", help="replicate a scenario grid")
    sim.add_argument("--scenario", required=True, help="key-value grid file")
    sim.add_argument("--reps", type=int, default=None, help="override replication count")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--per-group-censoring", action="store_true")
    sim.add_argument("--out", default="simulation_results.csv")
    sim.add_argument("--json", action="store_true")

    anova = sub.add_parser("summarize-anova", help="linear-model summary of simulate output")
    anova.add_argument("--input", required=True, help="CSV written by simulate")
    anova.add_argument("--model", type=int, choices=[1, 2, 3, 4], required=True)
    anova.add_argument("--response", choices=["type1", "power"], default="type1")
    anova.add_argument("--json", action="store_true")
    anova.add_argument("--out", default=None)

    plot = sub.add_parser("plot-data", help="tidy CSV of step curves")
    add_input_flags(plot)
    plot.add_argument("--cause", type=int, default=None, help="default: every cause present")
    plot.add_argument("--out", required=True)

    return parser


def _usage(check, value, prefix: str = ""):
    """`check(value)`, the library's rule, with its ValueError a usage error."""
    try:
        return check(value)
    except ValueError as exc:
        raise _UsageError(f"{prefix}{exc}") from None


def _parse_times(text: str) -> list[float]:
    """The times of a comma list, each finite and positive; a repeated
    time, which would print the same rows twice, is refused."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        times = [float(tok) for tok in tokens]
    except ValueError:
        raise _UsageError(f"bad time list {text!r}") from None
    if not times:
        raise _UsageError("empty time list")
    for i, t in enumerate(_usage(_finite_horizon, t) for t in times):
        if t in times[:i]:
            raise _UsageError(f"repeated time {tokens[i]!r} in --times")
    return times


def _load(args):
    """The input dataset, refusing a --cause that none of its subjects has."""
    data = parse_dataset(args.input, args.time_col, args.status_col, args.group_col)
    if args.cause is not None and args.cause not in data.causes:
        present = ", ".join(map(str, data.causes)) or "none"
        raise InvalidRecord(f"{args.input}: no subject has cause {args.cause}; "
                            f"causes present: {present}")
    return data


def _emit(payload: dict, args, human: str) -> None:
    text = json.dumps(payload, indent=2) if args.json or args.out else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not args.json:
        # escape what stdout cannot encode, as Python does on stderr
        encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
        text = human.encode(encoding, "backslashreplace").decode(encoding)
    print(text)


def _cmd_estimate(args) -> int:
    times = _parse_times(args.times)
    _usage(_check_level, args.level, "--level: ")
    data = _load(args)
    variance = VarianceKind(args.variance)
    kind = TransformKind(args.method)
    groups_payload = []
    lines = [f"cause {args.cause}, variance {args.variance}, "
             f"{100 * args.level:g}% CI on the {args.method} scale"]
    for group in data.groups:
        table = build_event_table(data, group)
        curve = cif_estimate(table, args.cause)
        rows = []
        lines.append(f"group {group} (n={table.size})")
        for t in times:
            (summary,) = _table_summaries((table,), args.cause, t, variance)
            est, var = _first_row(summary, variance)
            try:
                ci = _interval(est, var, kind, args.level)
            except NotEstimable:
                ci = None
            ci_text = "[not estimable]" if ci is None else "[{:.3f}, {:.3f}]".format(*ci)
            rows.append({"time": t, "estimate": est, "variance": var, "ci": ci})
            lines.append(f"  t={t:g}: estimate {est:.3f}  variance {var:.6f}  {ci_text}")
        steps = curve.steps
        groups_payload.append({
            "group": group,
            "n": table.size,
            "estimates": rows,
            "curve": {
                "knots": steps.knots.tolist(),
                "values": steps.values.tolist(),
                "before": steps.before,
            },
        })
    payload = {
        "command": "estimate",
        "cause": args.cause,
        "variance": args.variance,
        "transform": args.method,
        "level": args.level,
        "groups": groups_payload,
    }
    _emit(payload, args, "\n".join(lines))
    return 0


def _result_payload(res) -> dict:
    return {
        "method": res.method,
        "variance": res.variance,
        "time": res.time,
        "cause": res.cause,
        "statistic": res.statistic,
        "df": res.df,
        "p_value": res.p_value,
        "effect": res.effect,
        "groups": [
            {"group": g.group, "estimate": g.estimate, "variance": g.variance}
            for g in res.groups
        ],
    }


def _cmd_test(args) -> int:
    times = (_parse_times(args.times) if args.time is None
             else [_usage(_finite_horizon, args.time)])
    data = _load(args)
    if args.method == "all":
        tests = TEST_IDS
    else:
        tests = [test for test, (method, variance) in TEST_METHODS.items()
                 if method == args.method and variance in (None, args.variance)]
    _usage(_check_groups, len(data.groups))

    groups = [(g, data.times[data.codes == i], data.statuses[data.codes == i])
              for i, g in enumerate(data.groups)]
    results, failures, lines = [], [], []
    for t in times:
        for o in run_battery(groups, args.cause, t, tests):
            label = o.method if o.variance is None else f"{o.method} ({o.variance})"
            if o.error is None:
                results.append(_result_payload(o.result))
                lines.append(
                    f"t={t:g} {label}: statistic {o.result.statistic:.3f} "
                    f"df {o.result.df} p {o.result.p_value:.3f}"
                )
            else:
                failures.append({
                    "method": o.method,
                    "variance": o.variance,
                    "time": t,
                    "error_type": type(o.error).__name__,
                    "message": str(o.error),
                })
                lines.append(f"t={t:g} {label}: failed ({type(o.error).__name__}: {o.error})")
    payload = {
        "command": "test",
        "cause": args.cause,
        "results": results,
        "failures": failures,
    }
    _emit(payload, args, "\n".join(lines))
    if failures:
        print(
            f"cifpoint: {len(failures)} of {len(results) + len(failures)} "
            "requested tests failed; see output for details",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_simulate(args) -> int:
    from dataclasses import replace

    from .simulation import parse_scenarios, results_to_json, run_scenario, write_results_csv

    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    scenarios = parse_scenarios(args.scenario)
    patch = {key: value for key, value in (("reps", args.reps), ("master_seed", args.seed))
             if value is not None}
    try:
        scenarios = [replace(s, **patch) for s in scenarios]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    # an --out that cannot be written fails before the first scenario
    # runs; a file already there keeps its contents until the end, and
    # one this run creates is removed if the run fails
    created = not os.path.exists(args.out)
    open(args.out, "a", encoding="utf-8").close()
    try:
        results = []
        for i, s in enumerate(scenarios, start=1):
            print(
                f"[{i}/{len(scenarios)}] n={s.n1}/{s.n2} t={s.t_fixed:g} "
                f"cens={s.censor_fraction:g} shr={s.shr:g} reps={s.reps}",
                file=sys.stderr,
            )
            results.append(run_scenario(s, workers=args.workers,
                                        per_group_censoring=args.per_group_censoring))
        write_results_csv(results, args.out)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    if args.json:
        print(results_to_json(results))
    else:
        print(f"wrote {len(results)} scenarios x {len(TEST_IDS)} tests to {args.out}")
    return 0


def _cmd_summarize_anova(args) -> int:
    from .anova import anova_summarize
    from .simulation import read_results_csv

    results = read_results_csv(args.input)
    table = anova_summarize(results, response=args.response, model=args.model)
    payload = {
        "command": "summarize-anova",
        "model": table.model,
        "response": table.response,
        "coefficients": [
            {"factor": c.factor, "level": c.level, "estimate": c.estimate}
            for c in table.coefficients
        ],
    }
    width = max(len(c.level) for c in table.coefficients)
    lines = [f"model {table.model}, response {table.response}"]
    current = None
    for c in table.coefficients:
        if c.factor != current:
            current = c.factor
            lines.append(f"{c.factor}:")
        lines.append(f"  {c.level:<{width}}  {c.estimate: .3f}")
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_plot_data(args) -> int:
    data = _load(args)
    causes = [args.cause] if args.cause is not None else list(data.causes)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "cause", "time", "estimate"])
        for group in data.groups:
            table = build_event_table(data, group)
            for cause in causes:
                curve = cif_estimate(table, cause)
                writer.writerow([group, cause, repr(0.0), repr(curve.steps.before)])
                for t, v in zip(curve.steps.knots, curve.steps.values):
                    writer.writerow([group, cause, repr(float(t)), repr(float(v))])
    print(f"wrote step curves for {len(data.groups)} groups to {args.out}")
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "summarize-anova": _cmd_summarize_anova,
    "plot-data": _cmd_plot_data,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cause", None) is not None:
            _usage(_check_cause, args.cause, "--cause: ")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"cifpoint: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(json.dumps({"error_type": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3
    except (CifPointError, OSError, UnicodeDecodeError) as exc:
        print(f"cifpoint: data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

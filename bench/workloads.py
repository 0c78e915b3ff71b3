"""The three benchmark workloads.

Each workload generates its inputs from the seed into a temporary
directory, measures its one-time set-up in fresh processes, then runs a
closed loop -- one client, one job at a time, in one process -- until
the requested seconds have passed.  Output checks run after the loop.
With tracing on, a fixed amount of work runs once untraced and once
traced, so per-layer numbers compare across commits and the difference
is the tracing overhead.

Why each workload exists, and what each layer is predicted to move, is
written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROCESSES = 3

# Fresh-process set-up programs: they print the seconds of one-time work.
SIM_SETUP = """\
import sys, time
start = time.perf_counter()
import cifpoint
for s in cifpoint.parse_scenarios(sys.argv[1]):
    cifpoint.calibrate_censoring(s.beta, s.p, (s.n1, s.n2), s.censor_fraction)
print(time.perf_counter() - start)
"""
CLI_SETUP = """\
import time
start = time.perf_counter()
import cifpoint.cli
print(time.perf_counter() - start)
"""


@dataclass
class Outcome:
    """What one benchmark run found."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> value
    report: dict = field(default_factory=dict)    # printed and saved, not gated
    spans: list | None = None                     # saved with a traced run

    def fail(self, op, problems):
        if problems:
            self.failed_ops.add(op)
            self.problems.extend(problems)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def fresh_seconds(code: str, *args) -> float:
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def summary(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond
    it (nearest rank), and the sample count."""
    out = {"median": statistics.median(samples), "count": len(samples)}
    ordered = sorted(samples)
    for q in (50, 90, 99, 99.9):
        rank = max(1, math.ceil(q * len(ordered) / 100.0 - 1e-9))
        if len(ordered) - rank >= 10:
            out[f"p{q:g}"] = ordered[rank - 1]
    return out


def pass_seed(seed: int, k: int) -> int:
    """Master seed of the k-th pass of a simulation workload."""
    return seed * 100_000 + k


# --------------------------------------------------------------------
# simulation workloads


@dataclass(frozen=True)
class SimWorkload:
    name: str
    sizes: str
    times: str
    censoring: str
    reps: int            # replications per scenario in one pass
    anova: bool          # summarize each pass with models 1-4

    def grid_text(self, seed: int) -> str:
        return (
            f"# {self.name}, seed {seed}: null grid\n"
            f"sizes = {self.sizes}\ntimes = {self.times}\ncensoring = {self.censoring}\n"
            f"shr = 1\np = 0.66\nalpha = 0.05\nreps = {self.reps}\n"
            f"seed = {pass_seed(seed, 0)}\n"
        )


GRID_SMALL = SimWorkload("grid-small", sizes="25/25, 50/100", times="0.1, 0.5",
                         censoring="0, 0.45", reps=50, anova=True)
SIM_LARGE = SimWorkload("sim-large", sizes="1000/1000", times="0.5",
                        censoring="0.3", reps=5, anova=False)
# Passes of the traced run, traced and untraced each: a fixed amount of work.
TRACE_PASSES = 4


def cell_label(s) -> str:
    return f"n={s.n1}/{s.n2} t={s.t_fixed:g} cens={s.censor_fraction:g} seed={s.master_seed}"


def sim_pass(w: SimWorkload, scenarios, seed: int, k: int, out: Outcome):
    """One pass over the grid; returns (cells, results, anova tables, wall)."""
    import cifpoint.anova as anova
    import cifpoint.simulation as simulation

    cells = [replace(s, master_seed=pass_seed(seed, k)) for s in scenarios]
    results, tables = [], []
    start = time.perf_counter()
    for i, s in enumerate(cells):
        out.attempted += 1
        try:
            results.append(simulation.run_scenario(s, workers=1))
        except Exception:
            traceback.print_exc()
            results.append(None)
            out.fail((k, i), [f"{cell_label(s)}: run_scenario raised"])
    if w.anova and None not in results:
        for model in (1, 2, 3, 4):
            out.attempted += 1
            try:
                tables.append(anova.anova_summarize(results, response="type1", model=model))
            except Exception:
                traceback.print_exc()
                out.fail((k, "anova", model), [f"pass {k}: anova model {model} raised"])
    return cells, results, tables, time.perf_counter() - start


def _check_sim(w: SimWorkload, seed: int, passes, out: Outcome) -> None:
    reference = checks.load_reference().get(w.name, {})
    for k, (cells, results, tables, _) in enumerate(passes):
        for i, (s, res) in enumerate(zip(cells, results)):
            if res is None:
                continue
            label = cell_label(s)
            out.fail((k, i), checks.count_problems(label, s.reps, res.rejections, res.excluded))
            if k == 0:
                out.fail((k, i), checks.replay_problems(label, s, res.rejections, res.excluded))
                if reference.get("seed") == seed:
                    out.fail((k, i), checks.reference_count_problems(
                        label, reference["cells"][i], res.rejections, res.excluded))
        for model, table in enumerate(tables, start=1):
            coefs = [c.estimate for c in table.coefficients]
            if not coefs or not all(np.isfinite(coefs)):
                out.fail((k, "anova", model), [f"pass {k}: anova model {model} not finite"])


def _counts(results):
    return [None if r is None else (r.rejections, r.excluded) for r in results]


def _excluded_share(passes) -> float:
    excluded = attempted = 0
    for cells, results, _, _ in passes:
        for s, res in zip(cells, results):
            if res is not None:
                excluded += sum(res.excluded.values())
                attempted += s.reps * len(res.excluded)
    return excluded / attempted if attempted else 0.0


def run_sim(w: SimWorkload, seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    import cifpoint

    out = Outcome()
    grid = tmp / "grid.cfg"
    grid.write_text(w.grid_text(seed))
    scenarios = cifpoint.parse_scenarios(grid)
    out.report["scenarios"] = [cell_label(s) for s in scenarios]
    if trace:
        return _trace_sim(w, scenarios, seed, out)

    setup = [fresh_seconds(SIM_SETUP, str(grid)) for _ in range(SETUP_PROCESSES)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(sim_pass(w, scenarios, seed, len(passes), out))
    rates = [sum(s.reps for s in cells) / wall for cells, _, _, wall in passes]
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_sim(w, seed, passes, out)

    out.metrics["setup_s"] = statistics.median(setup)
    out.metrics["reps_per_s"] = statistics.median(rates)
    out.report["setup_s_samples"] = setup
    out.report["reps_per_s_per_pass"] = summary(rates)
    out.report["reps_per_pass"] = sum(s.reps for s in scenarios)
    out.report["excluded_share"] = _excluded_share(passes)
    return out


def _trace_sim(w: SimWorkload, scenarios, seed: int, out: Outcome) -> Outcome:
    # After a warm-up pass, untraced and traced passes alternate, so that
    # neither first-touch costs nor a drift in machine speed land on one
    # side of the overhead.
    sim_pass(w, scenarios, seed, 0, out)
    plain, traced, tracer = [], [], tracing.Tracer()
    for k in range(TRACE_PASSES):
        plain.append(sim_pass(w, scenarios, seed, k, out))
        with tracing.installed(tracer) as absent:
            traced.append(sim_pass(w, scenarios, seed, k, out))
    _check_sim(w, seed, plain, out)
    for k, (a, b) in enumerate(zip(plain, traced)):
        if _counts(a[1]) != _counts(b[1]):
            out.fail((k, "traced"), [f"pass {k}: traced counts differ from untraced"])

    stats = tracing.summarize(tracer.spans)
    out.metrics.update(tracing.layer_metrics(stats))
    out.metrics["cli.import_s"] = 0.0
    out.metrics["simulation.excluded_share"] = _excluded_share(plain)
    out.metrics["tracing.overhead_s"] = sum(p[3] for p in traced) - sum(p[3] for p in plain)
    out.report["absent"] = absent
    out.report["trace_work"] = f"{TRACE_PASSES} passes of {len(scenarios)} scenarios x {w.reps} reps"
    out.report["predictions"] = _sim_predictions(w, stats)
    out.spans = tracer.spans
    return out


# Leaf layers of a replication, for the share report.
_REP_LAYERS = (
    "simulation.sample_group", "data.event_table_from_arrays", "estimation.cif_estimate",
    "variance.gaynor_variance", "variance.aalen_variance", "fixed_time.transform_block",
    "pseudo.pseudo_values", "pseudo.gee_fit", "simulation.calibrate_censoring",
)


def _sim_predictions(w: SimWorkload, stats: dict) -> dict:
    total = stats.get("simulation.run_scenario", {}).get("busy_s", 0.0)
    shares = {name: stats.get(name, {}).get("busy_s", 0.0) / total
              for name in _REP_LAYERS} if total else {}
    if total:
        shares["simulation.run_scenario.self"] = stats["simulation.run_scenario"]["self_s"] / total
    result = {"shares_of_run_scenario": shares}
    if w is SIM_LARGE and shares:
        result["pseudo-values dominate sim-large"] = {
            "predicted": "pseudo_values ~94%, gee_fit <=3%",
            "held": shares["pseudo.pseudo_values"] > 0.5 and shares["pseudo.gee_fit"] <= 0.03,
        }
    if w is GRID_SMALL and shares:
        largest = max(_REP_LAYERS, key=lambda name: shares[name])
        result["GEE is the largest layer in grid-small"] = {
            "predicted": "gee_fit ~36%, the largest single layer",
            "largest": largest,
            "held": largest == "pseudo.gee_fit",
        }
    return result


# --------------------------------------------------------------------
# cli-cohort


COHORT_ROWS = 100_000
COHORT_DAYS = 1826           # five years of follow-up
ESTIMATE_TIMES = (90, 180, 365, 730)
TEST_TIME = 365


def write_cohort(path: Path, seed: int):
    """Two-group cohort in whole days; returns (times, statuses, groups).

    Failure days are exponential (mean 365 days in group A, 304 in B),
    cause 1 with probability 0.6 (A) or 0.5 (B); censoring is uniform
    over five years, which censors ~18%.  A failure and a censoring on
    the same day count as a failure.
    """
    n = COHORT_ROWS
    rng = np.random.default_rng(seed)
    in_b = rng.random(n) < 0.5
    rate = np.where(in_b, 6.0, 5.0) / COHORT_DAYS
    fail = np.maximum(np.ceil(rng.exponential(1.0 / rate)), 1.0)
    cause = np.where(rng.random(n) < np.where(in_b, 0.5, 0.6), 1, 2)
    censor = np.maximum(np.ceil(rng.uniform(0.0, COHORT_DAYS, n)), 1.0)
    times = np.minimum(fail, censor).astype(int)
    statuses = np.where(fail <= censor, cause, 0)
    groups = np.where(in_b, "B", "A")
    with open(path, "w") as fh:
        fh.write("time,status,group\n")
        fh.writelines(f"{t},{s},{g}\n" for t, s, g in
                      zip(times.tolist(), statuses.tolist(), groups.tolist()))
    return times, statuses, groups


def cli_argv(csv_path: Path):
    common = ["--input", str(csv_path), "--group-col", "group", "--cause", "1", "--json"]
    estimate = ["estimate", *common, "--times", ",".join(map(str, ESTIMATE_TIMES))]
    test_all = ["test", *common, "--time", str(TEST_TIME), "--method", "all"]
    return estimate, test_all


def run_cli_process(argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cifpoint.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def run_cli_inprocess(argv):
    import cifpoint.cli as cli

    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(argv)
    return code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - start


def reference_view(command: str, payload: dict) -> dict:
    """The part of a CLI payload stored as the reference."""
    if command == "estimate":
        return {"groups": [{"group": g["group"], "n": g["n"], "estimates": g["estimates"]}
                           for g in payload["groups"]]}
    return {"results": [{key: r[key] for key in
                         ("method", "variance", "statistic", "effect", "groups")}
                        for r in payload["results"]]}


def _check_cli_output(command, code, stdout, stderr, oracle, seed) -> list[str]:
    if code != 0:
        return [f"{command}: exit {code}: {stderr.strip()[-300:]}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{command}: output is not JSON ({exc})"]
    if command == "estimate":
        problems = checks.estimate_problems(payload, oracle["estimate"], ESTIMATE_TIMES)
    else:
        problems = checks.test_all_problems(payload, oracle["test"])
    reference = checks.load_reference().get("cli-cohort", {})
    if reference.get("seed") == seed:
        problems += checks.reference_payload_problems(
            command, reference_view(command, payload), reference[command])
    return problems


def _oracle(times, statuses, groups) -> dict:
    oracle = {"estimate": {}, "test": {}}
    for label in ("A", "B"):
        sel = groups == label
        values = checks.loop_cif(times[sel], statuses[sel], 1, ESTIMATE_TIMES + (TEST_TIME,))
        oracle["estimate"][label] = values[:-1]
        oracle["test"][label] = values[-1]
    return oracle


def run_cli_cohort(seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    out = Outcome()
    csv_path = tmp / "cohort.csv"
    times, statuses, groups = write_cohort(csv_path, seed)
    oracle = _oracle(times, statuses, groups)
    out.report["cohort"] = {
        "rows": int(times.size),
        "censored_share": float(np.mean(statuses == 0)),
        "failure_days_to_horizon": int(np.unique(times[(statuses > 0) & (times <= TEST_TIME)]).size),
    }
    commands = dict(zip(("estimate", "test"), cli_argv(csv_path)))
    if trace:
        return _trace_cli(commands, oracle, seed, out)

    setup = [fresh_seconds(CLI_SETUP) for _ in range(SETUP_PROCESSES)]
    walls = {"estimate": [], "test": []}
    session_rates = []
    first = {}
    start = time.perf_counter()
    while not session_rates or time.perf_counter() - start < seconds:
        session_start = time.perf_counter()
        for command, argv in commands.items():
            out.attempted += 1
            code, stdout, stderr, wall = run_cli_process(argv)
            walls[command].append(wall)
            op = (len(session_rates), command)
            if command not in first:
                first[command] = stdout
                out.fail(op, _check_cli_output(command, code, stdout, stderr, oracle, seed))
            elif code != 0 or stdout != first[command]:
                out.fail(op, [f"{command}: exit {code}, output differs from the first call"])
        session_rates.append(1.0 / (time.perf_counter() - session_start))

    out.metrics["setup_s"] = statistics.median(setup)
    out.metrics["reps_per_s"] = statistics.median(session_rates)
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out.report["setup_s_samples"] = setup
    out.report["estimate_s"] = summary(walls["estimate"])
    out.report["test_all_s"] = summary(walls["test"])
    out.report["sessions_per_s"] = summary(session_rates)
    return out


def _trace_cli(commands, oracle, seed, out: Outcome) -> Outcome:
    # The first in-process call of each command grows the heap, so the
    # overhead compares the second, untraced, call with the traced one.
    plain, overhead, tracer = {}, 0.0, tracing.Tracer()
    for command, argv in commands.items():
        out.attempted += 1
        warm = run_cli_inprocess(argv)
        out.fail(command, _check_cli_output(command, *warm[:3], oracle, seed))
        plain[command] = run_cli_inprocess(argv)
        with tracing.installed(tracer) as absent:
            traced = run_cli_inprocess(argv)
        overhead += traced[3] - plain[command][3]
        if not warm[:2] == plain[command][:2] == traced[:2]:
            out.fail(command, [f"{command}: untraced and traced calls differ"])
        if command == "estimate":
            estimate = tracing.summarize(tracer.spans)

    imports = [fresh_seconds(CLI_SETUP) for _ in range(SETUP_PROCESSES)]
    estimate_wall = run_cli_process(commands["estimate"])[3]
    test_wall = run_cli_process(commands["test"])[3]
    stats = tracing.summarize(tracer.spans)
    out.metrics.update(tracing.layer_metrics(stats))
    out.metrics["cli.import_s"] = statistics.median(imports)
    payload = json.loads(plain["test"][1]) if plain["test"][0] == 0 else {}
    out.metrics["simulation.excluded_share"] = len(payload.get("failures", [])) / 12.0
    out.metrics["tracing.overhead_s"] = overhead
    out.report["absent"] = absent
    out.spans = tracer.spans

    def busy(summary, name):
        return summary.get(name, {}).get("busy_s", 0.0)

    share = (out.metrics["cli.import_s"] + busy(estimate, "data.parse_dataset")) / estimate_wall
    test_busy = busy(stats, "cli.run_cli") - busy(estimate, "cli.run_cli")
    pseudo = busy(stats, "pseudo.pseudo_values") - busy(estimate, "pseudo.pseudo_values")
    out.report["predictions"] = {
        "import plus ingest make up most of estimate_s": {
            "predicted": "import ~0.8 s + parse_dataset ~0.33 s of ~1.5 s",
            "estimate_wall_s": estimate_wall,
            "share": share,
            "held": share > 0.5,
        },
        "pseudo-values take most of test --method all": {
            "predicted": "~2/3 of the process wall, computed once per link",
            "pseudo_values_s": pseudo,
            "test_wall_s": test_wall,
            "share": pseudo / test_wall,
            "share_of_in_process_run_cli": pseudo / test_busy if test_busy else 0.0,
            "calls": stats.get("pseudo.pseudo_values", {}).get("calls", 0),
            "held": pseudo / test_wall > 0.5,
        },
    }
    return out


WORKLOADS = {
    "grid-small": lambda seed, seconds, trace, tmp: run_sim(GRID_SMALL, seed, seconds, trace, tmp),
    "sim-large": lambda seed, seconds, trace, tmp: run_sim(SIM_LARGE, seed, seconds, trace, tmp),
    "cli-cohort": run_cli_cohort,
}

"""Monte Carlo study of the fixed-time tests.

Samples are drawn from a two-cause model: with eta = exp(beta z), the
cause of failure is 1 with probability 1 - (1-p)^eta and the failure
time is exponential with rate eta regardless of cause, giving

    I_1(t; z) = [1 - (1-p)^eta] (1 - e^{-t eta}),
    I_2(t; z) = (1-p)^eta (1 - e^{-t eta}).

At eta = 1 the cause-1 incidence is p (1 - e^{-t}), so p is its
maximum; exp(beta) scales both the cause-1 share and the time scale in
the second group.  Censoring is uniform on (0, b) with b calibrated by
bisection so the expected censored fraction hits a target.  Each
replication runs the whole battery of twelve tests (five transforms
times two variance estimators, plus the two pseudo-value links) at one
fixed time and records rejections at level alpha.  The battery,
`run_battery`, is also what `cifpoint test` runs on observed data.

Replications use independent counter-based streams keyed by the master
seed and the replication index, so results are reproducible bit for
bit regardless of execution order or parallelism.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .data import event_table_from_arrays
from .errors import (
    CifPointError,
    DegenerateRiskSet,
    NotEstimable,
    NumericalError,
    SeparationDetected,
    UnreachableTarget,
    ZeroVariance,
)
from .estimation import _finite_horizon
from .fixed_time import FixedTimeTestResult, TransformKind, _k_sample, _two_sample
from .pseudo import PSEUDO_METHODS, _group_moments, _pooled_pseudo, _saturated_test
from .variance import VarianceKind, estimate_and_variances

__all__ = [
    "TEST_IDS",
    "TEST_METHODS",
    "BatteryOutcome",
    "run_battery",
    "Scenario",
    "ScenarioResult",
    "analytic_cif",
    "analytic_survival",
    "sample_group",
    "calibrate_censoring",
    "run_scenario",
    "parse_scenarios",
    "write_results_csv",
    "read_results_csv",
    "results_to_json",
]

# test id -> (method, variance) as FixedTimeTestResult and the CLI name
# them: the five transforms under each variance estimator, then the two
# pseudo-value links
TEST_METHODS = {
    **{f"{v.value}_{k.value}": (k.value, v.value)
       for v in (VarianceKind.GAYNOR, VarianceKind.AALEN) for k in TransformKind},
    **{label.replace("-", "_"): (label, None) for label in PSEUDO_METHODS.values()},
}
TEST_IDS = tuple(TEST_METHODS)
_LINKS = {label: link for link, label in PSEUDO_METHODS.items()}

# errors that exclude one test of one replication; any other error is a
# fault and stops the run
_EXCLUDING = (NotEstimable, ZeroVariance, DegenerateRiskSet, SeparationDetected)


@dataclass(frozen=True)
class BatteryOutcome:
    """One test of the battery at one time: its result, or the error
    that excluded it."""

    test: str
    method: str
    variance: str | None
    result: FixedTimeTestResult | None
    error: CifPointError | None


def run_battery(tables, cause: int, t: float, pooled=None,
                tests=TEST_IDS) -> list[BatteryOutcome]:
    """Run the requested tests of the battery at `t`, in TEST_IDS order.

    `tables` are the groups' event tables; the transform tests compare
    two groups as `two_sample_test` and more as `k_sample_test` do, from
    one pass over each table for its estimate and both variances.  The
    pseudo-value tests need exactly two groups and `pooled`, the arrays
    (times, statuses, x) of all subjects with x = 1 marking the first
    table's group; the pooled pseudo-values are computed once for both
    links.  The numbers equal those of `two_sample_test`, `k_sample_test`
    and `pseudo_test` bit for bit.
    """
    unknown = set(tests) - set(TEST_IDS)
    if unknown:
        raise ValueError(f"unknown tests {sorted(unknown)}")
    if len(tables) < 2:
        raise ValueError("the battery needs at least two groups")
    t = _finite_horizon(t)
    groups = [tb.group for tb in tables]
    compare = _two_sample if len(tables) == 2 else _k_sample
    summaries = moments = None
    outcomes = []
    for test in TEST_IDS:
        if test not in tests:
            continue
        method, variance = TEST_METHODS[test]
        try:
            if variance is not None:
                if summaries is None:
                    summaries = [estimate_and_variances(tb, cause, t) for tb in tables]
                kind = VarianceKind(variance)
                points = [(estimate, variances[kind]) for estimate, variances in summaries]
                result = compare(groups, points, cause, t, TransformKind(method), kind)
            else:
                if moments is None:
                    if len(tables) != 2 or pooled is None:
                        raise ValueError("the pseudo-value tests need two groups "
                                         "and the pooled subjects")
                    times, statuses, x = pooled
                    theta = _pooled_pseudo(times, statuses, int(cause), np.array([t]))
                    # a separation stops both links
                    try:
                        moments = _group_moments(theta[:, 0], x)
                    except SeparationDetected as exc:
                        moments = exc
                if isinstance(moments, Exception):
                    raise moments
                result = _saturated_test(moments, groups, cause, t, _LINKS[method])
        except (*_EXCLUDING, NumericalError) as exc:
            outcomes.append(BatteryOutcome(test, method, variance, None, exc))
        else:
            outcomes.append(BatteryOutcome(test, method, variance, result, None))
    return outcomes


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation grid."""

    n1: int
    n2: int
    beta: float
    censor_fraction: float
    t_fixed: float
    p: float = 0.66
    alpha: float = 0.05
    reps: int = 10000
    master_seed: int = 20180612

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must be in (0, 1), got {self.p!r}")
        if not (0.0 <= self.censor_fraction < 1.0):
            raise ValueError(f"censor_fraction must be in [0, 1), got {self.censor_fraction!r}")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("group sizes must be at least 2")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")

    @property
    def shr(self) -> float:
        return math.exp(self.beta)


@dataclass(frozen=True)
class ScenarioResult:
    """Empirical rejection proportions of the twelve tests."""

    scenario: Scenario
    rejections: dict[str, int]
    excluded: dict[str, int]

    def valid(self, test: str) -> int:
        return self.scenario.reps - self.excluded[test]

    def rate(self, test: str) -> float:
        n = self.valid(test)
        return self.rejections[test] / n if n else float("nan")

    @property
    def rejection(self) -> dict[str, float]:
        return {test: self.rate(test) for test in TEST_IDS}


def analytic_cif(t, cause: int, beta: float, z: int, p: float):
    """Model cumulative incidence I_cause(t; z)."""
    eta = math.exp(beta * z)
    t = np.asarray(t, dtype=float)
    if cause == 1:
        out = (1.0 - (1.0 - p) ** eta) * (1.0 - np.exp(-t * eta))
    elif cause == 2:
        out = (1.0 - p) ** eta * (1.0 - np.exp(-t * eta))
    else:
        raise ValueError(f"cause must be 1 or 2, got {cause!r}")
    return float(out) if out.ndim == 0 else out


def analytic_survival(t, beta: float, z: int, p: float):
    """Model all-cause survival 1 - I_1 - I_2 = e^{-t eta}."""
    return 1.0 - analytic_cif(t, 1, beta, z, p) - analytic_cif(t, 2, beta, z, p)


def _invert_times(u: np.ndarray, eta: float) -> np.ndarray:
    return np.maximum(-np.log(1.0 - u) / eta, 1e-12)


def sample_group(n: int, beta: float, z: int, p: float, rng: np.random.Generator,
                 censor_bound: float = math.inf):
    """Draw one group: (observed time, status) with status 0 censored.

    Three uniforms are consumed per subject in a fixed order (cause,
    time, censoring) so that scenarios differing only in the censoring
    target share failure times under a common seed.
    """
    u = rng.random((n, 3))
    eta = math.exp(beta * z)
    is_cause1 = u[:, 0] < 1.0 - (1.0 - p) ** eta
    t = _invert_times(u[:, 1], eta)
    status = np.where(is_cause1, 1, 2)
    if math.isinf(censor_bound):
        return t, status
    c = np.maximum(censor_bound * u[:, 2], 1e-12)
    observed = np.minimum(t, c)
    return observed, np.where(t <= c, status, 0)


def _expected_censored(bound: float, beta: float, p: float, w2: float) -> float:
    def mixture_survival(t):
        s = (1.0 - w2) * analytic_survival(t, beta, 0, p)
        if w2 > 0.0:
            s += w2 * analytic_survival(t, beta, 1, p)
        return s

    total, _ = quad(mixture_survival, 0.0, bound, limit=200)
    return total / bound


def calibrate_censoring(beta: float, p: float, weights: tuple[float, float],
                        target: float, tol: float = 1e-4) -> float:
    """Uniform(0, b) bound giving an expected censored fraction `target`.

    `weights` are the relative sizes of the z=0 and z=1 groups; the
    censored fraction P(C < T) is computed against the corresponding
    mixture of failure-time laws and is decreasing in b, so bisection
    applies.  `target` 0 returns infinity (no censoring).
    """
    if not (0.0 <= target < 1.0):
        raise ValueError(f"target must be in [0, 1), got {target!r}")
    if target == 0.0:
        return math.inf
    w2 = weights[1] / (weights[0] + weights[1])

    lo, hi = 0.0, 1.0
    for _ in range(80):
        if _expected_censored(hi, beta, p, w2) < target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise UnreachableTarget(
            f"censored fraction {target!r} not reachable",
            supremum=_expected_censored(hi, beta, p, w2),
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        frac = _expected_censored(mid, beta, p, w2)
        if abs(frac - target) <= tol:
            return mid
        if frac > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _replicate(s: Scenario, rep: int, bounds: tuple[float, float]) -> dict:
    """Run the twelve-test battery once; values True/False/None
    (None marks a replication excluded for that test)."""
    rng = np.random.Generator(np.random.Philox(key=[s.master_seed, rep]))
    t1, s1 = sample_group(s.n1, s.beta, 0, s.p, rng, bounds[0])
    t2, s2 = sample_group(s.n2, s.beta, 1, s.p, rng, bounds[1])
    tables = (
        event_table_from_arrays(t1, s1, group="1", causes=(1, 2)),
        event_table_from_arrays(t2, s2, group="2", causes=(1, 2)),
    )
    pooled = (
        np.concatenate((t1, t2)),
        np.concatenate((s1, s2)),
        np.concatenate((np.ones(s.n1), np.zeros(s.n2))),
    )
    outcome = {}
    for o in run_battery(tables, 1, s.t_fixed, pooled):
        if o.error is None:
            outcome[o.test] = o.result.p_value < s.alpha
        elif isinstance(o.error, _EXCLUDING):
            outcome[o.test] = None
        else:
            raise o.error
    return outcome


def _run_block(args) -> tuple[dict, dict]:
    s, start, stop, bounds = args
    rejections = dict.fromkeys(TEST_IDS, 0)
    excluded = dict.fromkeys(TEST_IDS, 0)
    for rep in range(start, stop):
        outcome = _replicate(s, rep, bounds)
        for test in TEST_IDS:
            if outcome[test] is None:
                excluded[test] += 1
            elif outcome[test]:
                rejections[test] += 1
    return rejections, excluded


def run_scenario(s: Scenario, workers: int = 1,
                 per_group_censoring: bool = False) -> ScenarioResult:
    """Replicate a scenario and aggregate rejection counts.

    `per_group_censoring` calibrates a separate uniform bound against
    each group's own failure-time law instead of the pooled mixture.
    Aggregation is pure counting, so any partition of the replication
    range across workers yields the same result.
    """
    if per_group_censoring:
        bounds = (
            calibrate_censoring(s.beta, s.p, (1.0, 0.0), s.censor_fraction),
            calibrate_censoring(s.beta, s.p, (0.0, 1.0), s.censor_fraction),
        )
    else:
        shared = calibrate_censoring(s.beta, s.p, (s.n1, s.n2), s.censor_fraction)
        bounds = (shared, shared)

    if workers <= 1 or s.reps < 2 * workers:
        rejections, excluded = _run_block((s, 0, s.reps, bounds))
        return ScenarioResult(s, rejections, excluded)

    edges = np.linspace(0, s.reps, workers + 1).astype(int)
    blocks = [(s, int(a), int(b), bounds) for a, b in zip(edges[:-1], edges[1:])]
    rejections = dict.fromkeys(TEST_IDS, 0)
    excluded = dict.fromkeys(TEST_IDS, 0)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for rej, exc in pool.map(_run_block, blocks):
            for test in TEST_IDS:
                rejections[test] += rej[test]
                excluded[test] += exc[test]
    return ScenarioResult(s, rejections, excluded)


def parse_scenarios(path) -> list[Scenario]:
    """Expand a key-value grid file into scenarios.

    Recognized keys: `sizes` (comma list of n1/n2 pairs), `times`,
    `censoring`, `shr` or `beta` (comma lists), and scalars `p`,
    `alpha`, `reps`, `seed`.  Lists cross-multiply in the order
    shr, sizes, times, censoring.  Lines starting with # are comments.
    """
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        text = fh.read()
    try:
        parser.read_string("[grid]\n" + text, source=str(path))
    except configparser.Error as exc:
        raise CifPointError(f"{path}: cannot parse scenario file: {exc}") from None
    raw = dict(parser["grid"])

    known = {"sizes", "times", "censoring", "shr", "beta", "p", "alpha", "reps", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise CifPointError(f"{path}: unknown keys {sorted(unknown)}")
    if "sizes" not in raw or "times" not in raw:
        raise CifPointError(f"{path}: keys 'sizes' and 'times' are required")
    if "shr" in raw and "beta" in raw:
        raise CifPointError(f"{path}: give either 'shr' or 'beta', not both")

    def floats(key, default):
        if key not in raw:
            return default
        return [float(tok) for tok in raw[key].split(",") if tok.strip()]

    sizes = []
    for tok in raw["sizes"].split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split("/")
        if len(parts) != 2:
            raise CifPointError(f"{path}: bad size pair {tok!r}, expected n1/n2")
        sizes.append((int(parts[0]), int(parts[1])))
    times = floats("times", None)
    censoring = floats("censoring", [0.0])
    if "shr" in raw:
        betas = [math.log(v) for v in floats("shr", None)]
    else:
        betas = floats("beta", [0.0])
    p = float(raw.get("p", 0.66))
    alpha = float(raw.get("alpha", 0.05))
    reps = int(raw.get("reps", 10000))
    seed = int(raw.get("seed", 20180612))

    try:
        return [
            Scenario(n1=n1, n2=n2, beta=beta, censor_fraction=cen, t_fixed=t,
                     p=p, alpha=alpha, reps=reps, master_seed=seed)
            for beta in betas
            for (n1, n2) in sizes
            for t in times
            for cen in censoring
        ]
    except ValueError as exc:
        raise CifPointError(f"{path}: {exc}") from None


_CSV_COLUMNS = (
    "n1", "n2", "shr", "time", "censoring", "p", "alpha", "reps", "seed",
    "test", "rejections", "valid", "rate", "excluded",
)


def write_results_csv(results, path) -> None:
    """One row per scenario and test, in battery order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for res in results:
            s = res.scenario
            for test in TEST_IDS:
                writer.writerow([
                    s.n1, s.n2, repr(s.shr), repr(s.t_fixed), repr(s.censor_fraction),
                    repr(s.p), repr(s.alpha), s.reps, s.master_seed,
                    test, res.rejections[test], res.valid(test),
                    repr(res.rate(test)), res.excluded[test],
                ])


def read_results_csv(path) -> list[ScenarioResult]:
    """Rebuild scenario results written by `write_results_csv`."""
    grouped: dict[tuple, dict] = {}
    order: list[tuple] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise CifPointError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            try:
                scenario = Scenario(
                    n1=int(row["n1"]), n2=int(row["n2"]),
                    beta=math.log(float(row["shr"])),
                    censor_fraction=float(row["censoring"]),
                    t_fixed=float(row["time"]), p=float(row["p"]),
                    alpha=float(row["alpha"]), reps=int(row["reps"]),
                    master_seed=int(row["seed"]),
                )
                test = row["test"]
                if test not in TEST_IDS:
                    raise CifPointError(f"{path}: unknown test id {row['test']!r}")
                counts = (int(row["rejections"]), int(row["excluded"]))
            except (ValueError, KeyError) as exc:
                raise CifPointError(f"{path}: bad row {row!r}: {exc}") from None
            key = scenario
            if key not in grouped:
                grouped[key] = {"rej": {}, "exc": {}}
                order.append(key)
            grouped[key]["rej"][test] = counts[0]
            grouped[key]["exc"][test] = counts[1]
    results = []
    for key in order:
        gathered = grouped[key]
        absent = [t for t in TEST_IDS if t not in gathered["rej"]]
        if absent:
            raise CifPointError(f"{path}: scenario {key} lacks tests {absent}")
        results.append(ScenarioResult(key, gathered["rej"], gathered["exc"]))
    return results


def results_to_json(results) -> str:
    """Full-precision JSON rendering of scenario results."""
    payload = []
    for res in results:
        s = res.scenario
        payload.append({
            "scenario": {
                "n1": s.n1, "n2": s.n2, "shr": s.shr, "beta": s.beta,
                "time": s.t_fixed, "censoring": s.censor_fraction,
                "p": s.p, "alpha": s.alpha, "reps": s.reps, "seed": s.master_seed,
            },
            "tests": {
                test: {
                    "rejections": res.rejections[test],
                    "valid": res.valid(test),
                    "rate": res.rate(test),
                    "excluded": res.excluded[test],
                }
                for test in TEST_IDS
            },
        })
    return json.dumps(payload, indent=2)

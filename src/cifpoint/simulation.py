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
fixed time and records rejections at level alpha.  The battery lives in
`fixed_time`, whose `run_battery` is also what `cifpoint test` runs on
observed data; this module only draws the data and counts.

Replications use independent counter-based streams keyed by the master
seed and the replication index, so results are reproducible bit for
bit regardless of execution order or parallelism.  A block draws them
from one Philox generator, re-keyed before each replication to the
fresh state of its key.

The battery runs on a block of replications at once: each group's
times and statuses are (R, n_g) arrays, one replication per row, and
`fixed_time._battery_rows` gives every (test, row) statistic and one
(test, check, row) mask every check, from which `_run_block` counts
rejections and exclusion reasons without a loop over tests or rows.
A block holds at most _BLOCK_CELLS subjects in all, R (n1 + n2) <=
2**18, which bounds its arrays to a few megabytes whatever the
scenario; the replication range is cut into such blocks and the counts
summed.  Every number of a row equals that of the public test on the
row's data set bit for bit, whatever the block's size, so the counts
do not depend on where the range is cut.  A test's exclusion is its
row's first failing check.  A valid row is rejected when its statistic
reaches `_chi2_critical(alpha)`, the smallest double whose p-value is
below alpha, which is the p-value's own decision.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .errors import CifPointError, UnreachableTarget
from .estimation import _finite_horizon

# TEST_METHODS and run_battery are not used here; they stay importable
# from this module for code that looks them up in it
from .fixed_time import (  # noqa: F401
    _EXCLUDING,
    TEST_IDS,
    TEST_METHODS,
    _battery_rows,
    chi2_pvalue,
    run_battery,
)

__all__ = [
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


@dataclass(frozen=True, slots=True)
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
        for name in ("n1", "n2", "reps", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        _finite_horizon(self.t_fixed)
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
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
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed!r}")

    @property
    def shr(self) -> float:
        return math.exp(self.beta)


@dataclass(frozen=True, slots=True, init=False)
class ScenarioResult:
    """Empirical rejection proportions of the twelve tests.

    `rejections` and `excluded` map each test to its count.  `reasons`
    splits a test's exclusions by the error type that excluded them
    (test -> {type name: count}, nonzero counts only, tests without
    exclusions left out); a result read back from a CSV file has none,
    and it takes no part in equality.  The counts are held as tuples in
    TEST_IDS order, so that a grid of many results stays small.
    """

    scenario: Scenario
    _counts: tuple[int, ...]
    _reasons: tuple[int, ...] = field(compare=False)

    def __init__(self, scenario: Scenario, rejections: dict[str, int],
                 excluded: dict[str, int], reasons=None):
        reasons = reasons or {}
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "_counts", (*(rejections[test] for test in TEST_IDS),
                                             *(excluded[test] for test in TEST_IDS)))
        object.__setattr__(self, "_reasons", tuple(
            reasons.get(test, {}).get(error.__name__, 0)
            for test in TEST_IDS for error in _EXCLUDING) if any(reasons.values()) else ())

    @property
    def rejections(self) -> dict[str, int]:
        return dict(zip(TEST_IDS, self._counts))

    @property
    def excluded(self) -> dict[str, int]:
        return dict(zip(TEST_IDS, self._counts[len(TEST_IDS):]))

    @property
    def reasons(self) -> dict[str, dict[str, int]]:
        width = len(_EXCLUDING)
        found = {}
        for i, test in enumerate(TEST_IDS):
            counts = self._reasons[i * width:(i + 1) * width]
            by_type = {error.__name__: n for error, n in zip(_EXCLUDING, counts) if n}
            if by_type:
                found[test] = by_type
        return found

    def valid(self, test: str) -> int:
        return self.scenario.reps - self._counts[len(TEST_IDS) + TEST_IDS.index(test)]

    def rate(self, test: str) -> float:
        n = self.valid(test)
        return self._counts[TEST_IDS.index(test)] / n if n else float("nan")

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


def _draw(u: np.ndarray, beta: float, z: int, p: float, censor_bound: float):
    """(observed time, status) of subjects from their (..., 3) uniforms."""
    eta = math.exp(beta * z)
    is_cause1 = u[..., 0] < 1.0 - (1.0 - p) ** eta
    t = _invert_times(u[..., 1], eta)
    status = np.where(is_cause1, 1, 2)
    if math.isinf(censor_bound):
        return t, status
    c = np.maximum(censor_bound * u[..., 2], 1e-12)
    observed = np.minimum(t, c)
    return observed, np.where(t <= c, status, 0)


def sample_group(n: int, beta: float, z: int, p: float, rng: np.random.Generator,
                 censor_bound: float = math.inf):
    """Draw one group: (observed time, status) with status 0 censored.

    Three uniforms are consumed per subject in a fixed order (cause,
    time, censoring) so that scenarios differing only in the censoring
    target share failure times under a common seed.
    """
    return _draw(rng.random((n, 3)), beta, z, p, censor_bound)


def _sample_block(s: Scenario, first: int, stop: int, bounds):
    """Replications `first` to `stop` as the battery's two groups of
    (R, n_g) rows.  Each replication's stream, `Philox` keyed by
    (master seed, replication), gives both groups' uniforms in one draw,
    the same doubles as one `sample_group` call per group."""
    u = np.empty((stop - first, s.n1 + s.n2, 3))
    # one generator, re-keyed per replication: the fresh state (counter
    # 0, empty buffer) with the key's second word set to the replication
    bits = np.random.Philox(key=np.array([s.master_seed, first], dtype=np.uint64))
    stream = np.random.Generator(bits)
    state = bits.state
    for row, rep in enumerate(range(first, stop)):
        state["state"]["key"][1] = rep
        bits.state = state
        stream.random(out=u[row])
    return [("1", *_draw(u[:, :s.n1], s.beta, 0, s.p, bounds[0])),
            ("2", *_draw(u[:, s.n1:], s.beta, 1, s.p, bounds[1]))]


def _expected_censored(bound: float, beta: float, w2: float) -> float:
    """P(C < T) for C uniform on (0, bound): the mean over (0, bound) of
    the mixture survival, whose components e^{-t eta} integrate to
    (1 - e^{-bound eta}) / eta."""
    def integral(z):
        eta = math.exp(beta * z)
        return -math.expm1(-bound * eta) / eta

    return ((1.0 - w2) * integral(0) + w2 * integral(1)) / bound


# how close to its target the calibrated censored fraction must come
_CALIBRATION_TOL = 1e-4


def calibrate_censoring(beta: float, p: float, weights: tuple[float, float],
                        target: float) -> float:
    """Uniform(0, b) bound giving an expected censored fraction `target`.

    `weights` are the relative sizes of the z=0 and z=1 groups, finite
    and >= 0 with a positive sum, else a ValueError; the
    censored fraction P(C < T) is computed against the corresponding
    mixture of failure-time laws (which do not depend on `p`) and is
    decreasing in b, so bisection applies.  `target` 0 returns infinity
    (no censoring).
    """
    if not (0.0 <= target < 1.0):
        raise ValueError(f"target must be in [0, 1), got {target!r}")
    if not (all(math.isfinite(w) and w >= 0.0 for w in weights) and sum(weights) > 0.0):
        raise ValueError(f"weights must be finite and >= 0 with a positive sum, got {weights!r}")
    if target == 0.0:
        return math.inf
    w2 = weights[1] / (weights[0] + weights[1])

    lo, hi = 0.0, 1.0
    for _ in range(80):
        if _expected_censored(hi, beta, w2) < target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise UnreachableTarget(
            f"censored fraction {target!r} not reachable",
            supremum=_expected_censored(hi, beta, w2),
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        frac = _expected_censored(mid, beta, w2)
        if abs(frac - target) <= _CALIBRATION_TOL:
            return mid
        if frac > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@cache
def _chi2_critical(alpha: float) -> float:
    """The smallest double x* with `chi2_pvalue(x*, 1) < alpha`, so that
    a statistic x >= 0 is rejected at level alpha exactly when x >= x*.

    Found by bisection over the doubles of [0, inf], whose bit patterns
    read as integers are in the same order as their values; the p-value
    is 1 at 0 and 0 at inf, so this holds for 0 < alpha <= 1."""
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if chi2_pvalue(float(np.int64(mid).view(np.float64)), 1) < alpha:
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


# replications per engine call: R rows of n1 + n2 subjects keep R (n1 + n2)
# at or below this many cells, which bounds the block's arrays
_BLOCK_CELLS = 2**18


def _run_block(args) -> tuple[dict, dict]:
    """Rejection counts and exclusion counts by error type of
    replications `start` to `stop`, computed a block of rows at a time:
    each block's tests are counted at once from their stacked arrays."""
    s, start, stop, bounds = args
    critical = _chi2_critical(s.alpha)
    rejections = np.zeros(len(TEST_IDS), dtype=int)
    reasons = {test: dict.fromkeys(_EXCLUDING, 0) for test in TEST_IDS}
    step = max(1, _BLOCK_CELLS // (s.n1 + s.n2))
    for first in range(start, stop, step):
        battery = _battery_rows(_sample_block(s, first, min(first + step, stop), bounds),
                                1, s.t_fixed)
        # each (test, row)'s first failing check, or one past the last
        tests, checks, _ = battery.fails.shape
        excluded = battery.fails.any(axis=1)
        failure = np.where(excluded, battery.fails.argmax(axis=1), checks)
        hits = np.bincount((failure + np.arange(tests)[:, None] * (checks + 1)).ravel(),
                           minlength=tests * (checks + 1)).reshape(tests, checks + 1)
        for j, c in zip(*np.nonzero(hits[:, :-1])):
            error = battery.errors[j][c]
            if error not in _EXCLUDING:
                raise error(battery.message(j, c, int(np.argmax(failure[j] == c))))
            reasons[TEST_IDS[j]][error] += int(hits[j, c])
        statistic = battery.statistic[~excluded]
        outside = ~(statistic >= 0.0)
        if outside.any():
            # the ValueError chi2_pvalue raises for its first such value
            chi2_pvalue(float(statistic[np.argmax(outside)]), 1)
        rejections += np.count_nonzero((battery.statistic >= critical) & ~excluded, axis=1)
    return dict(zip(TEST_IDS, rejections.tolist())), reasons


def run_scenario(s: Scenario, workers: int = 1,
                 per_group_censoring: bool = False) -> ScenarioResult:
    """Replicate a scenario and aggregate rejection counts.

    `per_group_censoring` calibrates a separate uniform bound against
    each group's own failure-time law instead of the pooled mixture.
    Each replication's outcomes are those of its own public calls bit
    for bit, whatever block it runs in, and aggregation is pure
    counting, so any partition of the replication range across blocks
    and workers yields the same result; `workers` is capped at the
    number of CPUs, since the pool starts all its processes at once.
    """
    if per_group_censoring:
        bounds = (
            calibrate_censoring(s.beta, s.p, (1.0, 0.0), s.censor_fraction),
            calibrate_censoring(s.beta, s.p, (0.0, 1.0), s.censor_fraction),
        )
    else:
        shared = calibrate_censoring(s.beta, s.p, (s.n1, s.n2), s.censor_fraction)
        bounds = (shared, shared)

    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or s.reps < 2 * workers:
        parts = [_run_block((s, 0, s.reps, bounds))]
    else:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        edges = np.linspace(0, s.reps, workers + 1).astype(int)
        blocks = [(s, int(a), int(b), bounds) for a, b in zip(edges[:-1], edges[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, blocks))
    rejections = {test: sum(rej[test] for rej, _ in parts) for test in TEST_IDS}
    reasons = {test: {error.__name__: count for error in _EXCLUDING
                      if (count := sum(part[test][error] for _, part in parts))}
               for test in TEST_IDS}
    excluded = {test: sum(counts.values()) for test, counts in reasons.items()}
    return ScenarioResult(s, rejections, excluded, reasons)


def parse_scenarios(path) -> list[Scenario]:
    """Expand a key-value grid file into scenarios.

    Recognized keys: `sizes` (comma list of n1/n2 pairs), `times`,
    `censoring`, `shr` or `beta` (comma lists), and scalars `p`,
    `alpha`, `reps`, `seed`.  Lists cross-multiply in the order
    shr, sizes, times, censoring.  Lines starting with # are comments.
    """
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, encoding="utf-8-sig") as fh:
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

    def number(key, tok, kind=float):
        try:
            return kind(tok.strip())
        except ValueError:
            raise CifPointError(f"{path}: key {key!r}: bad value {tok.strip()!r}") from None

    def listed(key):
        tokens = [tok.strip() for tok in raw[key].split(",") if tok.strip()]
        if not tokens:
            raise CifPointError(f"{path}: key {key!r}: no values")
        return tokens

    def values(key, default, kind=float):
        if key not in raw:
            return default
        return [number(key, tok, kind) for tok in listed(key)]

    sizes = []
    for tok in listed("sizes"):
        parts = tok.split("/")
        if len(parts) != 2:
            raise CifPointError(f"{path}: bad size pair {tok!r}, expected n1/n2")
        sizes.append({"n1": number("sizes", parts[0], int), "n2": number("sizes", parts[1], int)})
    beta_key = "shr" if "shr" in raw else "beta"
    betas = values("beta", [0.0])
    if beta_key == "shr":
        betas = []
        for shr in values("shr", None):
            if not shr > 0.0:
                raise CifPointError(f"{path}: key 'shr': must be positive, got {shr!r}")
            betas.append(math.log(shr))
    choices = {
        beta_key: [{"beta": beta} for beta in betas],
        "sizes": sizes,
        "times": [{"t_fixed": t} for t in values("times", None)],
        "censoring": [{"censor_fraction": c} for c in values("censoring", [0.0])],
    }
    scalars = {}
    for key, name, kind in (("p", "p", float), ("alpha", "alpha", float),
                            ("reps", "reps", int), ("seed", "master_seed", int)):
        if key in raw:
            choices[key] = [{name: number(key, raw[key], kind)}]
            scalars.update(choices[key][0])

    # each value checked on its own, so that an error names its key; a
    # repeated value would run the same scenario twice
    base = Scenario(n1=2, n2=2, beta=0.0, censor_fraction=0.0, t_fixed=1.0)
    for key, options in choices.items():
        for i, fields in enumerate(options):
            try:
                replace(base, **fields)
            except ValueError as exc:
                raise CifPointError(f"{path}: key {key!r}: {exc}") from None
            if fields in options[:i]:
                raise CifPointError(f"{path}: key {key!r}: repeated value {listed(key)[i]!r}")
    return [
        Scenario(**size, **beta, **t, **cen, **scalars)
        for beta in choices[beta_key]
        for size in choices["sizes"]
        for t in choices["times"]
        for cen in choices["censoring"]
    ]


_CSV_COLUMNS = (
    "n1", "n2", "shr", "time", "censoring", "p", "alpha", "reps", "seed",
    "test", "rejections", "valid", "rate", "excluded",
    # beta itself, since log(shr) may miss it by an ulp; files written
    # before it was added give beta as log(shr)
    "beta",
)


def write_results_csv(results, path) -> None:
    """One row per scenario and test, in battery order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for res in results:
            s = res.scenario
            rejections, excluded = res.rejections, res.excluded
            for test in TEST_IDS:
                writer.writerow([
                    s.n1, s.n2, repr(s.shr), repr(s.t_fixed), repr(s.censor_fraction),
                    repr(s.p), repr(s.alpha), s.reps, s.master_seed,
                    test, rejections[test], res.valid(test),
                    repr(res.rate(test)), excluded[test], repr(s.beta),
                ])


def read_results_csv(path) -> list[ScenarioResult]:
    """Rebuild scenario results written by `write_results_csv`."""
    grouped: dict[Scenario, tuple[dict, dict]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_COLUMNS) - {"beta"} - set(reader.fieldnames or ())
        if missing:
            raise CifPointError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            try:
                scenario = Scenario(
                    n1=int(row["n1"]), n2=int(row["n2"]),
                    beta=float(row["beta"]) if "beta" in row else math.log(float(row["shr"])),
                    censor_fraction=float(row["censoring"]),
                    t_fixed=float(row["time"]), p=float(row["p"]),
                    alpha=float(row["alpha"]), reps=int(row["reps"]),
                    master_seed=int(row["seed"]),
                )
                test = row["test"]
                if test not in TEST_IDS:
                    raise CifPointError(f"{path}: unknown test id {row['test']!r}")
                counts = (int(row["rejections"]), int(row["excluded"]))
            except (ValueError, TypeError, KeyError) as exc:
                # TypeError: a short row's missing fields read as None
                raise CifPointError(f"{path}: bad row {row!r}: {exc}") from None
            if min(counts) < 0 or sum(counts) > scenario.reps:
                raise CifPointError(
                    f"{path}: scenario {scenario} test {test!r}: {counts[0]} rejections and "
                    f"{counts[1]} exclusions do not fit {scenario.reps} replications")
            rejections, excluded = grouped.setdefault(scenario, ({}, {}))
            if test in rejections:
                raise CifPointError(f"{path}: scenario {scenario} repeats test {test!r}")
            rejections[test], excluded[test] = counts
    if not grouped:
        raise CifPointError(f"{path}: no results")
    results = []
    for scenario, (rejections, excluded) in grouped.items():
        absent = [t for t in TEST_IDS if t not in rejections]
        if absent:
            raise CifPointError(f"{path}: scenario {scenario} lacks tests {absent}")
        results.append(ScenarioResult(scenario, rejections, excluded))
    return results


def results_to_json(results) -> str:
    """Full-precision JSON rendering of scenario results, each test's
    exclusions split by reason where the result carries them."""
    payload = []
    for res in results:
        s = res.scenario
        rejections, excluded, reasons = res.rejections, res.excluded, res.reasons
        payload.append({
            "scenario": {
                "n1": s.n1, "n2": s.n2, "shr": s.shr, "beta": s.beta,
                "time": s.t_fixed, "censoring": s.censor_fraction,
                "p": s.p, "alpha": s.alpha, "reps": s.reps, "seed": s.master_seed,
            },
            "tests": {
                test: {
                    "rejections": rejections[test],
                    "valid": res.valid(test),
                    "rate": res.rate(test),
                    "excluded": excluded[test],
                    "reasons": reasons.get(test, {}),
                }
                for test in TEST_IDS
            },
        })
    return json.dumps(payload, indent=2)

"""Output checks, run outside the timed sections.

Every check returns a list of problems (empty when the output is
right), so that a failure is counted against the operation that
produced it instead of stopping the run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance against the stored reference statistics.  Wide
# enough for a rewrite that only reorders floating-point work (the
# closed-form saturated GEE agrees with Newton to ~4e-10 relative),
# narrow enough to catch any change of method.
REFERENCE_RTOL = 1e-7
# Agreement of the CLI's Aalen-Johansen estimates with the loop oracle.
ORACLE_RTOL = 1e-12

TRANSFORM_TESTS = tuple(
    (f"{variance}_{name}", name, variance)
    for variance in ("gaynor", "aalen")
    for name in ("linear", "log", "llog", "arcs", "logit")
)
PSEUDO_TESTS = (("pseudo_llog", "pseudo-llog"), ("pseudo_logit", "pseudo-logit"))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def loop_cif(times, statuses, cause: int, horizons) -> list[float]:
    """Aalen-Johansen incidence of `cause` at each horizon, by a plain
    loop over the sorted subjects: at each distinct time with failures,
    add S(t-) * d_k / a and then multiply S by (a - d) / a."""
    pairs = sorted(zip((float(t) for t in times), (int(s) for s in statuses)))
    n = len(pairs)
    steps = []
    surv, cif, i = 1.0, 0.0, 0
    while i < n:
        t = pairs[i][0]
        at_risk = n - i
        failures = cause_failures = 0
        while i < n and pairs[i][0] == t:
            failures += pairs[i][1] > 0
            cause_failures += pairs[i][1] == cause
            i += 1
        if failures:
            cif += surv * cause_failures / at_risk
            surv *= (at_risk - failures) / at_risk
            steps.append((t, cif))
    out = []
    for h in horizons:
        value = 0.0
        for t, c in steps:
            if t > h:
                break
            value = c
        out.append(value)
    return out


def _close(a, b, rtol, atol=1e-15) -> bool:
    return a is not None and b is not None and abs(a - b) <= atol + rtol * abs(b)


def count_problems(label: str, reps: int, rejections: dict, excluded: dict) -> list[str]:
    """Structural checks on one scenario's counts."""
    from cifpoint import TEST_IDS

    problems = []
    if set(rejections) != set(TEST_IDS) or set(excluded) != set(TEST_IDS):
        return [f"{label}: result does not carry the twelve tests"]
    for test in TEST_IDS:
        r, e = rejections[test], excluded[test]
        if not (0 <= r and 0 <= e and r + e <= reps):
            problems.append(f"{label} {test}: {r} rejections + {e} excluded of {reps} reps")
    return problems


def replay_counts(s, label: str) -> tuple[dict, dict, list[str]]:
    """Re-run a scenario's replications through the public API.

    Uses the same per-replication Philox streams and censoring bound as
    `run_scenario`, then the event tables, the ten transform tests and
    the two pseudo-value tests; an excluded test is one that raises a
    numerical exception the simulation also treats as exclusion.  Each
    transform test's group estimates must equal `loop_cif` on the
    replication's data, which holds at any seed without a reference.
    """
    import cifpoint as cp

    bound = cp.calibrate_censoring(s.beta, s.p, (s.n1, s.n2), s.censor_fraction)
    rejections = {test: 0 for test in cp.TEST_IDS}
    excluded = {test: 0 for test in cp.TEST_IDS}
    problems = []

    def record(test, outcome):
        if outcome is None:
            excluded[test] += 1
        elif outcome:
            rejections[test] += 1

    for rep in range(s.reps):
        rng = np.random.Generator(np.random.Philox(key=[s.master_seed, rep]))
        t1, s1 = cp.sample_group(s.n1, s.beta, 0, s.p, rng, bound)
        t2, s2 = cp.sample_group(s.n2, s.beta, 1, s.p, rng, bound)
        table1 = cp.event_table_from_arrays(t1, s1, group="1", causes=(1, 2))
        table2 = cp.event_table_from_arrays(t2, s2, group="2", causes=(1, 2))
        oracle = {"1": loop_cif(t1, s1, 1, [s.t_fixed])[0],
                  "2": loop_cif(t2, s2, 1, [s.t_fixed])[0]}
        for test, name, variance in TRANSFORM_TESTS:
            try:
                res = cp.two_sample_test(table1, table2, 1, s.t_fixed,
                                         cp.TransformKind(name), cp.VarianceKind(variance))
                record(test, res.p_value < s.alpha)
            except (cp.NotEstimable, cp.ZeroVariance, cp.DegenerateRiskSet):
                record(test, None)
                continue
            for g in res.groups:
                if not _close(g.estimate, oracle[g.group], ORACLE_RTOL):
                    problems.append(f"{label} rep {rep} {test} group {g.group}: estimate "
                                    f"{g.estimate!r} vs loop oracle {oracle[g.group]!r}")
        data = cp.Dataset(tuple(
            cp.SubjectRecord(float(t), int(st), g)
            for times, statuses, g in ((t1, s1, "1"), (t2, s2, "2"))
            for t, st in zip(times, statuses)
        ))
        for test, link in (("pseudo_llog", cp.LinkKind.CLOGLOG),
                           ("pseudo_logit", cp.LinkKind.LOGIT)):
            try:
                res = cp.pseudo_test(data, 1, s.t_fixed, link)
                record(test, res.p_value < s.alpha)
            except (cp.SeparationDetected, cp.NonConvergence, cp.ZeroVariance):
                record(test, None)
    return rejections, excluded, problems


def replay_problems(label: str, s, rejections: dict, excluded: dict) -> list[str]:
    want_rej, want_exc, problems = replay_counts(s, label)
    for test in want_rej:
        got = (rejections.get(test), excluded.get(test))
        want = (want_rej[test], want_exc[test])
        if got != want:
            problems.append(f"{label} {test}: run_scenario gave (rejections, excluded) "
                            f"{got}, public-API replay gave {want}")
    return problems


def reference_count_problems(label: str, cell: dict, rejections: dict,
                             excluded: dict) -> list[str]:
    if cell["rejections"] == rejections and cell["excluded"] == excluded:
        return []
    return [f"{label}: counts differ from the stored reference "
            f"(rejections {rejections} vs {cell['rejections']}, "
            f"excluded {excluded} vs {cell['excluded']})"]


def estimate_problems(payload: dict, oracle: dict, horizons) -> list[str]:
    """`oracle` maps group label to loop-AJ estimates at `horizons`."""
    problems = []
    groups = {g["group"]: g for g in payload.get("groups", [])}
    if sorted(groups) != sorted(oracle):
        return [f"estimate: groups {sorted(groups)}, expected {sorted(oracle)}"]
    for label, want in oracle.items():
        rows = groups[label]["estimates"]
        if [r["time"] for r in rows] != [float(h) for h in horizons]:
            problems.append(f"estimate group {label}: times {[r['time'] for r in rows]}")
            continue
        for row, expected in zip(rows, want):
            if not _close(row["estimate"], expected, ORACLE_RTOL):
                problems.append(f"estimate group {label} t={row['time']}: "
                                f"{row['estimate']!r} vs loop oracle {expected!r}")
            if not (row["variance"] >= 0.0 and math.isfinite(row["variance"])):
                problems.append(f"estimate group {label} t={row['time']}: "
                                f"variance {row['variance']!r}")
    return problems


def test_all_problems(payload: dict, oracle_at_t: dict) -> list[str]:
    """All twelve results present, no failures, transform-test group
    estimates equal to the loop oracle at the tested time."""
    problems = []
    if payload.get("failures"):
        problems.append(f"test: {len(payload['failures'])} tests failed")
    seen = {(r["method"], r["variance"]): r for r in payload.get("results", [])}
    expected = [(name, variance) for _, name, variance in TRANSFORM_TESTS]
    expected += [(method, None) for _, method in PSEUDO_TESTS]
    missing = [key for key in expected if key not in seen]
    if missing or len(seen) != 12:
        problems.append(f"test: missing results {missing}, got {len(seen)} of 12")
    for name, variance in expected[:10]:
        res = seen.get((name, variance))
        if res is None:
            continue
        for g in res["groups"]:
            want = oracle_at_t.get(g["group"])
            if not _close(g["estimate"], want, ORACLE_RTOL):
                problems.append(f"test {name}/{variance} group {g['group']}: estimate "
                                f"{g['estimate']!r} vs loop oracle {want!r}")
        if not (res["statistic"] >= 0.0 and 0.0 <= res["p_value"] <= 1.0):
            problems.append(f"test {name}/{variance}: statistic {res['statistic']!r} "
                            f"p {res['p_value']!r}")
    return problems


def _flatten(value, prefix=""):
    """Numbers of a JSON payload keyed by their path."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _flatten(sub, f"{prefix}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield prefix, float(value)
    else:
        yield prefix, value


def reference_payload_problems(label: str, payload: dict, reference: dict) -> list[str]:
    """Every number of `reference` matches `payload` within
    REFERENCE_RTOL; every other value matches exactly."""
    got = dict(_flatten(payload))
    problems = []
    for path, want in _flatten(reference):
        have = got.get(path, "<absent>")
        if isinstance(want, float) and isinstance(have, float):
            ok = _close(have, want, REFERENCE_RTOL, atol=1e-300)
        else:
            ok = have == want
        if not ok:
            problems.append(f"{label} {path}: {have!r} vs reference {want!r}")
    return problems

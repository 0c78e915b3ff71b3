"""
Comparing incidence between groups at a fixed time
==================================================

Two-sample chi-squared tests of the cumulative incidence at one
pre-chosen time point, across the five variance-stabilizing
transforms and both variance estimators, plus the K-group version of
every test, the pseudo-value tests included.
"""

import numpy as np

from cifpoint import (
    Dataset,
    LinkKind,
    TransformKind,
    VarianceKind,
    build_event_table,
    k_sample_test,
    pseudo_test,
    two_sample_test,
)


def draw_group(rng, n, rate, label):
    """One group's (times, statuses, labels) columns."""
    failure = rng.exponential(1.0 / rate, size=n)
    cause = np.where(rng.random(n) < 0.6, 1, 2)
    censor = rng.uniform(0.0, 3.0, size=n)
    observed = np.minimum(failure, censor)
    status = np.where(failure <= censor, cause, 0)
    return observed, status, [label] * n


def dataset(*groups):
    """The groups' subjects as one dataset, in group order."""
    times, statuses, labels = zip(*groups)
    return Dataset.from_columns(np.concatenate(times), np.concatenate(statuses),
                                sum(labels, []))


# group "treated" fails slower than "control", so its incidence at
# t=0.8 should be lower
rng = np.random.default_rng(42)
groups = [draw_group(rng, 150, 0.7, "treated"), draw_group(rng, 150, 1.3, "control")]
data = dataset(*groups)
tables = [build_event_table(data, g) for g in data.groups]

print("two-sample tests at t=0.8, cause 1")
print("transform  variance  statistic  p-value")
for kind in TransformKind:
    for variance in VarianceKind:
        res = two_sample_test(tables[0], tables[1], 1, 0.8, kind, variance)
        print(f"{kind.value:9s}  {variance.value:7s}  {res.statistic:9.4f}  {res.p_value:.5f}")

# the transforms agree on the direction (the effect is the transformed
# difference) but differ slightly in small-sample behavior
res = two_sample_test(tables[0], tables[1], 1, 0.8)
g1, g2 = res.groups
print(f"\nestimates at 0.8: {g1.group}={g1.estimate:.4f}, {g2.group}={g2.estimate:.4f}")

# with K groups the quadratic form generalizes every comparison; its
# degrees of freedom are K - 1.  The pseudo-value tests are the Wald
# test of a GEE with K - 1 group indicators, the same quadratic form of
# the groups' mean pseudo-values on the link's scale
data3 = dataset(*groups, draw_group(rng, 100, 1.0, "historical"))
tables3 = [build_event_table(data3, g) for g in data3.groups]
res3 = k_sample_test(tables3, 1, 0.8, TransformKind.LOGLOG)
print(f"\n3-group llog test: X2={res3.statistic:.4f}, df={res3.df}, p={res3.p_value:.5f}")
for link in LinkKind:
    res3 = pseudo_test(data3, 1, 0.8, link)
    print(f"3-group {res3.method} test: X2={res3.statistic:.4f}, df={res3.df}, "
          f"p={res3.p_value:.5f}")

"""
Estimating cumulative incidence curves
======================================

Build a small competing-risks dataset, estimate the cause-specific
cumulative incidence functions alongside all-cause survival, and read
off pointwise confidence intervals.
"""

import numpy as np

from cifpoint import (
    Dataset,
    TransformKind,
    build_event_table,
    cif_estimate,
    km_survival,
    pointwise_ci,
)

# simulate 120 subjects: exponential failure times, two causes, and
# uniform censoring
rng = np.random.default_rng(7)
n = 120
failure = rng.exponential(1.0, size=n)
cause = rng.integers(1, 3, size=n)
censor = rng.uniform(0.0, 2.5, size=n)
observed = np.minimum(failure, censor)
status = np.where(failure <= censor, cause, 0)

data = Dataset.from_columns(observed, status, ["cohort"] * n)
table = build_event_table(data, "cohort")

# the Aalen-Johansen estimate accumulates S(t-) * d_k/n over the event
# times; evaluate both causes on a common grid
curve1 = cif_estimate(table, 1)
curve2 = cif_estimate(table, 2)
survival = km_survival(table)

grid = [0.25, 0.5, 1.0, 1.5, 2.0]
print("time   cause1  cause2  KM surv  sum check")
for t in grid:
    i1, i2, s = curve1.at(t), curve2.at(t), survival.at(t)
    # the two incidences and survival partition probability one
    print(f"{t:4.2f}   {i1:.4f}  {i2:.4f}  {s:.4f}   {i1 + i2 + s:.4f}")

# pointwise confidence intervals: the log(-log) transform keeps the
# bounds inside (0, 1) without clipping
print("\n95% CI for cause 1 on the log(-log) scale")
for t in grid:
    low, high = pointwise_ci(table, 1, t, TransformKind.LOGLOG)
    print(f"t={t:4.2f}: {curve1.at(t):.4f} in [{low:.4f}, {high:.4f}]")

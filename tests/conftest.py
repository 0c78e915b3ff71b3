"""Shared fixtures for the cifpoint test suite.

Two tiny hand-worked datasets anchor most unit tests:

* fixture A: times 1..5 with statuses (1, 0, 1, 2, 0).  Knots at
  (1, 3, 4) with at-risk (5, 3, 2); KM survival (4/5, 8/15, 4/15);
  cause-1 CIF 0.2 at t=1 and 7/15 from t=3 on; Gaynor variance at
  t=3 is 208/3375 and the Aalen form gives 4/45.
* fixture B: times (1, 2, 3, 4, 6) with statuses (2, 1, 0, 1, 0).
  Cause-1 CIF is 0.2 at t=3 with Gaynor variance 4/125 and Aalen
  variance 17/400.

All of these values were worked out by hand from the defining sums.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from cifpoint.data import Dataset, SubjectRecord, build_event_table


def make_dataset(times, statuses, groups=None):
    if groups is None:
        groups = ["g"] * len(times)
    records = tuple(
        SubjectRecord(time=float(t), status=int(s), group=str(g))
        for t, s, g in zip(times, statuses, groups)
    )
    return Dataset(records=records)


def group_columns(data, groups=None):
    """(label, times, statuses) of each of `groups` (default: all of
    them), the input `run_battery` takes."""
    columns = []
    for g in data.groups if groups is None else groups:
        member = data.codes == data.groups.index(g)
        columns.append((g, data.times[member], data.statuses[member]))
    return columns


# (time, status) rows of one group whose cause-1 incidence at t=5 is
# 0.9999999999999999, with a Gaynor variance of 1.4e-17
NEAR_ONE_ROWS = ("1.5,1", "1.75,1", "0.5,0", "1.75,1", "1.25,0",
                 "0.25,1", "2.5,1", "1.25,1", "2.25,1", "2.5,1")


FIXTURE_A = ([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 2, 0])
FIXTURE_B = ([1.0, 2.0, 3.0, 4.0, 6.0], [2, 1, 0, 1, 0])


@pytest.fixture
def dataset_a():
    return make_dataset(*FIXTURE_A)


@pytest.fixture
def table_a(dataset_a):
    return build_event_table(dataset_a, "g")


@pytest.fixture
def table_b():
    return build_event_table(make_dataset(*FIXTURE_B), "g")


@pytest.fixture
def two_group_dataset():
    """Fixture A as group 'x' plus fixture B as group 'y'."""
    times = FIXTURE_A[0] + FIXTURE_B[0]
    statuses = FIXTURE_A[1] + FIXTURE_B[1]
    groups = ["x"] * 5 + ["y"] * 5
    return make_dataset(times, statuses, groups)


@pytest.fixture
def gee_dataset():
    """Two groups of 10 with cause-1 shares 0.6 and 0.3 before t=1.

    No censoring and every failure happens before t=1, so the pseudo
    values at t=1 are the cause-1 indicators and the GEE fit has a
    closed form through the group means.
    """
    times, statuses, groups = [], [], []
    k = 0
    for group, n1 in (("a", 6), ("b", 3)):
        for i in range(10):
            k += 1
            times.append(0.01 * k)
            statuses.append(1 if i < n1 else 2)
            groups.append(group)
    return make_dataset(times, statuses, groups)


def random_dataset(rng, n, groups=("x", "y"), censor_scale=2.0):
    """Competing-risks draw with two causes and uniform censoring."""
    t = rng.exponential(1.0, size=n)
    cause = rng.integers(1, 3, size=n)
    c = rng.uniform(0.0, censor_scale, size=n)
    observed = np.minimum(t, c)
    status = np.where(t <= c, cause, 0)
    labels = [groups[i % len(groups)] for i in range(n)]
    return make_dataset(observed, status, labels)


def subject_columns(groups=("a", "b")):
    """Hypothesis strategy: lists (times, statuses, labels) of random
    subjects with every label of `groups` present.  Times lie on a grid
    of eighths, so ties are common and a rescaling by any factor keeps
    their order and ties; statuses are censored or one of three causes.
    """
    row = st.tuples(st.integers(1, 24).map(lambda k: k / 8.0), st.integers(0, 3),
                    st.sampled_from(groups))
    return (st.lists(row, min_size=len(groups), max_size=40)
            .filter(lambda rows: {r[2] for r in rows} == set(groups))
            .map(lambda rows: [list(col) for col in zip(*rows)]))


# horizons on a grid of sixteenths: on, between, before and past the knots
horizons = st.integers(1, 52).map(lambda m: m / 16.0)

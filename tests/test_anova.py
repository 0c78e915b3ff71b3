"""Tests of the linear-model summaries.

The coefficients of models 1-4 under both responses on a fixed grid of
seeded counts are pinned in data/anova_coefficients.json.  A change
that moves a coefficient rewrites the file with
`PYTHONPATH=src python tests/test_anova.py` and explains each move.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifpoint.anova import AnovaTable, _aliased_columns, anova_summarize, ols_no_intercept
from cifpoint.errors import CifPointError, RankDeficientDesign
from cifpoint.simulation import _TALLY_WIDTH, TEST_IDS, Scenario, ScenarioResult

COEFFICIENTS_FILE = pathlib.Path(__file__).parent / "data" / "anova_coefficients.json"


def tally(rejections, excluded):
    """The tally of these counts, exclusions of no recorded reason."""
    counts = np.zeros((len(TEST_IDS), _TALLY_WIDTH), dtype=np.int64)
    counts[:, 0] = [rejections[test] for test in TEST_IDS]
    counts[:, -1] = [excluded[test] for test in TEST_IDS]
    return counts


def fake_result(n1, n2, t, cen, rates, reps=1000, excluded=None):
    s = Scenario(n1=n1, n2=n2, beta=0.0, censor_fraction=cen, t_fixed=t,
                 reps=reps, master_seed=1)
    if not isinstance(rates, dict):
        rates = {test: rates for test in TEST_IDS}
    rejections = {test: int(round(rates[test] * reps)) for test in TEST_IDS}
    excluded = excluded or {test: 0 for test in TEST_IDS}
    return ScenarioResult(s, tally(rejections, excluded))


def additive_grid():
    """2 sizes x 2 times grid whose percent response is exactly additive."""
    base = {test: 0.05 + 0.001 * i for i, test in enumerate(TEST_IDS)}
    size_eff = {(50, 50): 0.0, (100, 100): 0.003}
    time_eff = {0.5: 0.0, 1.0: -0.002}
    results = []
    for (n1, n2), se in size_eff.items():
        for t, te in time_eff.items():
            rates = {test: base[test] + se + te for test in base}
            results.append(fake_result(n1, n2, t, 0.0, rates))
    return results


def seeded_grid():
    """2 size pairs x 3 times x 3 censoring levels with seeded counts
    that differ across tests and cells."""
    rng = np.random.default_rng(20181121)
    results = []
    for n1, n2 in ((25, 25), (50, 100)):
        for t in (0.1, 0.5, 1.5):
            for cen in (0.0, 0.25, 0.45):
                s = Scenario(n1=n1, n2=n2, beta=0.0, censor_fraction=cen, t_fixed=t,
                             reps=1000, master_seed=1)
                excluded = {test: int(rng.integers(0, 60)) for test in TEST_IDS}
                rejections = {test: int(rng.integers(0, 1000 - excluded[test]))
                              for test in TEST_IDS}
                results.append(ScenarioResult(s, tally(rejections, excluded)))
    return results


def coefficient_table(results):
    """Every coefficient of models 1-4 under both responses, with each
    estimate as float.hex so that a moved bit shows."""
    return {f"{response} {model}": [[c.factor, c.level, float.hex(c.estimate)]
                                    for c in anova_summarize(results, response, model).coefficients]
            for response in ("type1", "power") for model in (1, 2, 3, 4)}


class TestOls:
    def test_identity_design(self):
        y = np.array([1.0, -2.0, 3.5])
        coef = ols_no_intercept(np.eye(3), y)
        assert np.allclose(coef, y, rtol=0, atol=1e-12)

    def test_all_zero_response(self):
        # the orthogonality check used to compare a zero gap with a zero bound
        coef = ols_no_intercept(np.eye(2), np.zeros(2))
        assert coef.tolist() == [0.0, 0.0]

    def test_single_column_mean(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        coef = ols_no_intercept(np.ones((4, 1)), y)
        assert abs(coef[0] - 3.0) <= 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        design = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        coef = ols_no_intercept(design, y)
        expected = np.linalg.solve(design.T @ design, design.T @ y)
        assert np.allclose(coef, expected, rtol=0, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        design = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        coef = ols_no_intercept(design, y)
        gap = np.abs(design.T @ (y - design @ coef)).max()
        assert gap < 1e-8 * np.linalg.norm(y)

    def test_duplicate_column_flagged(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20, 1))
        design = np.hstack([a, a, rng.normal(size=(20, 1))])
        with pytest.raises(RankDeficientDesign) as err:
            ols_no_intercept(design, rng.normal(size=20))
        assert len(err.value.aliased) == 1

    def test_sum_column_flagged_in_column_order(self):
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 25))
        design = np.column_stack([a, b, a + b, c])
        assert np.linalg.matrix_rank(design) == 3
        with pytest.raises(RankDeficientDesign) as err:
            ols_no_intercept(design, rng.normal(size=25))
        assert err.value.aliased == [2]

    def test_zero_column_flagged(self):
        # the zero column must not join the basis, or the duplicate of
        # column 0 after it would go unseen
        rng = np.random.default_rng(6)
        design = rng.normal(size=(10, 4))
        design[:, 1] = 0.0
        design[:, 3] = design[:, 0]
        with pytest.raises(RankDeficientDesign) as err:
            ols_no_intercept(design, rng.normal(size=10))
        assert err.value.aliased == [1, 3]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_indicator_designs_against_matrix_rank(self, seed):
        # full dummy sets of two or three factors each sum to the ones
        # column, so the design loses rank; random 0/1 columns and a
        # repeated column join them in shuffled order
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(20, 60))
        blocks = [np.eye(int(k))[rng.integers(k, size=rows)]
                  for k in rng.integers(2, 5, size=int(rng.integers(2, 4)))]
        blocks.append(rng.random((rows, int(rng.integers(0, 4)))) < 0.5)
        design = np.hstack(blocks).astype(float)
        design = design[:, rng.permutation(design.shape[1])]
        if rng.random() < 0.5:
            design = np.hstack([design, design[:, [rng.integers(design.shape[1])]]])
        cols = design.shape[1]
        rank = np.linalg.matrix_rank(design)
        assert rank < cols <= rows
        with pytest.raises(RankDeficientDesign) as err:
            ols_no_intercept(design, rng.normal(size=rows))
        aliased = err.value.aliased
        assert aliased == sorted(set(aliased))
        assert rank + len(aliased) == cols
        kept = np.delete(design, aliased, axis=1)
        assert np.linalg.matrix_rank(kept) == rank == kept.shape[1]

    def test_more_columns_than_rows(self):
        # only the columns past the rank are aliased
        with pytest.raises(RankDeficientDesign) as err:
            ols_no_intercept(np.ones((2, 3)), np.ones(2))
        assert err.value.aliased == [1, 2]
        with pytest.raises(RankDeficientDesign) as err:
            ols_no_intercept(np.random.default_rng(1).normal(size=(2, 3)), np.ones(2))
        assert err.value.aliased == [2]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ols_no_intercept(np.ones((3, 2)), np.ones(4))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_singular_value_guard_agrees_with_gram_schmidt(self, data):
        # random 0/1 designs, some with columns that are sums of others:
        # the fit raises exactly when Gram-Schmidt finds aliased columns,
        # and names the same ones, although it runs Gram-Schmidt only
        # where the singular values leave the rank in doubt
        rows, cols = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 6))
        bits = data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        design = np.array(bits, dtype=float).reshape(rows, cols)
        for _ in range(data.draw(st.integers(0, 2))):
            summed = data.draw(st.lists(st.booleans(), min_size=design.shape[1],
                                        max_size=design.shape[1]))
            at = data.draw(st.integers(0, design.shape[1]))
            design = np.insert(design, at, design[:, summed].sum(axis=1), axis=1)
        aliased = _aliased_columns(design)
        y = np.arange(1.0, rows + 1.0)
        if aliased:
            with pytest.raises(RankDeficientDesign) as err:
                ols_no_intercept(design, y)
            assert err.value.aliased == aliased
        else:
            assert np.array_equal(ols_no_intercept(design, y),
                                  np.linalg.lstsq(design, y, rcond=None)[0])


class TestSummarize:
    def test_pinned_coefficients(self):
        pinned = json.loads(COEFFICIENTS_FILE.read_text())
        assert coefficient_table(seeded_grid()) == pinned

    def test_single_scenario_cell_means(self):
        rates = {test: 0.04 + 0.002 * i for i, test in enumerate(TEST_IDS)}
        table = anova_summarize([fake_result(50, 50, 0.5, 0.0, rates)])
        assert isinstance(table, AnovaTable)
        eff = table.effects("TEST")
        for test in TEST_IDS:
            expected = 100.0 * rates[test] - 5.0
            assert abs(eff[test] - expected) <= 1e-10

    def test_power_response(self):
        rates = {test: 0.5 for test in TEST_IDS}
        table = anova_summarize([fake_result(50, 50, 0.5, 0.0, rates)],
                                response="power")
        assert abs(table.effects("TEST")["gaynor_llog"] - 50.0) <= 1e-10

    def test_additive_grid_recovered_exactly(self):
        # the constructed response is additive in TEST, size and time,
        # so model 4 reproduces every observation
        results = additive_grid()
        table = anova_summarize(results, model=4)
        test_eff = table.effects("TEST")
        num_eff = table.effects("NUM1_NUM2")
        time_eff = table.effects("TIME")
        for res in results:
            s = res.scenario
            for test in TEST_IDS:
                y = 100.0 * res.rate(test) - 5.0
                fitted = test_eff[test]
                fitted += num_eff.get(f"{s.n1}/{s.n2}", 0.0)
                fitted += time_eff.get(f"{s.t_fixed:g}", 0.0)
                assert abs(fitted - y) <= 1e-10

    def test_model_two_interaction_columns(self):
        results = additive_grid()
        table = anova_summarize(results, model=2)
        eff = table.effects("TEST:TIME")
        assert len(eff) == 24
        assert "gaynor_llog:0.5" in eff
        assert "pseudo_logit:1" in eff
        # the time factor is absorbed by the interaction
        with pytest.raises(KeyError):
            table.effects("TIME")

    def test_model_one_interaction_columns(self):
        results = additive_grid()
        table = anova_summarize(results, model=1)
        eff = table.effects("TEST:NUM1_NUM2")
        assert len(eff) == 24
        assert "aalen_arcs:100/100" in eff

    def test_dropped_first_level(self):
        results = additive_grid()
        table = anova_summarize(results, model=4)
        num_eff = table.effects("NUM1_NUM2")
        assert "50/50" not in num_eff
        assert "100/100" in num_eff

    def test_unknown_factor_raises(self):
        table = anova_summarize(additive_grid())
        with pytest.raises(KeyError, match="TEST"):
            table.effects("WRONG")

    def test_confounded_grid_rank_deficient(self):
        # size and time move together, so their dummies are aliased
        results = [
            fake_result(50, 50, 0.5, 0.0, 0.05),
            fake_result(100, 100, 1.0, 0.0, 0.06),
        ]
        with pytest.raises(RankDeficientDesign) as err:
            anova_summarize(results, model=4)
        named = " ".join(str(a) for a in err.value.aliased)
        assert "TIME" in named or "NUM1_NUM2" in named

    def test_zero_valid_rejected(self):
        excluded = {test: 0 for test in TEST_IDS}
        excluded["gaynor_llog"] = 1000
        res = fake_result(50, 50, 0.5, 0.0, 0.05, excluded=excluded)
        with pytest.raises(CifPointError, match="gaynor_llog"):
            anova_summarize([res])

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            anova_summarize([])
        res = fake_result(50, 50, 0.5, 0.0, 0.05)
        with pytest.raises(ValueError):
            anova_summarize([res], response="level")
        with pytest.raises(ValueError):
            anova_summarize([res], model=5)


if __name__ == "__main__":
    COEFFICIENTS_FILE.write_text(json.dumps(coefficient_table(seeded_grid()), indent=1) + "\n")

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newsgeo.errors import InsufficientDataError
from newsgeo.scaling_laws import (
    circulation_models,
    suite_rows,
)
from newsgeo.state_attributes import MODEL_GROUPS, StateAttributeTable
from newsgeo.states import STATE_CODES
from newsgeo.stats_core import classify_exponent, fit_scaling


def planted_counts(beta, base, user_counts, sigma, rng, residuals=None):
    counts = {}
    for i, (state, users) in enumerate(sorted(user_counts.items())):
        log_c = math.log(base) + beta * math.log(users)
        if residuals is not None:
            log_c += residuals[i]
        if sigma > 0:
            log_c += sigma * rng.standard_normal()
        counts[state] = max(1, int(round(math.exp(log_c))))
    return counts


@pytest.fixture
def user_counts():
    return {state: int(50 * 30 ** (i / 49)) + 3
            for i, state in enumerate(STATE_CODES)}


class TestFitScaling:
    def test_exact_power_law(self):
        N = {f"S{i}": float(10 + i * 7) for i in range(20)}
        Y = {s: 3.0 * n ** 1.2 for s, n in N.items()}
        fit, residuals = fit_scaling(N, Y)
        assert fit.beta == pytest.approx(1.2, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert all(abs(r) < 1e-10 for r in residuals.values())

    def test_planted_beta_with_noise(self, user_counts, rng):
        counts = planted_counts(0.7, 2.0, user_counts, 0.1, rng)
        fit, _ = fit_scaling({s: float(u) for s, u in user_counts.items()},
                             {s: float(c) for s, c in counts.items()})
        assert fit.beta == pytest.approx(0.7, abs=0.05)

    def test_too_few_states(self):
        with pytest.raises(InsufficientDataError):
            fit_scaling({"A": 10.0, "B": 20.0}, {"A": 5.0, "B": 9.0})

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(STATE_CODES[3:]),
        st.tuples(st.integers(0, 1000), st.none() | st.integers(0, 50))))
    def test_excluded_and_fitted_states_partition_sized_states(self, cells):
        # three states always fit; every other state has a size N (0 means
        # none) and a count Y, possibly missing; a state of Y alone is in
        # neither set
        N = {"AL": 10, "AK": 20, "AZ": 40}
        Y = {"AL": 3, "AK": 5, "AZ": 11, "XX": 7}
        for state, (n, y) in cells.items():
            N[state] = n
            if y is not None:
                Y[state] = y
        fit, residuals = fit_scaling(N, Y)
        sized = {s for s, n in N.items() if n >= 1}
        excluded = set(fit.excluded_states)
        assert fit.excluded_states == sorted(excluded)
        assert excluded | set(residuals) == sized
        assert not excluded & set(residuals)
        assert excluded == {s for s in sized if Y.get(s, 0) < 1}
        assert fit.n == len(residuals)


class TestClassifyExponent:
    @pytest.mark.parametrize("beta,regime", [
        (0.99, "linear"),
        (0.8, "linear"),        # boundary is inclusive
        (1.25, "superlinear"),
        (0.5, "sublinear"),
        (1.1, "superlinear"),
        (1.3, "other"),
    ])
    def test_thresholds(self, beta, regime):
        assert classify_exponent(beta) == regime


class TestCirculationResidual:
    def test_exact_line_zero_residuals(self, user_counts):
        _, residuals = fit_scaling(
            user_counts, {s: int(0.5 * u) for s, u in user_counts.items()})
        # counts proportional to users: residuals only from integer rounding
        assert all(abs(r) < 0.05 for r in residuals.values())

    def test_orthogonality(self, user_counts, rng):
        tallies = {label: planted_counts(b, 0.3, user_counts, 0.2, rng)
                   for label, b in [("fake", 0.9), ("reputable", 1.1)]}
        for label in sorted(tallies):
            _, residuals = fit_scaling(user_counts, tallies[label])
            eps = np.array([residuals[s] for s in sorted(residuals)])
            logs = np.array([math.log(user_counts[s])
                             for s in sorted(residuals)])
            assert abs(eps.sum()) < 1e-9
            assert abs(eps @ (logs - logs.mean())) < 1e-9

    def test_planted_residuals_recovered(self, user_counts):
        # add a known orthogonalized residual vector to an exact power law;
        # rounding to integer counts is disabled by working with large counts
        states = sorted(user_counts)
        n = len(states)
        raw = np.sin(np.arange(n))
        logs = np.log([user_counts[s] for s in states])
        X = np.column_stack([np.ones(n), logs])
        # project out the regression space so the planted vector survives OLS
        proj = X @ np.linalg.solve(X.T @ X, X.T @ raw)
        planted = 0.2 * (raw - proj)
        counts = {}
        for i, s in enumerate(states):
            counts[s] = float(np.exp(math.log(1000.0)
                                     + 1.0 * logs[i] + planted[i]))
        fit, residuals = fit_scaling(
            {s: float(user_counts[s]) for s in states}, counts)
        for i, s in enumerate(states):
            assert residuals[s] == pytest.approx(planted[i], abs=1e-9)

    def test_scale_invariance_of_residuals(self, user_counts, rng):
        counts = planted_counts(1.0, 0.3, user_counts, 0.2, rng)
        _, base = fit_scaling(user_counts, counts)
        _, scaled = fit_scaling(user_counts,
                                {s: 10 * c for s, c in counts.items()})
        for s, r in base.items():
            assert abs(r - scaled[s]) < 1e-9

    def test_zero_count_states_excluded(self, user_counts):
        fit, residuals = fit_scaling(
            user_counts, {s: (0 if i < 3 else 50 + i)
                          for i, s in enumerate(sorted(user_counts))})
        assert len(fit.excluded_states) == 3
        assert all(s not in residuals for s in fit.excluded_states)


def attr_table(rng, n=50):
    states = list(STATE_CODES[:n])
    values = {}
    for s in states:
        row = {}
        for col in MODEL_GROUPS["all"]:
            if col == "swing_state":
                row[col] = float(rng.random() < 0.3)
            elif col == "population":
                row[col] = float(rng.integers(int(5e5), int(4e7)))
            elif col in ("minority", "no_highschool"):
                row[col] = float(rng.uniform(1, 60))
            else:
                row[col] = float(rng.standard_normal())
        values[s] = row
    return StateAttributeTable(columns=list(MODEL_GROUPS["all"]), values=values)


def suite_entry(suite, label, group):
    (entry,) = [e for e in suite
                if e.label == label and e.group == group]
    return entry


class TestCirculationModels:
    def test_constructed_negative_conscientiousness(self, rng):
        attrs = attr_table(rng)
        states = attrs.states()
        metric = {"fake": {s: -0.8 * attrs.values[s]["conscientiousness"]
                           + 0.01 * float(rng.standard_normal())
                           for s in states}}
        entry = suite_entry(circulation_models(metric, attrs),
                            "fake", "personality_culture")
        assert "conscientiousness" in entry.result.fit.names
        assert entry.result.fit.coefficient_of("conscientiousness") < 0

    def test_planted_linear_model_recovered(self, rng):
        attrs = attr_table(rng)
        from newsgeo.state_attributes import zscore
        std, _ = zscore(attrs, MODEL_GROUPS["all"])
        states = std.states()
        signal = {"gdp": 1.0, "openness": -0.7}
        y = {}
        for s in states:
            y[s] = sum(w * std.values[s][v] for v, w in signal.items()) \
                + 0.05 * float(rng.standard_normal())
        entry = suite_entry(circulation_models({"fake": y}, attrs),
                            "fake", "all")
        assert set(signal) <= set(entry.result.fit.names)
        for var, w in signal.items():
            coef = entry.result.fit.coefficient_of(var)
            se = entry.result.fit.stderr[
                1 + entry.result.fit.names.index(var)]
            assert abs(coef - w) <= 3 * se

    def test_all_group_aic_beats_subgroup_selection(self, rng):
        attrs = attr_table(rng)
        states = attrs.states()
        metric = {"fake": {s: float(rng.standard_normal()) for s in states}}
        suite = circulation_models(metric, attrs)
        all_fit = suite_entry(suite, "fake", "all").result.fit
        sub_fit = suite_entry(suite, "fake", "personality_culture").result.fit
        assert all_fit.aic <= sub_fit.aic + 1e-9

    def test_suite_rows_layout(self, rng):
        attrs = attr_table(rng)
        states = attrs.states()
        metric = {"fake": {s: float(rng.standard_normal()) for s in states}}
        rows = suite_rows(circulation_models(metric, attrs))
        (row,) = [r for r in rows if r["group"] == "political"]
        assert row["news_type"] == "fake"
        assert row["observations"] == 50
        assert "adj_r2" in row and "df_resid" in row

"""Kernel tests against independent oracles: normal-equations solves,
numerical t-CDF quadrature, mpmath's regularized incomplete beta, and
exhaustive best-subset AIC search."""

import itertools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import newsgeo

from newsgeo.errors import (
    InsufficientDataError,
    SingularDesignError,
    UndefinedCorrelationError,
)
from newsgeo import stats_core
from newsgeo.stats_core import (
    AIC_PERFECT_FIT,
    _beta_fraction,
    _two_sided_p,
    aic_from_rss,
    ols_fit,
    pearson,
    significance_stars,
    step_aic,
)


# --------------------------------------------------------------------------
# oracles (kept free of the code paths they check)
# --------------------------------------------------------------------------

def t_sf_quadrature(t, df):
    """P(T > t) by quadrature of the Student-t density."""
    def density(x):
        log_c = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                 - 0.5 * math.log(df * math.pi))
        return math.exp(log_c - (df + 1) / 2 * math.log1p(x * x / df))
    value, _ = quad(density, t, np.inf, limit=200)
    return value


def t_two_sided_exact(t, df):
    """2 * P(T_df > |t|) as mpmath's regularized incomplete beta
    I_x(df/2, 1/2) at x = df / (df + t^2), to 50 significant digits."""
    with mpmath.workdps(50):
        t = mpmath.mpf(float(t))
        return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2,
                                    0, df / (df + t * t), regularized=True))


def ols_normal_equations(X, y):
    """Coefficients, RSS, and standard errors via an explicit X'X solve."""
    n = len(y)
    design = np.column_stack([np.ones(n), X])
    xtx = design.T @ design
    coef = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ coef
    rss = float(resid @ resid)
    df = n - design.shape[1]
    se = np.sqrt(np.diag(np.linalg.inv(xtx)) * rss / df)
    return coef, rss, se, df


def exhaustive_best_subset_aic(candidates, y):
    """Globally best subset by AIC; ties toward fewer variables, then lexicographic."""
    names = sorted(candidates)
    best = None
    for r in range(len(names) + 1):
        for subset in itertools.combinations(names, r):
            X = np.column_stack([candidates[v] for v in subset]) \
                if subset else np.empty((len(y), 0))
            fit = ols_fit(X, y, names=list(subset))
            key = (fit.aic, len(subset), subset)
            if best is None or key < best[0]:
                best = (key, subset)
    return best[1]


def reference_step_aic(candidates, y):
    """Stepwise AIC as it was first written: every candidate move gets a
    full ols_fit, and the best move's fit becomes the current one."""
    names = sorted(candidates)

    def fit_subset(subset):
        X = np.column_stack([candidates[v] for v in subset]) \
            if subset else np.empty((len(y), 0))
        return ols_fit(X, y, names=list(subset))

    current = tuple(names)
    current_fit = fit_subset(current)
    trace = [("start", None, current_fit.aic, current)]
    while True:
        moves = []
        for v in current:
            subset = tuple(u for u in current if u != v)
            moves.append((fit_subset(subset).aic, len(subset), subset,
                          "drop", v))
        for v in names:
            if v not in current:
                subset = tuple(sorted(current + (v,)))
                moves.append((fit_subset(subset).aic, len(subset), subset,
                              "add", v))
        if not moves:
            break
        moves.sort(key=lambda m: m[:3])
        aic, _, subset, action, variable = moves[0]
        if aic >= current_fit.aic:
            break
        current, current_fit = subset, fit_subset(subset)
        trace.append((action, variable, aic, subset))
    return current_fit, list(current), trace


# --------------------------------------------------------------------------
# ols_fit
# --------------------------------------------------------------------------

class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = ols_fit(x, 2.0 * x, names=["x"])
        assert fit.coefficient_of("x") == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)
        assert np.allclose(fit.residuals, 0.0, atol=1e-10)

    def test_df_bookkeeping_matches_table_layout(self, rng):
        # n=48 with 6 predictors leaves 41 residual degrees of freedom
        X = rng.standard_normal((48, 6))
        y = rng.standard_normal(48)
        fit = ols_fit(X, y)
        assert fit.df_resid == 41
        assert fit.df_model == 6

    def test_matches_normal_equations_oracle(self, rng):
        X = rng.standard_normal((48, 5))
        y = rng.standard_normal(48)
        fit = ols_fit(X, y)
        coef, rss, se, df = ols_normal_equations(X, y)
        assert np.allclose(fit.coefficients, coef, atol=1e-9)
        assert fit.rss == pytest.approx(rss, abs=1e-9)
        assert np.allclose(fit.stderr, se, atol=1e-9)
        assert fit.df_resid == df

    def test_pvalues_match_quadrature(self, rng):
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        fit = ols_fit(X, y)
        for t, p in zip(fit.tstats, fit.pvalues):
            assert p == pytest.approx(2 * t_sf_quadrature(abs(t), fit.df_resid),
                                      abs=1e-8)

    def test_rank_deficiency_names_column(self, rng):
        x1 = rng.standard_normal(20)
        X = np.column_stack([x1, 2 * x1])
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(X, rng.standard_normal(20), names=["a", "b"])
        assert exc.value.column == "b"

    def test_too_few_observations(self, rng):
        with pytest.raises(InsufficientDataError):
            ols_fit(rng.standard_normal((3, 3)), rng.standard_normal(3))

    def test_residuals_orthogonal_to_predictors(self, rng):
        X = rng.standard_normal((40, 4))
        fit = ols_fit(X, rng.standard_normal(40))
        for j in range(4):
            col = (X[:, j] - X[:, j].mean()) / X[:, j].std(ddof=1)
            assert abs(col @ fit.residuals) < 1e-8

    def test_scale_consistency(self, rng):
        # rescaling a column by c rescales its coefficient by 1/c and leaves
        # fitted values, R2, F, and p-values unchanged
        X = rng.standard_normal((35, 3))
        y = rng.standard_normal(35)
        base = ols_fit(X, y)
        scaled_X = X.copy()
        c = 7.5
        scaled_X[:, 1] *= c
        scaled = ols_fit(scaled_X, y)
        assert scaled.coefficients[2] == pytest.approx(base.coefficients[2] / c,
                                                       rel=1e-9)
        assert np.allclose(scaled.fitted, base.fitted, atol=1e-9)
        assert scaled.r2 == pytest.approx(base.r2, abs=1e-9)
        assert scaled.fstat == pytest.approx(base.fstat, rel=1e-9)
        assert np.allclose(scaled.pvalues, base.pvalues, atol=1e-9)

    def test_adj_r2_never_exceeds_r2(self, rng):
        X = rng.standard_normal((25, 4))
        fit = ols_fit(X, rng.standard_normal(25))
        assert 0.0 <= fit.r2 <= 1.0
        assert fit.adj_r2 <= fit.r2

    def test_stars(self):
        assert significance_stars(0.005) == "***"
        assert significance_stars(0.03) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.2) == ""


class TestPearson:
    def test_identity(self):
        x = np.arange(10.0)
        r, p = pearson(x, x)
        assert r == pytest.approx(1.0)
        assert p == pytest.approx(0.0)

    def test_near_perfect_negative(self, rng):
        x = np.linspace(0, 1, 48)
        y = -x + 1e-6 * rng.standard_normal(48)
        r, p = pearson(x, y)
        assert -1.0 < r < -0.99
        assert p < 0.01

    def test_constant_input_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(np.ones(10), np.arange(10.0))

    def test_p_matches_quadrature(self, rng):
        for _ in range(100):
            n = int(rng.integers(5, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            r, p = pearson(x, y)
            t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
            assert p == pytest.approx(2 * t_sf_quadrature(t, n - 2), abs=1e-6)


class TestAic:
    def test_nested_equal_rss_differ_by_two(self):
        a = aic_from_rss(48, 10.0, 3)
        b = aic_from_rss(48, 10.0, 4)
        assert b - a == pytest.approx(2.0)

    def test_known_arithmetic(self):
        # n=48, RSS=48, edf=3 -> 48*ln(1) + 6
        value = aic_from_rss(48, 48.0, 3)
        assert value == pytest.approx(6.0)
        assert value != AIC_PERFECT_FIT

    def test_zero_rss_sentinel(self):
        assert aic_from_rss(10, 0.0, 2) == AIC_PERFECT_FIT

    def test_random_fits_match_formula(self, rng):
        for _ in range(20):
            X = rng.standard_normal((30, 3))
            fit = ols_fit(X, rng.standard_normal(30))
            expected = 30 * math.log(fit.rss / 30) + 2 * 4
            assert fit.aic == pytest.approx(expected, abs=1e-10)


class TestStepAic:
    def test_planted_single_signal(self):
        # fixed seed chosen so the pure-noise column does not enter by chance
        rng = np.random.default_rng(0)
        n = 200
        v1 = rng.standard_normal(n)
        v2 = rng.standard_normal(n)
        y = 2.0 * v1 + 0.1 * rng.standard_normal(n)
        result = step_aic({"v1": v1, "v2": v2}, y)
        assert result.fit.names == ["v1"]
        assert result.fit.names == list(
            exhaustive_best_subset_aic({"v1": v1, "v2": v2}, y))

    def test_single_perfect_candidate(self, rng):
        x = rng.standard_normal(50)
        y = 3.0 * x
        result = step_aic({"x": x}, y)
        assert result.fit.names == ["x"]
        intercept_only = ols_fit(np.empty((50, 0)), y)
        assert result.fit.aic < intercept_only.aic

    def test_descent_property(self, rng):
        X = rng.standard_normal((60, 6))
        y = rng.standard_normal(60)
        candidates = {f"v{i}": X[:, i] for i in range(6)}
        result = step_aic(candidates, y)
        aics = [step.aic for step in result.trace]
        assert all(b < a for a, b in zip(aics, aics[1:]))
        full = ols_fit(X, y)
        intercept_only = ols_fit(np.empty((60, 0)), y)
        assert result.fit.aic <= min(full.aic, intercept_only.aic)

    def test_matches_exhaustive_on_planted_sparsity(self, rng):
        n = 200
        true = {f"t{i}": rng.standard_normal(n) for i in range(3)}
        noise = {f"n{i}": rng.standard_normal(n) for i in range(3)}
        y = sum(2.0 * v for v in true.values()) + 0.2 * rng.standard_normal(n)
        candidates = {**true, **noise}
        result = step_aic(candidates, y)
        assert sorted(result.fit.names) == sorted(true)
        assert tuple(sorted(result.fit.names)) == \
            exhaustive_best_subset_aic(candidates, y)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_descent_on_fuzzed_systems(self, seed):
        fuzz = np.random.default_rng(seed)
        n = int(fuzz.integers(20, 60))
        k = int(fuzz.integers(1, 6))
        candidates = {f"v{i}": fuzz.standard_normal(n) for i in range(k)}
        y = fuzz.standard_normal(n)
        result = step_aic(candidates, y)
        aics = [step.aic for step in result.trace]
        assert all(b < a for a, b in zip(aics, aics[1:]))


def sylvester_hadamard(n):
    """An n x n matrix of orthogonal +-1 columns, the first all ones."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


def seeded_design(seed):
    """Correlated columns and one weak signal: (candidates, y)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 40))
    k = int(rng.integers(3, 8))
    X = rng.standard_normal((n, k)) @ rng.standard_normal((k, k))
    y = 0.3 * X[:, 0] + rng.standard_normal(n)
    return {f"v{i}": X[:, i] for i in range(k)}, y


class TestStepAicMatchesReference:
    """step_aic scores each move from one stacked QR per move kind and fits
    only the start and the selected model; the search that fits every move
    in full must choose the same moves with bit-equal AICs."""

    @staticmethod
    def assert_same_search(candidates, y):
        result = step_aic(candidates, y)
        fit, selected, trace = reference_step_aic(candidates, y)
        assert result.fit.names == selected
        assert [(r.action, r.variable, r.aic.hex(), r.variables)
                for r in result.trace] == \
            [(action, variable, aic.hex(), subset)
             for action, variable, aic, subset in trace]
        assert result.fit.names == fit.names
        assert np.array_equal(result.fit.coefficients, fit.coefficients)
        assert np.array_equal(result.fit.residuals, fit.residuals)
        return result

    # correlated columns and one weak signal: every search drops, and the
    # searches of seeds 23 and 40 also add a dropped variable back
    @pytest.mark.parametrize("seed", [*range(10), 23, 40])
    def test_seeded_designs(self, seed):
        result = self.assert_same_search(*seeded_design(seed))
        actions = {r.action for r in result.trace}
        assert "drop" in actions
        assert ("add" in actions) == (seed in (23, 40))

    # one column is a combination of others plus noise of scale 1e-4 to
    # 1e-16, so the moves that keep it and its combination are near-singular
    # or singular. At seed 433, exponent 5.46, numpy's vectorised square of
    # R's last entries is an ulp off the scalar square for some move
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=4.0, max_value=16.0))
    @example(433, 5.46)
    def test_near_collinear_designs(self, seed, exponent):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 40))
        k = int(rng.integers(3, 8))
        X = rng.standard_normal((n, k))
        j = int(rng.integers(1, k))
        X[:, j] = X[:, :j] @ rng.standard_normal(j) \
            + 10.0 ** -exponent * rng.standard_normal(n)
        y = 0.3 * X[:, 0] + rng.standard_normal(n)
        candidates = {f"v{i}": X[:, i] for i in range(k)}
        try:
            reference_step_aic(candidates, y)
        except SingularDesignError as expected:
            with pytest.raises(SingularDesignError) as exc:
                step_aic(candidates, y)
            assert exc.value.column == expected.column
        else:
            self.assert_same_search(candidates, y)

    # c and d enter y with weights 1e-8 to 1e-13 apart, so dropping either
    # gives nearly the same AIC, and only the last bits decide
    @pytest.mark.parametrize("seed", [1033, 1440])
    def test_near_tied_moves_are_decided_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 40))
        a, b, u, w = rng.standard_normal((4, n))
        y = 0.8 * a - 0.5 * b + rng.standard_normal(n)
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), a, b]))
        residual = y - q @ (q.T @ y)
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), a, b, y]))
        u -= q @ (q.T @ u)
        w -= q @ (q.T @ w)
        w *= np.linalg.norm(u) / np.linalg.norm(w)
        t = rng.uniform(0.01, 0.3)
        c = u + t * residual
        d = w + t * (1 + 10 ** -rng.uniform(8, 13)) * residual
        result = self.assert_same_search({"a": a, "b": b, "c": c, "d": d}, y)
        assert [r.action for r in result.trace] == ["start", "drop", "drop"]

    @pytest.mark.parametrize("seed", [*range(10), 23, 40])
    def test_one_exact_fit_per_iteration(self, seed, monkeypatch):
        # a QR each for the start and the final ols_fit, and one for each
        # move kind of each iteration (one iteration per accepted move, and
        # a last one that finds none); a least-squares solve only for the
        # start and the final ols_fit
        calls = {"qr": 0, "lstsq": 0}

        def counted(name):
            call = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return call(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        result = step_aic(*seeded_design(seed))
        assert calls["qr"] <= 2 * len(result.trace) + 2
        assert calls["lstsq"] <= 2

    def test_aic_tie_breaks_the_same_way(self, monkeypatch):
        # orthogonal +-1 columns: dropping c or d leaves AICs equal but for
        # the last bits of R, so AICs are rounded to 9 digits to tie them;
        # the tie goes to the lexicographically first subset (a, b, c)
        aic = stats_core.aic_from_rss
        monkeypatch.setattr(stats_core, "aic_from_rss",
                            lambda *args: round(aic(*args), 9))
        h = sylvester_hadamard(16)
        candidates = dict(zip("abcd", h[:, 1:5].T))
        y = 3 * h[:, 1] + 2 * h[:, 2] + 0.5 * h[:, 5]
        drop_c, drop_d = (
            ols_fit(np.column_stack([candidates[v] for v in kept]), y).aic
            for kept in ("abd", "abc"))
        assert drop_c == drop_d
        result = self.assert_same_search(candidates, y)
        assert [(r.action, r.variable) for r in result.trace] == \
            [("start", None), ("drop", "d"), ("drop", "c")]

    def test_near_collinear_design_fits(self):
        # v4 leaves v0 - v1 by noise of scale 2.1e-9: the design passes the
        # rank check, and X'X is too near singular to invert
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 5))
        e = 10 ** -rng.uniform(6, 16)
        X[:, 4] = X[:, 0] - X[:, 1] + e * rng.standard_normal(50)
        X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        y = rng.standard_normal(50)
        fit = ols_fit(X, y)
        assert np.all(np.isfinite(fit.stderr)) and np.all(fit.stderr > 0)
        self.assert_same_search({f"v{i}": X[:, i] for i in range(5)}, y)

    def test_duplicated_candidate_named_as_the_reference(self, rng):
        x = rng.standard_normal(30)
        candidates = {"a": rng.standard_normal(30), "b": x, "c": x.copy()}
        y = rng.standard_normal(30)
        with pytest.raises(SingularDesignError) as expected:
            reference_step_aic(candidates, y)
        with pytest.raises(SingularDesignError) as exc:
            step_aic(candidates, y)
        assert exc.value.column == expected.value.column == "c"

    def test_dependent_candidate_named(self, rng):
        x = rng.standard_normal(30)
        candidates = {"a": x, "b": 2 * x, "c": rng.standard_normal(30)}
        with pytest.raises(SingularDesignError) as exc:
            step_aic(candidates, rng.standard_normal(30))
        assert exc.value.column == "b"


class TestPValues:
    """p-values are 2 * P(T_df > |t|) = I_x(df/2, 1/2) at x = df / (df + t^2),
    checked against mpmath's regularized incomplete beta at 50 digits and at
    the boundaries where the value is known in closed form. scipy's stdtr is
    no oracle at this tolerance: it is off by 3.1e-9 at df = 1, |t| = 1e-8."""

    @staticmethod
    def assert_exact(p, t, df, rel=1e-12):
        # below the smallest normal float, its spacing sets the error
        assert p == pytest.approx(t_two_sided_exact(t, df), rel=rel,
                                  abs=sys.float_info.min), (t, df)

    def test_importing_the_cli_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(newsgeo.__file__))
        # nor numpy: tests/test_imports.py holds each stage's import budget
        code = ("import sys, newsgeo.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('numpy', 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.strip() == "[]"

    def test_matches_incomplete_beta(self, rng):
        for df in range(1, 61):
            t = np.concatenate([10.0 ** rng.uniform(-12, 6, 10),   # near 0
                                rng.uniform(0, 10, 10)])           # and out
            t *= rng.choice([-1.0, 1.0], t.size)
            for ti, p in zip(t, _two_sided_p(t, df)):
                self.assert_exact(p, ti, df)

    # lgamma's rounding at large arguments, not the continued fraction, sets
    # the error here: 3.1e-9 at df = 10^6
    @pytest.mark.parametrize("df", [10**3, 10**4, 10**5, 10**6])
    def test_large_df_within_1e_8(self, df):
        for t in (1e-9, 1e-3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0,
                  30.0, 37.0):
            self.assert_exact(float(_two_sided_p(t, df)), t, df, rel=1e-8)

    @pytest.mark.parametrize("df", [1, 2, 41, 10**6])
    def test_exact_boundaries(self, df):
        p = _two_sided_p(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), df)
        assert p[:4].tolist() == [1.0, 1.0, 0.0, 0.0]
        assert math.isnan(p[4])
        assert math.isnan(_two_sided_p(math.nan, df))

    def test_fraction_that_does_not_converge_raises(self):
        # at x = 1 the fraction does not settle; the kernel's branch never
        # passes it an x that close to 1
        with pytest.raises(ArithmeticError, match="did not converge"):
            _beta_fraction(0.5, 0.5, 1.0)

    @pytest.mark.parametrize("t", [5e-324, 1e-300, 1e-12, 1e-8, -1e-8, 1e-6])
    def test_tiny_t_at_df_1(self, t):
        # p = 1 - (2/pi) arctan|t| = 1 - 2|t|/pi + O(|t|^3)
        p = float(_two_sided_p(t, 1))
        assert abs(p - (1.0 - 2.0 * abs(t) / math.pi)) <= math.ulp(1.0)

    @pytest.mark.parametrize("t", [1e8, 1e20, 1e154, 1e155, 1e200, -1e300])
    def test_huge_t_at_df_1(self, t):
        # p = (2/pi) arctan(1/|t|) = 2/(pi |t|) (1 - O(|t|^-2))
        assert float(_two_sided_p(t, 1)) == \
            pytest.approx(2.0 / (math.pi * abs(t)), rel=1e-12, abs=0.0)

    def test_ols_pvalues_match_incomplete_beta(self, rng):
        for df in range(1, 61):
            x = rng.standard_normal(df + 2)
            noise = rng.standard_normal(df + 2)
            fits = [ols_fit(x, noise),                # moderate t
                    ols_fit(x, x + 1e-9 * noise)]     # large t
            for fit in fits:
                assert fit.df_resid == df
                for t, p in zip(fit.tstats, fit.pvalues):
                    self.assert_exact(p, t, df)

    @pytest.mark.parametrize("X,y,kind", [
        (np.empty((3, 0)), [5.0, 5.0, 5.0], "inf"),       # zero stderr
        ([-1.0, 0.0, 1.0], [1.0, -2.0, 1.0], "zero"),
        (np.empty((2, 0)), [-1.0, 1.0], "tiny"),
    ])
    def test_ols_boundary_t(self, X, y, kind):
        fit = ols_fit(np.asarray(X), np.asarray(y))
        t = abs(fit.tstats[0])
        assert {"inf": t == np.inf, "zero": t == 0.0,
                "tiny": 0.0 < t < 1e-12}[kind]
        p = fit.pvalues[0]
        if kind == "tiny":    # df = 1, where p = 1 - 2|t|/pi + O(|t|^3)
            assert fit.df_resid == 1
            assert abs(p - (1.0 - 2.0 * t / math.pi)) <= math.ulp(1.0)
        else:
            assert p == {"inf": 0.0, "zero": 1.0}[kind]

    def test_pearson_p_matches_incomplete_beta(self, rng):
        for df in range(1, 61):
            n = df + 2
            x = rng.standard_normal(n)
            noise = rng.standard_normal(n)
            for y in (noise, x + 1e-6 * noise):
                r, p = pearson(x, y)
                assert abs(r) < 1.0
                self.assert_exact(p, r * math.sqrt((n - 2) / (1.0 - r * r)),
                                  df)

    def test_pearson_zero_r(self):
        r, p = pearson([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, -1.0, 1.0])
        assert r == 0.0
        assert p == 1.0

"""Deterministic statistical kernel.

OLS with full inference output, Pearson tests, the log-log scaling-law
fit, the RSS-form AIC, and both-direction greedy stepwise selection.
Everything here is a pure function of its inputs; no global state, no
randomness.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientDataError,
    SingularDesignError,
    UndefinedCorrelationError,
)

# Returned in place of AIC when RSS is exactly zero (log undefined);
# large and negative so a perfect fit always wins comparisons.
AIC_PERFECT_FIT = -1.0e15

_STAR_THRESHOLDS = ((0.01, "***"), (0.05, "**"), (0.10, "*"))

# the modified Lentz method restarts a vanishing denominator at _TINY, and
# stops once a step changes the fraction by no more than _EPS relative
_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon
# a cap on the fraction's terms; no df up to 10^6 needs more than about 100
_MAX_FRACTION_TERMS = 1000


def significance_stars(p: float) -> str:
    for threshold, stars in _STAR_THRESHOLDS:
        if p < threshold:
            return stars
    return ""


@dataclass
class OlsResult:
    names: list[str]              # predictor names; intercept not listed
    coefficients: np.ndarray      # intercept first
    stderr: np.ndarray
    tstats: np.ndarray
    r2: float
    adj_r2: float
    resid_se: float
    df_resid: int
    fstat: float
    df_model: int
    aic: float
    residuals: np.ndarray
    fitted: np.ndarray
    n: int
    rss: float

    # computed when first read: a stage that reads only coefficients and fit
    # statistics never needs them
    @cached_property
    def pvalues(self) -> np.ndarray:
        return _two_sided_p(self.tstats, self.df_resid)

    @cached_property
    def stars(self) -> list[str]:
        return [significance_stars(p) for p in self.pvalues]

    def coefficient_of(self, name: str) -> float:
        return float(self.coefficients[1 + self.names.index(name)])


def _check_rank(design: np.ndarray, names: Sequence[str]) -> None:
    # QR diagonal localizes the first dependent column for the error message;
    # design's first column is the intercept, and `names` name the rest
    r = np.linalg.qr(design, mode="r")
    diag = np.abs(np.diag(r))
    tol = design.shape[0] * np.finfo(float).eps * (diag.max() if diag.size else 1.0)
    for j, d in enumerate(diag):
        if d <= tol:
            raise SingularDesignError(names[j - 1] if j else "(intercept)")


def _least_squares(
    X: np.ndarray, y: np.ndarray, names: Sequence[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Least squares of y on an intercept and the n x k columns of X:
    (design, coefficients, fitted, residuals, RSS). Raises
    SingularDesignError naming the first linearly dependent column.

    The core of `ols_fit`, and what `step_aic` scores each move with, so a
    move's AIC is bit-for-bit the one its full fit would report."""
    n, k = X.shape
    design = np.column_stack([np.ones(n), X]) if k else np.ones((n, 1))
    _check_rank(design, names)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residuals = y - fitted
    return design, coef, fitted, residuals, float(residuals @ residuals)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta function,
    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * fraction, evaluated by the
    modified Lentz method. It converges fast for x < (a + 1) / (a + b + 2)."""
    g, c, d = 1.0, 1.0, 0.0
    for j in range(1, _MAX_FRACTION_TERMS):
        k = j // 2
        if j % 2:
            dj = -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1))
        else:
            dj = k * (b - k) * x / ((a + 2 * k - 1) * (a + 2 * k))
        d = 1.0 + dj * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + dj / c
        c = c if abs(c) > _TINY else _TINY
        g *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return 1.0 / g
    raise ArithmeticError(f"incomplete beta fraction did not converge at "
                          f"a={a}, b={b}, x={x}")


def _t_two_sided(t: float, df: int) -> float:
    """2 * P(T_df > |t|), which is I_x(df/2, 1/2) at x = df / (df + t^2).

    Within 1e-12 relative of the exact value for df <= 60, and within
    1e-8 for df up to 10^6, where lgamma's rounding at large arguments
    dominates."""
    if math.isnan(t):
        return math.nan
    z = abs(t) / math.sqrt(df)
    if z == 0.0:
        return 1.0
    if z == math.inf:
        return 0.0
    # log x and log(1 - x) from log(t^2 / df): neither comes from a
    # subtraction, and t^2, which overflows past |t| ~ 1e154, is never formed
    log_z2 = 2.0 * math.log(z)
    if log_z2 > 0.0:
        log_1mx = -math.log1p(math.exp(-log_z2))
        log_x = log_1mx - log_z2
    else:
        log_x = -math.log1p(math.exp(log_z2))
        log_1mx = log_x + log_z2
    a, b = 0.5 * df, 0.5
    front = math.exp(a * log_x + b * log_1mx - math.lgamma(a)
                     - math.lgamma(b) + math.lgamma(a + b))
    x = math.exp(log_x)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    # I_x(a, b) = 1 - I_{1-x}(b, a), whose fraction converges here
    return 1.0 - front * _beta_fraction(b, a, math.exp(log_1mx)) / b


def _two_sided_p(t, df):
    """2 * P(T_df > |t|) for Student-t statistics `t` (scalar or array)."""
    return np.vectorize(_t_two_sided, otypes=[float])(t, df)


def aic_from_rss(n: int, rss: float, edf: int) -> float:
    """AIC = n*ln(RSS/n) + 2*edf (extract-AIC convention, constants dropped);
    AIC_PERFECT_FIT for a fit with no residual."""
    if rss <= 0.0:
        return AIC_PERFECT_FIT
    return n * math.log(rss / n) + 2.0 * edf


def ols_fit(
    X: np.ndarray,
    y: np.ndarray,
    names: list[str] | None = None,
) -> OlsResult:
    """Least squares of y on an intercept and the columns of X, with exact
    inference quantities.

    X is n x k (k may be 0 for the intercept-only model). Raises
    SingularDesignError naming the first linearly dependent column.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if names is None:
        names = [f"x{i + 1}" for i in range(k)]
    if len(names) != k:
        raise ValueError("names length does not match column count")
    if n <= k + 1:
        raise InsufficientDataError(f"n={n} too small for {k} predictors")

    design, coef, fitted, residuals, rss = _least_squares(X, y, names)
    # n > k + 1, so at least one residual degree of freedom is left
    df_resid = n - (k + 1)
    sigma2 = rss / df_resid

    xtx_inv = np.linalg.inv(design.T @ design)
    stderr = np.sqrt(np.maximum(np.diag(xtx_inv), 0.0) * sigma2)
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = np.where(stderr > 0, coef / stderr, np.inf * np.sign(coef))

    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    if k > 0:
        adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df_resid
        fstat = (tss - rss) / k / sigma2 if sigma2 > 0 else float("inf")
    else:
        adj_r2 = r2
        fstat = float("nan")

    return OlsResult(
        names=list(names),
        coefficients=coef,
        stderr=stderr,
        tstats=np.asarray(tstats, dtype=float),
        r2=r2,
        adj_r2=adj_r2,
        resid_se=math.sqrt(sigma2),
        df_resid=df_resid,
        fstat=fstat,
        df_model=k,
        aic=aic_from_rss(n, rss, k + 1),
        residuals=residuals,
        fitted=fitted,
        n=n,
        rss=rss,
    )


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Product-moment r with the two-sided p from the t-transform."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3 or len(y) != n:
        raise InsufficientDataError("pearson needs n >= 3 paired observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("constant input")
    r = float(xc @ yc) / math.sqrt(sx * sy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, float(_two_sided_p(t, n - 2))


@dataclass
class ScalingFit:
    beta: float
    r2: float
    regime: str
    intercept: float
    n: int
    excluded_states: list[str]    # N >= 1 but Y < 1: no log, left out


def classify_exponent(beta: float) -> str:
    """Regime taxonomy: <0.8 sublinear, [0.8,1.1) linear, [1.1,1.3)
    superlinear, >=1.3 flagged as out of taxonomy."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta < 0.8:
        return "sublinear"
    if beta < 1.1:
        return "linear"
    if beta < 1.3:
        return "superlinear"
    return "other"


def fit_scaling(
    N: dict[str, float], Y: dict[str, float]
) -> tuple[ScalingFit, dict[str, float]]:
    """OLS of log Y on log N, with an intercept, over states with N >= 1 and
    Y >= 1; a state of N missing from Y has Y = 0.

    Returns the fit and the per-state residuals, which sum to zero. The fit
    names the states with N >= 1 that it leaves out for Y < 1, so these and
    the residuals' states partition the states with N >= 1.
    """
    counted = [s for s in sorted(N) if N[s] >= 1]
    states = [s for s in counted if Y.get(s, 0) >= 1]
    if len(states) < 3:
        raise InsufficientDataError(
            f"only {len(states)} states usable for the log-log fit"
        )
    log_n = np.log([N[s] for s in states])
    log_y = np.log([Y[s] for s in states])
    fit = ols_fit(log_n, log_y, names=["log_n"])
    beta = fit.coefficient_of("log_n")
    residuals = {s: float(r) for s, r in zip(states, fit.residuals)}
    return (
        ScalingFit(beta=beta, r2=fit.r2, regime=classify_exponent(beta),
                   intercept=float(fit.coefficients[0]), n=len(states),
                   excluded_states=[s for s in counted if Y.get(s, 0) < 1]),
        residuals,
    )


@dataclass(frozen=True)
class StepRecord:
    action: str                 # "start" | "add" | "drop"
    variable: str | None
    aic: float
    variables: tuple[str, ...]  # model after the move, sorted


@dataclass
class StepwiseResult:
    fit: OlsResult                  # of the selected model; see fit.names
    trace: list[StepRecord] = field(default_factory=list)


def step_aic(
    candidates: dict[str, np.ndarray],
    y: np.ndarray,
) -> StepwiseResult:
    """Greedy stepwise selection by AIC.

    From the full model, repeatedly apply the single add/drop move that most
    lowers AIC; stop when no move lowers it. Ties break toward fewer
    predictors, then lexicographic variable order. Always fits with an
    intercept.
    """
    names = sorted(candidates)
    y = np.asarray(y, dtype=float)
    n = len(y)

    def design_of(subset: tuple[str, ...]) -> np.ndarray:
        if subset:
            return np.column_stack([candidates[v] for v in subset])
        return np.empty((n, 0))

    def aic_of(subset: tuple[str, ...]) -> float:
        # a move is scored by its AIC alone; only the start and the
        # selected model get a full ols_fit
        rss = _least_squares(design_of(subset), y, subset)[-1]
        return aic_from_rss(n, rss, len(subset) + 1)

    current: tuple[str, ...] = tuple(names)
    start_fit = ols_fit(design_of(current), y, names=list(current))
    current_aic = start_fit.aic
    trace = [StepRecord("start", None, current_aic, current)]

    while True:
        moves: list[tuple[float, int, tuple[str, ...], str, str]] = []
        for v in current:
            subset = tuple(u for u in current if u != v)
            moves.append((aic_of(subset), len(subset), subset, "drop", v))
        for v in names:
            if v in current:
                continue
            subset = tuple(sorted(current + (v,)))
            moves.append((aic_of(subset), len(subset), subset, "add", v))
        if not moves:
            break
        moves.sort(key=lambda m: (m[0], m[1], m[2]))
        best_aic, _, best_subset, action, variable = moves[0]
        if best_aic >= current_aic:
            break
        current, current_aic = best_subset, best_aic
        trace.append(StepRecord(action, variable, best_aic, best_subset))

    fit = start_fit if len(trace) == 1 else \
        ols_fit(design_of(current), y, names=list(current))
    return StepwiseResult(fit=fit, trace=trace)

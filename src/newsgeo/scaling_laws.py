"""Scaling exponents, circulation residuals, and the regression suites.

The circulation score of a state for a news type is the residual of the
log-log regression of that state's news-comment count on its user count:
what is left after size is accounted for. The log-log fit includes an
intercept by default (required for zero-sum residuals); the no-intercept
variant sits behind a flag.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .config import LABELS
from .errors import InsufficientDataError
from .state_attributes import MODEL_GROUPS, StateAttributeTable, zscore
from .stats_core import StepwiseResult, ols_fit, step_aic

logger = logging.getLogger(__name__)


@dataclass
class ScalingFit:
    beta: float
    r2: float
    regime: str
    intercept: float
    n: int


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
    N: dict[str, float], Y: dict[str, float], intercept: bool = True
) -> tuple[ScalingFit, dict[str, float]]:
    """OLS of log Y on log N over states with N >= 1 and Y >= 1.

    Returns the fit and the per-state residuals.
    """
    states = sorted(s for s in N if s in Y and N[s] >= 1 and Y[s] >= 1)
    if len(states) < 3:
        raise InsufficientDataError(
            f"only {len(states)} states usable for the log-log fit"
        )
    log_n = np.log([N[s] for s in states])
    log_y = np.log([Y[s] for s in states])
    fit = ols_fit(log_n, log_y, names=["log_n"], intercept=intercept)
    beta = fit.coefficient_of("log_n")
    const = float(fit.coefficients[0]) if intercept else 0.0
    residuals = {s: float(r) for s, r in zip(states, fit.residuals)}
    return (
        ScalingFit(beta=beta, r2=fit.r2, regime=classify_exponent(beta),
                   intercept=const, n=len(states)),
        residuals,
    )


@dataclass
class TypeCirculation:
    label: str
    fit: ScalingFit
    log_users: dict[str, float]
    residuals: dict[str, float]          # the circulation score per state
    normalized: dict[str, float]         # comments per user, zeros kept
    excluded_states: list[str]           # zero-count states, no log defined


@dataclass
class CirculationTable:
    per_type: dict[str, TypeCirculation] = field(default_factory=dict)


def circulation_normalized(
    tallies: dict[str, dict[str, int]], user_counts: dict[str, int]
) -> dict[str, dict[str, float]]:
    """label -> state -> news comments per user (rate 0 for zero counts)."""
    rates: dict[str, dict[str, float]] = {}
    for label, per_state in tallies.items():
        rates[label] = {}
        for state, users in user_counts.items():
            if users <= 0:
                continue
            rates[label][state] = per_state.get(state, 0) / users
    return rates


def circulation_residual(
    tallies: dict[str, dict[str, int]],
    user_counts: dict[str, int],
    intercept: bool = True,
) -> CirculationTable:
    """Fit the per-type log-log regression of counts on users; residuals are
    the circulation scores. Zero-count cells are excluded from the fit and
    flagged."""
    table = CirculationTable()
    rates = circulation_normalized(tallies, user_counts)
    for label in sorted(tallies):
        per_state = tallies[label]
        usable = {s: float(c) for s, c in per_state.items()
                  if c >= 1 and user_counts.get(s, 0) >= 1}
        excluded = sorted(s for s in user_counts
                          if per_state.get(s, 0) < 1 and user_counts[s] >= 1)
        N = {s: float(user_counts[s]) for s in usable}
        fit, residuals = fit_scaling(N, usable, intercept=intercept)
        table.per_type[label] = TypeCirculation(
            label=label,
            fit=fit,
            log_users={s: math.log(N[s]) for s in sorted(N)},
            residuals=residuals,
            normalized=rates.get(label, {}),
            excluded_states=excluded,
        )
        if excluded:
            logger.info("%s: %d zero-count states excluded from the log fit",
                        label, len(excluded))
    return table


@dataclass
class ModelSuiteEntry:
    label: str
    group: str
    states: list[str]
    result: StepwiseResult


@dataclass
class ModelSuite:
    entries: list[ModelSuiteEntry] = field(default_factory=list)

    def get(self, label: str, group: str) -> ModelSuiteEntry:
        for e in self.entries:
            if e.label == label and e.group == group:
                return e
        raise KeyError((label, group))


def circulation_models(
    metric: dict[str, dict[str, float]],
    attributes: StateAttributeTable,
    groups: list[str] | None = None,
) -> ModelSuite:
    """Stepwise-selected OLS of the circulation residual per (news type,
    variable group). Attributes are z-scored over the complete-case states
    of each group."""
    groups = groups or list(MODEL_GROUPS)
    labels = [lb for lb in LABELS if lb in metric]
    suite = ModelSuite()
    for group in groups:
        variables = MODEL_GROUPS[group]
        std_table, _ = zscore(attributes, variables)
        for label in labels:
            per_state = metric[label]
            states = [s for s in std_table.states() if s in per_state]
            if len(states) <= len(variables) + 1:
                raise InsufficientDataError(
                    f"{label}/{group}: {len(states)} states for "
                    f"{len(variables)} candidates"
                )
            y = np.array([per_state[s] for s in states], dtype=float)
            candidates = {v: std_table.column(v, states) for v in variables}
            result = step_aic(candidates, y)
            suite.entries.append(ModelSuiteEntry(label=label, group=group,
                                                 states=states, result=result))
    return suite


def suite_rows(suite: ModelSuite) -> list[dict[str, object]]:
    """Flatten a ModelSuite into regression-table rows (one per model):
    coefficient (se) with stars per variable, fit statistics alongside."""
    rows = []
    for entry in suite.entries:
        fit = entry.result.fit
        cells = {}
        for i, name in enumerate(fit.names):
            j = i + 1  # intercept occupies slot 0
            cells[name] = (
                f"{fit.coefficients[j]:.3f}{fit.stars[j]} "
                f"({fit.stderr[j]:.3f})"
            )
        rows.append({
            "news_type": entry.label,
            "group": entry.group,
            "metric": "residual",
            "observations": fit.n,
            "selected": ",".join(entry.result.selected),
            "r2": round(fit.r2, 4),
            "adj_r2": round(fit.adj_r2, 4),
            "resid_se": round(fit.resid_se, 4),
            "df_resid": fit.df_resid,
            "fstat": round(fit.fstat, 4),
            "df_model": fit.df_model,
            "aic": round(fit.aic, 4),
            "intercept": round(float(fit.coefficients[0]), 4),
            **cells,
        })
    return rows

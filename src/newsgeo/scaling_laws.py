"""Circulation residuals and the regression suites.

The circulation score of a state for a news type is the residual of the
log-log regression of that state's news-comment count on its user count
(`stats_core.fit_scaling`): what is left after size is accounted for. The
log-log fit includes an intercept, which makes the residuals sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LABELS
from .errors import InsufficientDataError
from .state_attributes import MODEL_GROUPS, StateAttributeTable, zscore
from .stats_core import StepwiseResult, step_aic


@dataclass
class ModelSuiteEntry:
    label: str
    group: str
    result: StepwiseResult


def circulation_models(
    metric: dict[str, dict[str, float]],
    attributes: StateAttributeTable,
) -> list[ModelSuiteEntry]:
    """Stepwise-selected OLS of the circulation residual per (news type,
    variable group), for every group. Attributes are z-scored over the
    complete-case states of each group."""
    labels = [lb for lb in LABELS if lb in metric]
    suite = []
    for group, variables in MODEL_GROUPS.items():
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
            suite.append(ModelSuiteEntry(label=label, group=group,
                                         result=result))
    return suite


def suite_rows(suite: list[ModelSuiteEntry]) -> list[dict[str, object]]:
    """Flatten a model suite into regression-table rows (one per model):
    coefficient (se) with stars per variable, fit statistics alongside."""
    rows = []
    for entry in suite:
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
            "selected": ",".join(fit.names),
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

"""State-level explanatory variables: loading, z-scoring, cross-correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DataIntegrityError,
    DegenerateVariableError,
    FormatError,
)
from .states import by_state, number, open_table, state_code
from .stats_core import pearson

# Canonical attribute columns, grouped the way the regression suites use them.
ATTRIBUTE_GROUPS: dict[str, list[str]] = {
    "personality_culture": [
        "openness", "conscientiousness", "extraversion",
        "agreeableness", "neuroticism", "cultural_tightness",
    ],
    "socioeconomic": ["density", "gdp", "minority", "no_highschool", "population"],
    "political": ["political", "republican", "swing_state"],
}
ATTRIBUTE_COLUMNS: list[str] = [
    c for cols in ATTRIBUTE_GROUPS.values() for c in cols
]

MODEL_GROUPS: dict[str, list[str]] = dict(ATTRIBUTE_GROUPS)
MODEL_GROUPS["all"] = list(ATTRIBUTE_COLUMNS)
MODEL_GROUPS["all_minus_personality"] = (
    ATTRIBUTE_GROUPS["socioeconomic"] + ATTRIBUTE_GROUPS["political"]
)

_PERCENT_COLUMNS = ("minority", "no_highschool")


@dataclass
class StateAttributeTable:
    columns: list[str]
    values: dict[str, dict[str, float | None]]  # state -> column -> value

    def states(self) -> list[str]:
        return sorted(self.values)

    def complete_states(self, columns: list[str]) -> list[str]:
        """States with no missing value among `columns`, sorted."""
        return sorted(
            s for s, row in self.values.items()
            if all(row.get(c) is not None for c in columns)
        )

    def column(self, name: str, states: list[str]) -> np.ndarray:
        return np.array([self.values[s][name] for s in states], dtype=float)


def load_attributes(path: str) -> StateAttributeTable:
    """Read the attribute CSV (header `state` plus known columns, each named
    once; an unknown or repeated column is a ConfigurationError). A state
    code outside the 50 states is a ConfigurationError; a second row for a
    state, a `swing_state` other than 0 or 1, a percent outside [0, 100] or
    a population not above 0 a DataIntegrityError; and a row of another
    width than the header or a cell that is not a number a FormatError, as
    is what `open_table` rejects. Each error names the file and line."""
    with open_table(path) as reader:
        return _read_attributes(path, reader)


def _read_attributes(path: str, reader) -> StateAttributeTable:
    header = next(reader, [])
    # an empty file is an empty header on line 1
    where = f"{path}: line {reader.line_num or 1}"
    if "state" not in header:
        raise ConfigurationError(f"{where}: missing a 'state' column")
    known = set(ATTRIBUTE_COLUMNS)
    for i, col in enumerate(header):
        if col != "state" and col not in known:
            raise ConfigurationError(f"{where}: unknown attribute column {col!r}")
        if col in header[:i]:
            raise ConfigurationError(f"{where}: repeated attribute column {col!r}")
    columns = [c for c in header if c != "state"]
    rows = []
    for cells in reader:
        if not cells:
            continue
        where = f"{path}: line {reader.line_num}"
        if len(cells) != len(header):
            raise FormatError(f"{where} has {len(cells)} fields, "
                              f"expected {len(header)}")
        row = dict(zip(header, cells))
        state = state_code(row["state"], where)
        parsed: dict[str, float | None] = {}
        for col in columns:
            cell = row[col].strip()
            parsed[col] = number(float, cell, where) if cell else None
        _validate_row(where, parsed)
        rows.append((state, parsed, where))
    return StateAttributeTable(columns=columns, values=by_state(rows))


def _validate_row(where: str, row: dict[str, float | None]) -> None:
    swing = row.get("swing_state")
    if swing is not None and swing not in (0.0, 1.0):
        raise DataIntegrityError(f"{where}: swing_state must be 0 or 1, got {swing}")
    for col in _PERCENT_COLUMNS:
        v = row.get(col)
        if v is not None and not 0.0 <= v <= 100.0:
            raise DataIntegrityError(f"{where}: {col}={v} outside [0, 100]")
    pop = row.get("population")
    if pop is not None and pop <= 0:
        raise DataIntegrityError(f"{where}: population must be positive")


def zscore(
    table: StateAttributeTable, variables: list[str]
) -> tuple[StateAttributeTable, list[str]]:
    """Standardize `variables` to mean 0, sample sd 1 over complete-case states.

    Returns the standardized table (restricted to the complete-case states)
    and the list of dropped states.
    """
    included = table.complete_states(variables)
    dropped = sorted(set(table.values) - set(included))
    if len(included) < 2:
        raise DegenerateVariableError("fewer than 2 complete-case states")
    values: dict[str, dict[str, float | None]] = {
        s: dict(table.values[s]) for s in included
    }
    for var in variables:
        col = table.column(var, included)
        sd = col.std(ddof=1)
        if sd == 0.0 or not math.isfinite(sd):
            raise DegenerateVariableError(f"variable {var!r} has zero variance")
        mean = col.mean()
        for s, z in zip(included, (col - mean) / sd):
            values[s][var] = float(z)
    return StateAttributeTable(columns=list(table.columns), values=values), dropped


def cross_correlation(
    table: StateAttributeTable, variables: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise-complete Pearson r and two-sided p for every variable pair,
    as two symmetric matrices; both are NaN for a pair with fewer than
    three complete states."""
    m = len(variables)
    r = np.eye(m)
    p = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            states = table.complete_states([variables[i], variables[j]])
            if len(states) < 3:
                r[i, j] = r[j, i] = np.nan
                p[i, j] = p[j, i] = np.nan
                continue
            rij, pij = pearson(table.column(variables[i], states),
                               table.column(variables[j], states))
            r[i, j] = r[j, i] = rij
            p[i, j] = p[j, i] = pij
    return r, p

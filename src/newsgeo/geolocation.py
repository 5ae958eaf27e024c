"""User-to-state inference from activity in state-matched subreddits.

A user is assigned the state holding the strict plurality of their comments
in mapped subreddits; ties leave the user unassigned. Comments by the
deleted-author sentinel never contribute.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

from .corpus_ingest import Comment
from .errors import ConfigurationError, InsufficientDataError
from .states import read_table, state_code

logger = logging.getLogger(__name__)


@dataclass
class UserLocation:
    author: str
    state: str | None                       # None means unassigned (tie)


@dataclass
class AssignmentSummary:
    mapped_authors: int
    assigned: int
    unassigned: int
    fraction_single_state: float
    fraction_at_most_two: float
    fraction_unassigned: float


@dataclass
class TallyLedger:
    """Counter of one `tally_user_states` pass: non-deleted authors with
    comments but none in a mapped subreddit, so left out of the tallies."""

    unmapped: int = 0


def load_subreddit_state_map(path: str) -> dict[str, str]:
    """Table `subreddit,state` -> lowercase subreddit -> state code."""
    mapping: dict[str, str] = {}
    for (subreddit, cell), where in read_table(path, ("subreddit", "state")):
        subreddit, state = subreddit.lower(), state_code(cell, where)
        if mapping.setdefault(subreddit, state) != state:
            raise ConfigurationError(f"{where}: {subreddit!r} mapped to both "
                                     f"{mapping[subreddit]} and {state}")
    return mapping


def tally_user_states(
    corpus: Iterable[Comment], subreddit_states: dict[str, str],
    *, ledger: TallyLedger | None = None,
) -> dict[str, dict[str, int]]:
    """Per-author, per-state mapped-comment counts. Authors with no mapped
    comment are counted on `ledger`, so the non-deleted authors of `corpus`
    = authors tallied + `ledger.unmapped`."""
    tallies: dict[str, dict[str, int]] = {}
    unmapped_comment_authors = set()
    for rec in corpus:
        if rec.is_deleted_author:
            continue
        state = subreddit_states.get(rec.subreddit.lower())
        if state is None:
            unmapped_comment_authors.add(rec.author)
            continue
        per_state = tallies.setdefault(rec.author, {})
        per_state[state] = per_state.get(state, 0) + 1
    if ledger is not None:
        ledger.unmapped = len(unmapped_comment_authors.difference(tallies))
    return tallies


def resolve_assignments(
    tallies: dict[str, dict[str, int]]
) -> tuple[dict[str, UserLocation], AssignmentSummary]:
    """Strict-argmax assignment over per-author tallies; tie -> unassigned."""
    locations: dict[str, UserLocation] = {}
    single = at_most_two = unassigned = 0
    for author in sorted(tallies):
        counts = tallies[author]
        best = max(counts.values())
        winners = [s for s, c in counts.items() if c == best]
        state = winners[0] if len(winners) == 1 else None
        if state is None:
            unassigned += 1
        if len(counts) == 1:
            single += 1
        if len(counts) <= 2:
            at_most_two += 1
        locations[author] = UserLocation(author=author, state=state)
    n = len(tallies)
    summary = AssignmentSummary(
        mapped_authors=n,
        assigned=n - unassigned,
        unassigned=unassigned,
        fraction_single_state=single / n if n else 0.0,
        fraction_at_most_two=at_most_two / n if n else 0.0,
        fraction_unassigned=unassigned / n if n else 0.0,
    )
    return locations, summary


def assign_user_states(
    corpus: Iterable[Comment], subreddit_states: dict[str, str],
    *, ledger: TallyLedger | None = None,
) -> tuple[dict[str, UserLocation], AssignmentSummary]:
    return resolve_assignments(
        tally_user_states(corpus, subreddit_states, ledger=ledger))


def state_user_counts(locations: dict[str, UserLocation]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for loc in locations.values():
        if loc.state is not None:
            counts[loc.state] = counts.get(loc.state, 0) + 1
    return counts


@dataclass
class AdoptionResult:
    beta: float
    r2: float
    excluded_states: list[str]   # zero-user states, left out of the log fit


def adoption_and_scaling(
    locations: dict[str, UserLocation], populations: dict[str, int]
) -> AdoptionResult:
    """Log-log OLS fit of Reddit users vs population over the states."""
    # imported here: `diffusion` and `connectivity` import this module for
    # UserLocation alone and never load numpy
    import numpy as np

    from .stats_core import ols_fit

    users = state_user_counts(locations)
    excluded = []
    log_pop = []
    log_users = []
    for state in sorted(populations):
        pop = populations[state]
        if pop <= 0:
            raise ConfigurationError(f"population for {state} must be positive")
        n = users.get(state, 0)
        if n > 0:
            log_pop.append(np.log(pop))
            log_users.append(np.log(n))
        else:
            excluded.append(state)
    if len(log_pop) < 3:
        raise InsufficientDataError("fewer than 3 states with users")
    fit = ols_fit(np.array(log_pop), np.array(log_users), names=["log_population"])
    return AdoptionResult(beta=fit.coefficient_of("log_population"),
                         r2=fit.r2, excluded_states=excluded)

"""User-to-state inference from activity in state-matched subreddits.

A user is assigned the state holding the strict plurality of their comments
in mapped subreddits; ties leave the user unassigned. The counts come from
ingest, which leaves out comments by the deleted-author sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError
from .states import SubredditCount, read_table, state_code


@dataclass
class AssignmentSummary:
    mapped_authors: int
    assigned: int
    unassigned: int
    fraction_single_state: float
    fraction_at_most_two: float
    fraction_unassigned: float


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
    counts: Iterable[SubredditCount], subreddit_states: dict[str, str],
) -> tuple[dict[str, dict[str, int]], int]:
    """Per-author, per-state mapped-comment counts, and the number of
    authors left out for having no mapped comment: the authors of `counts`
    = authors tallied + that number."""
    tallies: dict[str, dict[str, int]] = {}
    unmapped_comment_authors = set()
    for row in counts:
        state = subreddit_states.get(row.subreddit.lower())
        if state is None:
            unmapped_comment_authors.add(row.author)
            continue
        per_state = tallies.setdefault(row.author, {})
        per_state[state] = per_state.get(state, 0) + row.comments
    return tallies, len(unmapped_comment_authors.difference(tallies))


def resolve_assignments(
    tallies: dict[str, dict[str, int]]
) -> tuple[dict[str, str | None], AssignmentSummary]:
    """Strict-argmax assignment over per-author tallies: author -> state,
    None for a tie."""
    locations: dict[str, str | None] = {}
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
        locations[author] = state
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


def state_user_counts(locations: dict[str, str | None]) -> dict[str, int]:
    """State -> assigned users."""
    counts: dict[str, int] = {}
    for state in locations.values():
        if state is not None:
            counts[state] = counts.get(state, 0) + 1
    return counts

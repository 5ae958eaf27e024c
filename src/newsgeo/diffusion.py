"""Per-URL cascades: reach distributions, time-to-k curves and the order in
which states were first exposed to each URL."""

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass, field
from typing import Iterable

from .states import FirstExposure, NewsComment

SECONDS_PER_DAY = 86_400.0

UNITS = ("authors", "states")
# A timeline event is a (created_utc, comment_id, author, state) tuple, its
# author None when deleted and its state None when untagged.
# unit -> the getter of the event item it counts
_UNIT_OF = {"authors": operator.itemgetter(2),
            "states": operator.itemgetter(3)}


@dataclass
class UrlTimeline:
    url: str
    label: str
    events: list[tuple[int, str, str | None, str | None]] = \
        field(default_factory=list)

    def spread(self, unit: str) -> Spread:
        """One walk over the sorted events. An event without the unit (an
        untagged state, a deleted author) is skipped; the seconds count from
        the first event, with the unit or not."""
        unit_of = _UNIT_OF[unit]
        units: list[str] = []
        seconds: list[int] = []
        if self.events:
            first = self.events[0][0]
            seen = set()
            for e in self.events:
                key = unit_of(e)
                if key is None or key in seen:
                    continue
                seen.add(key)
                units.append(key)
                seconds.append(e[0] - first)
        return self, units, seconds

    def distinct_units(self, unit: str) -> int:
        return len(self.spread(unit)[1])

    def time_to_reach(self, unit: str, k: int) -> float | None:
        """Seconds from the first event to the one that first raises the
        distinct-unit count to k; None if k is never reached."""
        seconds = self.spread(unit)[2]
        return float(seconds[k - 1]) if 0 < k <= len(seconds) else None


# A timeline's spread over one unit, from one walk over its events:
# (timeline, units, seconds). `units` are its distinct authors or states in
# the order they first appear, and `seconds` the time from the timeline's
# first event to each one's first appearance. Its reach is len(units).
Spread = tuple[UrlTimeline, list[str], list[int]]


def build_url_timelines(
    news_comments: Iterable[NewsComment],
    locations: dict[str, str | None],
) -> dict[str, UrlTimeline]:
    """One sorted timeline per distinct URL; events carry the author's state
    (`locations`: author -> state) when the author is geotagged."""
    timelines: dict[str, UrlTimeline] = {}
    for nc in news_comments:
        tl = timelines.get(nc.url)
        if tl is None:
            tl = timelines[nc.url] = UrlTimeline(url=nc.url, label=nc.label)
        tl.events.append((nc.created_utc, nc.comment_id, nc.author,
                          locations.get(nc.author)))
    # by timestamp, then comment id for stable ties; the author and state,
    # which may be None, are never compared
    for tl in timelines.values():
        if len(tl.events) > 1:
            tl.events.sort(key=operator.itemgetter(0, 1))
    return timelines


@dataclass
class UnitWalk:
    """Every timeline walked once over one unit, in timeline order.

    `reaches` maps each news type to the reach of each of its timelines
    that reached a unit. `spreads` holds the spread of each timeline that
    reached two or more units: a time to k >= 2 and a first-exposure order
    need no other.
    """
    reaches: dict[str, list[int]] = field(default_factory=dict)
    spreads: list[Spread] = field(default_factory=list)


def walk(timelines: Iterable[UrlTimeline], unit: str) -> UnitWalk:
    """Walk each timeline once over `unit`. A one-event timeline, which most
    URLs have, reaches one unit (none if its event lacks the unit) and
    builds no spread, which keeps the walk from allocating an object per
    URL."""
    unit_of = _UNIT_OF[unit]
    result = UnitWalk()
    for tl in timelines:
        if len(tl.events) == 1:
            reach = 0 if unit_of(tl.events[0]) is None else 1
        else:
            spread = tl.spread(unit)
            reach = len(spread[1])
            if reach >= 2:
                result.spreads.append(spread)
        if reach:
            per_label = result.reaches.get(tl.label)
            if per_label is None:
                per_label = result.reaches[tl.label] = []
            per_label.append(reach)
    return result


def first_exposures(state_spreads: Iterable[Spread]) -> list[FirstExposure]:
    """One record per state spread: given the `spreads` of a state walk,
    the first-exposure order of each timeline that reached two or more
    states, in timeline order. Contagion inference reads nothing else."""
    return [FirstExposure(tl.url, tl.label, " ".join(units))
            for tl, units, _ in state_spreads]


def reach_distribution(
    reaches: dict[str, list[int]],
) -> dict[str, list[tuple[int, float]]]:
    """Per news type, the cumulative fraction of URLs reaching >= k distinct
    units, for k = 1, 2, ... up to the observed maximum.

    `reaches` maps each news type to the reach of each of its URLs that
    reached a unit (`UnitWalk.reaches`). A URL with no event of the unit
    (for states no geotagged event, for authors only deleted ones) is left
    out of the denominator, so the curve starts at exactly 1.0.
    """
    curves: dict[str, list[tuple[int, float]]] = {}
    for label, values in sorted(reaches.items()):
        n = len(values)
        exactly = [0] * (max(values) + 1)   # [k]: URLs whose reach is k
        for v in values:
            exactly[v] += 1
        at_least = n
        curve = []
        for k in range(1, len(exactly)):
            curve.append((k, at_least / n))
            at_least -= exactly[k]
        curves[label] = curve
    return curves


@dataclass
class CascadeStat:
    mean_days: float
    median_days: float
    n_urls: int


def cascade_times(
    spreads: Iterable[Spread],
    k: int,
    qualify: str,
) -> dict[str, CascadeStat]:
    """Mean and median time-to-reach-k (in days) per news type, from the
    `UnitWalk.spreads` of one unit: a URL of reach below 2 never qualifies.

    `qualify` selects the population: "at_least" takes every URL that
    reached k or more distinct units, "exactly" only those that stopped at
    exactly k. Empty result for types with no qualifier.
    """
    per_label: dict[str, list[float]] = {}
    for tl, units, seconds in spreads:
        reach = len(units)
        if reach < k or (reach > k and qualify == "exactly"):
            continue
        per_label.setdefault(tl.label, []).append(
            float(seconds[k - 1]) / SECONDS_PER_DAY)
    out: dict[str, CascadeStat] = {}
    for label, days in sorted(per_label.items()):
        out[label] = CascadeStat(
            mean_days=sum(days) / len(days),
            median_days=statistics.median(days),
            n_urls=len(days),
        )
    return out

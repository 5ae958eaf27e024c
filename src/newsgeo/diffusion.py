"""Per-URL cascades: reach distributions and time-to-k curves."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable

from .geolocation import UserLocation
from .news_catalog import NewsComment

SECONDS_PER_DAY = 86_400.0

UNITS = ("authors", "states")


@dataclass(slots=True)
class TimelineEvent:
    created_utc: int
    author: str
    state: str | None
    subreddit: str
    comment_id: str


@dataclass
class UrlTimeline:
    url: str
    label: str
    events: list[TimelineEvent] = field(default_factory=list)

    def sort(self) -> None:
        # total order: timestamp, then comment id for stable ties
        self.events.sort(key=lambda e: (e.created_utc, e.comment_id))

    def distinct_units(self, unit: str) -> int:
        if unit == "authors":
            return len({e.author for e in self.events})
        if unit == "states":
            return len({e.state for e in self.events if e.state is not None})
        raise ValueError(f"unknown unit {unit!r}")

    def time_to_reach(self, unit: str, k: int) -> float | None:
        """Seconds from the first event to the one that first raises the
        distinct-unit count to k; None if k is never reached."""
        if not self.events:
            return None
        first_ts = self.events[0].created_utc
        seen: set[str] = set()
        for e in self.events:
            key = e.author if unit == "authors" else e.state
            if unit == "states" and key is None:
                continue
            seen.add(key)
            if len(seen) >= k:
                return float(e.created_utc - first_ts)
        return None


def build_url_timelines(
    news_comments: Iterable[NewsComment],
    locations: dict[str, UserLocation],
) -> dict[str, UrlTimeline]:
    """One timeline per distinct URL; events carry the author's state when
    the author is geotagged."""
    timelines: dict[str, UrlTimeline] = {}
    for nc in news_comments:
        tl = timelines.get(nc.url)
        if tl is None:
            tl = timelines[nc.url] = UrlTimeline(url=nc.url, label=nc.label)
        loc = locations.get(nc.author)
        state = loc.state if loc is not None else None
        tl.events.append(TimelineEvent(
            created_utc=nc.created_utc,
            author=nc.author,
            state=state,
            subreddit=nc.subreddit,
            comment_id=nc.comment_id,
        ))
    for tl in timelines.values():
        tl.sort()
    return timelines


def reach_distribution(
    timelines: Iterable[UrlTimeline], unit: str
) -> dict[str, list[tuple[int, float]]]:
    """Per news type, the cumulative fraction of URLs reaching >= k distinct
    units, for k = 1, 2, ... up to the observed maximum.

    For unit="states" only timelines with at least one geotagged event enter
    the denominator, so the curve starts at exactly 1.0.
    """
    reaches: dict[str, list[int]] = {}
    for tl in timelines:
        r = tl.distinct_units(unit)
        if r == 0:
            continue
        reaches.setdefault(tl.label, []).append(r)
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
    label: str
    unit: str
    k: int
    mean_days: float
    median_days: float
    n_urls: int


def cascade_times(
    timelines: Iterable[UrlTimeline],
    unit: str,
    k: int,
    qualify: str = "at_least",
) -> dict[str, CascadeStat]:
    """Mean and median time-to-reach-k (in days) per news type.

    `qualify` selects the population: "at_least" takes every timeline that
    reached k or more distinct units (the default), "exactly" only those
    that stopped at exactly k. Empty result for types with no qualifier.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if qualify not in ("at_least", "exactly"):
        raise ValueError(f"unknown qualifier {qualify!r}")
    per_label: dict[str, list[float]] = {}
    for tl in timelines:
        reach = tl.distinct_units(unit)
        if (qualify == "at_least" and reach < k) or \
           (qualify == "exactly" and reach != k):
            continue
        # both qualifiers keep only timelines that reach k, so this is a time
        t = tl.time_to_reach(unit, k)
        per_label.setdefault(tl.label, []).append(t / SECONDS_PER_DAY)
    out: dict[str, CascadeStat] = {}
    for label, days in sorted(per_label.items()):
        out[label] = CascadeStat(
            label=label, unit=unit, k=k,
            mean_days=sum(days) / len(days),
            median_days=statistics.median(days),
            n_urls=len(days),
        )
    return out

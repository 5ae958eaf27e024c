"""User-to-user reply pairs and the distance-binned connectivity profile.

A pair exists when one geotagged user replied to another's comment. A reply
whose parent's author ingest could not resolve, such as a reply to a post
(a `t3_` parent), is counted as unresolved. Connectivity at distance d is
the number of interacting pairs in the d bin divided by the exact number of
possible geotagged user pairs whose state centroids fall in that bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .config import EARTH_RADIUS_KM
from .errors import ConfigurationError, FormatError
from .geolocation import state_user_counts
from .states import Reply, by_state, number, read_table, state_code


def load_centroids(path: str) -> dict[str, tuple[float, float]]:
    """Table `state,lat,lon` -> state -> (lat, lon) in degrees; FormatError
    for a latitude outside [-90, 90] or a longitude outside [-180, 180]."""
    return by_state((state_code(state, where), _centroid(lat, lon, where),
                     where)
                    for (state, lat, lon), where in read_table(
                        path, ("state", "lat", "lon")))


def _centroid(lat: str, lon: str, where: str) -> tuple[float, float]:
    point = number(float, lat, where), number(float, lon, where)
    if abs(point[0]) > 90 or abs(point[1]) > 180:
        raise FormatError(f"{where}: centroid {point} is outside latitude "
                          "[-90, 90] or longitude [-180, 180]")
    return point


def centroid_distance(
    a: str, b: str, centroids: dict[str, tuple[float, float]]
) -> float:
    """Haversine great-circle km between state centroids. A state with no
    centroid raises ConfigurationError naming it."""
    try:
        lat1, lon1 = centroids[a]
        lat2, lon2 = centroids[b]
    except KeyError as exc:
        raise ConfigurationError(f"no centroid for state {exc.args[0]!r} "
                                 f"in centroid file") from exc
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + \
        math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


@dataclass
class PairSet:
    """Unordered geotagged user pairs with interaction counts."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    unresolved_parents: int = 0
    skipped: int = 0
    self_replies: int = 0

    def add(self, a: str, b: str) -> None:
        pair = (a, b) if a <= b else (b, a)
        self.counts[pair] = self.counts.get(pair, 0) + 1


def build_interaction_pairs(
    replies: Iterable[Reply],
    locations: dict[str, str | None],
    scope: str,
    state_subreddits: dict[str, str],
) -> PairSet:
    """Extract the unordered reply-pair set between geotagged users.

    Every reply counts once: as a pair event, an unresolved parent (no
    `parent_author`), a self-reply, or skipped (a non-geotagged user, or a
    reply inside a state-mapped subreddit under the non-location scope; the
    possible-pair denominator is unaffected).
    """
    pairs = PairSet()
    for rec in replies:
        if scope == "non_location_subreddits" and \
           rec.subreddit.lower() in state_subreddits:
            pairs.skipped += 1
            continue
        if rec.parent_author is None:
            pairs.unresolved_parents += 1
            continue
        if rec.parent_author == rec.author:
            pairs.self_replies += 1
            continue
        if locations.get(rec.author) is None or \
           locations.get(rec.parent_author) is None:
            pairs.skipped += 1
            continue
        pairs.add(rec.author, rec.parent_author)
    return pairs


@dataclass
class ConnectivityBin:
    d_km: float
    interacting_pairs: int
    possible_pairs: int

    @property
    def connectivity(self) -> float:
        return self.interacting_pairs / self.possible_pairs


def _bin_of(distance: float, bin_km: float) -> float:
    """Bin of a centroid distance: the distance rounded to the nearest
    multiple of `bin_km`, halves up (150 km -> 200 at 100 km bins). A
    same-state pair is 0 km apart, so cross-state pairs under bin_km/2
    share bin 0 with it."""
    return math.floor(distance / bin_km + 0.5) * bin_km


def connectivity_profile(
    pairs: PairSet,
    locations: dict[str, str | None],
    centroids: dict[str, tuple[float, float]],
    bin_km: float,
) -> list[ConnectivityBin]:
    """Interacting vs possible geotagged pairs per distance bin.

    Possible pairs are counted exactly: C(n, 2) within a state (bin 0) and
    n_a * n_b across each distinct state pair, placed in the bin of the
    centroid distance. Each state pair is binned once, and each
    interacting pair takes the bin of its states. Bins with no possible
    pairs are omitted.
    """
    users = state_user_counts(locations)
    states = sorted(users)
    bin_of: dict[tuple[str, str], float] = {}
    possible: dict[float, int] = {}
    for i, a in enumerate(states):
        n_a = users[a]
        bin_of[a, a] = 0.0
        possible[0.0] = possible.get(0.0, 0) + n_a * (n_a - 1) // 2
        for b in states[i + 1:]:
            key = bin_of[a, b] = bin_of[b, a] = _bin_of(
                centroid_distance(a, b, centroids), bin_km)
            possible[key] = possible.get(key, 0) + n_a * users[b]

    interacting: dict[float, int] = {}
    for (u, v) in pairs.counts:
        key = bin_of[locations[u], locations[v]]
        interacting[key] = interacting.get(key, 0) + 1

    return [
        ConnectivityBin(d_km=d, interacting_pairs=interacting.get(d, 0),
                        possible_pairs=n)
        for d, n in sorted(possible.items())
        if n > 0
    ]

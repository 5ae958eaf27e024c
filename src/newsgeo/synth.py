"""Seeded synthetic comment archives with planted ground truth.

Every estimator in the pipeline has a quantity planted here and recorded in
the ledger: user-state assignments (including ties), per-state per-type news
counts generated from a power law with known exponent, an interaction pair
set drawn with a known distance-decay probability, and cascade timelines
with explicit state orders. The archive is byte-for-byte determined by the
seed; one pseudo-random stream per concern, split from the master seed, so
changing one planted feature leaves the others bit-identical.

Each archive line is one record as canonical JSON: the keys sorted, no
spaces, every string escaped to ASCII, the integer `created_utc` bare. The
lines run in `created_utc` then `id` order, with any malformed lines spread
among them: with k malformed lines among n records, the m-th of them is
line min((m+1)*step + m, n + m) of the file, where step = max(1, n // (k+1))
and both count from 0, so the ones whose index would pass the end come last.

`generate` holds each record as its fields, not as its line: its
`created_utc` in an integer array and references to its author, subreddit,
body and parent id, strings that most records share. `SynthOutput.archive`
builds each line as it is read, so `write_outputs` formats and writes the
file a line at a time and no line outlives its write.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .config import LABELS, check_keys
from .errors import ConfigurationError
from .states import STATE_CODES

EPOCH_2016 = 1_451_606_400
SPAN_SECONDS = 4 * 365 * 86_400
KM_PER_DEG_LAT = 111.19492664455873   # 6371 km sphere

NEWS_SUBREDDIT = "newslinks"
GENERAL_SUBREDDIT = "general"

_MALFORMED_LINE = '{"broken json line'
# comment ids are "c" and the record's creation index in 8 digits
_MAX_RECORDS = 10**8


def _latitude(i: int, state_spacing_km: float) -> float:
    """Centroid latitude of the i-th state: the states stand on one
    meridian, `state_spacing_km` apart, northward from 25 degrees."""
    return 25.0 + i * (state_spacing_km / KM_PER_DEG_LAT)


@dataclass
class SynthConfig:
    seed: int = 0
    n_states: int = 50
    base_population: float = 3.0e5
    population_spread: float = 30.0         # max/min population ratio
    base_users: float = 40.0                # users in the smallest state
    users_exponent: float = 1.0
    users_noise_sigma: float = 0.0
    comments_per_user: tuple[int, int] = (1, 4)
    tie_user_fraction: float = 0.0
    deleted_comment_fraction: float = 0.0
    n_malformed_lines: int = 0
    domains_per_type: dict[str, int] = field(default_factory=lambda: {
        "fake": 5, "lowcred": 5, "satire": 3, "reputable": 10})
    circulation_exponents: dict[str, float] = field(default_factory=lambda: {
        label: 1.0 for label in LABELS})
    circulation_base: float = 0.05
    circulation_noise_sigma: float = 0.1
    circulation_residuals: dict[str, list[float]] | None = None
    interaction_users_per_state: int = 0
    connectivity_base: float = 0.0
    connectivity_gamma: float = 0.5
    n_cascade_urls: int = 0
    cascade_states_range: tuple[int, int] = (2, 8)
    cascade_gap_days_range: tuple[float, float] = (1.0, 60.0)
    state_spacing_km: float = 100.0

    def validate(self) -> None:
        if self.n_states < 1 or self.n_states > len(STATE_CODES):
            raise ConfigurationError(f"n_states must be in [1, 50], got {self.n_states}")
        for name in ("tie_user_fraction", "deleted_comment_fraction",
                     "connectivity_base"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v}")
        for name in ("circulation_base", "population_spread"):
            v = getattr(self, name)
            if not v > 0:
                raise ConfigurationError(f"{name} must be > 0, got {v}")
        # a negative count or sigma would be read as 0 but recorded as given,
        # and a negative spacing gives complex pair probabilities
        for name in ("n_malformed_lines", "users_noise_sigma",
                     "circulation_noise_sigma", "interaction_users_per_state",
                     "n_cascade_urls", "state_spacing_km"):
            v = getattr(self, name)
            if not v >= 0:
                raise ConfigurationError(f"{name} must be >= 0, got {v}")
        top = _latitude(self.n_states - 1, self.state_spacing_km)
        if top > 90:
            raise ConfigurationError(
                f"state_spacing_km {self.state_spacing_km} puts the last of "
                f"{self.n_states} states at latitude {top:.1f}, past 90")
        # the smallest state's population, rounded, divides the user counts
        if not self.base_population >= 1:
            raise ConfigurationError(
                f"base_population must be >= 1, got {self.base_population}")
        for name in ("comments_per_user", "cascade_states_range",
                     "cascade_gap_days_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ConfigurationError(
                    f"{name} must not start above its end, got {[low, high]}")
        if self.comments_per_user[0] < 1:
            raise ConfigurationError("comments_per_user must start at 1 or "
                                     f"more, got {list(self.comments_per_user)}")
        # a negative gap posts each cascade in the reverse of its state order
        if self.cascade_gap_days_range[0] < 0:
            raise ConfigurationError(
                "cascade_gap_days_range must start at 0 or more, got "
                f"{list(self.cascade_gap_days_range)}")
        if sorted(self.domains_per_type) != sorted(LABELS) or \
           min(self.domains_per_type.values()) < 1:
            raise ConfigurationError(
                f"domains_per_type must give each of {', '.join(LABELS)} at "
                f"least 1 domain, got {self.domains_per_type}")
        if self.tie_user_fraction > 0 and self.n_states < 2:
            raise ConfigurationError("tie users need at least 2 states")
        if self.n_cascade_urls > 0 and \
           self.cascade_states_range[1] > self.n_states:
            raise ConfigurationError(
                "cascade_states_range exceeds the number of states")
        if self.cascade_states_range[0] < 2 and self.n_cascade_urls > 0:
            raise ConfigurationError("cascades need at least 2 states per URL")
        for name in ("circulation_exponents", "circulation_residuals"):
            unknown = set(getattr(self, name) or ()) - set(LABELS)
            if unknown:
                raise ConfigurationError(
                    f"{name} has unknown news labels {sorted(unknown)}")
        if self.circulation_residuals is not None:
            for label, vec in self.circulation_residuals.items():
                if len(vec) != self.n_states:
                    raise ConfigurationError(
                        f"residual vector for {label!r} has length {len(vec)}, "
                        f"expected {self.n_states}")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthConfig":
        check_keys(cls, data, "synth config key")
        cfg = cls(**{k: (tuple(v) if isinstance(v, list) and
                         isinstance(cls.__dataclass_fields__[k].default, tuple)
                         else v)
                     for k, v in data.items()})
        cfg.validate()
        return cfg


@dataclass(eq=False)
class _Archive:
    """The archive lines in file order, without newlines, built from the
    records' fields each time they are iterated. Record i has id c{i:08d}
    and the i-th entry of each field list."""
    times: array                   # created_utc
    authors: list[str]
    subreddits: list[str]
    bodies: list[str]
    parents: list[str | None]
    order: np.ndarray              # record indices in (created_utc, id) order
    n_malformed: int

    def __len__(self) -> int:
        return len(self.times) + self.n_malformed

    def __iter__(self) -> Iterator[str]:
        k = self.n_malformed
        step = max(1, len(self.times) // (k + 1))
        m = 0
        times, authors, subreddits, bodies, parents = (
            self.times, self.authors, self.subreddits, self.bodies,
            self.parents)
        # a memoryview yields Python ints, which index and format faster
        # than numpy scalars
        for r, i in enumerate(memoryview(self.order)):
            if m < k and (m + 1) * step == r:
                yield _MALFORMED_LINE
                m += 1
            yield _archive_line(f"c{i:08d}", authors[i], subreddits[i],
                                times[i], bodies[i], parents[i])
        for _ in range(m, k):
            yield _MALFORMED_LINE


@dataclass
class SynthOutput:
    """A generated corpus: `archive` iterates the archive lines in file
    order, without newlines, each built as it is read."""
    archive: _Archive
    ledger: dict
    subreddit_states: dict[str, str]
    populations: dict[str, int]
    centroids: dict[str, tuple[float, float]]
    domains: dict[str, list[str]]
    attributes: list[dict]


def _state_subreddit(state: str) -> str:
    return f"{state.lower()}state"


def _archive_line(comment_id: str, author: str, subreddit: str,
                  created_utc: int, body: str,
                  parent_id: str | None = None) -> str:
    """One archive record as canonical JSON: the keys sorted, no spaces,
    every string escaped to ASCII, as `json.dumps(record, sort_keys=True,
    separators=(",", ":"))` writes it."""
    parent = "" if parent_id is None else f',"parent_id":{_escape(parent_id)}'
    return (f'{{"author":{_escape(author)},"body":{_escape(body)},'
            f'"created_utc":{created_utc},"id":{_escape(comment_id)}{parent},'
            f'"subreddit":{_escape(subreddit)}}}')


def _planted_count(expected: float, planted: int, keys: str) -> int:
    """`expected` rounded, once it is known to be finite and to keep the
    `planted` records so far plus that many below `_MAX_RECORDS`. `keys`
    names the config keys the count comes from."""
    count = round(expected) if math.isfinite(expected) else math.inf
    if not planted + count < _MAX_RECORDS:
        raise ConfigurationError(
            f"{keys} give {expected:.6g} with {planted} records planted; "
            f"8-digit comment ids number at most {_MAX_RECORDS} records")
    return count


def generate(config: SynthConfig) -> SynthOutput:
    config.validate()
    streams = np.random.SeedSequence(config.seed).spawn(8)
    rng_users = np.random.default_rng(streams[0])
    rng_ties = np.random.default_rng(streams[1])
    rng_news = np.random.default_rng(streams[2])
    rng_casc = np.random.default_rng(streams[3])
    rng_inter = np.random.default_rng(streams[4])
    rng_deleted = np.random.default_rng(streams[5])
    rng_attrs = np.random.default_rng(streams[6])

    states = list(STATE_CODES[: config.n_states])
    n = config.n_states
    populations = {}
    for i, s in enumerate(states):
        frac = i / (n - 1) if n > 1 else 0.0
        populations[s] = int(round(config.base_population *
                                   config.population_spread ** frac))
    centroids = {s: (_latitude(i, config.state_spacing_km), -95.0)
                 for i, s in enumerate(states)}
    subreddit_states = {_state_subreddit(s): s for s in states}

    domains = {
        label: [f"{label}{i}.example" for i in range(count)]
        for label, count in sorted(config.domains_per_type.items())
    }

    # each record's fields, in creation order
    times = array("q")
    authors: list[str] = []
    subreddits: list[str] = []
    bodies: list[str] = []
    parents: list[str | None] = []

    def new_comment(author, subreddit, created, body, parent_id=None) -> str:
        cid = f"c{len(times):08d}"
        times.append(int(created))
        authors.append(author)
        subreddits.append(subreddit)
        bodies.append(body)
        parents.append(parent_id)
        return cid

    def stamp(rng) -> int:
        return EPOCH_2016 + int(rng.integers(0, SPAN_SECONDS))

    # --- geotagged users and their mapped posts -------------------------
    coef = config.base_users / (populations[states[0]] ** config.users_exponent)
    state_users: dict[str, list[str]] = {}
    mapped_post_counts: dict[str, dict[str, int]] = {}
    assignments: dict[str, str | None] = {}
    cmin, cmax = config.comments_per_user
    for i, s in enumerate(states):
        noise = math.exp(config.users_noise_sigma * rng_users.standard_normal()) \
            if config.users_noise_sigma > 0 else 1.0
        # each user posts at least one record
        n_users = max(2, _planted_count(
            coef * populations[s] ** config.users_exponent * noise,
            len(times), "base_users and users_exponent"))
        state_users[s] = []
        subreddit = _state_subreddit(s)
        for j in range(n_users):
            author = f"u_{s.lower()}_{j:05d}"
            state_users[s].append(author)
            c = _planted_count(int(rng_users.integers(cmin, cmax + 1)),
                               len(times), "comments_per_user")
            mapped_post_counts[author] = {s: c}
            assignments[author] = s
            for _ in range(c):
                new_comment(author, subreddit, stamp(rng_users),
                            "local chatter")

    tie_authors: list[str] = []
    n_regular = sum(len(v) for v in state_users.values())
    n_ties = _planted_count(config.tie_user_fraction * n_regular, len(times),
                            "tie_user_fraction")
    for j in range(n_ties):
        author = f"tie_{j:05d}"
        a_idx = int(rng_ties.integers(0, n - 1))
        a, b = states[a_idx], states[a_idx + 1]
        c = int(rng_ties.integers(1, 4))
        mapped_post_counts[author] = {a: c, b: c}
        assignments[author] = None
        tie_authors.append(author)
        sub_a, sub_b = _state_subreddit(a), _state_subreddit(b)
        for _ in range(c):
            new_comment(author, sub_a, stamp(rng_ties), "tied here")
        for _ in range(c):
            new_comment(author, sub_b, stamp(rng_ties), "tied there")

    # --- per-state per-type news comments (planted power law) -----------
    news_tallies: dict[str, dict[str, int]] = {label: {} for label in LABELS}
    url_seq = 0
    for label in LABELS:
        beta = config.circulation_exponents.get(label, 1.0)
        residuals = (config.circulation_residuals or {}).get(label)
        for i, s in enumerate(states):
            n_users = len(state_users[s])
            log_count = math.log(config.circulation_base) + beta * math.log(n_users)
            if residuals is not None:
                log_count += residuals[i]
            if config.circulation_noise_sigma > 0:
                log_count += config.circulation_noise_sigma * \
                    rng_news.standard_normal()
            # math.exp overflows just past 709
            expected = math.exp(log_count) if log_count < 709 else math.inf
            count = max(1, _planted_count(
                expected, len(times), "circulation_base, circulation_exponents, "
                "circulation_residuals and circulation_noise_sigma"))
            news_tallies[label][s] = count
            pool = domains[label]
            for _ in range(count):
                author = state_users[s][int(rng_news.integers(0, n_users))]
                domain = pool[int(rng_news.integers(0, len(pool)))]
                url = f"https://{domain}/a/{url_seq}"
                url_seq += 1
                new_comment(author, NEWS_SUBREDDIT, stamp(rng_news),
                            f"worth reading {url}")

    # --- cascade URLs with planted state orders -------------------------
    cascades: dict[str, dict] = {}
    kmin, kmax = config.cascade_states_range
    gmin, gmax = config.cascade_gap_days_range
    label_list = sorted(domains)
    # each cascade URL posts at least kmin records
    _planted_count(config.n_cascade_urls * kmin, len(times), "n_cascade_urls")
    for u in range(config.n_cascade_urls):
        label = label_list[int(rng_casc.integers(0, len(label_list)))]
        k = int(rng_casc.integers(kmin, kmax + 1))
        order = [states[int(i)] for i in
                 rng_casc.choice(n, size=k, replace=False)]
        pool = domains[label]
        domain = pool[int(rng_casc.integers(0, len(pool)))]
        url = f"https://{domain}/cascade/{u}"
        t = EPOCH_2016 + int(rng_casc.integers(0, SPAN_SECONDS // 4))
        events = []
        for s in order:
            author = state_users[s][int(rng_casc.integers(0, len(state_users[s])))]
            cid = new_comment(author, NEWS_SUBREDDIT, t,
                              f"spreading {url}")
            events.append([int(t), author, s, cid])
            news_tallies[label][s] = news_tallies[label].get(s, 0) + 1
            gap_days = float(rng_casc.uniform(gmin, gmax))
            t += int(gap_days * 86_400)
        cascades[url] = {"label": label, "state_order": order, "events": events}

    # --- interaction pairs with distance-decay probability --------------
    interaction_pairs: list[list[str]] = []
    if config.interaction_users_per_state > 0 and config.connectivity_base > 0:
        sampled: list[tuple[str, int]] = []   # (author, state position)
        for i, s in enumerate(states):
            take = min(config.interaction_users_per_state, len(state_users[s]))
            sampled.extend((a, i) for a in state_users[s][:take])
        # pair probability by the distance between the two states' positions
        p_at_gap = []
        for gap in range(n):
            d = gap * config.state_spacing_km
            if d == 0:
                p = config.connectivity_base
            else:
                p = config.connectivity_base * \
                    (d / 100.0) ** (-config.connectivity_gamma)
            p_at_gap.append(min(p, 1.0))
        for x in range(len(sampled)):
            a_author, a_pos = sampled[x]
            for y in range(x + 1, len(sampled)):
                b_author, b_pos = sampled[y]
                if rng_inter.random() < p_at_gap[abs(a_pos - b_pos)]:
                    t = stamp(rng_inter)
                    parent = new_comment(a_author, GENERAL_SUBREDDIT, t,
                                         "starting a thread")
                    new_comment(b_author, GENERAL_SUBREDDIT,
                                t + int(rng_inter.integers(60, 86_400)),
                                "replying", parent_id=f"t1_{parent}")
                    interaction_pairs.append(sorted([a_author, b_author]))
    interaction_pairs.sort()

    # --- deleted-author filler ------------------------------------------
    n_deleted = _planted_count(config.deleted_comment_fraction * len(times),
                               len(times), "deleted_comment_fraction")
    for _ in range(n_deleted):
        new_comment("[deleted]", GENERAL_SUBREDDIT, stamp(rng_deleted),
                    "ghost comment")

    # --- state attribute fixture ----------------------------------------
    attributes = []
    for s in states:
        row = {"state": s}
        for col in ("openness", "conscientiousness", "extraversion",
                    "agreeableness", "neuroticism", "cultural_tightness",
                    "political"):
            row[col] = round(float(rng_attrs.standard_normal()), 4)
        row["density"] = round(float(rng_attrs.uniform(2, 400)), 2)
        row["gdp"] = round(float(rng_attrs.uniform(4e4, 8e4)), 0)
        row["minority"] = round(float(rng_attrs.uniform(5, 50)), 2)
        row["no_highschool"] = round(float(rng_attrs.uniform(5, 20)), 2)
        row["population"] = populations[s]
        row["republican"] = round(float(rng_attrs.uniform(-30, 30)), 2)
        row["swing_state"] = int(rng_attrs.random() < 0.2)
        attributes.append(row)

    # --- order the archive ----------------------------------------------
    # ids number the records in creation order with 8 digits, so below
    # _MAX_RECORDS records a stable sort of the creation indices by time puts
    # the lines in (created_utc, id) order
    n_records = len(times)
    order = np.argsort(np.frombuffer(times, dtype=np.int64), kind="stable")
    archive = _Archive(times, authors, subreddits, bodies, parents, order,
                       config.n_malformed_lines)

    state_user_totals = {s: len(v) for s, v in state_users.items()}
    ledger = {
        "seed": config.seed,
        "config": _config_as_dict(config),
        "states": states,
        "populations": populations,
        "n_records": n_records,
        "n_malformed": config.n_malformed_lines,
        "n_deleted_comments": n_deleted,
        "assignments": assignments,
        "tie_authors": tie_authors,
        "mapped_post_counts": mapped_post_counts,
        "state_user_counts": state_user_totals,
        "url_mention_total": url_seq + sum(len(c["events"]) for c in cascades.values()),
        "news_tallies": news_tallies,
        "planted_exponents": dict(config.circulation_exponents),
        "circulation_noise_sigma": config.circulation_noise_sigma,
        "interaction_pairs": interaction_pairs,
        "connectivity": {"base": config.connectivity_base,
                         "gamma": config.connectivity_gamma},
        "cascades": cascades,
        "domains": domains,
    }
    return SynthOutput(archive=archive, ledger=ledger,
                       subreddit_states=subreddit_states,
                       populations=populations, centroids=centroids,
                       domains=domains, attributes=attributes)


def _config_as_dict(config: SynthConfig) -> dict:
    d = asdict(config)
    for k, v in d.items():
        if isinstance(v, tuple):
            d[k] = list(v)
    return d


def write_outputs(output: SynthOutput, outdir: str) -> dict[str, str]:
    """Write the archive plus every auxiliary fixture file a pipeline run
    needs. Returns a name -> path map."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    paths["archive"] = os.path.join(outdir, "archive.ndjson")
    with open(paths["archive"], "w", encoding="utf-8", newline="\n") as fh:
        for line in output.archive:
            fh.write(line)
            fh.write("\n")

    paths["ledger"] = os.path.join(outdir, "ledger.json")
    with open(paths["ledger"], "w", encoding="utf-8") as fh:
        json.dump(output.ledger, fh, indent=1, sort_keys=True)

    for label, domain_list in sorted(output.domains.items()):
        key = f"catalog_{label}"
        paths[key] = os.path.join(outdir, f"{key}.txt")
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(f"# synthetic {label} domains\n")
            fh.writelines(d + "\n" for d in domain_list)

    paths["subreddit_map"] = os.path.join(outdir, "subreddit_states.csv")
    with open(paths["subreddit_map"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subreddit", "state"])
        for sub, state in sorted(output.subreddit_states.items()):
            writer.writerow([sub, state])

    paths["populations"] = os.path.join(outdir, "populations.csv")
    with open(paths["populations"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "population"])
        for state, pop in sorted(output.populations.items()):
            writer.writerow([state, pop])

    paths["centroids"] = os.path.join(outdir, "centroids.csv")
    with open(paths["centroids"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "lat", "lon"])
        for state, (lat, lon) in sorted(output.centroids.items()):
            writer.writerow([state, f"{lat:.6f}", f"{lon:.6f}"])

    paths["attributes"] = os.path.join(outdir, "attributes.csv")
    columns = list(output.attributes[0].keys())
    with open(paths["attributes"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(output.attributes)

    return paths

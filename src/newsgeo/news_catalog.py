"""Labeled news-domain catalog and URL-mention classification.

Catalog files are plain text, one registrable domain per line, `#` comments
allowed. A domain listed under several labels resolves to the most severe
one: fake > lowcred > satire > reputable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .config import LABELS
from .corpus_ingest import DELETED_AUTHOR, UrlMention
from .errors import ConfigurationError, FormatError

logger = logging.getLogger(__name__)

_SEVERITY = {label: i for i, label in enumerate(LABELS)}


@dataclass
class DomainCatalog:
    entries: dict[str, str] = field(default_factory=dict)
    provenance: dict[str, list[str]] = field(default_factory=dict)

    def label_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in LABELS}
        for label in self.entries.values():
            counts[label] += 1
        return counts


@dataclass(slots=True)
class NewsComment:
    comment_id: str
    author: str
    subreddit: str
    created_utc: int
    url: str
    host: str
    domain: str
    label: str


@dataclass
class MatchLedger:
    """Counters of one `classify_mentions` pass: mentions read, and those
    whose host matched no catalog entry."""

    mentions: int = 0
    unmatched: int = 0


@dataclass
class TypeTally:
    """Per-label sets of distinct comments, users, sites and URLs."""

    comments: set = field(default_factory=set)
    users: set = field(default_factory=set)
    sites: set = field(default_factory=set)
    urls: set = field(default_factory=set)

    def counts(self) -> dict[str, int]:
        return {
            "unique_comments": len(self.comments),
            "unique_users": len(self.users),
            "unique_sites": len(self.sites),
            "unique_urls": len(self.urls),
        }


def _normalize_entry(raw: str) -> str | None:
    domain = raw.strip().lower()
    if not domain or domain.startswith("#"):
        return None
    if "//" in domain:
        domain = domain.split("//", 1)[1]
    domain = domain.split("/", 1)[0]
    if domain.startswith("www."):
        domain = domain[4:]
    return domain or None


def load_catalog(label_files: list[tuple[str, str]]) -> DomainCatalog:
    """Build a DomainCatalog from (path, label) pairs.

    Conflicts resolve most-severe-wins; an empty result is a configuration
    error (wrong paths, empty files), and a file that is not UTF-8 a
    FormatError.
    """
    catalog = DomainCatalog()
    for path, label in label_files:
        if label not in _SEVERITY:
            raise ConfigurationError(f"unknown news label {label!r}")
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError:
            raise FormatError(f"{path} is not UTF-8") from None
        for line in lines:
            domain = _normalize_entry(line)
            if domain is None:
                continue
            catalog.provenance.setdefault(domain, [])
            if path not in catalog.provenance[domain]:
                catalog.provenance[domain].append(path)
            current = catalog.entries.get(domain)
            if current is None or _SEVERITY[label] < _SEVERITY[current]:
                catalog.entries[domain] = label
    if not catalog.entries:
        raise ConfigurationError("catalog is empty after loading all label files")
    logger.info("catalog loaded: %s", catalog.label_counts())
    return catalog


def match_host(host: str, catalog: DomainCatalog) -> str | None:
    """Longest catalog entry equal to `host` or a dot-boundary suffix of it;
    None when no entry matches."""
    labels = host.split(".")
    for i in range(len(labels)):
        candidate = ".".join(labels[i:])
        if candidate in catalog.entries:
            return candidate
    return None


def classify_mentions(
    mentions: Iterable[UrlMention],
    catalog: DomainCatalog,
    tallies: dict[str, TypeTally] | None = None,
    *,
    ledger: MatchLedger | None = None,
) -> Iterator[NewsComment]:
    """Emit one NewsComment per (comment, matched URL).

    When `tallies` is given (label -> TypeTally), comment-level tallies are
    accumulated in place: a comment counts once per news type even if it
    holds several same-type URLs. The deleted-author sentinel counts for
    comment/site/url tallies but never as a user. Mentions read and mentions
    left unmatched are counted on `ledger`, so mentions read = NewsComments
    emitted + `ledger.unmatched`.
    """
    led = ledger if ledger is not None else MatchLedger()
    domains: dict[str, str | None] = {}   # host -> match_host(host)
    for mention in mentions:
        led.mentions += 1
        host = mention.host
        if host not in domains:
            domains[host] = match_host(host, catalog)
        domain = domains[host]
        if domain is None:
            led.unmatched += 1
            continue
        label = catalog.entries[domain]
        if tallies is not None:
            tally = tallies.setdefault(label, TypeTally())
            tally.comments.add(mention.comment_id)
            if mention.author != DELETED_AUTHOR:
                tally.users.add(mention.author)
            tally.sites.add(domain)
            tally.urls.add(mention.url)
        yield NewsComment(
            comment_id=mention.comment_id,
            author=mention.author,
            subreddit=mention.subreddit,
            created_utc=mention.created_utc,
            url=mention.url,
            host=host,
            domain=domain,
            label=label,
        )


def validate_trust_scores(
    catalog: DomainCatalog, scores: dict[str, float]
) -> dict[str, float | None]:
    """Arithmetic mean trustworthiness per label over scored catalog domains.

    Labels with no scored domain are reported as None, not an abort.
    """
    sums: dict[str, float] = {label: 0.0 for label in LABELS}
    counts: dict[str, int] = {label: 0 for label in LABELS}
    for domain, score in scores.items():
        label = catalog.entries.get(domain.lower())
        if label is None:
            continue
        sums[label] += score
        counts[label] += 1
    means: dict[str, float | None] = {}
    for label in LABELS:
        means[label] = sums[label] / counts[label] if counts[label] else None
        if counts[label] == 0:
            logger.warning("no scored domains for label %r", label)
    return means

"""Streaming ingestion of newline-delimited comment archives.

One JSON record per line in the Pushshift comment layout. Parsing is
single-pass and tolerant: malformed lines (invalid JSON or UTF-8, missing
fields, wrong field types, a string field holding a lone UTF-16 surrogate)
are counted and skipped, never abort the stream. The same pass notes, for
non-deleted authors, the comments per subreddit and each reply's parent.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator
from urllib.parse import urlsplit

from .errors import DataIntegrityError, FormatError
from .states import DELETED_AUTHOR, Reply, UrlMention

# >50% malformed in this many leading lines means we are reading the wrong file
_FORMAT_PROBE_LINES = 10_000


# slotted and mutable, as the stage-table records in `states` are
@dataclass(slots=True)
class Comment:
    """A parsed archive comment."""

    comment_id: str
    author: str
    subreddit: str
    created_utc: int
    body: str
    parent_id: str | None = None


@dataclass
class StreamLedger:
    """Counters of one pass over an archive: comments parsed and lines
    skipped by `stream_comments`, repeated comments skipped by
    `note_comments`, URLs skipped by `iter_url_mentions`."""

    records: int = 0
    malformed: int = 0
    deleted_author: int = 0
    duplicates: int = 0
    urls_without_host: int = 0


_VALID_PARENT_PREFIXES = ("t1_", "t3_")


def _timestamp(value) -> int:
    """Seconds from a `created_utc` that is not an int: an integral float
    or a numeric string. Booleans and fractional floats are ValueErrors
    rather than silently coerced."""
    if isinstance(value, bool) or \
       isinstance(value, float) and not value.is_integer():
        raise ValueError(f"bad timestamp {value!r}")
    return int(value)


# created_utc must fit a signed 64-bit integer: a larger one, parsed from an
# int, an integral float like 1e300 or a string of digits, would overflow
# the float of a cascade time downstream
_MAX_TIMESTAMP = 2**63 - 1


# json.loads wraps the scanner in type checks and two whitespace regex
# matches per call, which cost about as much as the scan of a short line
_decode = json.JSONDecoder().raw_decode


def _parse_line(line: bytes) -> Comment | None:
    # the line is decoded strictly (a UTF-8-encoded surrogate is invalid
    # UTF-8, and UnicodeDecodeError a ValueError); a leading BOM is dropped.
    # As in json.loads, only JSON whitespace may surround the value.
    try:
        text = line.decode().removeprefix("\ufeff").strip(" \t\n\r")
        obj, end = _decode(text)
    except (ValueError, RecursionError):
        return None
    if end != len(text) or type(obj) is not dict:
        return None
    try:
        comment_id, author = obj["id"], obj["author"]
        subreddit, body = obj["subreddit"], obj["body"]
        created = obj["created_utc"]
        if type(created) is not int:
            created = _timestamp(created)
    except (KeyError, TypeError, ValueError):
        return None
    # text fields must be JSON strings, or a null author becomes user "None";
    # an empty author would read back from replies.csv as no parent author
    if type(comment_id) is not str or type(author) is not str or \
            type(subreddit) is not str or type(body) is not str or \
            not (comment_id and author and subreddit) or \
            not 0 < created <= _MAX_TIMESTAMP:
        return None
    parent = obj.get("parent_id")
    if parent is not None and not (type(parent) is str and
                                   parent.startswith(_VALID_PARENT_PREFIXES)):
        return None
    # only a \uD800-\uDFFF escape decodes to a lone surrogate, which no
    # UTF-8 writer can encode; lines holding one are the only ones checked
    if "\\ud" in text or "\\uD" in text:
        try:
            "".join((comment_id, author, subreddit, body,
                     parent or "")).encode("utf-8")
        except UnicodeEncodeError:
            return None
    return Comment(comment_id, author, subreddit, created, body, parent)


def stream_comments(
    lines: Iterable[bytes],
    *,
    ledger: StreamLedger | None = None,
) -> Iterator[Comment]:
    """Yield Comments from NDJSON byte lines, in file order.

    Malformed lines are skipped and counted on `ledger`. If more than half of
    the first 10k lines are malformed the stream is almost certainly not a
    comment archive and a FormatError is raised.
    """
    led = ledger if ledger is not None else StreamLedger()
    seen = 0
    for line in lines:
        if not line.strip():
            continue
        seen += 1
        record = _parse_line(line)
        if record is None:
            led.malformed += 1
            if seen <= _FORMAT_PROBE_LINES and led.malformed * 2 > seen and seen >= 20:
                raise FormatError(
                    f"{led.malformed}/{seen} leading lines malformed; "
                    "input does not look like a comment archive"
                )
            continue
        led.records += 1
        if record.author == DELETED_AUTHOR:
            led.deleted_author += 1
        yield record


def note_comments(
    records: Iterable[Comment], counts: dict[tuple[str, str], int],
    authors: dict[str, str], replies: list[Reply],
    *,
    ledger: StreamLedger | None = None,
) -> Iterator[Comment]:
    """Yield `records`, noting each comment by a non-deleted author: its
    (author, subreddit) count in `counts`, its id -> author in `authors`,
    and, if it is a reply, a Reply on `replies`. A repeat of a noted
    comment (its id already given to its author) is skipped and counted on
    `ledger`; an id already given to another author raises
    DataIntegrityError."""
    led = ledger if ledger is not None else StreamLedger()
    for rec in records:
        author = rec.author
        if author != DELETED_AUTHOR:
            comment_id = rec.comment_id
            known = authors.get(comment_id)
            if known is not None:
                if known != author:
                    raise DataIntegrityError(
                        f"comment id {comment_id!r} maps to both "
                        f"{known!r} and {author!r}")
                led.duplicates += 1
                continue
            authors[comment_id] = author
            key = author, rec.subreddit
            counts[key] = counts.get(key, 0) + 1
            parent = rec.parent_id
            if parent is not None:
                replies.append(Reply(*key, parent))
        yield rec


def resolve_reply(reply: Reply, authors: dict[str, str]) -> Reply:
    """Set `reply.parent_author` from `authors` (id -> author), once every
    comment is noted, since a parent may follow its reply. Posts are not
    ingested, so a `t3_` parent, like an unknown id, leaves it None."""
    if reply.parent_id.startswith("t1_"):
        reply.parent_author = authors.get(reply.parent_id[3:])
    return reply


# Scheme-anchored scanner; deliberately conservative (recall on bare links
# dominates in comment text, full markdown parsing is not worth the edge cases).
_URL_RE = re.compile(r"https?://[^\s<>\"'`\\]+", re.IGNORECASE)
_TRAILING_PUNCT = ".,;:!?)]}>*"


def extract_urls(body: str) -> list[str]:
    """Every http/https URL in `body`, in order, duplicates preserved.

    Handles bare URLs and markdown link targets; trailing punctuation is
    stripped from matches.
    """
    urls = []
    for m in _URL_RE.finditer(body):
        url = m.group(0).rstrip(_TRAILING_PUNCT)
        if url.lower() in ("http://", "https://"):
            continue
        urls.append(url)
    return urls


# `url` up to the end of its authority: through the first "://", then up to
# the first "/", "?" or "#". urlsplit reads the host from that part alone.
_UP_TO_AUTHORITY = re.compile(r".*?://[^/?#]*", re.DOTALL)


def host_of(url: str) -> str | None:
    """Lowercased host of `url` with any leading "www." removed; None when
    it has none. Each distinct scheme and authority is parsed once."""
    m = _UP_TO_AUTHORITY.match(url)
    return _host(m.group() if m else url)


@functools.lru_cache(maxsize=4096)
def _host(url: str) -> str | None:
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    if not host:
        return None
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    return host or None


def iter_url_mentions(
    records: Iterable[Comment],
    *,
    ledger: StreamLedger | None = None,
) -> Iterator[UrlMention]:
    """A UrlMention for every URL in each record's body, in order, with no
    author for a comment by the deleted-author sentinel.

    A URL with no host (`http:///x`) is skipped and counted on `ledger`, so
    URLs extracted = mentions + `ledger.urls_without_host`.
    """
    led = ledger if ledger is not None else StreamLedger()
    for rec in records:
        # every URL holds "://", and most bodies do not: skip their scan
        body = rec.body
        if "://" not in body:
            continue
        author = rec.author
        if author == DELETED_AUTHOR:
            author = None
        for url in extract_urls(body):
            host = host_of(url)
            if host is None:
                led.urls_without_host += 1
                continue
            yield UrlMention(
                comment_id=rec.comment_id,
                author=author,
                created_utc=rec.created_utc,
                url=url,
                host=host,
            )



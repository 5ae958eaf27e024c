"""The 50 U.S. state codes, and the one CSV codec: every table a stage
reads or writes is opened by `open_table` or written by `write_table`. Each
stage table's record class is declared here, and `CELL_RULES` reads each
cell of a stage table by its record field's type.
DC and territories are excluded end to end."""

# field annotations stay text: `CELL_RULES` is keyed by it, since State,
# StateOrder and Label are all `str` at run time
from __future__ import annotations

import contextlib
import csv
import math
import re
from dataclasses import dataclass

from .config import LABELS
from .errors import ConfigurationError, DataIntegrityError, FormatError

STATE_CODES = (
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA",
    "HI", "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD",
    "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ",
    "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC",
    "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY",
)

STATE_SET = frozenset(STATE_CODES)

# record field annotations, each naming the domain `CELL_RULES` checks
State = str         # one of STATE_CODES
StateOrder = str    # distinct State codes joined by single spaces
Label = str         # one of config.LABELS

# the author of a deleted comment
DELETED_AUTHOR = "[deleted]"


# The stage-table records, one per row of the table each docstring names:
# `cli.Run.write_records` writes a column per field, and `cli._read_records`
# reads each cell by the `CELL_RULES` entry of its field's annotation. `KEY`
# names the fields no two rows share. Records are slotted and mutable: a
# frozen dataclass sets each field through object.__setattr__, which makes
# building one about four times as slow.

@dataclass(slots=True)
class UrlMention:
    """A row of `mentions.csv`: a URL in a comment's body."""

    comment_id: str
    author: str | None
    created_utc: int
    url: str
    host: str


@dataclass(slots=True)
class SubredditCount:
    """A row of `author_subreddits.csv`: an author's comments in a
    subreddit."""

    KEY = ("author", "subreddit")
    author: str
    subreddit: str
    comments: int


@dataclass(slots=True)
class Reply:
    """A row of `replies.csv`: a reply by a non-deleted author, and the
    author of its parent comment; None when
    `corpus_ingest.resolve_reply` finds none."""

    author: str
    subreddit: str
    parent_id: str
    parent_author: str | None = None

    # never true; pipebench/tracer.py reads it and `parent_id` from each
    # reply that interaction.build_interaction_pairs is given
    @property
    def is_deleted_author(self) -> bool:
        return self.author == DELETED_AUTHOR


@dataclass(slots=True)
class NewsComment:
    """A row of `news_comments.csv`: a mention whose host a catalog
    labels."""

    comment_id: str
    author: str | None
    created_utc: int
    url: str
    label: Label


@dataclass(slots=True)
class UserLocation:
    """A row of `user_locations.csv`."""

    KEY = ("author",)
    author: str
    state: State | None                     # None means unassigned (tie)


@dataclass(slots=True)
class Residual:
    """A row of `residuals.csv`: a state's circulation score."""

    KEY = ("news_type", "state")
    news_type: Label
    state: State
    residual: float


@dataclass(slots=True)
class FirstExposure:
    """A row of `first_exposures.csv`: a URL's states in the order they
    were first exposed, space-joined."""

    KEY = ("url",)
    url: str
    label: Label
    states: StateOrder


# a byte that is not UTF-8, decoded with "surrogateescape"
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


@contextlib.contextmanager
def open_table(path):
    """A csv.reader over `path`, decoded as strict UTF-8 with a leading
    byte-order mark, as spreadsheet programs write, dropped. A row the csv
    module rejects, or a byte that is not UTF-8, raises FormatError naming
    the file and line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") \
                from None
        except UnicodeDecodeError:
            raise FormatError(f"{path}: line {_first_bad_line(path)} is "
                              "not UTF-8") from None


def _first_bad_line(path):
    """The number of the first line of `path` that holds a byte that is
    not UTF-8, counted as csv.reader counts lines."""
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        for n, line in enumerate(fh, 1):
            if _NOT_UTF8.search(line):
                return n


def _finite(cell):
    if math.isfinite(value := float(cell)):
        return value
    raise ValueError(cell)


def _state_order(cell):
    codes = cell.split(" ")
    if len(set(codes)) == len(codes) and STATE_SET.issuperset(codes):
        return cell
    raise ValueError(cell)


_STATES = {state: state for state in STATE_CODES}
# a record field's annotation -> the reader of its cells, which raises
# KeyError or ValueError on a cell outside the domain, and the domain's
# name; a `str` field is read as it is
CELL_RULES = {
    "int": (int, "an integer"),
    "float": (_finite, "a finite number"),
    "str | None": (lambda cell: cell or None, None),
    "State": (_STATES.__getitem__, "one of the 50 states"),
    "State | None": ({"": None, **_STATES}.__getitem__,
                     "one of the 50 states"),
    "Label": ({label: label for label in LABELS}.__getitem__, "a news type"),
    "StateOrder": (_state_order, "an order of distinct states"),
}


def write_table(path, header, rows):
    """Write `header`, then each row as it is pulled from `rows`; returns
    the number of rows."""
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for n, row in enumerate(rows, 1):
            writer.writerow(row)
    return n


def read_table(path, columns):
    """Yield (stripped cells, "<path>: line <n>") per data row; skip blank
    and `#` rows, and the first other row if it is the header (its first
    cell names the first column); raise FormatError on a row of the wrong
    width, and as `open_table` does."""
    with open_table(path) as reader:
        first = True
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            cells = [c.strip() for c in row]
            if not any(cells) or cells[0].startswith("#"):
                continue
            if first:
                first = False
                if cells[0].lower() == columns[0]:
                    continue
            if len(cells) != len(columns):
                raise FormatError(f"{where} has {len(cells)} fields, "
                                  f"expected {len(columns)}")
            yield cells, where


def by_state(rows):
    """{state: value} of (state, value, where) rows; a second row for one
    state is a DataIntegrityError."""
    table = {}
    for state, value, where in rows:
        if state in table:
            raise DataIntegrityError(f"{where}: duplicate state row {state!r}")
        table[state] = value
    return table


def state_code(cell, where):
    """The upper-cased code; ConfigurationError outside the 50 states."""
    if (code := cell.strip().upper()) in STATE_SET:
        return code
    raise ConfigurationError(f"{where}: {cell!r} is not one of the 50 states")


def number(kind, cell, where):
    """The int or float `kind` of `cell`, read by its `CELL_RULES` entry;
    FormatError if the rule refuses the cell (`nan` and `inf` included)."""
    read, domain = CELL_RULES[kind.__name__]
    try:
        return read(cell)
    except ValueError:
        raise FormatError(f"{where}: {cell!r} is not {domain}") from None

"""The 50 U.S. state codes, and the reader of the fixed-column state tables.
DC and territories are excluded end to end."""

import csv
import math
import re

from .errors import ConfigurationError, DataIntegrityError, FormatError

STATE_CODES = (
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA",
    "HI", "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD",
    "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ",
    "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC",
    "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY",
)

STATE_SET = frozenset(STATE_CODES)

# read_table decodes with "surrogateescape": a byte that is not UTF-8 becomes
# one of these lone surrogates
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def read_table(path, columns):
    """Yield (stripped cells, "<path>: line <n>") per data row; skip blank
    and `#` rows, and the first other row if it is the header (its first
    cell names the first column); raise FormatError on non-UTF-8, wrong
    width or a row the csv module rejects."""
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        first = True
        try:
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if _NOT_UTF8.search(",".join(row)):
                    raise FormatError(f"{where} is not UTF-8")
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
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") \
                from None


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
    """`kind(cell)`; FormatError if the cell does not parse, or parses to a
    float that is not finite (`nan`, `inf`)."""
    try:
        value = kind(cell)
    except ValueError:
        raise FormatError(f"{where}: not {kind.__name__}: {cell!r}") from None
    if kind is float and not math.isfinite(value):
        raise FormatError(f"{where}: not a finite number: {cell!r}")
    return value

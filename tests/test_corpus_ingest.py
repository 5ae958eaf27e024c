import dataclasses
import json
from urllib.parse import urlsplit

import pytest
from hypothesis import given, strategies as st

from newsgeo.corpus_ingest import (
    StreamLedger,
    _parse_line,
    extract_urls,
    host_of,
    iter_url_mentions,
    note_comments,
    stream_comments,
)
from newsgeo.errors import DataIntegrityError, FormatError
from newsgeo.states import DELETED_AUTHOR, Reply

from conftest import ingest_tables, make_record, ndjson_line


_LINE = ndjson_line("c0", body="see https://a.com/x", parent_id="t1_p")
_RECORD = make_record("c0", body="see https://a.com/x", parent_id="t1_p")
# the valid line with a few arbitrary bytes spliced in somewhere
_CORRUPTED_LINE = st.tuples(st.integers(0, len(_LINE)),
                            st.binary(min_size=1, max_size=4)).map(
    lambda cut: _LINE[:cut[0]] + cut[1] + _LINE[cut[0]:])

# URLs built from the parts urlsplit treats specially: scheme case, "www.",
# userinfo, ports, bracketed IPv6 (balanced or not), and "?" or "#" right
# after the authority; `_NOISE` also puts those characters anywhere
_NOISE = st.text(":/?#@[].%\t\nwW0aZ\u00e9\uff03", max_size=12)
_URL = st.one_of(
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["http://", "https://", "HTTPS://", "Http://",
                             "ftp://", "1http://", "http:/", "//", ""]),
            st.sampled_from(["", "user@", "u:p@", "a@b@"]),
            st.one_of(
                st.sampled_from(["www.", "WWW.", ""]).flatmap(
                    lambda www: st.from_regex(r"[A-Za-z0-9-]{1,8}(\.[a-zA-Z]"
                                              r"{1,4}){0,2}", fullmatch=True)
                    .map(lambda name: www + name)),
                st.sampled_from(["[::1]", "[FE80::1%Eth0]", "[v1.x]",
                                 "[::1", "::1]", "[not-ip]", ""])),
            st.sampled_from(["", ":80", ":", ":x", ":8080"]),
            st.sampled_from(["", "/", "/path", "?", "?q=1", "#", "#frag",
                             "/a?b#c", "?a/b", "#a/b"]),
            _NOISE)),
    _NOISE.map(lambda s: "http://" + s),
    _NOISE)


class TestStreamComments:
    def test_well_formed_lines_pass_through_in_order(self):
        lines = [ndjson_line(f"c{i}") for i in range(3)]
        records = list(stream_comments(lines))
        assert [r.comment_id for r in records] == ["c0", "c1", "c2"]

    def test_truncated_line_is_skipped_and_counted(self):
        lines = [ndjson_line("c0"), ndjson_line("c1")[:20], ndjson_line("c2")]
        ledger = StreamLedger()
        records = list(stream_comments(lines, ledger=ledger))
        assert [r.comment_id for r in records] == ["c0", "c2"]
        assert ledger.malformed == 1
        assert ledger.records == 2

    def test_deleted_author_yielded_but_flagged(self):
        lines = [ndjson_line("c0", author="[deleted]")]
        ledger = StreamLedger()
        records = list(stream_comments(lines, ledger=ledger))
        assert records[0].author == DELETED_AUTHOR
        assert ledger.deleted_author == 1

    def test_mostly_garbage_raises_format_error(self):
        lines = [b"not json at all"] * 100
        with pytest.raises(FormatError):
            list(stream_comments(lines))

    def test_bad_parent_prefix_counts_as_malformed(self):
        lines = [ndjson_line("c0", parent_id="t5_zzz"), ndjson_line("c1")]
        ledger = StreamLedger()
        records = list(stream_comments(lines, ledger=ledger))
        assert [r.comment_id for r in records] == ["c1"]
        assert ledger.malformed == 1

    @pytest.mark.parametrize("line", [
        ndjson_line("c0", created_utc=True),
        ndjson_line("c0", created_utc=False),
        ndjson_line("c0", created_utc=1_451_606_400.5),
        ndjson_line("c0").replace(b"1451606400", b"Infinity"),
        ndjson_line("c0", body="@@").replace(b"@@", b"\xff\xfe"),
        b"[" * 100_000,
        ndjson_line("c0", author="a\ud800"),
        ndjson_line("c0", body="see https://a.com/\udc00x"),
        ndjson_line("c0", author="u_@@x").replace(b"@@", b"\xed\xa0\x80"),
        ndjson_line("c0").decode().encode("utf-16"),
        ndjson_line("c0", author=None),
        ndjson_line("c0", subreddit=["iastate"]),
        ndjson_line(True),
        ndjson_line(123),
        ndjson_line("c0", body=None),
        ndjson_line("c0", parent_id=["t1_p"]),
        ndjson_line("c0", created_utc=2**63),
        ndjson_line("c0", created_utc=10**400),
        ndjson_line("c0", created_utc=1e300),
        ndjson_line("c0", created_utc="9" * 401),
        ndjson_line("c0", author=""),
        ndjson_line("c0", subreddit=""),
    ], ids=["true", "false", "fractional", "infinity", "invalid-utf8",
            "deep-nesting", "surrogate-author", "surrogate-url",
            "utf8-encoded-surrogate", "utf-16", "author-null",
            "subreddit-list", "id-true", "id-int", "body-null",
            "parent-list", "time-2**63", "time-401-digits", "time-1e300",
            "time-401-digit-string", "author-empty", "subreddit-empty"])
    def test_bad_line_counts_as_malformed(self, line):
        ledger = StreamLedger()
        records = list(stream_comments([line, ndjson_line("c1")], ledger=ledger))
        assert [r.comment_id for r in records] == ["c1"]
        assert ledger.malformed == 1

    def test_byte_order_mark_dropped(self):
        line = b"\xef\xbb\xbf" + ndjson_line("c0")
        (rec,) = stream_comments([line])
        assert rec.comment_id == "c0"

    def test_escaped_surrogate_pair_accepted(self):
        line = ndjson_line("c0", author="a\U0001F600")
        assert b"\\ud83d\\ude00" in line
        (rec,) = stream_comments([line])
        assert rec.author == "a\U0001F600"

    # 2**63 - 1 is the last created_utc below the bound
    @pytest.mark.parametrize("created,seconds", [
        (1_451_606_400, 1_451_606_400), (1_451_606_400.0, 1_451_606_400),
        ("1451606400", 1_451_606_400), (2**63 - 1, 2**63 - 1),
        (str(2**63 - 1), 2**63 - 1),
    ], ids=["int", "integral-float", "numeric-string", "largest-int",
            "largest-numeric-string"])
    def test_integral_timestamps_accepted(self, created, seconds):
        (rec,) = stream_comments([ndjson_line("c0", created_utc=created)])
        assert rec.created_utc == seconds

    @given(st.lists(st.one_of(st.binary(max_size=120), st.just(_LINE),
                              _CORRUPTED_LINE), max_size=40))
    def test_arbitrary_byte_lines_only_raise_format_error(self, lines):
        ledger = StreamLedger()
        try:
            records = list(stream_comments(lines, ledger=ledger))
        except FormatError:
            return
        assert len(records) == ledger.records
        assert ledger.records + ledger.malformed == \
            sum(1 for line in lines if line.strip())


def _reference_accepts(line):
    """Whether `json.loads` reads `line` as one JSON value, after its
    strict decode and the removal of its leading BOM."""
    try:
        json.loads(line.decode().removeprefix("\ufeff"))
    except ValueError:
        return False
    return True


# JSON's four whitespace characters, characters that str.strip() also drops
# but JSON does not allow around a value, and the BOM
_PAD = st.text(" \t\n\r\x0b\x0c\x1c\xa0\u2028\ufeff", max_size=3)

_MISSING, _MALFORMED = object(), object()
# (JSON key, value or _MISSING, the record field it becomes or _MALFORMED);
# the first row leaves the line as it is
_FIELD_MUTATIONS = [
    ("id", "c0", "c0"),
    *((key, value, _MALFORMED)
      for key in ("id", "author", "subreddit", "body")
      for value in (None, [], ["x"], True, 7, {}, _MISSING)),
    ("id", "", _MALFORMED),
    ("author", "", _MALFORMED),
    ("subreddit", "", _MALFORMED),
    ("body", "", ""),
    *(("created_utc", value, _MALFORMED)
      for value in (None, [1_451_606_400], True, False, {}, _MISSING, 0, -1,
                    2**63, 10**400, "9" * 401, 1e300, 2.0**63, 0.5, "x")),
    ("created_utc", 2**63 - 1, 2**63 - 1),
    ("created_utc", str(2**63 - 1), 2**63 - 1),
    ("created_utc", 2.0**62, 2**62),
    ("parent_id", None, None),
    ("parent_id", _MISSING, None),
    ("parent_id", "t3_q", "t3_q"),
    *(("parent_id", value, _MALFORMED)
      for value in (["t1_p"], True, 3, {}, "t2_p", "")),
]


def _mutated(key, value):
    """_LINE's text with its `key` set to `value`, or dropped if
    _MISSING."""
    obj = json.loads(_LINE)
    if value is _MISSING:
        del obj[key]
    else:
        obj[key] = value
    return json.dumps(obj)


@given(bom=st.sampled_from(["", "\ufeff"]), prefix=_PAD, suffix=_PAD,
       extra=st.sampled_from(["", "{}", "1", "x", ",", "]", '""']),
       tail=_PAD)
def test_parse_line_accepts_what_json_loads_accepts(bom, prefix, suffix,
                                                     extra, tail):
    # every field mutation in every framing: a line is a record when
    # json.loads reads it and each field has a type the README allows
    for key, value, field in _FIELD_MUTATIONS:
        line = (bom + prefix + _mutated(key, value) + suffix + extra +
                tail).encode()
        expected = None
        if _reference_accepts(line) and field is not _MALFORMED:
            expected = dataclasses.replace(
                _RECORD, **{{"id": "comment_id"}.get(key, key): field})
        assert _parse_line(line) == expected, (key, value)


class TestExtractUrls:
    def test_trailing_dot_stripped(self):
        assert extract_urls("see https://nytimes.com/a.") == \
            ["https://nytimes.com/a"]

    def test_markdown_and_bare_in_order(self):
        body = "[x](https://a.com/1) and https://b.org/2"
        assert extract_urls(body) == ["https://a.com/1", "https://b.org/2"]

    def test_duplicates_preserved(self):
        body = "https://a.com/x https://a.com/x"
        assert extract_urls(body) == ["https://a.com/x", "https://a.com/x"]

    def test_no_urls_gives_empty_list(self):
        assert extract_urls("nothing to see here") == []

    def test_trailing_paren_and_comma(self):
        assert extract_urls("(see https://a.com/p), ok") == ["https://a.com/p"]

    @given(st.text(max_size=300))
    def test_never_crashes_and_is_deterministic(self, body):
        assert extract_urls(body) == extract_urls(body)

    def test_planted_corpus_total(self, rng):
        # plant a known number of URLs across generated bodies
        total = 0
        bodies = []
        for i in range(1000):
            k = int(rng.integers(0, 4))
            urls = [f"https://site{i}-{j}.com/a" for j in range(k)]
            bodies.append("filler " + " plus ".join(urls))
            total += k
        extracted = sum(len(extract_urls(b)) for b in bodies)
        assert extracted == total


class TestHostOf:
    def test_lowercases_and_strips_www(self):
        assert host_of("https://WWW.NYTimes.com/2019/x") == "nytimes.com"

    def test_no_host(self):
        assert host_of("https:///nope") is None

    @given(_URL)
    def test_matches_urlsplit_of_the_whole_url(self, url):
        assert host_of(url) == _reference_host(url)


def _reference_host(url):
    """host_of's definition, applied to the whole URL with no cache."""
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    return (host or "").lower().removeprefix("www.") or None


def test_every_extracted_url_is_a_mention_or_counted(rng):
    # URLs extracted = mentions + urls_without_host, host-less URLs planted
    hostless = ["http:///x", "https://:80/p", "http://www./a", "http://[::1/q"]
    records = []
    planted = 0
    for i in range(500):
        urls = [f"https://site{i}-{j}.com/a"
                for j in range(rng.integers(0, 3))]
        if rng.random() < 0.3:
            urls.append(hostless[i % len(hostless)])
            planted += 1
        records.append(make_record(f"c{i}", body="see " + " and ".join(urls)))
    ledger = StreamLedger()
    mentions = list(iter_url_mentions(records, ledger=ledger))
    extracted = sum(len(extract_urls(r.body)) for r in records)
    assert planted > 0
    assert ledger.urls_without_host == planted
    assert extracted == len(mentions) + ledger.urls_without_host


def test_deleted_author_mention_has_no_author():
    # the deleted-author sentinel is no user; its URLs are still mentions
    records = [make_record("c0", author=DELETED_AUTHOR,
                           body="https://a.com/x https://b.com/y"),
               make_record("c1", body="https://a.com/z")]
    assert [(m.comment_id, m.author) for m in iter_url_mentions(records)] == \
        [("c0", None), ("c0", None), ("c1", "alice")]


def noted_authors(records):
    """The id -> author index `note_comments` builds over `records`."""
    authors = {}
    for _ in note_comments(records, {}, authors, []):
        pass
    return authors


class TestAuthorIndex:
    def test_two_distinct_authors(self):
        records = [make_record("c1", author="a"), make_record("c2", author="b")]
        assert noted_authors(records) == {"c1": "a", "c2": "b"}

    def test_deleted_author_excluded(self):
        records = [make_record("c1", author="[deleted]"),
                   make_record("c2", author="[deleted]", parent_id="t1_c1")]
        assert noted_authors(records) == {}
        assert ingest_tables(records) == ([], [])

    def test_conflicting_duplicate_raises(self):
        records = [make_record("c1", author="a"), make_record("c1", author="b")]
        with pytest.raises(DataIntegrityError, match="'c1'"):
            noted_authors(records)

    def test_synthetic_corpus_index_size(self, rng):
        records = []
        expected = 0
        for i in range(10_000):
            deleted = rng.random() < 0.1
            author = "[deleted]" if deleted else f"u{i}"
            if not deleted:
                expected += 1
            records.append(make_record(f"c{i}", author=author))
        assert len(noted_authors(records)) == expected


class TestNoteComments:
    def test_every_record_passes_through(self):
        records = [make_record("c1", author="[deleted]"),
                   make_record("c2", parent_id="t1_c1")]
        assert list(note_comments(records, {}, {}, [])) == records

    def test_counts_per_author_and_subreddit(self):
        records = [make_record("c1", author="a", subreddit="s"),
                   make_record("c2", author="a", subreddit="s"),
                   make_record("c3", author="a", subreddit="S"),
                   make_record("c4", author="b", subreddit="s")]
        counts, _ = ingest_tables(records)
        assert [(r.author, r.subreddit, r.comments) for r in counts] == \
            [("a", "S", 1), ("a", "s", 2), ("b", "s", 1)]

    def test_repeated_comment_is_skipped_and_counted(self):
        # only kept comments are indexed, so a repeated [deleted] comment
        # passes twice
        records = [make_record("c1", author="a", parent_id="t1_c0"),
                   make_record("c2", author="[deleted]"),
                   make_record("c1", author="a", parent_id="t1_c0"),
                   make_record("c2", author="[deleted]")]
        counts, authors, replies = {}, {}, []
        ledger = StreamLedger()
        passed = list(note_comments(records, counts, authors, replies,
                                    ledger=ledger))
        assert [id(rec) for rec in passed] == \
            [id(records[0]), id(records[1]), id(records[3])]
        assert counts == {("a", "general"): 1}
        assert authors == {"c1": "a"}
        assert replies == [Reply("a", "general", "t1_c0")]
        assert ledger.duplicates == 1

    def test_parents_resolve_in_archive_order(self):
        # the first reply's parent comes later in the archive
        records = [make_record("r1", author="a", parent_id="t1_p1"),
                   make_record("p1", author="b", subreddit="x"),
                   make_record("r2", author="b", parent_id="t3_p1"),
                   make_record("r3", author="a", parent_id="t1_gone"),
                   make_record("r4", author="a", subreddit="x",
                               parent_id="t1_p1")]
        _, replies = ingest_tables(records)
        assert replies == [Reply("a", "general", "t1_p1", "b"),
                           Reply("b", "general", "t3_p1", None),
                           Reply("a", "general", "t1_gone", None),
                           Reply("a", "x", "t1_p1", "b")]


def test_stream_extract_composition_is_deterministic():
    lines = [ndjson_line(f"c{i}", body=f"link https://s{i}.com/x") for i in range(50)]
    first = list(iter_url_mentions(stream_comments(lines)))
    second = list(iter_url_mentions(stream_comments(lines)))
    assert first == second

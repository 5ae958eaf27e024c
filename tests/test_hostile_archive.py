"""Hostile archives through every stage: records of a small synthetic
archive are mutated (wrong types, nulls, missing keys, duplicate lines and
ids, byte flips, truncation, huge integers, byte-order marks, empty
strings), and `all` runs on the result in-process. The run ends with a
documented exit code, never an escaping exception, and the counts of each
stage that finished obey their conservation identities."""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from newsgeo import cli
from newsgeo.cli import main
from newsgeo.states import Reply, SubredditCount

CONFIG = {
    "seed": 5,
    "synth": {"n_states": 20, "base_users": 3.0,
              "tie_user_fraction": 0.05,
              "deleted_comment_fraction": 0.02,
              "n_malformed_lines": 3,
              "interaction_users_per_state": 3,
              "connectivity_base": 0.3,
              "n_cascade_urls": 20,
              "cascade_states_range": [2, 6]},
}

# the exit codes the README documents
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}

FIELDS = ("id", "author", "subreddit", "created_utc", "body", "parent_id")
# a JSON value of each type, and values at the edges of the field types
VALUES = (None, True, False, 0, -1, 1.5, 2**63, 10**400, -(10**30), "",
          "None", [], ["x"], {}, {"id": "x"})

_INDEX = st.integers(0, 10**6)
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), _INDEX, st.sampled_from(FIELDS),
              st.sampled_from(VALUES)),
    st.tuples(st.just("drop"), _INDEX, st.sampled_from(FIELDS)),
    st.tuples(st.just("duplicate"), _INDEX),
    st.tuples(st.just("reuse_id"), _INDEX, _INDEX),
    st.tuples(st.just("flip"), _INDEX, _INDEX, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _INDEX, _INDEX),
    st.tuples(st.just("bom"), _INDEX),
)


def _record(line):
    """The JSON object of an archive line, or None if it holds none."""
    try:
        obj = json.loads(line.decode("utf-8").removeprefix("\ufeff"))
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def mutate(lines, mutation):
    """`lines` (bytes, without newlines) with one mutation applied."""
    kind, i = mutation[0], mutation[1] % len(lines)
    line, obj = lines[i], _record(lines[i])
    if kind == "set" and obj is not None:
        obj[mutation[2]] = mutation[3]
    elif kind == "drop" and obj is not None:
        obj.pop(mutation[2], None)
    elif kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    elif kind == "reuse_id" and obj is not None:
        other = _record(lines[mutation[2] % len(lines)])
        if other is not None and "id" in other:
            obj["id"] = other["id"]
    elif kind == "flip" and line:
        j = mutation[2] % len(line)
        line = line[:j] + bytes([line[j] ^ mutation[3]]) + line[j + 1:]
    elif kind == "truncate":
        line = line[:mutation[2] % (len(line) + 1)]
    elif kind == "bom":
        line = b"\xef\xbb\xbf" + line
    if kind in ("set", "drop", "reuse_id") and obj is not None:
        line = json.dumps(obj).encode("utf-8")
    return lines[:i] + [line] + lines[i + 1:]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("hostile")
    cfg = out / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return str(out)


def _rows(out, stage):
    path = os.path.join(out, "manifests", f"{stage}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=4))
def test_hostile_archive_through_all(synth_dir, mutations):
    with tempfile.TemporaryDirectory() as out:
        shutil.copytree(os.path.join(synth_dir, "synth"),
                        os.path.join(out, "synth"))
        path = os.path.join(out, "synth", "archive.ndjson")
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        for mutation in mutations:
            lines = mutate(lines, mutation)
        data = b"\n".join(lines)
        with open(path, "wb") as fh:
            fh.write(data)
        cfg = os.path.join(out, "run.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(CONFIG, fh)

        # an exception other than the CLI's own would escape here
        code = main(["all", "--config", cfg, "--out-dir", out])
        assert code in DOCUMENTED_EXIT_CODES
        rows = {stage: _rows(out, stage) for stage in cli.STAGES[1:]}
        if code == 0:
            assert all(rows.values())

        ingest = rows["ingest"]
        if ingest is None:
            return
        assert ingest["records"] + ingest["malformed"] == \
            sum(1 for line in data.split(b"\n") if line.strip())
        # a name cell of an ingest table is a string the archive holds,
        # never the repr of another JSON value
        held = {""}
        for line in lines:
            obj = _record(line)
            if obj is not None:
                held.update(v for v in obj.values() if isinstance(v, str))
        counts = list(cli._read_records(
            os.path.join(out, "author_subreddits.csv"), SubredditCount))
        replies = list(cli._read_records(
            os.path.join(out, "replies.csv"), Reply))
        assert sum(row.comments for row in counts) == ingest["records"] - \
            ingest["deleted_author"] - ingest["duplicates"]
        for row in counts:
            assert {row.author, row.subreddit} <= held
        for reply in replies:
            assert {reply.author, reply.subreddit, reply.parent_id,
                    reply.parent_author or ""} <= held

        classify, geolocate, connectivity = (
            rows[stage] for stage in ("classify", "geolocate", "connectivity"))
        if classify is not None:
            assert classify["mentions"] == ingest["mentions"] == \
                classify["news_comments"] + classify["unmatched"]
        if geolocate is not None:
            assert geolocate["assigned"] + geolocate["tied"] == \
                geolocate["authors"]
            assert geolocate["authors"] + geolocate["unmapped"] == \
                len({row.author for row in counts})
        if connectivity is not None:
            assert len(replies) == ingest["replies"] == \
                connectivity["pair_events"] + \
                connectivity["unresolved_parents"] + \
                connectivity["skipped"] + connectivity["self_replies"]

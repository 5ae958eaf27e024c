import csv
import json
import os

import numpy as np
import pytest

from newsgeo.cli import main
from newsgeo.config import RunConfig
from newsgeo.corpus_ingest import Comment, note_comments, resolve_reply
from newsgeo.geolocation import resolve_assignments, tally_user_states
from newsgeo.news_catalog import load_catalog
from newsgeo.states import SubredditCount

# the analysis parameters a run takes when its config sets none; a test that
# does not vary a parameter takes it from here
DEFAULTS = RunConfig()


def make_record(comment_id, author="alice", subreddit="general",
                created_utc=1_451_606_400, body="", parent_id=None):
    return Comment(comment_id=comment_id, author=author,
                   subreddit=subreddit, created_utc=created_utc, body=body,
                   parent_id=parent_id)


def ingest_tables(records):
    """The rows ingest writes for `records`: those of author_subreddits.csv
    and those of replies.csv, parents resolved."""
    counts, authors, replies = {}, {}, []
    for _ in note_comments(records, counts, authors, replies):
        pass
    return ([SubredditCount(*key, n) for key, n in sorted(counts.items())],
            [resolve_reply(reply, authors) for reply in replies])


def assign_states(records, subreddit_states):
    """What `geolocate` makes of the table ingest writes for `records`."""
    counts, _ = ingest_tables(records)
    return resolve_assignments(tally_user_states(counts, subreddit_states)[0])


def ndjson_line(comment_id, author="alice", subreddit="general",
                created_utc=1_451_606_400, body="", parent_id=None):
    rec = {"id": comment_id, "author": author, "subreddit": subreddit,
           "created_utc": created_utc, "body": body}
    if parent_id is not None:
        rec["parent_id"] = parent_id
    return json.dumps(rec).encode()


def archive_lines(output):
    """The lines of a synth output's archive, as the bytes `ingest` reads
    from the file `synth.write_outputs` writes."""
    return (line.encode() for line in output.archive)


def artifact_bytes(outdir):
    """Every file a run wrote under `outdir` except the timestamped
    manifests: relative path -> bytes."""
    found = {}
    for root, _, names in os.walk(outdir):
        if os.path.basename(root) == "manifests":
            continue
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, outdir)] = fh.read()
    return found


def run_contagion(tmp_path, exposures, attributes):
    """Run `contagion` with min_states 2 on these first exposures and this
    attributes.csv text; returns the output directory."""
    out = tmp_path / "out"
    (out / "synth").mkdir(parents=True)
    with open(out / "first_exposures.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(
            [["url", "label", "states"]] +
            [[e.url, e.label, e.states] for e in exposures])
    (out / "synth" / "attributes.csv").write_text(attributes)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"min_states": 2}))
    assert main(["contagion", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20160101)


@pytest.fixture
def catalog(tmp_path):
    """Small catalog with one deliberate cross-list conflict."""
    files = []
    for label, domains in [
        ("fake", ["fakery.com", "hoax.net", "sharedsite.org"]),
        ("lowcred", ["clickbait.io", "rumormill.co"]),
        ("satire", ["parody.news"]),
        ("reputable", ["nytimes.com", "bbc.co.uk", "sharedsite.org"]),
    ]:
        path = tmp_path / f"{label}.txt"
        path.write_text("\n".join(domains) + "\n")
        files.append((str(path), label))
    return load_catalog(files)

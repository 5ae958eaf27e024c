"""Output checks: pipeline artifacts against the synth ledger, the exact-count
identities a traced run must satisfy, and the artifact digest."""

from __future__ import annotations

import csv
import hashlib
import json
import os

LABELS = ("fake", "lowcred", "satire", "reputable")


def _load(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _rows(outdir, name):
    with open(os.path.join(outdir, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def output_checks(outdir, ledger, min_states):
    """Yield (check name, passed) for each artifact check; a check whose
    artifact is missing or unreadable fails."""
    def locations():
        return {r["author"]: r["state"] or None
                for r in _rows(outdir, "user_locations.csv")}

    def assignments():
        return locations() == ledger["assignments"]

    def ties_unassigned():
        got = locations()
        return all(got.get(a, "") is None for a in ledger["tie_authors"])

    def state_type_counts():
        got = {}
        for r in _rows(outdir, "state_type_counts.csv"):
            got.setdefault(r["news_type"], {})[r["state"]] = int(r["count"])
        return got == ledger["news_tallies"]

    def ingest_counts():
        rows = _load(outdir, "manifests/ingest.json")["rows"]
        return (rows["records"] == ledger["n_records"]
                and rows["malformed"] == ledger["n_malformed"])

    def pair_total():
        meta = _load(outdir, "connectivity_meta.json")
        return meta["interacting_pairs_total"] == \
            len(ledger["interaction_pairs"])

    def contagion_label(label):
        def check():
            orders = [c["state_order"] for c in ledger["cascades"].values()
                      if c["label"] == label and len(c["state_order"]) >= min_states]
            entry = _load(outdir, "contagion_summary.json")[label]
            return (entry["urls"] == len(orders) and
                    entry["total_weight"] == sum(len(o) - 1 for o in orders))
        return check

    checks = [("assignments", assignments),
              ("tie_authors_unassigned", ties_unassigned),
              ("state_type_counts", state_type_counts),
              ("ingest_counts", ingest_counts),
              ("connectivity_pair_total", pair_total)]
    checks += [(f"contagion_{label}", contagion_label(label)) for label in LABELS]
    for name, check in checks:
        try:
            passed = bool(check())
        except (OSError, KeyError, ValueError, TypeError):
            passed = False
        yield name, passed


def count_identities(counters, ledger):
    """Yield (identity name, passed) for the exact counts of a traced run."""
    lines = ledger["n_records"] + ledger["n_malformed"]
    parsed = counters.get("corpus_ingest.lines_parsed", 0)
    mentions = counters.get("corpus_ingest.iter_url_mentions.items", 0)
    yield "whole_archive_passes", lines > 0 and parsed > 0 and parsed % lines == 0
    yield "mentions_eq_ledger", mentions == ledger["url_mention_total"]
    yield "news_comments_eq_mentions", \
        counters.get("news_catalog.classify_mentions.items", 0) == mentions
    yield "pairs_eq_ledger", \
        counters.get("interaction.pairs", 0) == len(ledger["interaction_pairs"])


def artifact_digest(outdir, skip=("manifests",)):
    """sha256 over every file under `outdir` (path and bytes), skipping the
    named top-level directories."""
    digest = hashlib.sha256()
    for root, dirs, names in os.walk(outdir):
        if root == outdir:
            dirs[:] = [d for d in dirs if d not in skip]
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, outdir).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()

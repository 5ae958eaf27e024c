"""Generator tests, including the central ledger/archive consistency
property: every planted quantity is exactly recomputable from the archive
by the pipeline."""

import hashlib
import json
import math
import os
import tracemalloc

import pytest

from newsgeo.corpus_ingest import (
    StreamLedger,
    build_author_index,
    iter_url_mentions,
    stream_comments,
)
from newsgeo.errors import ConfigurationError
from newsgeo.geolocation import assign_user_states, state_user_counts
from newsgeo.interaction import build_interaction_pairs
from newsgeo.news_catalog import classify_mentions, load_catalog
from newsgeo.stats_core import classify_exponent, fit_scaling
from newsgeo.synth import (
    KM_PER_DEG_LAT,
    SynthConfig,
    _archive_line,
    generate,
    write_outputs,
)


def archive_lines(output):
    return output.archive


def records_of(output, ledger=None):
    return list(stream_comments(archive_lines(output), ledger=ledger))


def catalog_of(output, tmp_path):
    paths = write_outputs(output, str(tmp_path / "synth"))
    return load_catalog([(paths[f"catalog_{label}"], label)
                         for label in sorted(output.domains)])


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        cfg = SynthConfig(seed=42, n_states=8, n_cascade_urls=10,
                          interaction_users_per_state=3,
                          connectivity_base=0.2, tie_user_fraction=0.05)
        a = generate(cfg)
        b = generate(cfg)
        assert list(a.archive) == list(b.archive)
        assert a.ledger == b.ledger

    def test_different_seed_different_bytes(self):
        a = generate(SynthConfig(seed=1, n_states=6))
        b = generate(SynthConfig(seed=2, n_states=6))
        assert list(a.archive) != list(b.archive)


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(tie_user_fraction=1.5).validate()

    def test_cascade_range_exceeds_states(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(n_states=4, n_cascade_urls=5,
                        cascade_states_range=(2, 8)).validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthConfig.from_dict({"not_a_knob": 1})

    @pytest.mark.parametrize("key,value", [
        ("n_states", "50"), ("base_users", None), ("seed", 1.5),
        ("cascade_states_range", [2]), ("domains_per_type", {"fake": "5"}),
        ("circulation_residuals", {"fake": ["x"]}),
        ("circulation_base", 0), ("base_population", 0),
        ("base_population", 0.4), ("population_spread", -1),
        ("comments_per_user", [3, 1]), ("cascade_states_range", [3, 2]),
        ("cascade_gap_days_range", [5, 1]), ("comments_per_user", [-2, 0]),
        ("comments_per_user", [0, 3]),
        ("domains_per_type", {"fake": 5, "satire": 3, "reputable": 10}),
        ("domains_per_type", {"fake": 0, "lowcred": 5, "satire": 3,
                              "reputable": 10}),
        ("domains_per_type", {"fake": -1, "lowcred": 5, "satire": 3,
                              "reputable": 10}),
        ("domains_per_type", {"fake": 5, "lowcred": 5, "satire": 3,
                              "reputable": 10, "bogus": 1}),
        ("n_malformed_lines", -3), ("cascade_gap_days_range", [-5, -1]),
        ("cascade_gap_days_range", [-1, 5]), ("state_spacing_km", -100),
        ("users_noise_sigma", -0.5), ("circulation_noise_sigma", -0.1),
        ("interaction_users_per_state", -2), ("n_cascade_urls", -1),
        ("circulation_residuals", {"bogus": [0] * 50})])
    def test_wrong_type_names_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            SynthConfig.from_dict({key: value})

    @pytest.mark.parametrize("hostile", [
        {"circulation_exponents": {"fake": 500}},
        {"circulation_residuals": {"fake": [800, 0, 0, 0, 0]}},
        {"base_users": 1e300}, {"circulation_base": 1e300},
        {"comments_per_user": [1, 10**12]},
        {"n_cascade_urls": 10**12, "cascade_states_range": [2, 5]}])
    def test_count_past_the_ids_names_key(self, hostile):
        """A planted count that is not finite, or that would take the archive
        to 10**8 records, where the 8-digit ids run out, is rejected before
        any of its records are made."""
        cfg = SynthConfig.from_dict({"n_states": 5, **hostile})
        with pytest.raises(ConfigurationError, match=next(iter(hostile))):
            generate(cfg)

    def test_last_centroid_latitude_at_most_90(self):
        # with two states the second stands one spacing north of 25 degrees
        at_pole = 65 * KM_PER_DEG_LAT
        cfg = SynthConfig(n_states=2, state_spacing_km=at_pole)
        cfg.validate()
        assert generate(cfg).centroids["AK"] == (90.0, -95.0)
        with pytest.raises(ConfigurationError, match="state_spacing_km"):
            SynthConfig(n_states=2, state_spacing_km=math.nextafter(
                at_pole, math.inf)).validate()
        with pytest.raises(ConfigurationError, match="state_spacing_km"):
            SynthConfig(n_states=50, state_spacing_km=500.0).validate()

    def test_from_dict_round_trip(self):
        cfg = SynthConfig.from_dict({"seed": 3, "n_states": 5,
                                     "cascade_states_range": [2, 4]})
        assert cfg.cascade_states_range == (2, 4)


FIXTURE_CONFIG = dict(seed=11, n_states=10, base_users=6.0,
                      tie_user_fraction=0.08,
                      deleted_comment_fraction=0.02,
                      n_malformed_lines=5,
                      n_cascade_urls=25, cascade_states_range=(2, 6),
                      interaction_users_per_state=3,
                      connectivity_base=0.3)


@pytest.fixture(scope="module")
def output():
    return generate(SynthConfig(**FIXTURE_CONFIG))


class TestLedgerConsistency:
    def test_record_and_malformed_counts(self, output):
        ledger = StreamLedger()
        records = records_of(output, ledger)
        assert len(records) == output.ledger["n_records"]
        assert ledger.malformed == output.ledger["n_malformed"]

    def test_url_mention_total(self, output):
        mentions = list(iter_url_mentions(records_of(output)))
        assert len(mentions) == output.ledger["url_mention_total"]

    def test_assignments_match_ledger_exactly(self, output):
        locations, _ = assign_user_states(records_of(output),
                                          output.subreddit_states)
        expected = output.ledger["assignments"]
        got = {a: loc.state for a, loc in locations.items()}
        assert got == expected

    def test_tie_users_all_unassigned(self, output):
        locations, _ = assign_user_states(records_of(output),
                                          output.subreddit_states)
        for author in output.ledger["tie_authors"]:
            assert locations[author].state is None

    def test_state_user_counts(self, output):
        locations, _ = assign_user_states(records_of(output),
                                          output.subreddit_states)
        assert state_user_counts(locations) == output.ledger["state_user_counts"]

    def test_news_tallies_recomputed(self, output, tmp_path):
        catalog = catalog_of(output, tmp_path)
        locations, _ = assign_user_states(records_of(output),
                                          output.subreddit_states)
        counts = {}
        mentions = iter_url_mentions(records_of(output))
        for nc in classify_mentions(mentions, catalog):
            state = locations[nc.author].state
            counts.setdefault(nc.label, {}).setdefault(state, 0)
            counts[nc.label][state] += 1
        for label, per_state in output.ledger["news_tallies"].items():
            assert counts[label] == per_state

    def test_interaction_pairs_recomputed(self, output):
        records = records_of(output)
        index = build_author_index(records)
        locations, _ = assign_user_states(records, output.subreddit_states)
        pairs = build_interaction_pairs(records, index, locations)
        got = sorted([list(p) for p in pairs.counts])
        assert got == output.ledger["interaction_pairs"]

    def test_cascade_timelines_recomputed(self, output, tmp_path):
        catalog = catalog_of(output, tmp_path)
        by_url = {}
        for nc in classify_mentions(iter_url_mentions(records_of(output)),
                                    catalog):
            by_url.setdefault(nc.url, []).append(
                (nc.created_utc, nc.author, nc.comment_id))
        for url, plan in output.ledger["cascades"].items():
            got = sorted(by_url[url])
            expected = sorted((ts, author, cid)
                              for ts, author, _, cid in plan["events"])
            assert got == expected


def canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestArchiveFormat:
    def test_fixture_bytes_pinned(self, output, tmp_path):
        """Recorded with numpy 2.4.6; a deliberate change to the synth bytes
        records new digests."""
        paths = write_outputs(output, str(tmp_path))
        digests = {key: hashlib.sha256(open(paths[key], "rb").read()).hexdigest()
                   for key in ("archive", "ledger")}
        assert digests == {
            "archive": "ba664234a8f8c11f3579af510b5dacc1a1da271c74982b35d20c1a7ea2c2b077",
            "ledger": "9feaa732a9397f5543f35b3867d91d1a54c01fbbc64368314e599cb2fe3a5042"}

    def test_every_line_canonical_in_time_then_id_order(self, output):
        lines = [line for line in output.archive
                 if line != '{"broken json line']
        assert len(lines) == output.ledger["n_records"]
        records = [json.loads(line) for line in lines]
        assert lines == [canonical(r) for r in records]
        keys = [(r["created_utc"], r["id"]) for r in records]
        assert keys == sorted(keys)

    def test_same_second_ties_in_id_order(self):
        # zero-day gaps post every event of a cascade in one second; the
        # shared fixture has no two records in one second
        output = generate(SynthConfig(**FIXTURE_CONFIG,
                                      cascade_gap_days_range=(0, 0)))
        n, k = output.ledger["n_records"], output.ledger["n_malformed"]
        step = max(1, n // (k + 1))
        broken = [i for i, line in enumerate(output.archive)
                  if line == '{"broken json line']
        assert broken == [(m + 1) * step + m for m in range(k)]
        records = [json.loads(line) for line in output.archive
                   if line != '{"broken json line']
        assert len(records) == n
        keys = [(r["created_utc"], r["id"]) for r in records]
        assert len({t for t, _ in keys}) < n
        assert keys == sorted(keys)

    def test_malformed_lines_past_the_end_come_last(self):
        output = generate(SynthConfig(seed=4, n_states=1, base_users=2.0,
                                      comments_per_user=(1, 1),
                                      n_malformed_lines=10))
        n, k = output.ledger["n_records"], output.ledger["n_malformed"]
        lines = list(output.archive)
        assert n < k and len(output.archive) == len(lines) == n + k
        step = max(1, n // (k + 1))
        broken = [i for i, line in enumerate(lines)
                  if line == '{"broken json line']
        assert broken == [min((m + 1) * step + m, n + m) for m in range(k)]
        # from line 2n on come the malformed lines whose index passed the end
        assert broken[n:] == list(range(2 * n, n + k))
        records = [json.loads(line) for line in lines
                   if line != '{"broken json line']
        keys = [(r["created_utc"], r["id"]) for r in records]
        assert len(keys) == n and keys == sorted(keys)

    @pytest.mark.parametrize("text", [
        'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
        "caf\u00e9 \u4e2d\U0001F600", "line\u2028sep\u2029", "lone\ud800",
        "</script>"])
    @pytest.mark.parametrize("parent_id", [None, "t1_c00000001"])
    def test_line_is_json_dumps_of_the_record(self, text, parent_id):
        record = {"id": "c" + text, "author": "a" + text,
                  "subreddit": "s" + text, "created_utc": 1_451_606_400,
                  "body": "b" + text}
        if parent_id is not None:
            record["parent_id"] = parent_id + text
        line = _archive_line(record["id"], record["author"],
                             record["subreddit"], record["created_utc"],
                             record["body"], record.get("parent_id"))
        assert line == canonical(record)


class TestPlantedRecovery:
    def test_planted_beta_recovered(self):
        # one planted exponent per regime, sublinear to superlinear
        planted = {"fake": 0.7, "lowcred": 0.9, "satire": 1.0,
                   "reputable": 1.2}
        # at the default circulation_base of 0.05 the small states of the
        # sublinear label post nothing, drop out of the log fit, and bias
        # its slope far low
        cfg = SynthConfig(seed=5, n_states=50, base_users=10.0,
                          circulation_exponents=planted,
                          circulation_base=1.0,
                          circulation_noise_sigma=0.1)
        output = generate(cfg)
        users = {s: float(n) for s, n in
                 output.ledger["state_user_counts"].items()}
        for label, beta in planted.items():
            per_state = output.ledger["news_tallies"][label]
            fit, _ = fit_scaling(users,
                                 {s: float(c) for s, c in per_state.items()})
            assert fit.beta == pytest.approx(beta, abs=0.05), label
            assert fit.regime == classify_exponent(beta), label

    def test_gamma_zero_is_flat(self):
        cfg = SynthConfig(seed=9, n_states=8, base_users=4.0,
                          interaction_users_per_state=12,
                          connectivity_base=0.4, connectivity_gamma=0.0)
        output = generate(cfg)
        # with no decay, far-apart state pairs interact as often as near ones
        by_gap = {}
        states = output.ledger["states"]
        idx = {s: i for i, s in enumerate(states)}
        assignments = output.ledger["assignments"]
        for a, b in output.ledger["interaction_pairs"]:
            gap = abs(idx[assignments[a]] - idx[assignments[b]])
            by_gap[gap] = by_gap.get(gap, 0) + 1
        # pairs per gap shrink with gap and state size; the rate should not
        n_sampled = {s: min(12, output.ledger["state_user_counts"][s])
                     for s in states}
        possible = {}
        for i, a in enumerate(states):
            possible[0] = possible.get(0, 0) + \
                n_sampled[a] * (n_sampled[a] - 1) // 2
            for j in range(i + 1, len(states)):
                gap = j - i
                possible[gap] = possible.get(gap, 0) + \
                    n_sampled[a] * n_sampled[states[j]]
        rates = {g: by_gap.get(g, 0) / possible[g]
                 for g in possible if possible[g] >= 30}
        for value in rates.values():
            assert value == pytest.approx(0.4, abs=0.2)

    def test_write_outputs_files(self, tmp_path):
        output = generate(SynthConfig(seed=3, n_states=5))
        paths = write_outputs(output, str(tmp_path))
        for key in ("archive", "ledger", "subreddit_map", "populations",
                    "centroids", "attributes", "catalog_fake"):
            assert key in paths
        ledger = json.loads(open(paths["ledger"]).read())
        assert ledger["seed"] == 3


class TestMemory:
    def test_archive_held_as_fields_and_written_by_line(self, tmp_path):
        """`generate` holds the records' fields, not their lines, and
        `write_outputs` builds and writes the lines one at a time."""
        cfg = SynthConfig(seed=3, n_states=2, base_users=30.0,
                          comments_per_user=(40, 50), n_malformed_lines=4)
        tracemalloc.start()
        try:
            output = generate(cfg)
            retained, generate_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            paths = write_outputs(output, str(tmp_path))
            write_peak = tracemalloc.get_traced_memory()[1] - retained
        finally:
            tracemalloc.stop()
        size = os.path.getsize(paths["archive"])
        assert len(output.archive) == output.ledger["n_records"] + 4
        # measured: what generate returns is about 0.68 of the size (holding
        # every line costs 1.73), its transient peak 0.004 and the write peak
        # 0.04; joining the whole archive into one string costs a full size
        # or more in either
        assert retained < size
        assert generate_peak - retained < size / 2
        assert write_peak < size / 4

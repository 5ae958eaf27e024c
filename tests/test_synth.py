"""Generator tests, including the central ledger/archive consistency
property: every planted quantity is exactly recomputable from the archive
by the pipeline."""

import io
import json

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
from newsgeo.scaling_laws import classify_exponent, fit_scaling
from newsgeo.synth import SynthConfig, generate, write_outputs


def archive_lines(output):
    return io.StringIO(output.archive.decode("utf-8"))


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
        assert a.archive == b.archive
        assert a.ledger == b.ledger

    def test_different_seed_different_bytes(self):
        a = generate(SynthConfig(seed=1, n_states=6))
        b = generate(SynthConfig(seed=2, n_states=6))
        assert a.archive != b.archive


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
        ("circulation_residuals", {"fake": ["x"]})])
    def test_wrong_type_names_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            SynthConfig.from_dict({key: value})

    def test_from_dict_round_trip(self):
        cfg = SynthConfig.from_dict({"seed": 3, "n_states": 5,
                                     "cascade_states_range": [2, 4]})
        assert cfg.cascade_states_range == (2, 4)


@pytest.fixture(scope="module")
def output():
    cfg = SynthConfig(seed=11, n_states=10, base_users=6.0,
                      tie_user_fraction=0.08,
                      deleted_comment_fraction=0.02,
                      n_malformed_lines=5,
                      n_cascade_urls=25, cascade_states_range=(2, 6),
                      interaction_users_per_state=3,
                      connectivity_base=0.3)
    return generate(cfg)


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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newsgeo.errors import ConfigurationError, InsufficientDataError
from newsgeo.geolocation import (
    load_subreddit_state_map,
    resolve_assignments,
    state_user_counts,
    tally_user_states,
)
from newsgeo.states import DELETED_AUTHOR, SubredditCount
from newsgeo.stats_core import fit_scaling

from conftest import assign_states, ingest_tables, make_record

SUB_MAP = {"seattle": "WA", "california": "CA", "texas": "TX"}


def posts(author, subreddit, n):
    return [make_record(f"{author}-{subreddit}-{i}", author=author,
                        subreddit=subreddit) for i in range(n)]


class TestLoadMap:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("subreddit,state\nseattle,WA\ncalifornia,CA\n")
        assert load_subreddit_state_map(str(path)) == \
            {"seattle": "WA", "california": "CA"}

    def test_duplicate_consistent_rows_collapse(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("seattle,WA\nSeattle,WA\n")
        assert load_subreddit_state_map(str(path)) == {"seattle": "WA"}

    def test_dc_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("washingtondc,DC\n")
        with pytest.raises(ConfigurationError):
            load_subreddit_state_map(str(path))

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("seattle,WA\nseattle,CA\n")
        with pytest.raises(ConfigurationError):
            load_subreddit_state_map(str(path))


class TestAssignment:
    def test_strict_argmax(self):
        corpus = posts("a", "seattle", 3) + posts("a", "california", 1)
        locations, _ = assign_states(corpus, SUB_MAP)
        assert locations["a"] == "WA"

    def test_tie_is_unassigned(self):
        corpus = posts("a", "seattle", 2) + posts("a", "california", 2)
        locations, summary = assign_states(corpus, SUB_MAP)
        assert locations["a"] is None
        assert summary.fraction_unassigned == 1.0

    def test_deleted_author_never_assigned(self):
        corpus = posts("[deleted]", "seattle", 5)
        locations, _ = assign_states(corpus, SUB_MAP)
        assert locations == {}

    def test_unmapped_subreddits_ignored(self):
        corpus = posts("a", "seattle", 1) + posts("a", "knitting", 50)
        locations, _ = assign_states(corpus, SUB_MAP)
        assert locations["a"] == "WA"
        assert tally_user_states(ingest_tables(corpus)[0], SUB_MAP) == \
            ({"a": {"WA": 1}}, 0)

    def test_tally_sums_comment_counts(self):
        rows = [SubredditCount("a", "Seattle", 2),
                SubredditCount("a", "seattle", 3),
                SubredditCount("a", "texas", 4)]
        tallies, unmapped = tally_user_states(rows, SUB_MAP)
        assert (tallies, unmapped) == ({"a": {"WA": 5, "TX": 4}}, 0)
        assert resolve_assignments(tallies)[0]["a"] == "WA"

    def test_ledger_counts_authors_with_no_mapped_comment(self):
        corpus = (posts("a", "seattle", 1) + posts("a", "knitting", 2)
                  + posts("b", "knitting", 3) + posts("c", "general", 1)
                  + posts("[deleted]", "knitting", 4))
        tallies, unmapped = tally_user_states(ingest_tables(corpus)[0],
                                              SUB_MAP)
        locations, summary = resolve_assignments(tallies)
        assert set(locations) == {"a"}
        assert unmapped == 2          # b and c; never [deleted]
        assert summary.mapped_authors + unmapped == \
            len({r.author for r in corpus if r.author != DELETED_AUTHOR})

    def test_summary_fractions(self):
        corpus = (posts("single", "seattle", 2)
                  + posts("two", "seattle", 3) + posts("two", "california", 1)
                  + posts("tied", "seattle", 1) + posts("tied", "texas", 1))
        _, summary = assign_states(corpus, SUB_MAP)
        assert summary.mapped_authors == 3
        assert summary.fraction_single_state == pytest.approx(1 / 3)
        assert summary.fraction_at_most_two == pytest.approx(1.0)
        assert summary.fraction_unassigned == pytest.approx(1 / 3)
        # unassigned fraction cannot exceed the multi-state fraction
        assert summary.fraction_unassigned <= 1 - summary.fraction_single_state

    def test_order_permutation_invariance(self, rng):
        corpus = (posts("a", "seattle", 3) + posts("a", "california", 2)
                  + posts("b", "texas", 1) + posts("c", "seattle", 1)
                  + posts("c", "texas", 1))
        base, _ = assign_states(corpus, SUB_MAP)
        for _ in range(20):
            shuffled = list(corpus)
            rng.shuffle(shuffled)
            again, _ = assign_states(shuffled, SUB_MAP)
            assert again == base

    def test_argmax_monotonicity(self):
        # adding comments in the current argmax state never changes it
        corpus = posts("a", "seattle", 3) + posts("a", "california", 1)
        locations, _ = assign_states(corpus, SUB_MAP)
        assert locations["a"] == "WA"
        more, _ = assign_states(corpus + posts("a", "seattle", 10), SUB_MAP)
        assert more["a"] == "WA"

    def test_planted_synthetic_assignments(self, rng):
        states = list(SUB_MAP.values())
        subs = {v: k for k, v in SUB_MAP.items()}
        corpus = []
        expected = {}
        for i in range(300):
            author = f"u{i}"
            if rng.random() < 0.1:
                a, b = rng.choice(states, size=2, replace=False)
                c = int(rng.integers(1, 4))
                corpus += posts(author, subs[a], c) + posts(author, subs[b], c)
                expected[author] = None
            else:
                home = states[int(rng.integers(0, len(states)))]
                corpus += posts(author, subs[home], int(rng.integers(1, 5)))
                expected[author] = home
        locations, _ = assign_states(corpus, SUB_MAP)
        assert locations == expected


class TestAdoption:
    def test_exact_power_law(self):
        tallies = {}
        populations = {}
        for i, state in enumerate(["WA", "CA", "TX", "NY", "FL"]):
            populations[state] = 10_000 * (i + 1)
            for j in range(10 * (i + 1)):
                tallies[f"{state.lower()}{j}"] = {state: 1}
        locations, _ = resolve_assignments(tallies)
        fit, _ = fit_scaling(populations, state_user_counts(locations))
        assert fit.beta == pytest.approx(1.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-10)

    def test_planted_exponent_recovered(self, rng):
        populations = {}
        tallies = {}
        states = [f"S{i}" for i in range(50)]
        beta = 1.1
        for i, state in enumerate(states):
            pop = int(1e5 * 30 ** (i / 49))
            populations[state] = pop
            users = max(1, int(round(0.001 * pop ** beta *
                                     np.exp(0.05 * rng.standard_normal()))))
            for j in range(users):
                tallies[f"{state}u{j}"] = {state: 1}
        locations, _ = resolve_assignments(tallies)
        fit, _ = fit_scaling(populations, state_user_counts(locations))
        assert fit.beta == pytest.approx(beta, abs=0.05)

    def test_zero_user_state_excluded(self):
        tallies = {f"u{i}": {"WA": 1} for i in range(5)}
        tallies.update({f"v{i}": {"CA": 1} for i in range(7)})
        tallies.update({f"w{i}": {"TX": 1} for i in range(9)})
        locations, _ = resolve_assignments(tallies)
        fit, _ = fit_scaling({"WA": 100, "CA": 200, "TX": 300, "NY": 400},
                             state_user_counts(locations))
        assert fit.excluded_states == ["NY"]

    def test_too_few_states(self):
        locations, _ = resolve_assignments({"u": {"WA": 1}})
        with pytest.raises(InsufficientDataError):
            fit_scaling({"WA": 100, "CA": 100}, state_user_counts(locations))


def test_state_user_counts():
    tallies = {"a": {"WA": 2}, "b": {"WA": 1}, "c": {"CA": 1},
               "d": {"WA": 1, "CA": 1}}
    locations, _ = resolve_assignments(tallies)
    assert state_user_counts(locations) == {"WA": 2, "CA": 1}

import math
from itertools import combinations

import pytest

from newsgeo import interaction
from newsgeo.corpus_ingest import stream_comments
from newsgeo.interaction import (
    PairSet,
    _bin_of,
    build_interaction_pairs,
    centroid_distance,
    connectivity_profile,
)
from newsgeo.states import DELETED_AUTHOR
from newsgeo.synth import SynthConfig, generate

from conftest import (DEFAULTS, archive_lines, assign_states, ingest_tables,
                      make_record)


CENTROIDS = {
    "WA": (47.4, -120.5),
    "CA": (36.8, -119.4),
    "TX": (31.0, -99.0),
    "NY": (43.0, -75.0),
}


def reply(cid, author, parent_cid, subreddit="general"):
    return make_record(cid, author=author, subreddit=subreddit,
                       parent_id=f"t1_{parent_cid}")


# the subreddit map of the scope tests
STATE_SUBREDDITS = {"seattle": "WA"}


def pairs_of(corpus, locations, scope=DEFAULTS.scope,
             state_subreddits=STATE_SUBREDDITS):
    """The pairs `connectivity` finds in the replies ingest writes."""
    return build_interaction_pairs(ingest_tables(corpus)[1], locations,
                                   scope, state_subreddits)


class TestCentroidDistance:
    def test_same_state_zero(self):
        assert centroid_distance("WA", "WA", CENTROIDS) == 0.0

    def test_identical_coordinates_zero(self):
        # distinct labels, same point
        c = {"WA": (40.0, -100.0), "CA": (40.0, -100.0)}
        assert centroid_distance("WA", "CA", c) == pytest.approx(0.0, abs=1e-9)

    def test_against_law_of_cosines(self):
        # independent spherical-law-of-cosines computation
        for a, b in combinations(CENTROIDS, 2):
            lat1, lon1 = CENTROIDS[a]
            lat2, lon2 = CENTROIDS[b]
            p1, p2 = math.radians(lat1), math.radians(lat2)
            expected = 6371.0 * math.acos(
                min(1.0, math.sin(p1) * math.sin(p2) +
                    math.cos(p1) * math.cos(p2) *
                    math.cos(math.radians(lon2 - lon1))))
            assert centroid_distance(a, b, CENTROIDS) == \
                pytest.approx(expected, abs=0.5)

    def test_symmetry(self):
        assert centroid_distance("WA", "NY", CENTROIDS) == \
            pytest.approx(centroid_distance("NY", "WA", CENTROIDS))


class TestBuildPairs:
    def locations(self):
        return {"a": "WA", "b": "CA", "c": "WA"}

    def test_single_reply_single_pair(self):
        corpus = [make_record("p1", author="b"), reply("c1", "a", "p1")]
        pairs = pairs_of(corpus, self.locations())
        assert pairs.counts == {("a", "b"): 1}

    def test_self_reply_excluded(self):
        corpus = [make_record("p1", author="a"), reply("c1", "a", "p1")]
        pairs = pairs_of(corpus, self.locations())
        assert pairs.counts == {}
        assert pairs.self_replies == 1

    def test_unordered_symmetry(self):
        corpus = [make_record("p1", author="b"), reply("c1", "a", "p1"),
                  make_record("p2", author="a"), reply("c2", "b", "p2")]
        pairs = pairs_of(corpus, self.locations())
        assert pairs.counts == {("a", "b"): 2}

    def test_non_geotagged_excluded(self):
        corpus = [make_record("p1", author="z"), reply("c1", "a", "p1")]
        pairs = pairs_of(corpus, self.locations())
        assert pairs.counts == {}
        assert pairs.skipped == 1

    def test_unresolvable_parent_tallied(self):
        corpus = [reply("c1", "a", "missing")]
        pairs = pairs_of(corpus, self.locations())
        assert pairs.counts == {}
        assert pairs.unresolved_parents == 1

    def test_non_location_scope_excludes_mapped_subreddits(self):
        corpus = [make_record("p1", author="b", subreddit="seattle"),
                  reply("c1", "a", "p1", subreddit="seattle"),
                  make_record("p2", author="b"), reply("c2", "c", "p2")]
        all_scope = pairs_of(corpus, self.locations())
        non_loc = pairs_of(corpus, self.locations(),
                           scope="non_location_subreddits")
        assert set(non_loc.counts) < set(all_scope.counts)
        assert ("b", "c") in non_loc.counts

    def test_t3_parent_is_unresolved(self):
        # only comments are read, so a reply to a post has no known parent
        corpus = [make_record("post9", author="b"),
                  make_record("c1", author="a", parent_id="t3_post9")]
        pairs = pairs_of(corpus, self.locations())
        assert pairs.counts == {}
        assert pairs.unresolved_parents == 1

    def test_brute_force_over_reply_plan(self, rng):
        users = [f"u{i}" for i in range(200)]
        locations = {u: ["WA", "CA", "TX", "NY"][i % 4]
                     for i, u in enumerate(users)}
        corpus = []
        expected = {}
        cid = 0
        for _ in range(600):
            a, b = (users[int(i)] for i in
                    rng.choice(len(users), size=2, replace=False))
            parent = f"p{cid}"
            corpus.append(make_record(parent, author=a))
            corpus.append(reply(f"c{cid}", b, parent))
            pair = tuple(sorted((a, b)))
            expected[pair] = expected.get(pair, 0) + 1
            cid += 1
        pairs = pairs_of(corpus, locations)
        assert pairs.counts == expected

    @pytest.mark.parametrize("scope", ["all_subreddits",
                                       "non_location_subreddits"])
    def test_every_reply_is_counted_once(self, scope):
        out = generate(SynthConfig(seed=5, n_states=6, base_users=6.0,
                                   tie_user_fraction=0.1,
                                   deleted_comment_fraction=0.05,
                                   interaction_users_per_state=3,
                                   connectivity_base=0.5))
        corpus = list(stream_comments(archive_lines(out)))
        locations, _ = assign_states(corpus, out.subreddit_states)
        # plant the drops the generator does not make
        target = next(r for r in corpus if r.author in locations)
        corpus += [reply("x1", target.author, target.comment_id),
                   make_record("x2", author=target.author, parent_id="t3_p"),
                   reply("x3", "not-geotagged", target.comment_id)]
        pairs = pairs_of(corpus, locations, scope=scope,
                         state_subreddits=out.subreddit_states)
        replies = sum(1 for r in corpus
                      if r.parent_id is not None and r.author != DELETED_AUTHOR)
        assert replies == sum(pairs.counts.values()) + \
            pairs.unresolved_parents + pairs.skipped + pairs.self_replies
        assert pairs.self_replies >= 1 and pairs.unresolved_parents >= 1
        assert pairs.skipped >= 1 and pairs.counts


class TestBinOf:
    @pytest.mark.parametrize("d_km,expected", [
        (149.9, 100.0), (150.0, 200.0), (250.0, 300.0), (350.0, 400.0),
        (450.0, 500.0)])
    def test_halves_round_up(self, d_km, expected):
        got = _bin_of(d_km, bin_km=100.0)
        assert got == expected
        assert isinstance(got, float)

    def test_near_cross_state_pair_shares_bin_zero(self):
        # a same-state pair is 0 km apart
        assert _bin_of(49.9, bin_km=100.0) == 0.0
        assert _bin_of(0.0, bin_km=100.0) == 0.0


class TestConnectivityProfile:
    def test_three_users_full_clique(self):
        locations = dict.fromkeys(("a", "b", "c"), "WA")
        pairs = PairSet()
        pairs.add("a", "b")
        pairs.add("a", "c")
        pairs.add("b", "c")
        bins = connectivity_profile(pairs, locations, CENTROIDS,
                                    DEFAULTS.bin_km)
        bin0 = bins[0]
        assert bin0.d_km == 0.0
        assert bin0.possible_pairs == 3
        assert bin0.connectivity == pytest.approx(1.0)

    def test_possible_pairs_sum_to_choose_two(self, rng):
        states = list(CENTROIDS)
        users = {f"u{i}": states[int(rng.integers(0, 4))] for i in range(80)}
        bins = connectivity_profile(PairSet(), users, CENTROIDS,
                                    DEFAULTS.bin_km)
        total = sum(b.possible_pairs for b in bins)
        n = len(users)
        assert total == n * (n - 1) // 2

    def test_brute_force_bin_counts(self, rng):
        states = list(CENTROIDS)
        users = {f"u{i}": states[int(rng.integers(0, 4))] for i in range(60)}
        pairs = PairSet()
        chosen = set()
        names = sorted(users)
        for _ in range(150):
            a, b = (names[int(i)] for i in
                    rng.choice(len(names), size=2, replace=False))
            if users[a] == users[b] and a == b:
                continue
            pairs.add(a, b)
            chosen.add(tuple(sorted((a, b))))
        bin_km = DEFAULTS.bin_km
        bins = connectivity_profile(pairs, users, CENTROIDS, bin_km)
        # oracle: enumerate every unordered user pair
        possible = {}
        interacting = {}
        for a, b in combinations(names, 2):
            sa, sb = users[a], users[b]
            if sa == sb:
                key = 0.0
            else:
                key = math.floor(centroid_distance(sa, sb, CENTROIDS)
                                 / bin_km + 0.5) * bin_km
            possible[key] = possible.get(key, 0) + 1
            if tuple(sorted((a, b))) in chosen:
                interacting[key] = interacting.get(key, 0) + 1
        for b_ in bins:
            assert b_.possible_pairs == possible[b_.d_km]
            assert b_.interacting_pairs == interacting.get(b_.d_km, 0)

    def test_each_state_pair_measured_once(self, monkeypatch, rng):
        # the possible-pairs loop bins each state pair, and every user pair
        # takes the bin of its states from there
        calls = []

        def counted(a, b, centroids):
            calls.append((a, b))
            return centroid_distance(a, b, centroids)

        monkeypatch.setattr(interaction, "centroid_distance", counted)
        users = {f"u{i}": list(CENTROIDS)[i % 4] for i in range(40)}
        pairs = PairSet()
        for a, b in combinations(sorted(users), 2):
            if rng.random() < 0.3:
                pairs.add(a, b)
        bins = connectivity_profile(pairs, users, CENTROIDS, DEFAULTS.bin_km)
        assert len(calls) == len({frozenset(c) for c in calls}) == 6
        assert sum(b.interacting_pairs for b in bins) == len(pairs.counts)

    def test_interacting_never_exceeds_possible(self, rng):
        locations = {f"u{i}": "WA" for i in range(10)}
        pairs = PairSet()
        for a, b in combinations(sorted(locations), 2):
            pairs.add(a, b)
        bins = connectivity_profile(pairs, locations, CENTROIDS,
                                    DEFAULTS.bin_km)
        for b_ in bins:
            assert b_.interacting_pairs <= b_.possible_pairs
            assert 0.0 <= b_.connectivity <= 1.0

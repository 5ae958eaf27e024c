import operator
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newsgeo.diffusion import (
    SECONDS_PER_DAY,
    UNITS,
    UrlTimeline,
    build_url_timelines,
    cascade_times,
    first_exposures,
    reach_distribution,
    walk,
)
from newsgeo.states import NewsComment

from conftest import DEFAULTS


def event(ts, author, state, cid):
    return ts, cid, author, state


def timeline(url, label, events):
    return UrlTimeline(url=url, label=label,
                       events=sorted(events, key=operator.itemgetter(0, 1)))


def news(cid, author, url, ts, label="fake"):
    return NewsComment(comment_id=cid, author=author, created_utc=ts,
                       url=url, label=label)


class TestBuildTimelines:
    def test_same_author_twice(self):
        locations = {"a": "WA"}
        tls = build_url_timelines(
            [news("c1", "a", "u", 10), news("c2", "a", "u", 20)], locations)
        tl = tls["u"]
        assert len(tl.events) == 2
        assert tl.distinct_units("authors") == 1

    def test_mixed_geotagged_state_count(self):
        locations = {"a": "WA"}       # b has no location at all
        tls = build_url_timelines(
            [news("c1", "a", "u", 10), news("c2", "b", "u", 20)], locations)
        assert tls["u"].distinct_units("states") == 1
        assert tls["u"].distinct_units("authors") == 2

    def test_events_sorted_with_stable_ties(self):
        locations = {}
        tls = build_url_timelines(
            [news("c2", "a", "u", 10), news("c1", "b", "u", 10),
             news("c0", "c", "u", 5), news("d1", "a", "v", 3),
             news("d0", "b", "v", 3)], locations)
        assert [cid for _, cid, _, _ in tls["u"].events] == ["c0", "c1", "c2"]
        assert [cid for _, cid, _, _ in tls["v"].events] == ["d0", "d1"]

    def test_planted_cascade_plan(self, rng):
        plan = {}
        comments = []
        cid = 0
        for u in range(30):
            url = f"u{u}"
            k = int(rng.integers(1, 6))
            events = []
            t = 1000
            for j in range(k):
                author = f"a{u}_{j}"
                comments.append(news(f"c{cid}", author, url, t))
                events.append((t, author))
                cid += 1
                t += int(rng.integers(1, 500))
            plan[url] = events
        tls = build_url_timelines(comments, {})
        for url, events in plan.items():
            assert [(ts, author) for ts, _, author, _ in tls[url].events] \
                == events


class TestReach:
    def test_every_url_posted_once(self):
        tls = [timeline(f"u{i}", "fake", [event(1, f"a{i}", "WA", f"c{i}")])
               for i in range(10)]
        curves = reach_distribution(walk(tls, "authors").reaches)
        assert curves["fake"] == [(1, 1.0)]

    def test_monotone_and_starts_at_one(self, rng):
        tls = []
        for i in range(100):
            k = int(rng.integers(1, 8))
            tls.append(timeline(f"u{i}", "fake",
                                [event(j, f"a{j}", None, f"c{i}_{j}")
                                 for j in range(k)]))
        curve = reach_distribution(walk(tls, "authors").reaches)["fake"]
        assert curve[0] == (1, 1.0)
        fractions = [f for _, f in curve]
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    def test_states_ignore_untagged(self):
        tls = [timeline("u", "fake",
                        [event(1, "a", "WA", "c1"), event(2, "b", None, "c2"),
                         event(3, "c", "CA", "c3")])]
        curve = reach_distribution(walk(tls, "states").reaches)["fake"]
        assert curve == [(1, 1.0), (2, 1.0)]

    def test_brute_force_curve(self, rng):
        tls = []
        for i in range(200):
            k = int(rng.integers(1, 10))
            tls.append(timeline(f"u{i}", "fake",
                                [event(j, f"a{int(rng.integers(0, 6))}", None,
                                       f"c{i}_{j}") for j in range(k)]))
        curve = dict(reach_distribution(walk(tls, "authors").reaches)["fake"])
        reaches = [len({author for _, _, author, _ in tl.events})
                   for tl in tls]
        for k in range(1, max(reaches) + 1):
            assert curve[k] == pytest.approx(
                sum(1 for r in reaches if r >= k) / len(reaches))

    @given(st.lists(st.tuples(st.sampled_from(["fake", "satire"]),
                              st.integers(0, 12)), max_size=60))
    def test_matches_the_definition(self, reaches):
        # a timeline of reach r has r distinct authors (and none for r = 0)
        tls = [timeline(f"u{i}", label,
                        [event(j, f"a{j}", None, f"c{i}_{j}")
                         for j in range(r)])
               for i, (label, r) in enumerate(reaches)]
        expected = {}
        for label in sorted({label for label, r in reaches if r}):
            values = [r for lab, r in reaches if lab == label and r]
            expected[label] = [
                (k, sum(v >= k for v in values) / len(values))
                for k in range(1, max(values) + 1)]
        assert reach_distribution(walk(tls, "authors").reaches) == expected


class TestCascadeTimes:
    def test_one_day_to_two_states(self):
        tls = [timeline("u", "fake",
                        [event(0, "a", "WA", "c1"),
                         event(86_400, "b", "CA", "c2")])]
        stats = cascade_times(walk(tls, "states").spreads, 2,
                              DEFAULTS.reach_qualify)
        assert stats["fake"].mean_days == pytest.approx(1.0)
        assert stats["fake"].median_days == pytest.approx(1.0)

    def test_no_qualifier_empty(self):
        tls = [timeline("u", "fake", [event(0, "a", "WA", "c1")])]
        assert cascade_times(walk(tls, "states").spreads, 2,
                             DEFAULTS.reach_qualify) == {}

    def test_exactly_filter(self):
        two = timeline("u1", "fake", [event(0, "a", "WA", "c1"),
                                      event(10, "b", "CA", "c2")])
        three = timeline("u2", "fake", [event(0, "a", "WA", "c3"),
                                        event(10, "b", "CA", "c4"),
                                        event(20, "c", "TX", "c5")])
        both = walk([two, three], "states").spreads
        at_least = cascade_times(both, 2, qualify="at_least")
        exactly = cascade_times(both, 2, qualify="exactly")
        assert at_least["fake"].n_urls == 2
        assert exactly["fake"].n_urls == 1

    def test_time_to_k_nondecreasing_in_k(self, rng):
        for _ in range(50):
            k_events = int(rng.integers(2, 10))
            tl = timeline("u", "fake",
                          [event(int(rng.integers(0, 10_000)),
                                 f"a{int(rng.integers(0, 6))}", None, f"c{j}")
                           for j in range(k_events)])
            reach = tl.distinct_units("authors")
            times = [tl.time_to_reach("authors", k)
                     for k in range(2, reach + 1)]
            assert all(b >= a for a, b in zip(times, times[1:]))

    def test_brute_force_on_synthetic_timelines(self, rng):
        tls = []
        for i in range(500):
            k = int(rng.integers(1, 8))
            tls.append(timeline(
                f"u{i}", "fake",
                [event(int(rng.integers(0, 100_000)),
                       f"a{int(rng.integers(0, 5))}", None, f"c{i}_{j}")
                 for j in range(k)]))
        for k in (2, 3, 4):
            stats = cascade_times(walk(tls, "authors").spreads, k,
                                  qualify="at_least")
            # oracle: recompute from raw event lists
            expected = []
            for tl in tls:
                events = sorted((ts, cid, author)
                                for ts, cid, author, _ in tl.events)
                seen = set()
                hit = None
                for ts, _, author in events:
                    seen.add(author)
                    if len(seen) >= k:
                        hit = ts - events[0][0]
                        break
                if hit is not None and len({a for _, _, a in events}) >= k:
                    expected.append(hit / 86_400.0)
            if not expected:
                assert k not in stats
                continue
            assert stats["fake"].n_urls == len(expected)
            assert stats["fake"].mean_days == \
                pytest.approx(sum(expected) / len(expected))
            assert stats["fake"].median_days == \
                pytest.approx(float(np.median(expected)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from("abcdef"),
                          st.none() | st.sampled_from(["WA", "CA", "TX"])),
                max_size=12),
       st.sampled_from(["authors", "states"]))
def test_time_to_reach_is_a_time_exactly_up_to_the_reach(rows, unit):
    # cascade_times relies on this: a spread that qualifies for k has a
    # time to reach k, so no qualifying timeline is dropped
    tl = timeline("u", "fake", [event(ts, author, state, f"c{i}")
                                for i, (ts, author, state) in enumerate(rows)])
    reach = tl.distinct_units(unit)
    for k in range(1, reach + 1):
        t = tl.time_to_reach(unit, k)
        assert isinstance(t, float) and t >= 0.0
    assert tl.time_to_reach(unit, reach + 1) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reach_curves_on_fuzzed_corpora(seed):
    fuzz = np.random.default_rng(seed)
    tls = []
    for i in range(int(fuzz.integers(1, 40))):
        k = int(fuzz.integers(1, 7))
        tls.append(timeline(
            f"u{i}", "fake",
            [event(int(fuzz.integers(0, 1000)),
                   f"a{int(fuzz.integers(0, 8))}", None, f"c{i}_{j}")
             for j in range(k)]))
    curve = reach_distribution(walk(tls, "authors").reaches)["fake"]
    assert curve[0] == (1, 1.0)
    fractions = [f for _, f in curve]
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))


# The definitions the one walk replaced, kept as its independent oracles:
# a set per reach, a walk per (unit, k), and the first-exposure loop.
def distinct_units_oracle(tl, unit):
    if unit == "authors":
        return len({author for _, _, author, _ in tl.events})
    return len({state for *_, state in tl.events if state is not None})


def time_to_reach_oracle(tl, unit, k):
    if not tl.events:
        return None
    first_ts = tl.events[0][0]
    seen = set()
    for ts, _, author, state in tl.events:
        key = author if unit == "authors" else state
        if unit == "states" and key is None:
            continue
        seen.add(key)
        if len(seen) >= k:
            return float(ts - first_ts)
    return None


def first_exposure_order_oracle(tl):
    order = []
    seen = set()
    for *_, state in tl.events:
        if state is None or state in seen:
            continue
        seen.add(state)
        order.append(state)
    return order


def cascade_times_oracle(tls, unit, k, qualify):
    per_label = {}
    for tl in tls:
        reach = distinct_units_oracle(tl, unit)
        if (qualify == "at_least" and reach < k) or \
           (qualify == "exactly" and reach != k):
            continue
        per_label.setdefault(tl.label, []).append(
            time_to_reach_oracle(tl, unit, k) / SECONDS_PER_DAY)
    return {label: (sum(days) / len(days), statistics.median(days), len(days))
            for label, days in sorted(per_label.items())}


# few timestamps and authors, so ties and repeat posts are common
_rows = st.lists(st.tuples(st.integers(0, 4), st.sampled_from("abcd"),
                           st.none() | st.sampled_from(["WA", "CA", "TX",
                                                        "NY"])),
                 max_size=10)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fake", "satire"]), _rows),
                max_size=12))
def test_one_walk_matches_the_set_based_definitions(cases):
    tls = [timeline(f"u{i}", label,
                    [event(ts, author, state, f"c{j}")
                     for j, (ts, author, state) in enumerate(rows)])
           for i, (label, rows) in enumerate(cases)]
    for unit in UNITS:
        reaches = [distinct_units_oracle(tl, unit) for tl in tls]
        walked = walk(tls, unit)
        expected_reaches = {}
        for tl, reach in zip(tls, reaches):
            if reach:
                expected_reaches.setdefault(tl.label, []).append(reach)
        assert walked.reaches == expected_reaches
        assert walked.spreads == \
            [tl.spread(unit) for tl, reach in zip(tls, reaches) if reach >= 2]
        for tl, reach in zip(tls, reaches):
            _, units, seconds = tl.spread(unit)
            assert len(units) == len(seconds) == reach
            assert tl.distinct_units(unit) == reach
            for k in range(1, reach + 2):
                expected = time_to_reach_oracle(tl, unit, k)
                assert tl.time_to_reach(unit, k) == expected
                assert (float(seconds[k - 1]) if k <= reach
                        else None) == expected
        for k in (2, 3):
            for qualify in ("at_least", "exactly"):
                stats = cascade_times(walked.spreads, k, qualify=qualify)
                assert {label: (s.mean_days, s.median_days, s.n_urls)
                        for label, s in stats.items()} == \
                    cascade_times_oracle(tls, unit, k, qualify)
    orders = [first_exposure_order_oracle(tl) for tl in tls]
    assert [tl.spread("states")[1] for tl in tls] == orders
    assert [(fe.url, fe.label, fe.states.split())
            for fe in first_exposures(walk(tls, "states").spreads)] == \
        [(tl.url, tl.label, order)
         for tl, order in zip(tls, orders) if len(order) >= 2]

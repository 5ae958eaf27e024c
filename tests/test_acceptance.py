"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (visible even under pytest's
output capture) so the whole gate can be read at a glance.
"""

import contextlib
import csv
import itertools
import json
import math
import operator
import os
import time

import numpy as np
import pytest

from newsgeo.cli import main as cli_main
from newsgeo.contagion import (StateGraph, assortativity, infer_state_network,
                               pagerank)
from newsgeo.diffusion import (UrlTimeline, cascade_times, reach_distribution,
                               walk)
from newsgeo.interaction import PairSet, centroid_distance, connectivity_profile
from newsgeo.news_catalog import (label_counts, load_catalog,
                                  validate_trust_scores)
from newsgeo.stats_core import classify_exponent, fit_scaling, ols_fit, step_aic
from newsgeo.states import STATE_CODES

from conftest import DEFAULTS, artifact_bytes, assign_states, make_record
from test_contagion import pagerank_dense_oracle, random_graph
from test_contagion import exposure
from test_stats_core import (exhaustive_best_subset_aic, ols_normal_equations,
                             t_sf_quadrature)


@contextlib.contextmanager
def criterion(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} ({title}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {number:2d} ({title}): PASS", flush=True)


def planted_user_counts():
    return {state: float(int(100 * 30 ** (i / 49)))
            for i, state in enumerate(STATE_CODES)}


def plant_counts(users, beta, sigma, rng):
    # per-type base chosen so the smallest state still gets ~30 counts,
    # keeping integer rounding negligible on the log scale
    u_min = min(users.values())
    base = 30.0 / u_min ** beta
    counts = {}
    for state, u in sorted(users.items()):
        log_c = math.log(base) + beta * math.log(u) \
            + sigma * rng.standard_normal()
        counts[state] = float(max(1, round(math.exp(log_c))))
    return counts


def test_criterion_01_scaling_recovery(capsys):
    with criterion(capsys, 1, "scaling recovery"):
        started = time.monotonic()
        rng = np.random.default_rng(2016)
        users = planted_user_counts()
        planted = {"fake": 0.7, "lowcred": 1.0, "satire": 1.2,
                   "reputable": 1.0}
        for label, beta in planted.items():
            counts = plant_counts(users, beta, 0.1, rng)
            fit, _ = fit_scaling(users, counts)
            assert fit.beta == pytest.approx(beta, abs=0.05)
        for beta, regime in [(0.79, "sublinear"), (0.8, "linear"),
                             (1.09, "linear"), (1.1, "superlinear"),
                             (1.29, "superlinear"), (1.3, "other")]:
            assert classify_exponent(beta) == regime
        assert time.monotonic() - started < 5.0


def test_criterion_02_residual_orthogonality(capsys):
    with criterion(capsys, 2, "residual orthogonality"):
        rng = np.random.default_rng(2017)
        users = planted_user_counts()
        tallies = {label: plant_counts(users, beta, 0.2, rng)
                   for label, beta in [("fake", 0.8), ("lowcred", 1.0),
                                       ("satire", 1.1), ("reputable", 1.2)]}
        int_users = {s: int(u) for s, u in users.items()}
        table = {label: fit_scaling(int_users, tallies[label])
                 for label in sorted(tallies)}
        for _, residuals in table.values():
            states = sorted(residuals)
            eps = np.array([residuals[s] for s in states])
            logs = np.array([math.log(int_users[s]) for s in states])
            assert abs(eps.sum()) < 1e-9
            assert abs(eps @ logs) < 1e-9
        scaled = {label: fit_scaling(int_users, {s: 10 * c for s, c in
                                                 tallies[label].items()})
                  for label in sorted(tallies)}
        for label, (_, residuals) in table.items():
            for s, r in residuals.items():
                assert abs(scaled[label][1][s] - r) < 1e-9


def test_criterion_03_ols_aic_oracle(capsys):
    with criterion(capsys, 3, "OLS/AIC oracle"):
        rng = np.random.default_rng(2018)
        for _ in range(200):
            n = int(rng.integers(12, 61))
            k = int(rng.integers(1, min(9, n - 3)))
            X = rng.standard_normal((n, k))
            y = rng.standard_normal(n)
            fit = ols_fit(X, y)
            coef, rss, se, df = ols_normal_equations(X, y)
            assert np.allclose(fit.coefficients, coef, atol=1e-8)
            tss = float(((y - y.mean()) ** 2).sum())
            r2 = 1.0 - rss / tss
            assert fit.r2 == pytest.approx(r2, abs=1e-8)
            assert fit.adj_r2 == pytest.approx(
                1.0 - (1.0 - r2) * (n - 1) / df, abs=1e-8)
            for t, p in zip(fit.tstats, fit.pvalues):
                assert p == pytest.approx(
                    2 * t_sf_quadrature(abs(t), df), abs=1e-8)
        fit = ols_fit(rng.standard_normal((48, 6)), rng.standard_normal(48))
        assert fit.df_resid == 41


def test_criterion_04_stepwise_selection(capsys):
    with criterion(capsys, 4, "stepwise selection"):
        rng = np.random.default_rng(20160101)
        n = 200
        true = {f"t{i}": rng.standard_normal(n) for i in range(3)}
        noise = {f"n{i}": rng.standard_normal(n) for i in range(3)}
        # signal variance 3*4=12 vs noise variance 0.04: SNR well above 10
        y = sum(2.0 * v for v in true.values()) + 0.2 * rng.standard_normal(n)
        candidates = {**true, **noise}
        result = step_aic(candidates, y)
        assert sorted(result.fit.names) == sorted(true)
        assert tuple(sorted(result.fit.names)) == \
            exhaustive_best_subset_aic(candidates, y)
        for seed in range(40):
            fuzz = np.random.default_rng(seed)
            m = int(fuzz.integers(20, 60))
            cands = {f"v{i}": fuzz.standard_normal(m)
                     for i in range(int(fuzz.integers(1, 7)))}
            trace = step_aic(cands, fuzz.standard_normal(m)).trace
            aics = [step.aic for step in trace]
            assert all(b < a for a, b in zip(aics, aics[1:]))


def test_criterion_05_geolocation(capsys):
    with criterion(capsys, 5, "geolocation"):
        rng = np.random.default_rng(2019)
        subreddit_states = {f"{s.lower()}state": s for s in STATE_CODES}
        records = []
        expected = {}
        tie_users = []
        cid = itertools.count()
        for j in range(1000):
            author = f"user{j:04d}"
            home = STATE_CODES[int(rng.integers(0, 50))]
            if j % 10 == 0:          # planted tie: equal counts, two states
                other = STATE_CODES[(STATE_CODES.index(home) + 1) % 50]
                plan = {home: 2, other: 2}
                expected[author] = None
                tie_users.append(author)
            else:
                other = STATE_CODES[int(rng.integers(0, 50))]
                plan = {home: 3}
                if other != home:
                    plan[other] = int(rng.integers(0, 3))
                expected[author] = home
            for state, count in plan.items():
                for _ in range(count):
                    records.append(make_record(
                        f"c{next(cid)}", author=author,
                        subreddit=f"{state.lower()}state"))
        locations, _ = assign_states(records, subreddit_states)
        assert locations == expected
        assert all(locations[a] is None for a in tie_users)
        for _ in range(20):
            order = [records[int(i)] for i in rng.permutation(len(records))]
            shuffled, _ = assign_states(order, subreddit_states)
            assert shuffled == expected


def test_criterion_06_connectivity(capsys):
    with criterion(capsys, 6, "connectivity"):
        rng = np.random.default_rng(2020)
        states = list(STATE_CODES[:10])
        spacing_deg = 100.0 / 111.19492664455873
        centroids = {s: (25.0 + i * spacing_deg, -95.0)
                     for i, s in enumerate(states)}
        users = {}
        for i, s in enumerate(states):
            for j in range(20):
                users[f"u_{s}_{j}"] = s
        names = sorted(users)
        pairs = PairSet()
        chosen = set()
        gamma = 0.5
        for a, b in itertools.combinations(names, 2):
            d = centroid_distance(users[a], users[b], centroids)
            p = 0.6 if d == 0 else 0.6 * (d / 100.0) ** -gamma
            if rng.random() < p:
                pairs.add(a, b)
                chosen.add((a, b))
        bin_km = DEFAULTS.bin_km
        bins = connectivity_profile(pairs, users, centroids, bin_km)
        # brute-force all-pairs oracle for both numerator and denominator
        possible = {}
        interacting = {}
        for a, b in itertools.combinations(names, 2):
            d = centroid_distance(users[a], users[b], centroids)
            key = 0.0 if users[a] == users[b] else \
                round(d / bin_km) * bin_km
            possible[key] = possible.get(key, 0) + 1
            if (a, b) in chosen:
                interacting[key] = interacting.get(key, 0) + 1
        for b_ in bins:
            assert b_.possible_pairs == possible[b_.d_km]
            assert b_.interacting_pairs == interacting.get(b_.d_km, 0)
        n = len(names)
        assert sum(b_.possible_pairs for b_ in bins) == n * (n - 1) // 2
        xs = [math.log(b_.d_km) for b_ in bins if b_.d_km > 0]
        ys = [math.log(b_.connectivity) for b_ in bins if b_.d_km > 0]
        slope = ols_fit(np.array(xs), np.array(ys),
                        names=["logd"]).coefficient_of("logd")
        assert slope == pytest.approx(-gamma, abs=0.1)


def _random_timeline(rng, url, n_events, n_authors=6):
    events = [(int(rng.integers(0, 100_000)), f"{url}_{j}",
               f"a{int(rng.integers(0, n_authors))}", None)
              for j in range(n_events)]
    events.sort(key=operator.itemgetter(0, 1))
    return UrlTimeline(url=url, label="fake", events=events)


def test_criterion_07_diffusion(capsys):
    with criterion(capsys, 7, "diffusion"):
        for seed in range(50):
            fuzz = np.random.default_rng(seed)
            tls = [_random_timeline(fuzz, f"u{i}", int(fuzz.integers(1, 8)))
                   for i in range(int(fuzz.integers(1, 30)))]
            curve = reach_distribution(walk(tls, "authors").reaches)["fake"]
            assert curve[0] == (1, 1.0)
            fractions = [f for _, f in curve]
            assert all(b <= a for a, b in zip(fractions, fractions[1:]))
        rng = np.random.default_rng(2021)
        tls = [_random_timeline(rng, f"u{i}", int(rng.integers(1, 8)),
                                n_authors=5) for i in range(500)]
        for k in (2, 3, 4):
            stats = cascade_times(walk(tls, "authors").spreads, k,
                                  qualify="at_least")
            expected = []
            for tl in tls:
                events = sorted((ts, cid, author)
                                for ts, cid, author, _ in tl.events)
                seen = set()
                for ts, _, author in events:
                    seen.add(author)
                    if len(seen) >= k:
                        expected.append((ts - events[0][0]) / 86_400.0)
                        break
            assert stats["fake"].n_urls == len(expected)
            assert stats["fake"].mean_days == \
                pytest.approx(float(np.mean(expected)))
            assert stats["fake"].median_days == \
                pytest.approx(float(np.median(expected)))
        for tl in tls:
            reach = tl.distinct_units("authors")
            times = [tl.time_to_reach("authors", k)
                     for k in range(2, reach + 1)]
            assert all(b >= a for a, b in zip(times, times[1:]))


def test_criterion_08_contagion(capsys):
    with criterion(capsys, 8, "contagion"):
        rng = np.random.default_rng(2022)
        records = []
        total = 0.0
        for u in range(60):
            k = int(rng.integers(2, 9))
            order = [STATE_CODES[int(i)]
                     for i in rng.choice(20, size=k, replace=False)]
            records.append(exposure(f"u{u}", "fake", order))
            total += k - 1
        chain = infer_state_network(records, "fake", min_states=2, rule="chain")
        star = infer_state_network(records, "fake", min_states=2, rule="star")
        assert chain.total_weight() == pytest.approx(total)
        assert star.total_weight() == pytest.approx(total)
        for _ in range(50):
            graph = random_graph(rng)
            scores = pagerank(graph, DEFAULTS.damping)
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)
            oracle = pagerank_dense_oracle(graph, DEFAULTS.damping)
            for s in graph.nodes:
                assert scores[s] == pytest.approx(oracle[s], abs=1e-8)
        graph = random_graph(rng, n=12)
        attr = {s: float(rng.standard_normal()) for s in graph.nodes}
        xs, ys = [], []
        for (a, b), w in graph.edges.items():
            xs += [attr[a]] * int(w)
            ys += [attr[b]] * int(w)
        x, y = np.array(xs), np.array(ys)
        expected = float(((x - x.mean()) @ (y - y.mean())) /
                         np.sqrt(((x - x.mean()) ** 2).sum() *
                                 ((y - y.mean()) ** 2).sum()))
        assert assortativity(graph, attr) == pytest.approx(expected,
                                                           abs=1e-10)
        perfect = StateGraph()
        perfect.add_edge("A1", "A2", 2.0)
        perfect.add_edge("B1", "B2", 1.0)
        assert assortativity(perfect, {"A1": 1.0, "A2": 1.0,
                                       "B1": 5.0, "B2": 5.0}) == \
            pytest.approx(1.0)
        anti = StateGraph()
        anti.add_edge("H1", "L1", 1.0)
        anti.add_edge("L2", "H2", 3.0)
        assert assortativity(anti, {"H1": 2.0, "H2": 2.0,
                                    "L1": -2.0, "L2": -2.0}) == \
            pytest.approx(-1.0)


def test_criterion_09_classification(capsys, tmp_path):
    with criterion(capsys, 9, "classification"):
        sizes = {"fake": 933, "lowcred": 1801, "satire": 110}
        files = []
        for label, size in sizes.items():
            path = tmp_path / f"{label}.txt"
            path.write_text("".join(f"{label}{i}.example\n"
                                    for i in range(size)))
            files.append((str(path), label))
        rep = tmp_path / "reputable.txt"
        rep.write_text("".join(f"rep{i}.example\n" for i in range(20)))
        files.append((str(rep), "reputable"))
        catalog = load_catalog(files)
        counts = label_counts(catalog)
        assert counts["fake"] == 933
        assert counts["lowcred"] == 1801
        assert counts["satire"] == 110
        # fact-checker score fixture: means land exactly on the published
        # averages, reputable > lowcred > fake
        scores = {}
        for i in range(20):
            scores[f"rep{i}.example"] = 0.66
            scores[f"lowcred{i}.example"] = 0.10
            scores[f"fake{i}.example"] = 0.02
        means = validate_trust_scores(catalog, scores)
        assert means["reputable"] == pytest.approx(0.66)
        assert means["lowcred"] == pytest.approx(0.10)
        assert means["fake"] == pytest.approx(0.02)
        assert means["reputable"] > means["lowcred"] > means["fake"]
        by_label = {}
        for d, s in scores.items():
            by_label.setdefault(catalog[d], []).append(s)
        for label, vals in by_label.items():
            assert means[label] == pytest.approx(sum(vals) / len(vals))


E2E_CONFIG = {
    "seed": 12,
    "synth": {"n_states": 50, "base_users": 55.0,
              "comments_per_user": [2, 6],
              "tie_user_fraction": 0.02,
              "deleted_comment_fraction": 0.01,
              "n_malformed_lines": 20,
              "interaction_users_per_state": 4,
              "connectivity_base": 0.3,
              "n_cascade_urls": 60,
              "cascade_states_range": [2, 8]},
}


def _run_e2e(cfg_path, outdir):
    args = ["--config", cfg_path, "--out-dir", outdir]
    assert cli_main(["synth", *args]) == 0
    assert cli_main(["all", *args]) == 0


def test_criterion_10_end_to_end(capsys, tmp_path):
    with criterion(capsys, 10, "end-to-end pipeline"):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(E2E_CONFIG))
        outdir = str(tmp_path / "out")
        started = time.monotonic()
        _run_e2e(str(cfg_path), outdir)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

        ledger = json.loads(open(os.path.join(outdir, "synth",
                                              "ledger.json")).read())
        assert ledger["n_records"] >= 100_000

        # ledger assertions: assignments, tie users, per-state news tallies
        got = {}
        with open(os.path.join(outdir, "user_locations.csv"),
                  newline="") as fh:
            for row in csv.DictReader(fh):
                got[row["author"]] = row["state"] or None
        assert got == ledger["assignments"]
        assert all(got[a] is None for a in ledger["tie_authors"])
        tallies = {}
        with open(os.path.join(outdir, "state_type_counts.csv"),
                  newline="") as fh:
            for row in csv.DictReader(fh):
                tallies.setdefault(row["news_type"], {})[row["state"]] = \
                    int(row["count"])
        for label, per_state in ledger["news_tallies"].items():
            assert tallies[label] == per_state

        # byte-identical rerun (manifests carry wall times, peaks and
        # timestamps, and are excluded)
        outdir2 = str(tmp_path / "out2")
        _run_e2e(str(cfg_path), outdir2)
        first = artifact_bytes(outdir)
        second = artifact_bytes(outdir2)
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"

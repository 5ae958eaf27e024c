import csv
import operator

import numpy as np
import pytest

from newsgeo.contagion import (
    StateGraph,
    assortativity,
    infer_state_network,
    pagerank,
)
from newsgeo.diffusion import UrlTimeline, first_exposures, walk
from newsgeo.errors import UndefinedCorrelationError
from newsgeo.states import FirstExposure

from conftest import DEFAULTS, run_contagion


def exposure(url, label, state_order, start=0, gap=100):
    """The first-exposure record `diffusion` writes for a URL whose i-th
    post comes from state_order[i]."""
    events = [(start + i * gap, f"{url}_{i}", f"a{i}", state)
              for i, state in enumerate(state_order)]
    events.sort(key=operator.itemgetter(0, 1))
    tl = UrlTimeline(url=url, label=label, events=events)
    [record] = first_exposures(walk([tl], "states").spreads)
    return record


def random_graph(rng, n=10, p=0.5):
    graph = StateGraph()
    nodes = [f"S{i}" for i in range(n)]
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < p:
                graph.add_edge(a, b, float(rng.integers(1, 6)))
    return graph


def pagerank_dense_oracle(graph, damping, iterations=500):
    """Dense power iteration on the explicit Google matrix."""
    nodes = graph.nodes
    n = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}
    W = np.zeros((n, n))
    for (a, b), w in graph.edges.items():
        W[idx[a], idx[b]] = w
    out = W.sum(axis=1)
    P = np.zeros((n, n))
    for i in range(n):
        if out[i] > 0:
            P[i] = W[i] / out[i]
        else:
            P[i] = 1.0 / n
    G = damping * P + (1 - damping) / n
    v = np.full(n, 1.0 / n)
    for _ in range(iterations):
        v = v @ G
    v /= v.sum()
    return {s: float(v[idx[s]]) for s in nodes}


class TestInference:
    def test_chain_rule_edges(self):
        record = exposure("u", "fake", ["CA", "TX", "NY"])
        graph = infer_state_network([record], "fake", min_states=2,
                                    rule="chain")
        assert graph.edges == {("CA", "TX"): 1.0, ("TX", "NY"): 1.0}

    def test_star_rule_edges(self):
        record = exposure("u", "fake", ["CA", "TX", "NY"])
        graph = infer_state_network([record], "fake", min_states=2,
                                    rule="star")
        assert graph.edges == {("CA", "TX"): 1.0, ("CA", "NY"): 1.0}

    def test_min_states_cut(self):
        records = [exposure("u1", "fake", ["CA", "TX"]),
                   exposure("u2", "fake", ["CA", "TX", "NY", "WA", "OH"])]
        graph = infer_state_network(records, "fake", min_states=5,
                                    rule=DEFAULTS.rule)
        assert graph.metadata["urls"] == 1

    def test_repeat_posts_after_first_exposure_ignored(self):
        events = [(t, f"c{t}", f"a{t}", s)
                  for t, s in [(0, "CA"), (1, "TX"), (2, "CA"), (3, "NY")]]
        tl = UrlTimeline(url="u", label="fake", events=events)
        assert tl.spread("states")[1] == ["CA", "TX", "NY"]
        [record] = first_exposures(walk([tl], "states").spreads)
        assert record.states == "CA TX NY"
        graph = infer_state_network([record], "fake", min_states=2,
                                    rule="chain")
        assert graph.edges == {("CA", "TX"): 1.0, ("TX", "NY"): 1.0}

    def test_rule_invariant_total_weight(self, rng):
        records = []
        states = [f"S{i}" for i in range(12)]
        expected = 0.0
        for u in range(100):
            k = int(rng.integers(2, 9))
            order = [states[int(i)] for i in
                     rng.choice(len(states), size=k, replace=False)]
            records.append(exposure(f"u{u}", "fake", order))
            expected += k - 1
        chain = infer_state_network(records, "fake", min_states=2, rule="chain")
        star = infer_state_network(records, "fake", min_states=2, rule="star")
        assert chain.total_weight() == pytest.approx(expected)
        assert star.total_weight() == pytest.approx(expected)

    def test_brute_force_edge_accumulation(self, rng):
        states = [f"S{i}" for i in range(8)]
        records = []
        expected = {}
        for u in range(100):
            k = int(rng.integers(2, 6))
            order = [states[int(i)] for i in
                     rng.choice(len(states), size=k, replace=False)]
            records.append(exposure(f"u{u}", "fake", order))
            for a, b in zip(order, order[1:]):
                expected[(a, b)] = expected.get((a, b), 0.0) + 1.0
        graph = infer_state_network(records, "fake", min_states=2,
                                    rule="chain")
        assert graph.edges == expected

    def test_empty_graph_diagnostic(self):
        graph = infer_state_network([], "fake", DEFAULTS.min_states,
                                    DEFAULTS.rule)
        assert graph.edges == {}
        assert graph.metadata["urls"] == 0


class TestPagerank:
    def test_symmetric_complete_graph(self):
        graph = StateGraph()
        nodes = ["A", "B", "C", "D"]
        for a in nodes:
            for b in nodes:
                if a != b:
                    graph.add_edge(a, b, 1.0)
        scores = pagerank(graph, DEFAULTS.damping)
        for s in nodes:
            assert scores[s] == pytest.approx(0.25, abs=1e-10)

    def test_sink_attracts_mass(self):
        graph = StateGraph()
        graph.add_edge("A", "B", 1.0)
        scores = pagerank(graph, DEFAULTS.damping)
        assert scores["B"] > scores["A"]
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            graph = random_graph(rng)
            scores = pagerank(graph, DEFAULTS.damping)
            oracle = pagerank_dense_oracle(graph, DEFAULTS.damping)
            for s in graph.nodes:
                assert scores[s] == pytest.approx(oracle[s], abs=1e-8)

    def test_invariant_under_weight_scaling(self, rng):
        graph = random_graph(rng)
        scaled = StateGraph(edges={e: 17.0 * w for e, w in graph.edges.items()})
        a = pagerank(graph, DEFAULTS.damping)
        b = pagerank(scaled, DEFAULTS.damping)
        for s in graph.nodes:
            assert a[s] == pytest.approx(b[s], abs=1e-10)

    def test_scores_sum_to_one(self, rng):
        graph = random_graph(rng)
        scores = pagerank(graph, DEFAULTS.damping)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)


class TestDifferential:
    """The reputable_minus_lowcred column `contagion` writes to
    pagerank.csv."""

    STATES = ["AL", "AK", "AZ", "AR", "CA", "CO"]

    def differential(self, tmp_path, exposures):
        out = run_contagion(tmp_path, exposures, "state,republican\n")
        with open(out / "pagerank.csv", newline="") as fh:
            return {row["state"]: row["reputable_minus_lowcred"]
                    for row in csv.DictReader(fh)}

    def random_exposures(self, rng, label, n=8):
        """n first exposures of `label`; the first walks every state, so
        each label's graph covers all of STATES."""
        orders = [list(self.STATES)] + [
            list(rng.permutation(self.STATES)[:rng.integers(2, 7)])
            for _ in range(n - 1)]
        return [FirstExposure(f"{label}{i}", label, " ".join(order))
                for i, order in enumerate(orders)]

    def test_identical_maps_zero(self, tmp_path):
        exposures = [FirstExposure(f"{label}{i}", label, states)
                     for label in ("lowcred", "reputable")
                     for i, states in enumerate(["AL AK AZ", "AZ AL"])]
        assert self.differential(tmp_path, exposures) == \
            {"AK": "0", "AL": "0", "AZ": "0"}

    def test_differentials_sum_to_zero(self, tmp_path, rng):
        exposures = (self.random_exposures(rng, "lowcred") +
                     self.random_exposures(rng, "reputable"))
        diff = self.differential(tmp_path, exposures)
        assert sorted(diff) == sorted(self.STATES)
        assert sum(float(d) for d in diff.values()) == \
            pytest.approx(0.0, abs=1e-11)

    def test_node_set_mismatch(self, tmp_path):
        exposures = [FirstExposure("u1", "lowcred", "AL AK"),
                     FirstExposure("u2", "reputable", "AK AZ")]
        assert self.differential(tmp_path, exposures) == \
            {"AK": "", "AL": "", "AZ": ""}

    def test_random_pair_hand_computed(self, tmp_path, rng):
        exposures = (self.random_exposures(rng, "lowcred") +
                     self.random_exposures(rng, "reputable"))
        lowcred, reputable = (
            pagerank(infer_state_network(exposures, label, 2, DEFAULTS.rule),
                     DEFAULTS.damping)
            for label in ("lowcred", "reputable"))
        diff = self.differential(tmp_path, exposures)
        for s in self.STATES:
            assert diff[s] == f"{reputable[s] - lowcred[s]:.12g}"


class TestAssortativity:
    def test_perfectly_assortative(self):
        graph = StateGraph()
        graph.add_edge("A1", "A2", 2.0)   # attribute 1 on both ends
        graph.add_edge("B1", "B2", 1.0)   # attribute 5 on both ends
        attr = {"A1": 1.0, "A2": 1.0, "B1": 5.0, "B2": 5.0}
        assert assortativity(graph, attr) == pytest.approx(1.0)

    def test_perfectly_disassortative(self):
        graph = StateGraph()
        graph.add_edge("H1", "L1", 1.0)
        graph.add_edge("L2", "H2", 3.0)
        attr = {"H1": 2.0, "H2": 2.0, "L1": -2.0, "L2": -2.0}
        assert assortativity(graph, attr) == pytest.approx(-1.0)

    def test_edge_expansion_oracle(self, rng):
        graph = StateGraph()
        nodes = [f"S{i}" for i in range(12)]
        attr = {s: float(rng.standard_normal()) for s in nodes}
        for a in nodes:
            for b in nodes:
                if a != b and rng.random() < 0.4:
                    graph.add_edge(a, b, float(rng.integers(1, 5)))
        coefficient = assortativity(graph, attr)
        # oracle: expand each edge into w copies, plain Pearson
        xs, ys = [], []
        for (a, b), w in graph.edges.items():
            xs += [attr[a]] * int(w)
            ys += [attr[b]] * int(w)
        x, y = np.array(xs), np.array(ys)
        expected = float(((x - x.mean()) @ (y - y.mean())) /
                         np.sqrt(((x - x.mean()) ** 2).sum() *
                                 ((y - y.mean()) ** 2).sum()))
        assert coefficient == pytest.approx(expected, abs=1e-10)

    def test_affine_invariance(self, rng):
        graph = random_graph(rng, n=8)
        attr = {s: float(rng.standard_normal()) for s in graph.nodes}
        base = assortativity(graph, attr)
        shifted = {s: 4.0 * v - 11.0 for s, v in attr.items()}
        assert abs(assortativity(graph, shifted) - base) < 1e-10

    def test_zero_variance_rejected(self):
        graph = StateGraph()
        graph.add_edge("A", "B", 1.0)
        graph.add_edge("B", "C", 1.0)
        with pytest.raises(UndefinedCorrelationError):
            assortativity(graph, {"A": 1.0, "B": 1.0, "C": 1.0})

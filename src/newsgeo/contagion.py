"""State-to-state contagion graphs from first-exposure orders.

A URL qualifies when enough distinct states posted it. `diffusion` reduces
its events to the first post per state, in time order, and writes that
order to `first_exposures.csv`; the chain rule links consecutive first
exposures, the star rule links the origin state to every later one. Both
rules deposit (#states - 1) units of weight per URL, a conservation property
the tests exploit. No edge is a self-loop: the codec's `StateOrder` rule
refuses an order that repeats a state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import UndefinedCorrelationError
from .states import FirstExposure

logger = logging.getLogger(__name__)


@dataclass
class StateGraph:
    edges: dict[tuple[str, str], float] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def nodes(self) -> list[str]:
        seen = set()
        for src, dst in self.edges:
            seen.add(src)
            seen.add(dst)
        return sorted(seen)

    def total_weight(self) -> float:
        return sum(self.edges.values())

    def add_edge(self, src: str, dst: str, weight: float = 1.0) -> None:
        self.edges[(src, dst)] = self.edges.get((src, dst), 0.0) + weight


def infer_state_network(
    exposures: Iterable[FirstExposure],
    news_type: str,
    min_states: int,
    rule: str,
) -> StateGraph:
    """Accumulate directed first-exposure edges over qualifying URLs, the
    chain rule or else the star rule; `metadata["urls"]` counts them."""
    graph = StateGraph(metadata={"urls": 0})
    for exposure in exposures:
        if exposure.label != news_type:
            continue
        order = exposure.states.split()
        if len(order) < min_states:
            continue
        graph.metadata["urls"] = graph.metadata["urls"] + 1
        if rule == "chain":
            for src, dst in zip(order, order[1:]):
                graph.add_edge(src, dst)
        else:
            for dst in order[1:]:
                graph.add_edge(order[0], dst)
    if graph.metadata["urls"] == 0:
        logger.warning("no %s URL reached %d states; graph is empty",
                       news_type, min_states)
    return graph


def pagerank(graph: StateGraph, damping: float) -> dict[str, float]:
    """Weighted PageRank with out-weight-proportional transitions and
    uniform redistribution of dangling mass. Scores sum to 1.

    Solved exactly rather than iterated: with P row-stochastic over the edge
    weights and dangling rows left at zero, the scores are the normalized
    solution of (I - damping * P^T) y = 1/n (Del Corso, Gulli & Romani,
    "Fast PageRank computation via a sparse linear system", 2005).
    """
    nodes = graph.nodes
    if not nodes:
        raise ValueError("pagerank on an empty graph")
    n = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}
    weights = np.zeros((n, n))
    for (src, dst), w in graph.edges.items():
        weights[idx[src], idx[dst]] = w
    out_weight = weights.sum(axis=1, keepdims=True)
    P = np.divide(weights, out_weight, out=np.zeros_like(weights),
                  where=out_weight > 0)
    y = np.linalg.solve(np.eye(n) - damping * P.T, np.full(n, 1.0 / n))
    y /= y.sum()
    return dict(zip(nodes, y.tolist()))


def assortativity(graph: StateGraph, attribute: dict[str, float]) -> float:
    """Weighted scalar assortativity: Pearson correlation of the attribute
    across edge endpoints, each directed edge weighted by its weight. The
    graph has two or more edges, and `attribute` holds every node."""
    xs, ys, ws = [], [], []
    for (src, dst), w in sorted(graph.edges.items()):
        xs.append(attribute[src])
        ys.append(attribute[dst])
        ws.append(w)
    x = np.array(xs)
    y = np.array(ys)
    w = np.array(ws)
    total = w.sum()
    mx = float(w @ x) / total
    my = float(w @ y) / total
    cov = float(w @ ((x - mx) * (y - my))) / total
    vx = float(w @ ((x - mx) ** 2)) / total
    vy = float(w @ ((y - my) ** 2)) / total
    if vx <= 0.0 or vy <= 0.0:
        raise UndefinedCorrelationError(
            "endpoint attribute has zero variance over the edge list"
        )
    return max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))

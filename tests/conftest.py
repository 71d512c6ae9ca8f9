"""Shared fixtures: named graphs and the deterministic small-graph corpus."""

from __future__ import annotations

import itertools
import random

import pytest

from vnum.catalog import CM36, EXAMPLE_GRAPH3, EXAMPLE_GRAPH4
from vnum.clutters import Graph

from .graphs import complete_graph, cycle_graph, path_graph, star_graph


def _all_connected_graphs(n: int) -> list[Graph]:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.of(n, edges)
        if g.is_connected():
            out.append(g)
    return out


def _sampled_connected_graphs(n: int, count: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    densities = (0.25, 0.45, 0.65, 0.85)
    seen = set()
    out = []
    trial = 0
    while len(out) < count:
        p = densities[trial % len(densities)]
        trial += 1
        edges = [e for e in pairs if rng.random() < p]
        g = Graph.of(n, edges)
        if not g.is_connected() or g.edge_masks in seen:
            continue
        seen.add(g.edge_masks)
        out.append(g)
    return out


def seeded_gnp(n: int, p: float, seed: int | None = None) -> Graph:
    """G(n, p): the first connected draw from random.Random(seed).

    The seed defaults to n*100 + int(10*p).  Each draw keeps every vertex
    pair, in lexicographic order, with probability p.
    """
    rng = random.Random(n * 100 + int(10 * p) if seed is None else seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        g = Graph.of(n, [e for e in pairs if rng.random() < p])
        if g.is_connected():
            return g


def build_corpus() -> list[Graph]:
    """At least 500 distinct connected graphs on 2..7 vertices.

    Every connected graph on up to 4 vertices, plus seeded samples on 5, 6,
    and 7 vertices.  Deterministic across runs.
    """
    corpus: list[Graph] = []
    for n in (2, 3, 4):
        corpus.extend(_all_connected_graphs(n))
    corpus.extend(_sampled_connected_graphs(5, 140, seed=501))
    corpus.extend(_sampled_connected_graphs(6, 140, seed=601))
    corpus.extend(_sampled_connected_graphs(7, 180, seed=701))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    graphs = build_corpus()
    assert len(graphs) >= 500
    return graphs


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """The graphs small enough for exhaustive or oracle-heavy checks."""
    return [g for g in corpus if g.vertex_count <= 5]


@pytest.fixture(scope="session")
def named_graphs():
    return {
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K5": complete_graph(5),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "claw": star_graph(3),
        "example3": EXAMPLE_GRAPH3.graph(),
        "example4": EXAMPLE_GRAPH4.graph(),
    }


@pytest.fixture(scope="session")
def cm36_graphs():
    return [(fix.label, fix.graph()) for fix in CM36]


@pytest.fixture(scope="session")
def gnp():
    """The seeded G(n, p) draw, as a function of n and p."""
    return seeded_gnp

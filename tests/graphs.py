"""Graph builders for test inputs: named families, catalog lookups by
label, disjoint unions, whiskers and edge deletions."""

from __future__ import annotations

import itertools

from vnum.catalog import CM36, EXAMPLE_GRAPH3, CatalogFixture
from vnum.clutters import Graph
from vnum.vertexsets import mask_of


def path_graph(n: int) -> Graph:
    return Graph.of(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return Graph.of(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.of(n, itertools.combinations(range(1, n + 1), 2))


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 1."""
    return Graph.of(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def empty_graph(n: int) -> Graph:
    return Graph.of(n, [])


def fixture_by_label(label: str) -> CatalogFixture:
    for f in CM36 + (EXAMPLE_GRAPH3,):
        if f.label == label:
            return f
    raise KeyError(label)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g beside h, with h's vertices numbered after g's."""
    s = g.vertex_count
    edges = list(g.edge_lists())
    edges += [(a + s, b + s) for a, b in h.edge_lists()]
    return Graph.of(s + h.vertex_count, edges)


def whisker(g: Graph) -> Graph:
    """Attach a pendant vertex u_i = s+i to every vertex t_i."""
    s = g.vertex_count
    edges = list(g.edge_lists())
    edges += [(i, s + i) for i in range(1, s + 1)]
    return Graph.of(2 * s, edges)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """G - e for the edge e = {u, v} of g, on the same vertices."""
    m = mask_of(g.vertex_count, (u, v))
    if m not in g.edge_masks:
        raise ValueError(f"edge {{{u},{v}}} not present")
    return Graph(g.vertex_count, tuple(e for e in g.edge_masks if e != m))

"""The embedded 36-graph catalog and named example fixtures."""

from __future__ import annotations

import pytest

from vnum.catalog import CM36, EXAMPLE_GRAPH3, EXAMPLE_GRAPH4, cm36_vertex_split

from .graphs import fixture_by_label
from .oracles import edge_ideal


EXPECTED_VERTEX_COUNTS = (
    [2, 3, 4, 5, 5, 6, 6, 7, 7, 7, 7] + [8] * 8 + [9] * 17
)


class TestCatalogShape:
    def test_count(self):
        assert len(CM36) == 36

    def test_vertex_counts(self):
        assert [f.vertex_count for f in CM36] == EXPECTED_VERTEX_COUNTS

    def test_split(self):
        assert cm36_vertex_split() == (19, 17)

    def test_all_graphs_valid_and_connected(self):
        for fix in CM36:
            g = fix.graph()
            assert g.is_connected()
            assert not g.isolated_vertices()

    def test_no_duplicate_fixtures(self):
        keys = {(f.vertex_count, f.graph().edge_masks) for f in CM36}
        assert len(keys) == 36

    def test_lookup(self):
        assert fixture_by_label("cm36-05").vertex_count == 5
        with pytest.raises(KeyError):
            fixture_by_label("cm36-99")


class TestSpotChecks:
    """Per-row regeneration of the printed generator lists."""

    def test_k2_row(self):
        assert CM36[0].edges == ((1, 2),)

    def test_c5_row(self):
        assert set(CM36[3].edges) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}

    def test_complete_rows(self):
        # rows printed as complete graphs carry all pairs
        import itertools

        for index, n in ((1, 3), (2, 4), (4, 5), (6, 6), (10, 7), (18, 8), (30, 9)):
            assert set(CM36[index].edges) == set(
                itertools.combinations(range(1, n + 1), 2)
            )

    def test_ten_edge_eight_vertex_row(self):
        assert set(CM36[17].edges) == {
            (1, 2), (1, 8), (2, 3), (2, 6), (3, 4), (3, 7), (4, 5), (5, 6),
            (6, 7), (7, 8),
        }

    def test_edge_ideal_degrees(self):
        for fix in CM36:
            ideal = edge_ideal(fix.graph())
            assert len(ideal.generators) == len(fix.edges)
            assert all(g.degree() == 2 for g in ideal.generators)


class TestExampleFixtures:
    def test_example3_shape(self):
        g = EXAMPLE_GRAPH3.graph()
        assert g.vertex_count == 11
        assert len(g.edge_masks) == 25
        assert g.is_connected()

    def test_example4_is_catalog_entry_32(self):
        assert EXAMPLE_GRAPH4 is CM36[31]
        g = EXAMPLE_GRAPH4.graph()
        assert g.vertex_count == 9 and len(g.edge_masks) == 15


class TestCatalogCompleteness:
    """Exhaustive check over every connected graph with at most 7 vertices.

    The graph atlas covers all isomorphism classes up to 7 vertices, so the
    catalog's small rows can be shown complete, not just correct: exactly
    the listed numbers of graphs are edge-critical or have a Cohen-Macaulay
    symbolic square.
    """

    def test_small_rows_exhaustive(self):
        import networkx as nx
        from networkx.generators.atlas import graph_atlas_g

        from vnum.classify import is_edge_critical, symbolic_square_cm
        from vnum.clutters import Graph
        from vnum.complexes import Field

        edge_critical_counts: dict[int, int] = {}
        cm_counts: dict[int, int] = {}
        for G in graph_atlas_g():
            n = G.number_of_nodes()
            if n < 2 or not nx.is_connected(G):
                continue
            mapping = {v: i + 1 for i, v in enumerate(sorted(G.nodes()))}
            g = Graph.of(n, [(mapping[u], mapping[v]) for u, v in G.edges()])
            if is_edge_critical(g):
                edge_critical_counts[n] = edge_critical_counts.get(n, 0) + 1
                if symbolic_square_cm(g, Field.Q):
                    cm_counts[n] = cm_counts.get(n, 0) + 1
        assert edge_critical_counts == {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 5}
        catalog_small = {}
        for fix in CM36:
            if fix.vertex_count <= 7:
                catalog_small[fix.vertex_count] = (
                    catalog_small.get(fix.vertex_count, 0) + 1
                )
        assert cm_counts == catalog_small == {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 4}

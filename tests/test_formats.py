"""Edge-list and graph6 parsing."""

from __future__ import annotations

import random

import pytest

from vnum.formats import (
    InputDocument,
    ParseError,
    parse_edge_list,
    parse_graph6,
    render_edge_list,
)

from .oracles import encode_graph6


class TestEdgeList:
    def test_k2(self):
        doc = parse_edge_list("graph 2\n1 2\n")
        assert doc.kind == "graph" and doc.vertex_count == 2
        assert doc.edges == ((1, 2),)
        assert doc.to_clutter().edge_lists() == ((1, 2),)

    def test_clutter(self):
        doc = parse_edge_list("clutter 3\n1 2 3\n")
        assert doc.kind == "clutter"
        assert doc.to_clutter().edge_lists() == ((1, 2, 3),)

    def test_comments_and_blanks(self):
        doc = parse_edge_list("# a graph\n\ngraph 3\n1 2\n# middle\n2 3\n")
        assert doc.edges == ((1, 2), (2, 3))

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("graph 3\n1 1\n")

    def test_duplicate_edge_rejected(self):
        doc = parse_edge_list("graph 3\n1 2\n2 1\n")
        with pytest.raises(ValueError, match=r"repeated edge \(1, 2\)"):
            doc.to_clutter()

    def test_subset_edge_rejected_for_clutters(self):
        doc = parse_edge_list("clutter 3\n1 2 3\n2 3\n")
        with pytest.raises(ValueError, match="antichain"):
            doc.to_clutter()

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("graph 2\n1 3\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="expected"):
            parse_edge_list("1 2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("digraph 2\n1 2\n")

    def test_roundtrip_normalization(self):
        text = "graph 4\n3 2\n1 2\n4 1\n"
        normalized = render_edge_list(parse_edge_list(text))
        assert normalized == "graph 4\n1 2\n1 4\n2 3\n"
        assert render_edge_list(parse_edge_list(normalized)) == normalized

    def test_render_clutter(self):
        doc = InputDocument("clutter", 4, ((3, 4), (1, 2, 3)))
        assert render_edge_list(doc) == "clutter 4\n1 2 3\n3 4\n"


class TestGraph6:
    def test_k2(self):
        doc = parse_graph6("A_")
        assert doc.vertex_count == 2 and doc.edges == ((1, 2),)

    def test_p3(self):
        doc = parse_graph6("BW")
        g = doc.to_clutter()
        assert g.vertex_count == 3
        assert set(g.edge_lists()) == {(1, 3), (2, 3)}

    def test_empty(self):
        doc = parse_graph6("?")
        assert doc.vertex_count == 0 and doc.edges == ()

    def test_header_prefix(self):
        assert parse_graph6(">>graph6<<A_").edges == ((1, 2),)

    def test_invalid_byte(self):
        with pytest.raises(ParseError, match="invalid graph6 byte"):
            parse_graph6("A!")

    def test_truncated(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_graph6("D")

    def test_trailing(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_graph6("A__")

    def test_large_header_rejected(self):
        with pytest.raises(ParseError, match="63 or more"):
            parse_graph6("~??")

    def test_roundtrip_against_encoder(self):
        rng = random.Random(41)
        import itertools

        for _ in range(120):
            n = rng.randrange(0, 12)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = [e for e in pairs if rng.random() < 0.4]
            line = encode_graph6(n, edges)
            doc = parse_graph6(line)
            assert doc.vertex_count == n
            assert {frozenset(e) for e in doc.edges} == {frozenset(e) for e in edges}

    def test_known_cycle(self):
        # C5 in canonical graph6 is "DqK"
        doc = parse_graph6("DqK")
        g = doc.to_clutter()
        assert g.vertex_count == 5
        assert all(m.bit_count() == 2 for m in g.edge_masks)
        assert g.is_connected()
        assert set(g.adjacency_masks()[i].bit_count() for i in range(5)) == {2}

"""Combinatorial core: stability, covers, families, invariants, derived graphs."""

from __future__ import annotations

import functools

import pytest

from vnum.clutters import Clutter, Graph, ZeroIdealError
from vnum.complexes import independence_complex
from vnum.vertexsets import mask_members, mask_of

from .graphs import (
    complete_graph,
    cycle_graph,
    delete_edge,
    disjoint_union,
    empty_graph,
    path_graph,
    star_graph,
    whisker,
)
from .oracles import (
    beta0_naive,
    delete_closed_neighborhood,
    domination_by_size,
    domination_naive,
    family_a_masks,
    family_a_naive,
    is_claw_free_naive,
    is_cover_mask,
    matching_numbers_naive,
    maximal_stable_naive,
    minimal_covers_naive,
    stable_masks,
    stable_masks_naive,
    v_number_naive,
)


def copies(g, n):
    """n disjoint copies of g."""
    return functools.reduce(disjoint_union, [g] * n)


def members(masks):
    return {mask_members(m) for m in masks}


def family(c):
    return members(family_a_masks(c))


class TestConstruction:
    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            Clutter.of(3, [(1,), (1, 2)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.of(3, [(1, 1)])

    def test_nonsimple_rejected(self):
        with pytest.raises(ValueError):
            Graph.of(3, [(1, 2, 3)])

    def test_edges_read_as_vertex_sets(self):
        # `of` merges repeats; input documents reject them (tests/test_cli.py).
        assert Graph.of(3, [(1, 2, 2)]) == Graph.of(3, [(1, 2)])
        assert Clutter.of(3, [(1, 2), (2, 1)]).edge_masks == (0b11,)

    def test_discrete_clutter_allowed(self):
        c = Clutter.of(3, [])
        assert not c.has_edges()
        assert c.isolated_vertices() == (1, 2, 3)


class TestStability:
    def test_c5_pair_stable(self):
        c5 = cycle_graph(5)
        assert c5.is_stable_mask(mask_of(5, [1, 3]))

    def test_empty_always_stable(self):
        for c in (cycle_graph(4), Clutter.of(3, [(1, 2, 3)])):
            assert c.is_stable_mask(0)

    def test_edge_not_stable(self):
        k2 = complete_graph(2)
        assert not k2.is_stable_mask(mask_of(2, [1, 2]))

    def test_growth_matches_subset_filter(self, small_corpus):
        # same masks in the same order: by size, then lexicographically
        for g in small_corpus:
            assert list(stable_masks(g)) == stable_masks_naive(g)

    def test_one_stability_test_per_extension(self, monkeypatch):
        # growing reads one neighbour set per stable set, which tests every
        # extension at once: 3,344 calls here, where testing each vertex
        # above the largest member made 5,147 stability tests and filtering
        # tests all 2^16 = 65,536 subsets
        calls = {"is_stable_mask": 0, "neighbor_mask": 0}
        for name in calls:
            method = getattr(Clutter, name)

            def counted(self, mask, name=name, method=method):
                calls[name] += 1
                return method(self, mask)

            monkeypatch.setattr(Clutter, name, counted)
        stable = list(stable_masks(whisker(path_graph(8))))
        assert calls == {"is_stable_mask": 0, "neighbor_mask": len(stable)}
        assert len(stable) == 3344


class TestNeighborSet:
    def test_path_single(self):
        p3 = path_graph(3)
        assert mask_members(p3.neighbor_mask(mask_of(3, [1]))) == (2,)

    def test_c5_pair(self):
        c5 = cycle_graph(5)
        assert mask_members(c5.neighbor_mask(mask_of(5, [1, 3]))) == (2, 4, 5)

    def test_complete(self):
        k3 = complete_graph(3)
        assert mask_members(k3.neighbor_mask(mask_of(3, [1]))) == (2, 3)

    def test_graph_route_is_adjacency_union(self, small_corpus):
        # on graphs, N(A) for stable A is the union of adjacencies minus A
        for g in small_corpus[:60]:
            adj = g.adjacency_masks()
            for mask in stable_masks(g):
                expected = 0
                probe = mask
                while probe:
                    low = probe & -probe
                    expected |= adj[low.bit_length() - 1]
                    probe ^= low
                expected &= ~mask
                assert g.neighbor_mask(mask) == expected


class TestCovers:
    def test_c4_minimal(self):
        c4 = cycle_graph(4)
        a = mask_of(4, [2, 4])
        assert is_cover_mask(c4, a)

    def test_c4_non_minimal(self):
        c4 = cycle_graph(4)
        a = mask_of(4, [1, 2, 3])
        assert is_cover_mask(c4, a)

    def test_empty_not_cover(self):
        assert not is_cover_mask(complete_graph(2), 0)


class TestMaximalStableSets:
    def test_c5(self):
        got = members(cycle_graph(5).maximal_stable_masks())
        assert got == {(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)}

    def test_p3(self):
        assert members(path_graph(3).maximal_stable_masks()) == {(1, 3), (2,)}

    def test_k3(self):
        assert members(complete_graph(3).maximal_stable_masks()) == {(1,), (2,), (3,)}

    def test_discrete(self):
        c = Clutter.of(3, [])
        assert members(c.maximal_stable_masks()) == {(1, 2, 3)}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_against_subset_scan(self, n):
        g = cycle_graph(n)
        assert members(g.maximal_stable_masks()) == {
            tuple(sorted(a)) for a in maximal_stable_naive(g)
        }

    def test_clutter_against_subset_scan(self):
        c = Clutter.of(5, [(1, 2, 3), (3, 4), (4, 5)])
        assert members(c.maximal_stable_masks()) == {
            tuple(sorted(a)) for a in maximal_stable_naive(c)
        }


class TestFamilyA:
    def test_p3_contains_leaf(self):
        fam = family(path_graph(3))
        assert (1,) in fam

    def test_c5_exactly_maximal_pairs(self):
        c5 = cycle_graph(5)
        assert family(c5) == members(c5.maximal_stable_masks())

    def test_k2(self):
        assert family(complete_graph(2)) == {(1,), (2,)}

    def test_discrete_raises(self):
        with pytest.raises(ZeroIdealError, match="family undefined"):
            list(family_a_masks(Clutter.of(2, [])))

    def test_stream_order(self, small_corpus):
        for g in small_corpus:
            masks = list(family_a_masks(g))
            order = sorted(masks, key=lambda m: (m.bit_count(), mask_members(m)))
            assert masks == order

    def test_contains_maximal_stable_sets(self, small_corpus):
        for g in small_corpus:
            fam = family(g)
            assert members(g.maximal_stable_masks()) <= fam

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_subset_scan(self, n):
        g = path_graph(n)
        assert family(g) == {
            tuple(sorted(a)) for a in family_a_naive(g)
        }


class TestNumericInvariants:
    def test_c5(self):
        c5 = cycle_graph(5)
        assert c5.independence_number() == 2
        assert c5.cover_number() == 3
        assert c5.independent_domination() == 2
        assert c5.domination_number() == 2

    def test_p3(self):
        p3 = path_graph(3)
        assert (
            p3.independence_number(),
            p3.cover_number(),
            p3.independent_domination(),
            p3.domination_number(),
        ) == (2, 1, 1, 1)

    def test_claw(self):
        claw = star_graph(3)
        assert (
            claw.independence_number(),
            claw.cover_number(),
            claw.independent_domination(),
            claw.domination_number(),
        ) == (3, 1, 1, 1)

    def test_alpha_beta_partition(self, corpus):
        for g in corpus:
            assert g.cover_number() + g.independence_number() == g.vertex_count

    def test_domination_against_scan(self, corpus, small_corpus):
        for g in small_corpus:
            assert g.domination_number() == domination_naive(g)
        for g in corpus:
            assert g.domination_number() == domination_by_size(g)

    def test_domination_chain(self, corpus):
        for g in corpus:
            assert (
                g.domination_number()
                <= g.independent_domination()
                <= g.independence_number()
            )

    def test_claw_free_domination_equality(self, corpus):
        for g in corpus:
            if is_claw_free_naive(g):
                assert g.domination_number() == g.independent_domination()


class TestMatchingNumbers:
    def test_small_graphs(self):
        cases = [
            (path_graph(5), (2, 2)),
            (cycle_graph(6), (2, 3)),
            (complete_graph(4), (1, 2)),
            (star_graph(3), (1, 1)),
            (empty_graph(3), (0, 0)),
            (Graph.of(0, []), (0, 0)),
        ]
        for g, want in cases:
            assert (g.induced_matching_number(), g.matching_number()) == want

    def test_against_edge_subsets(self, corpus, cm36_graphs):
        for g in corpus + [g for _, g in cm36_graphs]:
            want = matching_numbers_naive(g)
            assert (g.induced_matching_number(), g.matching_number()) == want


class TestVNumber:
    def test_named_values(self):
        assert complete_graph(2).v_number() == 1
        assert cycle_graph(5).v_number() == 2

    def test_prime_clutter_is_zero(self):
        c = Clutter.of(3, [(1,), (2,)])
        assert c.v_number() == 0

    def test_discrete_raises(self):
        with pytest.raises(ZeroIdealError, match="v-number undefined"):
            Clutter.of(2, []).v_number()

    def test_witness_is_lex_smallest(self):
        v, witness = cycle_graph(5).v_number_with_witness()
        assert v == 2
        assert mask_members(witness) == (1, 3)

    def test_against_family_scan(self, small_corpus):
        for g in small_corpus:
            assert g.v_number() == v_number_naive(g)

    def test_search_meets_the_first_family_member(self, corpus):
        # the oracle stream lists family A by size, then lexicographically
        for g in corpus + [copies(complete_graph(2), 6), cycle_graph(12)]:
            if g.has_edges():
                first = next(family_a_masks(g))
                assert g.v_number_with_witness() == (first.bit_count(), first), g

    def test_all_singleton_edges(self):
        assert Clutter.of(4, [(1,), (2,), (4,)]).v_number_with_witness() == (0, 0)

    @pytest.mark.parametrize(
        "g, witness, nodes",
        [
            (copies(complete_graph(2), 12), range(1, 24, 2), 25),
            (copies(complete_graph(2), 14), range(1, 28, 2), 29),
            (copies(complete_graph(3), 9), range(1, 26, 3), 19),
            (cycle_graph(30), (1, 3, 7, 11, 15, 19, 23, 27), 59),
        ],
        ids=["12K2", "14K2", "9K3", "C30"],
    )
    def test_search_nodes(self, monkeypatch, g, witness, nodes):
        # one neighbour set per node of the search, over every depth k;
        # the stream lists 531,441 stable sets of 12K2 and 4.8M of 14K2
        # to find these witnesses.  Without the packing bound, each depth k
        # below v would visit stable sets of size up to k one by one.
        calls = []
        method = Clutter.neighbor_mask

        def counted(self, mask):
            calls.append(mask)
            return method(self, mask)

        monkeypatch.setattr(Clutter, "neighbor_mask", counted)
        want = (len(witness), mask_of(g.vertex_count, witness))
        assert g.v_number_with_witness() == want
        assert len(calls) == nodes

    def test_bounded_by_independent_domination(self, corpus):
        for g in corpus:
            assert g.v_number() <= g.independent_domination() <= g.independence_number()


class TestWellCovered:
    def test_c5(self):
        c5 = cycle_graph(5)
        assert c5.is_well_covered()
        assert c5.is_one_well_covered()

    def test_p3(self):
        assert not path_graph(3).is_well_covered()

    def test_c4(self):
        c4 = cycle_graph(4)
        assert c4.is_well_covered()
        assert not c4.is_one_well_covered()


class TestBlocker:
    def test_k2(self):
        assert complete_graph(2).blocker().edge_lists() == ((1,), (2,))

    def test_p3(self):
        assert set(path_graph(3).blocker().edge_lists()) == {(2,), (1, 3)}

    def test_c4(self):
        assert set(cycle_graph(4).blocker().edge_lists()) == {(1, 3), (2, 4)}

    def test_against_subset_scan(self, small_corpus):
        for g in small_corpus:
            got = set(g.blocker().edge_lists())
            assert got == {tuple(sorted(a)) for a in minimal_covers_naive(g)}

    def test_involution(self, small_corpus):
        for g in small_corpus:
            if g.isolated_vertices():
                continue
            assert g.blocker().blocker() == Clutter(g.vertex_count, g.edge_masks)

    def test_discrete_raises(self):
        with pytest.raises(ZeroIdealError):
            Clutter.of(2, []).blocker()


class TestWhisker:
    def test_k2_gives_path(self):
        w = whisker(complete_graph(2))
        assert w.vertex_count == 4
        assert set(w.edge_lists()) == {(1, 2), (1, 3), (2, 4)}

    def test_single_vertex(self):
        w = whisker(empty_graph(1))
        assert w.vertex_count == 2 and w.edge_lists() == ((1, 2),)

    def test_k3_counts(self):
        w = whisker(complete_graph(3))
        assert w.vertex_count == 6 and len(w.edge_masks) == 6


class TestDerivedGraphs:
    def test_c5_closed_neighborhood(self):
        sub = delete_closed_neighborhood(cycle_graph(5), 1)
        assert sub.vertex_count == 2
        assert sub.edge_lists() == ((1, 2),)

    def test_k3_closed_neighborhood_empty(self):
        sub = delete_closed_neighborhood(complete_graph(3), 1)
        assert sub.vertex_count == 0 and not sub.has_edges()

    def test_c5_edge_neighborhoods(self):
        # G_e for e = {1, 2} is Delta(C5) restricted to the vertices outside
        # N[1] | N[2] = {5, 1, 2, 3}, which leaves vertex 4 alone
        g = cycle_graph(5)
        adj = g.adjacency_masks()
        sub = independence_complex(g).deletion(adj[0] | adj[1])
        assert sub.facets == (mask_of(5, [4]),)

    def test_delete_edge(self):
        g = delete_edge(cycle_graph(4), 1, 2)
        assert set(g.edge_lists()) == {(2, 3), (3, 4), (1, 4)}
        with pytest.raises(ValueError):
            delete_edge(cycle_graph(4), 1, 3)

    def test_complement_c5_self(self):
        c5 = cycle_graph(5)
        assert set(c5.complement().edge_lists()) == {
            (1, 3), (1, 4), (2, 4), (2, 5), (3, 5)
        }

    def test_complement_c4(self):
        assert set(cycle_graph(4).complement().edge_lists()) == {(1, 3), (2, 4)}

    def test_disjoint_union(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert g.vertex_count == 4
        assert set(g.edge_lists()) == {(1, 2), (3, 4)}

    def test_edge_deletion_monotonicity(self, small_corpus):
        # deleting one edge raises the independence number by at most one
        for g in small_corpus:
            b = g.independence_number()
            for u, v in g.edge_lists():
                assert delete_edge(g, u, v).independence_number() in (b, b + 1)


class TestPredicates:
    def test_c4_not_chordal(self):
        assert not cycle_graph(4).is_chordal()

    def test_paths_and_trees_chordal(self):
        assert path_graph(5).is_chordal()
        assert star_graph(4).is_chordal()
        assert complete_graph(5).is_chordal()

    def test_c5_maximal_triangle_free(self):
        assert cycle_graph(5).is_maximal_triangle_free()
        assert not path_graph(4).is_maximal_triangle_free()
        assert not complete_graph(3).is_maximal_triangle_free()

    def test_claw_not_claw_free(self):
        # the claw-free premise of test_claw_free_domination_equality
        assert not is_claw_free_naive(star_graph(3))
        assert is_claw_free_naive(cycle_graph(5))

    def test_diameter(self):
        assert cycle_graph(5).diameter() == 2
        assert path_graph(4).diameter() == 3
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert g.diameter() == float("inf")

    def test_beta_against_scan(self, small_corpus):
        for g in small_corpus:
            assert g.independence_number() == beta0_naive(g)


class TestClutterSpecific:
    def test_mixed_clutter_invariants(self):
        c = Clutter.of(5, [(1, 2, 3), (3, 4), (4, 5)])
        assert c.independence_number() == beta0_naive(c)
        assert c.v_number() == v_number_naive(c)
        assert {tuple(sorted(a)) for a in minimal_covers_naive(c)} == set(
            c.blocker().edge_lists()
        )

    def test_singleton_edges(self):
        c = Clutter.of(4, [(1,), (2, 3)])
        assert not c.is_stable_mask(mask_of(4, [1]))
        assert c.v_number() == v_number_naive(c)

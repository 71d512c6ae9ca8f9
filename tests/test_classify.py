"""Classification procedures and the aggregated invariant report."""

from __future__ import annotations

import dataclasses
import gc

import pytest

import vnum.classify as classify

from vnum.catalog import CM36, EXAMPLE_GRAPH3, EXAMPLE_GRAPH4
from vnum.classify import (
    CrossRouteError,
    edge_criticality,
    full_report,
    has_linear_resolution,
    is_edge_critical,
    is_w2,
    symbolic_square_cm,
    v_number_checked,
)
from vnum.clutters import Clutter, Graph
from vnum.complexes import (
    Field,
    SimplicialComplex,
    cohen_macaulay_fields,
    independence_complex,
)
from vnum.monomials import polarized_symbolic_power

from .graphs import (
    complete_graph,
    cycle_graph,
    delete_edge,
    empty_graph,
    fixture_by_label,
    path_graph,
    star_graph,
    whisker,
)
from .oracles import (
    beta0_naive,
    delete_closed_neighborhood,
    edge_criticality_by_fresh_covers,
    symbolic_square_cm_beta2,
    w2_families_by_sets,
)


class TestW2:
    def test_example3(self):
        assert is_w2(EXAMPLE_GRAPH3.graph())

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_complete_graphs(self, m):
        assert is_w2(complete_graph(m))

    def test_c4_not(self):
        assert not is_w2(cycle_graph(4))

    def test_c5(self):
        assert is_w2(cycle_graph(5))

    def test_isolated_rejected(self):
        with pytest.raises(ValueError):
            is_w2(Graph.of(3, [(1, 2)]))
        # the preconditions come before the v-number, which an edgeless
        # graph does not have
        with pytest.raises(ValueError, match="excludes isolated vertices"):
            is_w2(Graph.of(3, []))

    def test_matches_one_well_covered(self, corpus):
        # the W2 class is exactly the 1-well-covered isolated-free graphs
        for g in corpus:
            if g.isolated_vertices() or g.vertex_count < 2:
                continue
            assert is_w2(g) == g.is_one_well_covered()

    def test_family_stream_matches_whole_sets(self, corpus, gnp):
        # a third reading of W2, family A listed whole from the oracle
        # stream; the whiskered G(n, 0.3) are well-covered and not W2
        whiskered = [whisker(gnp(n, 0.3)) for n in range(8, 12)]
        for g in list(corpus) + whiskered:
            if not g.isolated_vertices():
                assert is_w2(g) == w2_families_by_sets(g), g
        for g in whiskered:
            assert g.is_well_covered() and not is_w2(g)

    @pytest.mark.parametrize("route", ["v_number", "is_one_well_covered"])
    def test_public_routes_are_compared(self, monkeypatch, route):
        g = cycle_graph(5)
        assert is_w2(g)
        wrong = {"v_number": lambda c: 0, "is_one_well_covered": lambda c: False}
        monkeypatch.setattr(Clutter, route, wrong[route])
        with pytest.raises(CrossRouteError, match="W2 routes disagree"):
            is_w2(g)

    def test_report_reads_the_v_number_once(self, monkeypatch):
        # a report reads W2 off its cross-checked v; the public is_w2
        # searches the v-number for itself
        calls = []
        search = Clutter.v_number_with_witness

        def counted(c):
            calls.append(c)
            return search(c)

        monkeypatch.setattr(Clutter, "v_number_with_witness", counted)
        g = cycle_graph(5)
        assert full_report(g).w2 is True
        assert calls == [g]
        assert is_w2(g)
        assert calls == [g, g]

    def test_report_checks_one_well_covered(self):
        rep = full_report(cycle_graph(5))
        assert rep.w2 and rep.one_well_covered
        with pytest.raises(CrossRouteError, match="w2=True, one_well_covered=False"):
            dataclasses.replace(rep, one_well_covered=False)


class TestEdgeCritical:
    def test_k3(self):
        assert is_edge_critical(complete_graph(3))

    def test_c4_not(self):
        ok, witness = edge_criticality(cycle_graph(4))
        assert not ok and witness == (1, 2)

    def test_first_violating_edge_in_vertex_list_order(self):
        # the path 1-4-2-3-5 keeps beta0 = 3 without {1, 4} or {2, 3}; as
        # masks {2, 3} comes first, as vertex lists {1, 4}
        g = Graph.of(5, [(1, 4), (2, 3), (2, 4), (3, 5)])
        assert edge_criticality(g) == (False, (1, 4))

    def test_example3(self):
        assert is_edge_critical(EXAMPLE_GRAPH3.graph())

    def test_edgeless_vacuous(self):
        assert is_edge_critical(empty_graph(3))

    def test_stable_number_search_on_every_edge_deletion(self, corpus):
        for g in corpus:
            for u, v in g.edge_lists():
                h = delete_edge(g, u, v)
                alpha = classify._stable_number(h.adjacency_masks(), h.full_mask, {})
                assert alpha == beta0_naive(h), (g, u, v)

    def test_matches_fresh_covers_on_the_corpus(self, corpus):
        verdicts = [edge_criticality(g) for g in corpus]
        assert verdicts == [edge_criticality_by_fresh_covers(g) for g in corpus]
        # both verdicts occur, so the witness edge is compared too
        assert {ok for ok, _ in verdicts} == {True, False}

    @pytest.mark.parametrize(
        "fix", CM36 + (EXAMPLE_GRAPH3,), ids=lambda fix: fix.label
    )
    def test_matches_fresh_covers_on_the_catalog(self, fix):
        g = fix.graph()
        assert edge_criticality(g) == edge_criticality_by_fresh_covers(g) == (True, None)

    def test_star_not(self):
        assert not is_edge_critical(star_graph(3))


class TestCmGraph:
    """The fields over which a graph's independence complex is Cohen-Macaulay."""

    @staticmethod
    def cm_fields(g):
        return cohen_macaulay_fields(independence_complex(g))

    def test_example3_rational_only(self):
        assert self.cm_fields(EXAMPLE_GRAPH3.graph()) == {Field.Q}

    def test_c5(self):
        assert Field.Q in self.cm_fields(cycle_graph(5))

    def test_c4_not(self):
        assert not self.cm_fields(cycle_graph(4))


class TestSymbolicSquareCm:
    def test_example4(self):
        assert symbolic_square_cm(EXAMPLE_GRAPH4.graph(), Field.Q)

    def test_example3_not(self):
        assert not symbolic_square_cm(EXAMPLE_GRAPH3.graph(), Field.Q)

    def test_k3(self):
        assert symbolic_square_cm(complete_graph(3), Field.Q)

    def test_c4_not(self):
        assert not symbolic_square_cm(cycle_graph(4), Field.Q)

    def test_p3_not(self):
        assert not symbolic_square_cm(path_graph(3), Field.Q)

    @pytest.mark.parametrize("fix", CM36, ids=lambda fix: fix.label)
    def test_both_routes_on_every_catalog_entry(self, fix):
        # reports run the polarization oracle only up to ORACLE_CAP vertices;
        # here it runs on every entry, whose polarized squares have up to 18
        # vertices, and both routes find I^(2) Cohen-Macaulay over both fields
        g = fix.graph()
        assert classify._symbolic_square_cm_oracle(g) == set(Field)
        assert classify._symbolic_square_cm_combinatorial(g) == set(Field)

    def test_oracle_route_agrees_on_small_graphs(self, small_corpus):
        # the cross-route assertion runs inside symbolic_square_cm itself
        for g in small_corpus[:60]:
            for field in (Field.Q, Field.F2):
                symbolic_square_cm(g, field)

    def test_cm_square_implies_edge_critical_and_w2(self, small_corpus):
        for g in small_corpus:
            if symbolic_square_cm(g, Field.Q):
                assert is_edge_critical(g)
                if not g.isolated_vertices() and g.vertex_count >= 2:
                    assert is_w2(g)

    def test_colon_preserves_cm_square(self, small_corpus):
        # deleting a closed neighborhood preserves the positive verdict
        for g in small_corpus:
            if not g.has_edges() or not symbolic_square_cm(g, Field.Q):
                continue
            critical = is_edge_critical(g)
            for v in range(1, g.vertex_count + 1):
                sub = delete_closed_neighborhood(g, v)
                if sub.vertex_count == 0:
                    continue
                assert symbolic_square_cm(sub, Field.Q)
                if critical and not g.isolated_vertices():
                    assert not sub.isolated_vertices()


class TestBeta2Specialization:
    def test_c5(self):
        assert symbolic_square_cm_beta2(cycle_graph(5))

    def test_c4_not(self):
        assert not symbolic_square_cm_beta2(cycle_graph(4))

    def test_k5_rejected(self):
        with pytest.raises(ValueError):
            symbolic_square_cm_beta2(complete_graph(5))

    def test_matches_direct_computation(self, small_corpus):
        for g in small_corpus:
            if g.independence_number() != 2:
                continue
            assert symbolic_square_cm_beta2(g) == symbolic_square_cm(g, Field.Q)

    def test_edge_critical_beta2_forces_v_reg_2(self, small_corpus):
        for g in small_corpus:
            if g.independence_number() != 2 or g.isolated_vertices():
                continue
            if is_edge_critical(g):
                from vnum.complexes import regularity

                assert g.v_number() == 2
                for field in (Field.Q, Field.F2):
                    assert regularity(g, field) == 2


class TestLinearResolution:
    def test_p3(self):
        assert has_linear_resolution(path_graph(3))

    def test_c4(self):
        assert has_linear_resolution(cycle_graph(4))

    def test_c5_not(self):
        assert not has_linear_resolution(cycle_graph(5))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            has_linear_resolution(Graph.of(3, [(1, 2)]))
        with pytest.raises(ValueError):
            has_linear_resolution(empty_graph(2))

    def test_forces_v_and_reg_one(self, small_corpus):
        from vnum.complexes import regularity

        for g in small_corpus:
            if not g.has_edges() or g.isolated_vertices():
                continue
            if has_linear_resolution(g):
                assert g.v_number() == 1
                for field in (Field.Q, Field.F2):
                    assert regularity(g, field) == 1


class TestVNumberChecked:
    def test_routes_agree_on_corpus(self, small_corpus):
        for g in small_corpus:
            v, witness = v_number_checked(g)
            assert v == witness.bit_count()


class TestWhiskerBounds:
    def test_whisker_v_at_most_whisker_regularity(self, small_corpus):
        # the whisker v-number equals the independent domination number and
        # is bounded by the regularity of the whisker ring
        from vnum.complexes import regularity

        for g in [h for h in small_corpus if h.vertex_count <= 4][:25]:
            w = whisker(g)
            v = w.v_number()
            assert v == g.independent_domination()
            for field in (Field.Q, Field.F2):
                assert v <= regularity(w, field)


class TestW2Heredity:
    def test_neighborhood_deletion_descends(self, small_corpus):
        for g in small_corpus:
            if (
                g.isolated_vertices()
                or g.vertex_count < 2
                or not is_w2(g)
                or len(g.edge_masks) == g.vertex_count * (g.vertex_count - 1) // 2
            ):
                continue
            b = g.independence_number()
            for v in range(1, g.vertex_count + 1):
                sub = delete_closed_neighborhood(g, v)
                assert sub.independence_number() == b - 1
                assert not sub.isolated_vertices()
                assert is_w2(sub)

    def test_well_covered_converse(self, small_corpus):
        for g in small_corpus:
            if g.isolated_vertices() or g.vertex_count < 2 or not g.is_well_covered():
                continue
            hypothesis_holds = True
            for v in range(1, g.vertex_count + 1):
                sub = delete_closed_neighborhood(g, v)
                if sub.vertex_count == 0:
                    continue  # vacuously in the class
                if (
                    sub.vertex_count < 2
                    or sub.isolated_vertices()
                    or not is_w2(sub)
                ):
                    hypothesis_holds = False
                    break
            if hypothesis_holds:
                assert is_w2(g)


class TestFullReport:
    def test_example3_both_fields(self):
        rep = full_report(EXAMPLE_GRAPH3.graph(), name="example3")
        assert rep.v == 3
        assert rep.dim == 3
        assert rep.reg_by_field[Field.Q] == 2
        assert rep.reg_by_field[Field.F2] == 3
        assert rep.w2 is True
        assert rep.edge_critical is True
        assert rep.cm_by_field[Field.Q] is True
        assert rep.symbolic_square_cm_by_field[Field.Q] is False
        assert rep.vertex_decomposable is False

    def test_example4(self):
        rep = full_report(EXAMPLE_GRAPH4.graph())
        assert rep.v == rep.reg_by_field[Field.Q] == rep.beta0 == 3
        assert rep.w2 and rep.edge_critical
        assert rep.symbolic_square_cm_by_field[Field.Q] is True

    def test_k2(self):
        rep = full_report(complete_graph(2))
        assert (rep.v, rep.dim, rep.reg_by_field[Field.Q], rep.w2) == (1, 1, 1, True)

    def test_clutter_report(self):
        rep = full_report(Clutter.of(4, [(1, 2, 3), (3, 4)]))
        assert rep.kind == "clutter"
        assert rep.gamma is None
        assert rep.w2 is None and rep.edge_critical is None
        assert rep.v <= rep.i <= rep.beta0 == rep.dim

    def test_isolated_vertices_flagged(self):
        g = Graph.of(3, [(1, 2)])
        rep = full_report(g)
        assert rep.has_isolated_vertices
        assert rep.w2 is None
        assert rep.reg_by_field[Field.Q] == 1

    def test_witness_fields(self):
        rep = full_report(cycle_graph(4))
        assert rep.v_witness == (1,)
        assert rep.edge_critical_violation == (1, 2)

    def test_rational_regularity_above_mod2_rejected(self):
        # example-graph3 has reg_Q = 2 <= reg_F2 = 3; swapped, the universal
        # coefficient bound fails
        rep = full_report(EXAMPLE_GRAPH3.graph())
        assert rep.reg_by_field == {Field.Q: 2, Field.F2: 3}
        with pytest.raises(CrossRouteError, match="reg-Q=3, reg-F2=2"):
            dataclasses.replace(rep, reg_by_field={Field.Q: 3, Field.F2: 2})
        dataclasses.replace(rep, reg_by_field={Field.Q: 3, Field.F2: 3})

    def test_regularity_outside_matching_bounds_rejected(self):
        # the claw has induced matching number = matching number = 1
        rep = full_report(star_graph(3))
        assert rep.matching_bounds == (1, 1)
        with pytest.raises(
            CrossRouteError, match="induced-matching=1, reg-F2=2, matching=1"
        ):
            dataclasses.replace(rep, reg_by_field={Field.Q: 1, Field.F2: 2})
        # two disjoint edges have induced matching number 2
        rep = full_report(Graph.of(4, [(1, 2), (3, 4)]))
        assert rep.matching_bounds == (2, 2)
        with pytest.raises(CrossRouteError, match="induced-matching=2, reg-Q=1"):
            dataclasses.replace(rep, reg_by_field={Field.Q: 1, Field.F2: 2})

    def test_chordal_graph_pins_the_regularity(self, monkeypatch):
        # on a chordal graph reg = induced matching number over every field
        # (Ha-Van Tuyl), so the matching number is not asked for.  P6 has
        # induced matching number 2 and matching number 3, and its
        # complement is not chordal, so no linear resolution pins reg first
        g = path_graph(6)
        assert (g.induced_matching_number(), g.matching_number()) == (2, 3)

        def unasked(graph):
            raise AssertionError("matching number asked for a chordal graph")

        monkeypatch.setattr(Graph, "matching_number", unasked)
        rep = full_report(g)
        assert rep.linear_resolution is False
        assert rep.matching_bounds == (2, 2)
        assert rep.reg_by_field == {Field.Q: 2, Field.F2: 2}
        with pytest.raises(
            CrossRouteError, match="induced-matching=2, reg-Q=3, matching=2"
        ):
            dataclasses.replace(rep, reg_by_field={Field.Q: 3, Field.F2: 3})

    def test_clutter_report_has_no_matching_bounds(self):
        rep = full_report(Clutter.of(4, [(1, 2, 3), (3, 4)]))
        assert rep.matching_bounds is None

    def test_warm_report_leaves_no_cyclic_garbage(self):
        # every memo a report builds is freed on return, not left to the
        # cyclic collector, whose timing would move peak memory
        graphs = [EXAMPLE_GRAPH3.graph(), fixture_by_label("cm36-21").graph()]
        for g in graphs:
            full_report(g)
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                full_report(g)
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dimension_and_v_chain_name_their_values(self):
        rep = full_report(cycle_graph(5))
        # dim is s - alpha0, so dim = beta0 is the identity alpha0 + beta0 = s
        assert rep.dim == rep.vertex_count - rep.alpha0 == rep.beta0 == 2
        with pytest.raises(CrossRouteError, match="dim=3, beta0=2"):
            dataclasses.replace(rep, dim=3)
        with pytest.raises(CrossRouteError, match="v=3, i=2, beta0=2"):
            dataclasses.replace(rep, v=3)

    def test_domination_bounded_by_independent_domination(self):
        # every maximal stable set dominates, so gamma <= i
        rep = full_report(path_graph(4))
        assert (rep.gamma, rep.i) == (2, 2)
        with pytest.raises(CrossRouteError, match="gamma=3, i=2"):
            dataclasses.replace(rep, gamma=rep.i + 1)
        assert full_report(Clutter.of(3, [(1, 2, 3)])).gamma is None

    def test_linear_resolution_checked_by_the_report(self):
        rep = full_report(cycle_graph(5))
        assert rep.linear_resolution is False
        with pytest.raises(CrossRouteError, match="got v=2, reg-Q=2, reg-F2=2"):
            dataclasses.replace(rep, linear_resolution=True)

    def test_beta2_square_checked_by_the_report(self):
        rep = full_report(cycle_graph(5))
        assert rep.beta0 == 2 and rep.edge_critical
        assert rep.symbolic_square_cm_by_field == {Field.Q: True, Field.F2: True}
        disagree = {Field.Q: True, Field.F2: False}
        with pytest.raises(CrossRouteError, match="at independence number 2"):
            dataclasses.replace(rep, symbolic_square_cm_by_field=disagree)

    def test_cohen_macaulay_square_forces_edge_criticality(self):
        # the combinatorial criterion asks alpha(G_e) = alpha(G) - 1 on
        # every edge, which is edge-criticality; at beta0 = 3 the beta0 = 2
        # equivalence does not apply
        rep = full_report(EXAMPLE_GRAPH4.graph())
        assert rep.beta0 == 3 and rep.edge_critical
        assert rep.symbolic_square_cm_by_field[Field.Q]
        with pytest.raises(CrossRouteError, match="forces edge-criticality"):
            dataclasses.replace(rep, edge_critical=False)
        # a square that is not Cohen-Macaulay over any field asks nothing
        rep = full_report(cycle_graph(4))
        assert not rep.edge_critical
        assert not any(rep.symbolic_square_cm_by_field.values())

    @pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(3), path_graph(4)])
    def test_one_oracle_for_both_fields(self, monkeypatch, g):
        calls = []
        oracle = classify._symbolic_square_cm_oracle

        def counted(graph):
            calls.append(graph)
            return oracle(graph)

        monkeypatch.setattr(classify, "_symbolic_square_cm_oracle", counted)
        rep = full_report(g)
        assert calls == [g]
        assert set(rep.symbolic_square_cm_by_field) == {Field.Q, Field.F2}

    def test_q_report_compares_the_gf2_oracle(self, monkeypatch):
        # the oracle's level answers GF(2) too, and every report holds both
        # fields, so a report printed for Q alone still compares GF(2)
        oracle = classify._symbolic_square_cm_oracle
        monkeypatch.setattr(
            classify, "_symbolic_square_cm_oracle", lambda g: oracle(g) - {Field.F2}
        )
        g = cycle_graph(5)
        assert g.vertex_count <= classify.ORACLE_CAP
        with pytest.raises(CrossRouteError, match="CM over F2 routes disagree"):
            full_report(g)

    @pytest.mark.parametrize(
        "g, counts",
        [
            (cycle_graph(5), (3, 8)),
            (fixture_by_label("cm36-06").graph(), (3, 11)),
            # nine vertices: above ORACLE_CAP, so no polarized square
            (fixture_by_label("cm36-21").graph(), (2, 21)),
            (EXAMPLE_GRAPH3.graph(), (2, 8)),
        ],
        ids=["C5", "cm36-06", "cm36-21", "example-graph3"],
    )
    def test_both_fields_cost_what_one_costs(self, monkeypatch, g, counts):
        # every Cohen-Macaulay verdict comes from one field-free lookup per
        # complex, so a report over both fields builds as many independence
        # complexes and makes as many lookups as a report over one field did
        built, looked = [], []
        build, look = classify.independence_complex, classify.cohen_macaulay_fields

        def counted_build(c):
            built.append(c)
            return build(c)

        def counted_look(complex_):
            looked.append(complex_)
            return look(complex_)

        monkeypatch.setattr(classify, "independence_complex", counted_build)
        monkeypatch.setattr(classify, "cohen_macaulay_fields", counted_look)
        full_report(g)
        assert (len(built), len(looked)) == counts

    @pytest.mark.parametrize(
        "g, walked",
        [
            (cycle_graph(5), 5),
            (fixture_by_label("cm36-06").graph(), 8),
            (fixture_by_label("cm36-21").graph(), 19),
            # not Cohen-Macaulay over any field: no G_e is restricted
            (cycle_graph(4), 0),
        ],
        ids=["C5", "cm36-06", "cm36-21", "C4"],
    )
    def test_one_edge_walk_for_both_fields(self, monkeypatch, g, walked):
        calls = []
        restrict = SimplicialComplex.deletion

        def counted(complex_, mask):
            calls.append(mask)
            return restrict(complex_, mask)

        monkeypatch.setattr(SimplicialComplex, "deletion", counted)
        got = classify.symbolic_square_cm_by_field(g)
        assert len(calls) == walked
        assert got == {f: classify.symbolic_square_cm(g, f) for f in got}

    def test_edge_walks_build_no_subgraph(self, monkeypatch):
        # every G_e is a restriction of Delta(G) and every G - e a toggle of
        # G's adjacency masks: neither edge-criticality route nor the
        # symbolic-square walk builds a graph
        built = []
        post_init = Graph.__post_init__

        def counted_post_init(graph):
            built.append(graph)
            post_init(graph)

        monkeypatch.setattr(Graph, "__post_init__", counted_post_init)
        for fix in CM36:
            g = fix.graph()
            built.clear()
            assert edge_criticality(g) == (True, None)
            assert built == [], fix.label
            assert classify.symbolic_square_cm_by_field(g)[Field.Q], fix.label
            assert built == [], fix.label

    def test_reports_build_only_cross_check_routes(self, monkeypatch, corpus):
        # a report builds a clutter only as the other route of a check:
        # the complement for the independence-number-2 readings and for
        # linear resolution, and the polarized square for the oracle;
        # 1-well-coveredness and edge-criticality build none
        expected = []
        for g in corpus:
            routes = []
            if g.has_edges() and g.vertex_count <= classify.ORACLE_CAP:
                routes.append(polarized_symbolic_power(g, 2))
            if g.independence_number() == 2:
                routes.append(g.complement())
            if g.has_edges() and not g.isolated_vertices():
                routes.append(g.complement())
            expected.append(routes)
        built = []
        post_init = Clutter.__post_init__

        def counted_post_init(c):
            built.append(c)
            post_init(c)

        monkeypatch.setattr(Clutter, "__post_init__", counted_post_init)
        for g, routes in zip(corpus, expected):
            built.clear()
            full_report(g)
            assert sorted(built, key=repr) == sorted(routes, key=repr), g

"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 6 needs an external exhaustive graph6 catalog of connected graphs
on at most 9 vertices; point VNUM_GRAPH6_CATALOG at it to enable the census.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from vnum.catalog import CM36, EXAMPLE_GRAPH3, EXAMPLE_GRAPH4, cm36_vertex_split
from vnum.classify import (
    edge_criticality,
    full_report,
    is_edge_critical,
    is_w2,
    symbolic_square_cm,
    v_number_checked,
)
from vnum.clutters import Clutter
from vnum.complexes import (
    Field,
    independence_complex,
    is_vertex_decomposable,
    regularity,
)
from vnum.formats import parse_graph6
from vnum.monomials import v_number_algebraic

from .graphs import disjoint_union, whisker
from .oracles import (
    Monomial,
    MonomialIdeal,
    clutter_of_squarefree_ideal,
    colon_by_monomial,
    delete_closed_neighborhood,
    edge_ideal,
    ordinary_power,
    symbolic_power,
    symbolic_square_cm_beta2,
)

BOTH = (Field.Q, Field.F2)


def _passed(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_table_reproduction():
    start = time.time()
    rep = full_report(EXAMPLE_GRAPH3.graph(), name="example-graph3")
    elapsed = time.time() - start
    assert rep.v == 3
    assert rep.dim == 3
    assert rep.reg_by_field[Field.Q] == 2
    assert rep.reg_by_field[Field.F2] == 3
    assert rep.w2 is True
    assert rep.edge_critical is True
    assert rep.cm_by_field[Field.Q] is True
    assert rep.symbolic_square_cm_by_field[Field.Q] is False
    assert elapsed <= 60
    _passed("1", f"11-vertex table values exact, {elapsed:.1f}s <= 60s")


def test_criterion_2_nine_vertex_example():
    start = time.time()
    rep = full_report(EXAMPLE_GRAPH4.graph(), name="example-graph4")
    elapsed = time.time() - start
    assert rep.v == rep.reg_by_field[Field.Q] == rep.beta0 == 3
    assert rep.w2 is True
    assert rep.edge_critical is True
    assert rep.symbolic_square_cm_by_field[Field.Q] is True
    assert elapsed <= 30
    _passed("2", f"v=reg=beta0=3 with all flags, {elapsed:.1f}s <= 30s")


def test_criterion_3_catalog():
    start = time.time()
    for fix in CM36:
        g = fix.graph()
        assert symbolic_square_cm(g, Field.Q), fix.label
        assert is_edge_critical(g), fix.label
    assert cm36_vertex_split() == (19, 17)
    elapsed = time.time() - start
    assert elapsed <= 600
    _passed("3", f"36 fixtures, split 19+17, {elapsed:.1f}s <= 600s")


def test_criterion_4_cross_route_equality(corpus):
    assert len(corpus) >= 500
    assert all(g.is_connected() and g.vertex_count <= 7 for g in corpus)
    for g in corpus:
        # raises CrossRouteError on any disagreement
        v_number_checked(g)
        edge_criticality(g)
    checked = 0
    for g in corpus:
        if g.vertex_count <= 6:
            for field in BOTH:
                symbolic_square_cm(g, field)
            checked += 1
    assert checked >= 100
    _passed(
        "4",
        f"{len(corpus)} graphs dual-route on v and edge-criticality, "
        f"{checked} polarization-oracle checks, zero disagreements",
    )


@pytest.fixture(scope="module")
def corpus_invariants(corpus):
    """Shared per-graph invariant table for the criterion 5 battery."""
    table = {}
    for g in corpus:
        table[g] = {
            "v": g.v_number(),
            "i": g.independent_domination(),
            "beta0": g.independence_number(),
            "alpha0": g.cover_number(),
            "reg": {f: regularity(g, f) for f in BOTH},
        }
    return table


def test_criterion_5_property_suite(corpus, corpus_invariants, named_graphs):
    rng = random.Random(20250809)
    fixtures = [named_graphs[k] for k in ("K2", "K3", "P3", "C4", "C5", "example4")]
    inv = corpus_invariants

    # v <= i <= beta0 and reg <= dim per field
    for g in corpus:
        assert inv[g]["v"] <= inv[g]["i"] <= inv[g]["beta0"]
        for f in BOTH:
            assert inv[g]["reg"][f] <= inv[g]["beta0"]

    # additivity of v and reg under disjoint union
    small = [g for g in corpus if g.vertex_count <= 4]
    for _ in range(12):
        g1, g2 = rng.choice(small), rng.choice(small)
        u = disjoint_union(g1, g2)
        assert u.v_number() == inv[g1]["v"] + inv[g2]["v"]
        for f in BOTH:
            assert regularity(u, f) == inv[g1]["reg"][f] + inv[g2]["reg"][f]

    # complete intersection ideals: v = sum(d_i - 1) = reg
    for _ in range(12):
        sizes = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        ambient = sum(sizes)
        edges, cursor = [], 1
        for d in sizes:
            edges.append(tuple(range(cursor, cursor + d)))
            cursor += d
        ci = Clutter.of(ambient, edges)
        expected = sum(d - 1 for d in sizes)
        assert ci.v_number() == expected
        assert v_number_algebraic(ci) == expected
        for f in BOTH:
            assert regularity(ci, f) == expected

    # whisker identity v(I(W_G)) = i(G), including the 22-vertex whisker of
    # the 11-vertex fixture
    for g in corpus + fixtures + [named_graphs["example3"]]:
        assert whisker(g).v_number() == g.independent_domination()

    # W2 iff v = dim on isolated-free graphs (routes asserted inside is_w2)
    for g in corpus:
        if g.vertex_count >= 2 and not g.isolated_vertices():
            assert is_w2(g) == (inv[g]["v"] == inv[g]["beta0"])

    # chordal complement forces v = reg = 1
    for g in corpus:
        if g.has_edges() and not g.isolated_vertices() and g.complement().is_chordal():
            assert inv[g]["v"] == 1
            for f in BOTH:
                assert inv[g]["reg"][f] == 1

    # vertex decomposable complexes satisfy v <= reg
    for g in corpus:
        if g.has_edges() and is_vertex_decomposable(independence_complex(g)):
            for f in BOTH:
                assert inv[g]["v"] <= inv[g]["reg"][f]

    # independence number two: edge-critical iff complement maximal
    # triangle-free iff symbolic square CM; isolated-free cases have v=reg=2
    for g in corpus + fixtures:
        if g.independence_number() != 2:
            continue
        critical = is_edge_critical(g)
        assert symbolic_square_cm_beta2(g) == critical
        assert g.complement().is_maximal_triangle_free() == critical
        assert symbolic_square_cm(g, Field.Q) == critical
        if critical and not g.isolated_vertices():
            v = g.v_number()
            assert v == 2
            for f in BOTH:
                assert regularity(g, f) == 2

    # W2 heredity and the well-covered converse
    for g in corpus:
        if g.vertex_count < 2 or g.isolated_vertices():
            continue
        complete = len(g.edge_masks) == g.vertex_count * (g.vertex_count - 1) // 2
        if is_w2(g) and not complete:
            for vtx in range(1, g.vertex_count + 1):
                sub = delete_closed_neighborhood(g, vtx)
                assert sub.independence_number() == inv[g]["beta0"] - 1
                assert is_w2(sub)
        if g.is_well_covered():
            descends = True
            for vtx in range(1, g.vertex_count + 1):
                sub = delete_closed_neighborhood(g, vtx)
                if sub.vertex_count == 0:
                    continue
                if sub.vertex_count < 2 or sub.isolated_vertices() or not is_w2(sub):
                    descends = False
                    break
            if descends:
                assert is_w2(g)

    # colon comparisons (a)-(e) and the dimension shift, per vertex
    sample = [g for g in corpus if g.has_edges()][:150] + fixtures
    for g in sample:
        i = edge_ideal(g)
        v = inv[g]["v"] if g in inv else g.v_number()
        colon_vs, added_vs = [], []
        for vtx in range(1, g.vertex_count + 1):
            tvar = Monomial.variable(g.vertex_count, vtx)
            colon = colon_by_monomial(i, tvar)
            cv = clutter_of_squarefree_ideal(colon).v_number()
            colon_vs.append(cv)
            assert v <= cv + 1
            added = MonomialIdeal.of(
                g.vertex_count, list(i.generators) + [tvar]
            )
            if added.is_unit():
                av = 0
            else:
                av = clutter_of_squarefree_ideal(added).v_number()
            added_vs.append(av)
            assert v <= av + 1
            colon_clutter = clutter_of_squarefree_ideal(colon)
            sub = delete_closed_neighborhood(g, vtx)
            assert colon_clutter.independence_number() == 1 + (
                sub.independence_number() if sub.vertex_count else 0
            )
        assert any(cv <= v for cv in colon_vs)
        assert any(av <= v for av in added_vs)
        if v >= 2:
            assert any(cv < v for cv in colon_vs)

    # cover ideals: alpha0 - 1 <= v(I_c), equality with the cover-ring
    # regularity when the independence complex is pure and decomposable
    for g in corpus:
        if not g.has_edges():
            continue
        blocker = g.blocker()
        vc = blocker.v_number()
        assert inv[g]["alpha0"] - 1 <= vc
        complex_ = independence_complex(g)
        if (
            not g.isolated_vertices()
            and complex_.is_pure()
            and is_vertex_decomposable(complex_)
        ):
            assert vc == inv[g]["alpha0"] - 1
            for f in BOTH:
                assert regularity(blocker, f) == inv[g]["alpha0"] - 1

    # containment of the square in the symbolic square, equality iff
    # triangle-free
    for g in corpus:
        if not g.has_edges():
            continue
        sym = symbolic_power(g, 2)
        square = ordinary_power(edge_ideal(g), 2)
        assert sym.contains_ideal(square)
        assert square.contains_ideal(sym) == g.is_triangle_free()

    _passed("5", f"property battery over {len(corpus)} corpus graphs + fixtures")


@pytest.mark.skipif(
    not os.environ.get("VNUM_GRAPH6_CATALOG"),
    reason="set VNUM_GRAPH6_CATALOG to an exhaustive connected-graph catalog "
    "(2..9 vertices, graph6, one per line) to run the census",
)
def test_criterion_6_edge_critical_census():
    path = os.environ["VNUM_GRAPH6_CATALOG"]
    start = time.time()
    counts: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            g = parse_graph6(line).to_clutter()
            if 2 <= g.vertex_count <= 9 and is_edge_critical(g):
                counts[g.vertex_count] = counts.get(g.vertex_count, 0) + 1
    total = sum(counts.values())
    elapsed = time.time() - start
    assert total == 53
    assert counts.get(9, 0) == 31
    assert elapsed <= 7200
    _passed("6", f"census 53 edge-critical, 31 on nine vertices, {elapsed:.0f}s")

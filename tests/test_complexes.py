"""Complexes, exact homology, regularity, Cohen-Macaulayness, decomposability."""

from __future__ import annotations

import copy
import itertools
import os
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

import vnum.complexes as complexes
from vnum.catalog import CM36, EXAMPLE_GRAPH3
from vnum.classify import ORACLE_CAP
from vnum.clutters import Clutter, Graph
from vnum.complexes import (
    Field,
    SimplicialComplex,
    _cm_level,
    _link,
    _relabel,
    _top_down,
    cohen_macaulay_fields,
    independence_complex,
    is_cohen_macaulay,
    is_vertex_decomposable,
    rank_gf2,
    rank_int_matrix,
    regularities,
    regularity,
)
from vnum.formats import parse_edge_list
from vnum.monomials import polarized_symbolic_power
from vnum.vertexsets import antichain_maxima, iter_bits, mask_members, or_all, sheds

from .graphs import complete_graph, cycle_graph, disjoint_union, path_graph, whisker
from .oracles import (
    Monomial,
    MonomialIdeal,
    clutter_of_squarefree_ideal,
    dense_rows,
    dominated,
    edge_ideal,
    euler_characteristic_reduced,
    homology_ranks_naive,
    induced_subclutter,
    is_cohen_macaulay_all_faces,
    is_cohen_macaulay_per_field,
    is_vertex_decomposable_naive,
    maximal_stable_naive,
    polarize,
    rank_bareiss,
    rank_fraction,
    rank_gf2_sets,
    reduced_homology_ranks,
    regularity_per_field,
    sheds_by_deletion,
    symbolic_power,
)
from .test_properties import complexes as drawn_complexes, shedding_complexes

RP2_FACETS = (
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
)
# the deletion of vertex 1 of RP^2; its boundary is the 5-cycle 2-3-5-6-4
MOBIUS_FACETS = tuple(f for f in RP2_FACETS if 1 not in f)


def profile_dict(ranks):
    """Nonzero ranks by dimension, from ranks listed from dimension -1 up."""
    return {d: r for d, r in enumerate(ranks, -1) if r}


class TestComplexBasics:
    def test_void_vs_irrelevant(self):
        void = SimplicialComplex(3, ())
        irr = SimplicialComplex(3, (0,))
        assert void.is_void() and not irr.is_void()
        assert irr.dim() == -1
        assert irr.face_masks() == (0,)

    def test_faces_of_two_facets(self):
        c = SimplicialComplex.of(4, [(1, 2, 3), (3, 4)])
        faces = {mask_members(m) for m in c.face_masks()}
        assert faces == {
            (), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 3), (3, 4), (1, 2, 3)
        }

    def test_independence_complex_c5(self):
        c = independence_complex(cycle_graph(5))
        assert c.dim() == 1 and len(c.facets) == 5

    def test_independence_complex_k3(self):
        c = independence_complex(complete_graph(3))
        assert c.dim() == 0 and len(c.facets) == 3

    def test_independence_complex_discrete(self):
        c = independence_complex(Clutter.of(3, []))
        assert c.facets == (0b111,)

    def test_purity_matches_well_covered(self, small_corpus):
        for g in small_corpus:
            assert independence_complex(g).is_pure() == g.is_well_covered()


class TestSubcomplexes:
    def test_link_of_cycle_vertex(self):
        # the facets {1,3} and {1,4} contain vertex 1; the other three do not
        c = independence_complex(cycle_graph(5))
        assert _link(c.facets, 0b1) == (1 << 2, 1 << 3)

    def test_induced_path(self):
        # the subcomplex induced on {1, 2, 3} deletes vertices 4 and 5
        c = independence_complex(cycle_graph(5))
        assert c.deletion(0b11000).facets == (0b010, 0b101)

    def test_deletion_of_simplex_vertex(self):
        c = SimplicialComplex.of(3, [(1, 2, 3)])
        assert c.deletion(0b100).facets == (0b011,)


class TestStanleyReisner:
    """The complex whose non-faces generate a squarefree ideal is the
    independence complex of the ideal's clutter."""

    def test_two_points(self):
        i = MonomialIdeal.of(2, [Monomial.of(2, (1, 1))])
        c = independence_complex(clutter_of_squarefree_ideal(i))
        assert set(c.facets) == {0b01, 0b10}

    def test_roundtrip_with_independence_complex(self, small_corpus):
        for g in small_corpus[:80]:
            c = clutter_of_squarefree_ideal(edge_ideal(g))
            assert independence_complex(c) == independence_complex(g)

    def test_variable_generators_are_nonfaces(self):
        i = MonomialIdeal.of(3, [Monomial.of(3, (1, 0, 0)), Monomial.of(3, (0, 1, 1))])
        c = independence_complex(clutter_of_squarefree_ideal(i))
        # vertex 1 is a generator, so no face holds it
        assert not or_all(c.facets) & 0b001
        assert set(c.facets) == {0b010, 0b100}

    def test_polarized_symbolic_square_k3(self):
        pol, _ = polarize(symbolic_power(complete_graph(3), 2))
        c = independence_complex(clutter_of_squarefree_ideal(pol))
        assert c.ambient_size == 6
        assert c.face_masks()

    def test_nonsquarefree_rejected(self):
        with pytest.raises(ValueError):
            clutter_of_squarefree_ideal(MonomialIdeal.of(1, [Monomial.of(1, (2,))]))


def sparse_columns(rows):
    """The columns of dense rows, each as {row: nonzero entry}."""
    return [
        {i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))
    ]


class TestRankEngines:
    def test_known_matrix(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        columns = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}, {0: 3, 1: 6, 2: 1}]
        assert rank_int_matrix(columns) == 2
        assert rank_fraction(rows) == 2

    def test_random_matrices_match_fraction_oracle(self):
        rng = random.Random(13)
        for _ in range(150):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = [
                [rng.randrange(-3, 4) for _ in range(nc)] for _ in range(nr)
            ]
            assert rank_int_matrix(sparse_columns(rows)) == rank_fraction(rows)

    def test_random_gf2_matrices_match_set_oracle(self):
        rng = random.Random(17)
        for _ in range(150):
            nr, nc = rng.randrange(1, 9), rng.randrange(1, 9)
            rows_bits = [rng.getrandbits(nc) for _ in range(nr)]
            rows_sets = [
                {j for j in range(nc) if r >> j & 1} for r in rows_bits
            ]
            assert rank_gf2(rows_bits) == rank_gf2_sets(rows_sets)


class TestSparseRationalRank:
    """`rank_int_matrix` against dense Bareiss and Fraction elimination.

    The inputs are the boundary maps that regularity scans send to the
    rational rank, and RP^2, whose rank over Q exceeds its rank mod 2.
    Hypothesis draws random sparse columns in test_properties.py.
    """

    @staticmethod
    def check(columns):
        before = copy.deepcopy(columns)
        rank = rank_int_matrix(columns)
        assert columns == before
        rows = dense_rows(columns)
        assert rank == rank_bareiss(rows) == rank_fraction(rows)
        return rank

    def test_boundary_maps_of_scans(self, monkeypatch):
        data = os.path.join(os.path.dirname(__file__), "data")
        inputs = {"example-graph3": EXAMPLE_GRAPH3.graph()}
        for name in ("clutter10", "gnp16-0.3"):
            with open(os.path.join(data, f"{name}.txt")) as fh:
                inputs[name] = parse_edge_list(fh.read()).to_clutter()
        for name, c in inputs.items():
            sent = []

            def recording(columns):
                sent.append(list(columns))
                return rank_int_matrix(sent[-1])

            monkeypatch.setattr(complexes, "rank_int_matrix", recording)
            regularities(c)
            assert sent, name
            for columns in sent:
                self.check(columns)

    def test_projective_plane(self):
        edges = sorted({e for t in RP2_FACETS for e in itertools.combinations(t, 2)})
        index = {e: i for i, e in enumerate(edges)}
        columns = [
            {index[(b, c)]: 1, index[(a, c)]: -1, index[(a, b)]: 1}
            for a, b, c in RP2_FACETS
        ]
        assert self.check(columns) == 10
        assert rank_gf2([sum(1 << r for r in col) for col in columns]) == 9


class TestHomology:
    def test_circle(self):
        c = independence_complex(cycle_graph(5))
        for field in (Field.Q, Field.F2):
            assert profile_dict(reduced_homology_ranks(c, field)) == {1: 1}

    def test_two_points(self):
        c = SimplicialComplex.of(2, [(1,), (2,)])
        for field in (Field.Q, Field.F2):
            assert profile_dict(reduced_homology_ranks(c, field)) == {0: 1}

    def test_full_simplex(self):
        c = SimplicialComplex.of(4, [(1, 2, 3, 4)])
        for field in (Field.Q, Field.F2):
            assert profile_dict(reduced_homology_ranks(c, field)) == {}

    def test_irrelevant_complex(self):
        c = SimplicialComplex(2, (0,))
        assert profile_dict(reduced_homology_ranks(c, Field.Q)) == {-1: 1}

    def test_void_complex(self):
        c = SimplicialComplex(2, ())
        assert reduced_homology_ranks(c, Field.Q) == ()

    def test_sphere_boundary(self):
        # boundary of the tetrahedron is a 2-sphere
        c = SimplicialComplex.of(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        for field in (Field.Q, Field.F2):
            assert profile_dict(reduced_homology_ranks(c, field)) == {2: 1}

    def test_projective_plane_detects_torsion(self):
        # minimal 6-vertex triangulation of the real projective plane
        rp2 = SimplicialComplex.of(
            6,
            [
                (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
            ],
        )
        assert profile_dict(reduced_homology_ranks(rp2, Field.Q)) == {}
        assert profile_dict(reduced_homology_ranks(rp2, Field.F2)) == {1: 1, 2: 1}

    def test_against_naive_oracle_on_random_complexes(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(3, 7)
            facets = set()
            for _ in range(rng.randrange(1, 6)):
                size = rng.randrange(1, n + 1)
                facets.add(frozenset(rng.sample(range(1, n + 1), size)))
            complex_ = SimplicialComplex.of(n, [tuple(f) for f in facets])
            for field in (Field.Q, Field.F2):
                got = reduced_homology_ranks(complex_, field)
                want = homology_ranks_naive(list(facets), field.value)
                want_nonzero = {d: r for d, r in want.items() if r}
                assert profile_dict(got) == want_nonzero

    def test_universal_coefficient_direction(self, small_corpus):
        for g in small_corpus[:60]:
            c = independence_complex(g)
            hq = reduced_homology_ranks(c, Field.Q)
            h2 = reduced_homology_ranks(c, Field.F2)
            assert len(hq) == len(h2)
            assert all(q <= r for q, r in zip(hq, h2))

    def test_euler_characteristic_consistency(self, small_corpus):
        for g in small_corpus[:60]:
            c = independence_complex(g)
            for field in (Field.Q, Field.F2):
                profile = reduced_homology_ranks(c, field)
                alternating = sum(
                    (-1 if d % 2 else 1) * r for d, r in enumerate(profile, -1)
                )
                assert alternating == euler_characteristic_reduced(c)


class TestRegularity:
    def test_example3_both_fields(self):
        g = EXAMPLE_GRAPH3.graph()
        assert regularity(g, Field.Q) == 2
        assert regularity(g, Field.F2) == 3

    def test_k2(self):
        assert regularity(complete_graph(2), Field.Q) == 1

    def test_c5(self):
        assert regularity(cycle_graph(5), Field.Q) == 2

    def test_discrete(self):
        assert regularity(Clutter.of(3, []), Field.Q) == 0

    def test_bounded_by_dimension(self, small_corpus):
        for g in small_corpus[:80]:
            dim = g.independence_number()
            for field in (Field.Q, Field.F2):
                assert regularity(g, field) <= dim

    def test_additive_over_disjoint_union(self):
        rng = random.Random(5)
        pieces = [path_graph(2), path_graph(3), cycle_graph(4), complete_graph(3)]
        for _ in range(6):
            g1, g2 = rng.choice(pieces), rng.choice(pieces)
            u = disjoint_union(g1, g2)
            for field in (Field.Q, Field.F2):
                assert regularity(u, field) == regularity(g1, field) + regularity(
                    g2, field
                )

    def test_unused_variable_invariance(self):
        # appending an isolated vertex leaves the regularity unchanged
        c5 = cycle_graph(5)
        padded = Clutter.of(6, c5.edge_lists())
        for field in (Field.Q, Field.F2):
            assert regularity(padded, field) == regularity(c5, field)

    def test_bounded_by_isolated_free_dimension(self):
        # the bound tightens to the dimension of the isolated-free part
        g = Clutter.of(6, [(1, 2), (2, 3), (3, 1)])
        stripped_dim = 1  # beta0 of the triangle
        for field in (Field.Q, Field.F2):
            assert regularity(g, field) <= stripped_dim


BOTH = (Field.Q, Field.F2)


class TestRegularities:
    """The one pruned scan for all fields against the per-field oracle."""

    @staticmethod
    def check(c):
        got = regularities(c)
        want = {f: regularity_per_field(c, f) for f in BOTH}
        assert got == want
        assert list(got) == list(BOTH)
        return got

    def test_corpus(self, corpus):
        for g in corpus:
            self.check(g)

    def test_cm36(self, cm36_graphs):
        for _, g in cm36_graphs:
            self.check(g)

    def test_example3_differs_between_fields(self):
        assert self.check(EXAMPLE_GRAPH3.graph()) == {Field.Q: 2, Field.F2: 3}

    def test_one_field_wrapper(self):
        g = EXAMPLE_GRAPH3.graph()
        assert regularity(g, Field.F2) == 3
        assert regularity(g, Field.Q) == 2

    def test_clutters_with_singleton_and_larger_edges(self):
        for edges in ([(1,), (2, 3), (3, 4)], [(1, 2, 3), (3, 4), (4, 5, 1)]):
            c = Clutter.of(5, edges)
            self.check(c)

    def test_wide_edges_keep_the_plain_stop(self):
        # the boundary of the triangle {1, 2, 3} has 1-homology on 3
        # vertices, so reg is 2, while larger subsets settle only reg 1:
        # the flag stop, sizes below 2 * 1 + 2, would end the scan first
        c = Clutter.of(
            6,
            [(1, 2, 3), (1, 4), (1, 5), (1, 6), (2, 4), (3, 6), (4, 5), (4, 6), (5, 6)],
        )
        assert self.check(c) == {Field.Q: 2, Field.F2: 2}


def kernel_matches_naive(facets, n, stop):
    """Compare `_top_down` with the from-scratch ranks in dimensions >= stop."""
    chains = _top_down(facets, stop)
    sets = [frozenset(mask_members(f)) for f in facets]
    for field, betti in ((Field.F2, chains.betti2), (Field.Q, chains.betti_q)):
        want = homology_ranks_naive(sets, field.value)
        for d in range(max(stop, -1), chains.top + 1):
            assert betti(d) == want.get(d, 0), (facets, stop, field, d)


class TestTopDownKernel:
    """The kernel's mod-2 and rational ranks against `homology_ranks_naive`."""

    def test_independence_complexes(self, small_corpus):
        for g in small_corpus:
            facets = independence_complex(g).facets
            for stop in (-1, 0, 1, 2):
                kernel_matches_naive(facets, g.vertex_count, stop)

    def test_projective_plane_from_each_stop(self):
        rp2 = SimplicialComplex.of(6, RP2_FACETS)
        for stop in (-1, 0, 1, 2):
            kernel_matches_naive(rp2.facets, 6, stop)
        chains = _top_down(rp2.facets, 2)
        assert (chains.betti2(2), chains.betti_q(2)) == (1, 0)
        assert set(chains.levels) == {1, 2}  # nothing below stop - 1

    def test_lower_dimensional_facets_join_their_level(self):
        # a triangle, an edge hanging off it and an isolated point
        c = SimplicialComplex.of(5, [(1, 2, 3), (3, 4), (5,)])
        chains = _top_down(c.facets, -1)
        assert sorted(len(chains.levels[d]) for d in (-1, 0, 1, 2)) == [1, 1, 4, 5]
        assert (chains.betti2(-1), chains.betti2(0), chains.betti2(1)) == (0, 1, 0)

    def test_random_non_pure_complexes(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randrange(3, 8)
            faces = [
                rng.sample(range(1, n + 1), rng.randrange(1, n + 1))
                for _ in range(rng.randrange(1, 7))
            ]
            c = SimplicialComplex.of(n, faces)
            for stop in range(-1, c.dim() + 2):
                kernel_matches_naive(c.facets, n, stop)

    def test_generators_need_not_be_facets(self):
        # the scan passes the maximal stable sets cut down to A, which may
        # contain one another; the kernel must count each face once
        c = SimplicialComplex.of(6, RP2_FACETS[:3] + ((1, 2), (4,)))
        gens = c.facets + (0b0011, 0b1000 | 0b0001)
        whole = _top_down(c.facets, -1)
        redundant = _top_down(gens, -1)
        for d in range(-1, whole.top + 1):
            assert len(whole.levels[d]) == len(redundant.levels[d])
            assert whole.betti2(d) == redundant.betti2(d)


def permuted(complex_, rng):
    """A copy of the complex under a random bijection of its ambient."""
    perm = list(range(1, complex_.ambient_size + 1))
    rng.shuffle(perm)
    return SimplicialComplex.of(
        complex_.ambient_size,
        [[perm[v - 1] for v in mask_members(f)] for f in complex_.facets],
    )


def f_vector(facets):
    sizes = [f.bit_count() for f in complexes._face_masks(facets)]
    return [sizes.count(k) for k in range(max(sizes) + 1)]


def clear_cm_memo():
    """Empty the Cohen-Macaulay memo."""
    complexes._cm_recursive.cache_clear()


def random_complex(rng, n):
    faces = [
        rng.sample(range(1, n + 1), rng.randrange(1, n + 1))
        for _ in range(rng.randrange(1, 7))
    ]
    return SimplicialComplex.of(n, faces)


class TestIsomorphismMemo:
    """The Cohen-Macaulay memo is keyed by `_relabel` of the facets."""

    def test_relabel_is_a_vertex_bijection(self, small_corpus):
        rng = random.Random(47)
        cases = [random_complex(rng, rng.randrange(1, 9)) for _ in range(200)]
        cases += [
            independence_complex(polarized_symbolic_power(g, 2))
            for g in small_corpus[:40]
        ]
        for c in cases:
            got = _relabel(c.facets)
            assert got == antichain_maxima(got)
            assert len(got) == len(c.facets)
            assert or_all(got) == (1 << or_all(c.facets).bit_count()) - 1
            assert f_vector(got) == f_vector(c.facets)

    def test_relabel_examples(self):
        assert _relabel((0,)) == (0,)
        assert _relabel(()) == ()
        # unused vertices are squeezed out: the path 2-4-3
        assert _relabel((0b1010, 0b1100)) == (0b101, 0b110)
        # the path 1-2-3: the middle vertex, of degree 2, moves to the top
        assert _relabel((0b011, 0b110)) == (0b101, 0b110)
        # a triangle {1, 2, 3} and an edge {1, 4}: the end 4 of the edge
        # (degree 1, in one facet of degree sum 3) comes first, the shared
        # vertex 1 last; the same shape on other labels gives the same tuple
        assert _relabel((0b0111, 0b1001)) == (0b1001, 0b1110)
        assert _relabel((0b0111, 0b1100)) == (0b1001, 0b1110)

    def test_level_is_label_free(self, small_corpus):
        rng = random.Random(53)
        cases = [random_complex(rng, rng.randrange(2, 8)) for _ in range(60)]
        cases.append(SimplicialComplex.of(6, RP2_FACETS))
        cases += [independence_complex(g) for g in small_corpus[::9]]
        cases += [
            independence_complex(polarized_symbolic_power(g, 2))
            for g in small_corpus[:40:4]
        ]
        seen = set()
        for c in cases:
            want = tuple(is_cohen_macaulay_per_field(c, f) for f in BOTH)
            seen.add(want)
            for copy in [c] + [permuted(c, rng) for _ in range(3)]:
                clear_cm_memo()
                level = _cm_level(copy.facets)
                assert (level >= 1, level >= 2) == want, copy.facets
        assert seen == {(False, False), (True, False), (True, True)}


class TestCohenMacaulay:
    def test_c5_is_cm(self):
        c = independence_complex(cycle_graph(5))
        assert is_cohen_macaulay(c, Field.Q)
        assert is_cohen_macaulay(c, Field.F2)

    def test_c4_complex_not_cm(self):
        c = independence_complex(cycle_graph(4))
        assert not is_cohen_macaulay(c, Field.Q)

    def test_example3_cm_only_in_characteristic_zero(self):
        c = independence_complex(EXAMPLE_GRAPH3.graph())
        assert is_cohen_macaulay(c, Field.Q)
        assert not is_cohen_macaulay(c, Field.F2)

    def test_projective_plane_field_dependence(self):
        rp2 = SimplicialComplex.of(
            6,
            [
                (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
            ],
        )
        assert is_cohen_macaulay(rp2, Field.Q)
        assert not is_cohen_macaulay(rp2, Field.F2)

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            is_cohen_macaulay(SimplicialComplex(2, ()), Field.Q)

    def test_irrelevant_is_cm(self):
        assert is_cohen_macaulay(SimplicialComplex(2, (0,)), Field.Q)

    def test_recursive_matches_all_faces_route(self, small_corpus):
        for g in small_corpus[:70]:
            c = independence_complex(g)
            for field in (Field.Q, Field.F2):
                assert is_cohen_macaulay(c, field) == is_cohen_macaulay_all_faces(
                    c, field
                )

    def test_all_faces_on_random_complexes(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randrange(3, 6)
            facets = set()
            for _ in range(rng.randrange(1, 5)):
                size = rng.randrange(1, n + 1)
                facets.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
            c = SimplicialComplex.of(n, facets)
            for field in (Field.Q, Field.F2):
                assert is_cohen_macaulay(c, field) == is_cohen_macaulay_all_faces(
                    c, field
                )


class TestOneRecursionForBothFields:
    """The merged Cohen-Macaulay recursion against the per-field one."""

    @staticmethod
    def levels(c):
        merged = tuple(is_cohen_macaulay(c, f) for f in (Field.Q, Field.F2))
        per_field = tuple(
            is_cohen_macaulay_per_field(c, f) for f in (Field.Q, Field.F2)
        )
        assert merged == per_field
        # the memo is keyed by relabelled facets; the level is label-free
        level = _cm_level(c.facets)
        assert (level >= 1, level >= 2) == per_field
        return merged

    def test_independence_complexes(self, corpus, cm36_graphs):
        graphs = corpus + [g for _, g in cm36_graphs] + [EXAMPLE_GRAPH3.graph()]
        seen = {self.levels(independence_complex(g)) for g in graphs}
        # example-graph3 is Cohen-Macaulay over Q only
        assert seen == {(False, False), (True, False), (True, True)}

    def test_polarized_symbolic_squares(self, corpus):
        graphs = [g for g in corpus if g.vertex_count <= 5]
        graphs += [g for g in corpus if g.vertex_count in (6, 7)][::7]
        graphs += [fix.graph() for fix in CM36 if fix.vertex_count <= 6]
        seen = set()
        for g in graphs:
            polarized = polarized_symbolic_power(g, 2)
            seen.add(self.levels(independence_complex(polarized)))
        assert seen == {(False, False), (True, True)}

    def test_projective_plane_is_the_rational_only_level(self):
        rp2 = SimplicialComplex.of(6, RP2_FACETS)
        assert self.levels(rp2) == (True, False)
        cone = SimplicialComplex.of(7, [f + (7,) for f in RP2_FACETS])
        assert self.levels(cone) == (True, False)
        with_point = SimplicialComplex.of(7, list(RP2_FACETS) + [(7,)])
        assert self.levels(with_point) == (False, False)


def join(first, second, shift):
    """Facets of the join of two facet lists, the second's vertices shifted up."""
    return [a + tuple(v + shift for v in b) for a in first for b in second]


def shedders(facets):
    """The shedding vertex bits of a complex, in increasing order: the
    vertices the gluing step tries."""
    return [b for b in iter_bits(or_all(facets)) if sheds_by_deletion(facets, b)]


@st.composite
def rp2_sheddings(draw):
    """Vertex 1 coned over RP^2 on 2..7, each triangle t of which also lies
    in a tetrahedron t + w for some w in 2..9: vertex 1 sheds, and its link,
    RP^2, is Cohen-Macaulay over Q only."""
    facets = []
    for t in RP2_FACETS:
        t = tuple(v + 1 for v in t)
        w = draw(st.sampled_from([v for v in range(2, 10) if v not in t]))
        facets += [(1,) + t, t + (w,)]
    return SimplicialComplex.of(9, facets)


class TestGluingStep:
    """The recursion tries each vertex b whose deletion is pure of full
    dimension, in turn: a level 0 of lk b settles level 0, a level 1 of
    lk b ends the attempts, and lk b and del b both of level 2 prove level
    2; in every other case the link-vanishing test decides."""

    @staticmethod
    def per_field(c):
        return frozenset(f for f in BOTH if is_cohen_macaulay_per_field(c, f))

    def test_a_later_shedding_vertex_proves_level_2(self, monkeypatch):
        # two copies of K4 joined by a path through vertex 5: the bridge
        # vertex, of degree 2, is the first shedding vertex of the
        # relabelled complex, and its deletion is disconnected; a vertex of
        # either K4 then sheds with a connected deletion, so the complex
        # itself never reaches the link-vanishing test
        k4 = list(itertools.combinations((1, 2, 3, 4), 2))
        edges = k4 + [(u + 5, v + 5) for u, v in k4] + [(4, 5), (5, 6)]
        c = SimplicialComplex.of(9, edges)
        key = _relabel(c.facets)
        first = shedders(key)[0]
        assert _cm_level(_link(key, first)) == 2
        assert _cm_level(tuple(f for f in key if not f & first)) == 0
        clear_cm_memo()
        kernel = []
        real = complexes._top_down
        monkeypatch.setattr(
            complexes,
            "_top_down",
            lambda facets, stop: kernel.append(facets) or real(facets, stop),
        )
        assert cohen_macaulay_fields(c) == self.per_field(c) == set(BOTH)
        assert key not in kernel

    def test_a_rational_link_caps_the_level(self):
        # the suspension of RP^2 with a disjoint tetrahedron: both apexes
        # shed, with the link RP^2 of level 1, and every other shedding
        # vertex has a link of level 2; but the complex is disconnected
        suspension = join(RP2_FACETS, [(1,), (2,)], 6)
        c = SimplicialComplex.of(12, suspension + [(9, 10, 11, 12)])
        key = _relabel(c.facets)
        links = {_cm_level(_link(key, b)) for b in shedders(key)}
        assert links == {1, 2}
        clear_cm_memo()
        assert cohen_macaulay_fields(c) == self.per_field(c) == set()

    @given(st.one_of(shedding_complexes(), rp2_sheddings()))
    @settings(deadline=None, max_examples=150)
    def test_matches_the_link_vanishing_oracle(self, c):
        # every example starts from a cold memo, so the gluing step runs on
        # the complex itself and not only the verdict of an earlier copy
        clear_cm_memo()
        assert cohen_macaulay_fields(c) == self.per_field(c)

    def test_rational_link_and_deletion_prove_nothing_over_gf2(self):
        # RP^2 on 4..9 joined with the path 1-2-3: once the cone point 2 is
        # stripped, vertex 1 is the first shedding vertex, with the link RP^2
        # and the deletion a cone over RP^2, both Cohen-Macaulay over Q only
        c = SimplicialComplex.of(9, join([(1, 2), (2, 3)], RP2_FACETS, 3))
        clear_cm_memo()
        assert cohen_macaulay_fields(c) == self.per_field(c) == {Field.Q}

    def test_deletions_that_are_not_cohen_macaulay(self):
        # every vertex of RP^2 sheds, with a 5-cycle for its link and a
        # Moebius strip, a circle up to homotopy, for its deletion; a
        # triangle on a boundary edge of the strip sheds its third vertex
        cases = [
            RP2_FACETS,
            MOBIUS_FACETS,
            MOBIUS_FACETS + ((2, 3, 7),),
            MOBIUS_FACETS + ((2, 3, 7), (3, 5, 8)),
            join([(7,), (8,)], MOBIUS_FACETS, 0),
            join([(1,), (2,), (3,)], RP2_FACETS, 3),
        ]
        rng = random.Random(61)
        seen = set()
        for facets in cases:
            c = SimplicialComplex.of(max(map(max, facets)), facets)
            want = self.per_field(c)
            seen.add(want)
            for copy in [c] + [permuted(c, rng) for _ in range(3)]:
                clear_cm_memo()
                assert cohen_macaulay_fields(copy) == want, copy.facets
        assert seen == {frozenset(), frozenset({Field.Q})}


class TestSheds:
    """The one shedding test against the deletion it spares building."""

    @given(st.one_of(drawn_complexes(), shedding_complexes(), rp2_sheddings()))
    @settings(deadline=None, max_examples=200)
    def test_matches_the_built_deletion(self, c):
        present, used = set(c.facets), or_all(c.facets)
        for b in iter_bits(used):
            assert sheds(present, used, b) == sheds_by_deletion(c.facets, b), (
                c.facets,
                b,
            )

    def test_a_larger_facet_takes_the_trade(self):
        # vertex 1 of the triangle 1-2-3 with the tetrahedron 2-3-4-5: the
        # edge 2-3 lies only in the larger facet, so 1 sheds, though no
        # triangle 2-3-w is a facet; the tetrahedron's vertices do not shed
        c = SimplicialComplex.of(5, [(1, 2, 3), (2, 3, 4, 5)])
        present, used = set(c.facets), or_all(c.facets)
        assert [b for b in iter_bits(used) if sheds(present, used, b)] == [0b1]
        assert shedders(c.facets) == [0b1]

    def test_every_facet_through_the_vertex_must_trade(self):
        # in the path 1-2-3-4 vertex 2 trades its edge 1-2 for nothing, though
        # its edge 2-3 trades for 3-4; the ends shed
        c = SimplicialComplex.of(4, [(1, 2), (2, 3), (3, 4)])
        present, used = set(c.facets), or_all(c.facets)
        assert [b for b in iter_bits(used) if sheds(present, used, b)] == [0b1, 0b1000]


def assert_collapse_chain(facets):
    """Each bit `dominated` takes, in increasing order, has a cone link in
    the deletion of the bits taken before it."""
    taken = 0
    for b in iter_bits(dominated(facets)):
        apexes = -1
        for f in _link(antichain_maxima(f & ~taken for f in facets), b):
            apexes &= f
        assert apexes > 0, (facets, b)
        taken |= b
    assert taken != or_all(facets)


class TestStrongCollapses:
    """Dominated vertices, the reference of the scan's fold checks."""

    def test_minimal_complexes_have_no_dominated_vertex(self):
        for facets in (
            SimplicialComplex.of(6, RP2_FACETS).facets,
            independence_complex(cycle_graph(5)).facets,
            SimplicialComplex.of(3, [(1,), (2,), (3,)]).facets,
            SimplicialComplex.of(3, [(1, 2), (1, 3), (2, 3)]).facets,
        ):
            assert dominated(facets) == 0

    def test_dominated_vertex_has_a_cone_link(self):
        # a path 1-2-3: the ends lie only in one edge each, the middle in two
        path = SimplicialComplex.of(3, [(1, 2), (2, 3)])
        assert dominated(path.facets) == 0b101
        # two triangles on the edge {1, 2}: every vertex has an apex
        bowtie = SimplicialComplex.of(4, [(1, 2, 3), (1, 2, 4)])
        for facets in (path.facets, bowtie.facets):
            assert_collapse_chain(facets)


class TestWorkCounts:
    """Kernel calls are deterministic, unlike time, so they guard the prunes."""

    @staticmethod
    def counted(monkeypatch, name="_top_down"):
        calls = []
        real = getattr(complexes, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(complexes, name, counting)
        return calls

    def test_fold_skip_in_the_scan(self, monkeypatch, gnp):
        # 6,595 and 34,650 kernel calls with the cone skip alone
        calls = self.counted(monkeypatch)
        regularities(gnp(14, 0.3))
        assert len(calls) <= 100
        calls.clear()
        regularities(gnp(16, 0.3))
        assert len(calls) <= 1000

    def test_scan_passes_the_kernel_sorted_faces(self, monkeypatch, gnp):
        # in a set's hash order the same faces cost 8 K3's one kernel call
        # several times as much
        calls = self.counted(monkeypatch)
        regularities(gnp(12, 0.3))
        regularities(Clutter.of(6, [(1, 2, 3), (3, 4), (4, 5, 6), (1, 6), (2, 5)]))
        assert len(calls) > 1
        assert all(list(faces) == sorted(faces) for faces, _ in calls)

    @staticmethod
    def visited(monkeypatch):
        """The subsets the scan draws, counted where it enumerates them."""
        visits = []

        def combinations(bits, size):
            for combo in itertools.combinations(bits, size):
                visits.append(combo)
                yield combo

        monkeypatch.setattr(
            complexes, "itertools", types.SimpleNamespace(combinations=combinations)
        )
        return visits

    def test_flag_stop_in_a_graph_scan(self, monkeypatch, gnp):
        # 15,914 and 64,839 subsets when the scan stopped at sizes up to
        # the best; the kernel calls stay 34 and 921
        visits = self.visited(monkeypatch)
        regularities(gnp(14, 0.3))
        assert len(visits) <= 6500
        visits.clear()
        regularities(gnp(16, 0.3))
        assert len(visits) <= 40000

    def test_dimension_ceiling_ends_the_scan(self, monkeypatch):
        # Delta(4 K3), a join of four 3-point sets, has reg 4 = dim + 1 on
        # the whole vertex set, the first subset: without the ceiling the
        # scan goes on through the 78 subsets of sizes 11 and 10
        g = complete_graph(3)
        for _ in range(3):
            g = disjoint_union(g, complete_graph(3))
        visits = self.visited(monkeypatch)
        calls = self.counted(monkeypatch)
        assert regularities(g) == {Field.Q: 4, Field.F2: 4}
        assert (len(visits), len(calls)) == (1, 1)
        # the triangle 1-4-5 with the path 5-2-3: the induced matching
        # {1, 4}, {2, 3} gives reg 2 = dim + 1 on the first subset of size
        # 4, and the scan returns there, not after the other four
        visits.clear()
        g = Graph.of(5, [(1, 4), (1, 5), (4, 5), (2, 5), (2, 3)])
        assert regularities(g) == {Field.Q: 2, Field.F2: 2}
        assert visits == [(1, 2, 4, 8, 16), (1, 2, 4, 8)]
        # singleton edges alone leave Delta = {emptyset}, of ceiling 0
        visits.clear()
        assert regularities(Clutter.of(3, [(1,), (2,), (3,)])) == {Field.Q: 0, Field.F2: 0}
        assert visits == []

    def test_cone_links_in_a_clutter_scan(self, monkeypatch):
        # 79 and 3,937 kernel calls with the cone skip alone
        calls = self.counted(monkeypatch)
        for name, most in (("clutter10.txt", 25), ("clutter16.txt", 150)):
            path = os.path.join(os.path.dirname(__file__), "data", name)
            with open(path) as fh:
                c = parse_edge_list(fh.read()).to_clutter()
            calls.clear()
            regularities(c)
            assert len(calls) <= most, name

    def test_cohen_macaulay_recursion_on_the_oracle_complexes(self, monkeypatch):
        # the polarization oracle's complexes over the catalog: keyed by
        # compacted facets alone, 5,501 memo entries and 4,558 kernel calls,
        # 883 when homology was taken on strong-collapse cores.  Keyed by
        # `_relabel`, the recursion ran on 1,041 complexes, 242 of them with
        # a core that is not a point; gluing at the first shedding vertex
        # only, on 572 complexes with 78 such cores; gluing at every
        # shedding vertex, with a link below level 2 ending the attempts,
        # on 80 complexes with 8 such cores.  Without the cores the same 8
        # complexes reach the kernel whole: 8 calls and 80 misses.
        oracle = [
            independence_complex(polarized_symbolic_power(fix.graph(), 2))
            for fix in CM36
            if fix.vertex_count <= ORACLE_CAP
        ]
        clear_cm_memo()
        calls = self.counted(monkeypatch)
        assert all(_cm_level(k.facets) == 2 for k in oracle)
        assert len(calls) <= 15
        assert complexes._cm_recursive.cache_info().misses <= 120

    def test_decomposability_builds_no_deletion(self, monkeypatch):
        # Delta(4 K3), a join of four 3-point sets: every vertex sheds, and
        # the shedding test reads the deletion off the facets avoiding the
        # vertex; building each deletion took 20 `antichain_maxima` calls
        g = complete_graph(3)
        for _ in range(3):
            g = disjoint_union(g, complete_graph(3))
        c = independence_complex(g)
        complexes._vd.cache_clear()
        calls = self.counted(monkeypatch, "antichain_maxima")
        assert is_vertex_decomposable(c)
        assert not calls

    def test_decomposability_reuses_the_cohen_macaulay_memo(self, monkeypatch, gnp):
        # the decomposability prune asks the memo that the Cohen-Macaulay
        # test filled; keyed by compacted facets, it made 65 new misses and
        # 3 kernel calls here
        whiskered = [
            independence_complex(whisker(gnp(8, 0.4, seed=k))) for k in range(10)
        ]
        clear_cm_memo()
        complexes._vd.cache_clear()
        for c in whiskered:
            for field in BOTH:
                assert is_cohen_macaulay(c, field)
        misses = complexes._cm_recursive.cache_info().misses
        calls = self.counted(monkeypatch)
        assert all(is_vertex_decomposable(c) for c in whiskered)
        assert complexes._cm_recursive.cache_info().misses == misses
        assert not calls


class TestVertexDecomposable:
    def test_simplex(self):
        assert is_vertex_decomposable(SimplicialComplex.of(3, [(1, 2, 3)]))

    def test_void(self):
        assert is_vertex_decomposable(SimplicialComplex(2, ()))

    def test_c5_complex(self):
        assert is_vertex_decomposable(independence_complex(cycle_graph(5)))

    def test_c4_complex_not(self):
        assert not is_vertex_decomposable(independence_complex(cycle_graph(4)))

    def test_example3_not(self):
        assert not is_vertex_decomposable(independence_complex(EXAMPLE_GRAPH3.graph()))

    def test_pure_decomposable_implies_cm_on_corpus(self, small_corpus):
        # decomposable implies shellable; with purity that forces
        # Cohen-Macaulayness over every field
        for g in small_corpus[:80]:
            c = independence_complex(g)
            if c.is_pure() and is_vertex_decomposable(c):
                for field in (Field.Q, Field.F2):
                    assert is_cohen_macaulay(c, field)

    def test_chordless_criterion(self, small_corpus):
        # no chordless cycles of length other than 3 or 5 forces v <= reg
        for g in small_corpus[:60]:
            if not g.has_edges():
                continue
            if _has_only_short_chordless_cycles(g):
                assert is_vertex_decomposable(independence_complex(g))

    def test_matches_definition_on_corpus(self, corpus, cm36_graphs):
        # the oracle gets the maximal stable sets from its own subset scan
        graphs = list(corpus) + [g for _, g in cm36_graphs if g.vertex_count <= 8]
        verdicts = set()
        for g in graphs:
            fast = is_vertex_decomposable(independence_complex(g))
            assert fast == is_vertex_decomposable_naive(maximal_stable_naive(g))
            verdicts.add(fast)
        assert verdicts == {True, False}

    def test_matches_definition_on_whiskers(self, corpus):
        # whiskered graphs have vertex decomposable independence complexes
        # (Dochtermann-Engstrom, Electron. J. Combin. 16 (2009))
        graphs = [g for g in corpus if g.vertex_count <= 4] + [
            g for g in corpus[::25] if g.vertex_count == 5
        ]
        for g in graphs:
            w = whisker(g)
            assert is_vertex_decomposable(independence_complex(w))
            assert is_vertex_decomposable_naive(maximal_stable_naive(w))

    def test_matches_definition_on_small_complexes(self):
        assert is_vertex_decomposable_naive([])
        assert is_vertex_decomposable_naive([()])
        rp2 = SimplicialComplex.of(6, RP2_FACETS)
        assert not is_vertex_decomposable(rp2)
        assert not is_vertex_decomposable_naive(RP2_FACETS)
        # a path on three vertices sheds an end; in two disjoint edges the
        # deletion of any vertex keeps a point of its link as a facet
        path = [(1, 2), (2, 3)]
        assert is_vertex_decomposable(SimplicialComplex.of(3, path))
        assert is_vertex_decomposable_naive(path)
        two_edges = [(1, 2), (3, 4)]
        assert not is_vertex_decomposable(SimplicialComplex.of(4, two_edges))
        assert not is_vertex_decomposable_naive(two_edges)
        # impure, so the Cohen-Macaulay prune does not apply: only the point
        # 5 sheds, and its deletion is the two edges
        with_point = two_edges + [(5,)]
        assert not is_vertex_decomposable(SimplicialComplex.of(5, with_point))
        assert not is_vertex_decomposable_naive(with_point)


def _has_only_short_chordless_cycles(g):
    """True when every chordless cycle has length 3 or 5 (checked naively)."""
    import itertools

    n = g.vertex_count
    for size in range(4, n + 1):
        if size == 5:
            continue
        for verts in itertools.combinations(range(1, n + 1), size):
            sub = induced_subclutter(g, verts)
            if len(sub.edge_masks) == size and all(
                sub.adjacency_masks()[v].bit_count() == 2 for v in range(size)
            ):
                if sub.is_connected():
                    return False
    return True


class TestMatroidCircuitClutters:
    """Circuit clutters have decomposable independence complexes, so the
    v-number is bounded by the regularity; checked on two small matroids."""

    def _check(self, c):
        complex_ = independence_complex(c)
        assert is_vertex_decomposable(complex_)
        v = c.v_number()
        for field in (Field.Q, Field.F2):
            assert v <= regularity(c, field)

    def test_uniform_rank_two_on_four(self):
        # circuits of U(2,4): every 3-subset
        import itertools

        self._check(Clutter.of(4, itertools.combinations(range(1, 5), 3)))

    def test_graphic_matroid_of_k4(self):
        # edges of K4 numbered 12->1, 13->2, 14->3, 23->4, 24->5, 34->6;
        # circuits are the four triangles and the three quadrilaterals
        circuits = [
            (1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6),
            (1, 4, 6, 3), (2, 4, 5, 3), (1, 2, 5, 6),
        ]
        self._check(Clutter.of(6, circuits))


class TestCoverIdealRegularity:
    def test_cover_ring_regularity_when_pure_decomposable(self, small_corpus):
        for g in small_corpus[:60]:
            if not g.has_edges() or g.isolated_vertices():
                continue
            complex_ = independence_complex(g)
            if complex_.is_pure() and is_vertex_decomposable(complex_):
                blocker = g.blocker()
                alpha0 = g.cover_number()
                assert blocker.v_number() == alpha0 - 1
                for field in (Field.Q, Field.F2):
                    assert regularity(blocker, field) == alpha0 - 1

    def test_cover_v_lower_bound(self, small_corpus):
        for g in small_corpus[:60]:
            if not g.has_edges():
                continue
            assert g.cover_number() - 1 <= g.blocker().v_number()

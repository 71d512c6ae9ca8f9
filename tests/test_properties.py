"""Property-based invariants over randomly generated graphs and clutters."""

from __future__ import annotations

import copy
import functools
import itertools

from hypothesis import example, given, settings, strategies as st

from vnum.classify import _edge_neighborhoods, _stable_number
from vnum.clutters import Clutter, Graph
from vnum.complexes import (
    Field,
    SimplicialComplex,
    _Chains,
    _cm_level,
    _cm_recursive,
    _folds,
    _relabel,
    cohen_macaulay_fields,
    independence_complex,
    is_vertex_decomposable,
    rank_int_matrix,
    regularities,
    regularity,
)
from vnum.monomials import (
    _alpha_of_colon,
    _colon_pieces,
    _meet_prime_power,
    _symbolic_power_masks,
    alpha_of_colon_quotient,
    polarized_symbolic_power,
    v_number_algebraic,
)
from vnum.vertexsets import (
    antichain_maxima,
    antichain_minima,
    iter_bits,
    mask_members,
    meet,
    or_all,
)

from .graphs import complete_graph, cycle_graph, delete_edge, disjoint_union, whisker
from .oracles import (
    Monomial,
    MonomialIdeal,
    alpha_of_colon_per_prime,
    alpha_of_colon_quotient_tuples,
    beta0_naive,
    clutter_of_squarefree_ideal,
    colon_by_monomial,
    colon_pieces_by_minima,
    dense_rows,
    dominated,
    domination_by_size,
    domination_naive,
    edge_ideal,
    edge_subgraph_facets,
    euler_characteristic_reduced,
    family_a_masks,
    family_a_naive,
    folds_by_edge_scan,
    homology_ranks_naive,
    intersect,
    is_cohen_macaulay_per_field,
    is_cover_naive,
    is_minimal_cover_naive,
    is_one_well_covered_built,
    is_stable_naive,
    is_vertex_decomposable_naive,
    meet_quadratic,
    neighbor_naive,
    ordinary_power,
    polarize,
    radical,
    rank_bareiss,
    rank_fraction,
    reduced_homology_ranks,
    regularity_per_field,
    stable_masks,
    stable_masks_naive,
    subsets,
    symbolic_power,
    symbolic_power_masks_by_meet,
    symbolic_power_tuples,
    times,
    v_number_algebraic_per_prime,
)


@st.composite
def graphs(draw, min_vertices=1, max_vertices=6):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    picked = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph.of(n, picked)


@st.composite
def clutters(draw, max_vertices=6, max_edges=4):
    n = draw(st.integers(1, max_vertices))
    edges = draw(
        st.lists(
            st.sets(st.integers(1, n), min_size=1, max_size=n),
            max_size=max_edges,
        )
    )
    # keep only inclusion-minimal edges so the antichain condition holds
    minimal = [
        e for e in edges if not any(o < e for o in edges)
    ]
    dedup = {frozenset(e) for e in minimal}
    return Clutter.of(n, dedup)


@st.composite
def complexes(draw, max_vertices=7, max_facets=8):
    """Complexes from at least two facets, mostly pure (impure ones fail at once)."""
    n = draw(st.integers(2, max_vertices))
    pure = draw(st.booleans()) or draw(st.booleans())
    size = draw(st.integers(1, n - 1))
    lo, hi = (size, size) if pure else (1, n)
    facet = st.frozensets(st.integers(1, n), min_size=lo, max_size=hi)
    facets = draw(st.lists(facet, min_size=2, max_size=max_facets, unique=True))
    return SimplicialComplex.of(n, facets)


@st.composite
def shedding_complexes(draw, max_vertices=7):
    """Pure complexes in which vertex 1 sheds: a pure complex D on the other
    vertices, glued to cones from 1 over some codimension-one faces of D."""
    n = draw(st.integers(3, max_vertices))
    size = draw(st.integers(1, n - 2))
    facet = st.frozensets(st.integers(2, n), min_size=size, max_size=size)
    rest = draw(st.lists(facet, min_size=2, max_size=8, unique=True))
    ridges = sorted({tuple(sorted(f - {v})) for f in rest for v in f})
    cones = draw(st.lists(st.sampled_from(ridges), min_size=1, max_size=6, unique=True))
    return SimplicialComplex.of(n, [tuple(f) for f in rest] + [(1,) + r for r in cones])


@st.composite
def monomials_over(draw, ambient, max_exp=3):
    exps = draw(
        st.tuples(*[st.integers(0, max_exp) for _ in range(ambient)])
    )
    return Monomial.of(ambient, exps)


@st.composite
def ideals(draw, ambient=4, max_gens=4, max_exp=2):
    gens = draw(
        st.lists(monomials_over(ambient, max_exp), min_size=1, max_size=max_gens)
    )
    return MonomialIdeal.of(ambient, gens)


@st.composite
def mask_ideal_pairs(draw, max_vertices=6):
    """Generator masks of two squarefree ideals, the first partly inside the second."""
    n = draw(st.integers(1, max_vertices))
    mask = st.integers(0, (1 << n) - 1)
    piece = draw(st.lists(mask, min_size=1, max_size=5))
    gens = draw(st.lists(mask, min_size=1, max_size=5))
    gens += [draw(st.sampled_from(piece)) | m for m in draw(st.lists(mask, max_size=3))]
    return n, gens, piece


@st.composite
def cliques(draw, max_cliques=4):
    """Disjoint unions of K1, K2 and K3: well-covered, isolated vertices too."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=max_cliques))
    return functools.reduce(
        disjoint_union, map(complete_graph, sizes), Graph.of(0, [])
    )


@st.composite
def sparse_columns(draw, rows=6, max_columns=8):
    """Integer columns {row: nonzero entry}, entries in {-1, 1, 2}.

    Some columns are empty and some repeat, and the entry 2 gives pivots
    that are not units, so that the gcd division runs.
    """
    column = st.dictionaries(
        st.integers(0, rows - 1), st.sampled_from((-1, 1, 2)), max_size=rows
    )
    columns = draw(st.lists(column, max_size=max_columns))
    if columns:
        columns += draw(st.lists(st.sampled_from(columns), max_size=3))
    return draw(st.permutations(columns))


def antichains(bits, max_size=6):
    """Antichains of masks on the given number of bits."""
    return st.lists(st.integers(0, (1 << bits) - 1), max_size=max_size).map(
        antichain_minima
    )


def layer_mask(s, exponents):
    """The unary-layer mask of a monomial: bit k*s + i for k below e_{i+1}."""
    return or_all(1 << (k * s + i) for i, e in enumerate(exponents) for k in range(e))



@st.composite
def prime_power_pairs(draw):
    """(gens, piece, n): an antichain of unary-layer masks with exponents at
    most n, and the degree-n monomials of a prime on s variables, s <= 4."""
    s, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, n), min_size=s, max_size=s)
    gens = antichain_minima(layer_mask(s, e) for e in draw(st.lists(exponents, max_size=6)))
    prime = sorted(draw(st.sets(st.integers(0, s - 1), min_size=1)))
    piece = [
        layer_mask(s, [combo.count(i) for i in range(s)])
        for combo in itertools.combinations_with_replacement(prime, n)
    ]
    return gens, piece, n

@st.composite
def meet_pairs(draw):
    """Antichain pairs (gens, piece) in each shape that `meet` receives.

    Pieces are single vertices (an edge of the minimal-cover fold), colon
    pieces (I : t_v) of a clutter, which mix single vertices and wider
    generators, the degree-n monomials of a prime on unary layers for
    n = 1, 2, 3 (a symbolic-power fold), the unit piece [0] (the colon of a
    singleton edge), or any antichain.  Sometimes every member of the piece
    divides every generator.
    """
    kind = draw(st.sampled_from(["single", "colon", "layers", "unit", "any"]))
    if kind == "colon":
        c = draw(clutters().filter(Clutter.has_edges))
        b = 1 << draw(st.integers(0, c.vertex_count - 1))
        gens, piece = draw(antichains(c.vertex_count)), _colon_pieces(c, b)[b]
    elif kind == "layers":
        gens, piece, _ = draw(prime_power_pairs())
    else:
        n = draw(st.integers(1, 6))
        gens = draw(antichains(n))
        if kind == "single":
            piece = list(iter_bits(draw(st.integers(1, (1 << n) - 1))))
        elif kind == "unit":
            piece = [0]
        else:
            piece = draw(antichains(n).filter(bool))
    if draw(st.booleans()):
        gens = antichain_minima(g | or_all(piece) for g in gens)
    return gens, piece


def squarefree_ideal(n, masks):
    return MonomialIdeal.of(n, [Monomial.from_support(n, m) for m in masks])


class TestClutterFamilies:
    @given(clutters())
    @example(Clutter.of(0, []))
    @example(Clutter.of(3, []))
    @example(Clutter.of(4, [(1,), (2, 3), (3, 4)]))
    def test_stable_growth_matches_subset_filter(self, c):
        assert list(stable_masks(c)) == stable_masks_naive(c)

    @given(clutters())
    @example(Clutter.of(5, [(1,), (2, 3, 4), (4, 5)]))
    def test_neighbour_sets_of_stable_sets(self, c):
        # the two facts family A and the stable-set growth rest on, read off
        # the naive oracles alone: for stable A every v in N(A) has a private
        # edge inside A | {v}, so N(A) is a minimal cover once it covers, and
        # A | {i} is stable exactly when i lies outside N(A)
        vertices = range(1, c.vertex_count + 1)
        for a in subsets(vertices):
            if not is_stable_naive(c, a):
                continue
            nbrs = neighbor_naive(c, a)
            assert is_cover_naive(c, nbrs) == is_minimal_cover_naive(c, nbrs)
            for i in set(vertices).difference(a):
                assert is_stable_naive(c, a + (i,)) == (i not in nbrs)

    @given(clutters())
    def test_maximal_stable_sets_inside_family(self, c):
        if not c.has_edges():
            return
        family = set(family_a_masks(c))
        assert {frozenset(mask_members(m)) for m in family} == family_a_naive(c)
        for m in c.maximal_stable_masks():
            assert m in family

    @given(clutters(max_vertices=8, max_edges=8))
    @example(Clutter.of(4, [(1,), (2,), (4,)]))
    @example(Clutter.of(6, [(1,), (2, 3, 4, 5, 6)]))
    @example(Clutter.of(6, [(1, 2, 3), (3, 4), (4, 5, 6), (1, 6)]))
    @example(Clutter.of(4, [(1, 2), (1, 3, 4)]))
    def test_search_meets_the_first_family_member(self, c):
        # the pruned search against the oracle stream, which lists family A
        # by size, then lexicographically; the stream reads the package's
        # N(A), so its first member is also checked against the naive
        # family.  On the last example an N(A) that kept the members of A
        # in edges with one vertex outside A would take {1}, whose N(A) =
        # {2} misses {1, 3, 4}.
        if not c.has_edges():
            return
        first = next(family_a_masks(c))
        assert c.v_number_with_witness() == (first.bit_count(), first)
        naive = min(family_a_naive(c), key=lambda a: (len(a), sorted(a)))
        assert mask_members(first) == tuple(sorted(naive))

    @given(clutters())
    def test_v_bounded_by_family_members(self, c):
        if not c.has_edges():
            return
        v = c.v_number()
        assert all(m.bit_count() >= v for m in family_a_masks(c))
        assert all(m.bit_count() >= v for m in c.maximal_stable_masks())

    @given(clutters())
    def test_v_chain(self, c):
        if not c.has_edges():
            return
        assert c.v_number() <= c.independent_domination() <= c.independence_number()

    @given(clutters())
    def test_alpha_beta_partition(self, c):
        assert c.cover_number() + c.independence_number() == c.vertex_count

    @given(clutters())
    def test_blocker_involution_without_isolated_vertices(self, c):
        if not c.has_edges() or c.isolated_vertices():
            return
        assert c.blocker().blocker() == Clutter(c.vertex_count, c.edge_masks)

    @given(clutters())
    def test_algebraic_route_matches(self, c):
        if not c.has_edges():
            return
        assert v_number_algebraic(c) == c.v_number()
        for p in c.minimal_cover_masks():
            assert alpha_of_colon_quotient(c, p) == alpha_of_colon_quotient_tuples(c, p)

    @given(clutters())
    def test_bounded_fold_is_the_least_unbounded_alpha(self, c):
        if not c.has_edges():
            return
        primes = c.minimal_cover_masks()
        want = min(alpha_of_colon_quotient(c, p) for p in primes)
        assert v_number_algebraic(c) == want
        assert want == min(alpha_of_colon_quotient_tuples(c, p) for p in primes)



# singleton edges, wide edges and both: the shapes whose colon pieces, link
# members and prime powers take the one-AND paths and the loops
MIXED_CLUTTERS = (
    Clutter.of(6, [(1,), (2, 3, 4), (4, 5), (2, 6)]),
    Clutter.of(6, [(1, 2, 3), (3, 4), (4, 5, 6), (1, 6)]),
    Clutter.of(5, [(1,), (2,), (3, 4, 5)]),
    Clutter.of(5, [(1, 2), (2, 3, 4), (4, 5), (1, 5)]),
)


def examples(*cases):
    """One @example per tuple of arguments."""

    def apply(test):
        for args in cases:
            test = example(*args)(test)
        return test

    return apply


class TestFoldsAgainstTheirOldPaths:
    """Each fold that tests only what can fail, against the path it replaced."""

    @given(clutters(max_vertices=7, max_edges=6))
    @examples(*((c,) for c in MIXED_CLUTTERS))
    def test_colon_pieces_are_the_minimized_pieces(self, c):
        got = _colon_pieces(c, c.full_mask)
        want = colon_pieces_by_minima(c, c.full_mask)
        assert got.keys() == want.keys()
        for b, piece in got.items():
            assert len(piece) == len(set(piece)), (c.edge_lists(), b)
            assert sorted(piece) == sorted(want[b]), (c.edge_lists(), b)

    @given(clutters(max_vertices=7, max_edges=6))
    @examples(*((c,) for c in MIXED_CLUTTERS))
    def test_prefix_folds_give_every_primes_alpha(self, c):
        # one stack across the primes, unbounded, against a fresh per-prime
        # fold: a prefix reused past a bit where two primes differ shows here
        if not c.has_edges():
            return
        pieces = _colon_pieces(c, c.full_mask)
        stack: list = []
        for p in c.minimal_cover_masks():
            got = _alpha_of_colon(c, p, pieces, c.vertex_count + 1, stack)
            want = alpha_of_colon_per_prime(c, p, pieces, c.vertex_count + 1)
            assert got == want, (c.edge_lists(), p)
            assert all(prefix & ~p == 0 for prefix, _ in stack), (c.edge_lists(), p)
        assert v_number_algebraic(c) == v_number_algebraic_per_prime(c)

    @given(clutters(max_vertices=5, max_edges=5), st.integers(1, 3))
    @examples(*((c, n) for c in MIXED_CLUTTERS[2:] for n in (2, 3)))
    def test_prime_power_fold_is_the_meet_fold(self, c, n):
        if not c.has_edges():
            return
        got = _symbolic_power_masks(c, n)
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(symbolic_power_masks_by_meet(c, n))

    @given(prime_power_pairs())
    @settings(max_examples=300)
    def test_prime_power_meet_is_meet(self, case):
        gens, piece, n = case
        got = _meet_prime_power(gens, piece, n)
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(meet(gens, piece))

    @given(clutters(max_vertices=7, max_edges=6))
    @examples(*((c,) for c in MIXED_CLUTTERS))
    def test_fold_checks_are_the_edge_scans(self, c):
        # the same checks in the same order
        assert _folds(c.edge_masks) == folds_by_edge_scan(c.edge_masks)

class TestGraphProperties:
    @given(graphs(min_vertices=2))
    def test_edge_deletion_monotone(self, g):
        b = g.independence_number()
        for u, v in g.edge_lists():
            assert delete_edge(g, u, v).independence_number() in (b, b + 1)

    @given(graphs(min_vertices=0, max_vertices=9))
    def test_stable_number_search_matches_subset_scan(self, g):
        alpha = _stable_number(g.adjacency_masks(), g.full_mask, {})
        assert alpha == beta0_naive(g)

    @given(graphs(min_vertices=0, max_vertices=7))
    def test_domination_search_matches_both_scans(self, g):
        assert g.domination_number() == domination_by_size(g) == domination_naive(g)

    @given(graphs(min_vertices=1, max_vertices=6))
    def test_domination_chain(self, g):
        assert (
            g.domination_number()
            <= g.independent_domination()
            <= g.independence_number()
        )

    @given(graphs(min_vertices=2, max_vertices=6))
    def test_whisker_v_equals_independent_domination(self, g):
        assert whisker(g).v_number() == g.independent_domination()


class TestIdealContracts:
    @given(ideals(), monomials_over(4), monomials_over(4))
    def test_colon_membership(self, i, f, m):
        assert colon_by_monomial(i, f).contains(m) == i.contains(times(m, f))

    @given(ideals(), ideals(), monomials_over(4))
    def test_intersection_membership(self, i1, i2, m):
        assert intersect(i1, i2).contains(m) == (i1.contains(m) and i2.contains(m))

    @given(graphs(min_vertices=2, max_vertices=5))
    @settings(deadline=None)
    def test_symbolic_square_radical(self, g):
        if not g.has_edges():
            return
        assert radical(symbolic_power(g, 2)) == edge_ideal(g)

    @given(clutters(max_vertices=5), st.integers(1, 3))
    @settings(deadline=None)
    def test_mask_symbolic_power_matches_tuple_fold(self, c, n):
        if not c.has_edges():
            return
        sym = symbolic_power(c, n)
        assert sym == symbolic_power_tuples(c, n)
        polarized, _ = polarize(sym)
        assert polarized_symbolic_power(c, n) == clutter_of_squarefree_ideal(polarized)

    @given(graphs(min_vertices=2, max_vertices=5))
    @settings(deadline=None)
    def test_triangle_free_square_equality(self, g):
        if not g.has_edges():
            return
        sym = symbolic_power(g, 2)
        square = ordinary_power(edge_ideal(g), 2)
        assert sym.contains_ideal(square)
        assert square.contains_ideal(sym) == g.is_triangle_free()


class TestMaskAlgebra:
    @given(mask_ideal_pairs())
    def test_meet_matches_tuple_intersection(self, case):
        # meet takes minimal generators; these generate the same two ideals
        n, gens, piece = case
        gens, piece = antichain_minima(gens), antichain_minima(piece)
        got = meet(gens, piece)
        want = intersect(squarefree_ideal(n, gens), squarefree_ideal(n, piece))
        assert sorted(got) == sorted(g.support() for g in want.generators)

    @given(meet_pairs())
    @settings(max_examples=300)
    @example(([0], [0]))
    @example(([], [1, 2]))
    def test_meet_matches_quadratic_reference(self, case):
        gens, piece = case
        got = meet(gens, piece)
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(meet_quadratic(gens, piece))

    @given(st.lists(st.integers(0, 63), max_size=10))
    def test_antichain_minima_and_maxima_match_definition(self, masks):
        uniq = set(masks)
        below = {m for m in uniq if not any(o != m and o & ~m == 0 for o in uniq)}
        above = {m for m in uniq if not any(o != m and m & ~o == 0 for o in uniq)}
        minima = antichain_minima(masks)
        assert sorted(minima) == sorted(below)
        sizes = [m.bit_count() for m in minima]
        assert sizes == sorted(sizes)
        assert antichain_maxima(masks) == tuple(sorted(above))


class TestComplexProperties:
    @given(sparse_columns())
    @example([{0: 2, 1: 2}, {1: 2}, {}, {0: 1, 1: 2}, {0: 2, 1: 2}])
    def test_sparse_rational_rank_matches_dense_eliminations(self, columns):
        before = copy.deepcopy(columns)
        rank = rank_int_matrix(columns)
        assert columns == before
        rows = dense_rows(columns)
        assert rank == rank_bareiss(rows) == rank_fraction(rows)

    @given(graphs(min_vertices=1, max_vertices=6))
    def test_stanley_reisner_roundtrip(self, g):
        c = clutter_of_squarefree_ideal(edge_ideal(g))
        assert independence_complex(c) == independence_complex(g)

    @given(st.one_of(complexes(), shedding_complexes()))
    @settings(deadline=None, max_examples=300)
    def test_one_cm_recursion_matches_per_field(self, c):
        # the per-field oracle runs the link-vanishing test alone, without
        # the recursion's gluing step at a shedding vertex
        want = {f for f in Field if is_cohen_macaulay_per_field(c, f)}
        assert cohen_macaulay_fields(c) == want

    @given(complexes(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_cm_level_is_label_free(self, c, data):
        # every copy starts from cold memos, so each is computed on its own key
        n = c.ambient_size
        perm = data.draw(st.permutations(range(1, n + 1)))
        copy = SimplicialComplex.of(
            n, [[perm[v - 1] for v in mask_members(f)] for f in c.facets]
        )
        want = tuple(is_cohen_macaulay_per_field(c, f) for f in (Field.Q, Field.F2))
        for k in (c, copy):
            relabelled = _relabel(k.facets)
            assert relabelled == antichain_maxima(relabelled)
            assert sorted(f.bit_count() for f in relabelled) == sorted(
                f.bit_count() for f in k.facets
            )
            assert or_all(relabelled) == (1 << or_all(k.facets).bit_count()) - 1
            _cm_recursive.cache_clear()
            level = _cm_level(k.facets)
            assert (level >= 1, level >= 2) == want

    @given(complexes())
    @settings(deadline=None, max_examples=200)
    def test_vertex_decomposable_matches_definition(self, c):
        facets = [mask_members(f) for f in c.facets]
        assert is_vertex_decomposable(c) == is_vertex_decomposable_naive(facets)

    @given(graphs(min_vertices=1, max_vertices=5))
    @settings(deadline=None)
    def test_universal_coefficient_direction(self, g):
        c = independence_complex(g)
        hq = reduced_homology_ranks(c, Field.Q)
        h2 = reduced_homology_ranks(c, Field.F2)
        assert len(hq) == len(h2)
        assert all(q <= r for q, r in zip(hq, h2))

    @given(graphs(min_vertices=1, max_vertices=5))
    @settings(deadline=None)
    def test_euler_characteristic(self, g):
        c = independence_complex(g)
        for field in (Field.Q, Field.F2):
            profile = reduced_homology_ranks(c, field)
            alternating = sum(
                (-1 if d % 2 else 1) * r for d, r in enumerate(profile, -1)
            )
            assert alternating == euler_characteristic_reduced(c)

    @given(graphs(min_vertices=1, max_vertices=5))
    @settings(deadline=None, max_examples=40)
    def test_regularity_bounded_by_dimension(self, g):
        dim = g.independence_number()
        for field in (Field.Q, Field.F2):
            assert regularity(g, field) <= dim

    @given(clutters(max_vertices=7, max_edges=6))
    @settings(deadline=None, max_examples=60)
    def test_one_scan_matches_per_field_oracle(self, c):
        both = (Field.Q, Field.F2)
        assert regularities(c) == {f: regularity_per_field(c, f) for f in both}

    @given(complexes(), st.integers(-1, 4))
    @settings(deadline=None, max_examples=150)
    def test_chains_match_naive_ranks(self, c, low):
        # asked from the top down to low, as the callers read them
        chains = _Chains(c.facets)
        facets = [frozenset(mask_members(f)) for f in c.facets]
        for field, betti in ((Field.F2, chains.betti2), (Field.Q, chains.betti_q)):
            want = homology_ranks_naive(facets, field.value)
            for d in range(chains.top, low - 1, -1):
                assert betti(d) == want.get(d, 0)


def naive_betti(facets) -> dict:
    """Nonzero reduced Betti numbers over GF(2) and Q from scratch."""
    sets = [frozenset(mask_members(f)) for f in facets]
    return {
        field: {d: r for d, r in homology_ranks_naive(sets, field.value).items() if r}
        for field in (Field.Q, Field.F2)
    }


def induced_facets(c: Clutter, amask: int) -> tuple[int, ...]:
    """Facets of Delta_A, the independence complex of the clutter on A."""
    return antichain_maxima(f & amask for f in c.maximal_stable_masks())


def cone_links(stable: set[int], amask: int) -> list[tuple[int, int]]:
    """The pairs u != w in A whose link of w in Delta_A is a cone with apex u.

    Decided from the stable sets alone: every F inside A - {u, w} with
    F | w stable has F | u | w stable.
    """
    return [
        (u, w)
        for u in iter_bits(amask)
        for w in iter_bits(amask ^ u)
        if all(
            f | u | w in stable
            for f in stable
            if f & ~(amask ^ u ^ w) == 0 and f | w in stable
        )
    ]


class TestStrongCollapses:
    @given(graphs(min_vertices=2, max_vertices=6))
    @settings(deadline=None, max_examples=60)
    def test_fold_lemma(self, g):
        # Engstrom: N_A(u) inside N_A(w) for u != w in A makes Delta_A and
        # Delta_{A - w} homotopy equivalent
        adj = g.adjacency_masks()
        for amask in range(1, 1 << g.vertex_count):
            members = list(iter_bits(amask))
            for u in members:
                for w in members:
                    nu = adj[u.bit_length() - 1] & amask
                    nw = adj[w.bit_length() - 1] & amask
                    if u != w and nu & ~nw == 0:
                        assert naive_betti(induced_facets(g, amask)) == naive_betti(
                            induced_facets(g, amask ^ w)
                        ), (g.edge_lists(), amask, u, w)

    @given(graphs(min_vertices=1, max_vertices=7))
    def test_fold_checks_match_open_neighbourhoods(self, g):
        adj = g.adjacency_masks()
        checks = _folds(g.edge_masks)
        assert all(wide == () for _, _, wide in checks)
        scanned = g.full_mask ^ sum(1 << (v - 1) for v in g.isolated_vertices())
        for amask in range(1 << g.vertex_count):
            if amask & ~scanned:
                continue
            members = list(iter_bits(amask))
            folds = any(
                u != w
                and adj[u.bit_length() - 1] & amask & ~adj[w.bit_length() - 1] == 0
                for u in members
                for w in members
            )
            assert any(amask & m == pair for m, pair, _ in checks) == folds, amask

    @given(clutters(max_vertices=6, max_edges=5))
    @settings(deadline=None, max_examples=150)
    def test_fold_checks_match_cone_links(self, c):
        # singleton and wider edges: a check fires on A exactly when some
        # link in Delta_A is a cone over another member of A
        stable = set(stable_masks_naive(c))
        checks = _folds(c.edge_masks)
        scanned = or_all(c.edge_masks)
        for amask in range(1 << c.vertex_count):
            if amask & ~scanned:
                continue
            fires = any(
                amask & m == pair and all(r & ~amask for r in wide)
                for m, pair, wide in checks
            )
            assert fires == bool(cone_links(stable, amask)), (c.edge_lists(), amask)

    @given(clutters(max_vertices=6, max_edges=5))
    @settings(deadline=None, max_examples=150)
    def test_fold_free_subsets_are_their_own_core(self, c):
        # a subset the scan keeps has no cone link in Delta_A, so no vertex
        # is dominated and no strong collapse can shrink the scan's matrices
        checks = _folds(c.edge_masks)
        scanned = or_all(c.edge_masks)
        for amask in range(1, 1 << c.vertex_count):
            if amask & ~scanned or any(
                amask & m == pair and all(r & ~amask for r in wide)
                for m, pair, wide in checks
            ):
                continue
            assert dominated(induced_facets(c, amask)) == 0, (c.edge_lists(), amask)

    @given(clutters(max_vertices=6, max_edges=5))
    @settings(deadline=None, max_examples=60)
    def test_clutter_fold_lemma(self, c):
        # w's link in Delta_A a cone with apex u makes deleting w a strong
        # collapse, so Delta_A and Delta_{A - w} have the same homology
        stable = set(stable_masks_naive(c))
        betti: dict[int, dict] = {}

        def of(amask):
            if amask not in betti:
                betti[amask] = naive_betti(induced_facets(c, amask))
            return betti[amask]

        for amask in range(1, 1 << c.vertex_count):
            for u, w in cone_links(stable, amask):
                assert of(amask) == of(amask ^ w), (c.edge_lists(), amask, u, w)


class TestEdgeRestriction:
    @given(graphs(min_vertices=2, max_vertices=8))
    @settings(deadline=None, max_examples=150)
    # an isolated vertex outside every N[u] | N[v], and a G_e with no vertex
    @example(Graph.of(5, [(1, 2), (2, 3), (3, 4)]))
    @example(complete_graph(4))
    def test_restriction_is_the_built_subgraph(self, g):
        # Delta(G) restricted to the vertices outside N[u] | N[v] is the
        # complex of G_e built as a graph, in G's labels; route 2 of
        # edge_criticality reads its independence number off the same sets
        complex_ = independence_complex(g)
        maximal = g.maximal_stable_masks()
        for (u, v), gone in zip(g.edge_lists(), _edge_neighborhoods(g)):
            want = edge_subgraph_facets(g, u, v)
            assert complex_.deletion(gone).facets == want, (g.edge_lists(), u, v)
            assert max((f & ~gone).bit_count() for f in maximal) == max(
                f.bit_count() for f in want
            )


class TestOneWellCovered:
    # whiskered graphs and unions of cliques are well-covered, so the trade
    # test runs on them rather than stopping at well-coveredness
    @given(
        st.one_of(
            clutters(max_vertices=7, max_edges=6),
            graphs(min_vertices=0, max_vertices=7),
            graphs(min_vertices=1, max_vertices=4).map(whisker),
            cliques(),
        )
    )
    @settings(deadline=None, max_examples=300)
    @example(Clutter.of(0, []))
    @example(Clutter.of(3, [(1,), (2, 3)]))
    @example(Clutter.of(4, [(1, 2)]))
    @example(Clutter.of(5, [(1, 2, 3), (3, 4, 5)]))
    @example(cycle_graph(4))
    @example(cycle_graph(5))
    # 8 K3: 24 vertices, 6,561 facets
    @example(functools.reduce(disjoint_union, [complete_graph(3)] * 8))
    def test_trade_reading_is_the_built_subclutters(self, c):
        # C - v read off the facets of Delta(C) against C - v built as a
        # clutter with its own minimal covers
        assert c.is_one_well_covered() == is_one_well_covered_built(c), c

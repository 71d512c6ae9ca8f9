"""Monomial ideal arithmetic: colon, intersection, powers, the v-number."""

from __future__ import annotations

import random

import pytest

import vnum.monomials as monomials
from vnum.catalog import EXAMPLE_GRAPH3
from vnum.clutters import Clutter, Graph, ZeroIdealError
from vnum.monomials import (
    alpha_of_colon_quotient,
    polarized_symbolic_power,
    v_number_algebraic,
)
from vnum.vertexsets import mask_members, mask_of, meet

from .graphs import complete_graph, cycle_graph, disjoint_union, path_graph
from .oracles import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    add_variables,
    alpha_of_colon_quotient_tuples,
    clutter_of_squarefree_ideal,
    colon_by_ideal,
    colon_by_monomial,
    edge_ideal,
    extend_ambient,
    intersect,
    minimal_exponents,
    ordinary_power,
    polarize,
    prime_power,
    radical,
    symbolic_power,
    symbolic_power_members_naive,
    symbolic_power_tuples,
    times,
)


def ideal(ambient, *exponents):
    return MonomialIdeal.of(ambient, [Monomial.of(ambient, e) for e in exponents])


def gens_as_exponents(i):
    return {g.exponents for g in i.generators}


class TestMonomial:
    def test_degree_and_support(self):
        m = Monomial.of(3, (2, 0, 1))
        assert m.degree() == 3
        assert not m.is_squarefree()
        assert m.support() == 0b101

    def test_divides(self):
        assert Monomial.of(2, (1, 1)).divides(Monomial.of(2, (2, 1)))
        assert not Monomial.of(2, (1, 1)).divides(Monomial.of(2, (0, 5)))

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            Monomial.of(2, (1, 0)).divides(Monomial.of(3, (1, 0, 0)))

    def test_support_roundtrip(self):
        m = Monomial.from_support(4, 0b1010)
        assert m.exponents == (0, 1, 0, 1) and m.support() == 0b1010
        with pytest.raises(ValueError):
            Monomial.from_support(3, 0b1000)


class TestIdealBasics:
    def test_minimalization(self):
        i = ideal(2, (1, 0), (1, 1))
        assert gens_as_exponents(i) == {(1, 0)}

    def test_contains(self):
        i = ideal(3, (1, 1, 0))
        assert i.contains(Monomial.of(3, (1, 1, 1)))
        assert not ideal(3, (1, 1, 0), (0, 1, 1)).contains(Monomial.of(3, (1, 0, 1)))

    def test_zero_and_unit(self):
        assert MonomialIdeal.of(2, ()).is_zero()
        assert MonomialIdeal.of(2, [Monomial.of(2, (0,) * 2)]).is_unit()


class TestEdgeIdeal:
    def test_c4(self):
        i = edge_ideal(cycle_graph(4))
        assert gens_as_exponents(i) == {
            (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)
        }

    def test_example3_generator_count(self):
        i = edge_ideal(EXAMPLE_GRAPH3.graph())
        assert len(i.generators) == 25
        assert all(g.degree() == 2 and g.is_squarefree() for g in i.generators)

    def test_discrete_gives_zero(self):
        assert edge_ideal(Clutter.of(3, [])).is_zero()

    def test_clutter_roundtrip(self):
        c = Clutter.of(4, [(1, 2, 3), (3, 4)])
        assert clutter_of_squarefree_ideal(edge_ideal(c)) == c


class TestCoverIdeal:
    """The ideal of covers is the edge ideal of the blocker."""

    def test_k2(self):
        got = edge_ideal(complete_graph(2).blocker())
        assert gens_as_exponents(got) == {(1, 0), (0, 1)}

    def test_p3(self):
        assert gens_as_exponents(edge_ideal(path_graph(3).blocker())) == {
            (0, 1, 0), (1, 0, 1)
        }

    def test_c4(self):
        assert gens_as_exponents(edge_ideal(cycle_graph(4).blocker())) == {
            (1, 0, 1, 0), (0, 1, 0, 1)
        }


class TestColon:
    def test_by_variable(self):
        i = ideal(3, (1, 1, 0), (0, 1, 1))
        got = colon_by_monomial(i, Monomial.variable(3, 2))
        assert gens_as_exponents(got) == {(1, 0, 0), (0, 0, 1)}

    def test_coprime(self):
        i = ideal(3, (1, 1, 0))
        got = colon_by_monomial(i, Monomial.variable(3, 3))
        assert got == i

    def test_unit_result(self):
        i = ideal(3, (1, 1, 0), (0, 1, 1))
        got = colon_by_monomial(i, Monomial.of(3, (1, 1, 0)))
        assert got.is_unit()

    def test_membership_contract(self):
        rng = random.Random(7)
        i = ideal(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2))
        for _ in range(200):
            f = Monomial.of(4, tuple(rng.randrange(3) for _ in range(4)))
            m = Monomial.of(4, tuple(rng.randrange(3) for _ in range(4)))
            assert colon_by_monomial(i, f).contains(m) == i.contains(times(m, f))


class TestIntersect:
    def test_principal(self):
        got = intersect(ideal(2, (1, 0)), ideal(2, (0, 1)))
        assert gens_as_exponents(got) == {(1, 1)}

    def test_two_primes(self):
        got = intersect(ideal(3, (1, 0, 0), (0, 1, 0)), ideal(3, (0, 1, 0), (0, 0, 1)))
        assert gens_as_exponents(got) == {(0, 1, 0), (1, 0, 1)}

    def test_with_unit(self):
        i = ideal(2, (1, 1))
        assert intersect(i, MonomialIdeal.of(2, [Monomial.of(2, (0,) * 2)])) == i

    def test_membership_contract(self):
        rng = random.Random(11)
        i1 = ideal(3, (2, 0, 0), (0, 1, 1))
        i2 = ideal(3, (1, 1, 0), (0, 0, 2))
        meet = intersect(i1, i2)
        for _ in range(200):
            m = Monomial.of(3, tuple(rng.randrange(4) for _ in range(3)))
            assert meet.contains(m) == (i1.contains(m) and i2.contains(m))


class TestColonByIdeal:
    def test_p3_center(self):
        p3 = path_graph(3)
        got = colon_by_ideal(edge_ideal(p3), mask_of(3, [2]))
        assert gens_as_exponents(got) == {(1, 0, 0), (0, 0, 1)}

    def test_k2_full_prime(self):
        k2 = complete_graph(2)
        got = colon_by_ideal(edge_ideal(k2), mask_of(2, [1, 2]))
        assert gens_as_exponents(got) == {(1, 1)}

    def test_empty_prime_rejected(self):
        with pytest.raises(ValueError):
            colon_by_ideal(edge_ideal(complete_graph(2)), 0)


class TestAssociatedPrimes:
    """The associated primes of an edge ideal are the edges of the blocker."""

    def test_k2(self):
        got = {mask_members(p) for p in complete_graph(2).blocker().edge_masks}
        assert got == {(1,), (2,)}

    def test_p3(self):
        got = {mask_members(p) for p in path_graph(3).blocker().edge_masks}
        assert got == {(2,), (1, 3)}

    def test_c4(self):
        got = {mask_members(p) for p in cycle_graph(4).blocker().edge_masks}
        assert got == {(1, 3), (2, 4)}

    def test_zero_raises(self):
        with pytest.raises(ZeroIdealError):
            Clutter.of(2, []).blocker()


class TestAlpha:
    def test_p3_center_prime(self):
        p3 = path_graph(3)
        assert alpha_of_colon_quotient(p3, mask_of(3, [2])) == 1

    def test_k2(self):
        assert alpha_of_colon_quotient(complete_graph(2), mask_of(2, [1])) == 1

    def test_prime_ideal_gives_zero(self):
        c = Clutter.of(2, [(1,), (2,)])
        assert alpha_of_colon_quotient(c, mask_of(2, [1, 2])) == 0

    def test_non_associated_rejected(self):
        with pytest.raises(ValueError):
            alpha_of_colon_quotient(path_graph(3), mask_of(3, [1]))

    def test_mask_route_matches_tuple_oracle(self, corpus, cm36_graphs):
        graphs = corpus + [g for _, g in cm36_graphs] + [EXAMPLE_GRAPH3.graph()]
        for g in graphs:
            alphas = []
            for p in g.minimal_cover_masks():
                alphas.append(alpha_of_colon_quotient_tuples(g, p))
                assert alpha_of_colon_quotient(g, p) == alphas[-1], (
                    g.edge_lists(), mask_members(p)
                )
            # v_number_algebraic shares one colon piece per vertex
            assert v_number_algebraic(g) == min(alphas)


class TestBoundedColonFold:
    """Each prime's fold, bounded by the algebraic route's best so far."""

    @staticmethod
    def recorded(monkeypatch):
        carried = []

        def recording(gens, piece):
            gens = list(gens)
            carried.append(gens)
            return meet(gens, piece)

        monkeypatch.setattr(monomials, "meet", recording)
        return carried

    def test_value_is_alpha_capped_by_the_bound(self, corpus):
        for g in corpus[::3]:
            pieces = monomials._colon_pieces(g, g.full_mask)
            for p in g.minimal_cover_masks():
                alpha = alpha_of_colon_quotient(g, p)
                for bound in range(alpha + 3):
                    got = monomials._alpha_of_colon(g, p, pieces, bound, [])
                    assert got == min(alpha, bound), (g.edge_lists(), p, bound)

    def test_no_generator_reaching_the_bound_is_carried(self, corpus, monkeypatch):
        carried = self.recorded(monkeypatch)
        dropped = False
        for g in corpus:
            pieces = monomials._colon_pieces(g, g.full_mask)
            for p in g.minimal_cover_masks():
                bound = alpha_of_colon_quotient(g, p)
                carried.clear()
                monomials._alpha_of_colon(g, p, pieces, bound, [])
                # the first meet starts from the unit ideal
                for gens in carried[1:]:
                    assert all(m.bit_count() < bound for m in gens), (g.edge_lists(), p)
                dropped |= len(carried) < p.bit_count()
        # some folds end early, once every generator has reached the bound
        assert dropped

    def test_v_number_folds_fewer_generators(self, monkeypatch):
        g = EXAMPLE_GRAPH3.graph()
        carried = self.recorded(monkeypatch)
        for p in g.minimal_cover_masks():
            alpha_of_colon_quotient(g, p)
        unbounded = sum(map(len, carried))
        carried.clear()
        assert v_number_algebraic(g) == 3
        assert sum(map(len, carried)) < unbounded



class TestPrefixFoldWork:
    """The meets of the algebraic route on three inputs at the vertex cap.

    Their primes come sorted as ints and share long high prefixes, whose
    folds the stack reuses.  Folding each prime afresh took 49,152, 104,976
    and 12,048 meets on 12K2, 8 K3 and C24; the pins are the number of
    distinct prefixes, so a return to per-prime folds fails here without
    any timing.
    """

    @pytest.mark.parametrize(
        "edges,v,pin",
        [
            ([(2 * k + 1, 2 * k + 2) for k in range(12)], 12, 8_190),
            (
                [
                    (3 * k + i, 3 * k + j)
                    for k in range(8)
                    for i, j in ((1, 2), (1, 3), (2, 3))
                ],
                8,
                16_400,
            ),
            ([(k, k % 24 + 1) for k in range(1, 25)], 6, 2_848),
        ],
        ids=["12K2", "8K3", "C24"],
    )
    def test_meets_at_most_the_prefixes(self, monkeypatch, edges, v, pin):
        g = Graph.of(24, edges)
        calls = []

        def counting(gens, piece):
            calls.append(None)
            return meet(gens, piece)

        monkeypatch.setattr(monomials, "meet", counting)
        assert v_number_algebraic(g) == v
        assert len(calls) <= pin

class TestVNumberAlgebraic:
    def test_p3(self):
        assert v_number_algebraic(path_graph(3)) == 1

    def test_example3(self):
        assert v_number_algebraic(EXAMPLE_GRAPH3.graph()) == 3

    def test_complete_intersection(self):
        c = Clutter.of(5, [(1, 2, 3), (4, 5)])
        assert v_number_algebraic(c) == 3

    def test_matches_combinatorial(self, small_corpus):
        for g in small_corpus:
            assert v_number_algebraic(g) == g.v_number()

    def test_additive_on_disjoint_union(self, small_corpus):
        rng = random.Random(3)
        pool = [g for g in small_corpus if g.has_edges()]
        for _ in range(25):
            g1 = rng.choice(pool)
            g2 = rng.choice(pool)
            u = disjoint_union(g1, g2)
            assert v_number_algebraic(u) == v_number_algebraic(g1) + v_number_algebraic(g2)


class TestPowers:
    def test_square_of_principal(self):
        got = ordinary_power(ideal(2, (1, 1)), 2)
        assert gens_as_exponents(got) == {(2, 2)}

    def test_prime_power_generators(self):
        got = prime_power(3, mask_of(3, [1, 2]), 2)
        assert gens_as_exponents(got) == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}

    def test_extend_ambient(self):
        got = extend_ambient(ideal(2, (1, 1)), 3)
        assert gens_as_exponents(got) == {(1, 1, 0)}
        with pytest.raises(ValueError):
            extend_ambient(ideal(2, (1, 1)), 1)


class TestSymbolicPowers:
    def test_k2(self):
        got = symbolic_power(complete_graph(2), 2)
        assert gens_as_exponents(got) == {(2, 2)}

    def test_p3(self):
        got = symbolic_power(path_graph(3), 2)
        assert gens_as_exponents(got) == {(2, 2, 0), (1, 2, 1), (0, 2, 2)}

    def test_k3(self):
        got = symbolic_power(complete_graph(3), 2)
        assert gens_as_exponents(got) == {
            (1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2)
        }

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            symbolic_power(complete_graph(2), 0)
        with pytest.raises(ZeroIdealError):
            symbolic_power(Clutter.of(2, []), 2)

    def test_first_power_recovers_the_ideal(self, small_corpus):
        # a squarefree ideal is the intersection of its associated primes
        for g in small_corpus[:50]:
            if g.has_edges():
                assert symbolic_power(g, 1) == edge_ideal(g)

    @pytest.mark.parametrize(
        "edges,n",
        [
            ([(1, 2), (2, 3)], 5),
            ([(1, 2), (2, 3), (3, 4), (4, 1)], 4),
            ([(1, 2, 3), (3, 4)], 4),
            ([(1, 2), (1, 3), (2, 3)], 3),
        ],
    )
    def test_against_membership_scan(self, edges, n):
        c = Clutter.of(n, edges)
        for k in (2, 3):
            got = gens_as_exponents(symbolic_power(c, k))
            want = minimal_exponents(symbolic_power_members_naive(c, k))
            assert got == want

    def test_radical_recovers_edge_ideal(self, small_corpus):
        for g in small_corpus[:60]:
            if not g.has_edges():
                continue
            assert radical(symbolic_power(g, 2)) == edge_ideal(g)

    def test_square_inside_symbolic_square(self, small_corpus):
        for g in small_corpus:
            if not g.has_edges():
                continue
            sym = symbolic_power(g, 2)
            square = ordinary_power(edge_ideal(g), 2)
            assert sym.contains_ideal(square)
            equal = square.contains_ideal(sym)
            assert equal == g.is_triangle_free()

    def test_strict_on_triangle(self):
        k3 = complete_graph(3)
        sym = symbolic_power(k3, 2)
        square = ordinary_power(edge_ideal(k3), 2)
        assert sym.contains(Monomial.of(3, (1, 1, 1)))
        assert not square.contains(Monomial.of(3, (1, 1, 1)))

    def test_added_variable_identity(self):
        # (I, u)^(2) = (I^(2), u I, u^2) for an appended free variable u
        k2_plus = Clutter.of(3, [(1, 2), (3,)])
        lhs = symbolic_power(k2_plus, 2)
        base = extend_ambient(symbolic_power(complete_graph(2), 2), 3)
        u = Monomial.variable(3, 3)
        ui = MonomialIdeal.of(
            3, [times(u, g) for g in extend_ambient(edge_ideal(complete_graph(2)), 3).generators]
        )
        rhs = MonomialIdeal.of(
            3, list(base.generators) + list(ui.generators) + [times(u, u)]
        )
        assert lhs == rhs


class TestMaskSymbolicPower:
    """The unary-layer mask fold against the exponent-tuple fold."""

    CLUTTERS = (
        Clutter.of(4, [(1, 2, 3), (3, 4)]),
        Clutter.of(5, [(1, 2), (2, 3, 4), (4, 5), (1, 5)]),
        Clutter.of(3, [(1,), (2, 3)]),
        Clutter.of(5, [(1, 2)]),
    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_tuple_fold(self, small_corpus, cm36_graphs, n):
        # the same generators in the same order: by degree, then tuple
        graphs = list(small_corpus) + list(self.CLUTTERS)
        graphs += [g for _, g in cm36_graphs if g.vertex_count <= 8 - n]
        for g in graphs:
            want = [m.exponents for m in symbolic_power_tuples(g, n).generators]
            assert monomials.symbolic_power(g, n) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_polarized_clutter_matches_polarize(self, corpus, n):
        graphs = [g for g in corpus if g.vertex_count <= 7 - n] + list(self.CLUTTERS)
        for g in graphs:
            polarized, _ = polarize(symbolic_power(g, n))
            assert polarized_symbolic_power(g, n) == clutter_of_squarefree_ideal(
                polarized
            )


class TestPolarize:
    def test_pure_power(self):
        pol, vmap = polarize(ideal(1, (2,)))
        assert pol.ambient_size == 2
        assert gens_as_exponents(pol) == {(1, 1)}
        assert vmap == ((1, 0), (1, 1))

    def test_mixed(self):
        pol, vmap = polarize(ideal(2, (2, 1)))
        assert pol.ambient_size == 3
        assert gens_as_exponents(pol) == {(1, 1, 1)}
        assert vmap == ((1, 0), (1, 1), (2, 0))

    def test_symbolic_square_k3(self):
        pol, vmap = polarize(symbolic_power(complete_graph(3), 2))
        assert pol.ambient_size == 6
        assert pol.is_squarefree()

    def test_squarefree_unchanged_but_relabeled(self):
        i = edge_ideal(cycle_graph(4))
        pol, vmap = polarize(i)
        assert pol.ambient_size == 4
        assert gens_as_exponents(pol) == gens_as_exponents(i)


class TestAddVariables:
    def test_appends_generators(self):
        i = ideal(3, (1, 1, 0))
        got = add_variables(i, mask_of(3, [3]))
        assert gens_as_exponents(got) == {(1, 1, 0), (0, 0, 1)}

    def test_absorbs_multiples(self):
        i = ideal(3, (1, 0, 1))
        got = add_variables(i, mask_of(3, [1]))
        assert gens_as_exponents(got) == {(1, 0, 0)}

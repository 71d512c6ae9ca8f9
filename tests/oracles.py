"""Brute-force reference implementations used to freeze expected values.

Everything here scans full subset or monomial spaces with no pruning and no
shared code paths with the package internals, so agreement is meaningful.
The exceptions are routes the package replaced by faster ones, kept here as
references for them: the exponent-tuple ideal algebra behind the algebraic
v-number and the symbolic powers, which now run on bit masks; the unpruned
homology of a whole complex; the per-field Cohen-Macaulay recursion, which
one recursion for both fields replaced; the per-field regularity scan over
every vertex subset, which one pruned scan for all fields replaced; the
stability filter over every vertex subset, which growing stable sets one
vertex at a time replaced; the mask intersection that re-minimizes
every union, which `vertexsets.meet` replaced; the edge subgraphs G_e
built as graphs, which restrictions of the independence complex replaced;
the graphs G - e built with fresh covers for route 1 of edge-criticality,
which a branching search for alpha(G - e) on adjacency masks replaced; the
domination number by trying sets by size, which a branching search over
closed neighbourhoods replaced;
the subclutters C - v built for 1-well-coveredness, which a facet
trade inside Delta(C) replaced; route 2 of W2 with whole sets, which
a stream of family A replaced; dense Bareiss elimination for rational
ranks, which a sparse column reduction replaced; and the shedding test
that builds each deletion, which `vertexsets.sheds` replaced.  The strong
collapses of `dominated` are no route the package replaced: they are the
reference of the scan's fold checks.

This module owns the exponent-tuple value types, `Monomial` and
`MonomialIdeal`, which the package no longer has: monomial products, colon
ideals, intersections, powers, radicals and polarization run on them here.
`symbolic_power` wraps the package's exponent tuples in a `MonomialIdeal`,
so the comparisons check the package's route, not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Sequence

from vnum import monomials
from vnum.classify import _beta2_complement_agreement, edge_criticality
from vnum.clutters import Clutter, Graph
from vnum.complexes import Field, SimplicialComplex, _Chains, independence_complex
from vnum.vertexsets import (
    antichain_maxima,
    antichain_minima,
    iter_bits,
    mask_members,
    mask_of,
    meet,
    or_all,
)

from .graphs import delete_edge


def subsets(universe):
    for r in range(len(universe) + 1):
        yield from combinations(universe, r)


def is_stable_naive(c: Clutter, members) -> bool:
    aset = set(members)
    return not any(set(e) <= aset for e in c.edge_lists())


def neighbor_naive(c: Clutter, members) -> frozenset:
    aset = set(members)
    out = set()
    for v in range(1, c.vertex_count + 1):
        if any(set(e) <= aset | {v} for e in c.edge_lists()):
            if v not in aset:
                out.add(v)
    return frozenset(out)


def is_cover_naive(c: Clutter, members) -> bool:
    aset = set(members)
    return all(aset & set(e) for e in c.edge_lists())


def is_minimal_cover_naive(c: Clutter, members) -> bool:
    if not is_cover_naive(c, members):
        return False
    aset = set(members)
    return not any(
        is_cover_naive(c, aset - {v}) for v in aset
    )


def stable_masks_naive(c: Clutter) -> list[int]:
    """Every stable set as a mask, by size then lexicographically."""
    return [
        mask_of(c.vertex_count, a)
        for a in subsets(range(1, c.vertex_count + 1))
        if is_stable_naive(c, a)
    ]


def maximal_stable_naive(c: Clutter) -> set[frozenset]:
    stable = [
        frozenset(a)
        for a in subsets(range(1, c.vertex_count + 1))
        if is_stable_naive(c, a)
    ]
    return {
        a for a in stable if not any(a < b for b in stable)
    }


def minimal_covers_naive(c: Clutter) -> set[frozenset]:
    covers = [
        frozenset(a)
        for a in subsets(range(1, c.vertex_count + 1))
        if is_cover_naive(c, a)
    ]
    return {a for a in covers if not any(b < a for b in covers)}


def family_a_naive(c: Clutter) -> set[frozenset]:
    out = set()
    for a in subsets(range(1, c.vertex_count + 1)):
        if is_stable_naive(c, a) and is_minimal_cover_naive(c, neighbor_naive(c, a)):
            out.add(frozenset(a))
    return out


def w2_families_by_sets(g: Graph) -> bool:
    """Route 2 of W2 with whole sets: well-covered, and family A equals the
    set of maximal stable sets.

    The package reads family A as a stream and stops at its first member
    that is not a maximal stable set.
    """
    return g.is_well_covered() and set(g.maximal_stable_masks()) == set(
        g.family_a_masks()
    )


def v_number_naive(c: Clutter) -> int:
    return min(len(a) for a in family_a_naive(c))


def beta0_naive(c: Clutter) -> int:
    return max(len(a) for a in maximal_stable_naive(c))


def domination_naive(g: Graph) -> int:
    adj = {
        v: {u for e in g.edge_lists() for u in e if v in e and u != v}
        for v in range(1, g.vertex_count + 1)
    }
    best = g.vertex_count
    for a in subsets(range(1, g.vertex_count + 1)):
        aset = set(a)
        if all(v in aset or adj[v] & aset for v in range(1, g.vertex_count + 1)):
            best = min(best, len(aset))
    return best


def domination_by_size(g: Graph) -> int:
    """The domination number by trying vertex sets of each size in turn."""
    adj = g.adjacency_masks()
    for k in range(g.vertex_count + 1):
        for combo in combinations(range(g.vertex_count), k):
            mask = dominated = 0
            for i in combo:
                mask |= 1 << i
                dominated |= adj[i]
            if mask | dominated == g.full_mask:
                return k
    raise AssertionError("unreachable: the full vertex set dominates")


def is_claw_free_naive(g: Graph) -> bool:
    """No induced K_{1,3}: no vertex has three pairwise non-adjacent neighbours."""
    edges = {frozenset(e) for e in g.edge_lists()}
    for v in range(1, g.vertex_count + 1):
        nbrs = [u for u in range(1, g.vertex_count + 1) if frozenset((u, v)) in edges]
        for trio in combinations(nbrs, 3):
            if not any(frozenset(pair) in edges for pair in combinations(trio, 2)):
                return False
    return True


# -- monomial membership oracles -------------------------------------------------


def symbolic_power_members_naive(c: Clutter, n: int) -> set[tuple[int, ...]]:
    """Exponent tuples (capped at n per variable) inside every prime power.

    Membership in p^n for a monomial prime p is a degree condition on the
    variables of p, so the minimal generators all have exponents <= n and
    this capped grid is enough to determine them.
    """
    covers = minimal_covers_naive(c)
    members = set()
    for exps in product(range(n + 1), repeat=c.vertex_count):
        if all(sum(exps[v - 1] for v in p) >= n for p in covers):
            members.add(exps)
    return members


def minimal_exponents(members: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    return {
        m
        for m in members
        if not any(divides(other, m) and other != m for other in members)
    }


# -- exponent-tuple monomials and ideals -----------------------------------------


class AmbientMismatchError(ValueError):
    """Operands disagree on the ambient vertex count."""


@dataclass(frozen=True)
class Monomial:
    """t^a = t_1^{a_1} ... t_s^{a_s}, stored as the exponent tuple a."""

    ambient_size: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) != self.ambient_size:
            raise ValueError("exponent tuple length must equal ambient size")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def of(cls, ambient_size: int, exponents: Iterable[int]) -> "Monomial":
        return cls(ambient_size, tuple(exponents))

    @classmethod
    def variable(cls, ambient_size: int, v: int) -> "Monomial":
        if not 1 <= v <= ambient_size:
            raise ValueError(f"variable t_{v} outside ambient")
        return cls(
            ambient_size,
            tuple(1 if i == v - 1 else 0 for i in range(ambient_size)),
        )

    @classmethod
    def from_support(cls, ambient_size: int, mask: int) -> "Monomial":
        """The squarefree monomial on the variables of the vertex mask."""
        if mask < 0 or mask >> ambient_size:
            raise ValueError("support has vertices outside the ambient range")
        return cls(ambient_size, tuple(mask >> i & 1 for i in range(ambient_size)))

    def degree(self) -> int:
        return sum(self.exponents)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def support(self) -> int:
        """The vertex mask of the variables with a positive exponent."""
        return sum(1 << i for i, e in enumerate(self.exponents) if e > 0)

    def divides(self, other: "Monomial") -> bool:
        if self.ambient_size != other.ambient_size:
            raise AmbientMismatchError("monomials over different ambients")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def sort_key(self) -> tuple:
        return (self.degree(), self.exponents)


@dataclass(frozen=True)
class MonomialIdeal:
    """A finitely generated monomial ideal, stored by minimal generators.

    The generators are kept sorted by degree, then exponent tuple, so
    equality of ideals is equality of values.  The zero ideal has no
    generators; the unit ideal is generated by 1 (colon ideals can be unit).
    """

    ambient_size: int
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.ambient_size != self.ambient_size:
                raise AmbientMismatchError("generator over the wrong ambient")
        object.__setattr__(self, "generators", _minimalize(self.generators))

    @classmethod
    def of(cls, ambient_size: int, generators: Iterable[Monomial]) -> "MonomialIdeal":
        return cls(ambient_size, tuple(generators))

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.is_one() for g in self.generators)

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        if m.ambient_size != self.ambient_size:
            raise AmbientMismatchError("monomial over the wrong ambient")
        return any(g.divides(m) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.generators)


def _minimalize(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    out: list[Monomial] = []
    for g in sorted(set(gens), key=Monomial.sort_key):
        if not any(kept.divides(g) for kept in out):
            out.append(g)
    return tuple(out)


def meet_quadratic(gens: Iterable[int], piece: Sequence[int]) -> list[int]:
    """The intersection of two mask ideals, re-minimizing every union.

    The reference for `vertexsets.meet`: a generator that a member of piece
    divides is kept alone, every other one contributes all its unions, and
    the whole family is minimized again.  It takes any mask families, not
    only antichains.
    """
    out: list[int] = []
    for g in gens:
        if any(h & ~g == 0 for h in piece):
            out.append(g)
        else:
            out.extend(g | h for h in piece)
    return antichain_minima(out)



# -- the mask folds before they tested only what can fail -------------------------


def colon_pieces_by_minima(c: Clutter, mask: int) -> dict[int, list[int]]:
    """Generators of (I : t_v) for each vertex bit v of mask, as the
    inclusion-minimal sets among all the e - v.

    The package splits the edges through v from the others instead
    (`monomials._colon_pieces`).
    """
    return {
        b: antichain_minima(e & ~b for e in c.edge_masks) for b in iter_bits(mask)
    }


def alpha_of_colon_per_prime(
    c: Clutter, prime: int, pieces: dict[int, list[int]], bound: int
) -> int:
    """min(alpha((I : p)/I), bound), folding the prime's pieces afresh from
    its lowest bit up and dropping the generators that reach the bound.

    The package folds from the highest bit down and reuses the folds of
    prefixes that an earlier prime shares (`monomials._alpha_of_colon`).
    """
    colon = [0]
    for b in iter_bits(prime):
        colon = [g for g in meet(colon, pieces[b]) if g.bit_count() < bound]
        if not colon:
            return bound
    return min((g.bit_count() for g in colon if c.is_stable_mask(g)), default=bound)


def v_number_algebraic_per_prime(c: Clutter) -> int:
    """min over associated primes of alpha((I : p)/I), one bounded fold of
    minimized colon pieces per prime."""
    pieces = colon_pieces_by_minima(c, c.full_mask)
    best = c.vertex_count + 1
    for p in c.minimal_cover_masks():
        best = alpha_of_colon_per_prime(c, p, pieces, best)
    return best


def symbolic_power_masks_by_meet(c: Clutter, n: int) -> list[int]:
    """Minimal generators of I^(n) as unary-layer masks, a fold of `meet`
    over the prime powers p^n, smallest prime first.

    The package drops the unions of degree above n in p before `meet`'s
    containment tests (`monomials._meet_prime_power`).
    """
    s = c.vertex_count
    out = [0]
    for p in sorted(c.minimal_cover_masks(), key=int.bit_count):
        piece = []
        for combo in combinations_with_replacement(mask_members(p), n):
            m, layer, prev = 0, 0, None
            for v in combo:
                layer = layer + 1 if v == prev else 0
                m |= 1 << (layer * s + v - 1)
                prev = v
            piece.append(m)
        out = meet(out, piece)
    return out

def edge_ideal(c: Clutter) -> MonomialIdeal:
    """Squarefree ideal generated by one monomial t_e per edge e."""
    gens = [Monomial.from_support(c.vertex_count, m) for m in c.edge_masks]
    return MonomialIdeal.of(c.vertex_count, gens)


def clutter_of_squarefree_ideal(i: MonomialIdeal) -> Clutter:
    """The clutter whose edges are the supports of the minimal generators."""
    if i.is_unit():
        raise ValueError("the unit ideal is not an edge ideal")
    if not i.is_squarefree():
        raise ValueError("ideal is not squarefree")
    return Clutter.of(
        i.ambient_size, [mask_members(g.support()) for g in i.generators]
    )


def symbolic_power(c: Clutter, n: int) -> MonomialIdeal:
    """The package's I^(n), its exponent tuples wrapped in an ideal."""
    s = c.vertex_count
    return MonomialIdeal.of(s, [Monomial(s, e) for e in monomials.symbolic_power(c, n)])


# -- exponent-tuple ideal algebra -------------------------------------------------


def _exponent_pairs(a: Monomial, b: Monomial):
    return zip(a.exponents, b.exponents, strict=True)


def times(a: Monomial, b: Monomial) -> Monomial:
    return Monomial.of(a.ambient_size, (x + y for x, y in _exponent_pairs(a, b)))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return Monomial.of(a.ambient_size, (max(x, y) for x, y in _exponent_pairs(a, b)))


def quotient_by_gcd(a: Monomial, b: Monomial) -> Monomial:
    """a / gcd(a, b)."""
    return Monomial.of(
        a.ambient_size, (max(x - y, 0) for x, y in _exponent_pairs(a, b))
    )


def colon_by_monomial(i: MonomialIdeal, f: Monomial) -> MonomialIdeal:
    """(i : f), generated by g / gcd(g, f) over the generators g."""
    if f.ambient_size != i.ambient_size:
        raise AmbientMismatchError("monomial over the wrong ambient")
    return MonomialIdeal.of(
        i.ambient_size, [quotient_by_gcd(g, f) for g in i.generators]
    )


def intersect(i1: MonomialIdeal, i2: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcms of generators."""
    if i1.ambient_size != i2.ambient_size:
        raise AmbientMismatchError("ideals over different ambients")
    gens = [lcm(g1, g2) for g1 in i1.generators for g2 in i2.generators]
    return MonomialIdeal.of(i1.ambient_size, gens)


def add_variables(i: MonomialIdeal, vs: int) -> MonomialIdeal:
    """(i, t_v : v in the vertex mask vs)."""
    if vs >> i.ambient_size:
        raise AmbientMismatchError("variables over the wrong ambient")
    gens = list(i.generators)
    gens += [Monomial.variable(i.ambient_size, v) for v in mask_members(vs)]
    return MonomialIdeal.of(i.ambient_size, gens)


def extend_ambient(i: MonomialIdeal, new_size: int) -> MonomialIdeal:
    if new_size < i.ambient_size:
        raise ValueError("cannot shrink the ambient")
    pad = new_size - i.ambient_size
    gens = [
        Monomial(new_size, g.exponents + (0,) * pad) for g in i.generators
    ]
    return MonomialIdeal.of(new_size, gens)


def ordinary_power(i: MonomialIdeal, n: int) -> MonomialIdeal:
    if n < 1:
        raise ValueError("power must be >= 1")
    gens = []
    for combo in combinations_with_replacement(i.generators, n):
        out = combo[0]
        for m in combo[1:]:
            out = times(out, m)
        gens.append(out)
    return MonomialIdeal.of(i.ambient_size, gens)


def prime_power(s: int, p: int, n: int) -> MonomialIdeal:
    """p^n: all degree-n monomials in the variables of the vertex mask p."""
    if n < 1:
        raise ValueError("power must be >= 1")
    gens = []
    for combo in combinations_with_replacement(mask_members(p), n):
        exps = [0] * s
        for v in combo:
            exps[v - 1] += 1
        gens.append(Monomial(s, tuple(exps)))
    return MonomialIdeal.of(s, gens)


def radical(i: MonomialIdeal) -> MonomialIdeal:
    """Support-wise radical: replace each generator by its squarefree part."""
    gens = [Monomial.from_support(i.ambient_size, g.support()) for g in i.generators]
    return MonomialIdeal.of(i.ambient_size, gens)


def symbolic_power_tuples(c: Clutter, n: int) -> MonomialIdeal:
    """I^(n) as the fold of intersect over the prime powers p^n."""
    if n < 1:
        raise ValueError("symbolic power needs n >= 1")
    out = None
    for p in c.minimal_cover_masks():
        piece = prime_power(c.vertex_count, p, n)
        out = piece if out is None else intersect(out, piece)
    return out


def polarize(i: MonomialIdeal) -> tuple[MonomialIdeal, tuple[tuple[int, int], ...]]:
    """Split exponents into distinct squarefree variables.

    Returns the squarefree ideal together with the variable map: entry j of
    the map is (original variable, copy index) for new variable j+1.  New
    variables are grouped by original variable in index order, so copy 0 of
    t_i stands in for the original t_i.
    """
    s = i.ambient_size
    height = [0] * s
    for g in i.generators:
        for k, e in enumerate(g.exponents):
            height[k] = max(height[k], e)
    var_map: list[tuple[int, int]] = []
    slot: dict[tuple[int, int], int] = {}
    for v in range(s):
        for copy in range(height[v]):
            slot[(v + 1, copy)] = len(var_map) + 1
            var_map.append((v + 1, copy))
    new_size = len(var_map)
    gens = []
    for g in i.generators:
        exps = [0] * new_size
        for k, e in enumerate(g.exponents):
            for copy in range(e):
                exps[slot[(k + 1, copy)] - 1] = 1
        gens.append(Monomial(new_size, tuple(exps)))
    return MonomialIdeal.of(new_size, gens), tuple(var_map)


# -- the exponent-tuple route of the algebraic v-number --------------------------


def colon_by_ideal(i: MonomialIdeal, p: int) -> MonomialIdeal:
    """(i : p) as the intersection of (i : x) over the variables x of p.

    The prime p is given by the vertex mask of its variables.
    """
    if not p:
        raise ValueError("a monomial prime needs at least one variable")
    out = None
    for v in mask_members(p):
        piece = colon_by_monomial(i, Monomial.variable(i.ambient_size, v))
        out = piece if out is None else intersect(out, piece)
    return out


def alpha_of_colon_quotient_tuples(c: Clutter, p: int) -> int:
    """alpha((I : p)/I) from the colon ideal's exponent-tuple generators."""
    i = edge_ideal(c)
    if p not in c.minimal_cover_masks():
        raise ValueError("prime is not associated to the edge ideal")
    colon = colon_by_ideal(i, p)
    outside = [g.degree() for g in colon.generators if not i.contains(g)]
    return min(outside) if outside else 0


# -- homology oracle --------------------------------------------------------------


def dense_rows(columns: Sequence[dict[int, int]]) -> list[list[int]]:
    """The dense rows of a matrix given by sparse columns {row: entry}."""
    count = 1 + max((r for col in columns for r in col), default=-1)
    return [[col.get(i, 0) for col in columns] for i in range(count)]


def rank_bareiss(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    The dense rational rank the package used before its sparse column
    reduction, `complexes.rank_int_matrix`, replaced it.
    """
    if not rows or not rows[0]:
        return 0
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            mrc = m[r][c]
            row_i = m[i]
            row_r = m[r]
            for c2 in range(c + 1, ncols):
                row_i[c2] = (row_i[c2] * mrc - mic * row_r[c2]) // prev
            row_i[c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def rank_fraction(rows: list[list[int]]) -> int:
    """Plain Gaussian elimination over Fraction, independent of Bareiss."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def rank_gf2_sets(rows: list[set[int]]) -> int:
    """GF(2) rank with rows as column-index sets (not packed words)."""
    pivot_rows: dict[int, set[int]] = {}
    rank = 0
    for row in rows:
        row = set(row)
        while row:
            p = min(row)
            if p not in pivot_rows:
                pivot_rows[p] = row
                rank += 1
                break
            row = row ^ pivot_rows[p]
    return rank


def euler_characteristic_reduced(complex_: SimplicialComplex) -> int:
    """Alternating sum over faces, the empty face included with sign -1."""
    if complex_.is_void():
        return 0
    return sum(1 if m.bit_count() % 2 else -1 for m in complex_.face_masks())


def reduced_homology_ranks(complex_: SimplicialComplex, field: Field) -> tuple[int, ...]:
    """Reduced homology ranks from dimension -1 up, by the unpruned kernel.

    The whole complex goes into `_Chains`, with no core and no collapse,
    and the first rank asked for, in dimension -1, builds every level down
    to the empty face; entry d + 1 is the rank in dimension d, and the void
    complex has no entries.
    """
    if complex_.is_void():
        return ()
    chains = _Chains(complex_.facets)
    betti = chains.betti2 if field is Field.F2 else chains.betti_q
    return tuple(betti(d) for d in range(-1, chains.top + 1))


def homology_ranks_naive(facet_sets: list[frozenset], field: str) -> dict[int, int]:
    """Reduced homology ranks from scratch: all faces, dense matrices."""
    faces = set()
    for f in facet_sets:
        for a in subsets(sorted(f)):
            faces.add(frozenset(a))
    if not faces:
        return {}
    by_dim: dict[int, list[frozenset]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d], key=sorted)
    top = max(by_dim)
    ranks_of_boundary = {d: 0 for d in range(-1, top + 2)}
    for d in range(0, top + 1):
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d, [])
        if not lower or not upper:
            continue
        index = {f: i for i, f in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for j, f in enumerate(upper):
            for pos, v in enumerate(sorted(f)):
                rows[index[f - {v}]][j] = -1 if pos % 2 else 1
        if field == "Q":
            ranks_of_boundary[d] = rank_fraction(rows)
        else:
            ranks_of_boundary[d] = rank_gf2_sets(
                [{j for j, x in enumerate(row) if x % 2} for row in rows]
            )
    out = {}
    for d in range(-1, top + 1):
        out[d] = (
            len(by_dim.get(d, []))
            - ranks_of_boundary[d]
            - ranks_of_boundary[d + 1]
        )
    return out


# -- regularity and its matching bounds ------------------------------------------


def regularity_per_field(c: Clutter, field: Field) -> int:
    """The per-field Hochster scan: every vertex subset, homology from scratch.

    No size order, no pruning by the best so far and no shared face tables:
    each induced complex Delta_A (the stable sets inside A) goes through
    `homology_ranks_naive`.  Only the cone skip stays: when a member of A
    lies in no edge inside A, Delta_A is a cone and has no reduced homology.
    """
    edges = [frozenset(e) for e in c.edge_lists()]
    best = 0
    for a in subsets(range(1, c.vertex_count + 1)):
        aset = frozenset(a)
        inside = [e for e in edges if e <= aset]
        if frozenset().union(*inside) != aset:
            continue
        stable = [
            frozenset(f) for f in subsets(a) if not any(e <= set(f) for e in inside)
        ]
        facets = [f for f in stable if not any(f < g for g in stable)]
        ranks = homology_ranks_naive(facets, field.value)
        top = max((d for d, r in ranks.items() if r), default=None)
        if top is not None:
            best = max(best, top + 1)
    return best


def matching_numbers_naive(g: Graph) -> tuple[int, int]:
    """(induced matching number, matching number) by trying every edge set."""
    edges = [frozenset(e) for e in g.edge_lists()]
    induced = plain = 0
    for k in range(1, len(edges) + 1):
        for combo in combinations(edges, k):
            covered = frozenset().union(*combo)
            if len(covered) < 2 * k:
                continue
            plain = k
            if sum(1 for e in edges if e <= covered) == k:
                induced = k
        if plain < k:
            break  # a sub-matching of a matching is one, so none is larger
    return induced, plain


# -- the independence-number-two specialization ----------------------------------


def symbolic_square_cm_beta2(g: Graph) -> bool:
    """Symbolic-square Cohen-Macaulayness at independence number two.

    There edge-criticality decides.  The report's own check asserts the
    equivalent complement readings: the complement must be maximal
    triangle-free, and when it is connected on at least three vertices its
    diameter must be at most two exactly in the positive case.
    """
    if g.independence_number() != 2:
        raise ValueError("this specialization needs independence number 2")
    verdict, _ = edge_criticality(g)
    return _beta2_complement_agreement(g, verdict)


# -- subclutters built as clutters -------------------------------------------------


def induced_subclutter(c: Clutter, keep: Sequence[int]) -> Clutter:
    """The edges inside keep, with vertex keep[i] relabelled i + 1.

    A graph gives a graph.
    """
    new_of_old = {u: i + 1 for i, u in enumerate(keep)}
    keep_mask = mask_of(c.vertex_count, keep)
    edges = [
        [new_of_old[u] for u in mask_members(m)]
        for m in c.edge_masks
        if m & ~keep_mask == 0
    ]
    return type(c).of(len(keep), edges)


def delete_closed_neighborhood(g: Graph, v: int) -> Graph:
    """G_v: the induced subgraph on V minus N[v]."""
    gone = g.adjacency_masks()[v - 1] | 1 << (v - 1)
    return induced_subclutter(g, mask_members(g.full_mask & ~gone))


def is_one_well_covered_built(c: Clutter) -> bool:
    """C and every C - v well-covered, each C - v built with its own covers.

    The package reads every C - v off the facets of Delta(C) instead.
    """
    if not c.is_well_covered():
        return False
    everyone = range(1, c.vertex_count + 1)
    return all(
        induced_subclutter(c, [u for u in everyone if u != v]).is_well_covered()
        for v in everyone
    )


# -- the edge subgraphs G_e ---------------------------------------------------------


def edge_subgraph_facets(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """Facets of the independence complex of G_e, e = {u, v}, in G's labels.

    G_e is built as the induced subgraph on the vertices outside N[u] and
    N[v], relabelled 1, 2, ..., and its complex comes from its own minimal
    covers; the facets are mapped back to G's vertices.  The package reads
    G_e as a restriction of Delta(G) instead.
    """
    gone = {w for e in g.edge_lists() if u in e or v in e for w in e}
    keep = [w for w in range(1, g.vertex_count + 1) if w not in gone]
    sub = induced_subclutter(g, keep)
    return tuple(
        sorted(
            mask_of(g.vertex_count, [keep[i - 1] for i in mask_members(f)])
            for f in independence_complex(sub).facets
        )
    )


# -- edge deletions G - e -----------------------------------------------------------


def edge_criticality_by_fresh_covers(g: Graph) -> tuple[bool, tuple[int, int] | None]:
    """Edge-criticality and its first violating edge, each G - e built.

    Every G - e, edges in vertex-list order, is built as a graph and takes
    its independence number from its own minimal covers.  The package
    searches alpha(G - e) on G's adjacency masks instead.
    """
    beta0 = g.independence_number() if g.has_edges() else None
    for u, v in sorted(g.edge_lists()):
        if delete_edge(g, u, v).independence_number() != beta0 + 1:
            return False, (u, v)
    return True, None


# -- Cohen-Macaulay references ------------------------------------------------------


def link_naive(complex_: SimplicialComplex, face: int) -> SimplicialComplex:
    """lk(F) = {H : H disjoint from F, H union F a face}, for a face F."""
    facets = [set(mask_members(f)) for f in complex_.facets]
    fset = set(mask_members(face))
    return SimplicialComplex.of(
        complex_.ambient_size, [tuple(f - fset) for f in facets if fset <= f]
    )


def is_cohen_macaulay_all_faces(complex_: SimplicialComplex, field: Field) -> bool:
    """Literal all-faces form of the link-vanishing test."""
    if complex_.is_void():
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    for fmask in complex_.face_masks():
        link = link_naive(complex_, fmask)
        d = link.dim()
        if any(reduced_homology_ranks(link, field)[: d + 1]):
            return False
    return True


def is_cohen_macaulay_per_field(complex_: SimplicialComplex, field: Field) -> bool:
    """Link-vanishing test run separately for one field, memoized per field."""
    return _cm_per_field(complex_.facets, field)


@lru_cache(maxsize=None)
def _cm_per_field(facets: tuple[int, ...], field: Field) -> bool:
    if len(facets) == 1:
        return True
    common = facets[0]
    for f in facets:
        common &= f
    if common:
        stripped = tuple(sorted(f & ~common for f in facets))
        return _cm_per_field(stripped, field)
    sizes = {f.bit_count() for f in facets}
    if len(sizes) > 1:
        return False
    dim = next(iter(sizes)) - 1
    complex_ = SimplicialComplex(max(f.bit_length() for f in facets), facets)
    if any(reduced_homology_ranks(complex_, field)[: dim + 1]):
        return False
    vmask = or_all(complex_.facets)
    for v in range(1, vmask.bit_length() + 1):
        if vmask >> (v - 1) & 1:
            link = link_naive(complex_, 1 << (v - 1))
            if not _cm_per_field(link.facets, field):
                return False
    return True


# -- shedding vertices and strong collapses -----------------------------------------


def sheds_by_deletion(facets: tuple[int, ...], b: int) -> bool:
    """Whether the vertex bit b sheds: every facet of its deletion, built
    with `antichain_maxima`, is a facet of the complex.

    The package looks the facets of the deletion up from the facets through
    b instead (`vertexsets.sheds`).
    """
    return all(d in facets for d in antichain_maxima(f & ~b for f in facets))


def dominated(facets: tuple[int, ...]) -> int:
    """The mask of vertices deleted by one pass of strong collapses.

    Vertex bits are tried in increasing order, and bit b is taken when every
    facet through b also holds some vertex that is not taken, its apex.
    Then b's link in the deletion of the bits taken before it is a cone
    over the apex, so deleting the taken bits one after another is a chain
    of strong collapses (Barmak-Minian): each deletion is a deformation
    retract, and reduced homology stays the same over every field.  The
    apex of the last bit taken is never taken, so a vertex is always left.
    It is the reference of the scan's fold checks: a subset the scan keeps
    has no dominated vertex.
    """
    common: dict[int, int] = {}
    for f in facets:
        rest = f
        while rest:
            b = rest & -rest
            rest ^= b
            common[b] = common.get(b, f) & f
    taken = 0
    for b in sorted(common):
        if common[b] & ~taken != b:
            taken |= b
    return taken



def folds_by_edge_scan(edges: Sequence[int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """The scan's (mask, pair, wide) fold checks, testing each edge e
    through u against every edge f through w.

    The package reads each w's link members f - w once, and tests the
    one-vertex ones by one AND (`complexes._folds`).
    """
    vertices = list(iter_bits(or_all(edges)))
    through = {v: [e for e in edges if e & v] for v in vertices}
    checks = []
    for u in vertices:
        for w in vertices:
            if w == u:
                continue
            mask = u | w
            wide: tuple[int, ...] = ()
            for e in through[u]:
                rest = e & ~(u | w)
                if any(f & ~(rest | w) == 0 for f in through[w]):
                    continue
                if not rest:
                    break
                if rest & rest - 1:
                    wide += (rest,)
                else:
                    mask |= rest
            else:
                checks.append((mask, u | w, wide))
    return sorted(checks, key=lambda check: check[0].bit_count())

# -- vertex decomposability -----------------------------------------------------------


def _maximal_sets(sets) -> list[frozenset]:
    uniq = set(sets)
    return [f for f in uniq if not any(f < g for g in uniq)]


def is_vertex_decomposable_naive(facets) -> bool:
    """Vertex decomposability from its definition (Provan-Billera 1980).

    `facets` holds the facets as vertex collections; no facets is the void
    complex.  A complex is decomposable when it is void or a simplex, or
    when some vertex v has decomposable link and deletion and no facet of
    del(v) is a face of lk(v).  No memo and no Cohen-Macaulay prune.
    """
    facets = _maximal_sets(frozenset(f) for f in facets)
    if len(facets) <= 1:
        return True
    for v in sorted(frozenset().union(*facets)):
        link = _maximal_sets(f - {v} for f in facets if v in f)
        deletion = _maximal_sets(f - {v} for f in facets)
        if any(d <= l for d in deletion for l in link):
            continue
        if is_vertex_decomposable_naive(link) and is_vertex_decomposable_naive(
            deletion
        ):
            return True
    return False


# -- graph6 encoding ------------------------------------------------------------------


def encode_graph6(n: int, edges) -> str:
    """Independent little encoder used as the decoding oracle."""
    assert n < 63
    bits = []
    present = {frozenset(e) for e in edges}
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if frozenset((i + 1, j + 1)) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val * 2 + b
        out.append(chr(val + 63))
    return "".join(out)

"""Brute-force reference implementations used to freeze expected values.

Everything here scans full subset or monomial spaces with no pruning and no
shared code paths with the package internals, so agreement is meaningful.
The exceptions are routes the package replaced by faster ones, kept here as
references for them: the exponent-tuple ideal algebra (colon ideals,
intersections, powers, polarization) behind the algebraic v-number and the
symbolic powers, which now run on bit masks; the per-field Cohen-Macaulay
recursion, which one recursion for both fields replaced; and the per-field
regularity scan over every vertex subset, which one pruned scan for all
fields replaced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from vnum.clutters import Clutter, Graph
from vnum.complexes import Field, SimplicialComplex, reduced_homology_ranks
from vnum.monomials import (
    Monomial,
    MonomialIdeal,
    PrimeCover,
    associated_primes,
    edge_ideal,
)
from vnum.vertexsets import AmbientMismatchError, VertexSet


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


# -- exponent-tuple ideal algebra -------------------------------------------------


def colon_by_monomial(i: MonomialIdeal, f: Monomial) -> MonomialIdeal:
    """(i : f), generated by g / gcd(g, f) over the generators g."""
    if f.ambient_size != i.ambient_size:
        raise AmbientMismatchError("monomial over the wrong ambient")
    return MonomialIdeal.of(
        i.ambient_size, [g.quotient_by_gcd(f) for g in i.generators]
    )


def intersect(i1: MonomialIdeal, i2: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcms of generators."""
    if i1.ambient_size != i2.ambient_size:
        raise AmbientMismatchError("ideals over different ambients")
    gens = [g1.lcm(g2) for g1 in i1.generators for g2 in i2.generators]
    return MonomialIdeal.of(i1.ambient_size, gens)


def add_variables(i: MonomialIdeal, vs: VertexSet) -> MonomialIdeal:
    """(i, t_v : v in vs)."""
    if vs.ambient_size != i.ambient_size:
        raise AmbientMismatchError("variables over the wrong ambient")
    gens = list(i.generators)
    gens += [Monomial.variable(i.ambient_size, v) for v in vs.members()]
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
            out = out.times(m)
        gens.append(out)
    return MonomialIdeal.of(i.ambient_size, gens)


def prime_power(p: PrimeCover, n: int) -> MonomialIdeal:
    """p^n: all degree-n monomials in the variables of p."""
    if n < 1:
        raise ValueError("power must be >= 1")
    s = p.ambient_size
    gens = []
    for combo in combinations_with_replacement(p.members(), n):
        exps = [0] * s
        for v in combo:
            exps[v - 1] += 1
        gens.append(Monomial(s, tuple(exps)))
    return MonomialIdeal.of(s, gens)


def radical(i: MonomialIdeal) -> MonomialIdeal:
    """Support-wise radical: replace each generator by its squarefree part."""
    gens = [Monomial.from_support(g.support()) for g in i.generators]
    return MonomialIdeal.of(i.ambient_size, gens)


def symbolic_power_tuples(c: Clutter, n: int) -> MonomialIdeal:
    """I^(n) as the fold of intersect over the prime powers p^n."""
    if n < 1:
        raise ValueError("symbolic power needs n >= 1")
    out = None
    for p in associated_primes(c):
        piece = prime_power(p, n)
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


def colon_by_ideal(i: MonomialIdeal, p: PrimeCover) -> MonomialIdeal:
    """(i : p) as the intersection of (i : x) over the variables x of p."""
    out = None
    for v in p.members():
        piece = colon_by_monomial(i, Monomial.variable(i.ambient_size, v))
        out = piece if out is None else intersect(out, piece)
    return out


def alpha_of_colon_quotient_tuples(c: Clutter, p: PrimeCover) -> int:
    """alpha((I : p)/I) from the colon ideal's exponent-tuple generators."""
    i = edge_ideal(c)
    if p.variables.mask not in set(c.minimal_cover_masks()):
        raise ValueError("prime is not associated to the edge ideal")
    colon = colon_by_ideal(i, p)
    outside = [g.degree() for g in colon.generators if not i.contains(g)]
    return min(outside) if outside else 0


# -- homology oracle --------------------------------------------------------------


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


# -- Cohen-Macaulay references ------------------------------------------------------


def is_cohen_macaulay_all_faces(complex_: SimplicialComplex, field: Field) -> bool:
    """Literal all-faces form of the link-vanishing test."""
    if complex_.is_void():
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    for fmask in complex_.face_masks():
        link = complex_.link_mask(fmask)
        d = link.dim()
        profile = reduced_homology_ranks(link, field)
        if any(profile.rank(i) for i in range(-1, d)):
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
    profile = reduced_homology_ranks(complex_, field)
    if any(profile.rank(i) for i in range(-1, dim)):
        return False
    vmask = complex_.vertex_mask()
    for v in range(1, vmask.bit_length() + 1):
        if vmask >> (v - 1) & 1:
            link = complex_.link(VertexSet.of(complex_.ambient_size, [v]))
            if not _cm_per_field(link.facets, field):
                return False
    return True


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

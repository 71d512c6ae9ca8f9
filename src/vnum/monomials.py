"""Exact monomial-ideal arithmetic on bit masks.

A squarefree monomial ideal is a clutter: its minimal generators are the
edge masks.  Associated primes of an edge ideal are read off the blocker of
its clutter, which keeps colon ideals, symbolic powers, and the algebraic
v-number exact without any generic primary decomposition.  The algebraic
v-number runs on the clutter's edge masks, symbolic powers and their
polarization on unary-layer masks.  The colon ideals (I : p), intersections
of the (I : t_v) over v in p, and the symbolic powers I^(n), intersections
of the prime powers p^n, are folds of `vertexsets.meet`, as are the minimal
covers.  An associated prime is the vertex mask of its minimal cover, and a
monomial's support is a vertex mask too.  Exponent tuples are only the
output form of symbolic_power.  The algebraic v-number bounds each prime's
colon fold by its own best over the primes before it: a meet only grows
supports, so the generators that reach the bound are dropped as soon as
they appear.
"""

from __future__ import annotations

import itertools

from .clutters import Clutter, ZeroIdealError
from .vertexsets import antichain_minima, iter_bits, mask_members, meet, or_all


# -- symbolic powers -----------------------------------------------------------


def _symbolic_power_masks(c: Clutter, n: int) -> list[int]:
    """Minimal generators of I^(n) as unary-layer masks over n * s bits.

    Bit k*s + i means "the exponent of t_{i+1} is at least k+1", so a
    monomial with exponents at most n is the union of its layers, lcm is |
    and divisibility is the subset test.  The intersection of the prime
    powers p^n, one per minimal cover, smallest first, whose generators are
    the degree-n monomials in the variables of p, is therefore a fold of
    `meet`; no exponent exceeds n.
    """
    if n < 1:
        raise ValueError("symbolic power needs n >= 1")
    if not c.has_edges():
        raise ZeroIdealError("the zero ideal has no associated primes")
    s = c.vertex_count
    out = [0]  # the unit ideal
    for p in sorted(c.minimal_cover_masks(), key=int.bit_count):
        piece = []
        for combo in itertools.combinations_with_replacement(mask_members(p), n):
            m, layer, prev = 0, 0, None
            for v in combo:
                layer = layer + 1 if v == prev else 0
                m |= 1 << (layer * s + v - 1)
                prev = v
            piece.append(m)
        out = meet(out, piece)
    return out


def symbolic_power(c: Clutter, n: int) -> list[tuple[int, ...]]:
    """Minimal generators of I^(n), the intersection of the n-th powers of
    the associated primes, as exponent tuples sorted by degree, then tuple."""
    s = c.vertex_count
    gens = [
        tuple(sum(m >> (k * s + i) & 1 for k in range(n)) for i in range(s))
        for m in _symbolic_power_masks(c, n)
    ]
    return sorted(gens, key=lambda e: (sum(e), e))


def polarized_symbolic_power(c: Clutter, n: int) -> Clutter:
    """The clutter of the polarization of I^(n).

    Polarization gives copy k of t_{i+1} a variable of its own, and that is
    the layer bit k*s + i, so the polarized generators are the layer masks
    with their used bits relabelled: grouped by original variable in index
    order, copies in layer order, as polarization numbers them.
    """
    s = c.vertex_count
    masks = _symbolic_power_masks(c, n)
    used = or_all(masks)
    relabel: dict[int, int] = {}
    for i in range(s):
        for k in range(n):
            bit = 1 << (k * s + i)
            if used & bit:
                relabel[bit] = len(relabel) + 1
    return Clutter.of(len(relabel), [[relabel[b] for b in iter_bits(m)] for m in masks])


# -- the algebraic v-number route ---------------------------------------------


def alpha_of_colon_quotient(c: Clutter, prime: int) -> int:
    """Least degree of a monomial in (I : p) outside I.

    The minimum over monomials of the quotient is attained at a generator of
    the colon ideal: any member is a multiple of some generator, and a
    generator inside I only produces multiples inside I.  Every ideal here
    is squarefree, so generators are vertex masks: (I : t_v) is generated by
    the edges with v removed, an intersection is a `meet`, and a generator
    lies outside I exactly when its support is stable.  The prime is given
    by the vertex mask of its variables; since it is associated, (I : p) is
    larger than I and the minimum exists.
    """
    if prime not in c.minimal_cover_masks():
        raise ValueError("prime is not associated to the edge ideal")
    # no support has more than s vertices, so this bound drops nothing
    return _alpha_of_colon(c, prime, _colon_pieces(c, prime), c.vertex_count + 1)


def _colon_pieces(c: Clutter, mask: int) -> dict[int, list[int]]:
    """Generators of (I : t_v) for each vertex bit v of mask."""
    return {
        b: antichain_minima(e & ~b for e in c.edge_masks) for b in iter_bits(mask)
    }


def _alpha_of_colon(
    c: Clutter, prime: int, pieces: dict[int, list[int]], bound: int
) -> int:
    """min(alpha((I : p)/I), bound) for the prime on the vertex mask `prime`.

    After every `meet` the generators whose degree reaches the bound are
    dropped: a meet only joins supports, so none of their descendants can
    fall below it, and the generators below the bound at the end are those
    of the whole fold.
    """
    colon = [0]  # the unit ideal, generated by the empty support
    for b in iter_bits(prime):
        colon = [g for g in meet(colon, pieces[b]) if g.bit_count() < bound]
        if not colon:
            return bound
    return min((g.bit_count() for g in colon if c.is_stable_mask(g)), default=bound)


def v_number_algebraic(c: Clutter) -> int:
    """min over associated primes p of alpha((I : p)/I).

    The colon piece (I : t_v) of each vertex is built once and shared by
    every prime that contains v.  Each prime's fold is bounded by this
    route's own best over the primes before it, which starts above every
    possible degree.
    """
    if not c.has_edges():
        raise ZeroIdealError("v-number undefined for the zero ideal")
    pieces = _colon_pieces(c, c.full_mask)
    best = c.vertex_count + 1
    for p in c.minimal_cover_masks():
        best = _alpha_of_colon(c, p, pieces, best)
    return best

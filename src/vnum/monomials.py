"""Exact monomial-ideal arithmetic on bit masks.

A squarefree monomial ideal is a clutter: its minimal generators are the
edge masks.  Associated primes of an edge ideal are read off the blocker of
its clutter, which keeps colon ideals, symbolic powers, and the algebraic
v-number exact without any generic primary decomposition.  The algebraic
v-number runs on the clutter's edge masks, symbolic powers and their
polarization on unary-layer masks.  The colon ideals (I : p), intersections
of the (I : t_v) over v in p, are folds of `vertexsets.meet`, as are the
minimal covers; the symbolic powers I^(n), intersections of the prime
powers p^n, are folds of `_meet_prime_power`, a `meet` that drops the
unions of too high a degree in p before any containment test.  An
associated prime is the vertex mask of its minimal cover, and a monomial's
support is a vertex mask too.  Exponent tuples are only the output form of
symbolic_power.

Each fold tests only what can fail.  A colon piece (I : t_v) is split, not
minimized: the edges through v, shrunk by v, are minimal, and an edge that
avoids v is tested only against them.  The algebraic v-number folds each
prime's pieces from its highest bit down and keeps the fold of every
prefix on a stack: the minimal covers come sorted as ints, so consecutive
primes share their high bits and a shared prefix is folded once.  Each
fold is bounded by the route's own best over the primes before it: a meet
only grows supports, so the generators that reach the bound are dropped as
soon as they appear, and a prefix whose fold is empty settles every prime
that shares it.
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
    `_meet_prime_power`; no exponent exceeds n.
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
        out = _meet_prime_power(out, piece, n)
    return out


def _meet_prime_power(gens: list[int], piece: list[int], n: int) -> list[int]:
    """`meet(gens, piece)` for piece the generators of a prime power p^n.

    The piece is every degree-n monomial in the variables of p, on unary
    layers, and its union P holds the layer bits of p, so a generator g lies
    in p^n exactly when |g & P| >= n; those are kept as `meet` keeps them.
    For every other g, a union g | h with |(g | h) & P| > n is never
    minimal: lowering the exponents of p's variables towards g's, down to
    total degree n, gives a smaller union g | h' with h' in p^n.  So only
    the h that hold g & P make unions, and the layer bits of g | h are then
    exactly h.  Two such unions with different h never contain each other,
    and with the same h one lies inside the other exactly when its bits off
    P do, so the unions are minimized by h, on their bits off P alone.  A
    kept k lies inside g | h only when its layer bits are h and its bits
    off P lie inside g: the kept generators of degree n in p, grouped by
    their bits off P, rule out their h by one AND for each group.
    """
    layers = or_all(piece)
    kept: list[int] = []
    tight: dict[int, set[int]] = {}
    rest: list[int] = []
    for g in gens:
        degree = (g & layers).bit_count()
        if degree >= n:
            kept.append(g)
            if degree == n:
                tight.setdefault(g & ~layers, set()).add(g & layers)
        else:
            rest.append(g)
    offs: dict[int, set[int]] = {}  # h -> bits off P of the unions g | h
    for g in rest:
        low, off = g & layers, g & ~layers
        held = {h for other, hs in tight.items() if other & ~off == 0 for h in hs}
        for h in piece:
            if low & ~h == 0 and h not in held:
                offs.setdefault(h, set()).add(off)
    return kept + [o | h for h, group in offs.items() for o in antichain_minima(group)]


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
    return _alpha_of_colon(
        c, prime, _colon_pieces(c, prime), c.vertex_count + 1, []
    )


def _colon_pieces(c: Clutter, mask: int) -> dict[int, list[int]]:
    """Generators of (I : t_v) for each vertex bit v of mask.

    (I : t_v) is generated by the minimal sets among the e - v.  The shrunk
    edges e - v of the edges through v are all minimal: one inside another,
    or an edge inside one, would put an edge of the clutter inside another.
    An edge that avoids v is minimal unless it holds a shrunk edge.  The
    one-vertex shrunk edges are tested at once, by one AND against their
    union, and only the wider ones one by one, as in `meet`.  Both groups
    are antichains, so each piece is the antichain that `meet` requires.
    """
    out = {}
    for b in iter_bits(mask):
        shrunk = [e ^ b for e in c.edge_masks if e & b]
        singles = or_all(h for h in shrunk if h.bit_count() == 1)
        wide = [h for h in shrunk if h.bit_count() != 1]
        out[b] = shrunk + [
            e
            for e in c.edge_masks
            if not e & (b | singles) and not any(h & ~e == 0 for h in wide)
        ]
    return out


def _alpha_of_colon(
    c: Clutter,
    prime: int,
    pieces: dict[int, list[int]],
    bound: int,
    stack: list[tuple[int, list[int]]],
) -> int:
    """min(alpha((I : p)/I), bound) for the prime on the vertex mask `prime`.

    The pieces are folded from the prime's highest bit down.  `stack` holds
    (prefix, fold) pairs, each prefix the highest bits of an earlier prime
    and each extending the one below it; the entries that are not prefixes
    of this prime are popped, the fold resumes from the longest one left,
    and the folds of this prime's longer prefixes are pushed.  After every
    `meet` the generators whose degree reaches the bound are dropped: a
    meet only joins supports, so none of their descendants can fall below
    it, and the generators below the bound at the end are those of the
    whole fold.  A stored fold was filtered by an earlier bound, no smaller
    than this one, so it holds every generator this fold needs; an empty
    one settles the prime at the bound.
    """
    # a prefix is shared when the prime has the same bits from its lowest up
    while stack and prime & -(stack[-1][0] & -stack[-1][0]) != stack[-1][0]:
        stack.pop()
    prefix, colon = stack[-1] if stack else (0, [0])  # [0]: the unit ideal
    rest = prime ^ prefix
    while colon and rest:
        b = 1 << rest.bit_length() - 1
        rest ^= b
        prefix |= b
        colon = [g for g in meet(colon, pieces[b]) if g.bit_count() < bound]
        stack.append((prefix, colon))
    return min((g.bit_count() for g in colon if c.is_stable_mask(g)), default=bound)


def v_number_algebraic(c: Clutter) -> int:
    """min over associated primes p of alpha((I : p)/I).

    The colon piece (I : t_v) of each vertex is built once and shared by
    every prime that contains v.  The primes come sorted as ints, so
    consecutive ones share their highest bits, and one stack of prefix
    folds serves them all (`_alpha_of_colon`).  Each prime's fold is
    bounded by this route's own best over the primes before it, which
    starts above every possible degree.
    """
    if not c.has_edges():
        raise ZeroIdealError("v-number undefined for the zero ideal")
    pieces = _colon_pieces(c, c.full_mask)
    best = c.vertex_count + 1
    stack: list[tuple[int, list[int]]] = []
    for p in c.minimal_cover_masks():
        best = _alpha_of_colon(c, p, pieces, best, stack)
    return best

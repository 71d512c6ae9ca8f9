"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent tuples over t_1, ..., t_s; ideals always store their
unique minimal generating set, so equality of ideals is equality of values.
Associated primes of an edge ideal are read off the blocker of its clutter,
which keeps colon ideals, symbolic powers, and the algebraic v-number exact
without any generic primary decomposition.  The computations run on bit
masks: the algebraic v-number on the clutter's edge masks, symbolic powers
and their polarization on unary-layer masks.  The colon ideals (I : p),
intersections of the (I : t_v) over v in p, and the symbolic powers I^(n),
intersections of the prime powers p^n, are folds of `vertexsets.meet`, as
are the minimal covers.  Exponent tuples are only the output form of
symbolic_power and the value type of the ideal classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .clutters import Clutter, ZeroIdealError
from .vertexsets import (
    AmbientMismatchError,
    VertexSet,
    antichain_minima,
    iter_bits,
    mask_members,
    meet,
    or_all,
)


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
    def one(cls, ambient_size: int) -> "Monomial":
        return cls(ambient_size, (0,) * ambient_size)

    @classmethod
    def variable(cls, ambient_size: int, v: int) -> "Monomial":
        if not 1 <= v <= ambient_size:
            raise ValueError(f"variable t_{v} outside ambient")
        return cls(
            ambient_size,
            tuple(1 if i == v - 1 else 0 for i in range(ambient_size)),
        )

    @classmethod
    def from_support(cls, a: VertexSet) -> "Monomial":
        members = set(a.members())
        return cls(
            a.ambient_size,
            tuple(1 if i + 1 in members else 0 for i in range(a.ambient_size)),
        )

    def degree(self) -> int:
        return sum(self.exponents)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def support(self) -> VertexSet:
        return VertexSet.of(
            self.ambient_size,
            [i + 1 for i, e in enumerate(self.exponents) if e > 0],
        )

    def _check(self, other: "Monomial") -> None:
        if self.ambient_size != other.ambient_size:
            raise AmbientMismatchError("monomials over different ambients")

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def sort_key(self) -> tuple:
        return (self.degree(), self.exponents)

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"t{i + 1}")
            elif e > 1:
                parts.append(f"t{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class PrimeCover:
    """The monomial prime generated by the variables of a vertex set."""

    variables: VertexSet

    def __post_init__(self) -> None:
        if len(self.variables) == 0:
            raise ValueError("a monomial prime needs at least one variable")

    @property
    def ambient_size(self) -> int:
        return self.variables.ambient_size

    def members(self) -> tuple[int, ...]:
        return self.variables.members()


@dataclass(frozen=True)
class MonomialIdeal:
    """A finitely generated monomial ideal, stored by minimal generators.

    The zero ideal has no generators; the unit ideal is generated by 1 and
    is allowed here (colon ideals can be unit) but rejected by the edge
    ideal constructors.
    """

    ambient_size: int
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.ambient_size != self.ambient_size:
                raise AmbientMismatchError("generator over the wrong ambient")
        object.__setattr__(self, "generators", tuple(_minimalize(self.generators)))

    @classmethod
    def of(cls, ambient_size: int, generators: Iterable[Monomial]) -> "MonomialIdeal":
        return cls(ambient_size, tuple(generators))

    @classmethod
    def zero(cls, ambient_size: int) -> "MonomialIdeal":
        return cls(ambient_size, ())

    @classmethod
    def unit(cls, ambient_size: int) -> "MonomialIdeal":
        return cls(ambient_size, (Monomial.one(ambient_size),))

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


def _minimalize(gens: Sequence[Monomial]) -> list[Monomial]:
    uniq = sorted(set(gens), key=Monomial.sort_key)
    out: list[Monomial] = []
    for g in uniq:
        if not any(kept.divides(g) for kept in out):
            out.append(g)
    return out


# -- edge and cover ideals ----------------------------------------------------


def edge_ideal(c: Clutter) -> MonomialIdeal:
    """Squarefree ideal generated by one monomial t_e per edge e."""
    gens = [
        Monomial.from_support(VertexSet(c.vertex_count, m)) for m in c.edge_masks
    ]
    return MonomialIdeal.of(c.vertex_count, gens)


def cover_ideal(c: Clutter) -> MonomialIdeal:
    """Edge ideal of the blocker (the ideal of covers)."""
    return edge_ideal(c.blocker())


def clutter_of_squarefree_ideal(i: MonomialIdeal) -> Clutter:
    """The clutter whose edges are the supports of the minimal generators."""
    if i.is_unit():
        raise ValueError("the unit ideal is not an edge ideal")
    if not i.is_squarefree():
        raise ValueError("ideal is not squarefree")
    return Clutter.of(
        i.ambient_size, [g.support().members() for g in i.generators]
    )


# -- associated primes and symbolic powers ------------------------------------


def associated_primes(c: Clutter) -> tuple[PrimeCover, ...]:
    """The primes of an edge ideal: one per minimal vertex cover."""
    if not c.has_edges():
        raise ZeroIdealError("the zero ideal has no associated primes")
    return tuple(
        PrimeCover(VertexSet(c.vertex_count, m)) for m in c.minimal_cover_masks()
    )


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


def symbolic_power(c: Clutter, n: int) -> MonomialIdeal:
    """Intersection of the n-th powers of the associated primes."""
    s = c.vertex_count
    gens = []
    for m in _symbolic_power_masks(c, n):
        exps = tuple(sum(m >> (k * s + i) & 1 for k in range(n)) for i in range(s))
        gens.append(Monomial(s, exps))
    return MonomialIdeal.of(s, gens)


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


def alpha_of_colon_quotient(c: Clutter, p: PrimeCover) -> int:
    """Least degree of a monomial in (I : p) outside I, or 0 if none exists.

    The minimum over monomials of the quotient is attained at a generator of
    the colon ideal: any member is a multiple of some generator, and a
    generator inside I only produces multiples inside I.  Every ideal here
    is squarefree, so generators are vertex masks: (I : t_v) is generated by
    the edges with v removed, an intersection is a `meet`, and a generator
    lies outside I exactly when its support is stable.
    """
    if p.ambient_size != c.vertex_count:
        raise AmbientMismatchError("prime over the wrong ambient")
    if p.variables.mask not in set(c.minimal_cover_masks()):
        raise ValueError("prime is not associated to the edge ideal")
    return _alpha_of_colon(c, p.variables.mask, _colon_pieces(c, p.variables.mask))


def _colon_pieces(c: Clutter, mask: int) -> dict[int, list[int]]:
    """Generators of (I : t_v) for each vertex bit v of mask."""
    return {
        b: antichain_minima(e & ~b for e in c.edge_masks) for b in iter_bits(mask)
    }


def _alpha_of_colon(c: Clutter, prime: int, pieces: dict[int, list[int]]) -> int:
    """alpha((I : p)/I) for the prime on the vertex mask `prime`."""
    colon = [0]  # the unit ideal, generated by the empty support
    for b in iter_bits(prime):
        colon = meet(colon, pieces[b])
    return min((g.bit_count() for g in colon if c.is_stable_mask(g)), default=0)


def v_number_algebraic(c: Clutter) -> int:
    """min over associated primes p of alpha((I : p)/I).

    The colon piece (I : t_v) of each vertex is built once and shared by
    every prime that contains v.
    """
    if not c.has_edges():
        raise ZeroIdealError("v-number undefined for the zero ideal")
    pieces = _colon_pieces(c, c.full_mask)
    return min(_alpha_of_colon(c, p, pieces) for p in c.minimal_cover_masks())

"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent tuples over t_1, ..., t_s; ideals always store their
unique minimal generating set, so equality of ideals is equality of values.
Associated primes of an edge ideal are read off the blocker of its clutter,
which keeps colon ideals, symbolic powers, and the algebraic v-number exact
without any generic primary decomposition.  The algebraic v-number only
meets squarefree ideals and works on the clutter's edge masks; exponent
tuples carry symbolic powers, polarization and the general ideal algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .clutters import Clutter, ZeroIdealError, _antichain_minima
from .vertexsets import AmbientMismatchError, VertexSet, iter_bits


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

    def times(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(
            self.ambient_size,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(
            self.ambient_size,
            tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)),
        )

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(
            self.ambient_size,
            tuple(min(a, b) for a, b in zip(self.exponents, other.exponents)),
        )

    def quotient_by_gcd(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other)."""
        self._check(other)
        return Monomial(
            self.ambient_size,
            tuple(max(a - b, 0) for a, b in zip(self.exponents, other.exponents)),
        )

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

    def _check(self, other: "MonomialIdeal") -> None:
        if self.ambient_size != other.ambient_size:
            raise AmbientMismatchError("ideals over different ambients")


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


# -- ideal arithmetic ---------------------------------------------------------


def colon_by_monomial(i: MonomialIdeal, f: Monomial) -> MonomialIdeal:
    """(i : f), generated by g / gcd(g, f) over the generators g."""
    if f.ambient_size != i.ambient_size:
        raise AmbientMismatchError("monomial over the wrong ambient")
    return MonomialIdeal.of(
        i.ambient_size, [g.quotient_by_gcd(f) for g in i.generators]
    )


def intersect(i1: MonomialIdeal, i2: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcms of generators."""
    i1._check(i2)
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
    gens = [
        combo[0] if len(combo) == 1 else _product(combo)
        for combo in itertools.combinations_with_replacement(i.generators, n)
    ]
    return MonomialIdeal.of(i.ambient_size, gens)


def _product(monomials: Sequence[Monomial]) -> Monomial:
    out = monomials[0]
    for m in monomials[1:]:
        out = out.times(m)
    return out


# -- associated primes and symbolic powers ------------------------------------


def associated_primes(c: Clutter) -> tuple[PrimeCover, ...]:
    """The primes of an edge ideal: one per minimal vertex cover."""
    if not c.has_edges():
        raise ZeroIdealError("the zero ideal has no associated primes")
    return tuple(
        PrimeCover(VertexSet(c.vertex_count, m)) for m in c.minimal_cover_masks()
    )


def prime_power(p: PrimeCover, n: int) -> MonomialIdeal:
    """p^n: all degree-n monomials in the variables of p."""
    if n < 1:
        raise ValueError("power must be >= 1")
    s = p.ambient_size
    gens = []
    for combo in itertools.combinations_with_replacement(p.members(), n):
        exps = [0] * s
        for v in combo:
            exps[v - 1] += 1
        gens.append(Monomial(s, tuple(exps)))
    return MonomialIdeal.of(s, gens)


def symbolic_power(c: Clutter, n: int) -> MonomialIdeal:
    """Intersection of the n-th powers of the associated primes.

    Folds the intersection over primes in increasing size and minimalizes
    after each fold to keep intermediate generator sets small.
    """
    if n < 1:
        raise ValueError("symbolic power needs n >= 1")
    primes = sorted(associated_primes(c), key=lambda p: (len(p.variables), p.members()))
    out: Optional[MonomialIdeal] = None
    for p in primes:
        piece = prime_power(p, n)
        out = piece if out is None else intersect(out, piece)
    assert out is not None
    return out


def radical(i: MonomialIdeal) -> MonomialIdeal:
    """Support-wise radical: replace each generator by its squarefree part."""
    gens = [Monomial.from_support(g.support()) for g in i.generators]
    return MonomialIdeal.of(i.ambient_size, gens)


# -- the algebraic v-number route ---------------------------------------------


def alpha_of_colon_quotient(c: Clutter, p: PrimeCover) -> int:
    """Least degree of a monomial in (I : p) outside I, or 0 if none exists.

    The minimum over monomials of the quotient is attained at a generator of
    the colon ideal: any member is a multiple of some generator, and a
    generator inside I only produces multiples inside I.  Every ideal here
    is squarefree, so generators are vertex masks: (I : t_v) is generated by
    the edges with v removed, an intersection by the pairwise unions, and a
    generator lies outside I exactly when its support is stable.
    """
    if p.ambient_size != c.vertex_count:
        raise AmbientMismatchError("prime over the wrong ambient")
    if p.variables.mask not in set(c.minimal_cover_masks()):
        raise ValueError("prime is not associated to the edge ideal")
    colon = [0]  # the unit ideal, generated by the empty support
    for b in iter_bits(p.variables.mask):
        piece = _antichain_minima([e & ~b for e in c.edge_masks])
        colon = _antichain_minima([g | h for g in colon for h in piece])
    return min((g.bit_count() for g in colon if c.is_stable_mask(g)), default=0)


def v_number_algebraic(c: Clutter) -> int:
    """min over associated primes p of alpha((I : p)/I)."""
    if not c.has_edges():
        raise ZeroIdealError("v-number undefined for the zero ideal")
    return min(alpha_of_colon_quotient(c, p) for p in associated_primes(c))


# -- polarization ---------------------------------------------------------------


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

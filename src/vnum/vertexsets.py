"""Vertex subsets of a fixed ambient {1, ..., s}, stored as bit masks.

Vertices are 1-based everywhere (matching the variable names t_1, ..., t_s
used in input files and printed output); bit i-1 of the mask encodes
membership of vertex i.  All set algebra is defined only between sets over
the same ambient size; mixing ambients raises AmbientMismatchError.

The module also holds the one algebra of mask families that the others
share: unions, antichain minima and maxima, and `meet`, the intersection of
two monomial ideals given by mask generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class AmbientMismatchError(ValueError):
    """Operands disagree on the ambient vertex count."""


def mask_of(ambient_size: int, members: Iterable[int]) -> int:
    """Build a bit mask from 1-based vertex indices, validating the range."""
    mask = 0
    for v in members:
        if not 1 <= v <= ambient_size:
            raise ValueError(f"vertex {v} outside ambient 1..{ambient_size}")
        mask |= 1 << (v - 1)
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """1-based sorted vertex indices of a mask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the single-bit submasks of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def or_all(masks: Iterable[int]) -> int:
    """The union of the masks."""
    out = 0
    for m in masks:
        out |= m
    return out


def antichain_minima(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks, each once, by increasing size."""
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(kept & ~m == 0 for kept in out):
            out.append(m)
    return out


def antichain_maxima(masks: Iterable[int]) -> tuple[int, ...]:
    """The inclusion-maximal masks, each once, in increasing order as ints.

    Complements inside the union reverse inclusion, so these are the
    complements of the minima of the complements.
    """
    masks = set(masks)
    full = or_all(masks)
    return tuple(sorted(full ^ m for m in antichain_minima(full ^ m for m in masks)))


def meet(gens: Iterable[int], piece: Sequence[int]) -> list[int]:
    """Minimal generators of the intersection of two monomial ideals on masks.

    The masks must be monomials whose lcm is | and whose divisibility is the
    subset test: squarefree masks, or the unary layers of symbolic powers.
    The intersection is then generated by the unions of generator pairs.  A
    generator that a member of piece divides lies in both ideals, and its
    unions are its own multiples, so it is kept alone.
    """
    out: list[int] = []
    for g in gens:
        if any(h & ~g == 0 for h in piece):
            out.append(g)
        else:
            out.extend(g | h for h in piece)
    return antichain_minima(out)


@dataclass(frozen=True)
class VertexSet:
    """A subset of the ambient vertices {1, ..., ambient_size}."""

    ambient_size: int
    mask: int

    def __post_init__(self) -> None:
        if self.ambient_size < 0:
            raise ValueError("ambient size must be nonnegative")
        if self.mask < 0 or self.mask >> self.ambient_size:
            raise ValueError("mask has members outside the ambient range")

    @classmethod
    def of(cls, ambient_size: int, members: Iterable[int] = ()) -> "VertexSet":
        return cls(ambient_size, mask_of(ambient_size, members))

    def members(self) -> tuple[int, ...]:
        return mask_members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __contains__(self, v: int) -> bool:
        return 1 <= v <= self.ambient_size and bool(self.mask >> (v - 1) & 1)

    def _check(self, other: "VertexSet") -> None:
        if self.ambient_size != other.ambient_size:
            raise AmbientMismatchError(
                f"ambient {self.ambient_size} vs {other.ambient_size}"
            )

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.ambient_size, self.mask | other.mask)

    def __repr__(self) -> str:
        return f"VertexSet({self.ambient_size}, {{{', '.join(map(str, self.members()))}}})"

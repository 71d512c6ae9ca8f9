"""Mask helpers: vertex subsets of {1, ..., s} as plain int bit masks.

Vertices are 1-based everywhere (matching the variable names t_1, ..., t_s
used in input files and printed output); bit i-1 of the mask encodes
membership of vertex i.  Every vertex set in the package is such a mask:
stable sets, covers, v-number witnesses, associated primes and monomial
supports alike.

The module also holds the one algebra of mask families that the others
share: unions, antichain minima and maxima, and `meet`, the intersection of
two monomial ideals given by mask generators, and the one shedding test of
a complex given by its facet masks, `sheds`.  `meet` takes both ideals by
their minimal generators, antichains of masks, and does only the
containment tests that can succeed: a generator that the other ideal
already contains stays minimal, and the unions with a single-vertex
generator need no re-minimization (the step of Berge's sequential
transversal algorithm), so only unions with wider generators are minimized
among themselves.
"""

from __future__ import annotations

from itertools import groupby
from typing import Collection, Iterable, Iterator, Sequence


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
    """The inclusion-minimal masks, each once, by increasing size.

    Two distinct masks of one size never contain each other, so each size
    class is tested only against the kept masks of smaller sizes: a family
    of one size costs no containment test.
    """
    out: list[int] = []
    for _, same_size in groupby(sorted(set(masks), key=int.bit_count), int.bit_count):
        smaller = out[:]
        out.extend(m for m in same_size if not any(k & ~m == 0 for k in smaller))
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
    Both arguments must be antichains, the minimal generators of their
    ideals.  The intersection is then generated by the unions g | h of a
    generator of each.

    A generator g that a member of piece divides lies in both ideals and is
    kept as it is.  Kept generators stay minimal: a union strictly inside
    one would hold a generator strictly inside it.  Every other g misses
    each single-vertex member b of piece.  A union g' | h' of another such
    generator inside g | b would put g' inside g, so g' = g, and h' would
    hold b, so h' = b; and no union with a wider member holds b.  So the
    unions with single vertices are minimal among the new unions, and the
    unions with wider members are minimized only among themselves.  A new
    union g | h is dropped when it holds a kept k, that is when the
    difference k & ~g, never empty, lies inside h: for h a single vertex b,
    a set lookup of b among the differences.
    """
    singles = [h for h in piece if h.bit_count() == 1]
    wide = [h for h in piece if h.bit_count() != 1]
    union = or_all(singles)
    kept: list[int] = []
    rest: list[int] = []
    for g in gens:
        if g & union or wide and any(h & ~g == 0 for h in wide):
            kept.append(g)
        else:
            rest.append(g)
    out, above = kept[:], []
    for g in rest:
        diffs = {k & ~g for k in kept}
        out.extend(g | b for b in singles if b not in diffs)
        if wide:
            above.extend(g | h for h in wide if not any(d & ~h == 0 for d in diffs))
    return out + antichain_minima(above) if above else out


def sheds(facets: Collection[int], used: int, b: int) -> bool:
    """Whether the vertex bit b sheds from the complex with these facets.

    b sheds when every facet of its deletion, the faces that avoid b, is a
    facet of the complex (Bjorner-Wachs): when every facet f through b has
    f - b inside a facet that avoids b.  A facet of f's size that does is
    f - b + w for a vertex w of `used` outside f, so a set lookup finds it,
    and that settles a pure complex; only when every lookup fails are the
    larger facets scanned, which only an impure complex has.  `used` must
    hold every vertex of the facets.  The deletion of a shedding vertex is
    then just the facets that avoid b.
    """
    for f in facets:
        if not f & b:
            continue
        rest, size = f ^ b, f.bit_count()
        if not any((rest | w) in facets for w in iter_bits(used & ~f)) and not any(
            g.bit_count() > size and rest & ~g == 0 and not g & b for g in facets
        ):
            return False
    return True

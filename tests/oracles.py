"""Brute-force reference implementations used to freeze expected values.

Everything here scans full subset or monomial spaces with no pruning and no
shared code paths with the package internals, so agreement is meaningful.
The exception is the exponent-tuple route of the algebraic v-number, which
the package replaced by edge-mask arithmetic: it is kept here on the public
monomial-ideal algebra as the reference for the mask route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from vnum.clutters import Clutter, Graph
from vnum.monomials import (
    Monomial,
    MonomialIdeal,
    PrimeCover,
    colon_by_monomial,
    edge_ideal,
    intersect,
)


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

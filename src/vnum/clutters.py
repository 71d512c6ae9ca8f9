"""Clutters and graphs with exact combinatorial invariants.

A clutter is an antichain of nonempty edges over vertices {1, ..., s}; a
graph is the 2-uniform case and nothing more: `Graph.of` is `Clutter.of`,
and the graph only adds its adjacency invariants.  Edges are bit masks in
increasing order as integers, the order of complex facets too, and so are
the minimal covers, the maximal stable sets and the blocker's edges; equal
clutters compare equal and every operation is deterministic.  All
invariants (stable sets, covers, the v-number, the domination numbers) are
computed exactly; the intended scale is s <= ~24.

No subclutter is built.  The stable sets of C - v are the stable sets of C
that avoid v, so 1-well-coveredness reads every C - v off the maximal
stable sets of C.  The one derived graph, the complement, is the other
route of cross-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .vertexsets import (
    antichain_minima,
    iter_bits,
    mask_members,
    mask_of,
    meet,
    or_all,
    sheds,
)


class ZeroIdealError(ValueError):
    """Operation undefined for a discrete clutter (its edge ideal is zero)."""


@dataclass(frozen=True)
class Clutter:
    """An antichain of nonempty edges on vertices {1, ..., vertex_count}."""

    vertex_count: int
    edge_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        full = (1 << self.vertex_count) - 1
        for m in self.edge_masks:
            if m == 0:
                raise ValueError("empty edge not allowed")
            if m & ~full:
                raise ValueError("edge has vertices outside the ambient range")
        for a, b in zip(self.edge_masks, self.edge_masks[1:]):
            if a == b:
                raise ValueError(f"repeated edge {mask_members(a)}")
            if a > b:
                raise ValueError("edges not in increasing order; use Clutter.of")
        minimal = antichain_minima(self.edge_masks)
        if len(minimal) < len(self.edge_masks):
            big = min(set(self.edge_masks).difference(minimal))
            small = next(m for m in minimal if m & ~big == 0)
            raise ValueError(
                f"not an antichain: edge {mask_members(small)} is contained "
                f"in edge {mask_members(big)}"
            )

    @classmethod
    def of(cls, vertex_count: int, edges: Iterable[Iterable[int]]) -> "Clutter":
        """The clutter, or for `Graph.of` the graph, with the given edges.

        Each edge is read as the set of its vertices, so a vertex repeated
        inside an edge and an edge listed twice both count once.  Input
        documents do not come through here: `InputDocument.to_clutter`
        calls the constructor itself, which rejects a repeated edge.
        """
        masks = {mask_of(vertex_count, e) for e in edges}
        return cls(vertex_count, tuple(sorted(masks)))

    # -- basic views ------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.vertex_count) - 1

    def edge_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(mask_members(m) for m in self.edge_masks)

    def has_edges(self) -> bool:
        return bool(self.edge_masks)

    def isolated_vertices(self) -> tuple[int, ...]:
        return mask_members(self.full_mask & ~or_all(self.edge_masks))

    # -- stability and covers ---------------------------------------------

    def is_stable_mask(self, mask: int) -> bool:
        return all(e & ~mask for e in self.edge_masks)

    def neighbor_mask(self, mask: int) -> int:
        # N(A) collects the v outside A with some edge inside A | {v}: the
        # edges that leave exactly one vertex outside A.  For stable A these
        # are all the edges inside A | {v}, so A | {v} is stable exactly
        # when v is not in N(A).
        out = 0
        for e in self.edge_masks:
            rest = e & ~mask
            if rest and rest & (rest - 1) == 0:
                out |= rest
        return out

    def is_cover_mask(self, mask: int) -> bool:
        return all(e & mask for e in self.edge_masks)

    # -- enumeration ------------------------------------------------------

    def stable_masks(self) -> Iterator[int]:
        """All stable sets as masks, by increasing size then lexicographically.

        Stable sets are closed under taking subsets, so layer k + 1 grows
        from layer k by adding one vertex above the largest member; taking
        the vertices in increasing order keeps each layer lexicographic.
        A stable A grows by exactly the vertices outside N(A), so each
        stable set costs one pass over the edges.
        """
        layer = [0]
        while layer:
            yield from layer
            layer = [
                mask | 1 << i
                for mask in layer
                for nbrs in [self.neighbor_mask(mask)]
                for i in range(mask.bit_length(), self.vertex_count)
                if not nbrs >> i & 1
            ]

    def minimal_cover_masks(self) -> tuple[int, ...]:
        return _minimal_transversals(self.edge_masks)

    def maximal_stable_masks(self) -> tuple[int, ...]:
        # Maximal stable sets are exactly complements of minimal covers, and
        # taking complements reverses the increasing order.
        full = self.full_mask
        return tuple(full ^ c for c in reversed(self.minimal_cover_masks()))

    def family_a_masks(self) -> Iterator[int]:
        """Stable sets with a minimal-cover neighbor set, in stable_masks order.

        For stable A, N(A) is a minimal cover as soon as it is a cover: each
        v in N(A) has a private edge, one inside A | {v}, whose other
        vertices lie in A and so outside N(A), and dropping v uncovers it.
        """
        if not self.has_edges():
            raise ZeroIdealError("family undefined for the zero ideal")
        for mask in self.stable_masks():
            if self.is_cover_mask(self.neighbor_mask(mask)):
                yield mask

    # -- numeric invariants -------------------------------------------------

    def independence_number(self) -> int:
        return max(m.bit_count() for m in self.maximal_stable_masks())

    def cover_number(self) -> int:
        return min(m.bit_count() for m in self.minimal_cover_masks())

    def independent_domination(self) -> int:
        return min(m.bit_count() for m in self.maximal_stable_masks())

    def is_well_covered(self) -> bool:
        sizes = {m.bit_count() for m in self.maximal_stable_masks()}
        return len(sizes) == 1

    def is_one_well_covered(self) -> bool:
        """Well-covered, and so is C - v for every vertex v.

        The stable sets of C - v are the stable sets of C that avoid v, so
        its maximal ones are the facets of the deletion of v from Delta(C).
        When v lies in no edge every facet holds v, and all F - v have one
        size.  Otherwise some facet avoids v (it grows from e - v for an
        edge e through v) and has size beta0, so C - v is well-covered
        exactly when v sheds from Delta(C): every facet of the deletion is
        a facet of Delta(C).
        """
        if not self.is_well_covered():
            return False
        facets = set(self.maximal_stable_masks())
        full = self.full_mask
        return all(sheds(facets, full, b) for b in iter_bits(or_all(self.edge_masks)))

    def v_number(self) -> int:
        return self.v_number_with_witness()[0]

    def v_number_with_witness(self) -> tuple[int, int]:
        """Least size of a stable set with minimal-cover neighbor set.

        Searches stable sets by increasing size, so the witness mask is the
        lexicographically smallest minimizer.  The empty set qualifies
        exactly when every edge is a singleton (prime edge ideal, v = 0).
        """
        if not self.has_edges():
            raise ZeroIdealError("v-number undefined for the zero ideal")
        for mask in self.family_a_masks():
            return mask.bit_count(), mask
        raise AssertionError("unreachable: maximal stable sets always qualify")

    # -- derived clutters ---------------------------------------------------

    def blocker(self) -> "Clutter":
        """The clutter of minimal vertex covers, on the same vertex set."""
        if not self.has_edges():
            raise ZeroIdealError("blocker undefined for the zero ideal")
        return Clutter(self.vertex_count, self.minimal_cover_masks())


# -- hypergraph transversals -------------------------------------------------


@lru_cache(maxsize=None)
def _minimal_transversals(edge_masks: tuple[int, ...]) -> tuple[int, ...]:
    """All minimal vertex covers, by Berge's sequential transversal algorithm.

    The covers generate the intersection over edges e of the primes
    (t_v : v in e), so starting from the unit ideal this meets one prime at
    a time, smallest edges first.  Each step is Berge's: the covers that
    meet e stay, and each other cover gains one vertex of e, kept unless
    it then holds a cover that stayed; `meet` needs no re-minimization
    for single-vertex pieces.
    """
    partial = [0]
    for e in sorted(edge_masks, key=lambda m: (m.bit_count(), m)):
        partial = meet(partial, list(iter_bits(e)))
    return tuple(sorted(partial))


# -- graphs -------------------------------------------------------------------


@dataclass(frozen=True)
class Graph(Clutter):
    """A simple graph: the clutter whose edges all have two vertices."""

    def __post_init__(self) -> None:
        for m in self.edge_masks:
            if m.bit_count() != 2:
                raise ValueError(
                    f"graph edge must have exactly 2 vertices, got {mask_members(m)}"
                )
        super().__post_init__()

    # -- adjacency ----------------------------------------------------------

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor mask per vertex, indexed 0..s-1 for vertex 1..s."""
        adj = [0] * self.vertex_count
        for m in self.edge_masks:
            a, b = mask_members(m)
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        return tuple(adj)

    def domination_number(self) -> int:
        """Least size of a set dominating every vertex outside it.

        Iterative deepening over k = 0, 1, ...: each level asks whether k
        closed neighbourhoods cover the vertices (`_dominated_by`).
        """
        closed = [a | 1 << i for i, a in enumerate(self.adjacency_masks())]
        k = 0
        while not _dominated_by(closed, self.full_mask, k):
            k += 1
        return k

    def matching_number(self) -> int:
        """Largest number of pairwise disjoint edges."""
        return _matching_number(self.adjacency_masks(), self.full_mask, {})

    def induced_matching_number(self) -> int:
        """Largest number of edges no two of which meet or are joined by an edge."""
        return _induced_matching_number(self.adjacency_masks(), self.full_mask, {})

    # -- derived graphs ------------------------------------------------------

    def complement(self) -> "Graph":
        s = self.vertex_count
        present = set(self.edge_masks)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(1, s + 1), 2)
            if mask_of(s, (u, v)) not in present
        ]
        return Graph.of(s, edges)

    # -- structure predicates -------------------------------------------------

    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        return _bfs(self.adjacency_masks(), 0)[0] == self.full_mask

    def diameter(self) -> float:
        """Greatest BFS distance between vertex pairs; inf when disconnected."""
        adj = self.adjacency_masks()
        best = 0
        for src in range(self.vertex_count):
            seen, dist = _bfs(adj, src)
            if seen != self.full_mask:
                return float("inf")
            best = max(best, dist)
        return best

    def is_chordal(self) -> bool:
        """Perfect-elimination-ordering search by repeated simplicial removal."""
        adj = list(self.adjacency_masks())
        alive = self.full_mask
        for _ in range(self.vertex_count):
            found = None
            for b in iter_bits(alive):
                i = b.bit_length() - 1
                nbrs = adj[i] & alive
                if all(
                    adj[x.bit_length() - 1] & (nbrs ^ x) == (nbrs ^ x)
                    for x in iter_bits(nbrs)
                ):
                    found = b
                    break
            if found is None:
                return False
            alive ^= found
        return True

    def is_triangle_free(self) -> bool:
        adj = self.adjacency_masks()
        for m in self.edge_masks:
            a, b = mask_members(m)
            if adj[a - 1] & adj[b - 1]:
                return False
        return True

    def is_maximal_triangle_free(self) -> bool:
        """Triangle-free, and joining any non-adjacent pair makes a triangle."""
        if not self.is_triangle_free():
            return False
        adj = self.adjacency_masks()
        for u, v in itertools.combinations(range(self.vertex_count), 2):
            if adj[u] >> v & 1:
                continue
            if not adj[u] & adj[v]:
                return False
        return True


# The two matching recursions are module functions, not closures over
# themselves, so that no reference cycle holds a memo once a call returns.


def _matching_number(adj: Sequence[int], alive: int, memo: dict[int, int]) -> int:
    """Largest matching of the subgraph induced on `alive`, memoized in `memo`.

    Some maximum matching covers the lowest vertex when it has a neighbour:
    swap in that edge for the one at the neighbour.
    """
    if not alive:
        return 0
    if alive not in memo:
        v = alive & -alive
        rest = alive ^ v
        nbrs = adj[v.bit_length() - 1] & rest
        best = 0 if nbrs else _matching_number(adj, rest, memo)
        for u in iter_bits(nbrs):
            best = max(best, 1 + _matching_number(adj, rest ^ u, memo))
            if best == alive.bit_count() // 2:
                break  # perfect or near-perfect: nothing can beat it
        memo[alive] = best
    return memo[alive]


def _induced_matching_number(
    adj: Sequence[int], alive: int, memo: dict[int, int]
) -> int:
    """Largest induced matching of the subgraph induced on `alive`.

    The lowest vertex is either left out or matched to a neighbour u, which
    removes every vertex adjacent to v or u.
    """
    if not alive:
        return 0
    if alive not in memo:
        v = alive & -alive
        best = _induced_matching_number(adj, alive ^ v, memo)
        for u in iter_bits(adj[v.bit_length() - 1] & alive):
            near = v | u | adj[v.bit_length() - 1] | adj[u.bit_length() - 1]
            best = max(best, 1 + _induced_matching_number(adj, alive & ~near, memo))
        memo[alive] = best
    return memo[alive]


def _dominated_by(closed: Sequence[int], left: int, k: int) -> bool:
    """Whether at most k of the closed neighbourhoods cover the mask `left`.

    Some chosen vertex dominates the lowest vertex u of `left`, so the
    search branches over the vertices of N[u].
    """
    if not left:
        return True
    if not k:
        return False
    u = left & -left
    return any(
        _dominated_by(closed, left & ~closed[w.bit_length() - 1], k - 1)
        for w in iter_bits(closed[u.bit_length() - 1])
    )


def _bfs(adj: Sequence[int], src: int) -> tuple[int, int]:
    """Breadth-first search from vertex index src over adjacency masks.

    Returns the mask of vertices reached and the greatest distance reached.
    """
    seen = frontier = 1 << src
    dist = 0
    while True:
        nxt = 0
        for b in iter_bits(frontier):
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & ~seen
        if not frontier:
            return seen, dist
        seen |= frontier
        dist += 1

"""Stanley-Reisner complexes and exact homological invariants.

Complexes are stored by facets (an antichain of bit masks over a fixed
ambient, in increasing order of the masks as integers); the void complex
has no facets and is distinct from {emptyset}, which has the single facet 0.
Reduced homology ranks are computed exactly over the rationals
(fraction-free integer elimination) and over GF(2) (packed-word
elimination), mod-2 first.  On top of those sit the induced-subcomplex
regularity scan, the link-vanishing Cohen-Macaulay test, and vertex
decomposability.  The Cohen-Macaulay test runs one memoized recursion for
both fields: it finds the level (not over Q, over Q only, over Q and GF(2))
from the mod-2 ranks of each link, with rational elimination only where
mod-2 homology survives below the link's dimension.  Both recursions work
on plain facet tuples, take links and deletions through `_link` and
`_deletion`, and are memoized by those tuples, so the vertex-decomposability
search reuses the Cohen-Macaulay memo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .clutters import Clutter, Graph
from .monomials import MonomialIdeal, clutter_of_squarefree_ideal
from .vertexsets import VertexSet, iter_bits, mask_members, mask_of


class Field(enum.Enum):
    """Coefficient field for homology: the rationals or the 2-element field."""

    Q = "Q"
    F2 = "F2"


def _antichain_maxima(masks: Iterable[int]) -> tuple[int, ...]:
    uniq = sorted(set(masks), key=int.bit_count, reverse=True)
    out: list[int] = []
    for m in uniq:
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return tuple(sorted(out))


def _or_all(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _link(facets: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Facets of the link of the face `mask`: facets containing it, minus it."""
    return _antichain_maxima(f & ~mask for f in facets if mask & ~f == 0)


def _deletion(facets: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Facets of the complex with the vertices of `mask` deleted."""
    return _antichain_maxima(f & ~mask for f in facets)


def _face_masks(facets: Iterable[int]) -> tuple[int, ...]:
    seen: set[int] = set()
    for f in facets:
        sub = f
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return tuple(sorted(seen))


def _faces_by_dim(facets: Iterable[int]) -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {}
    for m in _face_masks(facets):
        out.setdefault(m.bit_count() - 1, []).append(m)
    return {d: tuple(v) for d, v in out.items()}


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex given by its facets.

    Ambient vertices that appear in no facet are not faces; independence
    complexes of clutters with singleton edges produce such vertices.
    """

    ambient_size: int
    facets: tuple[int, ...]

    def __post_init__(self) -> None:
        full = (1 << self.ambient_size) - 1
        for f in self.facets:
            if f & ~full:
                raise ValueError("facet outside the ambient range")
        if tuple(_antichain_maxima(self.facets)) != self.facets:
            raise ValueError("facets not an antichain in canonical order")

    @classmethod
    def of(cls, ambient_size: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        masks = [mask_of(ambient_size, f) for f in faces]
        return cls(ambient_size, _antichain_maxima(masks))

    @classmethod
    def void(cls, ambient_size: int) -> "SimplicialComplex":
        return cls(ambient_size, ())

    @classmethod
    def irrelevant(cls, ambient_size: int) -> "SimplicialComplex":
        return cls(ambient_size, (0,))

    def is_void(self) -> bool:
        return not self.facets

    def dim(self) -> int:
        """Max facet size minus one; -1 for {emptyset}. Undefined when void."""
        if self.is_void():
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def is_pure(self) -> bool:
        if self.is_void():
            raise ValueError("the void complex has no dimension")
        return len({f.bit_count() for f in self.facets}) == 1

    def vertex_mask(self) -> int:
        return _or_all(self.facets)

    def vertices(self) -> tuple[int, ...]:
        return mask_members(self.vertex_mask())

    def has_face(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.facets)

    def face_masks(self) -> tuple[int, ...]:
        """Every face, including the empty face of a nonvoid complex."""
        return _face_masks(self.facets)

    def faces_by_dim(self) -> dict[int, tuple[int, ...]]:
        return _faces_by_dim(self.facets)

    # -- constructions ------------------------------------------------------

    def induced(self, a: VertexSet) -> "SimplicialComplex":
        if a.ambient_size != self.ambient_size:
            raise ValueError("ambient mismatch for induced subcomplex")
        return self.induced_mask(a.mask)

    def induced_mask(self, amask: int) -> "SimplicialComplex":
        if self.is_void():
            return self
        return SimplicialComplex(
            self.ambient_size, _antichain_maxima(f & amask for f in self.facets)
        )

    def link(self, face: VertexSet) -> "SimplicialComplex":
        if face.ambient_size != self.ambient_size:
            raise ValueError("ambient mismatch for link")
        return self.link_mask(face.mask)

    def link_mask(self, fmask: int) -> "SimplicialComplex":
        """lk(F) = {H : H disjoint from F, H union F a face}."""
        if not self.has_face(fmask):
            raise ValueError("link of a non-face")
        return SimplicialComplex(self.ambient_size, _link(self.facets, fmask))

    def deletion(self, v: int) -> "SimplicialComplex":
        if not 1 <= v <= self.ambient_size:
            raise ValueError("vertex outside ambient")
        return SimplicialComplex(
            self.ambient_size, _deletion(self.facets, 1 << (v - 1))
        )


def independence_complex(c: Clutter) -> SimplicialComplex:
    """Faces are the stable sets; facets the maximal stable sets."""
    return SimplicialComplex(c.vertex_count, tuple(sorted(c.maximal_stable_masks())))


def stanley_reisner_complex(i: MonomialIdeal) -> SimplicialComplex:
    """The complex whose non-faces generate the given squarefree ideal.

    Variables appearing as degree-one generators become non-faces, so the
    resulting complex may omit some ambient vertices.
    """
    if i.is_unit():
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    if not i.is_squarefree():
        raise ValueError("Stanley-Reisner complexes need squarefree ideals")
    if i.is_zero():
        return SimplicialComplex(i.ambient_size, ((1 << i.ambient_size) - 1,))
    return independence_complex(clutter_of_squarefree_ideal(i))


# -- exact rank computations ----------------------------------------------------


def rank_int_matrix(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
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


def rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2); each row is a packed bit word."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            other = pivots.get(low)
            if other is None:
                pivots[low] = row
                rank += 1
                break
            row ^= other
    return rank


def _boundary_rows_int(
    lower: Sequence[int], upper: Sequence[int]
) -> list[list[int]]:
    """Signed boundary matrix rows (one per lower face) over the integers."""
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        verts = mask_members(f)
        for pos, v in enumerate(verts):
            sub = f ^ (1 << (v - 1))
            rows[index[sub]][j] = -1 if pos % 2 else 1
    return rows


def _boundary_rows_gf2(lower: Sequence[int], upper: Sequence[int]) -> list[int]:
    index = {f: i for i, f in enumerate(lower)}
    rows = [0] * len(lower)
    for j, f in enumerate(upper):
        for b in iter_bits(f):
            rows[index[f ^ b]] |= 1 << j
    return rows


@dataclass(frozen=True)
class HomologyProfile:
    """Ranks of reduced homology, indexed from dimension -1 upward."""

    ranks: tuple[int, ...]

    def rank(self, i: int) -> int:
        if i < -1 or i + 1 >= len(self.ranks):
            return 0
        return self.ranks[i + 1]

    def top_nonzero(self) -> Optional[int]:
        """Largest dimension with nonzero rank, or None if all vanish."""
        best = None
        for i in range(-1, len(self.ranks) - 1):
            if self.rank(i):
                best = i
        return best


def _component_count(vertices: Sequence[int], edges: Sequence[int]) -> int:
    idx = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        lo = e & -e
        hi = e ^ lo
        ra, rb = find(idx[lo]), find(idx[hi])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(vertices))})


def _combinatorial_boundary_ranks(by_dim: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """Boundary ranks that hold over every field: the empty-face map has
    rank 1 when vertices exist, and the edge incidence matrix of a graph
    with n vertices and c components has rank n - c."""
    top = max(by_dim)
    verts = by_dim.get(0, ())
    edges = by_dim.get(1, ())
    ranks = {d: 0 for d in range(-1, top + 2)}
    ranks[0] = 1 if verts else 0
    if edges:
        ranks[1] = len(verts) - _component_count(verts, edges)
    return ranks


def _mod2_homology(
    by_dim: dict[int, tuple[int, ...]]
) -> tuple[dict[int, int], list[int]]:
    """Boundary ranks over GF(2) and mod-2 reduced homology ranks.

    Rank d is the rank of the boundary map from d-faces; homology is listed
    from dimension -1 up to the top dimension.
    """
    top = max(by_dim)
    rank2 = _combinatorial_boundary_ranks(by_dim)
    for d in range(2, top + 1):
        rank2[d] = rank_gf2(_boundary_rows_gf2(by_dim[d - 1], by_dim[d]))
    h2 = [
        len(by_dim.get(d, ())) - rank2[d] - rank2[d + 1] for d in range(-1, top + 1)
    ]
    return rank2, h2


def _rational_homology(
    by_dim: dict[int, tuple[int, ...]],
    rank2: dict[int, int],
    h2: list[int],
    below: int,
) -> list[int]:
    """Rational reduced homology ranks in dimensions -1 .. below - 1.

    A rational rank is at least the rank mod 2, so mod-2 homology vanishing
    in a dimension forces rational vanishing there, and fraction-free
    elimination only runs on the boundary maps around dimensions whose
    mod-2 homology survives.
    """
    top = max(by_dim)
    rankq: dict[int, int] = dict(rank2)
    exact: set[int] = {-1, 0, 1, top + 1}
    ranks = []
    for d in range(-1, below):
        if h2[d + 1] == 0:
            ranks.append(0)
            continue
        for b in (d, d + 1):
            if b not in exact:
                rankq[b] = rank_int_matrix(
                    _boundary_rows_int(by_dim[b - 1], by_dim[b])
                )
                exact.add(b)
        ranks.append(len(by_dim.get(d, ())) - rankq[d] - rankq[d + 1])
    return ranks


def _homology_profile(by_dim: dict[int, tuple[int, ...]], field: Field) -> HomologyProfile:
    """Exact reduced homology ranks from a face table; mod-2 ranks come first."""
    if not by_dim:
        return HomologyProfile(())
    rank2, h2 = _mod2_homology(by_dim)
    if field is Field.F2:
        return HomologyProfile(tuple(h2))
    return HomologyProfile(
        tuple(_rational_homology(by_dim, rank2, h2, max(by_dim) + 1))
    )


def reduced_homology_ranks(
    complex_: SimplicialComplex, field: Field
) -> HomologyProfile:
    """Exact reduced homology ranks of a complex over the chosen field."""
    if complex_.is_void():
        return HomologyProfile(())
    return _homology_profile(complex_.faces_by_dim(), field)


def euler_characteristic_reduced(complex_: SimplicialComplex) -> int:
    """Alternating sum over faces, the empty face included with sign -1."""
    if complex_.is_void():
        return 0
    out = 0
    for d, faces in complex_.faces_by_dim().items():
        out += len(faces) if d % 2 == 0 else -len(faces)
    return out


# -- regularity via induced subcomplexes -----------------------------------------


def regularity(c: Clutter, field: Field) -> int:
    """Largest d with nonvanishing (d-1)-homology of an induced subcomplex.

    Scans every vertex subset A; a subset is skipped when some member lies
    in no edge inside A, because the induced complex is then a cone with
    that member as apex and all its reduced homology vanishes.
    """
    s = c.vertex_count
    stable = tuple(c.stable_masks())
    best = 0
    for amask in range(1 << s):
        covered = 0
        for e in c.edge_masks:
            if e & ~amask == 0:
                covered |= e
        if covered != amask:
            continue
        faces = [f for f in stable if f & ~amask == 0]
        by_dim: dict[int, list[int]] = {}
        for f in faces:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
        profile = _homology_profile(
            {d: tuple(v) for d, v in by_dim.items()}, field
        )
        top = profile.top_nonzero()
        if top is not None:
            best = max(best, top + 1)
    return best


def regularity_of_ideal(i: MonomialIdeal, field: Field) -> int:
    """Regularity of the quotient by a squarefree ideal."""
    if i.is_zero():
        return 0
    return regularity(clutter_of_squarefree_ideal(i), field)


# -- Cohen-Macaulayness -----------------------------------------------------------


# A complex that is Cohen-Macaulay over GF(2) is Cohen-Macaulay over Q, so
# one recursion answers both fields with a level: 0 when the complex is not
# Cohen-Macaulay over Q, 1 when it is over Q only, 2 when it is over both.
_CM_LEVEL = {Field.Q: 1, Field.F2: 2}


def is_cohen_macaulay(complex_: SimplicialComplex, field: Field) -> bool:
    """Link-vanishing Cohen-Macaulay test over the given field.

    Equivalent to requiring, for every face F including the empty one, that
    reduced homology of the link of F vanishes below the link's dimension.
    Runs recursively: purity, then homology of the whole complex, then the
    links of vertices (links of larger faces are links of vertices inside
    links).  One memoized recursion, keyed by facet set, serves both fields.
    """
    if complex_.is_void():
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    return _cm_recursive(complex_.facets) >= _CM_LEVEL[field]


@lru_cache(maxsize=None)
def _cm_recursive(facets: tuple[int, ...]) -> int:
    """Cohen-Macaulay level of a nonvoid complex; stops once Q fails."""
    if len(facets) == 1:
        return 2
    common = facets[0]
    for f in facets:
        common &= f
    if common:
        # The complex is a cone over the faces avoiding the common vertices,
        # and coning preserves Cohen-Macaulayness in both directions.
        return _cm_recursive(tuple(sorted(f & ~common for f in facets)))
    sizes = {f.bit_count() for f in facets}
    if len(sizes) > 1:
        return 0
    dim = next(iter(sizes)) - 1
    by_dim = _faces_by_dim(facets)
    rank2, h2 = _mod2_homology(by_dim)
    if not any(h2[: dim + 1]):
        level = 2
    elif any(_rational_homology(by_dim, rank2, h2, dim)):
        return 0
    else:
        level = 1
    for b in iter_bits(_or_all(facets)):
        level = min(level, _cm_recursive(_link(facets, b)))
        if not level:
            return 0
    return level


# -- vertex decomposability ---------------------------------------------------------


def is_vertex_decomposable(complex_: SimplicialComplex) -> bool:
    """Shedding-vertex recursion, memoized on facet tuples.

    Base cases: the void complex and simplices are decomposable.  A vertex
    v sheds when every facet of the deletion of v is a facet of the complex
    (no facet of the deletion is a face of the link).  A pure complex that
    is not Cohen-Macaulay over GF(2) cannot be decomposable (decomposable
    implies shellable implies Cohen-Macaulay over every field), which prunes
    the expensive negative searches; that test shares its memo with
    `is_cohen_macaulay`, since both are keyed by the same facet tuples.
    """
    return _vd(complex_.facets)


@lru_cache(maxsize=None)
def _vd(facets: tuple[int, ...]) -> bool:
    if len(facets) <= 1:
        return True
    sizes = {f.bit_count() for f in facets}
    if len(sizes) == 1 and _cm_recursive(facets) < 2:
        return False
    for b in iter_bits(_or_all(facets)):
        del_facets = _deletion(facets, b)
        if any(d not in facets for d in del_facets):
            continue
        if _vd(_link(facets, b)) and _vd(del_facets):
            return True
    return False


# -- one-dimensional complexes -----------------------------------------------------


def one_dim_diameter(complex_: SimplicialComplex) -> float:
    """Graph diameter of a pure 1-dimensional complex; inf when disconnected."""
    if complex_.is_void() or complex_.dim() != 1 or not complex_.is_pure():
        raise ValueError("diameter needs a pure 1-dimensional complex")
    verts = complex_.vertices()
    label = {v: i + 1 for i, v in enumerate(verts)}
    edges = [[label[v] for v in mask_members(f)] for f in complex_.facets]
    return Graph.of(len(verts), edges).diameter()

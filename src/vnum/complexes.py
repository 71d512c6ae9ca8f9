"""Simplicial complexes and exact homological invariants.

Complexes are stored by facets (an antichain of bit masks over a fixed
ambient, in increasing order of the masks as integers); the void complex
has no facets and is distinct from {emptyset}, which has the single facet 0.

All homology comes from one lazy chain complex, `_Chains(facets)`: the
first Betti number asked for in dimension d walks from the top facets
down to d, builds every face's GF(2) boundary column (packed words), and
so discovers and indexes the faces one dimension lower; lower-dimensional
facets join their level on the way down.  Nothing below dimension d - 1
is built until a caller asks for it, so a caller that reads from the top
down and stops at the first answer builds only the levels above it.
Rational ranks reduce the signed boundary columns of the same face lists
as sparse integer columns, each on its largest row, as `rank_gf2` reduces
packed columns on their top bit; they run only where mod-2 homology
survives: a rational rank is at least the rank mod 2, so rational
homology vanishes wherever mod-2 homology does.

Two callers read the chains: `regularities`, one Hochster scan of induced
subcomplexes for Q and GF(2) at once, which prunes subsets that cannot
beat the best found so far, asks only for dimensions at or above it, and
stops once the dimension or, for flag complexes, the subset size leaves
no field room to improve; and the Cohen-Macaulay test.  That test takes
no field: one memoized recursion finds the level (not over Q, over Q
only, over Q and GF(2)) from the mod-2 ranks of each link, and
`cohen_macaulay_fields` hands it out as the set of fields over which the
complex is Cohen-Macaulay, so one lookup answers every field.
Simplices and impure complexes are settled without a lookup, and cone
points are stripped.  Before any homology, the recursion tries to glue at
each shedding vertex b (`vertexsets.sheds`, the one shedding test, which
vertex decomposability and 1-well-coveredness share): a link and a
deletion that are both Cohen-Macaulay over both fields make the complex so
(the depth lemma).  A link that is not Cohen-Macaulay over Q settles the
complex as not Cohen-Macaulay at once, since every link of a
Cohen-Macaulay complex is Cohen-Macaulay (Reisner); a link that is over
Q only ends the attempts, and only then, or when no shedding vertex
proves the complex, does the link-vanishing test run, on the homology of
the whole complex and then on each vertex link.
Neither the level nor vertex decomposability depends on labels,
so one canonical form, `_relabel`, keys both memos: it renumbers the used
vertices to the low bits by an isomorphism-invariant signature, so that
most isomorphic links share one entry.  Vertex decomposability recurses
through the link and the deletion of each shedding vertex and prunes with
the Cohen-Macaulay memo, which then mostly answers from complexes that
recursion has seen.

Only the scan prunes with strong collapses (Barmak-Minian): a vertex whose
link is a cone can be deleted without changing the homotopy type, so
reduced homology stays the same over every field.  The scan skips a subset
A of any clutter when, for some u != w in A, the link of w in Delta_A is a
cone with apex u (for a graph, N_A(u) inside N_A(w): Engstrom's fold
lemma), tested on edge masks before any face is built.  The reference
paths without these prunes live with the tests, as oracles.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .clutters import Clutter
from .vertexsets import antichain_maxima, iter_bits, mask_of, or_all, sheds


class Field(enum.Enum):
    """Coefficient field for homology: the rationals or the 2-element field."""

    Q = "Q"
    F2 = "F2"


def _link(facets: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Facets of the link of the face `mask`: facets containing it, minus it.

    These are already an antichain in increasing order: removing the same
    vertices from facets that all contain them keeps both inclusion and order.
    """
    return tuple(f & ~mask for f in facets if mask & ~f == 0)


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
        if antichain_maxima(self.facets) != self.facets:
            raise ValueError("facets not an antichain in canonical order")

    @classmethod
    def of(cls, ambient_size: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        masks = [mask_of(ambient_size, f) for f in faces]
        return cls(ambient_size, antichain_maxima(masks))

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

    def face_masks(self) -> tuple[int, ...]:
        """Every face, including the empty face of a nonvoid complex."""
        return _face_masks(self.facets)

    def deletion(self, mask: int) -> "SimplicialComplex":
        """The faces that avoid `mask`: the restriction to the other vertices."""
        kept = antichain_maxima(f & ~mask for f in self.facets)
        return SimplicialComplex(self.ambient_size, kept)


def independence_complex(c: Clutter) -> SimplicialComplex:
    """Faces are the stable sets; facets the maximal stable sets."""
    return SimplicialComplex(c.vertex_count, c.maximal_stable_masks())


# -- exact rank computations ----------------------------------------------------


def rank_int_matrix(columns: Iterable[dict[int, int]]) -> int:
    """Rank over Q of sparse integer columns, each {row: nonzero entry}.

    The reduction of `rank_gf2` over the integers: a column whose largest
    row holds a pivot becomes a * col - c * pivot, where a is the pivot's
    entry there and c the column's, which clears that row; zero entries are
    dropped and the column is divided by the gcd of its entries.  Each step
    keeps a nonzero multiple of the column plus a multiple of an earlier
    pivot, and pivots with distinct largest rows are independent, so the
    rank is the number of pivots.  The input columns are not changed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            top = max(col)
            other = pivots.get(top)
            if other is None:
                pivots[top] = col
                break
            a, c = other[top], col[top]
            merged = {r: a * x for r, x in col.items()}
            for r, y in other.items():
                merged[r] = merged.get(r, 0) - c * y
            del merged[top]  # a * c - c * a, so the largest row falls
            g = math.gcd(*merged.values()) or 1
            col = {r: x // g for r, x in merged.items() if x}
    return len(pivots)


def rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2); each row is a packed bit word, pivoted on its top bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            other = pivots.get(top)
            if other is None:
                pivots[top] = row
                break
            row ^= other
    return len(pivots)


class _Chains:
    """Face levels and GF(2) boundary ranks of a nonvoid complex, built on demand.

    `facets` may be any faces that generate the complex, without repeats;
    the constructor only groups them by dimension.  Asking for a Betti
    number in dimension d builds the levels from the top down to d - 1:
    level e starts with the generators of dimension e, and the boundary
    column of each e-face indexes the (e-1)-faces it meets, which discovers
    the rest of level e - 1.  Then `levels[e]` lists the e-faces for
    d - 1 <= e <= top, and `rank2[e]` is the GF(2) rank of the boundary map
    out of the e-faces for max(d, 0) <= e <= top + 1.  Nothing below is
    built until a lower dimension is asked for.  Generators in increasing
    order keep the boundary columns cheap to reduce; the hash order of a
    set can cost several times as much.  Rational ranks are reduced on
    demand and kept.
    """

    __slots__ = ("top", "levels", "rank2", "_gens", "_rankq")

    def __init__(self, facets: Iterable[int]):
        gens: dict[int, list[int]] = {}
        for f in facets:
            gens.setdefault(f.bit_count() - 1, []).append(f)
        self.top = max(gens)
        self.levels = {self.top: gens[self.top]}
        self.rank2 = {self.top + 1: 0}
        self._gens = gens
        self._rankq: dict[int, int] = {}

    def betti2(self, d: int) -> int:
        """Rank of mod-2 reduced homology in dimension d."""
        for e in range(min(self.rank2) - 1, max(d, 0) - 1, -1):
            index = {f: i for i, f in enumerate(self._gens.get(e - 1, ()))}
            cols = []
            for f in self.levels[e]:
                col = 0
                rest = f
                while rest:
                    b = rest & -rest
                    rest ^= b
                    col |= 1 << index.setdefault(f ^ b, len(index))
                cols.append(col)
            self.levels[e - 1] = list(index)
            self.rank2[e] = rank_gf2(cols)
        return len(self.levels[d]) - self.rank2.get(d, 0) - self.rank2[d + 1]

    def betti_q(self, d: int) -> int:
        """Rank of rational reduced homology in dimension d."""
        if not self.betti2(d):
            return 0
        return len(self.levels[d]) - self._rank_q(d) - self._rank_q(d + 1)

    def _rank_q(self, d: int) -> int:
        # The rank of the boundary out of vertices (1 when they exist) or
        # out of edges (vertices minus components), and the zero map above
        # the top, are the same over every field; so is a rank mod 2 that
        # is already full, since the rational rank is at least that.
        r = self.rank2.get(d, 0)
        if d <= 1 or d > self.top:
            return r
        lower, upper = self.levels[d - 1], self.levels[d]
        if r == min(len(lower), len(upper)):
            return r
        if d not in self._rankq:
            # the boundary columns of the d-faces; removing the k-th vertex,
            # counted from 0 upwards, has the sign (-1)^k
            index = {f: i for i, f in enumerate(lower)}
            self._rankq[d] = rank_int_matrix(
                {index[f ^ b]: -1 if k % 2 else 1 for k, b in enumerate(iter_bits(f))}
                for f in upper
            )
        return self._rankq[d]


# -- regularity via induced subcomplexes -----------------------------------------


def _folds(edges: Sequence[int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """The strong-collapse test of a clutter as (mask, pair, wide) checks.

    For u != w in A, the link of w in Delta_A is a cone with apex u exactly
    when every edge e inside A through u has some edge inside (e - u) | w.
    Such an edge holds w, since an edge inside e - u would lie inside e, so
    whether e passes does not depend on A and only the edges through w need
    testing.  Each ordered pair gets one check, with pair = u | w.  A failing
    e whose rest e - u - w is empty lies inside every A and drops the pair; a
    rest of one vertex joins mask, and a wider rest joins wide.  The check
    fires on A when A & mask == pair and no member of wide lies inside A.
    On a graph, wide is empty and mask adds the neighbours of u that are not
    neighbours of w.  Checks with smaller masks come first: they hold for
    more subsets.

    e passes when some link member f - w, for an edge f through w, lies
    inside rest.  So each w's members are read once: an empty one (the
    edge {w}) passes every e, the one-vertex ones are tested together by
    one AND against their union, and only the wider ones one by one.
    """
    vertices = list(iter_bits(or_all(edges)))
    through = {v: [e for e in edges if e & v] for v in vertices}
    links = {}
    for w in vertices:
        members = [f ^ w for f in through[w]]
        links[w] = (
            0 in members,
            or_all(m for m in members if m.bit_count() == 1),
            [m for m in members if m.bit_count() > 1],
        )
    checks = []
    for u in vertices:
        for w in vertices:
            if w == u:
                continue
            cone, singles, wider = links[w]
            mask = u | w
            wide: tuple[int, ...] = ()
            for e in through[u]:
                rest = e & ~(u | w)
                if cone or rest & singles or any(m & ~rest == 0 for m in wider):
                    continue
                if not rest:
                    break
                if rest & rest - 1:
                    wide += (rest,)
                else:
                    mask |= rest
            else:
                checks.append((mask, u | w, wide))
    return sorted(checks, key=lambda check: check[0].bit_count())


def regularities(c: Clutter) -> dict[Field, int]:
    """reg(S/I) over Q and over GF(2) from one scan of induced subcomplexes.

    By Hochster's formula the regularity is the largest d + 1 with
    nonvanishing d-homology of some induced subcomplex Delta_A, and Delta_A
    is generated by the maximal stable sets cut down to A.  Subsets are
    scanned from the largest down, and only vertices that lie in some edge
    are scanned at all.  A subset A is skipped when its Delta_A has the
    homology of a smaller subset's, which the scan visits later or prunes:
    when for some u != w in A the link of w in Delta_A is a cone with apex
    u, so that deleting w is a strong collapse and Delta_A has the homology
    of Delta_{A - w}.  For a graph this is Engstrom's fold lemma, N_A(u)
    inside N_A(w); when u lies in no edge inside A, Delta_A is itself a
    cone.  `_folds` turns the rule into checks on the mask of A.
    A subset is also skipped when dim Delta_A + 1 is at most the smallest
    best so far, because then no field can improve.  Each field reads its
    Betti numbers from the top dimension down to its best and stops at the
    first nonzero one, so the chains are built only down to where some
    field is settled.  Rational homology is nonzero only where mod-2
    homology is, so the smallest best is the Q best, and GF(2) builds
    nothing that Q has not: it only looks up Betti numbers on the chains
    built.  Over Q, the reduction runs only where mod-2 homology survives
    in a dimension at or above the Q best.  The bests come from the scan
    alone.

    Two exact stops end the scan once no field can improve.  Every best is
    at most dim Delta + 1, the largest facet size, so the scan returns as
    soon as the smallest best reaches it.  And when every edge has at most
    two vertices, each Delta_A is a flag complex, and a flag complex with
    nonzero d-homology has at least 2d + 2 vertices.  By induction: in a
    smallest such complex no vertex deletion keeps the class, so by
    Mayer-Vietoris each vertex v has nonzero (d-1)-homology in its link, a
    flag complex on at least 2d other vertices; and some vertex lies
    outside the star of v, or else the complex is a cone.  So the scan
    stops at sizes below 2 * best + 2, not at sizes up to the best.  Wider
    edges keep the plain stop: the boundary of a triangle has 1-homology on
    3 vertices.
    """
    edges = c.edge_masks
    bits = list(iter_bits(or_all(edges)))
    maximal = c.maximal_stable_masks()
    folds = _folds(edges)
    ceiling = max(f.bit_count() for f in maximal)
    flag = all(e.bit_count() <= 2 for e in edges)
    best = dict.fromkeys(Field, 0)
    low = 0
    for size in range(len(bits), 0, -1):
        if low == ceiling or size < (2 * low + 2 if flag else low + 1):
            break
        for combo in itertools.combinations(bits, size):
            amask = sum(combo)
            # `not wide` spares a graph's checks, which have no wide rests,
            # a generator per subset
            if any(
                amask & m == pair and (not wide or all(r & ~amask for r in wide))
                for m, pair, wide in folds
            ):
                continue
            faces = sorted({f & amask for f in maximal})
            top = max(f.bit_count() for f in faces) - 1
            if top + 1 <= low:
                continue
            chains = _Chains(faces)
            for field in Field:
                betti = chains.betti2 if field is Field.F2 else chains.betti_q
                for d in range(top, best[field] - 1, -1):
                    if betti(d):
                        best[field] = d + 1
                        break
            low = min(best.values())
            if low == ceiling:
                return best
    return best


def regularity(c: Clutter, field: Field) -> int:
    """reg(S/I) over one field; see `regularities`."""
    return regularities(c)[field]


# -- Cohen-Macaulayness -----------------------------------------------------------


# A complex that is Cohen-Macaulay over GF(2) is Cohen-Macaulay over Q, so
# one recursion answers both fields with a level: 0 when the complex is not
# Cohen-Macaulay over Q, 1 when it is over Q only, 2 when it is over both.
# The level indexes its fields here.
_LEVEL_FIELDS = (frozenset(), frozenset({Field.Q}), frozenset(Field))


def cohen_macaulay_fields(complex_: SimplicialComplex) -> frozenset[Field]:
    """The fields over which the complex is Cohen-Macaulay: none, Q, or both.

    Cohen-Macaulay means that for every face F, the empty one included,
    reduced homology of the link of F vanishes below the link's dimension.
    One memoized recursion finds every field's answer at once: purity, then
    a gluing step that can prove the complex Cohen-Macaulay over both
    fields from some shedding vertex's link and deletion, and otherwise
    homology of the whole complex, then the links of vertices (links of
    larger faces are links of vertices inside links).  Its memo is keyed up
    to most vertex relabellings (see `_cm_level`).
    """
    if complex_.is_void():
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    return _LEVEL_FIELDS[_cm_level(complex_.facets)]


def is_cohen_macaulay(complex_: SimplicialComplex, field: Field) -> bool:
    """Cohen-Macaulayness over one field; see `cohen_macaulay_fields`."""
    return field in cohen_macaulay_fields(complex_)


def _cm_level(facets: tuple[int, ...]) -> int:
    """Cohen-Macaulay level of a nonvoid complex.

    The cases that need no homology are settled here; only a pure complex
    with no cone point and at least two facets goes to the memo,
    `_cm_recursive`, keyed by `_relabel`.
    """
    if len(facets) == 1:
        return 2
    common = facets[0]
    for f in facets:
        common &= f
    if common:
        # The complex is a cone over the faces avoiding the common vertices,
        # and coning preserves Cohen-Macaulayness in both directions.
        facets = tuple(f & ~common for f in facets)
    if len({f.bit_count() for f in facets}) > 1:
        return 0
    return _cm_recursive(_relabel(facets))


def _relabel(facets: tuple[int, ...]) -> tuple[int, ...]:
    """The facets with their used vertices renumbered to the low bits.

    This is the one canonical form of a complex: both memos, of the
    Cohen-Macaulay level and of vertex decomposability, are keyed by it.
    A vertex's signature is its degree (the number of facets through it)
    and the sum, over the facets through it, of their degree sums.  The
    used vertices are renumbered 1, 2, ... by signature, ties kept in
    their order, and the facets are sorted again; the void complex stays
    void.  Copies that differ by a vertex bijection often, though not
    always, get the same tuple; both verdicts are invariant under every
    vertex bijection, so they are exact either way.

    The facets are packed into one integer, facet i in the w-bit field at
    bit i * w, so that the column of vertex v (a 1 in the field of each
    facet through v) is a shift and a mask, the degree sums of all facets
    are one weighted sum of columns, and renumbering moves whole columns.
    """
    if not facets:
        return facets
    used = or_all(facets)
    n = used.bit_count()
    count = len(facets)
    # a field holds a facet, and a sum of count sums of n degrees each
    w = max(used.bit_length(), n.bit_length() + 2 * count.bit_length())
    low = (1 << w) - 1
    packed = 0
    for i, f in enumerate(facets):
        packed |= f << i * w
    ones = ((1 << count * w) - 1) // low
    columns = [packed >> v & ones for v in range(used.bit_length()) if used >> v & 1]
    degree = [c.bit_count() for c in columns]
    sums = 0
    for d, c in zip(degree, columns):
        sums += d * c
    # times `ones`, the top field adds up every field: no field carries
    top = (count - 1) * w
    signature = [
        (d, (sums & c * low) * ones >> top & low) for d, c in zip(degree, columns)
    ]
    renamed = 0
    for i, v in enumerate(sorted(range(n), key=signature.__getitem__)):
        renamed |= columns[v] << i
    return tuple(sorted(renamed >> i * w & low for i in range(count)))


@lru_cache(maxsize=None)
def _cm_recursive(facets: tuple[int, ...]) -> int:
    """Cohen-Macaulay level of a pure complex; stops once Q fails.

    The complex has at least two facets and no cone point (`_cm_level`
    settles the others).  Keyed by relabelled facet tuples (see `_relabel`):
    call it through `_cm_level`, so that isomorphic copies mostly share one
    entry.

    First a gluing step, tried at each vertex b, in bit order, that sheds
    (`vertexsets.sheds`): every facet of its deletion del b is a facet of
    K, so del b is pure of dimension d = dim K.  Then K is del b and the
    cone b * lk b glued along lk b, where lk b has dimension d - 1 and the
    cone is Cohen-Macaulay exactly when lk b is.  The depth lemma (Bruns-Herzog,
    Prop. 1.2.9) on 0 -> k[K] -> k[del b] + k[b * lk b] -> k[lk b] -> 0
    makes K Cohen-Macaulay over k when del b and lk b are, so levels 2 for
    both give level 2.  A lower level of del b proves nothing: RP^2 is
    Cohen-Macaulay over Q though its vertex deletions, Moebius strips, are
    not, so the next shedding vertex is tried.  The link is read first,
    since every link of a Cohen-Macaulay complex is Cohen-Macaulay over
    the same field (Reisner): a link of level 0 makes K level 0 at once,
    and a link of level 1 caps K at 1, which no gluing proves, so it stops
    the step.  Otherwise the link-vanishing test decides: homology of the
    whole complex below dimension d, read from d - 1 down so that the first
    nonzero rational Betti number ends the build, then the level of each
    vertex link.
    """
    used, present = or_all(facets), set(facets)
    for b in iter_bits(used):
        if sheds(present, used, b):
            link = _cm_level(_link(facets, b))
            if not link:
                return 0
            if link == 1:
                break
            if _cm_level(tuple(f for f in facets if not f & b)) == 2:
                return 2
    # Only the homology below the dimension matters, read from the top
    # down: rational homology settles the complex at once.
    chains = _Chains(facets)
    level = 2
    for d in range(chains.top - 1, -1, -1):
        if chains.betti_q(d):
            return 0
        if chains.betti2(d):
            level = 1
    for b in iter_bits(used):
        level = min(level, _cm_level(_link(facets, b)))
        if not level:
            return 0
    return level


# -- vertex decomposability ---------------------------------------------------------


def is_vertex_decomposable(complex_: SimplicialComplex) -> bool:
    """Shedding-vertex recursion, memoized on facet tuples.

    Base cases: the void complex and simplices are decomposable.  A vertex
    v sheds when every facet of the deletion of v is a facet of the complex
    (`vertexsets.sheds`, which reads this off the facets through v); the
    deletion is then the facets that avoid v.  A pure complex that is not
    Cohen-Macaulay over GF(2) cannot be decomposable (decomposable implies
    shellable implies Cohen-Macaulay over every field), which prunes the
    expensive negative searches; that test shares its memo with
    `cohen_macaulay_fields`, since both go through `_cm_level`.  The shedding
    search is memoized on the same key, `_relabel`, since decomposability
    does not depend on labels either; so the prune mostly asks about
    complexes the Cohen-Macaulay recursion has already seen.
    """
    return _vd(_relabel(complex_.facets))


@lru_cache(maxsize=None)
def _vd(facets: tuple[int, ...]) -> bool:
    """Vertex decomposability of relabelled facets (see `_relabel`)."""
    if len(facets) <= 1:
        return True
    sizes = {f.bit_count() for f in facets}
    if len(sizes) == 1 and _cm_level(facets) < 2:
        return False
    used, present = or_all(facets), set(facets)
    return any(
        sheds(present, used, b)
        and _vd(_relabel(_link(facets, b)))
        and _vd(_relabel(tuple(f for f in facets if not f & b)))
        for b in iter_bits(used)
    )


"""Graph classification procedures with independent cross-checking routes.

Each classification that the underlying theory states in two equivalent ways
is computed both ways and the answers are compared; a mismatch raises
CrossRouteError instead of silently preferring one route.  full_report
bundles every invariant and flag for a graph or clutter.

Every report is over both fields, Q and GF(2); a choice of field reaches
only the keys the command line prints.  Regularity over both fields comes
from one subset scan, and the Cohen-Macaulay verdicts, of the graph and of
its symbolic square by either route, come from one Cohen-Macaulay level
per complex (`complexes.cohen_macaulay_fields`), which answers both fields
at once.  So every report compares the two symbolic-square routes, checks
reg_Q <= reg_F2 and holds both fields to the matching bounds.

Edge-criticality builds no graph.  Route 1 searches alpha(G - e) on G's
adjacency masks with e toggled out, by branching on the lowest vertex.
Route 2 and the symbolic-square walk both read, for each edge e = {u, v},
the graph G_e = G - N[u] - N[v].  Its stable sets are the stable sets of
G that avoid N[u] | N[v], so G_e is never built: route 2 reads beta0(G_e)
off the maximal stable sets of G, and the walk restricts the independence
complex of G to the other vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import monomials
from .clutters import Clutter, Graph
from .complexes import (
    Field,
    cohen_macaulay_fields,
    independence_complex,
    is_vertex_decomposable,
    regularities,
)
from .monomials import polarized_symbolic_power
from .vertexsets import iter_bits, mask_members, or_all

# the largest vertex count on which the polarization oracle re-checks a verdict
ORACLE_CAP = 7


class CrossRouteError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed."""


def _require_agreement(name: str, routes: dict[str, object]) -> None:
    values = set(routes.values())
    if len(values) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in routes.items())
        raise CrossRouteError(f"{name} routes disagree: {detail}")


def v_number_checked(c: Clutter) -> tuple[int, int]:
    """v-number and witness mask by stable-set search, checked by colon ideals."""
    v_comb, witness = c.v_number_with_witness()
    v_alg = monomials.v_number_algebraic(c)
    _require_agreement("v-number", {"combinatorial": v_comb, "algebraic": v_alg})
    return v_comb, witness


def is_w2(g: Graph) -> bool:
    """Well-covered with every maximal stable set neighborhood-minimal.

    Route 1: the v-number equals the independence number.  Route 2: the
    graph is well-covered and the maximal stable sets are exactly the
    stable sets with minimal-cover neighborhoods.  Route 2 reads that
    family as a stream, which yields each mask once: it stops at the first
    member that is not a maximal stable set, and otherwise counts them.
    """
    if g.isolated_vertices():
        raise ValueError("the W2 classification excludes isolated vertices")
    if g.vertex_count < 2:
        raise ValueError("the W2 class needs at least two vertices")
    return _is_w2(g, g.v_number())


def _is_w2(g: Graph, v: int) -> bool:
    """`is_w2` on a graph that meets its preconditions, with v its v-number."""
    route1 = v == g.independence_number()
    route2 = g.is_well_covered() and _yields_exactly(
        g.family_a_masks(), set(g.maximal_stable_masks())
    )
    _require_agreement("W2", {"v=dim": route1, "families": route2})
    return route1


def _yields_exactly(stream: Iterator[int], masks: set[int]) -> bool:
    """Whether a stream that yields no mask twice yields exactly `masks`."""
    count = 0
    for mask in stream:
        if mask not in masks:
            return False
        count += 1
    return count == len(masks)


def is_edge_critical(g: Graph) -> bool:
    """Whether deleting any edge raises the independence number."""
    return edge_criticality(g)[0]


def edge_criticality(g: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """Edge-criticality verdict plus the first violating edge, if any.

    The violating edge is the first in vertex-list order.  Route 1 toggles
    each edge out of G's adjacency masks, searches alpha(G - e) there
    (`_stable_number`) and compares it with beta0(G) + 1, beta0 read off
    G's covers; it shares no code with route 2.  Route 2 checks that the
    independence number drops by one on each G_e.  The stable sets of G_e
    are the stable sets of G that avoid N[u] | N[v], so route 2 reads
    beta0(G_e) off the maximal stable sets of G.  Neither route builds a
    graph.
    """
    beta0 = g.independence_number() if g.has_edges() else None
    adj = list(g.adjacency_masks())
    witness1 = None
    for u, v in sorted(g.edge_lists()):
        adj[u - 1] ^= 1 << (v - 1)
        adj[v - 1] ^= 1 << (u - 1)
        alpha = _stable_number(adj, g.full_mask, {})
        adj[u - 1] ^= 1 << (v - 1)
        adj[v - 1] ^= 1 << (u - 1)
        if alpha != beta0 + 1:
            witness1 = (u, v)
            break
    route1 = witness1 is None
    maximal = g.maximal_stable_masks()
    route2 = all(
        max((f & ~gone).bit_count() for f in maximal) == beta0 - 1
        for gone in _edge_neighborhoods(g)
    )
    _require_agreement(
        "edge-critical", {"edge-deletion": route1, "neighborhood": route2}
    )
    return route1, witness1


def _stable_number(adj: Sequence[int], alive: int, memo: dict[int, int]) -> int:
    """Largest stable set of the graph induced on `alive`, memoized in `memo`.

    The lowest vertex v is taken or left out.  When v has at most one live
    neighbour it is always taken: swapping that neighbour for v turns a
    maximum stable set into one that holds v.  A module function, not a
    closure over itself, so that no reference cycle holds the memo.
    """
    if not alive:
        return 0
    if alive not in memo:
        v = alive & -alive
        rest = alive ^ v
        nbrs = adj[v.bit_length() - 1] & rest
        best = 1 + _stable_number(adj, rest & ~nbrs, memo)
        if nbrs & nbrs - 1:
            best = max(best, _stable_number(adj, rest, memo))
        memo[alive] = best
    return memo[alive]


def _edge_neighborhoods(g: Graph) -> Iterator[int]:
    """N[u] | N[v] for each edge e = {u, v}, in edge order.

    G_e is G with these vertices deleted.  The ends of e are neighbours,
    so the open neighbourhoods already hold them.
    """
    adj = g.adjacency_masks()
    for e in g.edge_masks:
        yield or_all(adj[b.bit_length() - 1] for b in iter_bits(e))


def symbolic_square_cm(g: Graph, field: Field) -> bool:
    """Whether the second symbolic power of the edge ideal is Cohen-Macaulay.

    Combinatorial route: the graph is Cohen-Macaulay and for every edge e
    the subgraph G_e is Cohen-Macaulay with independence number one less.
    On graphs with at most ORACLE_CAP vertices the answer is re-derived by
    polarizing the symbolic square and testing its Stanley-Reisner complex.
    The empty graph on zero vertices counts as Cohen-Macaulay.
    """
    return symbolic_square_cm_by_field(g)[field]


def symbolic_square_cm_by_field(g: Graph) -> dict[Field, bool]:
    """symbolic_square_cm over every field, each route taken once.

    Each route reads one Cohen-Macaulay level per complex, which answers
    every field, and the two routes are compared over every field.
    """
    combo = _symbolic_square_cm_combinatorial(g)
    if g.has_edges() and g.vertex_count <= ORACLE_CAP:
        oracle = _symbolic_square_cm_oracle(g)
        for f in Field:
            _require_agreement(
                f"symbolic-square CM over {f.value}",
                {"combinatorial": f in combo, "polarization": f in oracle},
            )
    return {f: f in combo for f in Field}


def _symbolic_square_cm_combinatorial(g: Graph) -> frozenset[Field]:
    """The fields where the combinatorial route holds, from one edge walk.

    Each G_e is read as a restriction of Delta(G): its faces are the stable
    sets of G that avoid N[u] | N[v].  The walk goes in edge order, up to
    the first edge where beta0 does not drop by one.  No G_e is restricted
    unless G is Cohen-Macaulay over Q; each G_e then narrows the fields to
    those over which it is Cohen-Macaulay too, and the walk stops when none
    is left.
    """
    complex_ = independence_complex(g)
    cm = cohen_macaulay_fields(complex_)
    if not cm:
        return cm
    dim = complex_.dim()
    for gone in _edge_neighborhoods(g):
        sub = complex_.deletion(gone)
        if sub.dim() != dim - 1:
            return frozenset()
        cm &= cohen_macaulay_fields(sub)
        if not cm:
            break
    return cm


def _symbolic_square_cm_oracle(g: Graph) -> frozenset[Field]:
    """The fields over which the polarized symbolic square is Cohen-Macaulay."""
    return cohen_macaulay_fields(independence_complex(polarized_symbolic_power(g, 2)))


def _beta2_complement_agreement(g: Graph, verdict: bool) -> bool:
    """Assert the complement readings of the edge-criticality verdict."""
    comp = g.complement()
    routes = {
        "edge-critical": verdict,
        "complement-maximal-triangle-free": comp.is_maximal_triangle_free(),
    }
    if g.vertex_count >= 3 and comp.is_connected():
        routes["complement-diameter"] = comp.diameter() <= 2
    _require_agreement("symbolic-square CM (beta0 = 2)", routes)
    return verdict


def has_linear_resolution(g: Graph) -> bool:
    """Degree-two linear resolution test: the complement must be chordal."""
    if g.isolated_vertices():
        raise ValueError("linear resolution test excludes isolated vertices")
    if not g.has_edges():
        raise ValueError("linear resolution test needs at least one edge")
    return g.complement().is_chordal()


# -- the invariant report -------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Every computed invariant and classification flag for one input."""

    name: Optional[str]
    kind: str
    vertex_count: int
    edge_count: int
    v: int
    i: int
    gamma: Optional[int]
    beta0: int
    alpha0: int
    dim: int
    reg_by_field: dict[Field, int]
    well_covered: bool
    one_well_covered: bool
    w2: Optional[bool]
    edge_critical: Optional[bool]
    cm_by_field: dict[Field, bool]
    symbolic_square_cm_by_field: dict[Field, bool]
    vertex_decomposable: bool
    linear_resolution: Optional[bool]
    has_isolated_vertices: bool
    v_witness: tuple[int, ...]
    edge_critical_violation: Optional[tuple[int, int]]
    # (low, high) bounds on a graph's regularity over every field: the
    # induced matching number, and the matching number or, on a chordal
    # graph, the induced matching number again
    matching_bounds: Optional[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.dim != self.beta0:
            raise CrossRouteError(
                f"Krull dimension s - alpha0 must equal beta0: dim={self.dim}, "
                f"beta0={self.beta0}"
            )
        if not self.v <= self.i <= self.beta0:
            raise CrossRouteError(
                f"v <= i <= beta0 violated: v={self.v}, i={self.i}, "
                f"beta0={self.beta0}"
            )
        if self.gamma is not None and self.gamma > self.i:
            # every maximal stable set dominates the graph
            raise CrossRouteError(
                f"gamma <= i violated: gamma={self.gamma}, i={self.i}"
            )
        for field, reg in self.reg_by_field.items():
            if reg > self.dim:
                raise CrossRouteError(
                    f"regularity over {field.value} exceeds the dimension"
                )
        reg_q, reg_f2 = self.reg_by_field[Field.Q], self.reg_by_field[Field.F2]
        if reg_q > reg_f2:
            # universal coefficients: rational homology vanishes wherever
            # mod-2 homology does
            raise CrossRouteError(
                f"reg over Q exceeds reg over GF(2): reg-Q={reg_q}, reg-F2={reg_f2}"
            )
        if self.matching_bounds is not None:
            # Katzman (JCTA 113, 2006) and Ha-Van Tuyl (J. Algebraic
            # Combin. 27, 2008), over every field; both bounds are the
            # induced matching number on a chordal graph (Ha-Van Tuyl)
            low, high = self.matching_bounds
            for field, reg in self.reg_by_field.items():
                if not low <= reg <= high:
                    raise CrossRouteError(
                        f"reg over {field.value} outside the matching bounds: "
                        f"induced-matching={low}, reg-{field.value}={reg}, "
                        f"matching={high}"
                    )
        if self.linear_resolution:
            forced = {"v": self.v}
            forced.update((f"reg-{f.value}", r) for f, r in self.reg_by_field.items())
            bad = [f"{k}={val}" for k, val in forced.items() if val != 1]
            if bad:
                raise CrossRouteError(
                    "a chordal complement forces v = reg = 1, got " + ", ".join(bad)
                )
        if self.w2 is not None and self.w2 != self.one_well_covered:
            # Staples (J. Graph Theory 3, 1979): a graph without isolated
            # vertices is in W2 exactly when it is 1-well-covered
            raise CrossRouteError(
                f"W2 must equal 1-well-covered: w2={self.w2}, "
                f"one_well_covered={self.one_well_covered}"
            )
        if self.beta0 == 2 and self.edge_critical is not None:
            # at independence number two the complex is at most a graph, so
            # the verdict is field-free and edge-criticality decides it
            sscm = {f.value: cm for f, cm in self.symbolic_square_cm_by_field.items()}
            _require_agreement(
                "symbolic-square CM at independence number 2",
                {"specialization": self.edge_critical, **sscm},
            )
        if any(self.symbolic_square_cm_by_field.values()) and not self.edge_critical:
            # the combinatorial criterion asks alpha(G_e) = alpha(G) - 1 for
            # every edge e = {u, v}, which is edge-criticality: a stable set
            # of G - e of size alpha + 1 holds u and v and avoids the rest
            # of N[u] | N[v]
            raise CrossRouteError("a CM symbolic square forces edge-criticality")


def full_report(c: Clutter, *, name: Optional[str] = None) -> InvariantReport:
    """Compute every invariant with all cross-route assertions enabled.

    Graph-only classifications are None for clutter input; W2 and the
    linear resolution flag are None when their isolated-vertex or edge
    preconditions fail.  Every report is over both fields: regularity over
    Q and GF(2) comes from one subset scan, and the Cohen-Macaulay verdicts
    from one level per complex, which answers both fields.  For a graph
    the report also carries the bounds on the regularity: the induced
    matching number below and the matching number above, or the induced
    matching number twice when the graph is chordal.
    """
    is_graph = isinstance(c, Graph)
    isolated = c.isolated_vertices()
    v, witness = v_number_checked(c)
    beta0 = c.independence_number()
    alpha0 = c.cover_number()
    reg_by_field = regularities(c)
    complex_ = independence_complex(c)
    cm = cohen_macaulay_fields(complex_)
    gamma = c.domination_number() if is_graph else None
    w2 = None
    edge_critical = None
    edge_critical_violation = None
    sscm: dict[Field, bool] = {}
    linres = None
    bounds = None
    if is_graph:
        if not isolated and c.vertex_count >= 2:
            w2 = _is_w2(c, v)
        edge_critical, edge_critical_violation = edge_criticality(c)
        sscm = symbolic_square_cm_by_field(c)
        if beta0 == 2:
            _beta2_complement_agreement(c, edge_critical)
        if not isolated and c.has_edges():
            linres = has_linear_resolution(c)
        low = c.induced_matching_number()
        bounds = (low, low if c.is_chordal() else c.matching_number())
    return InvariantReport(
        name=name,
        kind="graph" if is_graph else "clutter",
        vertex_count=c.vertex_count,
        edge_count=len(c.edge_masks),
        v=v,
        i=c.independent_domination(),
        gamma=gamma,
        beta0=beta0,
        alpha0=alpha0,
        dim=c.vertex_count - alpha0,
        reg_by_field=reg_by_field,
        well_covered=c.is_well_covered(),
        one_well_covered=c.is_one_well_covered(),
        w2=w2,
        edge_critical=edge_critical,
        cm_by_field={f: f in cm for f in Field},
        symbolic_square_cm_by_field=sscm,
        vertex_decomposable=is_vertex_decomposable(complex_),
        linear_resolution=linres,
        has_isolated_vertices=bool(isolated),
        v_witness=mask_members(witness),
        edge_critical_violation=edge_critical_violation,
        matching_bounds=bounds,
    )

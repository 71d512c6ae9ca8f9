"""Independent checks of `vnum batch --json` rows.

Standard library only, and nothing from vnum: every quantity the checks
compare against is recomputed here from the graph6 input by plain subset
enumeration over bit masks (graphs of at most ~16 vertices).  The bounds
come from the literature rather than from the program:

* induced matching number <= reg <= matching number (Katzman; Ha and
  Van Tuyl), with equality to the induced matching number on chordal graphs;
* reg over Q <= reg over GF(2) (universal coefficients);
* linear resolution <=> the complement is chordal (Froberg);
* Cohen-Macaulay => well-covered; I^(2) Cohen-Macaulay => Cohen-Macaulay and
  edge-critical; vertex decomposable and well-covered => Cohen-Macaulay
  (vnum's vertex decomposability is the non-pure notion, so it alone does
  not imply Cohen-Macaulay).
"""

from __future__ import annotations

from functools import lru_cache

from workloads import Case, read_graph6

FIELDS = {"q": ("Q",), "f2": ("F2",), "both": ("Q", "F2")}


def _low_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _members(mask: int) -> list[int]:
    """1-based vertices of a mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _max_matching(adj: list[int], full: int, induced: bool) -> int:
    """Largest (induced) matching, branching on the lowest vertex."""

    @lru_cache(maxsize=None)
    def go(m: int) -> int:
        if not m:
            return 0
        i = _low_index(m)
        rest = m & ~(1 << i)
        out = go(rest)
        for u in _members(adj[i] & rest):
            if induced:
                gone = adj[i] | adj[u - 1] | 1 << i | 1 << (u - 1)
            else:
                gone = 1 << (u - 1)
            out = max(out, 1 + go(rest & ~gone))
        return out

    return go(full)


def _chordal(n: int, adj: list[int]) -> bool:
    """Repeatedly remove a simplicial vertex; chordal iff all can go."""
    alive = (1 << n) - 1
    while alive:
        for i in range(n):
            if not alive >> i & 1:
                continue
            nbrs = adj[i] & alive
            if all(nbrs & ~(1 << j) & ~adj[j] == 0 for j in range(n) if nbrs >> j & 1):
                alive &= ~(1 << i)
                break
        else:
            return False
    return True


class GraphFacts:
    """Invariants of one graph, by exhaustive enumeration."""

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.full = (1 << n) - 1
        adj = [0] * n
        for u, v in edges:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        size = 1 << n
        stable = bytearray(size)
        nbhd = [0] * size  # union of neighbourhoods of the members
        dom = [0] * size  # union of closed neighbourhoods of the members
        stable[0] = 1
        for mask in range(1, size):
            i = _low_index(mask)
            rest = mask & (mask - 1)
            stable[mask] = stable[rest] and not adj[i] & rest
            nbhd[mask] = nbhd[rest] | adj[i]
            dom[mask] = dom[rest] | adj[i] | 1 << i
        self.stable = stable
        self.nbhd = nbhd
        maximal = [
            m for m in range(size) if stable[m] and (m | nbhd[m]) == self.full
        ]
        sizes = {m.bit_count() for m in maximal}
        self.maximal = set(maximal)
        self.beta0 = max(sizes)
        self.i_dom = min(sizes)
        self.gamma = min(m.bit_count() for m in range(size) if dom[m] == self.full)
        self.well_covered = len(sizes) == 1
        self.isolated = any(a == 0 for a in adj)
        # v: least stable A whose neighbour set N(A) is a minimal vertex
        # cover, i.e. whose complement V - N(A) is a maximal stable set.
        self.v = min(
            m.bit_count()
            for m in range(size)
            if stable[m] and m and (self.full & ~nbhd[m]) in self.maximal
        )
        best = [0] * size  # largest stable set inside the mask
        for mask in range(1, size):
            i = _low_index(mask)
            best[mask] = max(
                best[mask & (mask - 1)], 1 + best[mask & ~adj[i] & ~(1 << i)]
            )
        self.edge_critical = all(
            2 + best[self.full & ~(adj[u - 1] | adj[v - 1] | 1 << (u - 1) | 1 << (v - 1))]
            == self.beta0 + 1
            for u, v in edges
        )
        self.matching = _max_matching(adj, self.full, induced=False)
        self.induced_matching = _max_matching(adj, self.full, induced=True)
        self.chordal = _chordal(n, adj)
        comp = [self.full & ~a & ~(1 << i) for i, a in enumerate(adj)]
        self.complement_chordal = _chordal(n, comp)


def check_row(row: dict, case: Case, index: int, field_spec: str) -> list[str]:
    """Every problem found in one output row; empty when the row is right."""
    if "error" in row:
        return [f"error row: {row['error']}"]
    n, edges = read_graph6(case.graph6)
    g = GraphFacts(n, edges)
    problems: list[str] = []

    def expect(key: str, want: object) -> None:
        if row.get(key) != want:
            problems.append(f"{key}={row.get(key)!r}, expected {want!r}")

    def implies(premise: str, conclusion: str) -> None:
        if row.get(premise) and not row.get(conclusion):
            problems.append(f"{premise} holds but {conclusion} does not")

    expect("name", f"line {index + 1}")
    expect("kind", "graph")
    expect("vertex_count", n)
    expect("edge_count", len(edges))
    expect("beta0", g.beta0)
    expect("dim", g.beta0)
    expect("alpha0", n - g.beta0)
    expect("i", g.i_dom)
    expect("gamma", g.gamma)
    expect("v", g.v)
    expect("well_covered", g.well_covered)
    expect("edge_critical", g.edge_critical)
    expect("has_isolated_vertices", g.isolated)
    if (row.get("edge_critical_violation") is None) != bool(row.get("edge_critical")):
        problems.append("edge_critical_violation disagrees with edge_critical")
    witness = 0
    for u in row.get("v_witness") or ():
        witness |= 1 << (u - 1)
    if not (
        witness.bit_count() == g.v
        and g.stable[witness]
        and (g.full & ~g.nbhd[witness]) in g.maximal
    ):
        problems.append(f"v_witness {row.get('v_witness')} is not a v-number witness")
    fields = FIELDS[field_spec]
    for f in fields:
        reg = row.get(f"reg_{f}")
        if not isinstance(reg, int) or not g.induced_matching <= reg <= g.matching:
            problems.append(
                f"reg_{f}={reg!r} outside [induced matching {g.induced_matching}, "
                f"matching {g.matching}]"
            )
        elif g.chordal and reg != g.induced_matching:
            problems.append(f"chordal graph with reg_{f}={reg} != {g.induced_matching}")
        implies(f"cm_{f}", "well_covered")
        implies(f"symbolic_square_cm_{f}", f"cm_{f}")
        implies(f"symbolic_square_cm_{f}", "edge_critical")
        if row.get("vertex_decomposable") and g.well_covered and not row.get(f"cm_{f}"):
            problems.append(f"vertex decomposable and well-covered but not cm_{f}")
    if len(fields) == 2 and not (
        isinstance(row.get("reg_Q"), int)
        and isinstance(row.get("reg_F2"), int)
        and row["reg_Q"] <= row["reg_F2"]
    ):
        problems.append(f"reg_Q={row.get('reg_Q')!r} > reg_F2={row.get('reg_F2')!r}")
    if row.get("linear_resolution") is not None:
        expect("linear_resolution", g.complement_chordal)
    implies("one_well_covered", "well_covered")
    if case.cm36:
        for f in fields:
            expect(f"symbolic_square_cm_{f}", True)
        expect("edge_critical", True)
    if case.example_graph3:
        expect("v", 3)
        expect("reg_Q", 2)
    return problems


def check_split(rows: list[dict], cases: list[Case], field_spec: str) -> list[str]:
    """The CM36 rows: 19 graphs below 9 vertices and 17 on 9 vertices whose
    I^(2) is Cohen-Macaulay over every field asked for."""
    if not any(c.cm36 for c in cases):
        return []
    sizes = [
        row.get("vertex_count")
        for row, case in zip(rows, cases)
        if case.cm36
        and all(row.get(f"symbolic_square_cm_{f}") for f in FIELDS[field_spec])
    ]
    split = (sum(1 for s in sizes if s < 9), sum(1 for s in sizes if s == 9))
    return [] if split == (19, 17) else [f"cm36 split {split}, expected (19, 17)"]

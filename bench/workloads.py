"""Seeded benchmark inputs, written as graph6 lines.

Standard library only; nothing here imports vnum, so the inputs do not move
when the program changes.  Run it alone to see a workload's inputs:

    python3 bench/workloads.py batch-small --seed 7

Every workload is a list of `Case`s in a fixed order.  The seed decides the
graphs as follows:

* batch-small draws fresh connected G(n, m) graphs for every seed, in fixed
  (vertices, edges, well-covered or not) strata, so the mix of sizes and of
  expensive inputs is the same on every seed and only the draws within a
  stratum vary.
* cm36 is a fixed catalog, so the seed only relabels the vertices of every
  graph: the cost stays the same and the bytes the program reads change.
"""

from __future__ import annotations

import argparse
import itertools
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("batch-small", "cm36")

# The --field flag each workload passes to `vnum batch`.
FIELD = {"batch-small": "q", "cm36": "both"}

# The 36 connected graphs on 2..9 vertices whose second symbolic power is
# Cohen-Macaulay in characteristic zero (19 with fewer than 9 vertices, 17
# with 9), in the order of the source table.
CM36_GRAPH6 = (
    "A_", "Bw", "C~", "Dhc", "D~{", "EhfG", "E~~w", "FzEKW", "FjK{W",
    "FxFNG", "F~~~w", "GqNVPw", "G~?KZw", "GjaMXw", "GjaHx{", "GjMNbs",
    "G^~yCC", "GhDHKC", "G~~~~{", "HxK]G{|", "HxCW}^`", "HxK]MK^",
    "H~z~w_H", "HhM[{{~", "HzK[]L{", "HxE]^hy", "HhM[x|x", "HhKYHE@",
    "HjK{]FB", "HjMKX|x", "H~~~~~~", "HhEHKdJ", "HhDHKFc", "HhKGHeX",
    "HxK]NFb", "H~~zsGB",
)

# The 11-vertex graph of the paper whose v-number (3) exceeds its rational
# regularity (2); over GF(2) its regularity is 3.  It ends the cm36 workload,
# where it is the one input whose regularity differs between the fields.
EXAMPLE_GRAPH3 = "JUWsRG]ovo?"

# (vertices, edges, how many, how many of them well-covered) per
# batch-small stratum: sparse, middle and dense at each size.  A
# well-covered graph on <= 7 vertices costs 5 to 20 times a graph that is
# not, because the polarization oracle's Cohen-Macaulay test then runs past
# the purity check; so the well-covered count of each stratum is fixed near
# its share among random draws (11 of 120 against about 12.6), not left to
# the seed.
BATCH_SMALL_STRATA = (
    (6, 6, 8, 1), (6, 9, 8, 2), (6, 12, 8, 0),
    (7, 8, 8, 1), (7, 12, 8, 0), (7, 15, 8, 3),
    (8, 10, 12, 0), (8, 14, 12, 1), (8, 19, 12, 1),
    (9, 11, 12, 1), (9, 16, 12, 1), (9, 22, 12, 0),
)


@dataclass(frozen=True)
class Case:
    """One input line and what the checker may assume about it."""

    graph6: str
    label: str
    cm36: bool = False
    example_graph3: bool = False


Edges = tuple[tuple[int, int], ...]


def write_graph6(n: int, edges: Edges) -> str:
    """graph6 for a graph on vertices 1..n (n <= 62).

    The upper triangle of the adjacency matrix is read column by column,
    six bits per byte, most significant bit first, each byte offset by 63.
    """
    if not 0 <= n <= 62:
        raise ValueError("graph6 short form holds 0..62 vertices")
    adj = {frozenset(e) for e in edges}
    bits = [
        1 if frozenset((i + 1, j + 1)) in adj else 0
        for j in range(1, n)
        for i in range(j)
    ]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = value * 2 + b
        out.append(chr(63 + value))
    return "".join(out)


def read_graph6(line: str) -> tuple[int, Edges]:
    """Inverse of write_graph6, for the benchmark's own use."""
    values = [ord(ch) - 63 for ch in line.strip()]
    n = values[0]
    bits = [v >> shift & 1 for v in values[1:] for shift in range(5, -1, -1)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i + 1, j + 1))
            k += 1
    return n, tuple(edges)


def _adjacency(n: int, edges: Edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _connected(n: int, edges: Edges) -> bool:
    adj = _adjacency(n, edges)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for i in range(n):
            if frontier >> i & 1:
                nxt |= adj[i]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def well_covered(n: int, edges: Edges) -> bool:
    """All maximal stable sets have one size (enumeration; small n only)."""
    adj = _adjacency(n, edges)
    sizes = set()
    for mask in range(1 << n):
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [i for i in range(n) if not mask >> i & 1]
        if not any(adj[i] & mask for i in inside) and all(adj[i] & mask for i in outside):
            sizes.add(len(inside))
    return len(sizes) == 1


def connected_gnm(rng: random.Random, n: int, m: int, wc: bool) -> Edges:
    """A connected G(n, m) draw that is well-covered exactly when wc."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        if _connected(n, edges) and well_covered(n, edges) == wc:
            return edges


def _relabelled(rng: random.Random, line: str) -> str:
    """The same graph with its vertices permuted at random."""
    n, edges = read_graph6(line)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return write_graph6(n, tuple((perm[u - 1], perm[v - 1]) for u, v in edges))


def make_cases(workload: str, seed: int) -> list[Case]:
    """The inputs of one workload for one seed, in batch order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "batch-small":
        return [
            Case(write_graph6(n, connected_gnm(rng, n, m, k < wc)), f"gnm-{n}-{m}-{k}")
            for n, m, count, wc in BATCH_SMALL_STRATA
            for k in range(count)
        ]
    if workload == "cm36":
        cases = [
            Case(_relabelled(rng, line), f"cm36-{k:02d}", cm36=True)
            for k, line in enumerate(CM36_GRAPH6, start=1)
        ]
        cases.append(
            Case(_relabelled(rng, EXAMPLE_GRAPH3), "example-graph3", example_graph3=True)
        )
        return cases
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for case in make_cases(args.workload, args.seed):
        print(f"{case.graph6}\t{case.label}")


if __name__ == "__main__":
    main()

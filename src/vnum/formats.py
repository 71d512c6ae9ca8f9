"""Input documents: the edge-list text format and graph6 decoding.

The parsers check only what one line, or one graph6 string, shows on its
own; the rules of an edge set (no repeated edge, no edge inside another,
two vertices per graph edge) live in the `Clutter` and `Graph`
constructors, which every document goes through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .clutters import Clutter, Graph
from .vertexsets import mask_of


class ParseError(ValueError):
    """Malformed input document; the message carries a line number."""


@dataclass(frozen=True)
class InputDocument:
    """A parsed graph or clutter, prior to validation-heavy computation."""

    kind: str
    vertex_count: int
    edges: tuple[tuple[int, ...], ...]
    name: Optional[str] = None

    def to_clutter(self) -> Clutter:
        """The document's graph or clutter, through its validating constructor.

        The constructor rejects what the parser leaves to it: a repeated
        edge, an edge contained in another, and a graph edge without
        exactly two vertices.
        """
        cls = Graph if self.kind == "graph" else Clutter
        masks = sorted(mask_of(self.vertex_count, e) for e in self.edges)
        return cls(self.vertex_count, tuple(masks))


def parse_edge_list(text: str, name: Optional[str] = None) -> InputDocument:
    """Parse the plain text format, checking each line on its own.

    Line 1 is ``graph <s>`` or ``clutter <s>``; every following non-empty
    line that does not start with ``#`` lists the 1-based vertices of one
    edge.  A line is rejected, with its number, when a token is not an
    integer, a vertex lies outside 1..s or a vertex repeats.  Rules that
    compare edges, and the graph rule of two vertices per edge, belong to
    the clutter constructors (`InputDocument.to_clutter`).
    """
    kind = None
    vertex_count = 0
    edges: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if kind is None:
            if len(parts) != 2 or parts[0] not in ("graph", "clutter"):
                raise ParseError(
                    f"line {lineno}: expected 'graph <s>' or 'clutter <s>'"
                )
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer")
            if vertex_count < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            kind = parts[0]
            continue
        try:
            verts = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex index")
        for v in verts:
            if not 1 <= v <= vertex_count:
                raise ParseError(
                    f"line {lineno}: vertex {v} outside 1..{vertex_count}"
                )
        edge = tuple(sorted(set(verts)))
        if len(edge) != len(verts):
            twice = next(v for v in verts if verts.count(v) > 1)
            raise ParseError(f"line {lineno}: vertex {twice} repeated")
        edges.append(edge)
    if kind is None:
        raise ParseError("line 1: missing 'graph <s>' or 'clutter <s>' header")
    return InputDocument(kind, vertex_count, tuple(edges), name)


def render_edge_list(doc: InputDocument) -> str:
    """Canonical text form: sorted edges, one per line."""
    lines = [f"{doc.kind} {doc.vertex_count}"]
    for e in sorted(tuple(sorted(e)) for e in doc.edges):
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


# -- graph6 ---------------------------------------------------------------------


def parse_graph6(line: str, name: Optional[str] = None) -> InputDocument:
    """Decode one graph6 line (<= 62 vertices) into a graph document.

    Each byte minus 63 contributes six bits, most significant first; the
    first byte encodes the vertex count and the remaining bits fill the
    upper triangle of the adjacency matrix column by column.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 line")
    values = []
    for ch in s:
        code = ord(ch)
        if code < 63 or code > 126:
            raise ParseError(f"invalid graph6 byte {code!r}")
        values.append(code - 63)
    if values[0] == 63:
        raise ParseError("graph6 inputs with 63 or more vertices are not supported")
    n = values[0]
    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    if len(values) - 1 < bytes_needed:
        raise ParseError("truncated graph6 bit stream")
    if len(values) - 1 > bytes_needed:
        raise ParseError("trailing bytes after graph6 bit stream")
    bits = []
    for v in values[1:]:
        for shift in range(5, -1, -1):
            bits.append(v >> shift & 1)
    if any(bits[bits_needed:]):
        raise ParseError("nonzero padding in graph6 bit stream")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i + 1, j + 1))
            k += 1
    return InputDocument("graph", n, tuple(edges), name)

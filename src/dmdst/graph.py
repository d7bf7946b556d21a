"""Directed graphs with a designated sink, plus the text file format.

Vertices are dense 0-based integers.  An edge u -> v means "u may choose v
as its parent", so spanning in-trees toward the sink are assembled from
parent choices along these edges.  Every valid graph guarantees that the
sink is reachable from all vertices.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

MAGIC = "dmdst 1"


class GraphFormatError(ValueError):
    """Input text or edge data violating the graph format or invariants."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class MalformedHeader(GraphFormatError):
    pass


class SelfLoop(GraphFormatError):
    pass


class DuplicateEdge(GraphFormatError):
    pass


class VertexOutOfRange(GraphFormatError):
    pass


class SinkUnreachable(GraphFormatError):
    """Some vertices have no directed path to the sink."""

    def __init__(self, vertices: Iterable[int], line: int | None = None) -> None:
        self.vertices = tuple(sorted(vertices))
        super().__init__(
            f"sink unreachable from vertices {list(self.vertices)}", line
        )


class Digraph:
    """Immutable directed graph. Adjacency lists keep insertion order."""

    __slots__ = ("n", "m", "sink", "out_edges", "out_sets", "rev_edges")

    def __init__(
        self,
        n: int,
        sink: int,
        edges: Iterable[tuple[int, int]],
        validate_reachability: bool = True,
    ) -> None:
        if n < 1:
            raise MalformedHeader(f"vertex count must be >= 1, got {n}")
        if not 0 <= sink < n:
            raise VertexOutOfRange(f"sink {sink} out of range for n={n}")
        out: list[list[int]] = [[] for _ in range(n)]
        out_sets: list[set[int]] = [set() for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if v in out_sets[u]:
                raise DuplicateEdge(f"duplicate edge ({u}, {v})")
            out[u].append(v)
            out_sets[u].add(v)
            rev[v].append(u)
            m += 1
        self.n = n
        self.m = m
        self.sink = sink
        self.out_edges = tuple(tuple(a) for a in out)
        self.out_sets = tuple(frozenset(s) for s in out_sets)
        self.rev_edges = tuple(tuple(a) for a in rev)
        if validate_reachability:
            stranded = unreachable_to_sink(self)
            if stranded:
                raise SinkUnreachable(stranded)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges, grouped by tail vertex in insertion order."""
        for u in range(self.n):
            for v in self.out_edges[u]:
                yield u, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.sink == other.sink
            and self.out_edges == other.out_edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.sink, self.out_edges))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m}, sink={self.sink})"


def unreachable_to_sink(g: Digraph) -> set[int]:
    """Vertices with no directed path to the sink (empty on a valid graph).

    One backward BFS from the sink over reversed edges.
    """
    seen = [False] * g.n
    seen[g.sink] = True
    queue = deque([g.sink])
    while queue:
        v = queue.popleft()
        for u in g.rev_edges[v]:
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return {v for v in range(g.n) if not seen[v]}


def parse_graph(text: str | bytes) -> Digraph:
    """Parse the line-oriented graph format into a validated Digraph.

    Format::

        dmdst 1
        <n> <m> <sink>
        <u> <v>        (m lines, one directed edge u -> v each)

    Lines starting with '#' are comments; blank lines and trailing
    whitespace are tolerated.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows or rows[0][1] != MAGIC:
        lineno = rows[0][0] if rows else 1
        raise MalformedHeader(f"expected magic line {MAGIC!r}", lineno)
    if len(rows) < 2:
        raise MalformedHeader("missing '<n> <m> <sink>' header line", rows[0][0])
    lineno, header = rows[1]
    parts = header.split()
    if len(parts) != 3:
        raise MalformedHeader(f"expected '<n> <m> <sink>', got {header!r}", lineno)
    try:
        n, m, sink = (int(p) for p in parts)
    except ValueError:
        raise MalformedHeader(f"non-integer header field in {header!r}", lineno)
    if n < 1:
        raise MalformedHeader(f"vertex count must be >= 1, got {n}", lineno)
    if not 0 <= sink < n:
        raise VertexOutOfRange(f"sink {sink} out of range for n={n}", lineno)
    edge_rows = rows[2:]
    if len(edge_rows) != m:
        raise MalformedHeader(
            f"header promises {m} edges but file has {len(edge_rows)}", lineno
        )
    # Digraph checks each edge (range, self-loop, duplicate) as it consumes
    # this generator, so a failed check belongs to the line read last.
    current = lineno

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal current
        for current, line in edge_rows:
            parts = line.split()
            if len(parts) != 2:
                raise MalformedHeader(f"expected '<u> <v>', got {line!r}", current)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedHeader(f"non-integer edge field in {line!r}", current)
            yield u, v

    try:
        return Digraph(n, sink, edges())
    except (VertexOutOfRange, SelfLoop, DuplicateEdge) as exc:
        raise type(exc)(str(exc), current) from None


def serialize_graph(g: Digraph) -> str:
    """Canonical text form; parse(serialize(g)) reproduces g exactly."""
    lines = [MAGIC, f"{g.n} {g.m} {g.sink}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Digraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g))

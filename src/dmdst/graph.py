"""Directed graphs with a designated sink, plus the text file format.

Vertices are dense 0-based integers.  An edge u -> v means "u may choose v
as its parent", so spanning in-trees toward the sink are assembled from
parent choices along these edges.  Every Digraph, built or parsed, is
checked to reach the sink from all vertices; one that does not raises
SinkUnreachable, whose vertices name the stranded ones.

Both ways in, Digraph(n, sink, edges) and parse_graph, go through one
builder over two int columns, whose range, self-loop and duplicate checks
run in bulk, before the reachability check.  parse_graph reads text in
the canonical form that serialize_graph writes in bulk (one json call for
the whole body), also when comment lines, blank lines, trailing
whitespace or CRLF line endings surround it, and any other text line by
line; an invalid file raises the same error type on the same line either
way.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from typing import Iterable, Iterator, Sequence

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
    """Immutable directed graph. Adjacency lists keep insertion order.

    sink_parent is the parent array of the reachability check's sink BFS
    (sink_bfs), kept so that the start tree needs no second walk.
    """

    __slots__ = ("n", "m", "sink", "out_edges", "out_sets", "rev_edges", "sink_parent")

    def __init__(self, n: int, sink: int, edges: Iterable[tuple[int, int]]) -> None:
        pairs = list(edges)
        self._build(n, sink, [u for u, _ in pairs], [v for _, v in pairs], None)

    def _build(
        self,
        n: int,
        sink: int,
        us: Sequence[int],
        vs: Sequence[int],
        lines: Sequence[int] | None,
    ) -> None:
        """The one edge builder, over the edge columns us[i] -> vs[i].

        Range, self-loop and duplicate checks run in bulk; only when one
        fails does _edge_fault scan the edges in order for the first
        offending one, so the error is the one a check of each edge in turn
        would raise (on line lines[i] for edge i, when lines are given).
        A graph that passes them then has its sink BFS walked, which raises
        SinkUnreachable on any vertex it leaves stranded.
        """
        if n < 1:
            raise MalformedHeader(f"vertex count must be >= 1, got {n}")
        if not 0 <= sink < n:
            raise VertexOutOfRange(f"sink {sink} out of range for n={n}")
        m = len(us)
        # Before any indexing: a negative vertex would wrap around silently.
        if m and (min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n):
            raise _edge_fault(n, us, vs, lines)
        out: list[list[int]] = [[] for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(us, vs):
            out[u].append(v)
            rev[v].append(u)
        # Through set(): a frozenset copied from a set gets a table sized to
        # it, while one grown from a list can take twice the memory.
        out_sets = tuple(map(frozenset, map(set, out)))
        # A self-loop puts u in its own out-set; a repeated edge leaves a
        # set smaller than its list.
        if (
            any(map(frozenset.__contains__, out_sets, range(n)))
            or sum(map(len, out_sets)) != m
        ):
            raise _edge_fault(n, us, vs, lines)
        self.n = n
        self.m = m
        self.sink = sink
        self.out_edges = tuple(map(tuple, out))
        self.out_sets = out_sets
        self.rev_edges = tuple(map(tuple, rev))
        parent, stranded = sink_bfs(self)
        if stranded:
            raise SinkUnreachable(stranded)
        self.sink_parent: tuple[int | None, ...] = tuple(parent)

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


def _edge_fault(
    n: int, us: Sequence[int], vs: Sequence[int], lines: Sequence[int] | None
) -> GraphFormatError | None:
    """The first edge, in order, that is out of range, a self-loop or a
    repeat, as the error checking it raises (checked in that order)."""
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(zip(us, vs)):
        if not (0 <= u < n and 0 <= v < n):
            kind, message = VertexOutOfRange, f"edge ({u}, {v}) out of range for n={n}"
        elif u == v:
            kind, message = SelfLoop, f"self-loop at vertex {u}"
        elif (u, v) in seen:
            kind, message = DuplicateEdge, f"duplicate edge ({u}, {v})"
        else:
            seen.add((u, v))
            continue
        return kind(message, None if lines is None else lines[i])
    return None


def sink_bfs(g: Digraph) -> tuple[list[int | None], list[int]]:
    """Breadth-first parents toward the sink over reversed edges, and the
    vertices the walk never reached (ascending; empty on a valid graph).

    parent[v] is v's BFS predecessor, deterministic given the graph's edge
    order, and None at the sink and at unreached vertices.  Parents are set
    on first visit only, so the walk stops once every vertex is seen, which
    on a dense graph is after a few edge lists.
    """
    n, sink = g.n, g.sink
    parent: list[int | None] = [None] * n
    parent[sink] = sink  # marks the sink seen during the walk
    left = n - 1
    queue = deque([sink])
    while queue and left:
        v = queue.popleft()
        for u in g.rev_edges[v]:
            if parent[u] is None:
                parent[u] = v
                left -= 1
                queue.append(u)
    parent[sink] = None
    if not left:
        return parent, []
    return parent, [v for v in range(n) if parent[v] is None and v != sink]


def parse_graph(text: str | bytes) -> Digraph:
    """Parse the line-oriented graph format into a validated Digraph.

    Format::

        dmdst 1
        <n> <m> <sink>
        <u> <v>        (m lines, one directed edge u -> v each)

    Lines starting with '#' are comments; blank lines and trailing
    whitespace are tolerated.

    Text exactly in the canonical form serialize_graph writes is read in
    bulk.  Otherwise the comment and blank lines are dropped and trailing
    whitespace (CRLF's '\r' too) is stripped, keeping each remaining
    line's original number; if what remains is canonical, it is read in
    bulk as well, and anything else is read line by line.  Each way feeds
    the same builder, and an invalid file raises the same error on the
    same line whichever way reads it.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    columns = _canonical_columns(text)
    if columns is None:
        numbers, content = _content_lines(text)
        columns = _canonical_columns(content, numbers) or _line_columns(numbers, content)
    n, sink, us, vs, edge_lines = columns
    g = Digraph.__new__(Digraph)
    g._build(n, sink, us, vs, edge_lines)
    return g


def _content_lines(text: str) -> tuple[Sequence[int], str]:
    """Every line of text that is neither blank nor a comment ('#' after
    optional whitespace), trailing whitespace stripped and each ending in
    a newline, with the number of each in text, counted from 1 as
    str.splitlines splits it.

    The lines are split, stripped and joined again at C speed; only the
    lines to drop are then looked at one by one: in the join, a blank line
    is an empty segment and a comment holds a '#', and str.find reaches
    both.
    """
    joined = "\n".join(map(str.rstrip, text.splitlines())) + "\n"
    dropped = [0] if joined[0] == "\n" else []
    p = joined.find("\n\n")
    while p >= 0:
        dropped.append(p + 1)
        p = joined.find("\n\n", p + 1)
    p = joined.find("#")
    while p >= 0:
        start = joined.rfind("\n", 0, p) + 1
        if not joined[start:p].strip():
            dropped.append(start)
        p = joined.find("#", joined.find("\n", p))
    if not dropped:
        return range(1, joined.count("\n") + 1), joined
    dropped.sort()
    numbers: list[int] = []
    kept: list[str] = []
    pos, line = 0, 1
    for start in dropped:
        skipped = line + joined.count("\n", pos, start)
        numbers.extend(range(line, skipped))
        kept.append(joined[pos:start])
        pos, line = joined.index("\n", start) + 1, skipped + 1
    numbers.extend(range(line, line + joined.count("\n", pos)))
    kept.append(joined[pos:])
    return numbers, "".join(kept)


def _read_header(header: str, lineno: int) -> tuple[int, int, int]:
    """n, m and sink from the '<n> <m> <sink>' line, checked."""
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
    return n, m, sink


_Columns = tuple[int, int, Sequence[int], Sequence[int], Sequence[int]]

# Line numbers of text read as it stands: line i is line i.
_EVERY_LINE = range(1, sys.maxsize)


def _canonical_columns(text: str, numbers: Sequence[int] = _EVERY_LINE) -> _Columns | None:
    """(n, sink, us, vs, lines) of text in serialize_graph's exact form,
    else None.

    The body must be m lines of two ASCII digit runs joined by one space,
    each ending in a newline; json then converts it in one call, and
    rejects leading zeros (those files take the line path).  Line i of
    text is line numbers[i - 1] of the file, so edge i is on line
    numbers[i + 2].
    """
    magic, _, rest = text.partition("\n")
    header, newline, body = rest.partition("\n")
    fields = header.split(" ")
    if not (
        magic == MAGIC
        and newline
        and len(fields) == 3
        and all(f.isascii() and f.isdigit() for f in fields)
    ):
        return None
    n, m, sink = _read_header(header, numbers[1])
    if not body.isascii():
        return None
    skeleton = body.encode("ascii").translate(None, b"0123456789")
    if len(skeleton) != 2 * m or skeleton != b" \n" * m:
        return None
    try:
        nums = json.loads("[" + body.replace("\n", ",").replace(" ", ",")[:-1] + "]")
    except ValueError:
        return None
    return n, sink, nums[0::2], nums[1::2], numbers[2 : m + 2]


def _line_columns(numbers: Sequence[int], content: str) -> _Columns:
    """(n, sink, us, vs, lines) of any file, read line by line from its
    content lines and their numbers (_content_lines)."""
    rows = list(zip(numbers, content.split("\n")[:-1]))
    if not rows or rows[0][1] != MAGIC:
        lineno = rows[0][0] if rows else 1
        raise MalformedHeader(f"expected magic line {MAGIC!r}", lineno)
    if len(rows) < 2:
        raise MalformedHeader("missing '<n> <m> <sink>' header line", rows[0][0])
    lineno, header = rows[1]
    n, m, sink = _read_header(header, lineno)
    edge_rows = rows[2:]
    if len(edge_rows) != m:
        raise MalformedHeader(
            f"header promises {m} edges but file has {len(edge_rows)}", lineno
        )
    us: list[int] = []
    vs: list[int] = []
    lines: list[int] = []
    for lineno, line in edge_rows:
        parts = line.split()
        try:
            u, v = map(int, parts)
        except ValueError:
            if len(parts) != 2:
                error = f"expected '<u> <v>', got {line!r}"
            else:
                error = f"non-integer edge field in {line!r}"
            # An edge above this line that fails a graph check comes first.
            raise _edge_fault(n, us, vs, lines) or MalformedHeader(error, lineno)
        us.append(u)
        vs.append(v)
        lines.append(lineno)
    return n, sink, us, vs, lines


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

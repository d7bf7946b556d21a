"""Directed graphs with a designated sink, plus the text file format.

Vertices are dense 0-based integers.  An edge u -> v means "u may choose v
as its parent", so spanning in-trees toward the sink are assembled from
parent choices along these edges.  Every Digraph, built or parsed, is
checked to reach the sink from all vertices; one that does not raises
SinkUnreachable, whose vertices name the stranded ones.

Both ways in, Digraph(n, sink, edges) and parse_graph, go through one
builder over one flat int list [u0, v0, u1, v1, ...].  The builder fills
each adjacency list once, and that fill is its range check: an id of n
or more fails to index.  Its self-loop and duplicate checks then run in
bulk, before the reachability check.  A negative id would index from the
end of a list, so each producer that can make one screens for it first:
the constructor and the line reader do; canonical text, digits only, has
no sign.  A Digraph keeps the out-lists, their frozensets and the sink
BFS parents; the reverse lists live only for that BFS and are dropped
after it.  parse_graph has two readers: text in the canonical form that
serialize_graph writes is read in bulk (one json call for the whole
body), and any other text, annotated text with comment lines, blank
lines, trailing whitespace or CRLF line endings included, line by line;
an invalid file raises the same error type on the same line either way.
Both read the header through one check, which also rejects a header
promising fewer than n - 1 edges: those cannot reach the sink from every
vertex, and rejecting them there costs nothing n-sized.
"""

from __future__ import annotations

import json
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

    A Digraph holds what the solvers and verify read: out_edges[u], the
    list of u's out-neighbours; out_sets[u], the same as a frozenset; and
    sink_parent, the parent array of the reachability check's sink BFS,
    kept so that the start tree needs no second walk.  The out-lists are
    the ones the builder filled, not copies: nothing mutates them.  The
    reverse lists exist only while the sink BFS walks them.

    Digraph(n, sink, edges) takes edges from code, so it checks n and the
    sink and screens the edge ids whole (their types, then min and max)
    before building; a parsed graph comes from _build alone, its reader
    having checked the header and screened out what the fill cannot catch.
    """

    __slots__ = ("n", "m", "sink", "out_edges", "out_sets", "sink_parent")

    def __init__(self, n: int, sink: int, edges: Iterable[tuple[int, int]]) -> None:
        flat: list[int] = []
        push = flat.append
        for u, v in edges:
            push(u)
            push(v)
        if n < 1:
            raise MalformedHeader(f"vertex count must be >= 1, got {n}")
        if not 0 <= sink < n:
            raise VertexOutOfRange(f"sink {sink} out of range for n={n}")
        # Ids must be ints: a float or a str fails the builder's fill with a
        # bare TypeError, and a bool would be read as vertex 0 or 1.
        if not set(map(type, flat)) <= {int}:
            i = next(i for i, x in enumerate(flat) if type(x) is not int) & ~1
            raise GraphFormatError(
                f"edge ({flat[i]!r}, {flat[i + 1]!r}): vertex ids must be ints"
            )
        # A negative id would wrap around in the builder's fill.
        if flat and (min(flat) < 0 or max(flat) >= n):
            raise _edge_fault(n, flat, None)
        self._build(n, sink, flat, None)

    def _build(
        self, n: int, sink: int, flat: Sequence[int], lines: Sequence[int] | None
    ) -> None:
        """The one edge builder, over the edges flat[2i] -> flat[2i + 1].

        It takes n >= 1, a sink in range and ids that are non-negative
        ints: each producer checks its header and screens out negative ids
        first, since a negative id would index from the end of a list.
        The fill loop is the range check: an id of n or more, however
        large, raises IndexError there.  That and the self-loop and
        duplicate checks run in bulk; only when one fails does _edge_fault
        scan the edges in order for the first offending one, so the error
        is the one a check of each edge in turn would raise (on line
        lines[i] for edge i, when lines are given).  A graph that passes
        them then has its sink BFS walked, which raises SinkUnreachable on
        any vertex it leaves stranded.
        """
        m = len(flat) // 2
        out: list[list[int]] = [[] for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        pairs = iter(flat)
        try:
            for u, v in zip(pairs, pairs):
                out[u].append(v)
                rev[v].append(u)
        except IndexError:
            raise _edge_fault(n, flat, lines) from None
        # Straight from the lists, in half the time of a copy through set().
        # Up to 8 vertices both come out the same size; above that either
        # can take twice the memory of the other (70 vertices: 2.3 KB from
        # the list, 4.3 KB through set(); 399 vertices: 33.0 KB, 16.6 KB).
        out_sets = tuple(map(frozenset, out))
        # A self-loop puts u in its own out-set; a repeated edge leaves a
        # set smaller than its list.
        if (
            any(map(frozenset.__contains__, out_sets, range(n)))
            or sum(map(len, out_sets)) != m
        ):
            raise _edge_fault(n, flat, lines)
        parent, stranded = sink_bfs(rev, sink)
        if stranded:
            raise SinkUnreachable(stranded)
        self.n = n
        self.m = m
        self.sink = sink
        self.out_edges: list[list[int]] = out
        self.out_sets = out_sets
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
        # Equal graphs have equal n, m and sink.
        return hash((self.n, self.m, self.sink))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m}, sink={self.sink})"


def _edge_fault(
    n: int, flat: Sequence[int], lines: Sequence[int] | None
) -> GraphFormatError | None:
    """The first edge, in order, that is out of range, a self-loop or a
    repeat, as the error checking it raises (checked in that order)."""
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(zip(flat[0::2], flat[1::2])):
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


def sink_bfs(rev: Sequence[list[int]], sink: int) -> tuple[list[int | None], list[int]]:
    """Breadth-first parents toward the sink over the reverse lists rev
    (rev[v] holds every u with an edge u -> v, in any order), and the
    vertices the walk never reached (ascending; empty on a valid graph).

    Each in-list is walked in ascending tail order (sorted in place when
    the walk reaches it), so parent[v], v's BFS predecessor, depends only
    on the graph's edge set: graphs that compare equal get the same
    parents, whatever order their edges came in.  parent is None at the
    sink and at unreached vertices.  Parents are set on first visit only,
    so the walk stops once every vertex is seen, which on a dense graph is
    after a few edge lists.
    """
    n = len(rev)
    parent: list[int | None] = [None] * n
    parent[sink] = sink  # marks the sink seen during the walk
    # Every vertex seen, in order; the loop reads it as a FIFO queue and
    # also visits what its own body appends.
    seen = [sink]
    for v in seen:
        if len(seen) == n:
            break
        tails = rev[v]
        if len(tails) > 1:
            tails.sort()
        for u in tails:
            if parent[u] is None:
                parent[u] = v
                seen.append(u)
    parent[sink] = None
    if len(seen) == n:
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
    bulk; any other text, comments, blank lines, trailing whitespace and
    CRLF line endings included, is read line by line.  Both readers feed
    the same builder, and an invalid file raises the same error on the
    same line whichever reads it.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n, sink, flat, edge_lines = _canonical_columns(text) or _line_columns(text)
    g = Digraph.__new__(Digraph)
    g._build(n, sink, flat, edge_lines)
    return g


def _read_header(header: str, lineno: int) -> tuple[int, int, int]:
    """n, m and sink from the '<n> <m> <sink>' line, checked: n >= 1, the
    sink in range and m >= n - 1."""
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
    # Every vertex but the sink needs an out-edge to reach it.  Checked
    # here, before anything n long is built, so a header with a huge n and
    # few edges fails at once and names no stranded vertices.
    if m < n - 1:
        raise MalformedHeader(
            f"{n} vertices need at least {n - 1} edges to reach the sink, header promises {m}",
            lineno,
        )
    return n, m, sink


# (n, sink, flat, lines): edge i is flat[2i] -> flat[2i + 1], on line lines[i].
_Columns = tuple[int, int, Sequence[int], Sequence[int]]


def _canonical_columns(text: str) -> _Columns | None:
    """(n, sink, flat, lines) of text in serialize_graph's exact form,
    else None.

    The body must be m lines of two ASCII digit runs joined by one space,
    each ending in a newline; json then converts it in one call, and
    rejects leading zeros (those files take the line path), and its one
    list [u0, v0, u1, v1, ...] goes to the builder as it is.  Edge i is
    on line i + 3.
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
    n, m, sink = _read_header(header, 2)
    if not body.isascii():
        return None
    skeleton = body.encode("ascii").translate(None, b"0123456789")
    if len(skeleton) != 2 * m or skeleton != b" \n" * m:
        return None
    try:
        nums = json.loads("[" + body.replace("\n", ",").replace(" ", ",")[:-1] + "]")
    except ValueError:
        return None
    return n, sink, nums, range(3, m + 3)


def _line_columns(text: str) -> _Columns:
    """(n, sink, flat, lines) of any file, read line by line.

    Lines are split where str.splitlines splits them and counted from 1;
    each is stripped of trailing whitespace, and the blank ones and the
    comments ('#' after optional whitespace) are skipped.  int() reads a
    sign, so this is the one reader that can yield a negative id, and one
    min over the ids screens for it (raising the first edge fault in file
    order); ids of n and above are left to the builder's fill."""
    rows = [
        (lineno, line)
        for lineno, line in enumerate(map(str.rstrip, text.splitlines()), 1)
        if line and not line.lstrip().startswith("#")
    ]
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
    flat: list[int] = []
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
            raise _edge_fault(n, flat, lines) or MalformedHeader(error, lineno)
        flat.append(u)
        flat.append(v)
        lines.append(lineno)
    if flat and min(flat) < 0:
        raise _edge_fault(n, flat, lines)
    return n, sink, flat, lines


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

import pytest
from hypothesis import given, strategies as st

from dmdst import (
    Digraph, gen_blocker, gen_complete, gen_instar, gen_path, gen_random,
    parse_graph, serialize_graph,
)
from dmdst import graph as graph_module
from dmdst.graph import (
    DuplicateEdge,
    GraphFormatError,
    MalformedHeader,
    SelfLoop,
    SinkUnreachable,
    VertexOutOfRange,
    sink_bfs,
)

from conftest import full_bfs_parents

PATH3 = "dmdst 1\n3 2 0\n1 0\n2 1\n"


def test_parse_minimal_path():
    g = parse_graph(PATH3)
    assert (g.n, g.m, g.sink) == (3, 2, 0)
    assert g.out_edges[1] == [0]
    assert g.out_edges[2] == [1]


def test_parse_rejects_self_loop():
    with pytest.raises(SelfLoop):
        parse_graph("dmdst 1\n2 1 0\n1 1\n")


def test_parse_rejects_unreachable_vertex():
    # n - 1 edges, so the header check passes and the sink BFS strands 2
    with pytest.raises(SinkUnreachable) as info:
        parse_graph("dmdst 1\n3 2 0\n1 0\n0 1\n")
    assert info.value.vertices == (2,)


@pytest.mark.parametrize("text, line", [
    ("dmdst 1\n3 1 0\n1 0\n", 2),
    ("dmdst 1\n1000000 0 0\n", 2),
    ("# c\ndmdst 1\n\n4 2 0  \n1 0\n2 0\n", 4),
])
def test_parse_rejects_header_with_fewer_than_n_minus_one_edges(text, line):
    """Fewer than n - 1 edges strand a vertex whatever they are: both
    readers reject the header before reading an edge."""
    with pytest.raises(MalformedHeader, match="edges to reach the sink, header promises") as info:
        parse_graph(text)
    assert info.value.line == line


def test_parse_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        parse_graph("dmdst 1\n3 3 0\n1 0\n2 1\n1 0\n")


def test_parse_rejects_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange):
        parse_graph("dmdst 1\n3 2 0\n1 0\n5 1\n")


def test_parse_rejects_bad_header():
    with pytest.raises(MalformedHeader):
        parse_graph("dmdst 2\n3 2 0\n1 0\n2 1\n")
    with pytest.raises(MalformedHeader):
        parse_graph("dmdst 1\n3 0\n")
    with pytest.raises(MalformedHeader):
        parse_graph("dmdst 1\n3 5 0\n1 0\n2 1\n")


@pytest.mark.parametrize("text, line, message", [
    ("dmdst 1\n3 two 0\n1 0\n2 1\n", 2, "non-integer header field in '3 two 0'"),
    ("dmdst 1\n0 0 0\n", 2, "vertex count must be >= 1, got 0"),
    ("dmdst 1\n# no header follows\n", 1, "missing '<n> <m> <sink>' header line"),
])
def test_parse_rejects_malformed_header_line(text, line, message):
    with pytest.raises(MalformedHeader) as info:
        parse_graph(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_parse_reports_offending_line():
    with pytest.raises(SelfLoop) as info:
        parse_graph("dmdst 1\n# comment\n2 1 0\n1 1\n")
    assert info.value.line == 4
    with pytest.raises(DuplicateEdge) as info:
        parse_graph("dmdst 1\n3 3 0\n1 0\n\n2 1\n1 0\n")
    assert info.value.line == 6
    assert str(info.value) == "line 6: duplicate edge (1, 0)"
    with pytest.raises(VertexOutOfRange) as info:
        parse_graph("dmdst 1\n3 2 0\n1 0\n5 1\n")
    assert info.value.line == 4
    # one line too long and one too short, together as many numbers as
    # two edges
    with pytest.raises(MalformedHeader) as info:
        parse_graph("dmdst 1\n3 2 0\n2 1 0\n1\n")
    assert info.value.line == 3
    # A graph fault above a malformed line comes first, and vice versa.
    with pytest.raises(SelfLoop) as info:
        parse_graph("dmdst 1\n3 3 0\n1 1\n2 1 7\n2 0\n")
    assert info.value.line == 3
    with pytest.raises(MalformedHeader) as info:
        parse_graph("dmdst 1\n3 3 0\n2 1 7\n1 1\n2 0\n")
    assert info.value.line == 3


@pytest.mark.parametrize(
    "text, kind, line, message",
    [
        ("dmdst 1\n3 2 0\n1 1\n2 1\n", SelfLoop, 3, "self-loop at vertex 1"),
        ("dmdst 1\n3 3 0\n1 0\n2 1\n1 0\n", DuplicateEdge, 5, "duplicate edge (1, 0)"),
        ("dmdst 1\n3 2 0\n1 0\n9 1\n", VertexOutOfRange, 4, "edge (9, 1) out of range for n=3"),
        # several faults: the first edge in file order decides, range first
        ("dmdst 1\n3 3 0\n1 0\n1 0\n9 9\n", DuplicateEdge, 4, "duplicate edge (1, 0)"),
        ("dmdst 1\n3 3 0\n1 0\n9 9\n1 0\n", VertexOutOfRange, 4, "edge (9, 9) out of range for n=3"),
        ("dmdst 1\n3 2 0\n1 0\n2 2\n", SelfLoop, 4, "self-loop at vertex 2"),
    ],
)
def test_parse_reports_offending_line_in_canonical_text(text, kind, line, message):
    assert graph_module._canonical_columns(text) is not None
    with pytest.raises(kind) as info:
        parse_graph(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def rewrite_as_lines(text: str, comment_every: int, inner_tabs: bool = True) -> tuple[str, dict[int, int]]:
    """The same file with comments, blank lines, trailing spaces and tabs,
    CRLF and no final newline, which take it off the canonical form and
    so to the line reader; with inner_tabs, each edge line also gets a tab
    inside.  Also returns the new line number of each original line."""
    out: list[str] = ["# leading comment", ""]
    line_of: dict[int, int] = {}
    for i, line in enumerate(text.split("\n")[:-1], start=1):
        if i % comment_every == 0:
            out.extend(["  # a comment", "\t"])
        line_of[i] = len(out) + 1
        if inner_tabs and i != 1:
            line = line.replace(" ", "\t ", 1)
        out.append(line + " \t")
    return "\r\n".join(out), line_of


def parse_outcome(text: str, line_of: dict[int, int] | None = None):
    """("ok", fields) or (error type, line), the line mapped through line_of."""
    try:
        g = parse_graph(text)
    except GraphFormatError as exc:
        line = exc.line if line_of is None or exc.line is None else line_of[exc.line]
        return type(exc), line
    return "ok", (g.n, g.m, g.sink, g.out_edges, g.out_sets, g.sink_parent)


@given(st.integers(4, 40), st.integers(0, 60), st.integers(0, 10 ** 6), st.integers(1, 7))
def test_tokenizers_agree_on_valid_graphs(n, extra, seed, comment_every):
    g = gen_random(n, min(extra, (n - 1) ** 2), seed)
    text = serialize_graph(g)
    lined, _ = rewrite_as_lines(text, comment_every)
    annotated, _ = rewrite_as_lines(text, comment_every, inner_tabs=False)
    assert graph_module._canonical_columns(text) is not None
    assert graph_module._canonical_columns(lined) is None
    assert parse_outcome(text) == parse_outcome(lined) == parse_outcome(annotated)
    assert parse_graph(text) == g


def inject(text: str, fault: str, pick: int) -> str:
    """Canonical text with one fault on an edge line (or the header)."""
    lines = text.split("\n")
    n, m, sink = map(int, lines[1].split())
    edges = len(lines) - 3  # m, unless a count fault changed the header
    j = 2 + pick % edges
    parts = lines[j].split()
    u, v = parts[0], parts[-1]
    lines[j] = {
        "range": f"{u} {n + pick % 3}",
        "negative": f"-1 {v}",
        "self-loop": f"{u} {u}",
        "duplicate": lines[2 + (pick // 7) % edges],
        "one-token": u,
        "three-token": f"{u} {v} {v}",
        "zero-padded": f"00{u} {v}",
        "plus-sign": f"+{u} {v}",
        "arabic-indic": f"{u} {v}".replace("1", "\u0661"),
        "superscript": f"{u} {v}".replace("2", "\u00b2"),
        "inline-hash": f"{u} {v} # not a comment",
    }.get(fault, lines[j])
    if fault == "count":
        lines[1] = f"{n} {m + (1 if pick % 2 else -1)} {sink}"
    return "\n".join(lines)


FAULTS = [
    "range", "negative", "self-loop", "duplicate", "one-token", "three-token",
    "count", "zero-padded", "plus-sign", "arabic-indic", "superscript",
    "inline-hash",
]


@given(
    st.integers(4, 20), st.integers(0, 30), st.integers(0, 10 ** 6),
    st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 10 ** 6)), min_size=1, max_size=3),
)
def test_tokenizers_agree_on_faulted_text(n, extra, seed, faults):
    text = serialize_graph(gen_random(n, min(extra, (n - 1) ** 2), seed))
    for fault, pick in faults:
        text = inject(text, fault, pick)
    for inner_tabs in (True, False):
        lined, line_of = rewrite_as_lines(text, 3, inner_tabs)
        assert parse_outcome(text, line_of) == parse_outcome(lined)


@pytest.mark.parametrize(
    "end", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\r\n", " \n", "\t\n", "\x1f\n"]
)
def test_lines_end_where_splitlines_ends_them(end):
    """Every line break str.splitlines knows ends a line, and trailing
    whitespace is stripped, also in text that ends in a newline."""
    assert parse_graph(end.join(["dmdst 1", "3 2 0", "1 0", "2 1"]) + "\n") == parse_graph(PATH3)
    with pytest.raises(DuplicateEdge) as info:
        parse_graph(end.join(["# c", "dmdst 1", "3 3 0", "1 0", "2 1", "1 0"]) + "\n")
    assert info.value.line == 6


def test_a_hash_after_an_edge_is_not_a_comment():
    with pytest.raises(MalformedHeader) as info:
        parse_graph("# c\ndmdst 1\n3 2 0\n1 0 # note\n2 1\n")
    assert info.value.line == 4


def test_annotated_canonical_text_parses_as_canonical(corpus_results):
    """Comments, blank lines, trailing whitespace and CRLF around canonical
    text leave the graph the same."""
    results, _ = corpus_results
    for s in results:
        text = serialize_graph(s.g)
        variants = [
            "# a comment\n" + text,
            text.replace("\n", "\r\n"),
            text.replace("\n", "\n \n\n"),
            "\n  \n" + text.replace("\n", "\n# between\n", 3) + "  # trailing\n\n",
            rewrite_as_lines(text, 2, inner_tabs=False)[0],
        ]
        for variant in variants:
            assert parse_outcome(variant) == parse_outcome(text), (s.name, variant)


@pytest.mark.parametrize(
    "text, kind, line",
    [
        ("# c\ndmdst 1\n3 3 0\n1 0\n# c\n2 1\n1 0\n", DuplicateEdge, 7),
        ("dmdst 1\r\n3 2 0\r\n\r\n  # c\r\n1 0\r\n5 1\r\n", VertexOutOfRange, 6),
        ("dmdst 1\n# c\n\n3 2 0  \n2 2\n1 0\n", SelfLoop, 5),
        ("# c\ndmdst 1\n\n3 2 5\n1 0\n2 1\n", VertexOutOfRange, 4),
    ],
)
def test_fault_below_a_comment_reports_its_original_line(text, kind, line):
    with pytest.raises(kind) as info:
        parse_graph(text)
    assert info.value.line == line


def test_comments_and_whitespace_tolerated():
    text = "# header comment\ndmdst 1\n3 2 0   \n# mid comment\n1 0\n2 1  \n"
    assert parse_graph(text) == parse_graph(PATH3)
    # a canonical magic line followed by a header that is not on line 2
    for text in ("dmdst 1\n# a b\n3 2 0\n1 0\n2 1\n", "dmdst 1\n  \n3 2 0\n1 0\n2 1\n"):
        assert parse_graph(text) == parse_graph(PATH3)


def test_roundtrip_path_is_byte_identical():
    g = parse_graph(PATH3)
    assert serialize_graph(g) == PATH3


def test_roundtrip_degenerate_single_vertex():
    g = Digraph(1, 0, [])
    assert serialize_graph(g) == "dmdst 1\n1 0 0\n"
    assert parse_graph(serialize_graph(g)) == g


def test_roundtrip_generator_instance():
    g = gen_random(50, 60, 42)
    text = serialize_graph(g)
    again = parse_graph(text)
    assert again == g
    assert serialize_graph(again) == text


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: gen_random(1, 0, 0), id="random-n1"),
        pytest.param(lambda: gen_path(1), id="path-n1"),
        pytest.param(lambda: gen_instar(1), id="instar-n1"),
        pytest.param(lambda: gen_complete(1), id="complete-n1"),
        pytest.param(lambda: gen_random(50, 60, 42), id="random-n50"),
        pytest.param(lambda: gen_random(1200, 3600, 7), id="random-n1200"),
        pytest.param(lambda: gen_complete(40), id="complete-n40"),
        pytest.param(lambda: gen_instar(120), id="instar-n120"),
        pytest.param(lambda: gen_path(120), id="path-n120"),
        pytest.param(lambda: gen_blocker(4, 3, 1), id="blocker-k4"),
        pytest.param(lambda: gen_blocker(25, 30, 2), id="blocker-k25"),
    ],
)
def test_generator_text_is_read_in_bulk(make):
    """Every generator's text is in canonical form, which the bulk reader
    takes, and it reads the same columns as the line reader: a generator
    whose text missed the form would send every parse of it line by line."""
    text = serialize_graph(make())
    bulk = graph_module._canonical_columns(text)
    assert bulk is not None
    n, sink, flat, lines = bulk
    assert (n, sink, list(flat), list(lines)) == graph_module._line_columns(text)


@given(st.integers(0, 10 ** 6))
def test_roundtrip_structural_over_seeds(seed):
    g = gen_random(4 + seed % 8, (seed // 7) % 10, seed)
    assert parse_graph(serialize_graph(g)) == g


def test_unreachable_set_empty_on_valid_graph():
    g = parse_graph(PATH3)
    assert sink_bfs([[1], [2], []], 0) == ([None, 0, 1], [])
    assert g.sink_parent == (None, 0, 1)


def test_unreachable_set_names_isolated_vertex():
    with pytest.raises(SinkUnreachable) as info:
        Digraph(3, 0, [(1, 0)])
    assert info.value.vertices == (2,)


@pytest.mark.parametrize(
    "n, edges, stranded",
    [
        # the last vertex, behind a complete graph the walk finishes early on
        (5, [(u, v) for u in range(4) for v in range(4) if u != v] + [(0, 4), (1, 4)], 4),
        # the only vertex besides the sink
        (2, [(0, 1)], 1),
        (4, [(1, 0), (3, 0), (0, 2), (3, 2)], 2),
    ],
)
def test_unreachable_names_stranded_vertex(n, edges, stranded):
    with pytest.raises(SinkUnreachable, match=rf"vertices \[{stranded}\]$") as info:
        Digraph(n, 0, edges)
    assert info.value.vertices == (stranded,)


def edge_by_edge_fault(n: int, edges: list[tuple[int, int]]):
    """The builder's checks as first written, one edge at a time: range,
    then self-loop, then repeat.  (type, message) of the first fault."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return VertexOutOfRange, f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return SelfLoop, f"self-loop at vertex {u}"
        if (u, v) in seen:
            return DuplicateEdge, f"duplicate edge ({u}, {v})"
        seen.add((u, v))
    return None


def builder_outcome(n: int, edges: list[tuple[int, int]]):
    """The builder's edge fault, or None when there is none: reachability
    is checked after the edge checks, so SinkUnreachable means none."""
    try:
        Digraph(n, 0, edges)
    except SinkUnreachable:
        return None
    except GraphFormatError as exc:
        assert exc.line is None
        return type(exc), str(exc)
    return None


FAULTED_EDGES = [
    ([(1, 0), (1, 1), (9, 0)], SelfLoop),
    ([(1, 0), (9, 0), (1, 1)], VertexOutOfRange),
    ([(1, 0), (2, 0), (1, 0), (2, 2), (-1, 0)], DuplicateEdge),
    ([(2, 1), (-1, 0), (1, 0), (1, 0)], VertexOutOfRange),
    # a second edge makes n - 1, so the readers get past the header
    ([(9, 9), (1, 0)], VertexOutOfRange),
    ([(1, 0), (2, 1), (2, 2), (1, 0)], SelfLoop),
    # wrapped around, -1 would be vertex 2 and the graph valid
    ([(1, 0), (-1, 1)], VertexOutOfRange),
]


@pytest.mark.parametrize("edges, kind", FAULTED_EDGES)
def test_builder_raises_first_fault_in_order(edges, kind):
    assert builder_outcome(3, edges) == edge_by_edge_fault(3, edges)
    assert builder_outcome(3, edges)[0] is kind


@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=14),
)
def test_builder_matches_edge_by_edge_checks(n, edges):
    assert builder_outcome(n, edges) == edge_by_edge_fault(n, edges)


@given(st.integers(0, 10 ** 6))
def test_generator_output_always_reaches_sink(seed):
    n = 3 + seed % 7
    g = gen_random(n, min(seed % 9, (n - 1) ** 2), seed)
    assert full_bfs_parents(g).count(None) == 1


def test_out_edges_clean_after_parse():
    g = gen_random(30, 40, 7)
    for u in range(g.n):
        row = g.out_edges[u]
        assert len(set(row)) == len(row)
        assert u not in row


@st.composite
def reachable_digraphs(draw):
    """(n, sink, edges): a digraph on 1..12 vertices, any sink, that every
    vertex reaches (each vertex has an edge to one placed before it in a
    random order that starts at the sink), its edges in random order."""
    n = draw(st.integers(1, 12))
    sink = draw(st.integers(0, n - 1))
    order = [sink] + draw(st.permutations([v for v in range(n) if v != sink]))
    edges = {(v, order[draw(st.integers(0, i - 1))]) for i, v in enumerate(order) if i}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(u, v) for u, v in draw(st.sets(pairs, max_size=3 * n)) if u != v}
    return n, sink, draw(st.permutations(sorted(edges)))


def graph_fields(g: Digraph):
    return g.n, g.m, g.sink, g.out_edges, g.out_sets, g.sink_parent


@given(reachable_digraphs())
def test_constructor_and_both_readers_build_equal_graphs(case):
    """Digraph(n, sink, edges), the canonical reader and the line reader
    build the same out-lists, out-sets and sink BFS parents, and graphs
    that compare equal hash equal."""
    n, sink, edges = case
    built = Digraph(n, sink, edges)
    text = serialize_graph(built)
    in_file_order = Digraph(n, sink, list(built.edges()))
    lined, _ = rewrite_as_lines(text, 2)
    assert graph_module._canonical_columns(text) is not None
    line_reads = []
    read = graph_module._line_columns

    def counted(*args):
        line_reads.append(args)
        return read(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(graph_module, "_line_columns", counted)
        canonical = parse_graph(text)
        assert not line_reads
        by_line = parse_graph(lined)
        assert len(line_reads) == 1
    # The sink BFS walks each in-list in ascending tail order, whatever
    # order the edges came in, so the graph built from edges in random
    # order has the same parents as the others.
    fields = graph_fields(canonical)
    assert graph_fields(built) == graph_fields(in_file_order) == fields == graph_fields(by_line)
    assert list(built.sink_parent) == full_bfs_parents(built)
    for g in (built, in_file_order, by_line):
        assert g == canonical
        assert hash(g) == hash(canonical)


@pytest.mark.parametrize("edges, kind", FAULTED_EDGES)
def test_flat_input_reports_first_fault_and_its_line(edges, kind):
    """Each fault list, handed over as one flat list, names the first bad
    edge with the type and message of a check of each edge in turn, on
    that edge's line, both from _edge_fault and through both readers."""
    first = next(i for i in range(len(edges)) if edge_by_edge_fault(3, edges[: i + 1]))
    expected_kind, message = edge_by_edge_fault(3, edges)
    assert expected_kind is kind
    flat = [x for edge in edges for x in edge]
    fault = graph_module._edge_fault(3, flat, range(10, 10 + len(edges)))
    assert (type(fault), str(fault)) == (kind, f"line {10 + first}: {message}")
    text = f"dmdst 1\n3 {len(edges)} 0\n" + "".join(f"{u} {v}\n" for u, v in edges)
    lined, line_of = rewrite_as_lines(text, 2)
    for variant, line in ((text, first + 3), (lined, line_of[first + 3])):
        with pytest.raises(kind) as info:
            parse_graph(variant)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "edges", [[(1.0, 0), (2, 1)], [(1, 0), (2, 1), (True, 0)], [(1, 0), ("1", 0)]]
)
def test_constructor_rejects_ids_that_are_not_ints(edges):
    """A float or a str would fail the builder's fill with a bare TypeError,
    and a bool would be read as vertex 0 or 1."""
    with pytest.raises(GraphFormatError, match="vertex ids must be ints"):
        Digraph(3, 0, edges)


@pytest.mark.parametrize("n, sink, kind, message", [
    (0, 0, MalformedHeader, "vertex count must be >= 1, got 0"),
    (3, 3, VertexOutOfRange, "sink 3 out of range for n=3"),
    (3, -1, VertexOutOfRange, "sink -1 out of range for n=3"),
])
def test_constructor_rejects_bad_vertex_count_or_sink(n, sink, kind, message):
    with pytest.raises(kind) as info:
        Digraph(n, sink, [])
    assert info.value.line is None
    assert str(info.value) == message


@pytest.mark.parametrize("edges", [[(0, 1, 2)], [(1, 0), (2,)], [(1, 0), ()]])
def test_constructor_unpacks_each_edge_as_a_pair(edges):
    with pytest.raises(ValueError):
        Digraph(3, 0, edges)


EDGE_FAULTS = ["n", "huge", "negative", "self-loop", "repeat", "stranded"]


@st.composite
def faulted_edge_lists(draw):
    """(n, sink, edges): a reachable digraph's edges with one to three
    faults injected: an endpoint set to n, to an id of 2**63 or more, or
    to a negative id (mostly one that would wrap around to a vertex), an
    edge turned into a self-loop, an edge repeated further on, or the
    out-edges of a vertex other than the sink dropped."""
    n, sink, edges = draw(reachable_digraphs())
    edges = list(edges)
    for fault in draw(st.lists(st.sampled_from(EDGE_FAULTS), min_size=1, max_size=3)):
        i = draw(st.integers(0, max(len(edges) - 1, 0)))
        if fault in ("n", "huge", "negative"):
            bad = {
                "n": st.just(n),
                "huge": st.integers(2 ** 63, 10 ** 30),
                "negative": st.integers(-n - 1, -1),
            }[fault]
            if not edges:
                edges.append((sink, sink))
            u, v = edges[i]
            edges[i] = (draw(bad), v) if draw(st.booleans()) else (u, draw(bad))
        elif fault == "self-loop" and edges:
            edges[i] = (edges[i][0], edges[i][0])
        elif fault == "repeat" and edges:
            edges.insert(draw(st.integers(i + 1, len(edges))), edges[i])
        elif fault == "stranded" and n > 1:
            gone = draw(st.sampled_from([v for v in range(n) if v != sink]))
            edges = [(u, v) for u, v in edges if u != gone]
    return n, sink, edges


def expected_outcome(n: int, sink: int, edges: list[tuple[int, int]]):
    """What checking each edge in order, then reachability, gives:
    (error type, message, index of the faulty edge or None), else
    ("ok", out-lists, None)."""
    fault = edge_by_edge_fault(n, edges)
    if fault:
        first = next(i for i in range(len(edges)) if edge_by_edge_fault(n, edges[: i + 1]))
        return (*fault, first)
    reached = {sink}
    while True:
        more = {u for u, v in edges if v in reached} - reached
        if not more:
            break
        reached |= more
    if len(reached) < n:
        stranded = sorted(set(range(n)) - reached)
        return SinkUnreachable, f"sink unreachable from vertices {stranded}", None
    return "ok", [[v for t, v in edges if t == u] for u in range(n)], None


def produced_outcome(build, line_of_edge):
    """The same for one producer, the index read from an error's line
    through line_of_edge."""
    try:
        g = build()
    except GraphFormatError as exc:
        if exc.line is None:
            return type(exc), str(exc), None
        prefix = f"line {exc.line}: "
        assert str(exc).startswith(prefix)
        return type(exc), str(exc)[len(prefix):], line_of_edge[exc.line]
    return "ok", g.out_edges, None


@given(faulted_edge_lists())
def test_producers_raise_the_first_fault_of_an_edge_by_edge_check(case):
    """Digraph(n, sink, edges), the line reader and, when no id is
    negative, the canonical reader each raise what checking each edge in
    order raises, with its type, message and line, or all build the same
    graph.  Ids of n and above reach the readers' fill loop, which is the
    range check; negative ids reach only the constructor's screen and the
    line reader's.  With fewer than n - 1 edges both readers stop at the
    header line before any edge; the constructor, whose edges come from
    code, goes on to them."""
    n, sink, edges = case
    expected = expected_outcome(n, sink, edges)
    text = f"dmdst 1\n{n} {len(edges)} {sink}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    lined, line_of = rewrite_as_lines(text, 2)
    short = len(edges) < n - 1
    producers = [
        (lambda: Digraph(n, sink, edges), None),
        (lambda: parse_graph(lined),
         {line_of[2]: "header", **{line_of[i + 3]: i for i in range(len(edges))}}),
    ]
    if all(u >= 0 and v >= 0 for u, v in edges):
        if not short:
            assert graph_module._canonical_columns(text) is not None
        producers.append(
            (lambda: parse_graph(text), {2: "header", **{i + 3: i for i in range(len(edges))}})
        )
    elif not short:
        assert graph_module._canonical_columns(text) is None
    graphs = []
    for build, line_of_edge in producers:
        # the constructor's edges come from code and have no line
        want = expected if line_of_edge is not None else (*expected[:2], None)
        if short and line_of_edge is not None:
            want = (
                MalformedHeader,
                f"{n} vertices need at least {n - 1} edges to reach the sink,"
                f" header promises {len(edges)}",
                "header",
            )
        assert produced_outcome(build, line_of_edge) == want
        if expected[0] == "ok":
            graphs.append(build())
    assert all(graph_fields(g) == graph_fields(graphs[0]) for g in graphs)

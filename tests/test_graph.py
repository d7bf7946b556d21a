import pytest
from hypothesis import given, strategies as st

from dmdst import (
    Digraph,
    gen_random,
    parse_graph,
    serialize_graph,
    unreachable_to_sink,
)
from dmdst.graph import (
    DuplicateEdge,
    MalformedHeader,
    SelfLoop,
    SinkUnreachable,
    VertexOutOfRange,
)

PATH3 = "dmdst 1\n3 2 0\n1 0\n2 1\n"


def test_parse_minimal_path():
    g = parse_graph(PATH3)
    assert (g.n, g.m, g.sink) == (3, 2, 0)
    assert g.out_edges[1] == (0,)
    assert g.out_edges[2] == (1,)


def test_parse_rejects_self_loop():
    with pytest.raises(SelfLoop):
        parse_graph("dmdst 1\n2 1 0\n1 1\n")


def test_parse_rejects_unreachable_vertex():
    with pytest.raises(SinkUnreachable) as info:
        parse_graph("dmdst 1\n3 1 0\n1 0\n")
    assert info.value.vertices == (2,)


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


def test_comments_and_whitespace_tolerated():
    text = "# header comment\ndmdst 1\n3 2 0   \n# mid comment\n1 0\n2 1  \n"
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


@given(st.integers(0, 10 ** 6))
def test_roundtrip_structural_over_seeds(seed):
    g = gen_random(4 + seed % 8, (seed // 7) % 10, seed)
    assert parse_graph(serialize_graph(g)) == g


def test_unreachable_set_empty_on_valid_graph():
    assert unreachable_to_sink(parse_graph(PATH3)) == set()


def test_unreachable_set_names_isolated_vertex():
    g = Digraph(3, 0, [(1, 0)], validate_reachability=False)
    assert unreachable_to_sink(g) == {2}


@given(st.integers(0, 10 ** 6))
def test_generator_output_always_reaches_sink(seed):
    n = 3 + seed % 7
    g = gen_random(n, min(seed % 9, (n - 1) ** 2), seed)
    assert unreachable_to_sink(g) == set()


def test_out_edges_clean_after_parse():
    g = gen_random(30, 40, 7)
    for u in range(g.n):
        row = g.out_edges[u]
        assert len(set(row)) == len(row)
        assert u not in row

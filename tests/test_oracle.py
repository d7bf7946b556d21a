import pytest
from hypothesis import given, strategies as st

from dmdst import (
    Digraph,
    exact_min_degree,
    gen_complete,
    gen_instar,
    gen_path,
    gen_random,
)
from dmdst.oracle import TooLarge
from conftest import count_intrees_by_determinant, enumerate_spanning_intrees


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, 0, [((v + 1) % n, v) for v in range(n)])


def test_cycle_unrolls_to_a_path():
    delta, tree = exact_min_degree(directed_cycle(7))
    assert delta == 1
    assert tree.validate() == []
    assert tree.max_deg == 1


def test_instar_is_forced():
    delta, tree = exact_min_degree(gen_instar(8))
    assert delta == 7
    assert tree.max_deg == 7


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_complete_digraph_admits_hamiltonian_path(n):
    delta, tree = exact_min_degree(gen_complete(n))
    assert delta == 1
    assert tree.validate() == []


def test_rejects_oversized_instance():
    with pytest.raises(TooLarge):
        exact_min_degree(gen_path(13))
    with pytest.raises(TooLarge):
        list(enumerate_spanning_intrees(gen_path(10)))


def test_single_vertex():
    assert exact_min_degree(Digraph(1, 0, []))[0] == 0


def test_enumerate_path_graph_unique_tree():
    trees = list(enumerate_spanning_intrees(gen_path(5)))
    assert len(trees) == 1
    assert trees[0].parents_signed() == [-1, 0, 1, 2, 3]


def test_enumerate_cycle_with_chord():
    g = Digraph(3, 0, [(1, 0), (2, 1), (2, 0)])
    trees = list(enumerate_spanning_intrees(g))
    parents = sorted(tuple(t.parents_signed()) for t in trees)
    assert parents == [(-1, 0, 0), (-1, 0, 1)]


@given(st.integers(0, 10 ** 6))
def test_enumeration_count_matches_matrix_tree(seed):
    n = 3 + seed % 5
    g = gen_random(n, min(seed % 9, (n - 1) ** 2), seed)
    count = sum(1 for _ in enumerate_spanning_intrees(g))
    assert count == count_intrees_by_determinant(g)


@given(st.integers(0, 500))
def test_exact_matches_enumeration_minimum(seed):
    n = 4 + seed % 5
    g = gen_random(n, min(seed % 11, (n - 1) ** 2), seed)
    delta, tree = exact_min_degree(g)
    assert tree.validate() == []
    assert tree.max_deg == delta
    assert delta == min(t.max_deg for t in enumerate_spanning_intrees(g))


@given(st.integers(0, 10 ** 6))
def test_adding_edges_never_raises_optimum(seed):
    n = 5 + seed % 4
    g_small = gen_random(n, 0, seed)
    g_big = gen_random(n, min(6, (n - 1) ** 2), seed)
    # same backbone stream: g_big's edges are a superset of g_small's
    assert set(g_small.edges()) <= set(g_big.edges())
    assert exact_min_degree(g_big)[0] <= exact_min_degree(g_small)[0]

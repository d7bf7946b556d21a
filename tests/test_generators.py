import pytest
from hypothesis import given, strategies as st

from dmdst import (
    build_initial_tree,
    exact_min_degree,
    gen_blocker,
    gen_complete,
    gen_instar,
    gen_path,
    gen_random,
    run_augmenting_search,
    run_local_search,
    serialize_graph,
)
from dmdst.generators import GeneratorError, SplitMix64, TooManyEdges

from conftest import full_bfs_parents


def test_splitmix_stream_is_fixed():
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_backbone_only_instance():
    g = gen_random(5, 0, 7)
    assert g.m == 4
    assert full_bfs_parents(g).count(None) == 1


def test_identical_seed_identical_bytes():
    a = serialize_graph(gen_random(20, 35, 99))
    b = serialize_graph(gen_random(20, 35, 99))
    assert a == b
    assert a != serialize_graph(gen_random(20, 35, 100))


def test_too_many_edges_rejected():
    with pytest.raises(TooManyEdges):
        gen_random(4, 10, 0)


def test_negative_extra_edges_rejected():
    with pytest.raises(GeneratorError):
        gen_random(5, -3, 0)


def test_fixed_families():
    assert list(gen_path(4).edges()) == [(1, 0), (2, 1), (3, 2)]
    assert list(gen_instar(4).edges()) == [(1, 0), (2, 0), (3, 0)]
    assert len(list(gen_complete(4).edges())) == 12


def test_blocker_params_validated():
    with pytest.raises(ValueError):
        gen_blocker(2, 2, 0)
    with pytest.raises(ValueError):
        gen_blocker(3, 0, 0)


@given(st.integers(0, 10 ** 6))
def test_blocker_output_valid_for_all_seeds(seed):
    g = gen_blocker(3, 2, seed)
    assert full_bfs_parents(g).count(None) == 1
    assert g.n == 12


def test_blocker_initial_tree_shape():
    g = gen_blocker(3, 2, 4)
    t = build_initial_tree(g)
    assert t.deg(1) == 3  # hub carries the whole start layer
    assert t.max_deg == 3
    blockers = [v for v in range(g.n) if t.deg(v) == 2 and v != 1]
    assert len(blockers) == 2


def test_blocker_gap_between_solvers_and_oracle():
    g = gen_blocker(3, 2, 0)
    local = run_local_search(g).delta_final
    augment = run_augmenting_search(g).delta_final
    delta_star = exact_min_degree(g)[0]
    assert local == 3
    assert augment == 2 == delta_star


@given(st.integers(0, 10 ** 6))
def test_blocker_larger_parameters_still_valid(seed):
    g = gen_blocker(4, 3, seed)
    assert full_bfs_parents(g).count(None) == 1
    t = build_initial_tree(g)
    assert t.validate() == []
    assert t.max_deg == 4

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dmdst import (
    Config,
    Digraph,
    build_initial_tree,
    gen_blocker,
    gen_complete,
    gen_instar,
    gen_path,
    gen_random,
    run_augmenting_search,
    parse_graph,
    run_local_search,
    serialize_graph,
    tree_from_parents,
)
from dmdst.tree import CutSink, EmptyDegreeClass, InTree, NotAnEdge
from conftest import (
    all_picks_unrelated_children,
    brute_unrelated,
    full_bfs_parents,
    random_corpus,
)


def path_with_chord():
    return Digraph(3, 0, [(1, 0), (2, 1), (2, 0)])


def pool_shape_samples() -> list[Digraph]:
    """A few graphs of each benchmark pool shape: sparse random (m = 3n),
    dense random (m = 30n..60n) and complete, blockers, in-stars, paths."""
    return [
        gen_random(500, 1001, 1), gen_random(650, 1301, 2),
        gen_random(100, 30 * 100 - 99, 3), gen_random(200, 60 * 200 - 199, 4),
        gen_complete(100), gen_complete(200),
        gen_blocker(25, 30, 5), gen_blocker(6, 10, 6), gen_blocker(30, 60, 7),
        gen_instar(40), gen_instar(400), gen_path(100), gen_path(2000),
    ]


def test_initial_tree_matches_full_bfs():
    graphs = random_corpus() + pool_shape_samples()
    # parsed text lists each reversed edge list in file order, not in
    # generation order, so the BFS meets vertices in another order
    graphs += [parse_graph(serialize_graph(g)) for g in graphs]
    for g in graphs:
        assert build_initial_tree(g).parent == full_bfs_parents(g)


def test_initial_tree_on_path():
    t = build_initial_tree(gen_path(3))
    assert t.parent == [None, 0, 1]
    assert [t.deg(v) for v in range(3)] == [1, 1, 0]
    assert t.max_deg == 1


def test_initial_tree_on_instar():
    n = 7
    t = build_initial_tree(gen_instar(n))
    assert t.deg(0) == n - 1
    assert t.max_deg == n - 1


def test_initial_tree_on_complete_is_valid():
    t = build_initial_tree(gen_complete(4))
    assert t.validate() == []
    assert t.max_deg <= 3


def test_cut_and_append_single_reattachment():
    t = build_initial_tree(path_with_chord())
    t.cut_and_append(2, 0)
    assert t.parent == [None, 0, 0]
    assert [t.deg(v) for v in range(3)] == [2, 0, 0]
    assert t.validate() == []


def test_cut_and_append_rejects_sink():
    t = build_initial_tree(gen_path(3))
    with pytest.raises(CutSink):
        t.cut_and_append(0, 1)


def test_cut_and_append_rejects_non_edge():
    t = build_initial_tree(gen_path(3))
    with pytest.raises(NotAnEdge):
        t.cut_and_append(2, 0)


def test_subtree_of_leaf_and_sink():
    t = build_initial_tree(gen_path(5))
    assert t.subtree(4) == {4}
    assert t.subtree(0) == set(range(5))


@given(st.integers(0, 10 ** 6))
def test_subtree_agrees_with_parent_walk(seed):
    g = gen_random(4 + seed % 6, seed % 10, seed)
    t = build_initial_tree(g)
    for u in range(g.n):
        sub = t.subtree(u)
        for v in range(g.n):
            cur, hits = v, False
            while cur is not None:
                if cur == u:
                    hits = True
                    break
                cur = t.parent[cur]
            assert (v in sub) == hits


def test_unrelated_basics():
    t = build_initial_tree(gen_instar(4))
    assert t.unrelated(1, 2)
    assert not t.unrelated(1, 1)
    assert not t.unrelated(0, 2)


@given(st.integers(0, 10 ** 6))
def test_unrelated_matches_subtree_intersection(seed):
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 11, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    for u, v in itertools.combinations(range(g.n), 2):
        assert t.unrelated(u, v) == brute_unrelated(t, u, v)


def max_unrelated_children_size(t, d):
    """Exhaustive maximum over subsets: pairwise unrelated, parents of
    degree d."""
    candidates = [
        v
        for v in range(t.g.n)
        if t.parent[v] is not None and t.deg(t.parent[v]) == d
    ]
    best = 0
    for r in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, r):
            if all(t.unrelated(a, b) for a, b in itertools.combinations(combo, 2)):
                return r
    return best


def nested_degree2_tree():
    # sink 0 with children 1, 2; 1 has child 3; 3 has children 4, 5 (degree
    # 2 vertex nested below the degree-2 sink), plus leaf 6 under 2.
    edges = [(1, 0), (2, 0), (3, 1), (4, 3), (5, 3), (6, 2)]
    g = Digraph(7, 0, edges)
    return build_initial_tree(g)


def test_unrelated_children_basis_case():
    t = build_initial_tree(gen_instar(3))
    # single degree-2 vertex: its two children
    assert t.unrelated_children(2) == {1, 2}


def test_unrelated_children_nested_case_attains_bound():
    t = nested_degree2_tree()
    picks = t.unrelated_children(2)
    assert len(picks) >= 3
    for a, b in itertools.combinations(picks, 2):
        assert t.unrelated(a, b)
    for v in picks:
        assert t.deg(t.parent[v]) == 2
    assert max_unrelated_children_size(t, 2) == len(picks) == 3


def test_unrelated_children_degree_one():
    t = build_initial_tree(gen_path(4))
    assert len(t.unrelated_children(1)) >= 1


def test_unrelated_children_matches_all_picks_reference(corpus_results):
    """Every class d >= 2 of the corpus's start, local and augment trees,
    and of blocker-family trees, against the all-picks definition."""
    results, _ = corpus_results
    graphs = [(r.g, r.local, r.augment) for r in results]
    for k, fanout in ((4, 3), (6, 10), (10, 20), (25, 30)):
        for seed in range(3):
            g = gen_blocker(k, fanout, seed)
            graphs.append((g, run_local_search(g), run_augmenting_search(g)))
    checked = evicting = 0
    for g, local, augment in graphs:
        trees = [build_initial_tree(g)]
        trees += [tree_from_parents(g, rep.parent) for rep in (local, augment)]
        for t in trees:
            for d in t.degree_counts():
                if d < 2:
                    continue
                picks = t.unrelated_children(d)
                assert picks == all_picks_unrelated_children(t, d), (d, t.parent)
                checked += 1
                evicting += len(picks) < sum(t.deg(u) for u in t.members(d))
    assert checked > 1000
    assert evicting > 100


def test_unrelated_children_rejects_empty_class():
    t = build_initial_tree(gen_path(3))
    with pytest.raises(EmptyDegreeClass):
        t.unrelated_children(5)


def test_potential_direct_arithmetic():
    assert build_initial_tree(gen_instar(4)).potential(2) == 11
    assert build_initial_tree(gen_path(3)).potential(2) == 5
    # exact at degrees where a float base-10 power would overflow
    assert build_initial_tree(gen_instar(400)).potential(10) == 10 ** 399 + 399


@given(st.integers(0, 10 ** 6))
def test_potential_matches_per_vertex_sum(seed):
    n = 3 + seed % 7
    g = gen_random(n, min(seed % 9, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    for base in (2, 3):
        assert t.potential(base) == sum(base ** t.deg(v) for v in range(g.n))
    assert t.potential(2.5) == pytest.approx(
        sum(2.5 ** t.deg(v) for v in range(g.n))
    )


def test_validate_passes_on_initial_tree():
    assert build_initial_tree(gen_random(9, 12, 3)).validate() == []


def test_validate_flags_parent_cycle():
    g = Digraph(4, 0, [(1, 0), (2, 1), (3, 2), (2, 3)])
    t = InTree(g, [None, 0, 3, 2])  # 2 <-> 3 parent cycle
    assert any(v.startswith("CycleDetected") for v in t.validate())


def test_validate_flags_non_edge():
    g = gen_path(3)
    t = InTree(g, [None, 0, 0])
    assert any(v.startswith("NotAnEdge") for v in t.validate())


def test_histogram_consistency_after_mutations():
    g = gen_complete(6)
    t = build_initial_tree(g)
    t.cut_and_append(5, 4)
    t.cut_and_append(4, 3)
    t.cut_and_append(5, 3)
    assert t.validate() == []
    counts = t.degree_counts()
    assert sum(counts.values()) == g.n
    assert max(counts) == t.max_deg


def test_s_d_derived_query():
    t = build_initial_tree(gen_instar(5))
    assert t.vertices_with_deg_at_least(1) == {0}
    assert t.vertices_with_deg_at_least(0) == set(range(5))


def test_config_invariants():
    for epsilon in (0.3, 0.0, float("inf"), float("nan")):  # rejected before 1/epsilon is taken
        with pytest.raises(ValueError):
            Config(10, epsilon=epsilon)
    for derived in ("base_c", "stop_threshold_local", "stop_threshold_aug"):
        with pytest.raises(TypeError):  # derived from n and epsilon, never passed
            Config(100, **{derived: 10})
    cfg = Config(100, profile="paper")
    assert cfg.epsilon == Fraction(0.1)
    assert cfg.base_c >= 4
    assert cfg.base_c > 1 / cfg.epsilon
    assert cfg.base_c == 10
    assert Config(100, epsilon=0.125).base_c == 9  # 1/epsilon exactly 8
    assert cfg.stop_threshold_local == pytest.approx(34 * 6.643856, rel=1e-5)
    assert cfg.stop_threshold_aug == pytest.approx(2 * 6.643856 / math.log2(5), rel=1e-5)
    practical = Config(100)
    assert practical.stop_threshold_local == 0.0
    assert practical.stop_threshold_aug == 0.0
    # the report's config echo: five values, epsilon as the caller's float
    assert practical.to_dict() == {
        "epsilon": 0.1, "profile": "practical", "base_c": 10,
        "stop_threshold_local": 0.0, "stop_threshold_aug": 0.0,
    }
    assert type(practical.to_dict()["epsilon"]) is float


def _cycle(t):
    t.cut_and_append(2, 3)  # 2 -> 3 -> 2
    return [2], [1]


def _non_edge(t):
    # Reroute 2 below the sink by hand: (2, 0) is not a graph edge.
    t.children[1].remove(2)
    t._move_class(1, 1, 0)
    t.parent[2] = 0
    t.children[0].append(2)
    t._move_class(0, 1, 2)
    return [2], [1]


def _wrong_class(t):
    t.cut_and_append(3, 1)
    t._members[2].discard(1)
    t._members[1].add(1)
    return [3], [2]


def _stale_max_deg(t):
    t.cut_and_append(3, 1)
    t.max_deg += 1
    return [3], [2]


@pytest.mark.parametrize(
    "inject, kind",
    [
        (_cycle, "CycleDetected"),
        (_non_edge, "NotAnEdge"),
        (_wrong_class, "HistogramMismatch"),
        (_stale_max_deg, "MaxDegMismatch"),
    ],
)
def test_validate_changed_catches_injected_fault(inject, kind):
    # The path 3 -> 2 -> 1 -> 0 as the tree, plus graph edges 2 -> 3 and 3 -> 1.
    g = Digraph(4, 0, [(1, 0), (2, 1), (3, 2), (2, 3), (3, 1)])
    t = InTree(g, [None, 0, 1, 2])
    assert t.validate() == []
    rerouted, old_parents = inject(t)
    local = t.validate_changed(rerouted, old_parents)
    assert any(v.startswith(kind) for v in local), local
    assert any(v.startswith(kind) for v in t.validate())

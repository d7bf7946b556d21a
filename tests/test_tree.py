import itertools
import math
import random
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
    parse_graph,
    rank_table,
    run_local_search,
    serialize_graph,
)
from dmdst.search import stop_bar
from dmdst.tree import CutSink, InTree, NotAnEdge, TreeError, parent_violations
from conftest import (
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
    # The BFS walks each in-list in ascending tail order, so a graph in the
    # order its generator made the edges and its parsed text, grouped by
    # tail, get the same tree.
    for g in random_corpus() + pool_shape_samples():
        parsed = parse_graph(serialize_graph(g))
        expected = full_bfs_parents(g)
        assert build_initial_tree(g).parent == build_initial_tree(parsed).parent == expected


def signed_by_comprehension(t):
    """parents_signed by its first definition."""
    return [-1 if p is None else p for p in t.parent]


def test_parents_signed_matches_the_comprehension():
    """Trees of every pool shape and a tree whose sink is not vertex 0."""
    trees = [build_initial_tree(g) for g in pool_shape_samples()]
    trees.append(build_initial_tree(Digraph(4, 2, [(0, 2), (1, 0), (3, 1), (3, 2)])))
    for t in trees:
        signed = t.parents_signed()
        assert signed == signed_by_comprehension(t)
        assert signed is not t.parent


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


@pytest.mark.parametrize("parent", [[None, 0], [None, 0, 1, 2]])
def test_tree_rejects_parent_array_of_wrong_length(parent):
    with pytest.raises(TreeError, match=f"parent array length {len(parent)} != n=3"):
        InTree(gen_path(3), parent)


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


def test_local_search_on_a_long_path_stalls_without_certificate():
    """Delta 1 is the optimum; the stall at class 1 has no witness of
    degree <= -1, so no certificate."""
    report = run_local_search(gen_path(20000))
    assert report.iterations == 0
    assert report.exit_reason == "stalled"
    assert report.certificate is None and report.lower_bound is None


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


@given(st.integers(0, 10 ** 6))
def test_histogram_files_live_classes_only(seed):
    """After random reattachments along graph edges (cycles allowed), the
    histogram holds exactly the degrees some vertex has, and the cached
    maximum is the largest of them."""
    n = 3 + seed % 9
    g = gen_random(n, min(seed % 40, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    rng = random.Random(seed)
    for _ in range(3 * n):
        v = rng.choice([v for v in range(n) if v != g.sink])
        t.cut_and_append(v, rng.choice(g.out_edges[v]))
        degrees = {t.deg(v) for v in range(n)}
        assert set(t._members) == degrees
        assert t.max_deg == max(degrees)
        assert t.degree_counts() == {d: len(t.members(d)) for d in sorted(degrees)}


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
    with pytest.raises(ValueError, match="profile must be one of"):
        Config(10, profile="fast")
    for derived in ("base_c", "stop_threshold_local", "stop_threshold_aug",
                    "stop_power_local", "stop_power_aug"):
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
    assert (cfg.stop_power_local, cfg.stop_power_aug) == (100 ** 34, 100 ** 2)
    assert (practical.stop_power_local, practical.stop_power_aug) == (1, 1)


def stop_gate(base, stop_power, top):
    """The loop's stop gate as search decides it: Delta in 0..top -> does
    the loop run."""
    ranks = rank_table(base, top)
    bar = stop_bar(base, stop_power, top)
    return lambda d: ranks[d] > bar


def test_stop_gates_decide_exactly():
    """Over a sweep of n, at the Delta values on both sides of each paper
    threshold, the int gate says what the exact comparisons 2**Delta >
    n**34 and (c/2)**Delta > n**2 say, and what Delta > the float
    threshold says (they agree this far), at c = 10 and at an odd c = 7.
    The practical gate is Delta > 0."""
    for n, epsilon in itertools.product([*range(1, 3000, 7), 4097, 65537, 10 ** 6 + 3],
                                        (0.1, 0.15)):
        cfg = Config(n, epsilon=epsilon, profile="paper")
        c = cfg.base_c
        assert c == (10 if epsilon == 0.1 else 7)
        for threshold, base, power, exact in (
            (cfg.stop_threshold_local, 2, cfg.stop_power_local,
             lambda d: 2 ** d > n ** 34),
            (cfg.stop_threshold_aug, Fraction(c, 2), cfg.stop_power_aug,
             lambda d: Fraction(c, 2) ** d > Fraction(n) ** 2),
        ):
            near = range(max(0, math.floor(threshold) - 1), math.floor(threshold) + 3)
            runs = stop_gate(base, power, near[-1] + 3)  # top above Delta, as in a solve
            assert [runs(d) for d in near] == [exact(d) for d in near] == [
                d > threshold for d in near], (n, threshold)
        practical = Config(n, epsilon=epsilon)
        for base, power in ((2, practical.stop_power_local),
                            (Fraction(c, 2), practical.stop_power_aug)):
            runs = stop_gate(base, power, 3)
            assert [runs(d) for d in range(4)] == [False, True, True, True]


def test_stop_gates_at_powers_of_two():
    """At n = 2**j, log2(n) = j, so each threshold is exact: 34*j for local
    search, and j for augmenting search at c = 8, where log2(c) - 1 = 2."""
    for j in range(1, 33):
        cfg = Config(2 ** j, epsilon=0.13, profile="paper")
        assert cfg.base_c == 8
        assert (cfg.stop_threshold_local, cfg.stop_threshold_aug) == (34 * j, j)
        runs = stop_gate(2, cfg.stop_power_local, 34 * j + 1)
        assert (runs(34 * j), runs(34 * j + 1)) == (False, True), j
        runs = stop_gate(Fraction(8, 2), cfg.stop_power_aug, j + 1)
        assert (runs(j), runs(j + 1)) == (False, True), j


# What parent_violations reports; validate() adds ChildrenMismatch,
# HistogramMismatch and MaxDegMismatch.
PARENT_KINDS = (
    "ShapeMismatch", "SinkHasParent", "MissingParent", "ParentOutOfRange",
    "NotAnEdge", "CycleDetected",
)


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


def _empty_class(t):
    t.cut_and_append(3, 1)
    t._members[3] = set()
    return [3], [2]


def _stale_max_deg(t):
    t.cut_and_append(3, 1)
    t.max_deg += 1
    return [3], [2]


def _misfiled_child(t):
    # Reroute 3 below 1, then list it under 2 instead: 2's children fail
    # the C-speed screen, and the per-child loop names 3.
    t.cut_and_append(3, 1)
    t.children[1].remove(3)
    t.children[2].append(3)
    return [3], [2]


def old_subtrees(g: Digraph, parent: list[int | None], rerouted: list[int]) -> set[int]:
    """The union of the rerouted vertices' subtrees in the tree parent
    describes: validate_changed's region for an adjustment made on it."""
    before = InTree(g, parent)
    return set().union(*map(before.subtree, rerouted))


@pytest.mark.parametrize(
    "inject, kind",
    [
        (_cycle, "CycleDetected"),
        (_misfiled_child, "ChildrenMismatch"),
        (_non_edge, "NotAnEdge"),
        (_wrong_class, "HistogramMismatch"),
        (_empty_class, "HistogramMismatch"),
        (_stale_max_deg, "MaxDegMismatch"),
    ],
)
def test_validate_changed_catches_injected_fault(inject, kind):
    # The path 3 -> 2 -> 1 -> 0 as the tree, plus graph edges 2 -> 3 and 3 -> 1.
    g = Digraph(4, 0, [(1, 0), (2, 1), (3, 2), (2, 3), (3, 1)])
    t = InTree(g, [None, 0, 1, 2])
    assert t.validate() == []
    rerouted, old_parents = inject(t)
    local = t.validate_changed(rerouted, old_parents, old_subtrees(g, [None, 0, 1, 2], rerouted))
    assert any(v.startswith(kind) for v in local), local
    full = t.validate()
    assert any(v.startswith(kind) for v in full)
    assert parent_violations(g, t.parent) == [v for v in full if v.startswith(PARENT_KINDS)]


def test_validate_changed_names_a_child_listed_under_the_wrong_vertex():
    g = Digraph(4, 0, [(1, 0), (2, 1), (3, 2), (2, 3), (3, 1)])
    t = InTree(g, [None, 0, 1, 2])
    rerouted, old_parents = _misfiled_child(t)

    def listed(bad):
        return [v for v in bad if " listed under " in v]

    expected = ["ChildrenMismatch: 3 listed under 2"]
    region = old_subtrees(g, [None, 0, 1, 2], rerouted)
    assert listed(t.validate_changed(rerouted, old_parents, region)) == expected
    assert listed(t.validate()) == expected


def _valid_reroute(t):
    t.cut_and_append(3, 1)
    return [3], [2]


@pytest.mark.parametrize("inject", [_valid_reroute, _cycle])
def test_validate_changed_reports_a_rerouted_vertex_outside_its_region(inject):
    """The walks stop where they leave the region, so a rerouted vertex it
    does not hold is reported, not trusted, whether the adjustment was
    valid or made a cycle; with the true region the verdict is validate()'s."""
    g = Digraph(4, 0, [(1, 0), (2, 1), (3, 2), (2, 3), (3, 1)])
    t = InTree(g, [None, 0, 1, 2])
    rerouted, old_parents = inject(t)
    region = old_subtrees(g, [None, 0, 1, 2], rerouted)
    assert bool(t.validate_changed(rerouted, old_parents, region)) == bool(t.validate())
    (v,) = rerouted
    bad = t.validate_changed(rerouted, old_parents, region - {v})
    assert f"RegionMismatch: rerouted vertex {v} outside the audit region" in bad


def test_validate_changed_walk_stops_where_it_leaves_the_region():
    """On a deep path, the walk from a rerouted vertex reads parents only
    until it leaves the region: its length does not grow with the depth."""
    n = 200
    edges = [(v, v - 1) for v in range(1, n)] + [(n - 1, n - 3)]
    g = Digraph(n, 0, edges)
    t = InTree(g, [None] + list(range(n - 1)))
    t.cut_and_append(n - 1, n - 3)
    reads = []

    class Counting(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    t.parent = Counting(t.parent)
    assert t.validate_changed([n - 1], [n - 2], {n - 1}) == []
    assert len(reads) < 10, reads
    t.parent = list(t.parent)
    assert t.validate() == []


def test_parent_violations_walk_stops_at_out_of_range_parent():
    g = Digraph(4, 0, [(1, 0), (2, 1), (3, 2), (2, 3), (3, 1)])
    assert parent_violations(g, [None, 0, 1, 2]) == []
    assert parent_violations(g, [None, 0, 1, 10**6]) == [
        "ParentOutOfRange: vertex 3 -> 1000000",
        "CycleDetected: parent walk from 3 never reaches sink",
    ]
    assert parent_violations(g, [None, 0, -1, 2]) == [
        "ParentOutOfRange: vertex 2 -> -1",
        "CycleDetected: parent walk from 2 never reaches sink",
    ]


def test_parent_violations_reports_in_vertex_order_then_walks():
    g = Digraph(4, 0, [(1, 0), (2, 1), (3, 2), (2, 3), (3, 1)])
    assert parent_violations(g, [None, 0]) == [
        "ShapeMismatch: parent array has 2 entries for n=4"
    ]
    assert parent_violations(g, [1, None, 3, 2]) == [
        "SinkHasParent: sink 0 has parent 1",
        "MissingParent: vertex 1 has no parent",
        "CycleDetected: parent walk from 1 never reaches sink",
        "CycleDetected: parent walk from 2 never reaches sink",
    ]
    assert parent_violations(g, [None, 0, 0, 3]) == [
        "NotAnEdge: tree edge (2, 0) missing from graph",
        "NotAnEdge: tree edge (3, 3) missing from graph",
        "CycleDetected: parent walk from 3 never reaches sink",
    ]

import copy
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dmdst.augmenting

from dmdst import (
    Config,
    Digraph,
    build_initial_tree,
    gen_blocker,
    gen_path,
    gen_random,
    run_augmenting_search,
    validate_augmenting_path,
)
from dmdst.augmenting import (
    AugmentingPath,
    FoundEndpoint,
    LayeredState,
    StalePath,
    ValidationFailed,
    apply_augmenting_path,
    exit_path,
    exit_set,
    extend_layer,
    potential_budget,
    power_table,
    reconstruct_path,
)
from dmdst.tree import InTree
from conftest import (
    brute_first_exits,
    corpus_instances,
    degree_snapshot,
    random_corpus_specs,
    report_without_timing,
    small_digraphs,
)


def two_segment_fixture() -> Digraph:
    """Ten vertices: degree-3 root (1) under the sink, a degree-2 blocker
    (5) shielding the only escape, leaf subtrees everywhere else.  The
    single-hop search stalls; chaining through the blocker's child reaches
    the free vertex 8."""
    edges = [
        (1, 0), (9, 0),
        (2, 1), (3, 1), (4, 1),
        (5, 3),
        (6, 5), (7, 5),
        (8, 7),
        (2, 5),  # escape from start 2 into the blocker
        (6, 8),  # escape from the blocker's child to the free vertex
    ]
    return Digraph(10, 0, edges)


def level1_state(t, cfg, k, level0):
    """A fresh LayeredState at class k, with the sorted level-1 list the
    driver keeps: the children of level 0."""
    level1 = sorted(c for v in level0 for c in t.children[v])
    return LayeredState(k, [level0], power_table(cfg.base_c, t.max_deg), level1, [])


def layered_fixture_state(g, k=3):
    t = build_initial_tree(g)
    cfg = Config.for_graph(g)
    return t, cfg, level1_state(t, cfg, k, t.members(k))


def test_eligible_starts_takes_clean_leaf_subtrees():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    extend_layer(t, g, st_, 1, cfg)
    # the level scan admits exactly the clean, in-budget children of V_0
    assert st_.levels_U == [{2, 4}]


def test_eligible_starts_excludes_dirty_subtree():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    extend_layer(t, g, st_, 1, cfg)
    assert 3 not in st_.levels_U[0]  # subtree contains the degree-2 blocker


def test_scan_budget_admits_exactly_its_floor():
    """k=4, level 1: the budget is 9/10 * eps/(1+eps) * 10**3, about 81.8.
    A 9-vertex chain (8 * 10 + 1 = 81) fits; a 10-vertex chain (91) does
    not."""
    edges = [(1, 0)] + [(v, 1) for v in (2, 3, 4, 5)]
    edges += [(6, 2)] + [(v, v - 1) for v in range(7, 14)]  # 2 .. 13: 9 vertices
    edges += [(14, 3)] + [(v, v - 1) for v in range(15, 23)]  # 3 .. 22: 10 vertices
    g = Digraph(23, 0, edges)
    t, cfg, st_ = layered_fixture_state(g, k=4)
    assert potential_budget(cfg, 1, 4) == 81
    assert sum(cfg.base_c ** t.deg(v) for v in t.subtree(2)) == 81
    assert extend_layer(t, g, st_, 1, cfg) == set()
    assert st_.levels_U == [{2, 4, 5}]


def exit_paths(exits):
    """exit_set's exits in discovery order, each with its path."""
    return [(x, exit_path(trail, x)) for x, trail in exits.items()]


def test_exit_set_leaf_with_two_exits():
    g = Digraph(4, 0, [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)])
    t = build_initial_tree(g)
    # at k=5 the parent (degree 3 <= k-2) is already a low exit
    assert exit_paths(exit_set(t, g, 3, 5, t.subtree(3))) == [(0, (3, 0))]
    # at k=3 it is not; the scan stops at the next exit, leaf 1
    exits = exit_set(t, g, 3, 3, t.subtree(3))
    assert exit_paths(exits) == [(0, (3, 0)), (1, (3, 1))]


def test_exit_set_empty_when_no_edges_leave():
    g = Digraph(3, 0, [(1, 0), (2, 1)])
    t = build_initial_tree(g)
    # vertex 1's only out-edge is its tree parent: exits = {0}; vertex 2's
    # only out-edge stays inside subtree(1) when rooted there.
    assert set(exit_set(t, g, 1, 5, t.subtree(1))) == {0}
    assert set(exit_set(t, g, 2, 5, t.subtree(2))) == {1}


@given(st.integers(0, 10 ** 6))
def test_exit_set_matches_brute_force(seed):
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 13, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    for u in range(g.n):
        inside = t.subtree(u)
        brute = brute_first_exits(t, g, u)
        # every class at which subtree(u) is clean, up to one where every
        # exit is low
        for k in range(max(t.deg(v) for v in inside) + 3, t.max_deg + 4):
            exits = exit_set(t, g, u, k, inside)
            assert set(exits) <= brute
            for x, path in exit_paths(exits):
                assert path[0] == u and path[-1] == x
                assert len(set(path)) == len(path)
                assert all(v in inside for v in path[:-1])
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)
            low = [x for x in exits if t.deg(x) <= k - 2]
            if low:
                assert low == [list(exits)[-1]]
            else:
                assert set(exits) == brute


def test_extend_layer_finds_endpoint_immediately():
    g = two_segment_fixture()
    t = build_initial_tree(g)
    # pretend the blocker is level 0: its clean child 6 escapes to 8
    cfg = Config.for_graph(g)
    st_ = level1_state(t, cfg, 3, {5})
    result = extend_layer(t, g, st_, 1, cfg)
    assert isinstance(result, FoundEndpoint)
    assert (result.u, result.exit) == (6, 8)
    assert st_.levels_U == [{6}]


def test_extend_layer_collects_blockers():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    result = extend_layer(t, g, st_, 1, cfg)
    assert result == {5}
    u, trail = st_.pred[5]
    assert (u, exit_path(trail, 5)) == (2, (2, 5))
    assert st_.seen == {1, 5}


def test_reconstruct_two_segments_and_validate():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    st_.levels_V.append(extend_layer(t, g, st_, 1, cfg))
    result = extend_layer(t, g, st_, 2, cfg)
    assert st_.levels_U[1] == {6}
    assert isinstance(result, FoundEndpoint)
    path = reconstruct_path(st_, result, t)
    assert path.segments == ((2, 5), (6, 8))
    validate_augmenting_path(t, g, path, cfg, st_.powers, st_.budgets)


def test_scan_matches_brute_force_on_corpus(monkeypatch):
    """Every level the solver scans on the random corpus, re-derived from
    subtree enumeration: a completed level admitted exactly the clean,
    in-budget children of V_{i-1}; an endpoint came from the lowest-id
    admitted start with an exit of degree <= k-2, and the scan admitted
    nothing past it.  After a completed level, the subtrees of every start
    admitted so far in the round are pairwise disjoint (the starts are
    unrelated)."""
    scan = dmdst.augmenting.extend_layer
    tally = {"completed": 0, "endpoints": 0, "rejected": 0}

    def checked(t, g, st_, i, cfg):
        k = st_.k
        candidates = sorted(c for v in st_.levels_V[i - 1] for c in t.children[v])
        admissible = [
            u for u in candidates
            if all(t.deg(w) <= k - 3 for w in t.subtree(u))
            and sum(cfg.base_c ** t.deg(w) for w in t.subtree(u))
            <= potential_budget(cfg, i, k)
        ]
        escaping = [
            u for u in admissible
            if any(t.deg(x) <= k - 2 for x in brute_first_exits(t, g, u))
        ]
        result = scan(t, g, st_, i, cfg)
        tally["rejected"] += len(candidates) - len(admissible)
        if isinstance(result, FoundEndpoint):
            tally["endpoints"] += 1
            assert result.u == escaping[0]
            assert st_.levels_U[i - 1] == {u for u in admissible if u <= result.u}
            assert t.deg(result.exit) <= k - 2
            assert result.exit in brute_first_exits(t, g, result.u)
        else:
            tally["completed"] += 1
            assert not escaping
            assert st_.levels_U[i - 1] == set(admissible)
            subtrees = [t.subtree(u) for level in st_.levels_U for u in level]
            assert sum(map(len, subtrees)) == len(set().union(*subtrees))
        return result

    monkeypatch.setattr(dmdst.augmenting, "extend_layer", checked)
    for n, extra, seed in random_corpus_specs():
        run_augmenting_search(gen_random(n, extra, seed))
    assert min(tally.values()) > 0, tally


def test_kept_level1_list_matches_fresh_sort(monkeypatch):
    """At every level-1 scan of the random corpus, the blocker family and
    a 2000-vertex sparse graph, the driver's kept list equals the sorted
    children of N_k, and it was rebuilt exactly when k changed."""
    scan = dmdst.augmenting.extend_layer
    seen = {"tree": None, "k": None, "list": None}
    tally = {"scans": 0, "rebuilds": 0, "k_changes": 0}

    def checked(t, g, st_, i, cfg):
        if i == 1:
            assert st_.level1 == sorted(c for v in st_.levels_V[0] for c in t.children[v])
            if t is not seen["tree"]:
                seen.update(tree=t, k=None, list=None)
            tally["scans"] += 1
            tally["rebuilds"] += st_.level1 is not seen["list"]
            tally["k_changes"] += st_.k != seen["k"]
            seen.update(k=st_.k, list=st_.level1)
        return scan(t, g, st_, i, cfg)

    monkeypatch.setattr(dmdst.augmenting, "extend_layer", checked)
    graphs = [gen_random(n, extra, seed) for n, extra, seed in random_corpus_specs()]
    graphs += [gen_blocker(k, f, s) for k, f in ((3, 2), (6, 10), (25, 30)) for s in range(3)]
    graphs.append(gen_random(2000, 4001, 1))
    for g in graphs:
        run_augmenting_search(g)
    assert tally["rebuilds"] == tally["k_changes"]
    assert tally["scans"] > tally["rebuilds"], tally  # some lists were carried over


def leaf_rule_exits(t, g, u: int, k: int) -> list[tuple[int, tuple]]:
    """The leaf rule's exits of leaf u, in order: u's out-list up to and
    including its first vertex of degree <= k-2, each one hop from u."""
    exits = []
    for y in g.out_edges[u]:
        exits.append((y, (u, None)))
        if t.deg(y) <= k - 2:
            break
    return exits


def general_layer(t, g, st_, i, cfg) -> FoundEndpoint | set[int]:
    """extend_layer with no leaf rule: every candidate, leaf or not, is
    admitted by subtree enumeration (clean and within the level budget)
    and explores exit_set over its whole subtree; the exits are filed as
    extend_layer files them."""
    k = st_.k
    budget = dmdst.augmenting.level_budget(cfg, k, st_.budgets, i)
    admitted = set()
    st_.levels_U.append(admitted)
    v_new = set()
    if i == 1:
        scan = st_.level1
    else:
        scan = sorted(c for v in st_.levels_V[i - 1] for c in t.children[v])
    for u in scan:
        sub = t.subtree(u)
        if any(t.deg(w) >= k - 2 for w in sub):
            continue
        if sum(st_.powers[t.deg(w)] for w in sub) > budget:
            continue
        admitted.add(u)
        for x, trail in exit_set(t, g, u, k, sub).items():
            if t.deg(x) <= k - 2:
                return FoundEndpoint(i, u, x, exit_path(trail, x))
            if t.deg(x) == k - 1 and x not in st_.seen:
                st_.seen.add(x)
                v_new.add(x)
                st_.pred[x] = (u, trail)
    return v_new


def check_leaf_rule(monkeypatch) -> Counter:
    """Wrap extend_layer so that each level scan first checks, on the tree
    it scans, that every leaf candidate gets from the leaf rule what the
    general path gives it: the walk's admission (k - 2 > 0 and c**0
    within the level budget), and, when admitted, exit_set(t, g, u, k, {u})
    key by key and trail by trail.  The scan's outcome (its return value,
    levels, discovery links and seen set) must then equal general_layer's
    on a copy of the state.  Returns a tally of the leaves checked."""
    scan = dmdst.augmenting.extend_layer
    tally = Counter()

    def checked(t, g, st_, i, cfg):
        k = st_.k
        budget = dmdst.augmenting.level_budget(cfg, k, st_.budgets, i)
        if i == 1:
            candidates = st_.level1
        else:
            candidates = sorted(c for v in st_.levels_V[i - 1] for c in t.children[v])
        for u in candidates:
            if t.children[u]:
                continue
            walked = dmdst.augmenting._clean_subtree(t.children, st_.powers, u, k, budget)
            admits = k - 2 > 0 and st_.powers[0] <= budget
            assert (walked is not None) == admits, (u, k, budget)
            tally["leaves"] += 1
            if admits:
                exits = list(exit_set(t, g, u, k, {u}).items())
                assert exits == leaf_rule_exits(t, g, u, k), u
                tally["admitted"] += 1
                tally["past_first"] += len(exits) > 1
        reference = copy.deepcopy(st_)
        result = scan(t, g, st_, i, cfg)
        assert result == general_layer(t, g, reference, i, cfg)
        assert (st_.levels_U, st_.pred, st_.seen) == (
            reference.levels_U, reference.pred, reference.seen
        )
        return result

    monkeypatch.setattr(dmdst.augmenting, "extend_layer", checked)
    return tally


def test_leaf_rule_matches_the_general_path_on_the_corpus(corpus_results, monkeypatch):
    """At every level of every round on the corpus, blocker instances and
    mid-size random graphs, each leaf start's admission and exits are the
    walk's and exit_set's, the level's outcome is the general path's, and
    the reports are as before.  Some admitted leaves have exits past their
    first out-neighbour."""
    tally = check_leaf_rule(monkeypatch)
    results, _ = corpus_results
    for s in results:
        report = run_augmenting_search(s.g, Config.for_graph(s.g), trace=True)
        assert report_without_timing(report) == report_without_timing(s.augment), s.name
    for g in [gen_blocker(6, 10, s) for s in range(3)] + [gen_random(60, 120, s) for s in range(3)]:
        run_augmenting_search(g)
    assert tally["admitted"] and tally["past_first"], tally
    assert tally["leaves"] > tally["admitted"], tally


@given(small_digraphs())
def test_leaf_rule_matches_the_general_path_on_small_digraphs(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_leaf_rule(monkeypatch)
        run_augmenting_search(g)


@pytest.mark.parametrize("k", [1, 2])
def test_leaf_is_rejected_at_class_two_and_below(k):
    """On the two-segment fixture at k = 2, leaf 6 under the degree-2
    vertex 5 has the exit 8 of degree 0 <= k-2, and at k = 1 leaf 8 under
    the degree-1 vertex 7 exits to it; still no leaf is a start there,
    since a start's own degree must be below k-2 <= 0, and the level
    admits nothing.  The level budget is set so high that only that rule
    decides: at the default epsilon the budget at k <= 2 is 0, which
    rejects every leaf anyway."""
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g, k)
    assert potential_budget(cfg, 1, k) == 0
    st_.budgets[:] = [10 ** 6]
    assert [u for u in st_.level1 if not t.children[u]] == {1: [8], 2: [6, 9]}[k]
    assert dmdst.augmenting._clean_subtree(t.children, st_.powers, 8, k, 10 ** 6) is None
    assert extend_layer(t, g, st_, 1, cfg) == set()
    assert st_.levels_U == [set()]


def test_leaf_is_rejected_under_a_zero_budget():
    """With the level-1 budget set to 0, the leaves 2 and 4 that the
    fixture admits at k = 3 (each worth c**0 = 1) are over it."""
    g = two_segment_fixture()
    t = build_initial_tree(g)
    cfg = Config.for_graph(g)
    for row, admitted in (([], {2, 4}), ([0], set())):
        st_ = level1_state(t, cfg, 3, t.members(3))
        st_.budgets[:] = row
        assert extend_layer(t, g, st_, 1, cfg) == ({5} if admitted else set())
        assert st_.levels_U == [admitted]


def test_validation_rejects_tampered_path():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    with pytest.raises(ValidationFailed):
        validate_augmenting_path(
            t, g, AugmentingPath(3, ((2, 5), (7, 8))), cfg, st_.powers, st_.budgets
        )
    with pytest.raises(ValidationFailed):
        validate_augmenting_path(
            t, g, AugmentingPath(3, ((4, 1),)), cfg, st_.powers, st_.budgets
        )


@pytest.mark.parametrize(
    "segments",
    [
        ((3, 1), (2, 0)),  # the later start, 2, is an ancestor of 3
        ((2, 3), (4, 0)),  # the earlier start, 2, is an ancestor of 4
    ],
)
def test_validation_rejects_related_starts(segments):
    """Check (ii): on the path 4 -> 3 -> 2 -> 1 -> 0, each pair of segments
    chains through a tree parent (check (i)), but one start's subtree holds
    the other start."""
    edges = [(1, 0), (2, 1), (3, 2), (4, 3), (2, 3), (4, 0), (3, 1), (2, 0)]
    g = Digraph(5, 0, edges)
    t = InTree(g, [None, 0, 1, 2, 3])
    cfg = Config.for_graph(g)
    powers = power_table(cfg.base_c, t.max_deg)
    with pytest.raises(ValidationFailed, match="related"):
        validate_augmenting_path(t, g, AugmentingPath(3, segments), cfg, powers, [])


def validate_on_fixture(segments, k=3):
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g, k)
    validate_augmenting_path(t, g, AugmentingPath(k, segments), cfg, st_.powers, st_.budgets)


def test_validation_rejects_vertex_shared_by_two_segments():
    """5 ends the first segment and sits inside the second, which chains
    under it (6 is 5's child) and ends at the low vertex 3."""
    with pytest.raises(ValidationFailed, match="5 appears twice"):
        validate_on_fixture(((2, 5), (6, 5, 3)))


def test_validation_rejects_final_endpoint_three_times():
    """The final endpoint 9 may sit inside one earlier segment, not two."""
    segments = ((1, 9, 2), (3, 9, 4), (5, 9))
    g = Digraph(10, 0, [(v, 0) for v in range(1, 10)] + [(1, 9), (9, 2), (3, 9), (9, 4), (5, 9)])
    t = build_initial_tree(g)
    cfg = Config.for_graph(g)
    powers = power_table(cfg.base_c, t.max_deg)
    with pytest.raises(ValidationFailed, match="final endpoint 9 appears 3 times"):
        validate_augmenting_path(t, g, AugmentingPath(3, segments), cfg, powers, [])


@pytest.mark.parametrize(
    "segments",
    [
        ((2, 5, 6, 5),),  # a repeated interior vertex
        ((2, 5), (6, 8, 7, 8)),  # the final endpoint twice in its own segment
    ],
)
def test_validation_rejects_segment_repeating_a_vertex(segments):
    """Repeats inside one segment are the simple-path check's, which runs
    before the cross-segment ones."""
    with pytest.raises(ValidationFailed, match="segment not a simple path"):
        validate_on_fixture(segments)


def test_apply_single_segment_matches_improvement_semantics():
    g = Digraph(6, 0, [(1, 0), (5, 0), (2, 1), (3, 1), (4, 1), (2, 5)])
    t = build_initial_tree(g)
    path = AugmentingPath(3, ((2, 5),))
    cfg = Config.for_graph(g)
    powers = power_table(cfg.base_c, t.max_deg)
    region = validate_augmenting_path(t, g, path, cfg, powers, [])
    assert region == t.subtree(2)
    before = degree_snapshot(t)
    apply_augmenting_path(t, path, powers, region)
    after = degree_snapshot(t)
    assert after[1] == before[1] - 1
    assert after[5] == before[5] + 1
    assert all(before[v] == after[v] for v in (0, 2, 3, 4))


@pytest.mark.parametrize(
    "extra, message",
    [
        ((4, 5), "degree class 5 > k grew"),
        ((2, 3), "degree-k class must shrink by exactly one"),
    ],
)
def test_apply_asserts_class_contracts_from_touched_degrees(monkeypatch, extra, message):
    # One more touched vertex, moving between the classes in extra, breaks
    # one class contract of the k = 3 adjustment (2, 5).
    g = Digraph(6, 0, [(1, 0), (5, 0), (2, 1), (3, 1), (4, 1), (2, 5)])
    t = build_initial_tree(g)
    real = dmdst.augmenting.rewrite_and_audit

    def with_extra(*args):
        delta = real(*args)
        return replace(delta, changed={**delta.changed, g.n: extra})

    monkeypatch.setattr(dmdst.augmenting, "rewrite_and_audit", with_extra)
    with pytest.raises(AssertionError, match=message):
        apply_augmenting_path(
            t, AugmentingPath(3, ((2, 5),)), power_table(10, t.max_deg), t.subtree(2)
        )


def test_apply_two_segment_fixture_postconditions():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    st_.levels_V.append(extend_layer(t, g, st_, 1, cfg))
    endpoint = extend_layer(t, g, st_, 2, cfg)
    path = reconstruct_path(st_, endpoint, t)
    counts_before = t.degree_counts()
    before = degree_snapshot(t)
    phi_before = t.potential(cfg.base_c)
    region = validate_augmenting_path(t, g, path, cfg, st_.powers, st_.budgets)
    apply_augmenting_path(t, path, st_.powers, region)
    counts_after = t.degree_counts()
    # degree-k class shrinks by one, nothing above k grows
    assert counts_after.get(3, 0) == counts_before[3] - 1
    assert all(
        counts_after.get(d, 0) <= counts_before.get(d, 0)
        for d in counts_before
        if d > 3
    )
    # middle endpoint keeps its degree, final endpoint gains one child
    assert t.deg(5) == before[5]
    assert t.deg(8) == before[8] + 1
    assert t.validate() == []
    assert t.potential(cfg.base_c) < phi_before


# -- one-hop bodies -------------------------------------------------------------


def one_hop_outcome(validate, apply, t, g, path, cfg, powers, budgets):
    """What validate then apply do with path on a copy of t: the exception
    each raised (type and message), or the region, the delta and the tree
    they leave."""
    t = InTree(g, t.parent)
    budgets = list(budgets)
    try:
        region = validate(t, g, path, cfg, powers, budgets)
    except ValidationFailed as e:
        return "validate", type(e), str(e)
    try:
        delta = apply(t, path, powers, region)
    except (StalePath, AssertionError) as e:
        return "apply", region, type(e), str(e)
    return "applied", region, delta, t.parent, t.children, t.degree_counts(), budgets


def compare_one_hop_bodies(t, g, path, cfg, powers, budgets) -> tuple:
    """The outcome of path under the one-hop bodies, required equal to its
    outcome under the general bodies."""
    one_hop = one_hop_outcome(
        dmdst.augmenting._validate_one_hop, dmdst.augmenting._apply_one_hop,
        t, g, path, cfg, powers, budgets,
    )
    general = one_hop_outcome(
        dmdst.augmenting._validate_general, dmdst.augmenting._apply_general,
        t, g, path, cfg, powers, budgets,
    )
    assert one_hop == general, path
    return one_hop


def sweep_one_hop_paths(t, g, k, cfg, powers, budgets, tally: Counter) -> None:
    """Every pair (u, y) as a one-hop path at class k on t, with the given
    level-budget row and with a zero budget: the two bodies agree on each.
    tally counts the outcomes by kind (each failure by its message's
    stem)."""
    for row in (budgets, [0]):
        for u in range(g.n):
            for y in range(g.n):
                outcome = compare_one_hop_bodies(
                    t, g, AugmentingPath(k, ((u, y),)), cfg, powers, row
                )
                if outcome[0] == "applied":
                    tally["applied"] += 1
                else:
                    message = outcome[-1]
                    tally[next((kind for stem, kind in ONE_HOP_KINDS.items()
                                if stem in message), message)] += 1


# a stem of each message a one-hop path can raise, and what broke
ONE_HOP_KINDS = {
    "not a simple path": "u = y",
    "not a graph edge": "non-edge",
    "parent must have degree": "parent's degree != k",
    "above degree": "y above k-1",
    "contains a degree": "unclean subtree",
    "over its potential budget": "over budget",
    "inside subtree": "y inside the subtree",
    "has degree": "y at k-1 at apply",
}


def test_one_hop_bodies_match_the_general_bodies_on_the_corpus(corpus_results, monkeypatch):
    """Every one-hop path the corpus applies, and every other pair (u, y)
    on the same tree at the same class, under its level-budget row and a
    zero one: the one-hop bodies return the general bodies' region and
    delta and leave the same tree, or raise the same exception with the
    same message.  The sweep reaches every check a one-hop path can fail."""
    validate = dmdst.augmenting.validate_augmenting_path
    states = []

    def recorded(t, g, path, cfg, powers, budgets):
        segs = path.segments
        if len(segs) == 1 and len(segs[0]) == 2:
            states.append((InTree(g, t.parent), g, path, cfg, powers, list(budgets)))
        return validate(t, g, path, cfg, powers, budgets)

    monkeypatch.setattr(dmdst.augmenting, "validate_augmenting_path", recorded)
    results, _ = corpus_results
    for s in results:
        run_augmenting_search(s.g, Config.for_graph(s.g))
    tally: Counter = Counter()
    for t, g, path, cfg, powers, budgets in states:
        assert compare_one_hop_bodies(t, g, path, cfg, powers, budgets)[0] == "applied"
        sweep_one_hop_paths(t, g, path.k, cfg, powers, budgets, tally)
    assert len(states) > 100
    assert set(tally) == {"applied", *ONE_HOP_KINDS.values()}, tally


@given(small_digraphs())
def test_one_hop_bodies_match_the_general_bodies_on_small_digraphs(g):
    t = build_initial_tree(g)
    cfg = Config.for_graph(g)
    powers = power_table(cfg.base_c, t.max_deg)
    for k in range(1, t.max_deg + 1):
        sweep_one_hop_paths(t, g, k, cfg, powers, [], Counter())


def postcondition_fixture() -> tuple[Digraph, InTree]:
    """Class k = 5: vertex 1 under the sink with the leaf children 2..6;
    the sink's other children are 7, with the leaf children 8, 9, 10, and
    the leaf 11.  The one-hop paths (2, 7) and (2, 11) are valid; 3 also
    reaches 7, and the sink reaches 11."""
    edges = [(1, 0), (7, 0), (11, 0), (2, 7), (2, 11), (3, 7), (0, 11)]
    edges += [(v, 1) for v in range(2, 7)] + [(v, 7) for v in (8, 9, 10)]
    g = Digraph(12, 0, edges)
    return g, InTree(g, [None, 0, 1, 1, 1, 1, 1, 0, 7, 7, 7, 0])


def extra_changed(v, degrees):
    return lambda t, delta: replace(delta, changed={**delta.changed, v: degrees})


def one_more_child_under_7(t, delta):
    t.cut_and_append(3, 7)
    return delta


@pytest.mark.parametrize(
    "segment, doctor",
    [
        ((2, 11), extra_changed(12, (4, 6))),  # a class above k grows
        ((2, 11), extra_changed(12, (4, 5))),  # the class k keeps its size
        ((2, 11), extra_changed(1, (5, 3))),  # the old parent loses two children
        ((2, 11), extra_changed(11, (0, 3))),  # y gains three children
        ((2, 7), one_more_child_under_7),  # y ends at degree k
        ((2, 11), lambda t, delta: replace(delta, phi_after=delta.phi_before)),
        ((0, 11), None),  # the sink as start: no parent to leave
    ],
)
def test_one_hop_apply_keeps_every_postcondition(monkeypatch, segment, doctor):
    """A rewrite that breaks one of apply's contracts, or a start with no
    parent, fails the one-hop body with the general body's assertion:
    checks that no path the validator passes can reach."""
    g, t = postcondition_fixture()
    cfg = Config.for_graph(g)
    powers = power_table(cfg.base_c, t.max_deg)
    path = AugmentingPath(5, (segment,))
    real = dmdst.augmenting.rewrite_and_audit
    if doctor is not None:
        monkeypatch.setattr(
            dmdst.augmenting, "rewrite_and_audit", lambda t, *a: doctor(t, real(t, *a))
        )
    # the region is the start's subtree, as validation would return it for
    # the valid paths; the sink's path is applied unvalidated
    def region(t, *args):
        return t.subtree(segment[0])

    outcomes = [
        one_hop_outcome(region, apply, t, g, path, cfg, powers, [])
        for apply in (dmdst.augmenting._apply_one_hop, dmdst.augmenting._apply_general)
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "apply" and outcomes[0][2] is AssertionError


def test_multi_hop_paths_take_the_general_bodies(monkeypatch):
    """The two-segment fixture's path and a one-segment path of three
    vertices validate and apply with the one-hop bodies made to raise."""

    def refuse(*args):
        raise RuntimeError("one-hop body called")

    monkeypatch.setattr(dmdst.augmenting, "_validate_one_hop", refuse)
    monkeypatch.setattr(dmdst.augmenting, "_apply_one_hop", refuse)
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    st_.levels_V.append(extend_layer(t, g, st_, 1, cfg))
    path = reconstruct_path(st_, extend_layer(t, g, st_, 2, cfg), t)
    assert path.segments == ((2, 5), (6, 8))
    region = validate_augmenting_path(t, g, path, cfg, st_.powers, st_.budgets)
    apply_augmenting_path(t, path, st_.powers, region)
    # class 4: start 2, under the degree-4 vertex 1, steps to its child 6
    # and out to the leaf 7
    edges = [(1, 0), (7, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (2, 6), (6, 7)]
    g = Digraph(8, 0, edges)
    t = InTree(g, [None, 0, 1, 1, 1, 1, 2, 0])
    cfg = Config.for_graph(g)
    powers = power_table(cfg.base_c, t.max_deg)
    path = AugmentingPath(4, ((2, 6, 7),))
    region = validate_augmenting_path(t, g, path, cfg, powers, [])
    assert region == {2, 6}
    delta = apply_augmenting_path(t, path, powers, region)
    assert delta.changed == {1: (4, 3), 2: (1, 0), 6: (0, 1), 7: (0, 1)}
    # while a one-hop path does reach the refusing body
    with pytest.raises(RuntimeError, match="one-hop body called"):
        validate_augmenting_path(t, g, AugmentingPath(4, ((3, 7),)), cfg, powers, [])


@given(small_digraphs())
def test_one_hop_bodies_leave_reports_unchanged(g):
    """With the one-hop bodies replaced by the general ones, a traced
    solve's report is the same but for its wall time."""
    report = run_augmenting_search(g, trace=True)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            dmdst.augmenting, "_validate_one_hop", dmdst.augmenting._validate_general
        )
        monkeypatch.setattr(dmdst.augmenting, "_apply_one_hop", dmdst.augmenting._apply_general)
        general = run_augmenting_search(g, trace=True)
    assert report_without_timing(general) == report_without_timing(report)


def test_subtree_potential_and_budget():
    g = two_segment_fixture()
    t = build_initial_tree(g)
    cfg = Config.for_graph(g)
    # start subtrees: the leaf 2, and 7 with its child 8
    assert t.subtree(2) == {2} and t.subtree(7) == {7, 8}
    assert sum(cfg.base_c ** t.deg(v) for v in t.subtree(2)) == 1
    assert sum(cfg.base_c ** t.deg(v) for v in t.subtree(7)) == cfg.base_c + 1
    budget = potential_budget(cfg, 1, 3)
    assert isinstance(budget, int)
    eps = Fraction(0.1)
    assert cfg.epsilon == eps
    assert budget == math.floor(Fraction(9, 10) * eps / (1 + eps) * cfg.base_c ** 2)


def test_budget_table_matches_potential_budget_on_corpus(monkeypatch):
    """Every budget a corpus solve reads, at epsilon 0.1 (c = 10) and 0.15
    (c = 7), comes from its class's row of the solve's table, and each
    row's entry for level i is potential_budget(cfg, i, k)."""
    scan = dmdst.augmenting.extend_layer
    rows = {}

    def recorded(t, g, st_, i, cfg):
        result = scan(t, g, st_, i, cfg)
        assert len(st_.budgets) >= i
        rows[id(st_.budgets)] = (cfg, st_.k, st_.budgets)
        return result

    monkeypatch.setattr(dmdst.augmenting, "extend_layer", recorded)
    for _, g in corpus_instances():
        for epsilon in (0.1, 0.15):
            run_augmenting_search(g, Config.for_graph(g, epsilon=epsilon))
    for cfg, k, row in rows.values():
        assert row == [potential_budget(cfg, i, k) for i in range(1, len(row) + 1)]
    assert len(rows) > 50 and max(len(row) for _, _, row in rows.values()) >= 2


def test_run_on_path_returns_immediately():
    report = run_augmenting_search(gen_path(7))
    assert report.delta_final == 1
    assert report.iterations == 0


def test_run_on_fixture_reaches_two():
    g = two_segment_fixture()
    report = run_augmenting_search(g, trace=True)
    assert report.delta_initial == 3
    assert report.delta_final == 2
    applied = [row for row in report.layers_trace if row["applied"]]
    assert applied and applied[0]["segments"] == 2


def test_run_beats_local_on_blocker_family():
    g = gen_blocker(3, 2, 11)
    report = run_augmenting_search(g)
    assert report.delta_final == 2


@given(st.integers(0, 200))
def test_layer_count_bounded(seed):
    n = 5 + seed % 5
    g = gen_random(n, min(seed % 12, (n - 1) ** 2), seed)
    report = run_augmenting_search(g, trace=True)
    bound = 10.0 / 0.1 * math.log2(g.n)
    for row in report.layers_trace:
        assert row["layers"] <= bound


@given(st.integers(0, 300))
def test_growth_guard_invariant_on_corpus(seed):
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 13, (n - 1) ** 2), seed)
    report = run_augmenting_search(g)
    assert report.delta_final <= report.delta_initial
    parents = report.parent
    assert parents.count(-1) == 1


def test_tiny_epsilon_stalls_once_levels_stop_growing(monkeypatch):
    """At eps = 1e-30, 1.0 + eps == 1.0 in floats, so a float growth test
    never stops a round; the exact test stops it at the first level that
    adds no vertex.  The scan is capped so a search that never stops fails
    instead of hanging."""
    scan = dmdst.augmenting.extend_layer
    calls = 0

    def capped(*args):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise RuntimeError("level scan ran 1000 times")
        return scan(*args)

    monkeypatch.setattr(dmdst.augmenting, "extend_layer", capped)
    g = gen_random(30, 60, 7)
    report = run_augmenting_search(g, Config.for_graph(g, epsilon=1e-30), trace=True)
    assert report.exit_reason == "stalled"
    assert (report.delta_initial, report.delta_final) == (8, 3)
    assert report.lower_bound == Fraction(3, 2) and report.certificate.verified
    assert not report.layers_trace[-1]["applied"]


def test_growth_test_is_exact_at_ten_percent():
    """Levels of 10 then 11 vertices grow by exactly 10%.  With eps the
    float 0.1 read exactly (slightly above 1/10), 11 < (1 + eps) * 10 and
    the round stalls after one layer; the float product 1.1 * 10 rounds to
    11.0, which let the round go on to a second layer."""
    report = run_augmenting_search(gen_random(650, 1301, 4079), trace=True)
    assert report.exit_reason == "stalled"
    assert report.delta_final == 5
    assert report.lower_bound == Fraction(10, 7) and report.certificate.verified
    stall = report.layers_trace[-1]
    assert (stall["applied"], stall["k"], stall["layers"]) == (False, 4, 1)


def test_paper_profile_guarantee_requires_certificate_or_threshold():
    g = gen_random(100, 400, 2)
    report = run_augmenting_search(g, Config.for_graph(g, profile="paper"))
    if report.guarantee == "proved":
        assert report.exit_reason == "threshold" or (
            report.certificate is not None and report.certificate.verified
        )
    report = run_augmenting_search(g)  # practical profile
    assert report.guarantee == "heuristic"


def test_changed_set_audit_agrees_with_full_validate(corpus_results, full_audit):
    """Every corpus augmenting adjustment, audited by both the changed-set
    audit and a full validate(): they agree, and the reports are unchanged
    when the full audit's result is the one the solver acts on."""
    results, _ = corpus_results
    for s in results:
        report = run_augmenting_search(s.g, Config.for_graph(s.g), trace=True)
        assert report_without_timing(report) == report_without_timing(s.augment), s.name
    assert len(full_audit) == sum(s.augment.iterations for s in results)
    multi = [
        row for s in results for row in s.augment.layers_trace
        if row["applied"] and row["segments"] > 1
    ]
    assert multi, "corpus has no multi-segment adjustment"

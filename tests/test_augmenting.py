import math
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
    ValidationFailed,
    apply_augmenting_path,
    exit_set,
    extend_layer,
    potential_budget,
    power_table,
    reconstruct_path,
)
from conftest import (
    brute_first_exits,
    degree_snapshot,
    random_corpus_specs,
    report_without_timing,
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
    return LayeredState(k, [level0], power_table(cfg, t.max_deg), level1)


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
    assert st_.covered == {2, 4}


def test_eligible_starts_excludes_dirty_subtree():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    extend_layer(t, g, st_, 1, cfg)
    assert 3 not in st_.levels_U[0]  # subtree contains the degree-2 blocker
    assert 3 not in st_.covered


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


def test_exit_set_leaf_with_two_exits():
    g = Digraph(4, 0, [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)])
    t = build_initial_tree(g)
    # at k=5 the parent (degree 3 <= k-2) is already a low exit
    assert list(exit_set(t, g, 3, 5, t.subtree(3)).items()) == [(0, (3, 0))]
    # at k=3 it is not; the scan stops at the next exit, leaf 1
    exits = exit_set(t, g, 3, 3, t.subtree(3))
    assert list(exits.items()) == [(0, (3, 0)), (1, (3, 1))]


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
            for x, path in exits.items():
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
    assert st_.pred[5] == (2, (2, 5))
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
    validate_augmenting_path(t, g, path, cfg, st_.powers)


def test_scan_matches_brute_force_on_corpus(monkeypatch):
    """Every level the solver scans on the random corpus, re-derived from
    subtree enumeration: a completed level admitted exactly the clean,
    in-budget children of V_{i-1}; an endpoint came from the lowest-id
    admitted start with an exit of degree <= k-2, and the scan admitted
    nothing past it."""
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


def test_validation_rejects_tampered_path():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    with pytest.raises(ValidationFailed):
        validate_augmenting_path(t, g, AugmentingPath(3, ((2, 5), (7, 8))), cfg, st_.powers)
    with pytest.raises(ValidationFailed):
        validate_augmenting_path(t, g, AugmentingPath(3, ((4, 1),)), cfg, st_.powers)


def test_apply_single_segment_matches_improvement_semantics():
    g = Digraph(6, 0, [(1, 0), (5, 0), (2, 1), (3, 1), (4, 1), (2, 5)])
    t = build_initial_tree(g)
    path = AugmentingPath(3, ((2, 5),))
    cfg = Config.for_graph(g)
    validate_augmenting_path(t, g, path, cfg, power_table(cfg, t.max_deg))
    before = degree_snapshot(t)
    apply_augmenting_path(t, path, cfg)
    after = degree_snapshot(t)
    assert after[1] == before[1] - 1
    assert after[5] == before[5] + 1
    assert all(before[v] == after[v] for v in (0, 2, 3, 4))


def test_apply_two_segment_fixture_postconditions():
    g = two_segment_fixture()
    t, cfg, st_ = layered_fixture_state(g)
    st_.levels_V.append(extend_layer(t, g, st_, 1, cfg))
    endpoint = extend_layer(t, g, st_, 2, cfg)
    path = reconstruct_path(st_, endpoint, t)
    counts_before = t.degree_counts()
    before = degree_snapshot(t)
    phi_before = t.potential(cfg.base_c)
    apply_augmenting_path(t, path, cfg)
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
    assert report.lower_bound == Fraction(1, 2) and report.certificate.verified
    assert not report.layers_trace[-1]["applied"]


def test_growth_test_is_exact_at_ten_percent():
    """Levels of 10 then 11 vertices grow by exactly 10%.  With eps the
    float 0.1 read exactly (slightly above 1/10), 11 < (1 + eps) * 10 and
    the round stalls after one layer; the float product 1.1 * 10 rounds to
    11.0, which let the round go on to a second layer and certify 1/4."""
    report = run_augmenting_search(gen_random(650, 1301, 4079), trace=True)
    assert report.exit_reason == "stalled"
    assert report.delta_final == 5
    assert report.lower_bound == Fraction(1, 6) and report.certificate.verified
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

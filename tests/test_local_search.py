import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dmdst.local_search

from dmdst import (
    Config,
    Digraph,
    build_initial_tree,
    gen_blocker,
    choose_k,
    find_improvement_path,
    apply_improvement_path,
    gen_instar,
    gen_path,
    gen_random,
    psi,
    run_local_search,
)
from dmdst.local_search import StalePath, argmax_degree_class
from conftest import brute_improvement_paths, degree_snapshot, report_without_timing


def star_with_escape(with_chord: bool = True) -> Digraph:
    """Sink 0 with children 1 and 5; vertex 1 has children 2, 3, 4; the
    optional chord 2 -> 5 opens a single-hop escape for vertex 2."""
    edges = [(1, 0), (5, 0), (2, 1), (3, 1), (4, 1)]
    if with_chord:
        edges.append((2, 5))
    return Digraph(6, 0, edges)


def full_psi(t, u: int, k: int) -> int:
    """psi(t, u, k) summed in full: no subtree's sum exceeds the potential."""
    return psi(t, u, k, t.potential(2), set())


def instar_with_ham_path(n: int) -> Digraph:
    edges = [(v, 0) for v in range(1, n)]
    edges.extend((v + 1, v) for v in range(1, n - 1))
    return Digraph(n, 0, edges)


def test_find_path_single_hop_example():
    g = star_with_escape()
    t = build_initial_tree(g)
    assert t.deg(1) == 3
    p = find_improvement_path(t, g, 2, 3, t.subtree(2))
    assert p is not None
    assert p.vertices == (2, 5)


def test_find_path_absent_without_chord():
    g = star_with_escape(with_chord=False)
    t = build_initial_tree(g)
    assert find_improvement_path(t, g, 2, 3, t.subtree(2)) is None


@given(st.integers(0, 10 ** 6))
def test_find_path_existence_matches_brute_force(seed):
    n = 4 + seed % 6
    g = gen_random(n, min((seed // 3) % 13, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    for u in range(g.n):
        p = t.parent[u]
        if p is None:
            continue
        d = t.deg(p)
        found = find_improvement_path(t, g, u, d, t.subtree(u))
        brute = brute_improvement_paths(t, g, u, d)
        assert (found is not None) == bool(brute)
        if found is not None:
            assert list(found.vertices) in brute
            assert len(found.vertices) == min(len(b) for b in brute)


def test_apply_single_hop_example():
    g = star_with_escape()
    t = build_initial_tree(g)
    p = find_improvement_path(t, g, 2, 3, t.subtree(2))
    delta = apply_improvement_path(t, p)
    assert t.deg(1) == 2
    assert t.deg(5) == 1
    assert t.max_deg == 2
    assert delta.changed[1] == (3, 2)
    assert delta.changed[5] == (0, 1)
    assert delta.phi_drop == (8 - 4) + (1 - 2)


def test_apply_rejects_stale_path():
    g = star_with_escape()
    t = build_initial_tree(g)
    p = find_improvement_path(t, g, 2, 3, t.subtree(2))
    apply_improvement_path(t, p)
    with pytest.raises(StalePath):
        apply_improvement_path(t, p)


def test_apply_potential_change_matches_recomputation():
    g = instar_with_ham_path(8)
    t = build_initial_tree(g)
    k = choose_k(t, 2)
    for u in sorted(c for p in t.members(k) for c in t.children[p]):
        path = find_improvement_path(t, g, u, k, t.subtree(u))
        if path is None:
            continue
        before = t.potential(2)
        delta = apply_improvement_path(t, path)
        assert delta.phi_before == before
        assert delta.phi_after == t.potential(2)
        break
    else:
        pytest.fail("no applicable improvement found")


def test_choose_k_direct_arithmetic():
    assert argmax_degree_class({0: 5, 1: 3, 2: 1}, 2) == 1
    assert argmax_degree_class({0: 1, 3: 1}, 2) == 3
    # tie at equal scores goes to the larger class
    assert argmax_degree_class({1: 2, 2: 1}, 2) == 2


@given(st.integers(0, 10 ** 6))
def test_choose_k_dominates_delta_minus_log_n(seed):
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 13, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    assert choose_k(t, 2) >= t.max_deg - math.log2(g.n)


def test_psi_boundary_and_leaf():
    # Degree-4 star below the sink: psi over four leaf children is 4,
    # exactly the default gate at k = 5.
    g = Digraph(6, 0, [(1, 0)] + [(v, 1) for v in range(2, 6)])
    t = build_initial_tree(g)
    assert full_psi(t, 1, 5) == 4
    assert Fraction(full_psi(t, 1, 5)) <= Fraction(1, 8) * 2 ** 5
    assert full_psi(t, 2, 3) == 1  # leaf


def test_psi_excludes_high_degree_vertices():
    g = instar_with_ham_path(6)
    t = build_initial_tree(g)
    assert full_psi(t, 1, 2) == 1  # only the leaf itself qualifies at k=2


@given(st.integers(0, 10 ** 6))
def test_psi_matches_subtree_enumeration(seed):
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 9, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    for u in range(g.n):
        for k in (2, 3, 5):
            expected = sum(
                2 ** t.deg(v) for v in t.subtree(u) if t.deg(v) <= k - 2
            )
            inside: set[int] = set()
            assert psi(t, u, k, t.potential(2), inside) == expected
            assert inside == t.subtree(u)
            for limit in (0, Fraction(3, 2), expected - 1, expected):
                inside = set()
                early = psi(t, u, k, limit, inside)
                assert early == expected if expected <= limit else early > limit
                assert inside <= t.subtree(u)
                if expected <= limit:
                    assert inside == t.subtree(u)


def test_run_on_path_returns_immediately():
    report = run_local_search(gen_path(6))
    assert report.delta_final == 1
    assert report.iterations == 0
    assert report.parent == [-1, 0, 1, 2, 3, 4]


def count_candidate_work(monkeypatch) -> list[tuple[str, object]]:
    """Record each psi and find_improvement_path call as (name, result)."""
    calls = []
    for name in ("psi", "find_improvement_path"):
        fn = getattr(dmdst.local_search, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            calls.append((_name, result))
            return result

        monkeypatch.setattr(dmdst.local_search, name, counted)
    return calls


def test_path_stalls_without_psi_or_path_search(monkeypatch):
    """k = 1 on a path: the round stalls before any candidate is tried."""
    calls = count_candidate_work(monkeypatch)
    report = run_local_search(gen_path(2000))
    assert calls == []
    assert (report.delta_initial, report.delta_final, report.iterations) == (1, 1, 0)
    assert report.exit_reason == "stalled"
    assert report.certificate is None and report.lower_bound is None
    assert report.parent == [-1] + list(range(1999))


def test_class_two_stalls_without_psi_or_path_search(monkeypatch):
    """k = 2 on a binary in-tree: the gate is 1/2 and every subtree holds a
    leaf (psi >= 1), so the round stalls before any candidate is tried."""
    n = 255
    g = Digraph(n, 0, [(v, (v - 1) // 2) for v in range(1, n)])
    assert choose_k(build_initial_tree(g), 2) == 2
    calls = count_candidate_work(monkeypatch)
    report = run_local_search(g)
    assert calls == []
    assert (report.delta_initial, report.delta_final, report.iterations) == (2, 2, 0)
    assert report.exit_reason == "stalled"
    assert report.parent == [-1] + [(v - 1) // 2 for v in range(1, n)]


def candidate_without_exit() -> Digraph:
    """Sink 0 with children 1..5, a leaf 6 below 1, and leaves 7..10 below
    2.  At k = 5, candidate 1 passes the first hop (to its own child 6) and
    the gate (psi = 2 + 1 <= 4), but every edge leaving its subtree lands
    on 0 or 2, of degrees 5 and 4 > k - 2."""
    edges = [(v, 0) for v in range(1, 6)] + [(v, 2) for v in range(7, 11)]
    edges += [(1, 6), (1, 2), (6, 1), (6, 2)]
    return Digraph(11, 0, edges)


def test_path_search_reuses_the_gated_subtree(corpus_results, monkeypatch):
    """The vertex set psi collected is exactly subtree(u) whenever the
    path search runs, and reusing it leaves every corpus report as is;
    a search that finds no exit is checked too."""
    search = dmdst.local_search.find_improvement_path
    found = []

    def checked(t, g, u, d, inside):
        assert inside == t.subtree(u), u
        path = search(t, g, u, d, inside)
        found.append(path is not None)
        return path

    monkeypatch.setattr(dmdst.local_search, "find_improvement_path", checked)
    results, _ = corpus_results
    for s in results:
        report = run_local_search(s.g, Config.for_graph(s.g), trace=True)
        assert report_without_timing(report) == report_without_timing(s.local), s.name
    assert found.count(True) == sum(s.local.iterations for s in results)
    del found[:]
    g = candidate_without_exit()
    t = build_initial_tree(g)
    assert (choose_k(t, 2), t.parent[1], t.children[1], full_psi(t, 1, 5)) == (5, 0, [6], 3)
    report = run_local_search(g)
    assert found == [False]
    assert (report.delta_final, report.iterations, report.exit_reason) == (5, 0, "stalled")


def reference_rounds(g: Digraph) -> list[tuple[int, tuple[int, ...]]]:
    """(k, path) of every round of a scan without the first-hop test: psi,
    then the path search, on every candidate in ascending order.  Each
    round also checks that every candidate the first-hop test would skip
    has no improvement path."""
    t = build_initial_tree(g)
    rounds = []
    while t.max_deg > 0:
        k = choose_k(t, 2)
        if k <= 2:
            break
        gate = 2 ** k // 8
        chosen = None
        for u in sorted(c for p in t.members(k) for c in t.children[p]):
            if not any(t.deg(y) <= k - 2 for y in g.out_edges[u]):
                assert find_improvement_path(t, g, u, k, t.subtree(u)) is None, u
            if chosen is None and full_psi(t, u, k) <= gate:
                chosen = find_improvement_path(t, g, u, k, t.subtree(u))
        if chosen is None:
            break
        rounds.append((k, chosen.vertices))
        apply_improvement_path(t, chosen)
    return rounds


def solver_rounds(g: Digraph, monkeypatch) -> list[tuple[int, tuple[int, ...]]]:
    """(k, path) of every improvement run_local_search applies."""
    applied = []
    apply = dmdst.local_search.apply_improvement_path

    def recorded(t, p):
        applied.append((p.d, p.vertices))
        return apply(t, p)

    monkeypatch.setattr(dmdst.local_search, "apply_improvement_path", recorded)
    report = run_local_search(g)
    monkeypatch.undo()
    assert report.iterations == len(applied)
    return applied


def test_first_hop_skip_is_exact_on_the_corpus(corpus_results, monkeypatch):
    """Every round picks the same candidate and path as a scan without the
    first-hop test, and every candidate the test skips has no path."""
    results, _ = corpus_results
    applied = 0
    for s in results:
        rounds = reference_rounds(s.g)
        assert solver_rounds(s.g, monkeypatch) == rounds, s.name
        applied += len(rounds)
    assert applied == sum(s.local.iterations for s in results) > 0


@st.composite
def small_digraphs(draw) -> Digraph:
    """A digraph on 3..9 vertices whose sink 0 every vertex reaches: each
    v >= 1 has an edge to some smaller vertex, plus any extra edges."""
    n = draw(st.integers(3, 9))
    edges = {(v, draw(st.integers(0, v - 1))) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(u, v) for u, v in draw(st.sets(pairs, max_size=3 * n)) if u != v}
    return Digraph(n, 0, sorted(edges))


@given(small_digraphs())
def test_first_hop_skip_is_exact_on_small_digraphs(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert solver_rounds(g, monkeypatch) == reference_rounds(g)


def test_first_hop_skips_blocked_candidates_before_psi(monkeypatch):
    """On a blocker instance every round walks one subtree and runs one
    path search, the one that applies; without the first-hop test it made
    1,012 psi calls and 982 path searches that found nothing."""
    calls = count_candidate_work(monkeypatch)
    report = run_local_search(gen_blocker(30, 60, 1009))
    psi_calls = [r for name, r in calls if name == "psi"]
    searches = [r for name, r in calls if name == "find_improvement_path"]
    assert len(psi_calls) == report.iterations == 28
    assert len(searches) == 28 and None not in searches
    assert (report.delta_initial, report.delta_final) == (30, 30)


def test_run_improves_star_with_ham_path():
    g = instar_with_ham_path(9)
    report = run_local_search(g, Config.for_graph(g), trace=True)
    assert report.delta_final < report.delta_initial
    for row in report.potential_trace:
        assert Fraction(row["drop"]) >= Fraction(2 ** row["k"], 8)


def test_run_reports_heuristic_guarantee_on_practical():
    report = run_local_search(gen_instar(5))
    assert report.guarantee == "heuristic"
    assert report.certificate is not None
    assert report.certificate.verified
    assert report.lower_bound == Fraction(4)


def test_paper_profile_is_vacuous_at_desk_scale():
    g = gen_random(30, 60, 5)
    cfg = Config.for_graph(g, profile="paper")
    report = run_local_search(g, cfg)
    assert report.iterations == 0
    assert report.exit_reason == "threshold"
    assert report.guarantee == "proved"


def test_adjustment_audit_off_path_untouched():
    g = instar_with_ham_path(9)
    t = build_initial_tree(g)
    k = choose_k(t, 2)
    candidates = sorted(c for p in t.members(k) for c in t.children[p])
    for u in candidates:
        path = find_improvement_path(t, g, u, k, t.subtree(u))
        if path is None:
            continue
        old_parent = t.parent[u]
        before = degree_snapshot(t)
        apply_improvement_path(t, path)
        after = degree_snapshot(t)
        on_path = set(path.vertices)
        assert after[old_parent] == before[old_parent] - 1
        for v in range(g.n):
            if v not in on_path and v != old_parent:
                assert before[v] == after[v]
        return
    pytest.fail("no applicable improvement found")


def test_changed_set_audit_agrees_with_full_validate(corpus_results, full_audit):
    """Every corpus improvement, audited by both the changed-set audit and
    a full validate(): they agree, and the reports are unchanged when the
    full audit's result is the one the solver acts on."""
    results, _ = corpus_results
    for s in results:
        report = run_local_search(s.g, Config.for_graph(s.g), trace=True)
        assert report_without_timing(report) == report_without_timing(s.local), s.name
    assert len(full_audit) == sum(s.local.iterations for s in results)
    assert max(full_audit) >= 2

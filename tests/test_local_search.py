import ast
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import dmdst.augmenting
import dmdst.local_search
import dmdst.search

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
    power_table,
    psi,
    rank_table,
    run_augmenting_search,
    run_local_search,
)
from dmdst.local_search import ImprovementPath
from dmdst.search import StalePath, argmax_degree_class
from dmdst.tree import InTree
from conftest import (
    brute_improvement_paths,
    corpus_instances,
    degree_snapshot,
    report_without_timing,
    small_digraphs,
)


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


def local_k(t) -> int:
    """The local search's class: choose_k over the base-2 rank table."""
    return choose_k(t, rank_table(2, t.max_deg))


def powers2(t) -> list[int]:
    """The local search's power table, 2**d up to t's Delta."""
    return power_table(2, t.max_deg)


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
    delta = apply_improvement_path(t, p, powers2(t))
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
    apply_improvement_path(t, p, powers2(t))
    with pytest.raises(StalePath):
        apply_improvement_path(t, p, powers2(t))


@pytest.mark.parametrize(
    "vertices, message",
    [
        ((2, 5, 2), "not a simple path: (2, 5, 2)"),
        ((2, 3), "(2, 3) is not a graph edge"),
        ((2, 1), "vertex 1 has degree 3 > 1"),
        ((2, 5, 6), "interior vertex 5 left subtree(2)"),
        ((2, 7), "endpoint 7 is inside subtree(2)"),
    ],
)
def test_apply_rejects_each_broken_path_check(vertices, message):
    """Class 3: start 2, with its child 7, under the degree-3 vertex 1;
    5 and 6 are leaves under the sink.  Each path breaks one check of the
    revalidation, and apply leaves the tree as it was."""
    edges = [(1, 0), (5, 0), (6, 0), (2, 1), (3, 1), (4, 1), (7, 2), (2, 5), (5, 6), (2, 7)]
    g = Digraph(8, 0, edges)
    t = InTree(g, [None, 0, 1, 1, 1, 0, 0, 2])
    parents, children = list(t.parent), [list(c) for c in t.children]
    with pytest.raises(StalePath, match=re.escape(message)):
        apply_improvement_path(t, ImprovementPath(3, vertices), powers2(t))
    assert (t.parent, t.children) == (parents, children)


def test_apply_potential_change_matches_recomputation():
    g = instar_with_ham_path(8)
    t = build_initial_tree(g)
    k = local_k(t)
    for u in sorted(c for p in t.members(k) for c in t.children[p]):
        path = find_improvement_path(t, g, u, k, t.subtree(u))
        if path is None:
            continue
        before = t.potential(2)
        delta = apply_improvement_path(t, path, powers2(t))
        assert delta.phi_before == before
        assert delta.phi_after == t.potential(2)
        break
    else:
        pytest.fail("no applicable improvement found")


def test_choose_k_direct_arithmetic():
    ranks = rank_table(2, 3)
    assert argmax_degree_class({0: 5, 1: 3, 2: 1}.items(), ranks) == 1
    assert argmax_degree_class({0: 1, 3: 1}.items(), ranks) == 3
    # tie at equal scores goes to the larger class
    assert argmax_degree_class({1: 2, 2: 1}.items(), ranks) == 2
    # base 7/2 over classes 0..2: 7**d * 2**(2-d)
    assert rank_table(Fraction(7, 2), 2) == [4, 14, 49]


def reference_argmax(counts: dict[int, int], base) -> int:
    """The largest d among the non-empty classes of greatest Fraction score."""
    base = Fraction(base)
    live = {d: size for d, size in counts.items() if size > 0}
    best = max(base ** d * size for d, size in live.items())
    return max(d for d, size in live.items() if base ** d * size == best)


@st.composite
def histograms_and_bases(draw):
    """A degree histogram, empty classes allowed, and a base: 2, or c/2
    for c = 7 or 10 (5 as an int and as an integral Fraction).  When
    asked, two classes are made to tie above every other class's score."""
    base = draw(st.sampled_from([2, Fraction(7, 2), Fraction(10, 2), 5]))
    counts = draw(st.dictionaries(st.integers(0, 12), st.integers(0, 40), min_size=1))
    if draw(st.booleans()):
        lo = draw(st.integers(0, 10))
        hi = lo + draw(st.integers(1, 4))
        scale = draw(st.integers(1, 3)) * 10 ** 12
        # base**lo * p**j * s == base**hi * q**j * s for base = p/q, j = hi - lo
        p, q = Fraction(base).numerator, Fraction(base).denominator
        counts[lo] = p ** (hi - lo) * scale
        counts[hi] = q ** (hi - lo) * scale
    return counts, base


@given(histograms_and_bases())
def test_argmax_degree_class_matches_reference_with_ties(case):
    """The argmax over the base's rank table, sized by the top class as a
    solve sizes it by its start tree's Delta, is the Fraction argmax."""
    counts, base = case
    ranks = rank_table(base, max(counts))
    assert ranks == [Fraction(base) ** d * Fraction(base).denominator ** max(counts)
                     for d in range(max(counts) + 1)]
    if not any(counts.values()):
        with pytest.raises(ValueError):
            argmax_degree_class(counts.items(), ranks)
    else:
        assert argmax_degree_class(counts.items(), ranks) == reference_argmax(counts, base)


def test_round_bookkeeping_matches_histogram_on_corpus(monkeypatch):
    """On every corpus round of both solvers, at epsilon 0.1 (augment base
    c/2 = 5) and 0.15 (c = 7, base 7/2): choose_k over the solve's rank
    table is the reference argmax over degree_counts(), and each
    adjustment's per-class net change from its touched vertices, and its
    potential before and after from the solver's power table, equal what
    the histogram shows."""
    real_rewrite = dmdst.local_search.rewrite_and_audit
    real_choose = dmdst.local_search.choose_k
    seen = {"adjustments": 0, "bases": set()}

    def checked_choose(t, ranks):
        k = real_choose(t, ranks)
        base = Fraction(ranks[1], ranks[0])  # p/q: ranks[d] = p**d * q**(top-d)
        assert k == reference_argmax(t.degree_counts(), base)
        seen["bases"].add(base)
        return k

    def checked_rewrite(t, k, segments, powers, region):
        base = powers[1]
        before = t.degree_counts()
        phi_before = t.potential(base)
        delta = real_rewrite(t, k, segments, powers, region)
        assert delta.phi_before == phi_before
        after = t.degree_counts()
        net: dict[int, int] = {}
        for old, new in delta.changed.values():
            net[old] = net.get(old, 0) - 1
            net[new] = net.get(new, 0) + 1
        shown = {d: after.get(d, 0) - before.get(d, 0) for d in set(before) | set(after)}
        assert {d: x for d, x in net.items() if x} == {d: x for d, x in shown.items() if x}
        assert delta.phi_after == t.potential(base)
        seen["adjustments"] += 1
        return delta

    for mod in (dmdst.local_search, dmdst.augmenting):
        monkeypatch.setattr(mod, "choose_k", checked_choose)
        monkeypatch.setattr(mod, "rewrite_and_audit", checked_rewrite)
    for _, g in corpus_instances():
        for epsilon in (0.1, 0.15):
            cfg = Config.for_graph(g, epsilon=epsilon)
            run_local_search(g, cfg)
            run_augmenting_search(g, cfg)
    assert seen["adjustments"] > 1000
    assert {2, 5, Fraction(7, 2)} <= seen["bases"]


def imported_names(module) -> set[str]:
    """Every dotted-name part and imported name in module's import
    statements: "local_search" for `from .local_search import psi`, for
    `from . import local_search` and for `import dmdst.local_search`."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for a in node.names for part in a.name.split("."))
    return names


def test_solvers_share_the_search_core_and_not_each_other():
    """The round machinery both solvers use lives in dmdst.search: neither
    solver module imports the other, and search imports neither."""
    assert "local_search" not in imported_names(dmdst.augmenting)
    assert "augmenting" not in imported_names(dmdst.local_search)
    assert not {"local_search", "augmenting"} & imported_names(dmdst.search)


@given(st.integers(0, 10 ** 6))
def test_choose_k_dominates_delta_minus_log_n(seed):
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 13, (n - 1) ** 2), seed)
    t = build_initial_tree(g)
    assert local_k(t) >= t.max_deg - math.log2(g.n)


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
    assert local_k(build_initial_tree(g)) == 2
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
    a search that finds no exit is checked too.  Leaf candidates take
    the leaf rule and no path search: of the corpus's 285 applied paths,
    275 start at a leaf and 10 come from the search."""
    search = dmdst.local_search.find_improvement_path
    apply = dmdst.local_search.apply_improvement_path
    found = []
    leaf_starts = []

    def checked(t, g, u, d, inside):
        assert inside == t.subtree(u), u
        path = search(t, g, u, d, inside)
        found.append(path is not None)
        return path

    def applied(t, p, powers):
        leaf_starts.append(not t.children[p.vertices[0]])
        return apply(t, p, powers)

    monkeypatch.setattr(dmdst.local_search, "find_improvement_path", checked)
    monkeypatch.setattr(dmdst.local_search, "apply_improvement_path", applied)
    results, _ = corpus_results
    for s in results:
        report = run_local_search(s.g, Config.for_graph(s.g), trace=True)
        assert report_without_timing(report) == report_without_timing(s.local), s.name
    assert len(leaf_starts) == sum(s.local.iterations for s in results) == 285
    assert (leaf_starts.count(True), found.count(True)) == (275, 10)
    del found[:]
    g = candidate_without_exit()
    t = build_initial_tree(g)
    assert (local_k(t), t.parent[1], t.children[1], full_psi(t, 1, 5)) == (5, 0, [6], 3)
    report = run_local_search(g)
    assert found == [False]
    assert (report.delta_final, report.iterations, report.exit_reason) == (5, 0, "stalled")


def screen_bound(t, u: int, k: int) -> int:
    """The degree screen's lower bound on psi(u) at class k >= 3: 2**d + d
    for u of degree d <= k-2, d above it."""
    d = t.deg(u)
    return (1 << d) + d if d <= k - 2 else d


def degree_screen_skips(t, u: int, k: int) -> bool:
    """The local search's degree screen: the bound exceeds the gate."""
    return screen_bound(t, u, k) > 2 ** k // 8


def reference_rounds(
    g: Digraph, tally: Counter | None = None, cfg: Config | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """(k, path) of every round of a fresh scan without the degree screen
    and the first-hop test: psi, then the path search, on every child of
    N_k in ascending order, the list sorted anew each round.  Each round
    also checks that every candidate the degree screen would skip has full
    psi over the gate, and every one the first-hop test would skip has no
    improvement path.  The loop runs while Delta exceeds cfg's local stop
    threshold (0 by default).

    tally, if given, counts the candidates the screen would skip
    ("screened"), and, for each round whose k the next round keeps
    ("same_k"), the events that change what a kept scan list meets: a
    vertex entering N_k ("entered"), a vertex dropping from >= k-1 to
    <= k-2 ("dropped"), and a candidate of the next round whose own degree
    changed ("candidate_degree")."""
    t = build_initial_tree(g)
    powers = power_table(2, t.max_deg)
    threshold = cfg.stop_threshold_local if cfg else 0
    rounds = []
    last = None
    while t.max_deg > threshold:
        k = local_k(t)
        if tally is not None and last is not None and last.k == k:
            tally["same_k"] += 1
            for v, (old, new) in last.changed.items():
                tally["entered"] += new == k
                tally["dropped"] += old >= k - 1 >= new + 1
                p = t.parent[v]
                tally["candidate_degree"] += p is not None and t.deg(p) == k
        if k <= 2:
            break
        gate = 2 ** k // 8
        chosen = None
        for u in sorted(c for p in t.members(k) for c in t.children[p]):
            if degree_screen_skips(t, u, k):
                assert full_psi(t, u, k) > gate, u
                if tally is not None:
                    tally["screened"] += 1
            if not any(t.deg(y) <= k - 2 for y in g.out_edges[u]):
                assert find_improvement_path(t, g, u, k, t.subtree(u)) is None, u
            if chosen is None and full_psi(t, u, k) <= gate:
                chosen = find_improvement_path(t, g, u, k, t.subtree(u))
        if chosen is None:
            break
        rounds.append((k, chosen.vertices))
        last = apply_improvement_path(t, chosen, powers)
    return rounds


def solver_rounds(
    g: Digraph, monkeypatch, cfg: Config | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """(k, path) of every improvement run_local_search applies."""
    applied = []
    apply = dmdst.local_search.apply_improvement_path

    def recorded(t, p, powers):
        applied.append((p.d, p.vertices))
        return apply(t, p, powers)

    monkeypatch.setattr(dmdst.local_search, "apply_improvement_path", recorded)
    report = run_local_search(g, cfg)
    monkeypatch.undo()
    assert report.iterations == len(applied)
    return applied


def test_first_hop_skip_is_exact_on_the_corpus(corpus_results, monkeypatch):
    """Every round picks the same candidate and path as a scan without the
    degree screen and the first-hop test, every candidate the screen skips
    has psi over the gate, and every one the first-hop test skips has no
    path."""
    results, _ = corpus_results
    applied = 0
    tally = Counter()
    for s in results:
        rounds = reference_rounds(s.g, tally)
        assert solver_rounds(s.g, monkeypatch) == rounds, s.name
        applied += len(rounds)
    assert applied == sum(s.local.iterations for s in results) > 0
    assert tally["screened"] > 0


def test_psi_runs_only_past_the_degree_screen(corpus_results, monkeypatch):
    """Every psi walk the solver makes is on a candidate the degree screen
    lets through, and the reports are as before."""
    real = dmdst.local_search.psi
    walks = []

    def checked(t, u, k, limit, inside):
        assert not degree_screen_skips(t, u, k), (u, k)
        walks.append(u)
        return real(t, u, k, limit, inside)

    monkeypatch.setattr(dmdst.local_search, "psi", checked)
    results, _ = corpus_results
    for s in results:
        report = run_local_search(s.g, Config.for_graph(s.g), trace=True)
        assert report_without_timing(report) == report_without_timing(s.local), s.name
    assert walks


@given(small_digraphs())
def test_first_hop_skip_is_exact_on_small_digraphs(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert solver_rounds(g, monkeypatch) == reference_rounds(g)


def graph_on_tree(parent: list[int | None], extra: list[tuple[int, int]]) -> Digraph:
    """The digraph of the in-tree parent (None at the sink) plus the extra
    edges, checked to start from that very tree."""
    edges = [(v, p) for v, p in enumerate(parent) if p is not None]
    g = Digraph(len(parent), parent.index(None), sorted(edges + extra))
    assert build_initial_tree(g).parent == parent
    return g


def hubs_tree(sizes: list[int], below: dict[int, int]) -> list[int | None]:
    """Sink 0 with one hub per entry of sizes, hub i + 1 holding sizes[i]
    new children; then below[v] new children under each vertex v, in
    ascending v.  Ids follow the breadth-first order."""
    parent: list[int | None] = [None] + [0] * len(sizes)
    for hub, size in enumerate(sizes, start=1):
        parent += [hub] * size
    for v in sorted(below):
        parent += [v] * below[v]
    return parent


def swapped(parent: list[int | None], *pairs: tuple[int, int]) -> list[int | None]:
    """parent with the ids of each (disjoint) pair exchanged."""
    perm = list(range(len(parent)))
    for a, b in pairs:
        perm[a], perm[b] = b, a
    out: list[int | None] = [None] * len(parent)
    for v, p in enumerate(parent):
        out[perm[v]] = None if p is None else perm[p]
    return out


def entering_from_above() -> Digraph:
    """k = 6.  Candidate 10 (degree 7, under hub 1) reroutes along 10, 29,
    36, drops to 6 and enters N_6.  Its child 6, which the kept list
    lacks, is the next round's candidate (its chord reaches the leaf 11),
    so this graph decides the drop rule: only the fresh sort finds 6."""
    parent = swapped(hubs_tree([6, 6, 6, 6], {5: 7, 23: 1}), (5, 10), (6, 30))
    return graph_on_tree(parent, [(10, 29), (29, 36), (6, 11)])


def dropping_to_low() -> Digraph:
    """k = 5.  Candidate 10 (degree 4) reroutes along 10, 25, 29 and drops
    to 3; that gives the earlier leaf 5, which failed the first hop, its
    path 5, 10, and the next round's scan from the list's start finds
    it."""
    parent = hubs_tree([5, 5, 5, 5], {10: 4, 15: 1})
    return graph_on_tree(parent, [(5, 10), (10, 25), (25, 29)])


def candidate_losing_a_child() -> Digraph:
    """k = 5.  Hub 4, itself a child of the degree-5 vertex 1, fails the
    degree screen at degree 5; leaf 19 moves from under it to 9, and the
    next round's scan from the list's start screens 4 again: at degree 4
    it passes and moves along its chord to 10."""
    parent = hubs_tree([5, 5, 5], {4: 5})
    return graph_on_tree(parent, [(4, 10), (19, 9)])


def subtree_shedding_mass() -> Digraph:
    """k = 6.  Vertex 4 is the round's first candidate past the screens but
    fails psi (13 > 8): its subtree holds hub 22, whose child 24 carries
    two leaves.  24 moves along its chord to 23, which takes psi(4) down to
    7, so the next round's scan from the list's start applies 4 along its
    chord to 10."""
    parent = hubs_tree([6, 6, 6], {4: 1, 11: 1, 22: 6, 24: 2})
    return graph_on_tree(parent, [(4, 10), (24, 23)])


@pytest.mark.parametrize("profile", ["practical", "paper"])
def test_kept_scan_matches_a_fresh_scan_where_the_class_repeats(profile, monkeypatch):
    """Local search's scan list, kept across rounds of one class and
    scanned from its start each round, picks every round's candidate and
    path as a fresh ascending scan does, on mid-size instances where k
    often holds from one round to the next and on four built graphs.
    entering_from_above decides the drop rule; the other three check that
    a full rescan picks up a degree change that turns an earlier failure
    into the next round's pass (an out-neighbour's, the candidate's own,
    one inside its subtree).  No generated instance here, nor any
    benchmark pool at seed 1, has a vertex entering N_k or dropping below
    k-1 while k holds.  Under the paper profile these graphs are below the
    stop threshold, so both sides run no round."""
    instances = [gen_blocker(8, 6, s) for s in range(3)]
    instances += [gen_blocker(12, 4, s) for s in range(3)]
    instances += [gen_random(60, 120, s) for s in range(3)]
    instances += [gen_blocker(25, 30, 1)]  # the cluster that sets blocked local p90
    instances += [entering_from_above(), dropping_to_low(), candidate_losing_a_child()]
    instances += [subtree_shedding_mass()]
    tally = Counter()
    for g in instances:
        cfg = Config.for_graph(g, profile=profile)
        assert solver_rounds(g, monkeypatch, cfg) == reference_rounds(g, tally, cfg)
    if profile == "practical":
        assert tally["same_k"] >= 50
        assert tally["entered"] and tally["dropped"] and tally["candidate_degree"]


@given(small_digraphs(), st.integers(3, 12))
def test_degree_screen_bound_is_below_psi(g, k):
    """For every vertex u and class k >= 3, the screen's bound is at most
    the full psi(u)."""
    t = build_initial_tree(g)
    for u in range(g.n):
        assert full_psi(t, u, k) >= screen_bound(t, u, k), u


def test_first_hop_skips_blocked_candidates_before_psi(monkeypatch):
    """On a blocker instance no round walks a subtree or runs a path
    search: every candidate the first-hop test lets through is a leaf,
    which the leaf rule applies along its first hop.  Without the
    first-hop test the scan made 1,012 psi calls and 982 path searches
    that found nothing; with it and before the leaf rule, 28 of each, one
    per applied path."""
    calls = count_candidate_work(monkeypatch)
    report = run_local_search(gen_blocker(30, 60, 1009))
    assert calls == []
    assert report.iterations == 28
    assert (report.delta_initial, report.delta_final) == (30, 30)


def check_leaf_rule(monkeypatch) -> Counter:
    """Wrap choose_k so that each round first checks, on its tree and at
    its class k >= 3, every leaf child u of N_k with an out-neighbour of
    degree <= k-2, the first such being y: the general path gives it
    psi(u) = 1 and the improvement path (u, y), the leaf rule's.  Returns
    a tally of the leaves checked."""
    choose = dmdst.local_search.choose_k
    tally = Counter()

    def checked(t, ranks):
        k = choose(t, ranks)
        gate = 2 ** k // 8
        for u in sorted(c for p in t.members(k) for c in t.children[p]) if k >= 3 else ():
            low = [y for y in t.g.out_edges[u] if t.deg(y) <= k - 2]
            if t.children[u] or not low:
                continue
            assert psi(t, u, k, gate, set()) == 1 <= gate, u
            path = find_improvement_path(t, t.g, u, k, {u})
            assert path is not None and path.vertices == (u, low[0]), u
            tally["leaves"] += 1
            tally["past_first"] += low[0] != t.g.out_edges[u][0]
        return k

    monkeypatch.setattr(dmdst.local_search, "choose_k", checked)
    return tally


def test_leaf_rule_matches_the_general_path_on_the_corpus(corpus_results, monkeypatch):
    """Every round on the corpus and on blocker and mid-size random
    instances: each leaf the rule can apply has psi 1 and the general
    path search's path, and the reports are as before."""
    tally = check_leaf_rule(monkeypatch)
    results, _ = corpus_results
    for s in results:
        report = run_local_search(s.g, Config.for_graph(s.g), trace=True)
        assert report_without_timing(report) == report_without_timing(s.local), s.name
    for g in [gen_blocker(8, 6, s) for s in range(3)] + [gen_random(60, 120, s) for s in range(3)]:
        run_local_search(g)
    assert tally["leaves"] and tally["past_first"], tally


@given(small_digraphs())
def test_leaf_rule_matches_the_general_path_on_small_digraphs(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_leaf_rule(monkeypatch)
        run_local_search(g)


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
    k = local_k(t)
    candidates = sorted(c for p in t.members(k) for c in t.children[p])
    for u in candidates:
        path = find_improvement_path(t, g, u, k, t.subtree(u))
        if path is None:
            continue
        old_parent = t.parent[u]
        before = degree_snapshot(t)
        apply_improvement_path(t, path, powers2(t))
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

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from dmdst import (
    BlockingCertificate,
    Digraph,
    build_initial_tree,
    choose_k,
    exact_min_degree,
    extract_certificate,
    gen_blocker,
    gen_instar,
    gen_path,
    gen_random,
    rank_table,
    run_augmenting_search,
    run_local_search,
    tree_from_parents,
    verify_blocking,
)
from dmdst.certificate import EmptyWitness
from conftest import blocks_by_reach_sets, enumerate_spanning_intrees


def local_stall_set(t, k):
    """The blocking set local search stalls with at class k."""
    return t.vertices_with_deg_at_least(k - 1)


def test_instar_certificate_is_tight():
    n = 6
    g = gen_instar(n)
    t = build_initial_tree(g)
    cert = extract_certificate(g, local_stall_set(t, n - 1), n - 1)
    assert cert.U == frozenset(range(1, n))
    assert cert.B == frozenset({0})
    assert cert.bound == Fraction(n - 1)
    assert cert.verified
    assert verify_blocking(g, cert)
    assert cert.bound == exact_min_degree(g)[0]


def test_path_graph_yields_no_certificate():
    report = run_local_search(gen_path(5))
    assert report.certificate is None
    assert report.lower_bound is None


def test_verify_rejects_empty_blocking_set():
    g = gen_instar(4)
    cert = BlockingCertificate(frozenset({1, 2, 3}), frozenset(), 3)
    assert not verify_blocking(g, cert)


def test_verify_rejects_overlapping_sets():
    g = gen_instar(4)
    cert = BlockingCertificate(frozenset({1, 2}), frozenset({2, 0}), 3)
    assert not verify_blocking(g, cert)


def test_verify_rejects_reachable_sink():
    g = gen_instar(4)
    cert = BlockingCertificate(frozenset({1}), frozenset({2}), 3)
    assert not verify_blocking(g, cert)


def test_verify_rejects_intersecting_reach_sets():
    # 1 and 2 both reach 3 without touching the blocking set {0}... except
    # 0 is the only way to the sink, so property (a) holds; the shared
    # vertex 3 breaks property (b).
    g = Digraph(4, 0, [(1, 0), (2, 0), (3, 0), (1, 3), (2, 3)])
    cert = BlockingCertificate(frozenset({1, 2}), frozenset({0}), 2)
    assert not verify_blocking(g, cert)


def test_local_extraction_keeps_high_degree_witnesses_in_blocking_side():
    # Degree-3 hub 1 with children: z=2 (degree 2, not improvable), u=3 and
    # v=4 (leaves whose only escapes funnel into z), and z's leaves 5, 6.
    # z must land in B, not U, or the funnel would break the disjoint-reach
    # property.
    g = Digraph(
        7,
        0,
        [(1, 0), (2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (3, 2), (4, 2)],
    )
    t = build_initial_tree(g)
    assert t.deg(1) == 3 and t.deg(2) == 2
    cert = extract_certificate(g, local_stall_set(t, 3), 3)
    assert cert.U == frozenset({3, 4, 5, 6})
    assert cert.B == frozenset({1, 2})
    assert cert.bound == 2
    assert verify_blocking(g, cert)
    # moving z across to the witness side must break verification:
    moved = BlockingCertificate(cert.U | {2}, cert.B - {2}, 3)
    assert not verify_blocking(g, moved)
    assert cert.bound <= exact_min_degree(g)[0]


def test_local_extraction_raises_on_empty_witness():
    # Path graph at class 1: no vertex of degree <= -1 can exist.
    g = gen_path(4)
    t = build_initial_tree(g)
    with pytest.raises(EmptyWitness):
        extract_certificate(g, local_stall_set(t, 1), 1)


def test_augment_certificate_on_blocked_ring():
    # Hub 1 of degree 3; starts 2..4; blockers 5, 6 of degree 2 catching
    # every escape; blocker children have no exits of their own.
    edges = [
        (1, 0),
        (2, 1), (3, 1), (4, 1),
        (5, 2), (6, 2),
        (7, 5), (8, 5), (9, 6), (10, 6),
        (3, 5), (4, 6),
    ]
    g = Digraph(11, 0, edges)
    report = run_augmenting_search(g)
    cert = report.certificate
    assert cert is not None and cert.verified
    assert cert.k == 3
    assert verify_blocking(g, cert)
    assert cert.bound <= exact_min_degree(g)[0]
    # hand count: every start (2 enters only the hub, 3 and 4 the hub and
    # a blocker) and all four blocker children have every out-edge in the
    # blocking side, which is the hub plus both blockers.
    assert cert.U == frozenset({2, 3, 4, 7, 8, 9, 10})
    assert cert.B == frozenset({1, 5, 6})
    assert cert.bound == Fraction(7, 3)
    assert exact_min_degree(g)[0] == 3


@given(st.integers(0, 400))
def test_emitted_certificates_verify_and_respect_oracle(seed):
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 13, (n - 1) ** 2), seed)
    delta_star = exact_min_degree(g)[0]
    for report in (run_local_search(g), run_augmenting_search(g)):
        cert = report.certificate
        if cert is None:
            continue
        assert cert.verified
        assert verify_blocking(g, cert)
        assert cert.bound <= delta_star


def test_certificate_soundness_against_full_enumeration():
    g = gen_random(7, 9, 123)
    report = run_local_search(g)
    cert = report.certificate
    if cert is None:
        pytest.skip("no certificate emitted on this instance")
    floor = cert.bound
    for tree in enumerate_spanning_intrees(g):
        assert tree.max_deg >= floor


def test_certificate_json_roundtrip():
    g = gen_instar(5)
    t = build_initial_tree(g)
    cert = extract_certificate(g, local_stall_set(t, 4), 4)
    again = BlockingCertificate.from_dict(cert.to_dict())
    assert again == cert
    d = cert.to_dict()
    assert d["bound_num"] == 4 and d["bound_den"] == 1


def _mutants(cert: BlockingCertificate, n: int, rng: random.Random):
    """Seeded (U, B) variations: a B vertex dropped or moved elsewhere, a
    U vertex added, a U vertex moved into B."""
    b = rng.choice(sorted(cert.B))
    u = rng.choice(sorted(cert.U))
    x = rng.randrange(n)
    yield cert.U, cert.B - {b}
    yield cert.U, (cert.B - {b}) | {x}
    yield cert.U | {x}, cert.B
    yield cert.U - {u}, cert.B | {u}


def test_one_walk_verify_matches_reach_set_reference(corpus_results):
    results, _ = corpus_results
    solved = [(r.g, rep) for r in results for rep in (r.local, r.augment)]
    for s in range(4):  # larger blockers, whose witnesses share more edges
        g = gen_blocker(12, 15, s)
        solved += [(g, run_local_search(g)), (g, run_augmenting_search(g))]
    rng = random.Random(13)
    verdicts = []
    for g, report in solved:
        cert = report.certificate
        if cert is None:
            continue
        assert verify_blocking(g, cert) and blocks_by_reach_sets(g, cert.U, cert.B)
        for _ in range(3):
            for U, B in _mutants(cert, g.n, rng):
                verdict = verify_blocking(g, BlockingCertificate(U, B, cert.k))
                assert verdict == blocks_by_reach_sets(g, U, B), (g.n, sorted(U), sorted(B))
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@st.composite
def graph_and_blocking_set(draw):
    """A small digraph that reaches its sink, with any sink, and any B."""
    n = draw(st.integers(2, 9))
    g = gen_random(n, draw(st.integers(0, min(12, (n - 1) ** 2))), draw(st.integers(0, 10**6)))
    relabel = draw(st.permutations(range(n)))
    g = Digraph(n, relabel[g.sink], [(relabel[u], relabel[v]) for u, v in g.edges()])
    B = draw(st.sets(st.integers(0, n - 1)))
    return g, B


@given(graph_and_blocking_set(), st.integers(0, 9))
def test_extracted_certificate_is_every_vertex_trapped_by_b(case, k):
    """U is exactly the non-sink vertices outside B whose out-edges all
    enter B, B shrinks to exactly what they enter, and the result blocks by
    both checks and never exceeds the optimum."""
    g, B = case
    U = {v for v in range(g.n) if v != g.sink and v not in B and g.out_sets[v] <= B}
    if not U:
        with pytest.raises(EmptyWitness):
            extract_certificate(g, B, k)
        return
    cert = extract_certificate(g, B, k)
    assert cert.U == U
    assert cert.B == {y for u in U for y in g.out_sets[u]}
    assert cert.k == k and cert.verified
    assert verify_blocking(g, cert) and blocks_by_reach_sets(g, cert.U, cert.B)
    assert cert.bound <= exact_min_degree(g)[0]


def test_screen_and_walk_match_reach_sets():
    """verify_blocking equals the reach-set definition for any (U, B) over
    ids -1..n, and a stand-in graph that holds only n, sink and out_edges
    gets the same verdicts.  Each example checks a U of vertices outside B
    whose out-lists lie inside it, which the screen accepts, that U with
    any id added, and any U at all; over the run both the screen and the
    walk must decide some verdicts."""
    decided_by = set()

    @given(graph_and_blocking_set(), st.data())
    def check(case, data):
        g, B = case
        ids = st.integers(-1, g.n)
        B = frozenset(B | data.draw(st.sets(ids, max_size=1)))
        trapped = [v for v in range(g.n) if v != g.sink and v not in B and g.out_sets[v] <= B]
        U = frozenset(data.draw(st.sets(st.sampled_from(trapped)))) if trapped else frozenset()
        bare = SimpleNamespace(n=g.n, sink=g.sink, out_edges=g.out_edges)
        for U in (U, U | {data.draw(ids)}, frozenset(data.draw(st.sets(ids, max_size=4)))):
            cert = BlockingCertificate(U, B, 0)
            verdict = verify_blocking(g, cert)
            assert verdict == blocks_by_reach_sets(g, U, B) == verify_blocking(bare, cert)
            if U and B and not U & B and g.sink not in U and -1 < min(U | B) <= max(U | B) < g.n:
                decided_by.add(all(g.out_sets[u] <= B for u in U))  # True: the screen

    check()
    assert decided_by == {True, False}


def test_solvers_certify_their_stall_sets(corpus_results):
    """Each stalled local report's certificate (or its absence) is what
    extract_certificate gives for the degree >= k-1 layer of its final
    tree at the stall class k; each augment certificate names the class
    its last, unapplied round stalled at."""
    results, _ = corpus_results
    certified = 0
    for r in results:
        local = r.local
        if local.exit_reason == "stalled":
            t = tree_from_parents(r.g, local.parent)
            k = choose_k(t, rank_table(2, local.delta_initial))
            try:
                expected = extract_certificate(r.g, local_stall_set(t, k), k)
            except EmptyWitness:
                expected = None
            assert local.certificate == expected, r.name
            certified += expected is not None
        cert = r.augment.certificate
        if cert is not None:
            last = r.augment.layers_trace[-1]
            assert not last["applied"] and last["k"] == cert.k, r.name
    assert certified > 50

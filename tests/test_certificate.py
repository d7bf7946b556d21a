import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dmdst import (
    BlockingCertificate,
    Digraph,
    build_initial_tree,
    enumerate_spanning_intrees,
    exact_min_degree,
    extract_augment_certificate,
    extract_local_certificate,
    gen_blocker,
    gen_instar,
    gen_path,
    gen_random,
    run_augmenting_search,
    run_local_search,
    verify_blocking,
)
from dmdst.certificate import EmptyWitness
from conftest import blocks_by_reach_sets


def test_instar_certificate_is_tight():
    n = 6
    g = gen_instar(n)
    t = build_initial_tree(g)
    cert = extract_local_certificate(t, g, n - 1)
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
    # v=4 (leaves whose only escapes funnel into z).  z must land in B, not
    # U, or the funnel would break the disjoint-reach property.
    g = Digraph(
        7,
        0,
        [(1, 0), (2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (3, 2), (4, 2)],
    )
    t = build_initial_tree(g)
    assert t.deg(1) == 3 and t.deg(2) == 2
    cert = extract_local_certificate(t, g, 3)
    assert cert.U == frozenset({3, 4})
    assert 2 in cert.B
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
        extract_local_certificate(t, g, 1)


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
    # hand count: starts 3, 4 and all four blocker children are blocked
    # witnesses; the blocking side is the hub plus both blockers.
    assert cert.U == frozenset({3, 4, 7, 8, 9, 10})
    assert cert.B == frozenset({1, 5, 6})
    assert cert.bound == Fraction(2)


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
    cert = extract_local_certificate(t, g, 4)
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

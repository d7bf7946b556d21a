"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every quantitative tolerance is pinned here; a single violation anywhere
fails the criterion.
"""

from __future__ import annotations

import json
import math
import time

import pytest

import dmdst.augmenting
import dmdst.local_search
from dmdst import (
    Config,
    Digraph,
    build_initial_tree,
    choose_k,
    enumerate_spanning_intrees,
    gen_blocker,
    gen_instar,
    gen_path,
    gen_random,
    run_augmenting_search,
    run_local_search,
    save_graph,
    tree_from_parents,
    verify_blocking,
)
from dmdst.cli import main as cli_main
from dmdst.generators import SplitMix64
from conftest import degree_snapshot, random_corpus_specs


def report_pass(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def instar_with_chords(n: int, seed: int) -> Digraph:
    """In-star plus a seeded permutation's worth of chained chords."""
    rng = SplitMix64(seed)
    order = list(range(1, n))
    for i in range(len(order) - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    edges = [(v, 0) for v in range(1, n)]
    edges.extend((order[i + 1], order[i]) for i in range(len(order) - 1))
    return Digraph(n, 0, edges)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_oracle_optimality_floor(corpus_results):
    results, elapsed = corpus_results
    random_members = [r for r in results if r.name.startswith("random-")]
    assert len(random_members) >= 300
    for r in random_members:
        assert r.oracle_delta is not None
        for report in (r.local, r.augment):
            tree = tree_from_parents(r.g, report.parent)
            assert tree.validate() == [], r.name
            assert report.delta_final == tree.max_deg
            assert report.delta_final >= r.oracle_delta, r.name
            if report.certificate is not None:
                assert report.certificate.bound <= r.oracle_delta, r.name
    assert elapsed < 60.0, f"corpus pass took {elapsed:.1f}s"
    report_pass(
        1,
        f"{len(random_members)} random instances, both solvers >= oracle, "
        f"all certificate bounds <= oracle, {elapsed:.1f}s",
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_certificate_soundness_by_enumeration(corpus_results):
    results, _ = corpus_results
    checked = 0
    trees_seen = 0
    for r in results:
        if r.g.n > 8:
            continue
        certs = [
            rep.certificate
            for rep in (r.local, r.augment)
            if rep.certificate is not None
        ]
        if not certs:
            continue
        for cert in certs:
            assert cert.verified and verify_blocking(r.g, cert)
        floors = [cert.bound for cert in certs]
        count = 0
        for tree in enumerate_spanning_intrees(r.g):
            count += 1
            for floor in floors:
                assert tree.max_deg >= floor, r.name
        checked += len(certs)
        trees_seen += count
    assert checked > 50, "corpus produced too few certificates to be meaningful"
    report_pass(
        2,
        f"{checked} certificates held over {trees_seen} exhaustively "
        f"enumerated spanning in-trees",
    )


# -- criteria 3 and 4 --------------------------------------------------------


@pytest.fixture(scope="session")
def improvement_fuzz():
    """Snapshot around every adjustment the real local solver applies, over
    chorded in-stars and small random graphs, until there are 10,000."""
    apply = dmdst.local_search.apply_improvement_path
    records = []

    def recorded(t, path):
        k = choose_k(t, 2)
        old_parent = t.parent[path.vertices[0]]
        before = degree_snapshot(t)
        phi_before = t.potential(2)
        delta = apply(t, path)
        records.append(
            (path, old_parent, before, degree_snapshot(t), phi_before, t.potential(2), k)
        )
        return delta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmdst.local_search, "apply_improvement_path", recorded)
        seed = 0
        while len(records) < 10_000:
            run_local_search(instar_with_chords(9, seed))
            n = 4 + seed % 6
            extra = min((seed * 5) % 13, (n - 1) ** 2)
            run_local_search(gen_random(n, extra, seed))
            seed += 1
    return records


def test_criterion_3_improvement_adjustment_contract(improvement_fuzz):
    assert len(improvement_fuzz) >= 10_000
    for path, old_parent, before, after, _, _, _ in improvement_fuzz:
        vs = path.vertices
        u = vs[0]
        on_path = set(vs)
        assert after[old_parent] == before[old_parent] - 1
        for v in vs[1:]:
            assert after[v] - before[v] <= 1
        for v in range(len(before)):
            if v not in on_path and v != old_parent:
                assert after[v] == before[v]
    report_pass(
        3,
        f"{len(improvement_fuzz)} applied improvement paths: parent -1 "
        f"exactly, path gains <= 1, off-path untouched",
    )


def test_criterion_4_potential_law(improvement_fuzz, corpus_results):
    results, _ = corpus_results
    audited = 0
    for _, _, _, _, phi_before, phi_after, k in improvement_fuzz:
        assert (phi_before - phi_after) * 8 >= (1 << k)
        audited += 1
    for r in results:
        for row in r.local.potential_trace or []:
            assert row["drop"] * 8 >= (1 << row["k"])
            audited += 1
    report_pass(4, f"{audited} gated improvements each dropped phi by >= 2^(k-3)")


# -- criterion 5 -------------------------------------------------------------


@pytest.fixture
def augmenting_applications(monkeypatch):
    """Record every adjustment the real augmenting solver applies: its k,
    the degree counts before and after, and its path."""
    apply = dmdst.augmenting.apply_augmenting_path
    applications = []

    def audited(t, p, *args, **kwargs):
        before = t.degree_counts()
        delta = apply(t, p, *args, **kwargs)
        applications.append((p.k, before, t.degree_counts(), p))
        return delta

    monkeypatch.setattr(dmdst.augmenting, "apply_augmenting_path", audited)
    return applications


def test_criterion_5_augmenting_adjustment_contract(augmenting_applications):
    fixture = Digraph(
        10,
        0,
        [
            (1, 0), (9, 0),
            (2, 1), (3, 1), (4, 1),
            (5, 3), (6, 5), (7, 5), (8, 7),
            (2, 5), (6, 8),
        ],
    )
    audited = 0
    fixture_segments = 0
    instances = [fixture]
    instances.extend(gen_blocker(3, 2, s) for s in range(20))
    instances.extend(instar_with_chords(9, s) for s in range(30))
    for n, extra, seed in random_corpus_specs():
        instances.append(gen_random(n, extra, seed))
    for g in instances:
        augmenting_applications.clear()
        run_augmenting_search(g)
        for k, before, after, path in augmenting_applications:
            assert after.get(k, 0) == before.get(k, 0) - 1, "N_k must drop by one"
            for d in set(before) | set(after):
                if d > k:
                    assert after.get(d, 0) <= before.get(d, 0), f"N_{d} grew"
            audited += 1
            if g is fixture and len(path.segments) == 2:
                fixture_segments = 2
    assert fixture_segments == 2, "fixture must exercise a two-segment path"
    assert audited >= 100
    report_pass(
        5,
        f"{audited} augmenting adjustments: |N_k| -1 exactly, no growth "
        f"above k (two-segment fixture included)",
    )


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_iteration_bounds(corpus_results):
    results, _ = corpus_results
    for r in results:
        phi_initial = build_initial_tree(r.g).potential(2)
        ceiling = 8.0 * r.g.n ** 2 * math.log(phi_initial)
        assert r.local.iterations <= ceiling, r.name
        layer_ceiling = 10.0 / 0.1 * math.log2(max(r.g.n, 2))
        for row in r.augment.layers_trace or []:
            assert row["layers"] <= layer_ceiling, r.name
    report_pass(
        6,
        f"improvement counts <= 8 n^2 ln(phi0) and layer counts <= "
        f"100 log2(n) across {len(results)} runs",
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_forced_instances_exact():
    for n in range(3, 51):
        for g, expected in ((gen_path(n), 1), (gen_instar(n), n - 1)):
            assert run_local_search(g).delta_final == expected
            assert run_augmenting_search(g).delta_final == expected
    report_pass(7, "path -> 1 and in-star -> n-1 exactly, n in [3, 50], both solvers")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_unrelated_children_floor(corpus_results):
    results, _ = corpus_results
    checked = 0
    for r in results:
        trees = [build_initial_tree(r.g)]
        trees.append(tree_from_parents(r.g, r.local.parent))
        trees.append(tree_from_parents(r.g, r.augment.parent))
        for t in trees:
            counts = t.degree_counts()
            for d, size in counts.items():
                if d < 2:
                    continue
                picks = t.unrelated_children(d)
                assert len(picks) >= (d - 1) * size + 1
                plist = sorted(picks)
                for idx, a in enumerate(plist):
                    assert t.deg(t.parent[a]) == d
                    for b in plist[idx + 1:]:
                        assert t.unrelated(a, b)
                checked += 1
    assert checked > 100
    report_pass(8, f"{checked} degree classes met the (d-1)|N_d|+1 floor")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_augmenting_beats_local_on_blockers(corpus_results):
    results, _ = corpus_results
    blockers = [r for r in results if r.name.startswith("blocker-")]
    assert len(blockers) == 20
    strict = 0
    for r in blockers:
        assert r.augment.delta_final <= r.local.delta_final, r.name
        if r.augment.delta_final < r.local.delta_final:
            strict += 1
    assert strict >= 1
    report_pass(
        9,
        f"augmenting <= local on all 20 blocker seeds, strictly better on {strict}",
    )


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_scale_smoke():
    g = gen_random(200, 800, 1)
    timings = {}
    for name, runner in (("local", run_local_search), ("augment", run_augmenting_search)):
        start = time.perf_counter()
        report = runner(g, Config.for_graph(g), trace=True)
        timings[name] = time.perf_counter() - start
        assert timings[name] < 10.0, f"{name} took {timings[name]:.1f}s"
        tree = tree_from_parents(g, report.parent)
        assert tree.validate() == []
        rows = report.potential_trace or report.layers_trace
        for row in rows:
            if row.get("applied", True):
                assert row["drop"] > 0
    report_pass(
        10,
        f"n=200 m=1000 solved in {timings['local']:.2f}s (local) / "
        f"{timings['augment']:.2f}s (augment), potential monotone",
    )


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_pipeline_integrity(corpus_results, tmp_path, capsys):
    results, _ = corpus_results
    from dmdst.cli import _verify_report

    for r in results:
        for report in (r.local, r.augment):
            assert _verify_report(r.g, report) is None, r.name
    # full CLI round trip on a sample, plus fault injections
    sample = results[:: max(1, len(results) // 25)]
    shrunk_checks = 0
    for idx, r in enumerate(sample):
        graph_file = tmp_path / f"g{idx}.dmdst"
        save_graph(r.g, str(graph_file))
        assert cli_main(["solve", str(graph_file), "--algo", "augment"]) == 0
        solved = capsys.readouterr().out
        report_file = tmp_path / f"r{idx}.json"
        report_file.write_text(solved)
        assert cli_main(["verify", str(graph_file), str(report_file)]) == 0
        capsys.readouterr()
        data = json.loads(solved)
        corrupt = dict(data)
        victim = next(v for v in range(1, r.g.n) if data["parent"][v] != -1)
        corrupt["parent"] = list(data["parent"])
        corrupt["parent"][victim] = victim  # self-parent: never a graph edge
        report_file.write_text(json.dumps(corrupt))
        assert cli_main(["verify", str(graph_file), str(report_file)]) == 1
        err = capsys.readouterr().err
        assert "NotAnEdge" in err or "CycleDetected" in err or "SelfLoop" in err
        if data["certificate"] is not None:
            shrunk = dict(data)
            shrunk["certificate"] = dict(data["certificate"])
            shrunk["certificate"]["B"] = data["certificate"]["B"][:-1]
            report_file.write_text(json.dumps(shrunk))
            assert cli_main(["verify", str(graph_file), str(report_file)]) == 1
            err = capsys.readouterr().err
            assert "BoundMismatch" in err or "BlockingCertificateInvalid" in err
            shrunk_checks += 1
    assert shrunk_checks >= 1, "sample never exercised the shrunken-B fault"
    report_pass(
        11,
        f"verify passed on every corpus report and rejected every "
        f"fault-injected one ({len(sample)} CLI round trips, "
        f"{shrunk_checks} shrunken-B injections)",
    )

import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import dmdst.graph
from dmdst import (
    Digraph,
    SolveReport,
    build_initial_tree,
    cli,
    gen_instar,
    gen_path,
    gen_random,
    parse_graph,
    run_augmenting_search,
    run_local_search,
    save_graph,
    serialize_graph,
    tree_from_parents,
)
from dmdst.cli import main
from dmdst.graph import sink_bfs
from dmdst.search import StalePath
from dmdst.tree import InTree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, graph):
    path = tmp_path / name
    save_graph(graph, str(path))
    return str(path)


def instar_with_chords(n: int) -> Digraph:
    edges = [(v, 0) for v in range(1, n)]
    edges.extend((v + 1, v) for v in range(1, n - 1))
    return Digraph(n, 0, edges)


def test_generate_random_default_fits_every_n(tmp_path, capsys):
    """With no --extra-edges a random instance gets min(2n, (n-1)**2)
    extras, so n = 1, 2 and 3, where 2n is more than the (n-1)**2 pairs
    the backbone leaves, generate too."""
    for n in range(1, 6):
        out = tmp_path / f"g{n}.dmdst"
        code, _, err = run_cli(capsys, "generate", "--family", "random", "--n", str(n),
                               "--out", str(out))
        assert (code, err) == (0, ""), n
        assert parse_graph(out.read_text()).m == n - 1 + min(2 * n, (n - 1) ** 2)


def test_generate_writes_parseable_instance(tmp_path, capsys):
    out = str(tmp_path / "g.dmdst")
    code, _, _ = run_cli(
        capsys, "generate", "--family", "random", "--n", "12", "--seed", "3", "--out", out
    )
    assert code == 0
    code, stdout, _ = run_cli(capsys, "solve", out, "--algo", "local")
    assert code == 0
    report = SolveReport.from_json(stdout)
    assert report.n == 12


def test_solve_exact_on_path(tmp_path, capsys):
    path = write_instance(tmp_path, "p6", gen_path(6))
    code, stdout, _ = run_cli(capsys, "solve", path, "--algo", "exact")
    assert code == 0
    data = json.loads(stdout)
    assert data["delta_final"] == 1
    assert data["lower_bound"] == {"num": 1, "den": 1}
    assert data["guarantee"] == "proved"
    assert data["schema"] == 1


def test_solve_local_improves_chorded_instar(tmp_path, capsys):
    path = write_instance(tmp_path, "star", instar_with_chords(9))
    code, stdout, _ = run_cli(capsys, "solve", path, "--algo", "local", "--profile", "practical")
    assert code == 0
    data = json.loads(stdout)
    assert data["delta_final"] < data["delta_initial"]


def test_solve_rejects_malformed_file(tmp_path, capsys):
    # two edges for three vertices: one edge fewer would fail the header
    # check on line 2 before the self-loop on line 3 is read
    bad = tmp_path / "bad.g"
    bad.write_text("dmdst 1\n3 2 0\n1 1\n2 0\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert "self-loop" in err


def test_header_with_too_few_edges_exits_fast(tmp_path, capsys):
    """A header-only file for a million vertices is bad input, rejected
    from its header alone: exit 2 at once, with one short line and no
    list of stranded vertices."""
    bad = tmp_path / "huge.g"
    bad.write_text("dmdst 1\n1000000 0 0\n")
    for argv in (["solve", str(bad)], ["verify", str(bad), str(tmp_path / "none.json")]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024
        assert err == (
            "error: line 2: 1000000 vertices need at least 999999 edges"
            " to reach the sink, header promises 0\n"
        )


def test_solve_then_verify_roundtrip(tmp_path, capsys):
    """Each report verifies as written, one line, and re-indented in the
    layout that earlier versions wrote."""
    path = write_instance(tmp_path, "g", instar_with_chords(8))
    for algo in ("local", "augment", "exact"):
        code, stdout, _ = run_cli(capsys, "solve", path, "--algo", algo)
        assert code == 0
        assert stdout.count("\n") == 1 and stdout.endswith("\n")
        indented = json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"
        for layout, text in (("compact", stdout), ("indented", indented)):
            report_file = tmp_path / f"r-{algo}-{layout}.json"
            report_file.write_text(text)
            code, out, err = run_cli(capsys, "verify", path, str(report_file))
            assert code == 0, err
            assert out.strip() == "ok"


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m dmdst *argv` in a fresh interpreter that imports this
    checkout's package."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "dmdst", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )


def test_python_m_dmdst_verifies_a_report_and_rejects_bad_input(tmp_path):
    """The package runs as a module: a generated graph's report verifies
    (exit 0, ok), and a graph with a stranded vertex is bad input (exit
    2)."""
    graph, report = tmp_path / "g.dmdst", tmp_path / "r.json"
    done = run_module("generate", "--family", "blocker", "--k", "4", "--fanout", "3",
                      "--seed", "1", "--out", str(graph))
    assert done.returncode == 0, done.stderr
    done = run_module("solve", str(graph), "--algo", "augment")
    assert done.returncode == 0, done.stderr
    report.write_text(done.stdout)
    done = run_module("verify", str(graph), str(report))
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr
    stranded = tmp_path / "stranded.dmdst"
    stranded.write_text("dmdst 1\n3 2 0\n1 0\n0 1\n")
    done = run_module("solve", str(stranded))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ")


def test_solve_then_verify_one_vertex_graph(tmp_path, capsys):
    """The lone sink is a tree of degree 0: verify counts no parent for it."""
    path = write_instance(tmp_path, "g", Digraph(1, 0, []))
    for algo in ("local", "augment", "exact"):
        code, stdout, err = run_cli(capsys, "solve", path, "--algo", algo)
        assert code == 0, err
        assert json.loads(stdout)["delta_final"] == 0
        report_file = tmp_path / f"r-{algo}.json"
        report_file.write_text(stdout)
        code, out, err = run_cli(capsys, "verify", path, str(report_file))
        assert (code, out) == (0, "ok\n"), err


def test_verify_flags_corrupted_parent(tmp_path, capsys):
    path = write_instance(tmp_path, "g", instar_with_chords(8))
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "local")
    data = json.loads(stdout)
    data["parent"][1] = 7  # not a graph edge from 1
    report_file = tmp_path / "bad.json"
    report_file.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "verify", path, str(report_file))
    assert code == 1
    assert "NotAnEdge" in err or "CycleDetected" in err


def test_verify_flags_shrunken_witness_set(tmp_path, capsys):
    path = write_instance(tmp_path, "g", Digraph(5, 0, [(v, 0) for v in range(1, 5)]))
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "local")
    data = json.loads(stdout)
    assert data["certificate"] is not None
    data["certificate"].update(U=data["certificate"]["U"][:-1], bound_num=3)  # |U|/|B| = 3
    report_file = tmp_path / "bad.json"
    report_file.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "verify", path, str(report_file))
    assert code == 1
    assert "BoundMismatch" in err or "BlockingCertificateInvalid" in err


def test_verify_flags_emptied_blocking_set(tmp_path, capsys):
    path = write_instance(tmp_path, "g", Digraph(5, 0, [(v, 0) for v in range(1, 5)]))
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "local")
    data = json.loads(stdout)
    data["certificate"]["B"] = []
    report_file = tmp_path / "bad.json"
    report_file.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "verify", path, str(report_file))
    assert code == 1
    assert "BlockingCertificateInvalid" in err


def test_verify_flags_out_of_range_parent(tmp_path, capsys):
    path = write_instance(tmp_path, "g", instar_with_chords(8))
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "augment")
    data = json.loads(stdout)
    data["parent"][3] = 10**6
    report_file = tmp_path / "bad.json"
    report_file.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out) == (1, "")
    assert err == "ParentOutOfRange: vertex 3 -> 1000000\n"


def test_verify_builds_no_solver_tree(corpus_results, tmp_path, capsys, monkeypatch):
    """`dmdst verify` reads the report's arrays directly: every corpus
    report still verifies with InTree construction broken."""
    results, _ = corpus_results

    def broken(self, g, parent):
        raise AssertionError("verify built an InTree")

    monkeypatch.setattr(InTree, "__init__", broken)
    graph_file = tmp_path / "g"
    report_file = tmp_path / "r.json"
    for r in results:
        graph_file.write_text(serialize_graph(r.g))
        for report in (r.local, r.augment):
            report_file.write_text(report.to_json())
            code, out, err = run_cli(capsys, "verify", str(graph_file), str(report_file))
            assert (code, out) == (0, "ok\n"), (r.name, err)


@st.composite
def signed_parent_arrays(draw):
    """A small graph, a report solved on it, and the report's signed
    parent array with a few entries rewritten: ints in [-2, n + 2], 10**6,
    self-parents and two-vertex cycles."""
    seed = draw(st.integers(0, 300))
    n = 4 + seed % 6
    g = gen_random(n, min(seed % 13, (n - 1) ** 2), seed)
    parent = build_initial_tree(g).parents_signed()
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["value", "huge", "self", "swap"]))
        if kind == "value":
            parent[v] = draw(st.integers(-2, n + 2))
        elif kind == "huge":
            parent[v] = 10**6
        elif kind == "self":
            parent[v] = v
        else:
            w = draw(st.integers(0, n - 1))
            parent[v], parent[w] = w, v
    return g, parent, draw(st.integers(0, 1))


@given(signed_parent_arrays())
def test_verify_report_reads_parent_array_as_tree_validate(case):
    """_verify_report never raises.  Wherever tree_from_parents builds a
    tree it gives that tree's first validate() violation, or checks the
    tree degree; where an entry at or above n breaks the constructor it
    names the first faulty vertex, ParentOutOfRange when that is the entry
    (SinkHasParent at the sink)."""
    g, parent, delta_offset = case
    report = replace(run_local_search(g), certificate=None, lower_bound=None)
    try:
        tree = tree_from_parents(g, parent)
    except IndexError:
        tree = None
    if tree is not None:
        delta = tree.max_deg + delta_offset
        got = cli._verify_report(g, replace(report, parent=parent, delta_final=delta))
        expected = (tree.validate() or [None])[0]
        if expected is None and delta_offset:
            expected = f"DeltaMismatch: tree degree {tree.max_deg}, report says {delta}"
        assert got == expected
        return
    got = cli._verify_report(g, replace(report, parent=parent))
    first = next(v for v, p in enumerate(parent) if p >= g.n)

    def fine(v, p):
        if v == g.sink:
            return p < 0
        return 0 <= p < g.n and g.has_edge(v, p)

    if all(fine(v, parent[v]) for v in range(first)):
        if first == g.sink:
            assert got == f"SinkHasParent: sink {first} has parent {parent[first]}"
        else:
            assert got == f"ParentOutOfRange: vertex {first} -> {parent[first]}"
    else:
        assert got.split(":")[0] in {"SinkHasParent", "MissingParent", "NotAnEdge"}


def _drop_parent(data):
    del data["parent"]
    return data


def _zero_bound_denominator(data):
    data["lower_bound"]["den"] = 0
    return data


def _drop_certificate_k(data):
    del data["certificate"]["k"]
    return data


def _certificate_vertex(side, vertex):
    """The report with its certificate's first vertex on side replaced."""

    def corrupt(data):
        data["certificate"][side][0] = vertex
        return data

    return corrupt


def _certificate_extra_vertex(side, vertex):
    """The report with vertex appended to its certificate's side."""

    def corrupt(data):
        data["certificate"][side].append(vertex)
        return data

    return corrupt


def _parent_entry(value):
    """The report with parent[3] replaced."""

    def corrupt(data):
        data["parent"][3] = value
        return data

    return corrupt


def _certificate_fields(fields):
    """The report with its certificate's fields replaced, or dropped where
    given as None."""

    def corrupt(data):
        for key, value in fields.items():
            if value is None:
                del data["certificate"][key]
            else:
                data["certificate"][key] = value
        return data

    return corrupt


def _certificate_k(value):
    def corrupt(data):
        data["certificate"]["k"] = value
        return data

    return corrupt


NON_INT_VERTICES = [(side, v) for side in "UB" for v in ("a", 1.5, True)]
# U is [1, 2, 3, 4]; each value equals a vertex already on it.
EQUAL_NON_INT_VERTICES = [True, 2.0]
# True and 2.0 compare equal to the vertices 1 and 2
NON_INT_PARENTS = ["x", 2.0, True]
NON_INT_KS = [2.7, "3"]
# the certificate's verified flag as a truthy str and an int
NON_BOOL_VERIFIED = ["no", 1]
# near misses of the three algorithm names, and values of other types
UNKNOWN_ALGORITHMS = ["magic", "Local", "exact ", None, 1, ["local"]]
# Each int field of the report as a str, a float and a bool: the first
# two compare equal to, or read as, the right value.
INT_FIELDS = ["n", "m", "delta_initial", "delta_final", "iterations"]
NON_INT_FIELDS = [
    (key, kind) for key in INT_FIELDS for kind in ("str", "float", "bool")
] + [("iterations", "x")]
# Certificates whose own fields disagree, from one whose U is [1, 2, 3, 4],
# B is [0] and bound is 4/1: a declared bound that is not |U|/|B| (or not
# an int, or missing), and a side that lists a vertex twice.
# Nested past any decoder's recursion limit, so json.loads itself fails.
NESTED_REPORTS = {
    "nested-arrays": "[" * 200000 + "]" * 200000,
    "nested-objects": '{"a":' * 200000 + "0" + "}" * 200000,
}

FORGED_CERTIFICATES = [
    ("bound_num-99", {"bound_num": 99}),
    ("bound_den-0", {"bound_den": 0}),
    ("bound_num-str", {"bound_num": "4"}),
    ("bound-missing", {"bound_num": None, "bound_den": None}),
    ("U-shrunk-stale-bound", {"U": [1, 2, 3]}),
    ("U-repeated", {"U": [1, 2, 3, 4, 1]}),
    ("B-repeated", {"B": [0, 0]}),
]


def _certificate_verified(value):
    def corrupt(data):
        data["certificate"]["verified"] = value
        return data

    return corrupt


def _unknown_algorithm(value):
    """The report from an algorithm verify has no rule for, its bound left
    with no certificate behind it."""

    def corrupt(data):
        data.update(algorithm=value, certificate=None)
        return data

    return corrupt


def _int_field(key, kind):
    def corrupt(data):
        value = data[key]
        data[key] = {"str": str(value), "float": float(value), "bool": True}.get(kind, kind)
        return data

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [_drop_parent, _zero_bound_denominator, _drop_certificate_k, lambda data: [data]]
    + [_certificate_vertex(side, v) for side, v in NON_INT_VERTICES]
    + [_certificate_extra_vertex("U", v) for v in EQUAL_NON_INT_VERTICES]
    + [_parent_entry(v) for v in NON_INT_PARENTS]
    + [_certificate_k(v) for v in NON_INT_KS]
    + [_certificate_verified(v) for v in NON_BOOL_VERIFIED]
    + [_unknown_algorithm(v) for v in UNKNOWN_ALGORITHMS]
    + [_int_field(key, kind) for key, kind in NON_INT_FIELDS]
    + [_certificate_fields(fields) for _, fields in FORGED_CERTIFICATES]
    + [lambda data: {**data, "lower_bound": {"num": True, "den": True}}]
    + [lambda data, text=text: text for text in NESTED_REPORTS.values()],
    ids=["missing-parent", "zero-denominator", "certificate-without-k", "top-level-list"]
    + [f"certificate-{side}-{v!r}" for side, v in NON_INT_VERTICES]
    + [f"certificate-U-extra-{v!r}" for v in EQUAL_NON_INT_VERTICES]
    + [f"parent-{v!r}" for v in NON_INT_PARENTS]
    + [f"certificate-k-{v!r}" for v in NON_INT_KS]
    + [f"certificate-verified-{v!r}" for v in NON_BOOL_VERIFIED]
    + [f"algorithm-{v!r}" for v in UNKNOWN_ALGORITHMS]
    + [f"{key}-{kind}" for key, kind in NON_INT_FIELDS]
    + [f"certificate-{name}" for name, _ in FORGED_CERTIFICATES]
    + ["lower-bound-bools"]
    + list(NESTED_REPORTS),
)
def test_verify_rejects_malformed_report_as_bad_input(tmp_path, capsys, corrupt):
    path = write_instance(tmp_path, "g", Digraph(5, 0, [(v, 0) for v in range(1, 5)]))
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "local")
    data = json.loads(stdout)
    assert data["lower_bound"] is not None and data["certificate"] is not None
    bad = corrupt(data)  # a report object, or the text of one
    report_file = tmp_path / "bad.json"
    report_file.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", NESTED_REPORTS.values(), ids=list(NESTED_REPORTS))
def test_verify_names_a_too_deeply_nested_report(tmp_path, capsys, text):
    path = write_instance(tmp_path, "g", Digraph(2, 0, [(1, 0)]))
    report_file = tmp_path / "deep.json"
    report_file.write_text(text)
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out) == (2, "")
    assert err == "error: malformed report: JSON nested too deeply\n"


def _without_certificate(data):
    data["certificate"] = None
    return data


def _bound_above_delta(data):
    data["lower_bound"] = {"num": 7, "den": 1}
    return data


@pytest.mark.parametrize(
    "corrupt",
    [_without_certificate, _bound_above_delta,
     lambda data: _bound_above_delta(_without_certificate(data))],
    ids=["no-certificate", "bound-above-delta", "no-certificate-bound-above-delta"],
)
def test_verify_flags_lower_bound_that_nothing_backs(tmp_path, capsys, corrupt):
    """An augment report's bound (13/5 under Delta 3) with its certificate
    dropped, or raised above the tree's own degree, fails verification."""
    path = str(tmp_path / "g.dmdst")
    run_cli(capsys, "generate", "--family", "blocker", "--k", "4", "--fanout", "3",
            "--seed", "1", "--out", path)
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "augment")
    data = json.loads(stdout)
    assert (data["lower_bound"], data["delta_final"]) == ({"num": 13, "den": 5}, 3)
    report_file = tmp_path / "bad.json"
    report_file.write_text(json.dumps(corrupt(data)))
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out) == (1, "")
    assert err.startswith("BoundMismatch: ")


def forged_exact(data, parent, delta):
    """An exact report rewritten to claim the tree parent, of degree delta,
    as optimal."""
    data.update(algorithm="exact", parent=parent, delta_final=delta,
                lower_bound={"num": delta, "den": 1}, certificate=None,
                guarantee="proved", exit_reason="exact")
    return data


def test_verify_rejects_exact_report_that_is_not_optimal(tmp_path, capsys):
    """An exact report must carry the optimum: the start BFS tree (Delta 4)
    claimed as exact on a graph whose optimum is 2 fails, and the genuine
    exact report still verifies."""
    g = gen_random(9, 12, 0)
    path = write_instance(tmp_path, "g", g)
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "exact")
    genuine = tmp_path / "exact.json"
    genuine.write_text(stdout)
    code, out, err = run_cli(capsys, "verify", path, str(genuine))
    assert (code, out) == (0, "ok\n"), err
    data = json.loads(stdout)
    assert data["delta_final"] == 2
    start = build_initial_tree(g)
    assert start.max_deg == 4
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(forged_exact(data, start.parents_signed(), 4)))
    code, out, err = run_cli(capsys, "verify", path, str(forged))
    assert (code, out) == (1, "")
    assert err == "NotOptimal: delta_final 4, optimum 2\n"


def test_verify_rejects_exact_report_above_oracle_limit(tmp_path, capsys):
    """Above the oracle's limit nothing proves an exact report, not even
    one whose tree is optimal (a path's, Delta 1)."""
    path = write_instance(tmp_path, "p13", gen_path(13))
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "local")
    data = json.loads(stdout)
    assert data["delta_final"] == 1
    report_file = tmp_path / "exact.json"
    report_file.write_text(json.dumps(forged_exact(data, data["parent"], 1)))
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out) == (1, "")
    assert err == "ExactUnproven: n=13 is above the exact oracle's limit 12\n"


def test_augment_solves_high_degree_instar_exactly(tmp_path, capsys):
    # Degree 399: a base-10 potential far past the float range.
    path = write_instance(tmp_path, "star", gen_instar(400))
    code, stdout, _ = run_cli(capsys, "solve", path, "--algo", "augment")
    assert code == 0
    report_file = tmp_path / "star.json"
    report_file.write_text(stdout)
    code, out, _ = run_cli(capsys, "verify", path, str(report_file))
    assert code == 0
    assert out.strip() == "ok"


@pytest.mark.parametrize("epsilon", ["1e-200", "1e-310"])
@pytest.mark.parametrize("algo", ["local", "augment"])
def test_paper_profile_solves_at_tiny_epsilon(tmp_path, capsys, algo, epsilon):
    # 1/epsilon and the base c it forces are far past the float range
    path = write_instance(tmp_path, "g", gen_random(30, 60, 7))
    code, stdout, err = run_cli(
        capsys, "solve", path, "--algo", algo, "--profile", "paper", "--epsilon", epsilon
    )
    assert code == 0, err
    assert json.loads(stdout)["config"]["epsilon"] == float(epsilon)
    report_file = tmp_path / "g.json"
    report_file.write_text(stdout)
    code, out, _ = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out.strip()) == (0, "ok")


@pytest.mark.parametrize("algo", ["local", "augment"])
def test_solve_at_odd_base_round_trips_through_verify(tmp_path, capsys, algo):
    # epsilon 0.15 makes c = 7: the augmenting search ranks classes by 7/2
    path = write_instance(tmp_path, "g", gen_random(30, 60, 7))
    code, stdout, err = run_cli(capsys, "solve", path, "--algo", algo, "--epsilon", "0.15")
    assert code == 0, err
    data = json.loads(stdout)
    assert data["config"]["base_c"] == 7 and data["iterations"] > 0
    report_file = tmp_path / "g.json"
    report_file.write_text(stdout)
    code, out, _ = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out.strip()) == (0, "ok")


def test_trace_at_tiny_epsilon_reports_and_verifies(tmp_path, capsys):
    """At epsilon 1e-310, c is about 10**310, and the trace's exact base-c
    potentials run past Python's 4300-digit int-to-string limit; the
    report is still written and read back, and the limit is restored."""
    path = str(tmp_path / "g")
    code, _, _ = run_cli(
        capsys, "generate", "--family", "random", "--n", "650", "--seed", "3", "--out", path
    )
    assert code == 0
    # interpreters that predate the limit convert ints of any length
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)
    limit = get_limit()
    code, stdout, err = run_cli(
        capsys, "solve", path, "--algo", "augment", "--trace", "--epsilon", "1e-310"
    )
    assert code == 0, err
    report = SolveReport.from_json(stdout)
    assert max(row["phi"] for row in report.layers_trace) > 10 ** limit
    report_file = tmp_path / "g.json"
    report_file.write_text(stdout)
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out.strip()) == (0, "ok"), err
    assert get_limit() == limit


@pytest.mark.parametrize("algo", ["local", "augment", "exact"])
def test_solve_walks_the_sink_bfs_once(tmp_path, capsys, monkeypatch, algo):
    """Parsing checks reachability with one sink BFS; the start tree reuses
    its parents instead of walking again."""
    path = write_instance(tmp_path, "g", gen_random(11, 30, 4))
    calls = []

    def counted(rev, sink):
        calls.append(sink)
        return sink_bfs(rev, sink)

    monkeypatch.setattr(dmdst.graph, "sink_bfs", counted)
    code, _, err = run_cli(capsys, "solve", path, "--algo", algo)
    assert code == 0, err
    assert len(calls) == 1


def test_solver_exception_exits_internal_error(tmp_path, capsys, monkeypatch):
    def broken(g, cfg=None, trace=False):
        raise StalePath("injected")

    monkeypatch.setattr(cli, "run_augmenting_search", broken)
    path = write_instance(tmp_path, "g", gen_path(4))
    code, stdout, err = run_cli(capsys, "solve", path, "--algo", "augment")
    assert code == 3
    assert stdout == ""
    assert err.startswith("internal error: StalePath: injected")
    assert "Traceback" not in err


def raise_value_error(*args, **kwargs):
    raise ValueError("list.remove(x): x not in list")


def test_value_error_in_a_solve_exits_internal_error(tmp_path, capsys, monkeypatch):
    """A ValueError is bad input only when reading or checking the inputs
    raises it; one from a solve, such as a children-list remove that
    misses, is a bug: exit 3."""
    path = write_instance(tmp_path, "g", gen_path(4))
    monkeypatch.setattr(cli, "run_local_search", raise_value_error)
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, out) == (3, "")
    assert err == "internal error: ValueError: list.remove(x): x not in list\n"


def test_value_error_in_verify_check_exits_internal_error(tmp_path, capsys, monkeypatch):
    """A ValueError from verify's check of a well-formed report is a bug,
    not bad input: exit 3."""
    path = write_instance(tmp_path, "g", gen_path(4))
    _, stdout, _ = run_cli(capsys, "solve", path)
    report_file = tmp_path / "g.json"
    report_file.write_text(stdout)
    monkeypatch.setattr(cli, "parent_violations", raise_value_error)
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert (code, out) == (3, "")
    assert err == "internal error: ValueError: list.remove(x): x not in list\n"


def test_unreadable_inputs_exit_bad_input(tmp_path, capsys):
    """Files that are not UTF-8, graph files with a malformed or missing
    header line, an epsilon outside (0, 1/4) and a generator parameter
    outside its range are bad input: exit 2."""
    path = write_instance(tmp_path, "g", gen_path(4))
    _, stdout, _ = run_cli(capsys, "solve", path)
    report_file = tmp_path / "g.json"
    report_file.write_text(stdout)
    latin = tmp_path / "latin.g"
    latin.write_bytes(b"dmdst 1\n# caf\xe9\n2 1 0\n1 0\n")
    latin_report = tmp_path / "latin.json"
    latin_report.write_bytes(stdout.replace('"local"', '"local\xe9"').encode("latin-1"))
    bad_headers = {"word": "dmdst 1\n3 two 0\n1 0\n2 1\n", "zero": "dmdst 1\n0 0 0\n",
                   "none": "dmdst 1\n"}
    for name, text in bad_headers.items():
        (tmp_path / f"{name}.g").write_text(text)
    for argv in (
        *(["solve", str(tmp_path / f"{name}.g")] for name in bad_headers),
        ["solve", str(latin)],
        ["verify", str(latin), str(report_file)],
        ["verify", path, str(latin_report)],
        ["solve", path, "--epsilon", "0.3"],
        ["generate", "--family", "random", "--n", "0"],
        ["generate", "--family", "random", "--n", "5", "--extra-edges", "-3"],
        ["generate", "--family", "blocker", "--k", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_reports_are_stable_modulo_timing(tmp_path, capsys):
    path = write_instance(tmp_path, "g", instar_with_chords(9))
    outputs = []
    for _ in range(2):
        _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "augment", "--trace")
        data = json.loads(stdout)
        data["wall_time_ms"] = 0.0
        outputs.append(json.dumps(data, sort_keys=True))
    assert outputs[0] == outputs[1]


def report_text(report: SolveReport) -> str:
    """The report's JSON text with wall_time_ms, the one unstable field,
    set to zero."""
    report.wall_time_ms = 0.0
    return report.to_json()


@given(st.integers(30, 79), st.integers(0, 10 ** 6))
@example(58, 28)
def test_generated_graph_and_its_text_solve_alike(n, seed):
    """The start tree depends on the graph, not on the order its edges came
    in: a generator's graph (edges in generation order) and the same graph
    read back from its text (grouped by ascending tail) give byte-identical
    reports, wall time aside.  gen_random(58, 116, 28) once solved to local
    Delta 4 from the library and 5 from its file."""
    g = gen_random(n, 2 * n, seed)
    parsed = parse_graph(serialize_graph(g))
    for solve in (run_local_search, run_augmenting_search):
        assert report_text(solve(g, trace=True)) == report_text(solve(parsed, trace=True))


def test_solve_reads_canonical_and_annotated_files_alike(tmp_path, capsys):
    text = serialize_graph(gen_random(40, 70, 5))
    canonical = tmp_path / "canonical.g"
    canonical.write_text(text)
    annotated = tmp_path / "annotated.g"
    rows = ["# the same graph, annotated"]
    for i, line in enumerate(text.splitlines()):
        rows.extend([line + "  ", "# edge block"] if i % 4 == 3 else [line, ""])
    annotated.write_bytes("\r\n".join(rows).encode())
    for algo in ("local", "augment"):
        reports = {}
        for path in (canonical, annotated):
            code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", algo, "--trace")
            assert code == 0, err
            data = json.loads(stdout)
            del data["wall_time_ms"]
            reports[path] = json.dumps(data, sort_keys=True)
            report_file = tmp_path / f"{path.stem}-{algo}.json"
            report_file.write_text(stdout)
            for graph_path in (canonical, annotated):
                code, out, err = run_cli(capsys, "verify", str(graph_path), str(report_file))
                assert (code, out.strip()) == (0, "ok"), err
        assert reports[canonical] == reports[annotated]


def test_solve_exact_rejects_instance_over_oracle_limit(tmp_path, capsys):
    path = write_instance(tmp_path, "p13", gen_path(13))
    code, stdout, err = run_cli(capsys, "solve", path, "--algo", "exact")
    assert code == 2
    assert stdout == ""
    assert "oracle limit is 12" in err


def test_retired_bench_subcommand_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["dmdst"]]
    assert commands
    for argv in commands:
        # a shell redirection ends the arguments
        cli.build_parser().parse_args(argv[:argv.index(">")] if ">" in argv else argv)


def test_serialize_graph_roundtrip_via_cli_generate(capsys, tmp_path):
    out = str(tmp_path / "b.g")
    code, _, _ = run_cli(
        capsys, "generate", "--family", "blocker", "--k", "3", "--fanout", "2",
        "--seed", "5", "--out", out,
    )
    assert code == 0
    from dmdst import load_graph, gen_blocker

    assert serialize_graph(load_graph(out)) == serialize_graph(gen_blocker(3, 2, 5))

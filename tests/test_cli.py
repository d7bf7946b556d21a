import json
import shlex
import sys
from pathlib import Path

import pytest

import dmdst.graph
from dmdst import (
    Digraph,
    SolveReport,
    cli,
    gen_instar,
    gen_path,
    gen_random,
    save_graph,
    serialize_graph,
)
from dmdst.augmenting import ValidationFailed
from dmdst.cli import main
from dmdst.graph import sink_bfs


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
    bad = tmp_path / "bad.g"
    bad.write_text("dmdst 1\n3 1 0\n1 1\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert "self-loop" in err


def test_solve_then_verify_roundtrip(tmp_path, capsys):
    path = write_instance(tmp_path, "g", instar_with_chords(8))
    for algo in ("local", "augment", "exact"):
        code, stdout, _ = run_cli(capsys, "solve", path, "--algo", algo)
        assert code == 0
        report_file = tmp_path / f"r-{algo}.json"
        report_file.write_text(stdout)
        code, out, err = run_cli(capsys, "verify", path, str(report_file))
        assert code == 0, err
        assert out.strip() == "ok"


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
    data["certificate"]["U"] = data["certificate"]["U"][:-1]
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


NON_INT_VERTICES = [(side, v) for side in "UB" for v in ("a", 1.5, True)]
# U is [1, 2, 3, 4]; each value equals a vertex already on it.
EQUAL_NON_INT_VERTICES = [True, 2.0]


@pytest.mark.parametrize(
    "corrupt",
    [_drop_parent, _zero_bound_denominator, _drop_certificate_k, lambda data: [data]]
    + [_certificate_vertex(side, v) for side, v in NON_INT_VERTICES]
    + [_certificate_extra_vertex("U", v) for v in EQUAL_NON_INT_VERTICES],
    ids=["missing-parent", "zero-denominator", "certificate-without-k", "top-level-list"]
    + [f"certificate-{side}-{v!r}" for side, v in NON_INT_VERTICES]
    + [f"certificate-U-extra-{v!r}" for v in EQUAL_NON_INT_VERTICES],
)
def test_verify_rejects_malformed_report_as_bad_input(tmp_path, capsys, corrupt):
    path = write_instance(tmp_path, "g", Digraph(5, 0, [(v, 0) for v in range(1, 5)]))
    _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "local")
    data = json.loads(stdout)
    assert data["lower_bound"] is not None and data["certificate"] is not None
    report_file = tmp_path / "bad.json"
    report_file.write_text(json.dumps(corrupt(data)))
    code, out, err = run_cli(capsys, "verify", path, str(report_file))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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

    def counted(g):
        calls.append(g)
        return sink_bfs(g)

    monkeypatch.setattr(dmdst.graph, "sink_bfs", counted)
    code, _, err = run_cli(capsys, "solve", path, "--algo", algo)
    assert code == 0, err
    assert len(calls) == 1


def test_solver_exception_exits_internal_error(tmp_path, capsys, monkeypatch):
    def broken(g, cfg=None, trace=False):
        raise ValidationFailed("injected")

    monkeypatch.setattr(cli, "run_augmenting_search", broken)
    path = write_instance(tmp_path, "g", gen_path(4))
    code, stdout, err = run_cli(capsys, "solve", path, "--algo", "augment")
    assert code == 3
    assert stdout == ""
    assert err.startswith("internal error: ValidationFailed: injected")
    assert "Traceback" not in err


def test_reports_are_stable_modulo_timing(tmp_path, capsys):
    path = write_instance(tmp_path, "g", instar_with_chords(9))
    outputs = []
    for _ in range(2):
        _, stdout, _ = run_cli(capsys, "solve", path, "--algo", "augment", "--trace")
        data = json.loads(stdout)
        data["wall_time_ms"] = 0.0
        outputs.append(json.dumps(data, sort_keys=True))
    assert outputs[0] == outputs[1]


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

"""Command-line interface: generate, solve, verify.

Exit codes: 0 success, 1 failed verification, 2 bad input (parse or
validation errors, a malformed report, an instance over the exact
oracle's limit), 3 internal error: any other exception, such as a failed
assertion, a broken tree or a certificate that does not verify, is a bug,
never a recoverable state.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .augmenting import run_augmenting_search
from .certificate import verify_blocking
from .config import Config
from .generators import gen_blocker, gen_complete, gen_instar, gen_path, gen_random
from .graph import Digraph, GraphFormatError, load_graph, serialize_graph
from .local_search import run_local_search
from .oracle import TooLarge, exact_min_degree
from .report import SolveReport
from .search import solve_report
from .tree import build_initial_tree, tree_from_parents

FAMILIES = ("random", "path", "instar", "complete", "blocker")
ALGOS = ("local", "augment", "exact")


def _generate(family: str, n: int, seed: int, extra_edges: int | None,
              k: int, fanout: int) -> Digraph:
    if family == "random":
        extra = 2 * n if extra_edges is None else extra_edges
        return gen_random(n, extra, seed)
    if family == "path":
        return gen_path(n)
    if family == "instar":
        return gen_instar(n)
    if family == "complete":
        return gen_complete(n)
    if family == "blocker":
        return gen_blocker(k, fanout, seed)
    raise ValueError(f"unknown family {family!r}")


def _solve(g: Digraph, algo: str, cfg: Config, trace: bool) -> SolveReport:
    if algo == "local":
        return run_local_search(g, cfg, trace=trace)
    if algo == "augment":
        return run_augmenting_search(g, cfg, trace=trace)
    if algo == "exact":
        start = time.perf_counter()
        delta0 = build_initial_tree(g).max_deg
        best, tree = exact_min_degree(g)
        return solve_report(
            "exact", g, cfg, tree, start, delta0,
            lower_bound=Fraction(best), guarantee="proved", exit_reason="exact",
        )
    raise ValueError(f"unknown algorithm {algo!r}")


def cmd_generate(args: argparse.Namespace) -> int:
    g = _generate(args.family, args.n, args.seed, args.extra_edges, args.k, args.fanout)
    text = serialize_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    cfg = Config.for_graph(g, profile=args.profile, epsilon=args.epsilon)
    report = _solve(g, args.algo, cfg, args.trace)
    sys.stdout.write(report.to_json())
    return 0


def _verify_report(g: Digraph, report: SolveReport) -> str | None:
    """First violation name, or None when everything checks out."""
    if report.n != g.n or report.m != g.m:
        return f"GraphMismatch: report says n={report.n} m={report.m}"
    if len(report.parent) != g.n:
        return f"ShapeMismatch: parent array length {len(report.parent)}"
    try:
        tree = tree_from_parents(g, report.parent)
    except Exception as exc:  # malformed array indices
        return f"ShapeMismatch: {exc}"
    bad = tree.validate()
    if bad:
        return bad[0]
    if tree.max_deg != report.delta_final:
        return (
            f"DeltaMismatch: tree degree {tree.max_deg}, "
            f"report says {report.delta_final}"
        )
    cert = report.certificate
    if cert is not None:
        if not cert.verified:
            return "CertificateUnverified: verified flag is false"
        if not cert.U or not cert.B:
            return "BlockingCertificateInvalid: empty witness or blocking set"
        if report.lower_bound != cert.bound:
            return "BoundMismatch: lower_bound differs from |U|/|B|"
        if not verify_blocking(g, cert):
            return "BlockingCertificateInvalid: (U, B) does not block"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    with open(args.report, "r", encoding="utf-8") as fh:
        report = SolveReport.from_json(fh.read())
    violation = _verify_report(g, report)
    if violation:
        print(violation, file=sys.stderr)
        return 1
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmdst",
        description="Approximate minimum-degree spanning in-trees with "
        "verifiable lower-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a generated instance")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--extra-edges", type=int, default=None)
    p_gen.add_argument("--k", type=int, default=3, help="blocker hub degree")
    p_gen.add_argument("--fanout", type=int, default=2, help="blocker count")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve a graph file, report JSON")
    p_solve.add_argument("graph")
    p_solve.add_argument("--algo", choices=ALGOS, default="local")
    p_solve.add_argument("--profile", choices=("paper", "practical"), default="practical")
    p_solve.add_argument("--epsilon", type=float, default=0.1)
    p_solve.add_argument("--trace", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-check a report against its graph")
    p_verify.add_argument("graph")
    p_verify.add_argument("report")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, TooLarge, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, never bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

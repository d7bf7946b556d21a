"""Command-line interface: generate, solve, verify.

Exit codes: 0 success, 1 failed verification, 2 bad input, 3 internal
error.  Bad input is what reading and checking the inputs raises, and
only that (BAD_INPUT): a file that cannot be read or is not UTF-8, a
graph file that breaks the format or its invariants (GraphFormatError), a
report that is not JSON or not a well-formed report (ReportFormatError:
say a parent entry, lower-bound part or certificate k that is not an int,
a certificate side that lists a vertex twice, a certificate whose
declared bound is not |U|/|B|, or an algorithm other than local, augment
or exact), an epsilon outside (0, 1/4) (ConfigError), a generator
parameter outside its range (GeneratorError) and an instance over the
exact oracle's limit (TooLarge).  Any other exception, a ValueError
raised inside a solve or a check included, such as a failed assertion, a
broken tree or a certificate that does not verify, is a bug, never a
recoverable state: exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from fractions import Fraction

from .augmenting import run_augmenting_search
from .certificate import verify_blocking
from .config import Config, ConfigError
from .generators import GeneratorError, gen_blocker, gen_complete, gen_instar, gen_path, gen_random
from .graph import Digraph, GraphFormatError, load_graph, save_graph, serialize_graph
from .local_search import run_local_search
from .oracle import EXACT_LIMIT, TooLarge, exact_min_degree
from .report import ALGORITHMS, ReportFormatError, SolveReport
from .search import solve_report
from .tree import build_initial_tree, parent_violations

FAMILIES = ("random", "path", "instar", "complete", "blocker")

# What reading and checking the inputs raises: exit 2.  json's
# JSONDecodeError and UnicodeDecodeError are the ValueErrors a report or
# graph file that is not JSON or not UTF-8 raises.
BAD_INPUT = (
    GraphFormatError, ReportFormatError, ConfigError, GeneratorError, TooLarge,
    OSError, json.JSONDecodeError, UnicodeDecodeError,
)


def _generate(family: str, n: int, seed: int, extra_edges: int | None,
              k: int, fanout: int) -> Digraph:
    if family == "random":
        extra = min(2 * n, (n - 1) ** 2) if extra_edges is None else extra_edges
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
    if args.out:
        save_graph(g, args.out)
    else:
        sys.stdout.write(serialize_graph(g))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    cfg = Config.for_graph(g, profile=args.profile, epsilon=args.epsilon)
    report = _solve(g, args.algo, cfg, args.trace)
    sys.stdout.write(report.to_json())
    return 0


def _verify_report(g: Digraph, report: SolveReport) -> str | None:
    """First violation name, or None when everything checks out.

    Reads the report's parent array and certificate directly, with no
    solver tree built: the array against the graph and acyclicity
    (parent_violations), the tree degree against delta_final, the lower
    bound against delta_final and its backing, then the certificate by
    plain reachability (verify_blocking).  A local or augment bound must
    come with its certificate.  An exact report comes with none: its
    delta_final must equal the optimum, which exact_min_degree recomputes,
    so no exact report verifies above oracle.EXACT_LIMIT vertices.
    """
    if report.n != g.n or report.m != g.m:
        return f"GraphMismatch: report says n={report.n} m={report.m}"
    parent = [None if p < 0 else p for p in report.parent]
    bad = parent_violations(g, parent)
    if bad:
        return bad[0]
    counts = Counter(parent)
    del counts[None]  # the sink's
    delta = max(counts.values(), default=0)
    if delta != report.delta_final:
        return (
            f"DeltaMismatch: tree degree {delta}, "
            f"report says {report.delta_final}"
        )
    bound = report.lower_bound
    if bound is not None and bound > report.delta_final:
        return f"BoundMismatch: lower_bound {bound} above delta_final {report.delta_final}"
    if report.algorithm == "exact":
        if g.n > EXACT_LIMIT:
            return f"ExactUnproven: n={g.n} is above the exact oracle's limit {EXACT_LIMIT}"
        best, _ = exact_min_degree(g)
        if report.delta_final != best:
            return f"NotOptimal: delta_final {report.delta_final}, optimum {best}"
    cert = report.certificate
    if cert is None:
        if bound is not None and report.algorithm in ("local", "augment"):
            return "BoundMismatch: lower_bound without a certificate"
        return None
    if not cert.verified:
        return "CertificateUnverified: verified flag is false"
    if not cert.U or not cert.B:
        return "BlockingCertificateInvalid: empty witness or blocking set"
    if bound != cert.bound:
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
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="local")
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
    except BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, never bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

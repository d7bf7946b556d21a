"""Command-line interface: generate, solve, verify, bench.

Exit codes: 0 success, 1 failed verification, 2 bad input (parse or
validation errors, a malformed report, an invalid bench matrix), 3
internal error: any other exception, such as a failed assertion, a broken
tree or a certificate that does not verify, is a bug, never a recoverable
state.
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
from .graph import Digraph, GraphFormatError, load_graph, save_graph, serialize_graph
from .local_search import run_local_search
from .oracle import TooLarge, exact_min_degree
from .report import SolveReport
from .search import solve_report
from .tree import build_initial_tree, tree_from_parents

FAMILIES = ("random", "path", "instar", "complete", "blocker")
ALGOS = ("local", "augment", "exact")
EXACT_LIMIT = 12


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
        best, tree = exact_min_degree(g, limit=EXACT_LIMIT)
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
    bad = tree.validate(g)
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


def _parse_list(text: str, cast) -> list:
    return [cast(part) for part in text.split(",") if part]


def cmd_bench(args: argparse.Namespace) -> int:
    families = _parse_list(args.families, str)
    sizes = _parse_list(args.sizes, int)
    seeds = _parse_list(args.seeds, int)
    algos = _parse_list(args.algos, str)
    if not families or not sizes or not seeds or not algos:
        print("bench: empty matrix", file=sys.stderr)
        return 2
    for fam in families:
        if fam not in FAMILIES:
            print(f"bench: unknown family {fam!r}", file=sys.stderr)
            return 2
    for algo in algos:
        if algo not in ALGOS:
            print(f"bench: unknown algorithm {algo!r}", file=sys.stderr)
            return 2
    rows = []
    for fam in families:
        for n in sizes:
            for seed in seeds:
                g = _generate(fam, n, seed, args.extra_edges, args.k, args.fanout)
                oracle_delta: int | None = None
                if g.n <= EXACT_LIMIT:
                    oracle_delta, _ = exact_min_degree(g, limit=EXACT_LIMIT)
                for algo in algos:
                    if algo == "exact" and g.n > EXACT_LIMIT:
                        continue
                    cfg = Config.for_graph(g, profile=args.profile, epsilon=args.epsilon)
                    report = _solve(g, algo, cfg, trace=False)
                    floor = 1.0
                    if report.lower_bound is not None:
                        floor = max(floor, float(report.lower_bound))
                    if oracle_delta is not None:
                        floor = max(floor, float(oracle_delta))
                    rows.append(
                        {
                            "family": fam,
                            "n": g.n,
                            "m": g.m,
                            "seed": seed,
                            "algo": algo,
                            "delta": report.delta_final,
                            "lower_bound": None
                            if report.lower_bound is None
                            else [
                                report.lower_bound.numerator,
                                report.lower_bound.denominator,
                            ],
                            "gap": report.delta_final / floor,
                            "wall_time_ms": report.wall_time_ms,
                            "report": report.to_dict(),
                        }
                    )
    if args.json:
        sys.stdout.write(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    else:
        header = f"{'family':<9} {'n':>4} {'seed':>5} {'algo':<8} {'delta':>5} {'lower':>7} {'gap':>6} {'ms':>8}"
        print(header)
        print("-" * len(header))
        for r in rows:
            lb = r["lower_bound"]
            lb_text = "-" if lb is None else (f"{lb[0]}" if lb[1] == 1 else f"{lb[0]}/{lb[1]}")
            print(
                f"{r['family']:<9} {r['n']:>4} {r['seed']:>5} {r['algo']:<8} "
                f"{r['delta']:>5} {lb_text:>7} {r['gap']:>6.2f} {r['wall_time_ms']:>8.1f}"
            )
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

    p_bench = sub.add_parser("bench", help="run an instance x algorithm matrix")
    p_bench.add_argument("--families", default="path,instar", help="comma-separated")
    p_bench.add_argument("--sizes", default="10,50", help="comma-separated")
    p_bench.add_argument("--seeds", default="0", help="comma-separated")
    p_bench.add_argument("--algos", default="local,augment", help="comma-separated")
    p_bench.add_argument("--profile", choices=("paper", "practical"), default="practical")
    p_bench.add_argument("--epsilon", type=float, default=0.1)
    p_bench.add_argument("--extra-edges", type=int, default=None)
    p_bench.add_argument("--k", type=int, default=3)
    p_bench.add_argument("--fanout", type=int, default=2)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
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

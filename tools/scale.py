#!/usr/bin/env python3
"""Time each solver's call on large sparse random graphs.

    python3 tools/scale.py 16000 32000
    python3 tools/scale.py --src ../parent/src 16000 32000

For each n, the graph is gen_random(n, 2n+1, 1), parsed from its text as
`dmdst solve` would read it.  Each solver runs once on it with the default
config, and the wall time of that call alone (no generation, parsing or
JSON) gives one line:

    <n> <algorithm> delta <delta_final> rounds <iterations> seconds <s>

--src picks the package source to import, so one copy of this script times
any checkout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ns", type=int, nargs="+", metavar="N")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the dmdst package (default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve())]
    from dmdst import Config, gen_random, parse_graph, serialize_graph
    from dmdst import run_augmenting_search, run_local_search

    solvers = (("local", run_local_search), ("augment", run_augmenting_search))
    for n in args.ns:
        g = parse_graph(serialize_graph(gen_random(n, 2 * n + 1, 1)))
        for algo, solve in solvers:
            cfg = Config.for_graph(g)
            start = time.perf_counter()
            report = solve(g, cfg)
            seconds = time.perf_counter() - start
            print(n, algo, "delta", report.delta_final, "rounds", report.iterations,
                  "seconds", f"{seconds:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fingerprint every benchmark report, to show that a change keeps them.

    python3 tools/parity.py 1 2 > parity-after.txt
    python3 tools/parity.py --src ../parent/src 1 2 > parity-before.txt
    diff parity-before.txt parity-after.txt

For each seed, each pool of benchmark/workloads.py (read, never changed)
and each instance in it, both solvers run on the instance's graph text as
`dmdst solve --trace` would, with the default config.  Each report, as the
text SolveReport.to_json writes with wall_time_ms (the one field that
varies between runs) set to zero, gives one line:

    <pool> <seed> <index> <label> <algorithm> <sha256>

Seeds 1 and 2 give 760 lines.  --src picks the package source to import,
so one copy of this script fingerprints any checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the dmdst package (default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "benchmark")]
    from dmdst import Config, generators, parse_graph, serialize_graph
    from dmdst import run_augmenting_search, run_local_search
    from workloads import POOLS

    solvers = (("local", run_local_search), ("augment", run_augmenting_search))
    for seed in args.seeds:
        for pool, specs in POOLS.items():
            for i, spec in enumerate(specs(seed)):
                g = parse_graph(serialize_graph(spec.build(generators)))
                for algo, solve in solvers:
                    report = solve(g, Config.for_graph(g), trace=True)
                    report.wall_time_ms = 0.0
                    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
                    print(pool, seed, i, spec.label, algo, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

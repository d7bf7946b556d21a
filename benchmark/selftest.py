#!/usr/bin/env python3
"""Self-test of the traced run: every per-layer metric must fire.

    python3 benchmark/selftest.py

Runs each workload once in trace mode, on seed 1, with the shortest
measuring time (one plain pass and one traced one), and fails unless
every per-layer metric is nonzero on the workload listed as its home
in run.py and every output checked out.  Takes about a minute and a half.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from workloads import POOLS


def main() -> int:
    problems = []
    for workload in POOLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", "1"])
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        if code != 0 or not result["correct"]:
            problems.append(f"{workload}: run failed or output wrong")
            print("\n".join(lines[:-1]), file=sys.stderr)
        metrics = result["metrics"]
        for name, (_, home, _) in run.LAYER_METRICS.items():
            if name not in metrics:
                problems.append(f"{workload}: {name} missing")
            elif home == workload and metrics[name]["value"] <= 0:
                problems.append(f"{workload}: {name} did not fire")
        print(f"{workload}: {sum(h == workload for _, h, _ in run.LAYER_METRICS.values())} "
              f"home metrics checked")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The dmdst benchmark: solve, verify and check one seeded workload.

    python3 benchmark/run.py --workload sparse-random --seed 1 --seconds 35 --trace 0

Run from the repository root.  The workload's instances are generated
from the seed and serialised to graph text (the set-up, timed three
times).  Each measuring pass then solves every instance with both
algorithms, from graph text to report JSON, exactly as `dmdst solve`
does, and re-verifies every report along the `dmdst verify` read path.
Passes repeat while the next one is expected to end within --seconds,
and at least twice, so that every cell is solved twice and its outputs
can be compared.  After the passes every distinct report goes through
the independent checks in check.py.  Times are host-speed normalised
(hostspeed.py); the line before the result is a JSON object with the
run's kernel median and the raw wall-time solve percentiles.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 every pass after the first runs with
the layer functions wrapped (spans.py) and the object carries the
per-layer metrics instead.  Everything runs in this one process, with
no threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from check import Graph, canonical, check_report
from hostspeed import REFERENCE_S, HostSpeed
from spans import Tracer, install
from workloads import POOLS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

ALGOS = ("local", "augment")
SETUP_REPEATS = 3
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "local.solve_ms_p50": "ms",
    "local.solve_ms_p90": "ms",
    "augment.solve_ms_p50": "ms",
    "augment.solve_ms_p90": "ms",
    "verify_ms_p50": "ms",
    "local.delta_ratio": "ratio",
    "augment.delta_ratio": "ratio",
    "local.proven_gap": "ratio",
    "augment.proven_gap": "ratio",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}

VERIFY = ("verify",)

# name -> (unit, the workload whose traced run must see it nonzero,
#          its value from the traced passes)
LAYER_METRICS = {
    "graph.parse_graph.ms": ("ms", "dense", lambda t: t.ms("graph.parse_graph")),
    "graph.edges_parsed": ("count", "dense", lambda t: t.count("graph.edges_parsed")),
    "tree.build_initial_tree.ms": (
        "ms", "sparse-random", lambda t: t.ms("tree.build_initial_tree")),
    "tree.validate.solve_ms": (
        "ms", "sparse-random", lambda t: t.ms("tree.validate", ALGOS)),
    "tree.validate.verify_ms": (
        "ms", "sparse-random", lambda t: t.ms("tree.validate", VERIFY)),
    "tree.validate.calls": ("count", "sparse-random", lambda t: t.calls("tree.validate")),
    "tree.validate.vertex_checks": (
        "count", "sparse-random", lambda t: t.count("tree.validate.vertex_checks")),
    "local_search.choose_k.ms": ("ms", "dense", lambda t: t.ms("local_search.choose_k")),
    "local_search.rounds": ("count", "dense", lambda t: t.calls("local_search.choose_k")),
    "local_search.psi.ms": ("ms", "blocked", lambda t: t.ms("local_search.psi")),
    "local_search.psi.calls": ("count", "blocked", lambda t: t.calls("local_search.psi")),
    "local_search.psi.rejected": (
        "count", "sparse-random", lambda t: t.count("local_search.psi.rejected")),
    "local_search.find_improvement_path.ms": (
        "ms", "dense", lambda t: t.ms("local_search.find_improvement_path")),
    "local_search.find_improvement_path.calls": (
        "count", "dense", lambda t: t.calls("local_search.find_improvement_path")),
    "local_search.path_found_ratio": ("ratio", "dense", lambda t: t.ratio(
        t.count("local_search.paths_found"), t.calls("local_search.find_improvement_path"))),
    "local_search.apply_improvement_path.self_ms": (
        "ms", "sparse-random", lambda t: t.self_ms("local_search.apply_improvement_path")),
    "local_search.applied": ("count", "sparse-random", lambda t: t.count("local_search.applied")),
    "local_search.driver.self_ms": ("ms", None, lambda t: t.self_ms("local_search.driver")),
    "augmenting.choose_k.ms": ("ms", "dense", lambda t: t.ms("augmenting.choose_k")),
    "augmenting.rounds": ("count", "dense", lambda t: t.calls("augmenting.choose_k")),
    "augmenting.eligible_starts.ms": (
        "ms", "sparse-random", lambda t: t.ms("augmenting.eligible_starts")),
    "augmenting.eligible_starts.calls": (
        "count", "sparse-random", lambda t: t.calls("augmenting.eligible_starts")),
    "augmenting.starts_admitted": (
        "count", "sparse-random", lambda t: t.count("augmenting.starts_admitted")),
    "augmenting.exit_set.ms": ("ms", "dense", lambda t: t.ms("augmenting.exit_set")),
    "augmenting.exit_set.calls": ("count", "dense", lambda t: t.calls("augmenting.exit_set")),
    "augmenting.exits_found": ("count", "dense", lambda t: t.count("augmenting.exits_found")),
    "augmenting.extend_layer.self_ms": (
        "ms", "dense", lambda t: t.self_ms("augmenting.extend_layer")),
    "augmenting.endpoint_found_ratio": ("ratio", "dense", lambda t: t.ratio(
        t.count("augmenting.endpoints_found"), t.calls("augmenting.extend_layer"))),
    "augmenting.layers_per_round": ("ratio", "dense", lambda t: t.ratio(
        t.calls("augmenting.extend_layer"), t.calls("augmenting.choose_k"))),
    "augmenting.validate_augmenting_path.ms": (
        "ms", "sparse-random", lambda t: t.ms("augmenting.validate_augmenting_path")),
    "augmenting.apply_augmenting_path.self_ms": (
        "ms", "sparse-random", lambda t: t.self_ms("augmenting.apply_augmenting_path")),
    "augmenting.applied": ("count", "sparse-random", lambda t: t.count("augmenting.applied")),
    "augmenting.driver.self_ms": ("ms", None, lambda t: t.self_ms("augmenting.driver")),
    "certificate.extract.ms": ("ms", "blocked", lambda t: t.ms("certificate.extract")),
    "certificate.extract.calls": ("count", "blocked", lambda t: t.calls("certificate.extract")),
    "certificate.empty_witness": (
        "count", "blocked", lambda t: t.count("certificate.empty_witness")),
    "certificate.bound_above_1": (
        "count", "blocked", lambda t: t.count("certificate.bound_above_1")),
    "certificate.verify_blocking.solve_ms": (
        "ms", "blocked", lambda t: t.ms("certificate.verify_blocking", ALGOS)),
    "certificate.verify_blocking.verify_ms": (
        "ms", "blocked", lambda t: t.ms("certificate.verify_blocking", VERIFY)),
    "report.to_json.ms": ("ms", "sparse-random", lambda t: t.ms("report.to_json")),
    "report.from_json.ms": ("ms", "sparse-random", lambda t: t.ms("report.from_json")),
    "report.json_bytes": ("count", "sparse-random", lambda t: t.count("report.json_bytes")),
    "trace.overhead.local_ms": ("ms", None, lambda t: t.overhead["local"]),
    "trace.overhead.augment_ms": ("ms", None, lambda t: t.overhead["augment"]),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Bench:
    """One workload's instances, their measured cells and the checks."""

    def __init__(self, workload: str, seed: int) -> None:
        from dmdst import augmenting, certificate, cli, config, generators, graph
        from dmdst import local_search, report

        self.graph, self.cert, self.cli = graph, certificate, cli
        self.config, self.report = config, report
        # looked up at call time, so that the traced run's wrappers apply
        self.solvers = {
            "local": lambda g, cfg: local_search.run_local_search(g, cfg),
            "augment": lambda g, cfg: augmenting.run_augmenting_search(g, cfg),
        }
        self.speed = HostSpeed()
        specs = POOLS[workload](seed)
        setups, texts = [], None
        for _ in range(SETUP_REPEATS):
            gc.collect()
            before = self.speed.sample()
            start = perf_counter()
            built = [graph.serialize_graph(s.build(generators)) for s in specs]
            elapsed = perf_counter() - start
            setups.append(elapsed * self.speed.factor(before, self.speed.sample()))
            if texts is not None and built != texts:
                raise RuntimeError("generators gave different graphs for one seed")
            texts = built
        self.setup_s = statistics.median(setups)
        self.labels = [s.label for s in specs]
        self.texts = texts
        # (instance, algo) -> first report text, or "!" + error
        self.first: dict[tuple[int, str], str] = {}
        self.first_canonical: dict[tuple[int, str], str] = {}
        # algo -> (instance, reference seconds, wall seconds) for every
        # solve attempt
        self.attempts: dict[str, list[tuple[int, float, float]]] = {a: [] for a in ALGOS}
        self.verify_s: list[float] = []
        # instance -> degree of the starting BFS tree, from check.py
        self.initial_degree: list[int] = []
        self.failed_cells: dict[tuple[int, str], str] = {}
        self.wrong: list[str] = []

    # -- the two timed operations, the same calls the CLI makes -----------

    def solve(self, text: str, algo: str) -> str:
        g = self.graph.parse_graph(text)
        cfg = self.config.Config.for_graph(g)
        return self.solvers[algo](g, cfg).to_json()

    def verify(self, text: str, report_text: str) -> str | None:
        g = self.graph.parse_graph(text)
        rep = self.report.SolveReport.from_json(report_text)
        return self.cli._verify_report(g, rep)

    # -- one measuring pass ---------------------------------------------

    def run_pass(self, tracer=None) -> dict[str, list[float]]:
        """Solve and verify every instance once; returns this pass's solve
        times per algorithm, in reference seconds.

        Each solve, and each instance's verifies taken together, lie
        between two timings of the calibration kernel, whose mean
        normalises them (hostspeed.py).
        """
        times: dict[str, list[float]] = {a: [] for a in ALGOS}
        gc.collect()
        before = self.speed.sample()
        for i, text in enumerate(self.texts):
            outputs = {}
            for algo in ALGOS:
                gc.collect()
                if tracer:
                    tracer.begin(algo)
                start = perf_counter()
                try:
                    out = self.solve(text, algo)
                except Exception as exc:  # counted as a failed solve
                    out = f"!{type(exc).__name__}: {exc}"
                wall = perf_counter() - start
                if tracer:
                    tracer.end()
                after = self.speed.sample()
                factor = self.speed.factor(before, after)
                before = after
                if tracer:
                    tracer.commit(factor)
                self.attempts[algo].append((i, wall * factor, wall))
                times[algo].append(wall * factor)
                if self._record(i, algo, out):
                    outputs[algo] = out
            if not outputs:
                continue
            walls = []
            for algo, out in outputs.items():
                gc.collect()
                if tracer:
                    tracer.begin("verify")
                start = perf_counter()
                try:
                    problem = self.verify(text, out)
                except Exception as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                walls.append(perf_counter() - start)
                if tracer:
                    tracer.end()
                if problem:
                    self._fail(i, algo, f"verify rejected the report: {problem}", wrong=True)
            after = self.speed.sample()
            factor = self.speed.factor(before, after)
            before = after
            if tracer:
                tracer.commit(factor)
            self.verify_s.extend(w * factor for w in walls)
        return times

    def _record(self, i: int, algo: str, out: str) -> bool:
        cell = (i, algo)
        if out.startswith("!"):
            if cell not in self.first:
                self.first[cell] = out
            self._fail(i, algo, out[1:])
            return False
        canon = canonical(out)
        if cell not in self.first:
            self.first[cell] = out
            self.first_canonical[cell] = canon
        elif self.first_canonical.get(cell) != canon:
            self._fail(i, algo, "output differs between two solves", wrong=True)
            return False
        return cell not in self.failed_cells

    def _fail(self, i: int, algo: str, why: str, wrong: bool = False) -> None:
        self.failed_cells.setdefault((i, algo), why)
        if wrong:
            self.wrong.append(f"{self.labels[i]} {algo}: {why}")

    # -- after the passes -------------------------------------------------

    def check_all(self) -> None:
        for i, text in enumerate(self.texts):
            g = Graph(text)
            self.initial_degree.append(g.bfs_degree())
            for algo in ALGOS:
                out = self.first[(i, algo)]
                if out.startswith("!"):
                    continue
                problem = check_report(
                    g, json.loads(out), self.cert.verify_blocking,
                    self.cert.BlockingCertificate,
                )
                if problem:
                    self._fail(i, algo, f"independent check: {problem}", wrong=True)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.attempts.values())

    def failed_attempts(self) -> int:
        """Every attempt of a failed cell fails: a cell's outputs are all
        identical, or the mismatch itself failed it."""
        return sum(
            (i, a) in self.failed_cells for a in ALGOS for i, _, _ in self.attempts[a]
        )

    def solve_ms(self, algo: str, raw: bool = False) -> list[float]:
        """Solve times in ms, reference time or (raw) wall time.  An attempt
        of a failed cell counts as slower than every success: it is charged
        all solve time of the run."""
        col = 2 if raw else 1
        worst = 1000.0 * sum(at[col] for a in ALGOS for at in self.attempts[a])
        return [
            worst if (at[0], algo) in self.failed_cells else 1000.0 * at[col]
            for at in self.attempts[algo]
        ]

    def quality(self, algo: str) -> tuple[float, float]:
        """(geomean delta_final/delta_initial, geomean delta_final/bound).

        delta_initial is the benchmark's own BFS-tree degree (check.py), not
        the report's figure; a failed cell keeps that degree and no bound.
        """
        ratios, gaps = [], []
        for i, d0 in enumerate(self.initial_degree):
            if (i, algo) in self.failed_cells:
                ratios.append(1.0)
                gaps.append(float(d0))
                continue
            d = json.loads(self.first[(i, algo)])
            lb = d["lower_bound"]
            bound = 1 if lb is None else max(1, -(-lb["num"] // lb["den"]))
            ratios.append(d["delta_final"] / d0)
            gaps.append(d["delta_final"] / bound)
        return geomean(ratios), geomean(gaps)


def diagnostics(bench: Bench) -> dict[str, float]:
    """What the host-speed normaliser did in this run: the kernel median,
    and the solve percentiles in wall time before normalising."""
    out = {
        "kernel_ms_median": statistics.median(bench.speed.samples) * 1e3,
        "kernel_ms_reference": REFERENCE_S * 1e3,
    }
    for algo in ALGOS:
        ms = bench.solve_ms(algo, raw=True)
        out[f"raw.{algo}.solve_ms_p50"] = percentile(ms, 0.5)
        out[f"raw.{algo}.solve_ms_p90"] = percentile(ms, 0.9)
    return out


def end_to_end(bench: Bench) -> dict[str, float]:
    out = {"setup_s": bench.setup_s}
    for algo in ALGOS:
        ms = bench.solve_ms(algo)
        out[f"{algo}.solve_ms_p50"] = percentile(ms, 0.5)
        out[f"{algo}.solve_ms_p90"] = percentile(ms, 0.9)
    out["verify_ms_p50"] = percentile([t * 1000.0 for t in bench.verify_s], 0.5)
    for algo in ALGOS:
        out[f"{algo}.delta_ratio"], out[f"{algo}.proven_gap"] = bench.quality(algo)
    out["solved_frac"] = 1.0 - bench.failed_attempts() / bench.attempted
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


class TracedPasses:
    """Accessors over the traced passes: times in ms per pass, counts from
    the first traced pass (every traced pass counts the same)."""

    def __init__(self, snapshots: list[dict], overhead: dict[str, float]) -> None:
        self.snapshots = snapshots
        self.overhead = overhead

    def ms(self, name: str, roots=ALGOS + VERIFY, key: str = "total") -> float:
        return 1000.0 * sum(
            v for snap in self.snapshots for (n, r), v in snap[key].items()
            if n == name and r in roots
        ) / len(self.snapshots)

    def self_ms(self, name: str) -> float:
        return self.ms(name, key="self_time")

    def calls(self, name: str) -> int:
        return sum(v for (n, _), v in self.snapshots[0]["calls"].items() if n == name)

    def count(self, name: str) -> int:
        return self.snapshots[0]["counts"].get(name, 0)

    @staticmethod
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0


def measure(bench: Bench, seconds: float, traced: bool):
    """Run passes until the time is used.

    In trace mode the first pass runs plain and every later one traced;
    when two or more passes are traced, their counts must agree.
    Returns (one snapshot per traced pass, tracing overhead per algorithm
    in ms of p50 solve time).
    """
    tracer = Tracer()
    snapshots: list[dict] = []
    times: dict[bool, dict[str, list[float]]] = {
        False: {a: [] for a in ALGOS}, True: {a: [] for a in ALGOS},
    }
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or (perf_counter() - start) * (passes + 1) / passes <= seconds:
        with_trace = traced and passes > 0
        if with_trace:
            tracer.reset()
            undo = install(tracer)
            try:
                pass_times = bench.run_pass(tracer)
            finally:
                undo()
            snapshots.append({
                "total": dict(tracer.total), "self_time": dict(tracer.self_time),
                "calls": dict(tracer.calls), "counts": dict(tracer.counts),
            })
        else:
            pass_times = bench.run_pass()
        for a in ALGOS:
            times[with_trace][a].extend(pass_times[a])
        passes += 1
    bench.passes = passes
    for later in snapshots[1:]:
        for key in ("calls", "counts"):
            differ = sorted(
                str(k) for k in later[key].keys() | snapshots[0][key].keys()
                if later[key].get(k) != snapshots[0][key].get(k)
            )
            if differ:
                bench.wrong.append(f"traced {key} differ between two passes: {differ}")
    overhead = {
        a: 1000.0 * (percentile(times[True][a], 0.5) - percentile(times[False][a], 0.5))
        if traced else 0.0
        for a in ALGOS
    }
    return snapshots, overhead


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dmdst" / "__init__.py").is_file():
        print(f"error: no dmdst sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in POOLS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    gc.freeze()
    snapshots, overhead = measure(bench, args.seconds, bool(args.trace))
    bench.check_all()

    if args.trace:
        traced = TracedPasses(snapshots, overhead)
        values = {k: value(traced) for k, (_, _, value) in LAYER_METRICS.items()}
        units = {k: u for k, (u, _, _) in LAYER_METRICS.items()}
    else:
        values = end_to_end(bench)
        units = END_TO_END_UNITS
    n_solves = len(bench.attempts["local"])
    print(f"workload {args.workload} seed {args.seed}: {len(bench.texts)} instances, "
          f"{bench.passes} passes, {n_solves} solves per algorithm, "
          f"{len(bench.verify_s)} verifies")
    for (i, algo), why in sorted(bench.failed_cells.items()):
        print(f"failed: {bench.labels[i]} {algo}: {why}")
    for line in bench.wrong:
        print(f"WRONG: {line}")
    for name, value in values.items():
        print(f"{name:<48} {value:>14.6g} {units[name]}")
    print(json.dumps({"diagnostics": diagnostics(bench)}))
    result = {
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed_attempts(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

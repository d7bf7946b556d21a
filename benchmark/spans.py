"""Spans and counters recorded from outside the package.

The search loops import most helpers by name (`from .local_search import
choose_k`), so each function is wrapped in the module whose globals its
caller reads, and InTree.validate on the class.  A span records its name,
its duration and the time covered by its child spans, under the root the
benchmark opened around the call: a `local` or `augment` solve, or a
`verify`.  Calls made outside a root pass straight through.  Spans are
folded into per-(name, root) totals as they close, so memory stays flat.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


class Tracer:
    """Per-(span name, root) time and call totals, plus named counters."""

    def __init__(self) -> None:
        self.root: str | None = None
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.total: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        # wall seconds of spans closed since the last commit
        self._pending: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0])
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.psi_factor = Fraction(1, 8)

    def begin(self, root: str) -> None:
        self.root = root
        self._stack = [[0.0]]

    def end(self) -> None:
        self.root = None
        self._stack = []

    def commit(self, scale: float) -> None:
        """Add the spans closed since the last commit to the totals, their
        times multiplied by scale."""
        for key, (total, own) in self._pending.items():
            self.total[key] += total * scale
            self.self_time[key] += own * scale
        self._pending.clear()

    def wrap(self, name: str | None, fn, on_result=None, on_error=None):
        """fn recorded as span `name` (None: hooks only), with optional
        hooks on_result(args, kwargs, result) and on_error(exc)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.root is None:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(name, start, frame)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._close(name, start, frame)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _close(self, name: str | None, start: float, frame: list[float]) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        if name is None:
            return
        self._stack[-1][0] += elapsed
        key = (name, self.root)
        pending = self._pending[key]
        pending[0] += elapsed
        pending[1] += elapsed - frame[0]
        self.calls[key] += 1

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] += by


def install(tracer: Tracer):
    """Wrap the package's layer functions; returns the undo function."""
    from dmdst import augmenting, certificate, cli, config, graph, local_search, report, tree

    c = tracer.count
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, on_result=None, on_error=None):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            print(f"trace: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        saved.append((owner, attr, raw))
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = tracer.wrap(name, fn, on_result, on_error)
        setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def set_cfg(args, kwargs, cfg):
        tracer.psi_factor = Fraction(cfg.psi_factor)

    def psi_gate(args, kwargs, value):
        if value > tracer.psi_factor * (1 << args[2]):
            c("local_search.psi.rejected")

    def cert_result(args, kwargs, cert):
        if cert.bound > 1:
            c("certificate.bound_above_1")

    def cert_error(exc):
        if isinstance(exc, certificate.EmptyWitness):
            c("certificate.empty_witness")

    patch(config.Config, "for_graph", None, set_cfg)
    patch(graph, "parse_graph", "graph.parse_graph",
          lambda a, k, g: c("graph.edges_parsed", g.m))
    patch(tree.InTree, "validate", "tree.validate",
          lambda a, k, r: c("tree.validate.vertex_checks", a[0].g.n))
    patch(local_search, "run_local_search", "local_search.driver")
    patch(augmenting, "run_augmenting_search", "augmenting.driver")
    for mod in (local_search, augmenting):
        patch(mod, "build_initial_tree", "tree.build_initial_tree")
        patch(mod, "choose_k", f"{mod.__name__.split('.')[-1]}.choose_k")
    patch(local_search, "psi", "local_search.psi", psi_gate)
    patch(local_search, "find_improvement_path", "local_search.find_improvement_path",
          lambda a, k, p: c("local_search.paths_found", p is not None))
    patch(local_search, "apply_improvement_path", "local_search.apply_improvement_path",
          lambda a, k, r: c("local_search.applied"))
    patch(local_search, "extract_local_certificate", "certificate.extract",
          cert_result, cert_error)
    patch(augmenting, "eligible_starts", "augmenting.eligible_starts",
          lambda a, k, s: c("augmenting.starts_admitted", len(s)))
    patch(augmenting, "exit_set", "augmenting.exit_set",
          lambda a, k, e: c("augmenting.exits_found", len(e)))
    patch(augmenting, "extend_layer", "augmenting.extend_layer",
          lambda a, k, r: c("augmenting.endpoints_found", not isinstance(r, set)))
    patch(augmenting, "validate_augmenting_path", "augmenting.validate_augmenting_path")
    patch(augmenting, "apply_augmenting_path", "augmenting.apply_augmenting_path",
          lambda a, k, r: c("augmenting.applied"))
    patch(augmenting, "extract_augment_certificate", "certificate.extract",
          cert_result, cert_error)
    patch(certificate, "verify_blocking", "certificate.verify_blocking")
    # the verify path, dmdst.cli._verify_report, imports it by name
    patch(cli, "verify_blocking", "certificate.verify_blocking")
    # wall_time_ms is the one field whose length varies between runs
    patch(report.SolveReport, "to_json", "report.to_json",
          lambda a, k, s: c("report.json_bytes", len(s) - len(repr(a[0].wall_time_ms))))
    patch(report.SolveReport, "from_json", "report.from_json")

    def undo() -> None:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return undo

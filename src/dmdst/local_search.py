"""Improvement-path local search with a potential-function gate.

One round: pick the degree class k maximizing 2**k * |N_k|, scan children
of that class whose subtree carries little low-degree potential, and try
to reroute one of them out of its subtree along a path of low-degree
vertices.  Each applied reroute takes one child away from a degree-k
vertex while only letting path vertices gain a single child, so the
potential sum(2**deg(v)) drops by at least psi_factor-determined margin
every time.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .certificate import BlockingCertificate, EmptyWitness, extract_local_certificate
from .config import Config
from .graph import Digraph
from .report import SolveReport
from .tree import InTree, build_initial_tree


class StalePath(Exception):
    """A path failed revalidation against the current tree."""


@dataclass(frozen=True)
class ImprovementPath:
    """Simple path u..w: interior inside subtree(u), w the first vertex
    outside it, and every vertex except u of degree <= d-2."""

    d: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class AdjustDelta:
    """Per-vertex degree changes and potential drop of one adjustment."""

    k: int
    changed: dict[int, tuple[int, int]]
    phi_before: int | float
    phi_after: int | float

    @property
    def phi_drop(self) -> int | float:
        return self.phi_before - self.phi_after


def argmax_degree_class(counts: dict[int, int], base) -> int:
    """argmax over d of base**d * counts[d]; ties go to the larger d."""
    base = Fraction(base)
    best_d = -1
    best = Fraction(-1)
    for d in sorted(counts):
        if counts[d] <= 0:
            continue
        score = base ** d * counts[d]
        if score >= best:
            best = score
            best_d = d
    if best_d < 0:
        raise ValueError("empty degree histogram")
    return best_d


def choose_k(t: InTree, base) -> int:
    return argmax_degree_class(t.degree_counts(), base)


def psi(t: InTree, u: int, k: int, limit: Fraction | int | None = None) -> int:
    """Potential mass of subtree(u) restricted to degrees <= k-2.

    With a limit, returns the partial sum as soon as it exceeds the limit:
    every term is positive, so that sum and the full one are both above it.
    """
    cap = None if limit is None else math.floor(limit)
    total = 0
    for v in t.subtree_iter(u):
        d = t.deg(v)
        if d <= k - 2:
            total += 1 << d
            if cap is not None and total > cap:
                return total
    return total


def find_improvement_path(
    t: InTree, g: Digraph, u: int, d: int
) -> ImprovementPath | None:
    """Min-hop path from u exiting subtree(u) through degree <= d-2 vertices.

    BFS over graph edges: interior vertices are restricted to subtree(u)
    with degree <= d-2, and the search stops at the first vertex found
    outside the subtree with degree <= d-2.  Returns None when no such
    path exists.
    """
    if d < 2:
        return None
    inside = t.subtree(u)
    pred: dict[int, int] = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.out_edges[x]:
            if y in pred:
                continue
            if y not in inside:
                if t.deg(y) <= d - 2:
                    path = [y]
                    cur = x
                    while cur != u:
                        path.append(cur)
                        cur = pred[cur]
                    path.append(u)
                    path.reverse()
                    return ImprovementPath(d, tuple(path))
                continue
            if t.deg(y) <= d - 2:
                pred[y] = x
                queue.append(y)
    return None


def _revalidate_improvement(t: InTree, p: ImprovementPath) -> None:
    vs = p.vertices
    if len(vs) < 2 or len(set(vs)) != len(vs):
        raise StalePath(f"not a simple path: {vs}")
    u, w = vs[0], vs[-1]
    pu = t.parent[u]
    if pu is None or t.deg(pu) != p.d:
        raise StalePath(f"deg(parent({u})) is no longer {p.d}")
    inside = t.subtree(u)
    for a, b in zip(vs, vs[1:]):
        if not t.g.has_edge(a, b):
            raise StalePath(f"({a}, {b}) is not a graph edge")
    for v in vs[1:]:
        if t.deg(v) > p.d - 2:
            raise StalePath(f"vertex {v} has degree {t.deg(v)} > {p.d - 2}")
    for v in vs[:-1]:
        if v not in inside:
            raise StalePath(f"interior vertex {v} left subtree({u})")
    if w in inside:
        raise StalePath(f"endpoint {w} is inside subtree({u})")


def apply_improvement_path(t: InTree, p: ImprovementPath) -> AdjustDelta:
    """Reroute every path vertex but the last onto its path successor.

    Only the path vertices and the old parents of the rerouted ones change
    degree, so the audit covers exactly those: the tree invariants hold
    there (InTree.validate_changed), the old parent of u has lost exactly
    one child, and no path vertex other than u has gained more than one.
    """
    _revalidate_improvement(t, p)
    vs = p.vertices
    u = vs[0]
    old_parent = t.parent[u]
    assert old_parent is not None
    rerouted = vs[:-1]
    old_parents = [t.parent[a] for a in rerouted]
    touched = sorted(set(vs).union(old_parents))
    before = {v: t.deg(v) for v in touched}
    phi_before = t.potential(2)
    for a, b in zip(vs, vs[1:]):
        t.cut_and_append(a, b)
    bad = t.validate_changed(rerouted, old_parents)
    assert not bad, f"tree invalid after improvement: {bad[:3]}"
    phi_after = t.potential(2)
    changed = {v: (before[v], t.deg(v)) for v in touched if t.deg(v) != before[v]}
    assert t.deg(old_parent) == before[old_parent] - 1, "old parent must drop by 1"
    on_path = set(vs)
    for v, (old, new) in changed.items():
        if v in on_path and v != u:
            assert new <= old + 1, f"path vertex {v} gained more than one child"
    assert phi_after < phi_before, "potential must strictly decrease"
    return AdjustDelta(p.d, changed, phi_before, phi_after)


def run_local_search(
    g: Digraph, cfg: Config | None = None, trace: bool = False
) -> SolveReport:
    """Run the gated improvement loop to exhaustion and certify the stall.

    Every applied improvement is checked to drop the base-2 potential by
    at least psi_factor * 2**k.  When no gated candidate can be improved
    the stalled degree class yields a blocking certificate (when its
    witness set is nonempty), which is independently verified before the
    report is assembled.
    """
    cfg = cfg or Config.for_graph(g)
    start = time.perf_counter()
    t = build_initial_tree(g)
    delta_initial = t.max_deg
    phi_initial = t.potential(2)
    # Each gated improvement multiplies phi by at most 1 - 1/(8 n^2).
    app_ceiling = 8.0 * g.n * g.n * math.log(phi_initial) + 1.0
    psi_gate = Fraction(cfg.psi_factor)
    applications = 0
    rows: list[dict] = [] if trace else None  # type: ignore[assignment]
    certificate: BlockingCertificate | None = None
    exit_reason = "threshold"
    if cfg.profile == "paper" and 34.0 * math.log2(max(g.n, 2)) >= g.n:
        # The loop guard is vacuous here: delta <= n-1 < 34*log2(n).
        assert t.max_deg <= cfg.stop_threshold_local or g.n == 1
    while t.max_deg > cfg.stop_threshold_local:
        k = choose_k(t, 2)
        n_k = len(t.members(k))
        gate = psi_gate * (1 << k)
        improved = False
        candidates = sorted(
            c for parent in t.members(k) for c in t.children[parent]
        )
        for u in candidates:
            psi_u = psi(t, u, k, gate)
            if psi_u > gate:
                continue
            path = find_improvement_path(t, g, u, k)
            if path is None:
                continue
            delta = apply_improvement_path(t, path)
            applications += 1
            # Accounting: the degree-k parent loses 2**(k-1) of potential,
            # the exit vertex gains at most 2**(k-2), subtree gains at most
            # psi_u.  With the default 1/8 gate this is the 2**(k-3) law.
            drop = Fraction(delta.phi_drop)
            assert drop >= (1 << k) // 4 - psi_u, (
                f"potential drop {delta.phi_drop} below accounting floor at k={k}"
            )
            if cfg.psi_factor <= 0.125:
                assert drop >= gate, (
                    f"potential drop {delta.phi_drop} below {gate} at k={k}"
                )
            assert applications <= app_ceiling, "improvement count exceeded ceiling"
            if rows is not None:
                rows.append(
                    {
                        "iteration": applications,
                        "k": k,
                        "n_k": n_k,
                        "phi": delta.phi_before,
                        "drop": delta.phi_drop,
                    }
                )
            improved = True
            break
        if not improved:
            exit_reason = "stalled"
            try:
                certificate = extract_local_certificate(t, g, k)
            except EmptyWitness:
                certificate = None
            break
    wall_ms = (time.perf_counter() - start) * 1000.0
    proved = cfg.profile == "paper" and (
        exit_reason == "threshold" or certificate is not None
    )
    return SolveReport(
        algorithm="local",
        profile=cfg.profile,
        n=g.n,
        m=g.m,
        delta_initial=delta_initial,
        delta_final=t.max_deg,
        lower_bound=certificate.bound if certificate else None,
        certificate=certificate,
        iterations=applications,
        potential_trace=rows,
        layers_trace=None,
        parent=t.parents_signed(),
        wall_time_ms=wall_ms,
        config=cfg.to_dict(),
        guarantee="proved" if proved else "heuristic",
        exit_reason=exit_reason,
    )

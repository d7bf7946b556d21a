"""Improvement-path local search with a potential-function gate.

One round: pick the degree class k maximizing 2**k * |N_k|, scan children
of that class whose subtree carries little low-degree potential, and try
to reroute one of them out of its subtree along a path of low-degree
vertices.  Each applied reroute takes one child away from a degree-k
vertex while only letting path vertices gain a single child, so the
potential sum(2**deg(v)) drops by at least psi_factor * 2**k = 2**(k-3)
every time.

A round pays only for the candidates that can move.  Every path vertex
after the start has degree <= k-2, so a candidate with no out-neighbour of
degree <= k-2 has no path, whatever its gate value: a scan of its
out-edges (the first-hop test) skips it before any subtree walk.  The
skip is exact and the scan stays in ascending order, so each round picks
the same candidate and path as without it.  For a candidate that passes,
one walk of its subtree computes its gate value (psi) and collects the
vertex set that its path search (find_improvement_path) then reuses.  A
class below 2 stalls at once, since no path vertex can have degree <= k-2
there, and so does class 2, whose gate 1/2 no subtree passes: each holds
a leaf, worth 2**0 = 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certificate import extract_local_certificate
from .config import Config
from .graph import Digraph
from .report import SolveReport
from .search import Stall, search
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
    phi_before: int
    phi_after: int

    @property
    def phi_drop(self) -> int:
        return self.phi_before - self.phi_after

    def gain(self, v: int) -> int:
        """Children v gained in the adjustment (negative if it lost some)."""
        old, new = self.changed.get(v, (0, 0))
        return new - old


def rewrite_and_audit(
    t: InTree, k: int, segments: Sequence[Sequence[int]], base: int
) -> AdjustDelta:
    """Reroute every segment vertex but the last onto its successor,
    segment by segment, and audit the tree where the rewrite wrote.

    Only the segment vertices and the old parents of the rerouted ones
    change degree, so the audit covers exactly those: the tree invariants
    hold there (InTree.validate_changed).  The returned delta records their
    degree changes and the base-`base` potential before and after; each
    solver asserts its own contract on it.
    """
    rerouted = [a for seg in segments for a in seg[:-1]]
    old_parents = [t.parent[a] for a in rerouted]
    touched = sorted({v for seg in segments for v in seg}.union(old_parents))
    before = [t.deg(v) for v in touched]
    phi_before = t.potential(base)
    for seg in segments:
        for a, b in zip(seg, seg[1:]):
            t.cut_and_append(a, b)
    bad = t.validate_changed(rerouted, old_parents)
    assert not bad, f"tree invalid after adjustment: {bad[:3]}"
    changed = {v: (d, t.deg(v)) for v, d in zip(touched, before) if t.deg(v) != d}
    return AdjustDelta(k, changed, phi_before, t.potential(base))


def argmax_degree_class(counts: dict[int, int], base: int | Fraction) -> int:
    """argmax over d of base**d * counts[d]; ties go to the larger d.
    Exact: an integral base stays an int (cheaper powers), others are Fractions."""
    if not isinstance(base, int):
        base = Fraction(base)
        if base.denominator == 1:
            base = base.numerator
    best_d = -1
    best = -1
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


def choose_k(t: InTree, base: int | Fraction) -> int:
    return argmax_degree_class(t.degree_counts(), base)


def psi(t: InTree, u: int, k: int, limit: int, inside: set[int]) -> int:
    """Potential mass of subtree(u) restricted to degrees <= k-2.

    Returns the partial sum as soon as it exceeds limit: every term is
    positive, so that sum and the full one are both above it.  The walk
    adds every vertex it reaches to inside, so a sum within the limit
    leaves inside equal to subtree(u)'s vertex set, ready for
    find_improvement_path.
    """
    children = t.children
    total = 0
    stack = [u]
    while stack:
        v = stack.pop()
        inside.add(v)
        kids = children[v]
        stack.extend(kids)
        d = len(kids)
        if d <= k - 2:
            total += 1 << d
            if total > limit:
                return total
    return total


def find_improvement_path(
    t: InTree, g: Digraph, u: int, d: int, inside: set[int]
) -> ImprovementPath | None:
    """Min-hop path from u exiting subtree(u) through degree <= d-2 vertices.

    inside is subtree(u)'s vertex set (psi fills it).  BFS over graph
    edges: interior vertices are restricted to the subtree with degree
    <= d-2, and the search stops at the first vertex found outside it with
    degree <= d-2.  Returns None when no such path exists, always so when
    d < 2.
    """
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

    After the audited rewrite (rewrite_and_audit), the old parent of u has
    lost exactly one child, no path vertex other than u has gained more
    than one, and the base-2 potential has dropped.
    """
    _revalidate_improvement(t, p)
    vs = p.vertices
    old_parent = t.parent[vs[0]]
    assert old_parent is not None
    delta = rewrite_and_audit(t, p.d, [vs], 2)
    assert delta.gain(old_parent) == -1, "old parent must drop by 1"
    for v in vs[1:]:
        assert delta.gain(v) <= 1, f"path vertex {v} gained more than one child"
    assert delta.phi_after < delta.phi_before, "potential must strictly decrease"
    return delta


def run_local_search(
    g: Digraph, cfg: Config | None = None, trace: bool = False
) -> SolveReport:
    """Run the gated improvement loop to exhaustion and certify the stall.

    Every applied improvement is checked to drop the base-2 potential by
    at least psi_factor * 2**k and by at least phi/(8 n^2), so there are at
    most 8 n^2 ln(phi_0) of them.  When no gated candidate can be improved,
    the round stalls and the shared driver certifies its degree class.
    """
    cfg = cfg or Config.for_graph(g)
    phi_floor = 8 * g.n * g.n
    applications = 0

    def attempt(t: InTree, k: int) -> dict | Stall:
        nonlocal applications
        if k <= 2:
            # k < 2: no path vertex can have degree <= k-2 < 0.  k = 2: the
            # gate is 1/2, and every subtree holds a leaf, whose psi term is
            # 2**0 = 1.  Either way nothing applies.
            return Stall(k)
        members = t.members(k)
        # psi is an int, so psi > gate iff psi > floor(gate); for k >= 3
        # the gate 2**k / 8 is an int anyway.
        factor = cfg.psi_factor
        gate = (1 << k) * factor.numerator // factor.denominator
        children, out_edges, low = t.children, g.out_edges, k - 2
        candidates = sorted(c for parent in members for c in children[parent])
        for u in candidates:
            # First hop: every path vertex after u has degree <= k-2, so a
            # u with no such out-neighbour has no path, whatever its psi.
            for y in out_edges[u]:
                if len(children[y]) <= low:
                    break
            else:
                continue
            inside: set[int] = set()
            psi_u = psi(t, u, k, gate, inside)
            if psi_u > gate:
                continue
            path = find_improvement_path(t, g, u, k, inside)
            if path is None:
                continue
            delta = apply_improvement_path(t, path)
            applications += 1
            # Accounting: the degree-k parent loses 2**(k-1) of potential,
            # the exit vertex gains at most 2**(k-2), subtree gains at most
            # psi_u.  With the 1/8 gate this is the 2**(k-3) law, and k is
            # the argmax class, so 2**k >= phi / n**2.
            drop = delta.phi_drop
            assert drop >= (1 << k) // 4 - psi_u, (
                f"potential drop {drop} below accounting floor at k={k}"
            )
            assert drop >= gate, f"potential drop {drop} below {gate} at k={k}"
            assert drop * phi_floor >= delta.phi_before, (
                f"potential drop {drop} below phi/(8 n^2) at k={k}"
            )
            return {"iteration": applications, "k": k, "n_k": len(members),
                    "phi": delta.phi_before, "drop": drop}
        return Stall(k)

    return search(
        g, cfg, "local", attempt, build=build_initial_tree, choose_k=choose_k,
        base=2, threshold=cfg.stop_threshold_local,
        extract=extract_local_certificate, trace=trace,
    )

"""Improvement-path local search with a potential-function gate.

One round: pick the degree class k maximizing 2**k * |N_k|, scan children
of that class whose subtree carries little low-degree potential, and try
to reroute one of them out of its subtree along a path of low-degree
vertices.  Each applied reroute takes one child away from a degree-k
vertex while only letting path vertices gain a single child, so the
potential sum(2**deg(v)) drops by at least psi_factor * 2**k = 2**(k-3)
every time.

A round pays only for the candidates that can move: two tests skip the
rest before any subtree walk.  The degree screen, O(1), reads the
candidate's own degree d: each of its d child subtrees holds a leaf,
worth 2**0 = 1 to psi, and a candidate of degree <= k-2 adds 2**d itself,
so psi >= 2**d + d (or >= d above k-2), and a candidate whose bound
already exceeds the gate is skipped.  The first-hop test scans its
out-edges: every path vertex after the start has degree <= k-2, so a
candidate with no such out-neighbour has no path, whatever its gate value.
Both skips are exact and the scan stays in ascending order, so each round
picks the same candidate and path as without them.  Nor does a round
re-sort N_k's children or re-screen what cannot pass: while k stays the
argmax class, the sorted list is kept, and the scan resumes where the
last round's first screened-in candidate stood (run_local_search says
when that point moves back).  For a candidate that passes, one walk of
its subtree computes its gate value (psi) and collects the vertex set
that its path search (find_improvement_path) then reuses.  That search
reads its path off the shared exit search (search.exit_set), and the
adjustment is the shared audited rewrite (search.rewrite_and_audit);
this module holds only local search's rules: the psi gate, the kept scan
and the improvement path.  A leaf candidate makes neither call: its
subtree is itself, its psi 2**0 = 1, and exit_set from it stops at its
first out-neighbour of degree <= k-2, the one the first-hop test found,
so its path is that one hop.  A class below 2 stalls at once, since no
path vertex can have degree <= k-2 there, and so does class 2, whose
gate 1/2 no subtree passes: each holds a leaf, worth 2**0 = 1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice
from typing import Sequence

from .config import Config
from .graph import Digraph
from .report import SolveReport
from .search import (AdjustDelta, StalePath, Stall, choose_k, exit_path, exit_set, power_table,
                     rewrite_and_audit, search)
from .tree import InTree, build_initial_tree


@dataclass(frozen=True)
class ImprovementPath:
    """Simple path u..w: interior inside subtree(u), w the first vertex
    outside it, and every vertex except u of degree <= d-2."""

    d: int
    vertices: tuple[int, ...]


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

    inside is subtree(u)'s vertex set (psi fills it).  The path, the one
    exit_path builds, is to the low exit that exit_set(t, g, u, d, inside)
    stops at; None when it stops at none, always so when d < 2.
    """
    exits = exit_set(t, g, u, d, inside)
    if exits:
        w = next(reversed(exits))
        if len(t.children[w]) <= d - 2:
            return ImprovementPath(d, exit_path(exits[w], w))
    return None


def _revalidate_improvement(t: InTree, p: ImprovementPath) -> set[int]:
    """Raise StalePath unless p is still an improvement path; return the
    fresh subtree(u) it was checked against, the audit's region."""
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
    return inside


def apply_improvement_path(
    t: InTree, p: ImprovementPath, powers: Sequence[int]
) -> AdjustDelta:
    """Reroute every path vertex but the last onto its path successor.

    After the audited rewrite (rewrite_and_audit), the old parent of u has
    lost exactly one child, no path vertex other than u has gained more
    than one, and the base-2 potential, read from powers (2**d for every
    degree d the tree can reach), has dropped.
    """
    region = _revalidate_improvement(t, p)
    vs = p.vertices
    old_parent = t.parent[vs[0]]
    assert old_parent is not None
    delta = rewrite_and_audit(t, p.d, [vs], powers, region)
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
    the round stalls, and the shared driver certifies it with the degree
    >= k-1 layer as its blocking set.

    The scan list (the ascending children of N_k) is built when k changes
    and otherwise carried over, with the round's resume point.  While k
    holds, a vertex that left N_k, or a rerouted child, never comes back
    under a degree-k parent, so an entry whose parent no longer has degree
    k is stale and skipped.  The next scan resumes at the first entry this
    round let past the stale, degree and first-hop screens: every entry
    before it fails one of them, and only a degree change can turn such a
    failure into a pass.  So the resume point moves back to any entry whose
    own degree changed.  Two changes drop the kept list instead, and the
    next round sorts it afresh: a vertex entering N_k (from above, since
    path vertices end at degree <= k-1), whose children the list lacks,
    and a vertex dropping from >= k-1 to <= k-2, which may give an earlier
    entry its first hop.  Neither happens on the benchmark's seed-1 or
    seed-2 pools.  Each round thus scans what a fresh ascending scan would
    try, in the same order.
    """
    cfg = cfg or Config.for_graph(g)
    phi_floor = 8 * g.n * g.n
    applications = 0
    powers: list[int] = []
    kept_k = -1
    scan: list[int] = []
    resume = 0

    def attempt(t: InTree, k: int) -> dict | Stall:
        nonlocal applications, powers, kept_k, scan, resume
        if not powers:
            powers = power_table(2, t.max_deg)
        if k <= 2:
            # k < 2: no path vertex can have degree <= k-2 < 0.  k = 2: the
            # gate is 1/2, and every subtree holds a leaf, whose psi term is
            # 2**0 = 1.  Either way nothing applies.
            return Stall(t.vertices_with_deg_at_least(k - 1))
        members = t.members(k)
        # psi is an int, so psi > gate iff psi > floor(gate); for k >= 3
        # the gate 2**k / 8 is an int anyway.
        factor = cfg.psi_factor
        gate = (1 << k) * factor.numerator // factor.denominator
        children, parent, out_edges, low = t.children, t.parent, g.out_edges, k - 2
        if k != kept_k:
            kept_k = k
            scan = sorted(chain.from_iterable(map(children.__getitem__, members)))
            resume = 0
        first = -1
        for j, u in enumerate(islice(scan, resume, None), resume):
            if len(children[parent[u]]) != k:
                continue  # stale: its parent left N_k, or it was rerouted
            # Degree screen: each of u's d child subtrees holds a leaf (psi
            # term 1), and u adds 2**d when d <= k-2, so psi is at least
            # this bound.
            d = len(children[u])
            if ((1 << d) + d if d <= low else d) > gate:
                continue
            # First hop: every path vertex after u has degree <= k-2, so a
            # u with no such out-neighbour has no path, whatever its psi.
            for y in out_edges[u]:
                if len(children[y]) <= low:
                    break
            else:
                continue
            if first < 0:
                first = j
            if d:
                inside: set[int] = set()
                psi_u = psi(t, u, k, gate, inside)
                if psi_u > gate:
                    continue
                path = find_improvement_path(t, g, u, k, inside)
                if path is None:
                    continue
            else:
                # A leaf's subtree is {u}: psi is 2**0 = 1, the degree
                # screen's bound that just passed the gate, and exit_set's
                # BFS from u stops at its first low out-neighbour, the first
                # hop y just found.
                psi_u = 1
                path = ImprovementPath(k, (u, y))
            delta = apply_improvement_path(t, path, powers)
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
            # Only a changed degree can let an entry before first pass its
            # screens next round: its own, or an out-neighbour's dropping
            # to <= k-2 (which has no reverse edges to find them by).  That
            # drop, or a vertex entering N_k, sends the next round to a
            # fresh sort.
            resume = first
            for v, (old, new) in delta.changed.items():
                if new == k or old > low >= new:
                    kept_k = -1
                i = bisect_left(scan, v)
                if i < resume and scan[i] == v:
                    resume = i
            return {"iteration": applications, "k": k, "n_k": len(members),
                    "phi": delta.phi_before, "drop": drop}
        return Stall(t.vertices_with_deg_at_least(k - 1))

    return search(
        g, cfg, "local", attempt, build=build_initial_tree, choose_k=choose_k,
        base=2, stop_power=cfg.stop_power_local, trace=trace,
    )

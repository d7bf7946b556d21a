"""Layered augmenting-path search.

Where the plain improvement search gives up as soon as every escape from a
candidate subtree runs into a degree k-1 vertex, this search keeps going:
those blocking vertices become the next level, their children become new
candidate start vertices, and a chain of per-level path segments is
stitched into one multi-segment adjustment that still removes a child from
the degree-k class.  Candidate subtrees are admitted only while their
potential fits under a geometrically shrinking budget, which caps the
total potential the adjustment can add back.  Each level is one scan
(extend_layer): one walk per candidate subtree, the scan's only cleanliness
check, admits it and collects the vertex set its exit search then uses.
The exit search is the shared exit_set (dmdst.search), the one BFS out
of a subtree to its first low exit; a path is built only for the
endpoint and for the blockers on the chain back from it, and the
adjustment is the shared audited rewrite (search.rewrite_and_audit).  A
leaf candidate, most of them on a stalling round, takes neither: its
subtree is itself, so the walk's verdict is k > 2 and c**0 within
budget, and its exits are its out-list up to the first low one, each one
hop away, exactly what exit_set returns for it.

Levels must grow by a (1+epsilon) factor each round; when they stop
growing, the accumulated levels, with the degree >= k+1 layer, are the
blocking set the stall's certificate is drawn from.
epsilon is Config.epsilon, an exact Fraction p/q, so the growth test
(grown * q < (p + q) * previous) and the paper profile's level-size floor
are integer comparisons; potentials (base c = Config.base_c, an int) and
budgets (the exact floor of each rational budget) are ints too.  Both are
read from per-solve tables: the powers c**d that subtree potentials sum
come from the driver (power_table, up to the start tree's Delta), and
each (level, class) budget is computed when a round first reaches it
(level_budget), into that class's row.

Level 1 scans the children of N_k.  The driver keeps that list sorted
across rounds for as long as the argmax class stays k: an applied path
changes children and degrees only at the vertices it touches, so only
their children can move in or out of the list.

Almost every applied path is one hop (u, y), found at level 1: a single
segment of two vertices.  validate_augmenting_path sends such a path to
a one-hop body (_validate_one_hop), which runs only the checks that can
fail on one hop, in the general body's order and with its messages, and
every other path to the general body (_validate_general).  Both raise
StalePath, as local search's revalidation does.  apply_augmenting_path is
one body: the audited rewrite asserts the contract both solvers share
(the first start's parent loses one child, the potential drops), and the
path's own checks follow, those on middle endpoints and interiors only
for a path longer than one hop.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Sequence

from .config import Config
from .graph import Digraph
from .report import SolveReport
from .search import (AdjustDelta, StalePath, Stall, choose_k, exit_path, exit_set,
                     rewrite_and_audit, search)
from .tree import InTree, build_initial_tree


@dataclass(frozen=True)
class AugmentingPath:
    """Segments u_i .. v_i chaining blocked escapes down to a low exit.

    Invariants (checked by validate_augmenting_path): consecutive segments
    chain through parents (v_i is the parent of u_{i+1}); all start
    vertices are pairwise unrelated and all segment endpoints distinct;
    the first start hangs under a degree-k vertex, middle endpoints have
    degree exactly k-1, the final endpoint at most k-1; no start subtree
    contains a vertex of degree >= k-2; each segment leaves its start
    subtree exactly at its endpoint.
    """

    k: int
    segments: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FoundEndpoint:
    level: int
    u: int
    exit: int
    path: tuple[int, ...]


@dataclass
class LayeredState:
    """One round's levels at class k.  powers[d] is c**d (power_table) for
    every degree d below k-2, and budgets is the solve's row of class k's
    level budgets (level_budget).  seen is the union of every blocker
    level found so far; extend_layer keeps it current.  level1 is the
    ascending list of levels_V[0]'s children that level 1 scans, kept by
    the driver across rounds.  pred maps each blocker found to the start
    that discovered it and exit_set's trail to it, from which
    reconstruct_path builds a segment (exit_path) only on the chain it
    follows."""

    k: int
    levels_V: list[set[int]]
    powers: list[int]
    level1: list[int]
    budgets: list[int]
    levels_U: list[set[int]] = field(default_factory=list)
    pred: dict[int, tuple[int, tuple]] = field(default_factory=dict)
    seen: set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.seen = set().union(*self.levels_V)


def potential_budget(cfg: Config, i: int, k: int) -> int:
    """Admission budget for a level-i start subtree: shrinks by 1/(1+eps).

    The exact floor of 9/10 * eps / (1+eps)**i * c**(k-1), with eps = p/q =
    cfg.epsilon, from one integer division.  Potentials are ints, so a
    potential exceeds the floor exactly when it exceeds the rational budget.
    """
    p, q = cfg.epsilon.numerator, cfg.epsilon.denominator
    return 9 * p * q ** i * cfg.base_c ** (k - 1) // (10 * q * (p + q) ** i)


def level_budget(cfg: Config, k: int, row: list[int], i: int) -> int:
    """potential_budget(cfg, i, k), read from row, the solve's budgets of
    class k by level (level i at row[i-1]); the levels up to i not yet in
    row are computed and appended first."""
    while len(row) < i:
        row.append(potential_budget(cfg, len(row) + 1, k))
    return row[i - 1]


def extend_layer(
    t: InTree, g: Digraph, st: LayeredState, i: int, cfg: Config
) -> FoundEndpoint | set[int]:
    """Scan level i: either find a terminal exit or assemble V_i.

    The children of V_{i-1} are scanned in ascending id (at level 1, st's
    kept list).  One walk of each child's subtree decides
    whether it joins U_i as a start: clean (no vertex of degree >= k-2, so
    segment interiors are low-degree) and cheap (potential within the
    level's integer budget).  The walk stops at the first vertex that
    breaks either rule (_clean_subtree).  Admitted starts are thus
    unrelated: each hangs under a vertex of degree >= k-1, which no walk
    admits.  A start's exits are explored once it is admitted
    (exit_set): the first exit of degree <= k-2 ends the search.
    Otherwise exits of degree exactly k-1 never seen before join V_i,
    remembering which start discovered them and the trail to them (first
    discoverer wins); only the endpoint gets its path (exit_path) here.

    A leaf u skips the walk and exit_set, with their exact outcome: its
    subtree is {u}, clean iff 0 < k-2 and within budget iff powers[0] is,
    and its exits are its out-list, each by the trail (u, None), as
    exit_set's leaf rule says; the same loop files them.
    """
    k = st.k
    low = k - 2
    budget = level_budget(cfg, k, st.budgets, i)
    powers = st.powers
    # the leaf rule's admission: the walk's verdict on a subtree {u}
    leaf_admitted = low > 0 and powers[0] <= budget
    children = t.children
    out_edges = g.out_edges
    seen, pred, level0 = st.seen, st.pred, st.levels_V[0]
    admitted: set[int] = set()
    st.levels_U.append(admitted)
    v_new: set[int] = set()
    if i == 1:
        scan = st.level1
    else:
        scan = sorted(chain.from_iterable(map(children.__getitem__, st.levels_V[i - 1])))
    for u in scan:
        kids = children[u]
        if not kids:
            if not leaf_admitted:
                continue
            # exit_set's exits, read off the out-list: the filing loop
            # stops at the first low one
            exits = zip(out_edges[u], repeat((u, None)))
        elif len(kids) >= low:
            continue  # the walk's first step would reject u
        else:
            inside = _clean_subtree(children, powers, u, k, budget)
            if inside is None:
                continue
            exits = exit_set(t, g, u, k, inside).items()
        admitted.add(u)
        for x, trail in exits:
            d = len(children[x])
            if d <= low:
                return FoundEndpoint(i, u, x, exit_path(trail, x))
            if d == k - 1 and x not in seen:
                seen.add(x)
                v_new.add(x)
                pred[x] = (u, trail)
            elif d == k:
                # Degree-k exits are level 0 by definition; higher ones
                # sit in S_{k+1}.  Both land on the certificate's
                # blocking side.
                assert x in level0
    return v_new


def _clean_subtree(
    children: list[list[int]], powers: Sequence[int], u: int, k: int, budget: int
) -> set[int] | None:
    """subtree(u)'s vertex set when no vertex in it has degree >= k-2 and
    its potential, the sum of powers[deg(v)], is within budget; else None.

    The walk stops at the first vertex that breaks either rule: terms are
    positive, so a partial sum over the budget means the full one is over
    it too."""
    inside: set[int] = set()
    total = 0
    stack = [u]
    while stack:
        v = stack.pop()
        kids = children[v]
        if len(kids) >= k - 2:
            return None
        total += powers[len(kids)]
        if total > budget:
            return None
        inside.add(v)
        stack.extend(kids)
    return inside


def reconstruct_path(st: LayeredState, endpoint: FoundEndpoint, t: InTree) -> AugmentingPath:
    """Walk discovery links from the endpoint's level back to level 0,
    building each segment on the way from its blocker's trail."""
    segments = [endpoint.path]
    u = endpoint.u
    for _ in range(endpoint.level - 1):
        v = t.parent[u]
        assert v is not None and v in st.pred, "broken discovery chain"
        u, trail = st.pred[v]
        segments.append(exit_path(trail, v))
    segments.reverse()
    return AugmentingPath(st.k, tuple(segments))


def validate_augmenting_path(
    t: InTree, g: Digraph, p: AugmentingPath, cfg: Config, powers: Sequence[int],
    budgets: list[int],
) -> set[int]:
    """Check every definitional invariant; raise StalePath on any break.
    powers is power_table's c**d for every degree d below k-2, budgets the
    solve's row of class k's level budgets (level_budget).  Returns the
    union of the start subtrees, walked fresh here: every rerouted vertex's
    subtree lies in it, so it is the apply's audit region.

    A one-hop path, one segment (u, y) of two vertices, takes
    _validate_one_hop: u != y, (u, y) a graph edge, u's parent of degree
    k, deg(y) <= k-1, subtree(u) walked fresh, clean and within the level-1
    budget, and y outside it, in that order.  The chain, unrelatedness,
    shared-vertex, occurrence and interior checks have nothing to check on
    one hop.  Every other path takes _validate_general, which runs them
    all."""
    segs = p.segments
    if len(segs) == 1 and len(segs[0]) == 2:
        return _validate_one_hop(t, g, p, cfg, powers, budgets)
    return _validate_general(t, g, p, cfg, powers, budgets)


def _validate_one_hop(
    t: InTree, g: Digraph, p: AugmentingPath, cfg: Config, powers: Sequence[int],
    budgets: list[int],
) -> set[int]:
    """_validate_general on a path of one segment (u, y): the same checks
    that can fail on it, in the same order, with the same messages."""
    k = p.k
    seg = p.segments[0]
    u, y = seg
    if u == y:
        raise StalePath(f"segment not a simple path: {seg}")
    if not g.has_edge(u, y):
        raise StalePath(f"({u}, {y}) is not a graph edge")
    sub = t.subtree(u)
    children = t.children
    p1 = t.parent[u]
    if p1 is None or len(children[p1]) != k:
        raise StalePath(f"first start's parent must have degree {k}")
    if len(children[y]) > k - 1:
        raise StalePath(f"final endpoint {y} above degree {k - 1}")
    degrees = list(map(len, map(children.__getitem__, sub)))
    if max(degrees) >= k - 2:
        raise StalePath(f"subtree of {u} contains a degree >= {k - 2} vertex")
    if sum(map(powers.__getitem__, degrees)) > level_budget(cfg, k, budgets, 1):
        raise StalePath(f"subtree of {u} over its potential budget")
    if y in sub:
        raise StalePath(f"endpoint {y} inside subtree of {u}")
    return sub


def _validate_general(
    t: InTree, g: Digraph, p: AugmentingPath, cfg: Config, powers: Sequence[int],
    budgets: list[int],
) -> set[int]:
    """validate_augmenting_path on any path: every check, segment by
    segment."""
    k = p.k
    segs = p.segments
    if not segs:
        raise StalePath("no segments")
    starts = [s[0] for s in segs]
    ends = [s[-1] for s in segs]
    l = len(segs)
    for s in segs:
        if len(s) < 2 or len(set(s)) != len(s):
            raise StalePath(f"segment not a simple path: {s}")
        for a, b in zip(s, s[1:]):
            if not g.has_edge(a, b):
                raise StalePath(f"({a}, {b}) is not a graph edge")
    # Segments are vertex-disjoint except that the final endpoint may also
    # appear once inside an earlier subtree (it is then low-degree there).
    # Each segment is simple, so only different segments are compared.
    final = ends[-1]
    used: set[int] = set()
    for s in segs:
        shared = used.intersection(s) - {final}
        if shared:
            raise StalePath(f"vertex {min(shared)} appears twice in segments")
        used.update(s)
    occurrences = sum(final in s for s in segs)
    if occurrences > 2:
        raise StalePath(f"final endpoint {final} appears {occurrences} times")
    # (i) consecutive segments chain through tree parents
    for i in range(l - 1):
        if t.parent[starts[i + 1]] != ends[i]:
            raise StalePath(
                f"segment {i + 1} start {starts[i + 1]} does not hang under {ends[i]}"
            )
    # (ii) starts pairwise unrelated, endpoints distinct: two starts are
    # related when one's subtree holds the other
    subtrees = list(map(t.subtree, starts))
    for i in range(l):
        for j in range(i + 1, l):
            if starts[j] in subtrees[i] or starts[i] in subtrees[j]:
                raise StalePath(f"starts {starts[i]}, {starts[j]} related")
    if len(set(ends)) != l:
        raise StalePath(f"duplicate endpoints: {ends}")
    # (iii) degree pattern along the chain
    p1 = t.parent[starts[0]]
    if p1 is None or t.deg(p1) != k:
        raise StalePath(f"first start's parent must have degree {k}")
    for i in range(l - 1):
        if t.deg(ends[i]) != k - 1:
            raise StalePath(f"middle endpoint {ends[i]} must have degree {k - 1}")
    if t.deg(ends[-1]) > k - 1:
        raise StalePath(f"final endpoint {ends[-1]} above degree {k - 1}")
    # (iv) clean start subtrees + potential efficiency per level
    children = t.children
    for i, (u, sub) in enumerate(zip(starts, subtrees), start=1):
        degrees = list(map(len, map(children.__getitem__, sub)))
        if max(degrees) >= k - 2:
            raise StalePath(f"subtree of {u} contains a degree >= {k - 2} vertex")
        if sum(map(powers.__getitem__, degrees)) > level_budget(cfg, k, budgets, i):
            raise StalePath(f"subtree of {u} over its potential budget")
    # (v) interiors stay inside their subtree, endpoint is the first outside
    for s, sub in zip(segs, subtrees):
        for v in s[:-1]:
            if v not in sub:
                raise StalePath(f"interior {v} outside subtree of {s[0]}")
        if s[-1] in sub:
            raise StalePath(f"endpoint {s[-1]} inside subtree of {s[0]}")
    return set().union(*subtrees)


def apply_augmenting_path(
    t: InTree, p: AugmentingPath, powers: Sequence[int], region: set[int]
) -> AdjustDelta:
    """Run the cut-and-append rewrite segment by segment and audit it.

    region is what validate_augmenting_path returned for p on this tree;
    the audit's parent walks stop where they leave it.  Raises StalePath
    unless the final endpoint has degree <= k-2.  The audited rewrite
    (rewrite_and_audit) asserts the contract both solvers share: the first
    start's parent loses exactly one child, and the base-c potential, read
    from powers (c**d for every degree d the tree can reach), strictly
    drops.  This function then asserts the rest of the path's contract:
    the degree-k class lost exactly one member, no class above k grew,
    middle endpoints kept their degree, the final endpoint gained at most
    two children (at most one unless it also sat inside an earlier
    subtree) and ends at degree <= k-1, and no interior vertex gained more
    than one.  A one-hop path, one segment (u, y) of two vertices, has no
    middle endpoint or interior, so those two checks run only on longer
    paths.

    The class contracts are read from the delta, not from histogram
    snapshots: each class's net change is the number of touched vertices
    that entered it minus the number that left it, by their (old, new)
    degrees, which the audit makes the change degree_counts() would show.
    Cost is rewrite_and_audit's.
    """
    k = p.k
    segs = p.segments
    final = segs[-1][-1]
    if len(t.children[final]) > k - 2:
        raise StalePath(f"final endpoint {final} has degree {t.deg(final)} > {k - 2}")
    delta = rewrite_and_audit(t, k, segs, powers, region)
    net: dict[int, int] = {}
    for old, new in delta.changed.values():
        net[old] = net.get(old, 0) - 1
        net[new] = net.get(new, 0) + 1
    assert net.get(k, 0) == -1, "degree-k class must shrink by exactly one"
    for d, gained in net.items():
        if d > k:
            assert gained <= 0, f"degree class {d} > k grew"
    multi_hop = len(segs) > 1 or len(segs[0]) > 2
    if multi_hop:
        ends = [s[-1] for s in segs]
        for v in ends[:-1]:
            assert delta.gain(v) == 0, f"middle endpoint {v} changed degree"
    assert delta.gain(final) <= 2
    assert len(t.children[final]) <= k - 1
    if multi_hop:
        starts = {s[0] for s in segs}
        for v in {v for s in segs for v in s} - starts - set(ends):
            assert delta.gain(v) <= 1, f"interior {v} gained more than one child"
    return delta


def run_augmenting_search(
    g: Digraph, cfg: Config | None = None, trace: bool = False
) -> SolveReport:
    """The layered search, one attempt per round of the shared driver.

    Each round (class k by the base-c/2 argmax) either applies one
    validated augmenting path, built from fresh layers, or stalls with the
    levels and the degree >= k+1 layer as its blocking set.  The base-c
    potential strictly decreases across applied adjustments, and the
    degree-class vector drops lexicographically, so the loop terminates.

    The level-1 scan list (the sorted children of N_k) is built when k
    changes and otherwise carried over.  Only the vertices a path touches
    change their children or degree, and apply_augmenting_path's contract
    leaves none of them at degree k but takes the first start's parent out
    of N_k: so that parent's children before the rewrite leave the list,
    and nothing joins it.  A length check each round guards this.

    The driver hands every round the solve's c**d table (power_table,
    up to the start tree's Delta).  The level budgets are kept in one row
    per class, created by the first round at that class.
    """
    cfg = cfg or Config.for_graph(g)
    c = cfg.base_c
    p, q = cfg.epsilon.numerator, cfg.epsilon.denominator
    layer_ceiling = 10.0 / cfg.epsilon * math.log2(max(g.n, 2))
    strict_size_bound = cfg.profile == "paper"
    kept_k = -1
    level1: list[int] = []
    budgets: dict[int, list[int]] = {}

    def attempt(t: InTree, k: int, powers: list[int]) -> dict | Stall:
        nonlocal kept_k, level1
        children = t.children
        members = t.members(k)
        if k != kept_k:
            kept_k = k
            level1 = sorted(chain.from_iterable(map(children.__getitem__, members)))
        # each member of N_k has k children: the list must hold k * |N_k|
        assert len(level1) == k * len(members), "kept level-1 list out of step with N_k"
        st = LayeredState(k, [members], powers, level1, budgets.setdefault(k, []))
        i = 0
        while True:
            i += 1
            assert i <= layer_ceiling, f"layer count {i} exceeded ceiling"
            result = extend_layer(t, g, st, i, cfg)
            if isinstance(result, FoundEndpoint):
                break
            # k > 2c^2/eps^2 and |U_i| >= (k - 2 - c^2/eps) |V_{i-1}|, scaled by p^2 and p
            if strict_size_bound and k * p * p > 2 * c * c * q * q:
                floor = ((k - 2) * p - c * c * q) * len(st.levels_V[i - 1])
                assert len(st.levels_U[-1]) * p >= floor
            st.levels_V.append(result)
            grown = len(st.seen)  # the levels are disjoint
            previous = grown - len(result)
            if grown * q < (p + q) * previous:  # grown < (1 + eps) * previous
                blocking = st.seen | t.vertices_with_deg_at_least(k + 1)
                phi = sum(powers[d] * size for d, size in t.class_sizes())
                return Stall(blocking, {"k": k, "layers": i, "applied": False, "phi": phi})
        path = reconstruct_path(st, result, t)
        region = validate_augmenting_path(t, g, path, cfg, powers, st.budgets)
        # the first start's parent, the one vertex leaving N_k
        leaving = list(children[t.parent[path.segments[0][0]]])
        delta = apply_augmenting_path(t, path, powers, region)
        for x in leaving:
            j = bisect_left(level1, x)
            assert j < len(level1) and level1[j] == x, "kept level-1 list lost a child"
            del level1[j]
        return {"k": k, "layers": i, "applied": True, "segments": len(path.segments),
                "phi": delta.phi_before, "drop": delta.phi_drop}

    return search(
        g, cfg, "augment", attempt, build=build_initial_tree, choose_k=choose_k,
        base=Fraction(c, 2), potential_base=c, stop_power=cfg.stop_power_aug, trace=trace,
    )

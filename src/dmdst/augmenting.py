"""Layered augmenting-path search.

Where the plain improvement search gives up as soon as every escape from a
candidate subtree runs into a degree k-1 vertex, this search keeps going:
those blocking vertices become the next level, their children become new
candidate start vertices, and a chain of per-level path segments is
stitched into one multi-segment adjustment that still removes a child from
the degree-k class.  Candidate subtrees are admitted only while their
potential fits under a geometrically shrinking budget, which caps the
total potential the adjustment can add back.  Each level is one scan
(extend_layer): one walk per candidate subtree admits it and collects the
vertex set its exit search and unrelatedness check then use.

Levels must grow by a (1+epsilon) factor each round; when they stop
growing, the accumulated levels themselves form a blocking certificate.
epsilon is Config.epsilon, an exact Fraction p/q, so the growth test
(grown * q < (p + q) * previous) and the paper profile's level-size floor
are integer comparisons; potentials (base c = Config.base_c, an int) and
budgets (the exact floor of each rational budget) are ints too.  The
powers c**d that subtree potentials sum are computed once per solve
(power_table), up to the start tree's Delta, which never rises.

Level 1 scans the children of N_k.  The driver keeps that list sorted
across rounds for as long as the argmax class stays k: an applied path
changes children and degrees only at the vertices it touches, so only
their children can move in or out of the list.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .certificate import extract_augment_certificate
from .config import Config
from .graph import Digraph
from .local_search import AdjustDelta, StalePath, choose_k, rewrite_and_audit
from .report import SolveReport
from .search import Stall, search
from .tree import InTree, build_initial_tree


class ValidationFailed(Exception):
    """A reconstructed augmenting path broke one of its invariants."""


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
    every degree d below k-2.  seen is the union of every blocker level
    found so far, covered the union of every admitted start's subtree;
    extend_layer keeps both current.  level1 is the ascending list of
    levels_V[0]'s children that level 1 scans, kept by the driver across
    rounds."""

    k: int
    levels_V: list[set[int]]
    powers: list[int]
    level1: list[int]
    levels_U: list[set[int]] = field(default_factory=list)
    pred: dict[int, tuple[int, tuple[int, ...]]] = field(default_factory=dict)
    seen: set[int] = field(init=False)
    covered: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.seen = set().union(*self.levels_V)


def power_table(cfg: Config, top: int) -> list[int]:
    """[c**0, c**1, ..., c**top] for c = cfg.base_c: the base-c potential
    term of every degree up to top."""
    return list(accumulate(repeat(cfg.base_c, top), mul, initial=1))


def potential_budget(cfg: Config, i: int, k: int) -> int:
    """Admission budget for a level-i start subtree: shrinks by 1/(1+eps).

    The exact floor of 9/10 * eps / (1+eps)**i * c**(k-1), with eps = p/q =
    cfg.epsilon, from one integer division.  Potentials are ints, so a
    potential exceeds the floor exactly when it exceeds the rational budget.
    """
    p, q = cfg.epsilon.numerator, cfg.epsilon.denominator
    return 9 * p * q ** i * cfg.base_c ** (k - 1) // (10 * q * (p + q) ** i)


def exit_set(
    t: InTree, g: Digraph, u: int, k: int, inside: set[int]
) -> dict[int, tuple[int, ...]]:
    """First vertices outside subtree(u) reachable from u, in discovery
    order, each with a min-hop interior path to it.  inside is subtree(u)'s
    vertex set.

    Returns as soon as an exit of degree <= k-2 has been added: it is then
    the last key, and the only one of that degree.  Without such an exit
    the map holds every first exit.  Requires a clean subtree (no vertex of
    degree >= k-2), so interior vertices need no degree filter.
    """
    assert max(map(len, map(t.children.__getitem__, inside))) <= k - 3, "subtree not clean"
    pred: dict[int, int] = {u: u}
    exits: dict[int, tuple[int, ...]] = {}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.out_edges[x]:
            if y in inside:
                if y not in pred:
                    pred[y] = x
                    queue.append(y)
            elif y not in exits:
                path = [y]
                cur = x
                while cur != u:
                    path.append(cur)
                    cur = pred[cur]
                path.append(u)
                path.reverse()
                exits[y] = tuple(path)
                if t.deg(y) <= k - 2:
                    return exits
    return exits


def extend_layer(
    t: InTree, g: Digraph, st: LayeredState, i: int, cfg: Config
) -> FoundEndpoint | set[int]:
    """Scan level i: either find a terminal exit or assemble V_i.

    The children of V_{i-1} are scanned in ascending id (at level 1, st's
    kept list).  One walk of each child's subtree decides
    whether it joins U_i as a start: clean (no vertex of degree >= k-2, so
    segment interiors are low-degree) and cheap (potential within the
    level's integer budget).  The walk stops at the first vertex that
    breaks either rule; terms are positive, so a partial sum over the
    budget means the full one is over it too.  An admitted start must be
    unrelated to every earlier one, and its exits are explored at once:
    the first exit of degree <= k-2 ends the search.  Otherwise exits of
    degree exactly k-1 never seen before join V_i, remembering which
    start discovered them (first discoverer wins).
    """
    k = st.k
    budget = potential_budget(cfg, i, k)
    powers = st.powers
    children = t.children
    admitted: set[int] = set()
    st.levels_U.append(admitted)
    v_new: set[int] = set()
    if i == 1:
        scan = st.level1
    else:
        scan = sorted(c for v in st.levels_V[i - 1] for c in children[v])
    for u in scan:
        inside: set[int] = set()
        total = 0
        stack = [u]
        while stack:
            v = stack.pop()
            kids = children[v]
            if len(kids) >= k - 2:
                break
            total += powers[len(kids)]
            if total > budget:
                break
            inside.add(v)
            stack.extend(kids)
        else:
            admitted.add(u)
            assert st.covered.isdisjoint(inside), "start vertices must stay unrelated"
            st.covered |= inside
            for x, path in exit_set(t, g, u, k, inside).items():
                d = t.deg(x)
                if d <= k - 2:
                    return FoundEndpoint(i, u, x, path)
                if d == k - 1 and x not in st.seen:
                    st.seen.add(x)
                    v_new.add(x)
                    st.pred[x] = (u, path)
                elif d == k:
                    # Degree-k exits are level 0 by definition; higher ones
                    # sit in S_{k+1}.  Both land on the certificate's
                    # blocking side.
                    assert x in st.levels_V[0]
    return v_new


def reconstruct_path(st: LayeredState, endpoint: FoundEndpoint, t: InTree) -> AugmentingPath:
    """Walk discovery links from the endpoint's level back to level 0."""
    segments = [endpoint.path]
    u = endpoint.u
    for _ in range(endpoint.level - 1):
        v = t.parent[u]
        assert v is not None and v in st.pred, "broken discovery chain"
        u, path = st.pred[v]
        segments.append(path)
    segments.reverse()
    return AugmentingPath(st.k, tuple(segments))


def validate_augmenting_path(
    t: InTree, g: Digraph, p: AugmentingPath, cfg: Config, powers: list[int]
) -> None:
    """Check every definitional invariant; raise ValidationFailed on any break.
    powers is power_table's c**d for every degree d below k-2."""
    k = p.k
    segs = p.segments
    if not segs:
        raise ValidationFailed("no segments")
    starts = [s[0] for s in segs]
    ends = [s[-1] for s in segs]
    l = len(segs)
    for s in segs:
        if len(s) < 2 or len(set(s)) != len(s):
            raise ValidationFailed(f"segment not a simple path: {s}")
        for a, b in zip(s, s[1:]):
            if not g.has_edge(a, b):
                raise ValidationFailed(f"({a}, {b}) is not a graph edge")
    # (i) consecutive segments chain through tree parents
    for i in range(l - 1):
        if t.parent[starts[i + 1]] != ends[i]:
            raise ValidationFailed(
                f"segment {i + 1} start {starts[i + 1]} does not hang under {ends[i]}"
            )
    # (ii) starts pairwise unrelated, endpoints distinct
    for i in range(l):
        for j in range(i + 1, l):
            if not t.unrelated(starts[i], starts[j]):
                raise ValidationFailed(f"starts {starts[i]}, {starts[j]} related")
    if len(set(ends)) != l:
        raise ValidationFailed(f"duplicate endpoints: {ends}")
    # (iii) degree pattern along the chain
    p1 = t.parent[starts[0]]
    if p1 is None or t.deg(p1) != k:
        raise ValidationFailed(f"first start's parent must have degree {k}")
    for i in range(l - 1):
        if t.deg(ends[i]) != k - 1:
            raise ValidationFailed(f"middle endpoint {ends[i]} must have degree {k - 1}")
    if t.deg(ends[-1]) > k - 1:
        raise ValidationFailed(f"final endpoint {ends[-1]} above degree {k - 1}")
    # (iv) clean start subtrees + potential efficiency per level
    subtrees = []
    children = t.children
    for i, u in enumerate(starts, start=1):
        sub = t.subtree(u)
        subtrees.append(sub)
        degrees = list(map(len, map(children.__getitem__, sub)))
        if max(degrees) >= k - 2:
            raise ValidationFailed(f"subtree of {u} contains a degree >= {k - 2} vertex")
        if sum(map(powers.__getitem__, degrees)) > potential_budget(cfg, i, k):
            raise ValidationFailed(f"subtree of {u} over its potential budget")
    # (v) interiors stay inside their subtree, endpoint is the first outside
    for i, s in enumerate(segs):
        sub = subtrees[i]
        for v in s[:-1]:
            if v not in sub:
                raise ValidationFailed(f"interior {v} outside subtree of {s[0]}")
            if v != s[0] and t.deg(v) >= k - 2:
                raise ValidationFailed(f"interior {v} has degree >= {k - 2}")
        if s[-1] in sub:
            raise ValidationFailed(f"endpoint {s[-1]} inside subtree of {s[0]}")
    # Segments are vertex-disjoint except that the final endpoint may also
    # appear once inside an earlier subtree (it is then low-degree there).
    seen: dict[int, int] = {}
    for i, s in enumerate(segs):
        for v in s:
            if v in seen and not (v == ends[-1] and seen[v] != i):
                raise ValidationFailed(f"vertex {v} appears twice in segments")
            seen.setdefault(v, i)
    final = ends[-1]
    occurrences = sum(s.count(final) for s in segs)
    if occurrences > 2:
        raise ValidationFailed(f"final endpoint {final} appears {occurrences} times")


def apply_augmenting_path(t: InTree, p: AugmentingPath, cfg: Config) -> AdjustDelta:
    """Run the cut-and-append rewrite segment by segment and audit it.

    Requires the final endpoint at degree <= k-2.  After the audited
    rewrite (rewrite_and_audit), the degree-k class lost exactly one
    member, no class above k grew, middle endpoints kept their degree, the
    final endpoint gained at most two children (at most one unless it
    also sat inside an earlier subtree), and the base-c potential
    (c = cfg.base_c) has strictly dropped.
    """
    k = p.k
    segs = p.segments
    final = segs[-1][-1]
    if t.deg(final) > k - 2:
        raise StalePath(f"final endpoint {final} has degree {t.deg(final)} > {k - 2}")
    first_parent = t.parent[segs[0][0]]
    assert first_parent is not None
    counts_before = t.degree_counts()
    delta = rewrite_and_audit(t, k, segs, cfg.base_c)
    counts_after = t.degree_counts()
    assert counts_after.get(k, 0) == counts_before.get(k, 0) - 1, (
        "degree-k class must shrink by exactly one"
    )
    for d in set(counts_before) | set(counts_after):
        if d > k:
            assert counts_after.get(d, 0) <= counts_before.get(d, 0), (
                f"degree class {d} > k grew"
            )
    ends = [s[-1] for s in segs]
    assert delta.gain(first_parent) == -1
    for v in ends[:-1]:
        assert delta.gain(v) == 0, f"middle endpoint {v} changed degree"
    assert delta.gain(final) <= 2
    assert t.deg(final) <= k - 1
    starts = {s[0] for s in segs}
    for v in {v for s in segs for v in s} - starts - set(ends):
        assert delta.gain(v) <= 1, f"interior {v} gained more than one child"
    assert delta.phi_after < delta.phi_before, "base-c potential must strictly decrease"
    return delta


def run_augmenting_search(
    g: Digraph, cfg: Config | None = None, trace: bool = False
) -> SolveReport:
    """The layered search, one attempt per round of the shared driver.

    Each round (class k by the base-c/2 argmax) either applies one
    validated augmenting path, built from fresh layers, or stalls with the
    layers as its certificate witness.  The base-c potential strictly
    decreases across applied adjustments, and the degree-class vector drops
    lexicographically, so the loop terminates.

    The level-1 scan list (the sorted children of N_k) is built when k
    changes and otherwise carried over.  Only the vertices a path touches
    change their children or degree, and apply_augmenting_path's contract
    leaves none of them at degree k but takes the first start's parent out
    of N_k: so that parent's children before the rewrite leave the list,
    and nothing joins it.  A length check each round guards this.

    The first round sees the start tree and sizes the c**d table by its
    Delta; each round asserts that k still fits, since Delta never rises.
    """
    cfg = cfg or Config.for_graph(g)
    c = cfg.base_c
    p, q = cfg.epsilon.numerator, cfg.epsilon.denominator
    layer_ceiling = 10.0 / cfg.epsilon * math.log2(max(g.n, 2))
    strict_size_bound = cfg.profile == "paper"
    kept_k = -1
    level1: list[int] = []
    powers: list[int] = []

    def attempt(t: InTree, k: int) -> dict | Stall:
        nonlocal kept_k, level1, powers
        if not powers:
            powers = power_table(cfg, t.max_deg)
        assert k < len(powers), f"class {k} above the start tree's Delta"
        children = t.children
        members = t.members(k)
        if k != kept_k:
            kept_k = k
            level1 = sorted(x for v in members for x in children[v])
        # each member of N_k has k children: the list must hold k * |N_k|
        assert len(level1) == k * len(members), "kept level-1 list out of step with N_k"
        st = LayeredState(k, [members], powers, level1)
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
            grown = sum(len(s) for s in st.levels_V)
            previous = grown - len(result)
            if grown * q < (p + q) * previous:  # grown < (1 + eps) * previous
                return Stall(
                    st, {"k": k, "layers": i, "applied": False, "phi": t.potential(c)}
                )
        path = reconstruct_path(st, result, t)
        validate_augmenting_path(t, g, path, cfg, powers)
        # the first start's parent, the one vertex leaving N_k
        leaving = list(children[t.parent[path.segments[0][0]]])
        delta = apply_augmenting_path(t, path, cfg)
        for x in leaving:
            j = bisect_left(level1, x)
            assert j < len(level1) and level1[j] == x, "kept level-1 list lost a child"
            del level1[j]
        return {"k": k, "layers": i, "applied": True, "segments": len(path.segments),
                "phi": delta.phi_before, "drop": delta.phi_drop}

    return search(
        g, cfg, "augment", attempt, build=build_initial_tree, choose_k=choose_k,
        base=Fraction(c, 2), threshold=cfg.stop_threshold_aug,
        extract=extract_augment_certificate, trace=trace,
    )

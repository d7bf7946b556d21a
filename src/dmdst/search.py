"""The search core both solvers share, and the one place reports are built.

Both solvers build a start tree, pick a degree class k by a potential
argmax, apply adjustments whose potential strictly drops, and turn a stall
into a blocking certificate.  A solver supplies only attempt(t, k, powers),
which applies one adjustment at class k and returns its trace row, or
returns a Stall that names the stall's blocking set; the driver owns the
rest, the solve's power table and extract_certificate included.

The round machinery both attempts use is written here once: choose_k,
the class argmax; exit_set, the one BFS out of a subtree to its first low
exit, with exit_path; and rewrite_and_audit, the audited rewrite, which
asserts the contract every reroute shares and returns the AdjustDelta each
solver checks against the rest of its own.  This module
imports neither solver, and neither solver imports the other.

No round raises a base to a power.  The start tree's Delta never rises
(the driver asserts it after each applied round), so every degree a solve
meets is at most that Delta, and the driver computes the solve's powers
once, in two tables of that length, next to the start tree: the rank
table, which the argmax reads, and the power table (power_table), which
it hands to every attempt for the solver's potential.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .certificate import BlockingCertificate, EmptyWitness, extract_certificate
from .config import Config
from .graph import Digraph
from .report import SolveReport
from .tree import InTree


class StalePath(Exception):
    """A path failed its checks against the current tree."""


class Stall(NamedTuple):
    """No admissible adjustment at class k.  blocking is the set B that
    extract_certificate(g, blocking, k) certifies from: the vertices the
    solver's adjustments at class k could not route through.  row is the
    trace row the stall leaves, if any."""

    blocking: set[int]
    row: dict | None = None


@dataclass(frozen=True, slots=True)
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


def power_table(base: int, top: int) -> list[int]:
    """[base**0, base**1, ..., base**top]."""
    return list(accumulate(repeat(base, top), mul, initial=1))


def rank_table(base: int | Fraction, top: int) -> list[int]:
    """ranks[d] = p**d * q**(top-d) for base = p/q and d = 0..top: base**d
    times the common factor q**top, so ints rank the classes exactly."""
    p, q = base.numerator, base.denominator
    ranks = power_table(p, top)
    if q != 1:
        ranks = list(map(mul, ranks, reversed(power_table(q, top))))
    return ranks


def stop_bar(base: int | Fraction, stop_power: int, top: int) -> int:
    """ranks[d] > stop_bar(base, stop_power, top) iff base**d > stop_power,
    for ranks = rank_table(base, top): both sides times q**top."""
    return stop_power * base.denominator ** top


def argmax_degree_class(classes: Iterable[tuple[int, int]], ranks: Sequence[int]) -> int:
    """argmax of base**d * size over (d, size) pairs; ties go to the larger d.

    ranks is the base's rank table (rank_table), which holds base**d
    times one common positive factor, so the int score ranks[d] * size
    orders the pairs exactly as base**d * size does.
    """
    best = best_d = -1
    for d, size in classes:
        score = ranks[d] * size
        if score > best or (score == best and d > best_d):
            best, best_d = score, d
    if best <= 0:
        raise ValueError("empty degree histogram")
    return best_d


def choose_k(t: InTree, ranks: Sequence[int]) -> int:
    """The argmax of base**d * |N_d| over the live classes of t's
    histogram, by the base's rank table; ties go to the larger d."""
    return argmax_degree_class(t.class_sizes(), ranks)


def exit_set(t: InTree, g: Digraph, u: int, k: int, inside: set[int]) -> dict[int, tuple]:
    """First vertices outside subtree(u) reachable from u, in discovery
    order, each mapped to the trail (x, x's trail), down to (u, None), of
    its in-subtree predecessor x on a min-hop path whose interior lies in
    subtree(u) and, after u, has degree <= k-2; exit_path builds the path
    from it.  inside is subtree(u)'s vertex set.

    The one exit search of both solvers: a BFS over graph edges that enters
    only subtree vertices of degree <= k-2 and returns as soon as an exit
    of degree <= k-2 has been added: it is then the last key, and the only
    one of that degree.  Without such an exit the map holds every first
    exit the BFS reaches.  On a clean subtree (no vertex of degree >= k-2,
    as the layered search admits) every interior vertex passes the filter.
    For a leaf u (inside = {u}) the map is g.out_edges[u] in order, up to
    and including its first vertex of degree <= k-2, each mapped to
    (u, None): the graph has no self-loop and no repeated edge.  Both
    solvers read a leaf's exits off its out-list by that rule and call
    this only for subtrees of two or more vertices.
    """
    children = t.children
    low = k - 2
    entered = {u}
    exits: dict[int, tuple] = {}
    queue = deque([(u, None)])
    while queue:
        trail = queue.popleft()
        for y in g.out_edges[trail[0]]:
            if y in inside:
                if y not in entered and len(children[y]) <= low:
                    entered.add(y)
                    queue.append((y, trail))
            elif y not in exits:
                exits[y] = trail
                if len(children[y]) <= low:
                    return exits
    return exits


def exit_path(trail: tuple, x: int) -> tuple[int, ...]:
    """The path u .. x that exit_set found to exit x, from exits[x]."""
    path = [x]
    while trail is not None:
        v, trail = trail
        path.append(v)
    path.reverse()
    return tuple(path)


def rewrite_and_audit(
    t: InTree, k: int, segments: Sequence[Sequence[int]], powers: Sequence[int],
    region: set[int],
) -> AdjustDelta:
    """Reroute every segment vertex but the last onto its successor,
    segment by segment, audit the tree where the rewrite wrote, and assert
    the contract every reroute of both solvers shares.

    That contract: the first rerouted vertex has a parent (asserted before
    any cut), that parent loses exactly one child, and the potential,
    read from the solver's power table (powers[d] is base**d for every
    degree d the tree can reach), strictly drops.  Each solver asserts
    the rest of its own contract on the returned delta.

    Only the segment vertices and the old parents of the rerouted ones
    change degree, so the audit covers exactly those: the tree invariants
    hold there (InTree.validate_changed), each touched vertex filed in the
    histogram under its len(children).  region is the caller's fresh walk
    of the start subtrees, which hold every rerouted vertex's subtree; the
    audit's parent walks stop where they leave it.  The returned delta
    records, from one dict of the touched vertices' degrees before the
    rewrite, each (old, new) degree that changed, and the potential before
    and after.  The potential after is the one before plus the changed
    vertices' terms: every other vertex kept its children and its class,
    and the audit has just checked the touched vertices' filing.  Cost is
    O(touched + sum of deg(touched) + live classes), plus the audit's
    parent walks inside region.
    """
    children = t.children
    rerouted = [a for seg in segments for a in seg[:-1]]
    old_parents = list(map(t.parent.__getitem__, rerouted))
    first_parent = old_parents[0]
    assert first_parent is not None, f"first rerouted vertex {rerouted[0]} has no parent"
    before = {v: len(children[v]) for seg in segments for v in seg}
    for v in old_parents:
        before[v] = len(children[v])
    phi_before = sum(powers[d] * size for d, size in t.class_sizes())
    for seg in segments:
        for a, b in zip(seg, seg[1:]):
            t.cut_and_append(a, b)
    bad = t.validate_changed(rerouted, old_parents, region)
    assert not bad, f"tree invalid after adjustment: {bad[:3]}"
    assert len(children[first_parent]) == before[first_parent] - 1, (
        f"old parent {first_parent} must lose exactly one child"
    )
    changed = {}
    phi_after = phi_before
    for v, old in before.items():
        new = len(children[v])
        if new != old:
            changed[v] = (old, new)
            phi_after += powers[new] - powers[old]
    assert phi_after < phi_before, "potential must strictly decrease"
    return AdjustDelta(k, changed, phi_before, phi_after)


def search(
    g: Digraph, cfg: Config, algorithm: str,
    attempt: Callable[[InTree, int, list[int]], dict | Stall],
    *, build: Callable[[Digraph], InTree], choose_k: Callable[[InTree, list[int]], int],
    base: int | Fraction, potential_base: int, stop_power: int, trace: bool,
) -> SolveReport:
    """Build the start tree, then attempt(t, choose_k(t, ranks), powers)
    while base**Delta exceeds stop_power, until a Stall.  ranks (the base's
    rank table, which also decides that gate) and powers
    (power_table(potential_base, Delta)) run up to the start tree's Delta,
    which each applied round is asserted not to exceed.

    The stall's certificate is extract_certificate(g, blocking, k), or none
    when it finds no witness.  The paper profile's guarantee is proved when
    the loop reached its threshold or the stall was certified.
    """
    start = time.perf_counter()
    t = build(g)
    delta_initial = t.max_deg
    ranks = rank_table(base, delta_initial)
    powers = power_table(potential_base, delta_initial)
    bar = stop_bar(base, stop_power, delta_initial)
    rows: list[dict] | None = [] if trace else None
    applications = 0
    certificate: BlockingCertificate | None = None
    exit_reason = "threshold"
    while ranks[t.max_deg] > bar:
        k = choose_k(t, ranks)
        outcome = attempt(t, k, powers)
        if not isinstance(outcome, Stall):
            assert t.max_deg <= delta_initial, f"Delta rose above {delta_initial}"
            applications += 1
            if rows is not None:
                rows.append(outcome)
            continue
        exit_reason = "stalled"
        try:
            certificate = extract_certificate(g, outcome.blocking, k)
        except EmptyWitness:
            pass
        if rows is not None and outcome.row is not None:
            rows.append(outcome.row)
        break
    proved = cfg.profile == "paper" and (
        exit_reason == "threshold" or certificate is not None
    )
    return solve_report(
        algorithm, g, cfg, t, start, delta_initial,
        lower_bound=certificate.bound if certificate else None,
        certificate=certificate,
        iterations=applications,
        rows=rows,
        guarantee="proved" if proved else "heuristic",
        exit_reason=exit_reason,
    )


def solve_report(
    algorithm: str, g: Digraph, cfg: Config, t: InTree, start: float, delta_initial: int,
    *, lower_bound: Fraction | None, guarantee: str, exit_reason: str,
    certificate: BlockingCertificate | None = None, iterations: int = 0,
    rows: list[dict] | None = None,
) -> SolveReport:
    """The report on final tree t of a run begun at perf_counter() start;
    rows go to the algorithm's trace field."""
    return SolveReport(
        algorithm=algorithm,
        profile=cfg.profile,
        n=g.n,
        m=g.m,
        delta_initial=delta_initial,
        delta_final=t.max_deg,
        lower_bound=lower_bound,
        certificate=certificate,
        iterations=iterations,
        potential_trace=rows if algorithm == "local" else None,
        layers_trace=rows if algorithm == "augment" else None,
        parent=t.parents_signed(),
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
        config=cfg.to_dict(),
        guarantee=guarantee,
        exit_reason=exit_reason,
    )

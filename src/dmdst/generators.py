"""Seeded instance generators.

All randomness comes from a small explicit SplitMix64 stream (constants
below), so identical parameters and seed reproduce identical instances on
any platform, and fixtures can be regenerated from their parameters alone.
Every generated graph is valid by construction: a spanning backbone toward
sink 0 guarantees reachability before any extra edges are added.
"""

from __future__ import annotations

from .graph import Digraph


class GeneratorError(ValueError):
    """A generator parameter outside its range: bad input."""


class TooManyEdges(GeneratorError):
    pass


class SplitMix64:
    """Tiny deterministic 64-bit generator (public-domain constants)."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound); modulo bias is irrelevant at
        these sizes and keeps the stream portable."""
        return self.next_u64() % bound


def gen_random(n: int, extra_edges: int, seed: int) -> Digraph:
    """Random backbone in-tree toward sink 0 plus distinct extra edges.

    The backbone attaches each vertex v >= 1 below a uniformly chosen
    earlier vertex, so every vertex reaches the sink; extras are sampled
    by rejection among the remaining ordered pairs.
    """
    if n < 1:
        raise GeneratorError(f"n must be >= 1, got {n}")
    if extra_edges < 0:
        raise GeneratorError(f"extra_edges must be >= 0, got {extra_edges}")
    capacity = n * (n - 1) - (n - 1)
    if extra_edges > capacity:
        raise TooManyEdges(
            f"{extra_edges} extra edges requested, only {capacity} available"
        )
    rng = SplitMix64(seed)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for v in range(1, n):
        p = rng.below(v)
        edges.append((v, p))
        seen.add((v, p))
    added = 0
    while added < extra_edges:
        u = rng.below(n)
        v = rng.below(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
        added += 1
    return Digraph(n, 0, edges)


def gen_path(n: int) -> Digraph:
    """The directed path n-1 -> ... -> 1 -> 0; its spanning tree is unique."""
    return Digraph(n, 0, [(v, v - 1) for v in range(1, n)])


def gen_instar(n: int) -> Digraph:
    """Every vertex points straight at the sink; the unique tree has
    degree n-1."""
    return Digraph(n, 0, [(v, 0) for v in range(1, n)])


def gen_complete(n: int) -> Digraph:
    """All n(n-1) ordered pairs."""
    return Digraph(
        n, 0, [(u, v) for u in range(n) for v in range(n) if u != v]
    )


def gen_blocker(k: int, fanout: int, seed: int) -> Digraph:
    """Adversarial family: a degree-k hub shielded by degree-(k-1) blockers.

    Layout (all ids fixed so the breadth-first initial tree reproduces it):

    * sink 0 <- hub 1, hub <- starts a_1..a_k;
    * a chain of `fanout` blockers hangs under a_2: each blocker carries
      k-1 children, and the next blocker hangs under the previous
      blocker's first child;
    * a free vertex f hangs under the last blocker's first child.

    Escape edges: every start has an edge to a seeded blocker, and a
    seeded nonempty subset of non-carrier blocker children has an edge to
    f.  Single-segment reroutes from the starts all run into degree-(k-1)
    blockers, but chaining through a blocker's child reaches f, so the
    layered search strictly beats the gated one on this family.
    """
    if k < 3:
        raise GeneratorError(f"k must be >= 3, got {k}")
    if fanout < 1:
        raise GeneratorError(f"fanout must be >= 1, got {fanout}")
    rng = SplitMix64(seed)
    sink, hub = 0, 1
    starts = list(range(2, 2 + k))
    blockers: list[int] = []
    kids: list[list[int]] = []
    nxt = 2 + k
    for _ in range(fanout):
        blockers.append(nxt)
        nxt += 1
        kids.append(list(range(nxt, nxt + (k - 1))))
        nxt += k - 1
    free = nxt
    n = nxt + 1

    edges: list[tuple[int, int]] = [(hub, sink)]
    edges.extend((a, hub) for a in starts)
    carrier = starts[1]
    for j, b in enumerate(blockers):
        edges.append((b, carrier))
        edges.extend((c, b) for c in kids[j])
        carrier = kids[j][0]
    edges.append((free, carrier))

    targets = [blockers[rng.below(fanout)] for _ in starts]
    edges.extend((a, b) for a, b in zip(starts, targets))
    escapers: set[int] = set()
    for j in range(fanout):
        for c in kids[j][1:]:
            if rng.below(2):
                escapers.add(c)
    # Guarantee a full two-level route: the first non-carrier child of the
    # blocker targeted by a_1 always escapes.
    escapers.add(kids[blockers.index(targets[0])][1])
    edges.extend((c, free) for c in sorted(escapers))
    return Digraph(n, sink, edges)

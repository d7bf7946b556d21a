"""Exact minimum-degree spanning in-tree solver for small instances.

Ground truth for optimality comparisons: a binary search on the degree
bound D wrapped around a depth-first feasibility search that assigns each
vertex a parent among its out-neighbors, keeping parent chains acyclic and
every child count at most D.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Digraph
from .tree import InTree, tree_from_parents

# Largest instances each entry point takes, and the most trees enumerated.
EXACT_LIMIT = 12
ENUMERATION_LIMIT = 9
ENUMERATION_CAP = 10 ** 6


class TooLarge(ValueError):
    def __init__(self, n: int, limit: int) -> None:
        super().__init__(f"instance has {n} vertices, oracle limit is {limit}")


def _creates_cycle(parent: list[int], v: int, p: int, sink: int) -> bool:
    """Would assigning parent[v] = p close a cycle among assigned vertices?"""
    cur = p
    while cur != sink and parent[cur] >= 0:
        if cur == v:
            return True
        cur = parent[cur]
    return cur == v


def _feasible(g: Digraph, bound: int) -> list[int] | None:
    """Backtracking search for a spanning in-tree with max degree <= bound.

    Branches on the unassigned vertex with the fewest unsaturated parent
    options; prunes as soon as any unassigned vertex has none left.
    """
    n, sink = g.n, g.sink
    parent = [-1] * n
    load = [0] * n
    unassigned = set(range(n)) - {sink}

    def options(v: int) -> list[int]:
        return [p for p in g.out_edges[v] if load[p] < bound]

    def solve() -> bool:
        if not unassigned:
            return True
        best_v = -1
        best_opts: list[int] = []
        for v in sorted(unassigned):
            opts = options(v)
            if not opts:
                return False
            if best_v < 0 or len(opts) < len(best_opts):
                best_v, best_opts = v, opts
        unassigned.discard(best_v)
        for p in best_opts:
            if load[p] >= bound or _creates_cycle(parent, best_v, p, sink):
                continue
            parent[best_v] = p
            load[p] += 1
            if solve():
                return True
            load[p] -= 1
            parent[best_v] = -1
        unassigned.add(best_v)
        return False

    if solve():
        parent[sink] = -1
        return parent
    return None


def exact_min_degree(g: Digraph) -> tuple[int, InTree]:
    """Least achievable max in-degree, with a witness tree.

    Binary search on the bound; each feasibility probe prunes harder than
    a direct minimization would.  The witness is the tree of the last
    feasible probe, the one that set hi to the final bound; only when no
    probe found a tree is the final bound probed for one.
    """
    if g.n > EXACT_LIMIT:
        raise TooLarge(g.n, EXACT_LIMIT)
    if g.n == 1:
        return 0, InTree(g, [None])
    lo, hi = 1, g.n - 1
    witness: list[int] | None = None
    while lo < hi:
        mid = (lo + hi) // 2
        found = _feasible(g, mid)
        if found is not None:
            witness = found
            hi = mid
        else:
            lo = mid + 1
    if witness is None:
        witness = _feasible(g, lo)
        assert witness is not None, "spanning tree must exist on a valid graph"
    tree = tree_from_parents(g, witness)
    assert not tree.validate()
    assert tree.max_deg == lo
    return lo, tree


def enumerate_spanning_intrees(g: Digraph) -> Iterator[InTree]:
    """Yield every spanning in-tree rooted at the sink; raise TooLarge
    past ENUMERATION_CAP of them.

    Depth-first product of parent choices in vertex order, pruning any
    assignment that closes a cycle; the order is deterministic.
    """
    if g.n > ENUMERATION_LIMIT:
        raise TooLarge(g.n, ENUMERATION_LIMIT)
    n, sink = g.n, g.sink
    vertices = [v for v in range(n) if v != sink]
    parent = [-1] * n
    produced = 0

    def rec(idx: int) -> Iterator[InTree]:
        nonlocal produced
        if idx == len(vertices):
            produced += 1
            if produced > ENUMERATION_CAP:
                raise TooLarge(produced, ENUMERATION_CAP)
            yield tree_from_parents(g, parent)
            return
        v = vertices[idx]
        for p in g.out_edges[v]:
            if _creates_cycle(parent, v, p, sink):
                continue
            parent[v] = p
            yield from rec(idx + 1)
            parent[v] = -1

    yield from rec(0)

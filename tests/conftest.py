"""Shared corpus fixtures and independent brute-force oracles.

The oracles here deliberately re-derive everything from first principles
(exhaustive path enumeration, subtree intersection, determinant counting)
so the tests never check the library against itself.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import settings, strategies as st

from dmdst import (
    Config,
    Digraph,
    SolveReport,
    exact_min_degree,
    gen_blocker,
    gen_instar,
    gen_path,
    gen_random,
    run_augmenting_search,
    run_local_search,
    tree_from_parents,
)
from dmdst.oracle import TooLarge
from dmdst.tree import InTree

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

RANDOM_CORPUS_SIZE = 300


def random_corpus_specs() -> list[tuple[int, int, int]]:
    """(n, extra_edges, seed) triples spanning n in [4, 9], extras in [0, 12]."""
    specs = []
    for seed in range(RANDOM_CORPUS_SIZE):
        n = 4 + seed % 6
        extra = min((seed * 7) % 13, n * (n - 1) - (n - 1))
        specs.append((n, extra, seed))
    return specs


@st.composite
def small_digraphs(draw) -> Digraph:
    """A digraph on 3..9 vertices whose sink 0 every vertex reaches: each
    v >= 1 has an edge to some smaller vertex, plus any extra edges."""
    n = draw(st.integers(3, 9))
    edges = {(v, draw(st.integers(0, v - 1))) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(u, v) for u, v in draw(st.sets(pairs, max_size=3 * n)) if u != v}
    return Digraph(n, 0, sorted(edges))


def random_corpus() -> list[Digraph]:
    return [gen_random(n, e, s) for n, e, s in random_corpus_specs()]


@dataclass
class Solved:
    name: str
    g: Digraph
    oracle_delta: int | None
    local: SolveReport
    augment: SolveReport


def corpus_instances() -> list[tuple[str, Digraph]]:
    """(name, graph) of the random corpus and the fixed families."""
    instances: list[tuple[str, Digraph]] = []
    for n, e, s in random_corpus_specs():
        instances.append((f"random-n{n}-e{e}-s{s}", gen_random(n, e, s)))
    for n in range(3, 10):
        instances.append((f"path-{n}", gen_path(n)))
        instances.append((f"instar-{n}", gen_instar(n)))
    for s in range(20):
        instances.append((f"blocker-s{s}", gen_blocker(3, 2, s)))
    return instances


@pytest.fixture(scope="session")
def corpus_results() -> tuple[list[Solved], float]:
    """Both solvers (practical, traced) plus the exact oracle over the
    random corpus and the fixed families.  Returns (results, seconds)."""
    start = time.perf_counter()
    out = []
    for name, g in corpus_instances():
        cfg = Config.for_graph(g)
        oracle_delta = exact_min_degree(g)[0] if g.n <= 12 else None
        local = run_local_search(g, cfg, trace=True)
        augment = run_augmenting_search(g, cfg, trace=True)
        out.append(Solved(name, g, oracle_delta, local, augment))
    elapsed = time.perf_counter() - start
    return out, elapsed


def report_without_timing(report: SolveReport) -> dict:
    """The report's JSON fields minus wall_time_ms, the one unstable field."""
    data = json.loads(report.to_json())
    del data["wall_time_ms"]
    return data


@pytest.fixture
def full_audit(monkeypatch) -> list[int]:
    """Make every changed-set audit also run the full validate(), require
    the two to agree, and hand the solver the full result.  Returns the
    list of audited adjustments (their rerouted-vertex counts)."""
    changed_set_audit = InTree.validate_changed
    audited: list[int] = []

    def both(self, rerouted, old_parents, region):
        rerouted, old_parents = list(rerouted), list(old_parents)
        local = changed_set_audit(self, rerouted, old_parents, region)
        full = self.validate()
        assert bool(local) == bool(full), (local, full)
        audited.append(len(rerouted))
        return full

    monkeypatch.setattr(InTree, "validate_changed", both)
    return audited


# -- independent oracles -----------------------------------------------------


def degree_snapshot(t: InTree) -> list[int]:
    return [t.deg(v) for v in range(t.g.n)]


def brute_improvement_paths(
    t: InTree, g: Digraph, u: int, d: int
) -> list[list[int]]:
    """Every simple path from u that exits subtree(u) at its first outside
    vertex with all non-start degrees <= d-2, by exhaustive DFS."""
    inside = t.subtree(u)
    found: list[list[int]] = []

    def dfs(v: int, path: list[int]) -> None:
        for y in g.out_edges[v]:
            if y in path:
                continue
            if y not in inside:
                if t.deg(y) <= d - 2:
                    found.append(path + [y])
                continue
            if t.deg(y) <= d - 2:
                dfs(y, path + [y])

    dfs(u, [u])
    return found


def brute_first_exits(t: InTree, g: Digraph, u: int) -> set[int]:
    """First-outside vertices over all simple paths from u through subtree(u)."""
    inside = t.subtree(u)
    exits: set[int] = set()

    def dfs(v: int, path: list[int]) -> None:
        for y in g.out_edges[v]:
            if y in path:
                continue
            if y not in inside:
                exits.add(y)
            else:
                dfs(y, path + [y])

    dfs(u, [u])
    return exits


def full_bfs_parents(g: Digraph) -> list[int | None]:
    """build_initial_tree's parent array by its first definition: a BFS
    from the sink over reversed edges that walks every edge list, each
    in-list in ascending tail order.

    The reverse lists are its own, not the builder's: g.edges() lists
    edges by ascending tail, so each one fills in that order."""
    rev: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        rev[v].append(u)
    parent: list[int | None] = [None] * g.n
    seen = {g.sink}
    queue = deque([g.sink])
    while queue:
        v = queue.popleft()
        for u in rev[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                queue.append(u)
    assert len(seen) == g.n
    return parent


def blocks_by_reach_sets(g: Digraph, U: frozenset[int], B: frozenset[int]) -> bool:
    """verify_blocking by its first definition: one reach set in G - B per
    witness, then no set may hold the sink and no two sets may meet."""
    if not U or not B or U & B or g.sink in U:
        return False
    if any(not 0 <= v < g.n for v in U | B):
        return False
    reach = []
    for u in U:
        seen = {u}
        queue = deque([u])
        while queue:
            for y in g.out_edges[queue.popleft()]:
                if y not in B and y not in seen:
                    seen.add(y)
                    queue.append(y)
        reach.append(seen)
    if any(g.sink in r for r in reach):
        return False
    return all(a.isdisjoint(b) for a, b in itertools.combinations(reach, 2))


# Largest instance enumerate_spanning_intrees takes, and the most trees it
# yields.
ENUMERATION_LIMIT = 9
ENUMERATION_CAP = 10 ** 6


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

    def closes_cycle(v: int, p: int) -> bool:
        """Would parent[v] = p close a cycle among the assigned vertices?"""
        while p != v and p != sink and parent[p] >= 0:
            p = parent[p]
        return p == v

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
            if closes_cycle(v, p):
                continue
            parent[v] = p
            yield from rec(idx + 1)
            parent[v] = -1

    yield from rec(0)


def fraction_det(mat: list[list[Fraction]]) -> Fraction:
    """Exact Gaussian-elimination determinant."""
    mat = [row[:] for row in mat]
    n = len(mat)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            sign = -sign
        pv = mat[col][col]
        result *= pv
        for r in range(col + 1, n):
            f = mat[r][col] / pv
            if f:
                for c in range(col, n):
                    mat[r][c] -= f * mat[col][c]
    return sign * result


def count_intrees_by_determinant(g: Digraph) -> int:
    """Spanning in-trees toward the sink via the directed matrix-tree
    theorem: determinant of the out-degree Laplacian with the sink's row
    and column removed."""
    idx = [v for v in range(g.n) if v != g.sink]
    pos = {v: i for i, v in enumerate(idx)}
    size = len(idx)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for u in idx:
        mat[pos[u]][pos[u]] = Fraction(len(g.out_edges[u]))
        for v in g.out_edges[u]:
            if v != g.sink:
                mat[pos[u]][pos[v]] -= 1
    value = fraction_det(mat)
    assert value.denominator == 1
    return int(value)

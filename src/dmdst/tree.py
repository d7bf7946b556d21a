"""Mutable spanning in-tree with O(1)-amortized degree bookkeeping.

The tree is rooted at the graph's sink; every other vertex stores its
parent.  deg(v) is the number of children of v (its tree in-degree), and a
degree histogram keeps the member set of every live (non-empty) degree
class, so the potential function and degree-class scans cost O(live
classes), however high the degree once was.

parent_violations checks a bare parent array against its graph.
InTree.validate runs it on the tree's own array, and `dmdst verify` on a
report's, with no InTree built.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

from .graph import Digraph


class TreeError(Exception):
    pass


class CutSink(TreeError):
    """Attempt to reattach the sink, which has no parent."""


class NotAnEdge(TreeError):
    """Attempt to attach a vertex below a non-out-neighbor."""


class InTree:
    """Spanning in-tree over a Digraph, mutated by cut-and-append steps.

    A single solver run owns one tree; nothing here is shared or
    thread-safe.  Sequences of cut_and_append calls may pass through
    transient non-tree states (parent cycles); callers assert validity at
    the end of each complete adjustment, with validate_changed over the
    vertices it touched (validate re-checks the whole tree).

    _members maps each degree some vertex has now to the set of those
    vertices: a class is dropped when its last member leaves, so the
    histogram never holds an empty class (both validations report one
    that it does hold).
    """

    __slots__ = ("g", "parent", "children", "_members", "max_deg")

    def __init__(self, g: Digraph, parent: Sequence[int | None]) -> None:
        if len(parent) != g.n:
            raise TreeError(f"parent array length {len(parent)} != n={g.n}")
        self.g = g
        self.parent: list[int | None] = list(parent)
        children: list[list[int]] = [[] for _ in range(g.n)]
        self.children = children
        for v, p in enumerate(self.parent):
            if p is not None:
                children[p].append(v)
        # The leaves are the vertices no one names as parent: class 0 is
        # one set difference, and only the parents are filed one by one.
        parents = set(self.parent)
        parents.discard(None)
        leaves = set(range(g.n)).difference(parents)
        members: defaultdict[int, set[int]] = defaultdict(set)
        if leaves:
            members[0] = leaves
        for p in parents:
            members[len(children[p])].add(p)
        self._members: dict[int, set[int]] = dict(members)
        self.max_deg = max(members)

    # -- degree bookkeeping ------------------------------------------------

    def deg(self, v: int) -> int:
        return len(self.children[v])

    def members(self, d: int) -> set[int]:
        """The set N_d of vertices with degree exactly d (a snapshot copy,
        not a live view)."""
        return set(self._members.get(d, ()))

    def degree_counts(self) -> dict[int, int]:
        return {d: len(s) for d, s in sorted(self._members.items())}

    def class_sizes(self) -> Iterator[tuple[int, int]]:
        """(d, |N_d|) for every live class, unordered and uncopied: read it
        before the tree changes."""
        members = self._members
        return zip(members, map(len, members.values()))

    def vertices_with_deg_at_least(self, d: int) -> set[int]:
        """The set S_d, derived from the histogram member lists."""
        out: set[int] = set()
        for dd, s in self._members.items():
            if dd >= d:
                out |= s
        return out

    def _move_class(self, v: int, old: int, new: int) -> None:
        members = self._members
        left = members[old]
        left.discard(v)
        if not left:
            del members[old]
        members.setdefault(new, set()).add(v)
        if new > self.max_deg:
            self.max_deg = new
        elif old == self.max_deg and old not in members:
            self.max_deg = max(members)

    # -- mutation ----------------------------------------------------------

    def cut_and_append(self, v: int, new_parent: int) -> None:
        """Cut v off its parent and append it right below new_parent."""
        if v == self.g.sink:
            raise CutSink(f"cannot reattach sink {v}")
        if not self.g.has_edge(v, new_parent):
            raise NotAnEdge(f"({v}, {new_parent}) is not a graph edge")
        old = self.parent[v]
        if old == new_parent:
            return
        assert old is not None
        self.children[old].remove(v)
        self._move_class(old, len(self.children[old]) + 1, len(self.children[old]))
        self.parent[v] = new_parent
        self.children[new_parent].append(v)
        self._move_class(
            new_parent, len(self.children[new_parent]) - 1, len(self.children[new_parent])
        )

    # -- queries -----------------------------------------------------------

    def subtree(self, u: int) -> set[int]:
        """All vertices whose parent chain passes through u, including u."""
        out = {u}
        stack = [u]
        while stack:
            for c in self.children[stack.pop()]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def potential(self, base: int) -> int:
        """Sum of base**deg(v) over all vertices, from the histogram."""
        return sum((base ** d) * len(s) for d, s in self._members.items())

    def parents_signed(self) -> list[int]:
        """Parent array with -1 in place of None, which a tree has only at
        the sink (the serialized form)."""
        assert self.parent.count(None) == 1, "parents_signed needs a tree"
        signed = self.parent.copy()
        signed[signed.index(None)] = -1
        return signed

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """All invariant violations against the tree's graph (empty list
        means valid): parent_violations on the parent array, then the
        children lists, the degree histogram and the cached max degree."""
        g = self.g
        n = g.n
        bad = parent_violations(g, self.parent)
        if len(self.parent) != n:  # ShapeMismatch, reported alone
            return bad
        for v in range(n):
            for c in self.children[v]:
                if self.parent[c] != v:
                    bad.append(f"ChildrenMismatch: {c} listed under {v}")
            if len(set(self.children[v])) != len(self.children[v]):
                bad.append(f"ChildrenMismatch: duplicates under {v}")
        total = 0
        for d, s in self._members.items():
            total += len(s)
            for v in s:
                if len(self.children[v]) != d:
                    bad.append(f"HistogramMismatch: {v} filed under degree {d}")
        if total != n:
            bad.append(f"HistogramMismatch: {total} vertices filed, expected {n}")
        bad.extend(self._empty_classes())
        actual_max = max(len(c) for c in self.children)
        if self.max_deg != actual_max:
            bad.append(f"MaxDegMismatch: cached {self.max_deg}, actual {actual_max}")
        return bad

    def _empty_classes(self) -> list[str]:
        """A HistogramMismatch for each filed empty class: the histogram
        holds live classes only, so that its reads cost O(live classes)."""
        empty = sorted(d for d, s in self._members.items() if not s)
        return [f"HistogramMismatch: empty degree class {d} filed" for d in empty]

    def validate_changed(
        self, rerouted: Iterable[int], old_parents: Iterable[int], region: set[int]
    ) -> list[str]:
        """validate()'s invariants, checked only where one adjustment wrote.

        Requires a tree that was valid before the adjustment and an
        adjustment that only re-parented the `rerouted` vertices, away from
        `old_parents`.  The touched set is those vertices, their old parents
        and their new parents; nothing else changed its parent or children.
        Each touched vertex, in ascending order, is checked for its parent
        (as parent_violations checks it, plus being listed under it), its
        children (each has it as parent, none twice) and its filing in the
        histogram under len(children), the ground truth for its degree.
        Then the histogram as a whole: n vertices filed, no empty class, the
        cached max degree on top.  A touched vertex's children are screened
        at C speed, and looked at one by one only to name a fault.

        Acyclicity: region must hold the old subtree (before the adjustment)
        of every rerouted vertex; a rerouted vertex outside it is reported,
        not trusted.  A parent walk from each rerouted vertex must leave
        region, or reach the sink or a vertex an earlier walk cleared,
        without repeating a vertex.  Stopping at the first vertex x outside
        region is exact: x lies in no rerouted vertex's old subtree, so x's
        old root path holds no rerouted vertex, every vertex on it kept its
        parent, and that path still runs to the sink.  Any new parent cycle
        contains a rerouted vertex and never leaves region (a vertex on it
        outside region would reach the sink), so the walk from that vertex
        finds it.  Cost is O(touched + sum of deg(touched) + walk lengths +
        live classes), and a walk is no longer than the part of its root
        path inside region: for one reroute along a path, about the path.
        """
        g = self.g
        n = g.n
        sink = g.sink
        out_sets = g.out_sets
        parent = self.parent
        children = self.children
        members = self._members
        rerouted = list(rerouted)
        touched = set(rerouted)
        touched.update(old_parents)
        touched.update(map(parent.__getitem__, rerouted))
        touched.discard(None)
        bad: list[str] = []
        for v in sorted(touched):
            p = parent[v]
            if v == sink:
                if p is not None:
                    bad.append(f"SinkHasParent: sink {v} has parent {p}")
            elif p is None:
                bad.append(f"MissingParent: vertex {v} has no parent")
            elif not 0 <= p < n:
                bad.append(f"ParentOutOfRange: vertex {v} -> {p}")
            elif p not in out_sets[v]:
                bad.append(f"NotAnEdge: tree edge ({v}, {p}) missing from graph")
            elif v not in children[p]:
                bad.append(f"ChildrenMismatch: {v} missing under its parent {p}")
            kids = children[v]
            if list(map(parent.__getitem__, kids)).count(v) != len(kids):
                for c in kids:
                    if parent[c] != v:
                        bad.append(f"ChildrenMismatch: {c} listed under {v}")
            if len(set(kids)) != len(kids):
                bad.append(f"ChildrenMismatch: duplicates under {v}")
            if v not in members.get(len(kids), ()):
                bad.append(f"HistogramMismatch: {v} not filed under degree {len(kids)}")
        total = sum(map(len, members.values()))
        if total != n:
            bad.append(f"HistogramMismatch: {total} vertices filed, expected {n}")
        if not all(members.values()):
            bad.extend(self._empty_classes())
        top = max(members, default=0)
        if self.max_deg != top:
            bad.append(f"MaxDegMismatch: cached {self.max_deg}, histogram top {top}")
        cleared = {sink}
        for v in rerouted:
            if v not in region:
                bad.append(f"RegionMismatch: rerouted vertex {v} outside the audit region")
                continue
            walk: set[int] = set()
            cur: int | None = v
            while cur in region and cur not in cleared and cur not in walk:
                walk.add(cur)
                p = parent[cur]
                cur = p if p is not None and 0 <= p < n else None
            if cur is None or cur in walk:
                bad.append(f"CycleDetected: parent walk from {v} never reaches sink")
            else:
                cleared |= walk
        return bad


def build_initial_tree(g: Digraph) -> InTree:
    """Breadth-first spanning tree from the sink over reversed edges.

    parent(v) is v's BFS predecessor (graph.sink_bfs), so the tree is as
    shallow as the graph allows and fixed by its edge set: each in-list
    is walked in ascending tail order.
    Every Digraph holds those parents (g.sink_parent) from its
    reachability check; the reverse lists that BFS walked were built for
    it alone and are not kept, so nothing here walks reversed edges.
    """
    return InTree(g, g.sink_parent)


def parent_violations(g: Digraph, parent: Sequence[int | None]) -> list[str]:
    """Every violation of a spanning in-tree of g in a parent array (None
    at the sink; empty list means valid), with no tree built.

    A wrong length is reported alone.  Otherwise each vertex in order is
    checked for its parent: none at the sink, an in-range out-neighbor
    everywhere else.  Then a parent walk from each vertex not yet reached
    must reach the sink without repeating a vertex; a walk stops at a
    missing or out-of-range parent, which also fails it.
    """
    n = g.n
    if len(parent) != n:
        return [f"ShapeMismatch: parent array has {len(parent)} entries for n={n}"]
    sink = g.sink
    bad: list[str] = []
    # A C-speed screen first: neither None nor an out-of-range parent is in
    # any out-set, so n - 1 hits and no parent at the sink mean no faults.
    hits = sum(map(frozenset.__contains__, g.out_sets, parent))
    if hits != n - 1 or parent[sink] is not None:
        for v in range(n):
            p = parent[v]
            if v == sink:
                if p is not None:
                    bad.append(f"SinkHasParent: sink {v} has parent {p}")
                continue
            if p is None:
                bad.append(f"MissingParent: vertex {v} has no parent")
            elif not 0 <= p < n:
                bad.append(f"ParentOutOfRange: vertex {v} -> {p}")
            elif not g.has_edge(v, p):
                bad.append(f"NotAnEdge: tree edge ({v}, {p}) missing from graph")
    # Parent chains must reach the sink without repeating a vertex.  The
    # walk from v marks what it visits with v + 1 and fails on a missing or
    # out-of-range parent or on its own mark.  It stops with no report at
    # the sink or at an earlier walk's vertex, whose verdict is already in.
    mark = [0] * n
    mark[sink] = -1
    for v in range(n):
        if mark[v]:
            continue
        here = v + 1
        cur: int | None = v
        while cur is not None and not mark[cur]:
            mark[cur] = here
            p = parent[cur]
            cur = p if p is not None and 0 <= p < n else None
        if cur is None or mark[cur] == here:
            bad.append(f"CycleDetected: parent walk from {v} never reaches sink")
    return bad


def tree_from_parents(g: Digraph, parents: Iterable[int]) -> InTree:
    """Build an InTree from a signed parent array (-1 at the sink)."""
    arr: list[int | None] = []
    for v, p in enumerate(parents):
        arr.append(None if p < 0 else p)
    return InTree(g, arr)

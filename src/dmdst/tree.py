"""Mutable spanning in-tree with O(1)-amortized degree bookkeeping.

The tree is rooted at the graph's sink; every other vertex stores its
parent.  deg(v) is the number of children of v (its tree in-degree), and a
degree histogram keeps the member set of every live (non-empty) degree
class, so the potential function and degree-class scans cost O(live
classes), however high the degree once was.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import Digraph


class TreeError(Exception):
    pass


class CutSink(TreeError):
    """Attempt to reattach the sink, which has no parent."""


class NotAnEdge(TreeError):
    """Attempt to attach a vertex below a non-out-neighbor."""


class EmptyDegreeClass(TreeError):
    """unrelated_children asked for a degree class with no members."""


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
        self.children: list[list[int]] = [[] for _ in range(g.n)]
        for v in range(g.n):
            p = self.parent[v]
            if p is not None:
                self.children[p].append(v)
        self._members: dict[int, set[int]] = {}
        for v in range(g.n):
            self._members.setdefault(len(self.children[v]), set()).add(v)
        self.max_deg = max(self._members)

    # -- degree bookkeeping ------------------------------------------------

    def deg(self, v: int) -> int:
        return len(self.children[v])

    def members(self, d: int) -> set[int]:
        """The set N_d of vertices with degree exactly d (a snapshot copy,
        not a live view)."""
        return set(self._members.get(d, ()))

    def degree_counts(self) -> dict[int, int]:
        return {d: len(s) for d, s in sorted(self._members.items())}

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

    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff a is v or an ancestor of v (i.e. v is inside subtree(a))."""
        steps = 0
        cur: int | None = v
        while cur is not None and steps <= self.g.n:
            if cur == a:
                return True
            cur = self.parent[cur]
            steps += 1
        return False

    def unrelated(self, u: int, v: int) -> bool:
        """True iff subtree(u) and subtree(v) are disjoint."""
        return not self.is_ancestor(u, v) and not self.is_ancestor(v, u)

    def unrelated_children(self, d: int) -> set[int]:
        """A large set of pairwise-unrelated vertices with parents of degree d.

        Members of the degree class are folded in by increasing (depth, id);
        each step evicts the current pick lying on the new member's root
        path, then adds all its children.  One top-down pass first records,
        for every vertex, its depth and the child of its nearest degree-d
        strict ancestor on the way down to it.  Picks are children of
        members already folded in, so a pick on member u's root path hangs
        under a degree-d ancestor of u.  The nearest one, a, was folded in
        after all the others and evicted the pick on its own root path, so
        a's child toward u is the only pick left that can block u: each
        step checks one vertex.  Cost is O(n log n), the sort of N_d.

        A final pass asserts that no pick lies under another (the at most
        one blocker per step this relies on), walking the picks' subtrees,
        which are disjoint while it holds.  The result always reaches the
        (d-1)*|N_d| + 1 size floor, which is asserted rather than assumed.
        """
        members = self._members.get(d)
        if not members:
            raise EmptyDegreeClass(f"no vertices of degree {d}")
        children = self.children
        n = self.g.n
        depth = [0] * n
        near: list[int | None] = [None] * n
        order = [self.g.sink]
        for v in order:  # top-down: order grows as the loop reads it
            kids = children[v]
            if not kids:
                continue
            below = depth[v] + 1
            if len(kids) == d:
                for c in kids:
                    depth[c] = below
                    near[c] = c
            else:
                above = near[v]
                for c in kids:
                    depth[c] = below
                    near[c] = above
            order += kids
        picks: set[int] = set()
        for u in sorted(sorted(members), key=depth.__getitem__):
            picks.discard(near[u])
            picks.update(children[u])
        level = [c for w in picks for c in children[w]]
        while level:
            assert picks.isdisjoint(level), "pairwise-unrelated set had two ancestors"
            level = [c for v in level for c in children[v]]
        floor = (d - 1) * len(members) + 1
        assert len(picks) >= floor, f"|W|={len(picks)} below floor {floor} at d={d}"
        return picks

    def potential(self, base: int) -> int:
        """Sum of base**deg(v) over all vertices, from the histogram."""
        return sum((base ** d) * len(s) for d, s in self._members.items())

    def parents_signed(self) -> list[int]:
        """Parent array with -1 at the sink (the serialized form)."""
        return [-1 if p is None else p for p in self.parent]

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """All invariant violations against the tree's graph (empty list
        means valid)."""
        g = self.g
        bad: list[str] = []
        n = g.n
        if len(self.parent) != n:
            return [f"ShapeMismatch: parent array has {len(self.parent)} entries for n={n}"]
        for v in range(n):
            p = self.parent[v]
            if v == g.sink:
                if p is not None:
                    bad.append(f"SinkHasParent: sink {v} has parent {p}")
                continue
            if p is None:
                bad.append(f"MissingParent: vertex {v} has no parent")
            elif not 0 <= p < n:
                bad.append(f"ParentOutOfRange: vertex {v} -> {p}")
            elif not g.has_edge(v, p):
                bad.append(f"NotAnEdge: tree edge ({v}, {p}) missing from graph")
        # Parent chains must reach the sink without repeating a vertex.
        state = [0] * n  # 0 unseen, 1 on current walk, 2 settled
        state[g.sink] = 2
        for v in range(n):
            if state[v]:
                continue
            walk = []
            cur: int | None = v
            while cur is not None and state[cur] == 0:
                state[cur] = 1
                walk.append(cur)
                cur = self.parent[cur] if 0 <= cur < n else None
            if cur is None or state[cur] == 1:
                bad.append(f"CycleDetected: parent walk from {v} never reaches sink")
                for w in walk:
                    state[w] = 2
            else:
                for w in walk:
                    state[w] = 2
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
        self, rerouted: Iterable[int], old_parents: Iterable[int]
    ) -> list[str]:
        """validate()'s invariants, checked only where one adjustment wrote.

        Requires a tree that was valid before the adjustment and an
        adjustment that only re-parented the `rerouted` vertices, away from
        `old_parents`.  The touched set is those vertices, their old parents
        and their new parents; nothing else changed its parent or children.
        Any new parent cycle contains a vertex whose parent changed, so a
        parent walk from each rerouted vertex finds it; walks stop at the
        sink or at a vertex an earlier walk already cleared.  Cost is
        O(touched degrees + walk lengths + live degree classes), not O(n).
        """
        g = self.g
        n = g.n
        rerouted = list(rerouted)
        touched = set(rerouted)
        touched.update(old_parents)
        touched.update(self.parent[v] for v in rerouted)
        touched.discard(None)
        bad: list[str] = []
        for v in sorted(touched):
            p = self.parent[v]
            if v == g.sink:
                if p is not None:
                    bad.append(f"SinkHasParent: sink {v} has parent {p}")
            elif p is None:
                bad.append(f"MissingParent: vertex {v} has no parent")
            elif not 0 <= p < n:
                bad.append(f"ParentOutOfRange: vertex {v} -> {p}")
            elif not g.has_edge(v, p):
                bad.append(f"NotAnEdge: tree edge ({v}, {p}) missing from graph")
            elif v not in self.children[p]:
                bad.append(f"ChildrenMismatch: {v} missing under its parent {p}")
            kids = self.children[v]
            for c in kids:
                if self.parent[c] != v:
                    bad.append(f"ChildrenMismatch: {c} listed under {v}")
            if len(set(kids)) != len(kids):
                bad.append(f"ChildrenMismatch: duplicates under {v}")
            if v not in self._members.get(len(kids), ()):
                bad.append(f"HistogramMismatch: {v} not filed under degree {len(kids)}")
        total = sum(map(len, self._members.values()))
        if total != n:
            bad.append(f"HistogramMismatch: {total} vertices filed, expected {n}")
        bad.extend(self._empty_classes())
        top = max(self._members, default=0)
        if self.max_deg != top:
            bad.append(f"MaxDegMismatch: cached {self.max_deg}, histogram top {top}")
        cleared = {g.sink}
        for v in rerouted:
            walk: set[int] = set()
            cur: int | None = v
            while cur is not None and cur not in cleared and cur not in walk:
                walk.add(cur)
                p = self.parent[cur]
                cur = p if p is not None and 0 <= p < n else None
            if cur is None or cur in walk:
                bad.append(f"CycleDetected: parent walk from {v} never reaches sink")
            else:
                cleared |= walk
        return bad


def build_initial_tree(g: Digraph) -> InTree:
    """Breadth-first spanning tree from the sink over reversed edges.

    parent(v) is v's BFS predecessor (graph.sink_bfs), so the tree is as
    shallow as the graph allows and deterministic given its edge order.
    Every Digraph holds those parents from its reachability check.
    """
    return InTree(g, g.sink_parent)


def tree_from_parents(g: Digraph, parents: Iterable[int]) -> InTree:
    """Build an InTree from a signed parent array (-1 at the sink)."""
    arr: list[int | None] = []
    for v, p in enumerate(parents):
        arr.append(None if p < 0 else p)
    return InTree(g, arr)

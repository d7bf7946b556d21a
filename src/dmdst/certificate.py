"""Blocking-set lower bounds on the optimal tree degree.

A pair (U, B) blocks when every path from a U vertex to the sink first
enters B, and paths from distinct U vertices cannot meet before entering
B.  Any spanning in-tree must then route |U| disjoint path prefixes into
B vertices, so some B vertex has tree in-degree at least |U|/|B|.

verify_blocking checks the two properties directly on the graph, with no
solver state involved.  Extraction likewise re-tests every witness vertex
from scratch instead of trusting loop bookkeeping: the certificate is the
artifact's trust anchor and must not inherit solver bugs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

from .graph import Digraph
from .tree import InTree


class EmptyWitness(Exception):
    """Certificate extraction found no usable witness set."""


class CertificateError(RuntimeError):
    """A solver-emitted certificate failed verification: a correctness bug."""


@dataclass(frozen=True)
class BlockingCertificate:
    U: frozenset[int]
    B: frozenset[int]
    k: int
    verified: bool = False

    @property
    def bound(self) -> Fraction:
        return Fraction(len(self.U), len(self.B))

    def to_dict(self) -> dict:
        b = self.bound
        return {
            "U": sorted(self.U),
            "B": sorted(self.B),
            "k": self.k,
            "bound_num": b.numerator,
            "bound_den": b.denominator,
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BlockingCertificate":
        """Raises TypeError on a side that is not a list of int vertices."""
        return cls(
            U=_vertex_set(d["U"]),
            B=_vertex_set(d["B"]),
            k=int(d["k"]),
            verified=bool(d.get("verified", False)),
        )


def _vertex_set(side: list) -> frozenset[int]:
    """A certificate side's vertices, which must be ints (not bools)."""
    bad = next((v for v in side if type(v) is not int), None)
    if bad is not None:
        raise TypeError(f"certificate vertex {bad!r} is not an int")
    return frozenset(side)


def _reach_avoiding(g: Digraph, start: int, blocked: frozenset[int]) -> set[int]:
    """Vertices reachable from start without entering any blocked vertex."""
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in g.out_edges[x]:
            if y not in seen and y not in blocked:
                seen.add(y)
                queue.append(y)
    return seen


def verify_blocking(g: Digraph, cert: BlockingCertificate) -> bool:
    """True iff (U, B) actually blocks, checked by plain reachability.

    In the vertex-deleted graph G - B the sink must be unreachable from
    every u in U, and the reachability sets of distinct U vertices must be
    pairwise disjoint.
    """
    U, B = cert.U, cert.B
    if not U or not B or (U & B) or g.sink in U:
        return False
    if any(not 0 <= v < g.n for v in U | B):
        return False
    owner: dict[int, int] = {}
    for u in sorted(U):
        reach = _reach_avoiding(g, u, B)
        if g.sink in reach:
            return False
        for x in reach:
            if x in owner:
                return False
            owner[x] = u
    return True


def _has_low_degree_escape(t: InTree, g: Digraph, u: int, k: int) -> bool:
    """Re-test: can u reach outside subtree(u) along vertices of degree
    <= k-2 (interior confined to the subtree)?  Independent of the solver's
    own path search by design."""
    inside = t.subtree(u)
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.out_edges[x]:
            if y in seen:
                continue
            if y not in inside:
                if t.deg(y) <= k - 2:
                    return True
                continue
            if t.deg(y) <= k - 2:
                seen.add(y)
                queue.append(y)
    return False


def _first_exits(t: InTree, g: Digraph, u: int) -> set[int]:
    """All first vertices outside subtree(u) reachable from u through it."""
    inside = t.subtree(u)
    seen = {u}
    exits: set[int] = set()
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.out_edges[x]:
            if y in inside:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
            else:
                exits.add(y)
    return exits


def _verify_or_die(g: Digraph, cert: BlockingCertificate, context: str) -> BlockingCertificate:
    if not verify_blocking(g, cert):
        raise CertificateError(
            f"{context} certificate failed verification: "
            f"k={cert.k} U={sorted(cert.U)} B={sorted(cert.B)}"
        )
    return replace(cert, verified=True)


def extract_local_certificate(t: InTree, g: Digraph, k: int) -> BlockingCertificate:
    """Certificate for a stalled improvement search at degree class k.

    U collects the pairwise-unrelated children of the degree-k class that
    have degree <= k-2 and no low-degree escape (each one re-tested here,
    ignoring the potential gate); B is the degree >= k-1 layer.  Witnesses
    of degree >= k-1 are left out of U: they belong on the blocking side,
    where they are already counted.
    """
    picks = t.unrelated_children(k)
    U = frozenset(
        u
        for u in picks
        if t.deg(u) <= k - 2 and not _has_low_degree_escape(t, g, u, k)
    )
    if not U:
        raise EmptyWitness(f"no blocked witnesses at degree class {k}")
    B = frozenset(t.vertices_with_deg_at_least(k - 1)) - U
    if not B:
        raise EmptyWitness(f"empty blocking set at degree class {k}")
    return _verify_or_die(g, BlockingCertificate(U, B, k), "local-search")


def extract_augment_certificate(t: InTree, g: Digraph, st) -> BlockingCertificate:
    """Certificate for a layered search whose level growth stalled.

    U is the union of all level start sets, each member re-tested to have
    no exit of degree <= k-2; B joins every discovered level with the
    degree >= k+1 layer.  All exits of U members then land in B, confining
    each witness to its own subtree.
    """
    k = st.k
    U = frozenset(
        u
        for level in st.levels_U
        for u in level
        if not any(t.deg(x) <= k - 2 for x in _first_exits(t, g, u))
    )
    if not U:
        raise EmptyWitness(f"no blocked witnesses at degree class {k}")
    B = frozenset(
        set().union(*st.levels_V) | t.vertices_with_deg_at_least(k + 1)
    ) - U
    if not B:
        raise EmptyWitness(f"empty blocking set at degree class {k}")
    return _verify_or_die(g, BlockingCertificate(U, B, k), "augmenting")

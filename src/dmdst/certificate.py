"""Blocking-set lower bounds on the optimal tree degree.

A pair (U, B) blocks when every path from a U vertex to the sink first
enters B, and paths from distinct U vertices cannot meet before entering
B.  Any spanning in-tree must then route |U| disjoint path prefixes into
B vertices, so some B vertex has tree in-degree at least |U|/|B|.

Both solvers turn a stall into a certificate the same way, after Krishnan
& Raghavachari (FSTTCS 2001): the solver names its stall's blocking set B,
and extract_certificate reads only the graph and B, no tree and no solver
state, so it cannot inherit a solver bug.  Its U is the vertices outside B
whose out-edges all enter B.  verify_blocking then checks the two
properties directly on the graph before any certificate is emitted: it is
the artifact's trust anchor.  It reads only a graph's n, sink and
out_edges, so any object with those three checks alike.

Both begin with one pass at C speed.  Extraction tests every out-set
against B.  Verification screens: it accepts at once when every
witness's out-list lies inside B, since each reach set in G - B is then
the witness alone, and walks the graph only when that screen fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .graph import Digraph


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
        """Raises TypeError on a side that is not a list of int vertices,
        on a k, bound_num or bound_den that is not an int (bools
        included), or on a verified flag that is not a bool.  Raises
        ValueError on a side that lists a vertex twice, or on a declared
        bound other than |U|/|B| in lowest terms.  An empty B declares no
        bound that could be checked: verify_blocking rejects it."""
        for key in ("k", "bound_num", "bound_den"):
            if type(d[key]) is not int:
                raise TypeError(f"certificate {key} {d[key]!r} is not an int")
        verified = d.get("verified", False)
        if type(verified) is not bool:
            raise TypeError(f"certificate verified flag {verified!r} is not a bool")
        cert = cls(U=_vertex_set(d["U"]), B=_vertex_set(d["B"]), k=d["k"], verified=verified)
        num, den = d["bound_num"], d["bound_den"]
        if cert.B:
            b = cert.bound
            if (num, den) != (b.numerator, b.denominator):
                raise ValueError(f"certificate bound {num}/{den} is not |U|/|B| = {b}")
        return cert


def _vertex_set(side: list) -> frozenset[int]:
    """A certificate side's vertices, which must be distinct ints (not
    bools)."""
    if not set(map(type, side)) <= {int}:  # screened at C speed
        bad = next(v for v in side if type(v) is not int)
        raise TypeError(f"certificate vertex {bad!r} is not an int")
    vertices = frozenset(side)
    if len(vertices) != len(side):
        raise ValueError("certificate side lists a vertex twice")
    return vertices


# verify_blocking's owner marks besides a witness, which marks what it
# reaches with its own (non-negative) vertex number
_FREE, _BLOCKED, _SINK = -1, -2, -3


def verify_blocking(g: Digraph, cert: BlockingCertificate) -> bool:
    """True iff (U, B) actually blocks, checked by plain reachability.

    In the vertex-deleted graph G - B the sink must be unreachable from
    every u in U, and the reachability sets of distinct U vertices must be
    pairwise disjoint.  When every witness's out-list lies inside B, each
    reach set is the witness alone, so both hold: that screen runs at C
    speed and settles the common case.  Otherwise one walk checks both:
    an owner array, with B pre-filled as never entered, records the
    witness that reached each vertex.  Witnesses go in increasing order;
    each fails if an earlier one owns it, or if its search from it
    reaches the sink or a vertex another witness owns.  Reads only g.n,
    g.sink and g.out_edges.
    """
    U, B = cert.U, cert.B
    if not U or not B or (U & B) or g.sink in U:
        return False
    everything = U | B
    if min(everything) < 0 or max(everything) >= g.n:
        return False
    out_edges = g.out_edges
    if all(map(B.issuperset, map(out_edges.__getitem__, U))):
        return True
    owner = [_FREE] * g.n
    owner[g.sink] = _SINK
    for b in B:  # a sink in B is never entered, like any B vertex
        owner[b] = _BLOCKED
    for u in sorted(U):
        if owner[u] != _FREE:
            return False
        owner[u] = u
        stack = [u]
        while stack:
            for y in out_edges[stack.pop()]:
                o = owner[y]
                if o == _FREE:
                    owner[y] = u
                    stack.append(y)
                elif o != u and o != _BLOCKED:  # the sink or another's
                    return False
    return True


def _verify_or_die(g: Digraph, cert: BlockingCertificate) -> BlockingCertificate:
    if not verify_blocking(g, cert):
        raise CertificateError(
            f"stall certificate failed verification: "
            f"k={cert.k} U={sorted(cert.U)} B={sorted(cert.B)}"
        )
    return BlockingCertificate(cert.U, cert.B, cert.k, verified=True)


def extract_certificate(g: Digraph, B: set[int] | frozenset[int], k: int) -> BlockingCertificate:
    """Certificate for a search that stalled at degree class k, given the
    stall's blocking set B.

    U is every vertex outside B, other than the sink, whose out-edges all
    enter B: one pass tests every out-set against B, then B and the sink
    are removed.  In G - B each such vertex reaches only itself, so the reach
    sets are disjoint singletons and none holds the sink.  B then shrinks
    to the vertices that U enters, which keeps that true and can only
    raise the bound.  Raises EmptyWitness when no vertex qualifies.
    """
    out_sets = g.out_sets
    U = frozenset(compress(range(g.n), map(B.issuperset, out_sets))) - B - {g.sink}
    if not U:
        raise EmptyWitness(f"no blocked witnesses at degree class {k}")
    entered = frozenset().union(*map(out_sets.__getitem__, U))
    return _verify_or_die(g, BlockingCertificate(U, entered, k))

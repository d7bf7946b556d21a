"""Independent checks of solver output.

Nothing here trusts the solver's own bookkeeping: the graph text is read
with a separate parser, the tree is rebuilt from the report's parent
array with a plain parent walk, and degrees are recounted.  Certificates
are re-tested with the package's `verify_blocking`, the reachability
check that is kept apart from solver code as the trust anchor, run on
this module's own reading of the graph.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction


class Graph:
    """The graph text read without the package parser.

    Holds the edge set for the tree check, the n, sink and out_edges
    attributes that verify_blocking reads, and the in-edges in text order
    for the starting-tree degree.
    """

    def __init__(self, text: str) -> None:
        rows = [
            line.split()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        self.n, _, self.sink = (int(x) for x in rows[1])
        pairs = [(int(u), int(v)) for u, v in rows[2:]]
        self.edges = set(pairs)
        self.out_edges: list[list[int]] = [[] for _ in range(self.n)]
        self.in_edges: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in pairs:
            self.out_edges[u].append(v)
            self.in_edges[v].append(u)

    def bfs_degree(self) -> int:
        """Maximum number of children in the breadth-first in-tree from the
        sink over reversed edges, taken in the graph text's order: the
        starting tree the solvers describe, and Δ_initial of every cell."""
        children = [0] * self.n
        seen = [False] * self.n
        seen[self.sink] = True
        queue = deque([self.sink])
        while queue:
            v = queue.popleft()
            for u in self.in_edges[v]:
                if not seen[u]:
                    seen[u] = True
                    children[v] += 1
                    queue.append(u)
        return max(children)


def canonical(report_text: str) -> str:
    """The report with its one unstable field, wall_time_ms, removed."""
    d = json.loads(report_text)
    d.pop("wall_time_ms", None)
    return json.dumps(d, sort_keys=True)


def check_report(g: Graph, report: dict, verify_blocking, certificate_cls) -> str | None:
    """First problem found in one parsed solver report, or None.

    Checks: every vertex other than the sink has a parent along a graph
    edge, every parent walk reaches the sink, delta_final equals the
    recounted maximum number of children, and any certificate is sound:
    flagged verified, |U|/|B| equal to the reported bound, no more than
    delta_final, and blocking by reachability.
    """
    n, sink = g.n, g.sink
    parent = report["parent"]
    if len(parent) != n:
        return f"parent array has {len(parent)} entries for n={n}"
    children = [0] * n
    for v, p in enumerate(parent):
        if v == sink:
            if p != -1:
                return f"sink {v} has parent {p}"
        elif (v, p) not in g.edges:
            return f"tree edge ({v}, {p}) is not a graph edge"
        else:
            children[p] += 1
    settled = [False] * n
    settled[sink] = True
    for v in range(n):
        walk = []
        cur = v
        while not settled[cur]:
            if len(walk) > n:
                return f"parent walk from {v} never reaches the sink"
            walk.append(cur)
            cur = parent[cur]
        for w in walk:
            settled[w] = True
    if max(children) != report["delta_final"]:
        return (
            f"delta_final {report['delta_final']} but the tree has "
            f"degree {max(children)}"
        )
    cert = report["certificate"]
    lb = report["lower_bound"]
    if cert is None:
        return None if lb is None else "lower bound reported without a certificate"
    bound = Fraction(len(cert["U"]), len(cert["B"]))
    if lb is None or Fraction(lb["num"], lb["den"]) != bound:
        return f"lower bound {lb} differs from |U|/|B| = {bound}"
    if Fraction(cert["bound_num"], cert["bound_den"]) != bound:
        return "certificate bound differs from |U|/|B|"
    if not cert["verified"]:
        return "certificate not flagged verified"
    if math.ceil(bound) > report["delta_final"]:
        return f"bound {bound} exceeds the degree {report['delta_final']} of a real tree"
    if not verify_blocking(g, certificate_cls.from_dict(cert)):
        return "certificate does not block"
    return None

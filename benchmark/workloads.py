"""Seeded instance pools for the three benchmark workloads.

Each workload is a fixed list of instance specs; building a spec runs one
of the package's generators and serialises the graph to the text form
`dmdst solve` reads.  The solvers only ever see that text.

Sizes, edge densities and blocker shapes are fixed; the seed feeds the
generators' random streams, so another seed gives other graphs of the
same shapes.  Each percentile is decided by many distinct instances of
similar size, so that it moves little from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

SPARSE_COUNT = 80
DENSE_COUNT = 50
BLOCKERS = [
    (5, 5), (6, 10), (8, 8), (10, 20), (12, 15), (15, 30), (20, 20), (20, 40),
    (25, 30), (30, 60), (8, 40), (16, 12), (6, 30), (10, 50), (24, 10), (30, 20),
    (4, 3), (7, 6), (9, 12), (11, 9), (5, 8), (6, 4), (7, 12), (9, 5), (12, 6),
    # one shape repeated, so that augment p90 falls inside a cluster of
    # similar solves rather than on one seeded instance
    (25, 30), (25, 30), (25, 30), (25, 30), (25, 30),
]


@dataclass(frozen=True)
class Spec:
    family: str
    n: int = 0
    extra: int = 0
    k: int = 0
    fanout: int = 0
    seed: int = 0

    @property
    def label(self) -> str:
        if self.family == "random":
            return f"random-n{self.n}-m{self.n - 1 + self.extra}-s{self.seed}"
        if self.family == "blocker":
            return f"blocker-k{self.k}-f{self.fanout}-s{self.seed}"
        return f"{self.family}-n{self.n}"

    def build(self, gen):
        """Generate the graph through the package's generator module."""
        if self.family == "random":
            return gen.gen_random(self.n, self.extra, self.seed)
        if self.family == "complete":
            return gen.gen_complete(self.n)
        if self.family == "instar":
            return gen.gen_instar(self.n)
        if self.family == "path":
            return gen.gen_path(self.n)
        if self.family == "blocker":
            return gen.gen_blocker(self.k, self.fanout, self.seed)
        raise ValueError(f"unknown family {self.family!r}")


def skewed_sizes(count: int, lo: int, hi: int, skew: float) -> list[int]:
    """count sizes from lo to hi, geometric in (i/(count-1))**skew."""
    return [
        round(lo * (hi / lo) ** ((i / (count - 1)) ** skew)) for i in range(count)
    ]


def sparse_random(seed: int) -> list[Spec]:
    """gen_random with m = 3n: n from 500 to 650, then n = 1000 and 2000.

    The two large instances sit beyond p90; they load the traced run's
    size-dependent layers without deciding any percentile.
    """
    sizes = skewed_sizes(SPARSE_COUNT, 500, 650, 1.0) + [1000, 2000]
    return [
        Spec("random", n=n, extra=2 * n + 1, seed=seed * 1000 + i)
        for i, n in enumerate(sizes)
    ]


def dense(seed: int) -> list[Spec]:
    """gen_complete at n = 100, 200, 400 plus gen_random with m = 30n..100n
    (at most 0.6 n(n-1)) for n from 100 to 400.

    Complete n=400 starts at degree 399, where the augmenting search's
    base-c potential overflows a float: a known failure kept on purpose.
    """
    specs = [Spec("complete", n=n) for n in (100, 200, 400)]
    for i, n in enumerate(skewed_sizes(DENSE_COUNT, 100, 400, 2.5)):
        ratio = min(30 + (i * 29) % 71, (n - 1) * 6 // 10)
        specs.append(Spec("random", n=n, extra=ratio * n - (n - 1), seed=seed * 1000 + i))
    return specs


def blocked(seed: int) -> list[Spec]:
    """gen_blocker at several (k, fanout), gen_instar up to n=400, gen_path
    up to n=2000.

    Instar n=400 is the augmenting search's float-overflow cell, kept on
    purpose; every other instar stays below degree 310.  Instar and path
    have no randomness; the seed picks the blockers' escape edges.
    """
    specs = [
        Spec("blocker", k=k, fanout=fanout, seed=seed * 1000 + i)
        for i, (k, fanout) in enumerate(BLOCKERS)
    ]
    specs += [Spec("instar", n=n) for n in skewed_sizes(12, 40, 300, 1.0)]
    specs.append(Spec("instar", n=400))
    specs += [Spec("path", n=n) for n in skewed_sizes(12, 100, 2000, 2.5)]
    return specs


POOLS = {"sparse-random": sparse_random, "dense": dense, "blocked": blocked}

"""The search loop both solvers share, and the one place reports are built.

Both solvers build a start tree, pick a degree class k by a potential
argmax, apply adjustments whose potential strictly drops, and turn a stall
into a blocking certificate.  A solver supplies only attempt(t, k), which
applies one adjustment at class k and returns its trace row, or returns a
Stall that names the stall's blocking set; the driver owns the rest,
extract_certificate included.

No round raises a base to a power.  The start tree's Delta never rises, so
every degree a solve meets is at most that Delta, and each solve computes
its powers once, in tables of that length: the driver's rank table, which
the argmax reads, and each solver's power table (power_table), which its
potential reads.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, NamedTuple

from .certificate import BlockingCertificate, EmptyWitness, extract_certificate
from .config import Config
from .graph import Digraph
from .report import SolveReport
from .tree import InTree


class Stall(NamedTuple):
    """No admissible adjustment at class k.  blocking is the set B that
    extract_certificate(g, blocking, k) certifies from: the vertices the
    solver's adjustments at class k could not route through.  row is the
    trace row the stall leaves, if any."""

    blocking: set[int]
    row: dict | None = None


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


def search(
    g: Digraph, cfg: Config, algorithm: str, attempt: Callable[[InTree, int], dict | Stall],
    *, build: Callable[[Digraph], InTree], choose_k: Callable[[InTree, list[int]], int],
    base: int | Fraction, stop_power: int, trace: bool,
) -> SolveReport:
    """Build the start tree, then attempt(t, choose_k(t, ranks)) while
    base**Delta exceeds stop_power, until a Stall; ranks is the base's rank
    table up to the start tree's Delta, which also decides that gate.

    The stall's certificate is extract_certificate(g, blocking, k), or none
    when it finds no witness.  The paper profile's guarantee is proved when
    the loop reached its threshold or the stall was certified.
    """
    start = time.perf_counter()
    t = build(g)
    delta_initial = t.max_deg
    ranks = rank_table(base, delta_initial)
    bar = stop_bar(base, stop_power, delta_initial)
    rows: list[dict] | None = [] if trace else None
    applications = 0
    certificate: BlockingCertificate | None = None
    exit_reason = "threshold"
    while ranks[t.max_deg] > bar:
        k = choose_k(t, ranks)
        outcome = attempt(t, k)
        if not isinstance(outcome, Stall):
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

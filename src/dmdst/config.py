"""Solver configuration and the paper/practical profile split."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import ClassVar

PROFILES = ("paper", "practical")


def _check_epsilon(epsilon: float) -> None:  # before 1/epsilon is taken
    if not 0.0 < epsilon < 0.25:
        raise ValueError(f"epsilon must be in (0, 1/4), got {epsilon}")


@dataclass(frozen=True)
class Config:
    """Knobs shared by both solvers.

    profile "paper" keeps the loop thresholds that back the approximation
    guarantee; "practical" sets both stop thresholds to 0 so the solvers
    keep improving for as long as any gated adjustment exists.  base_c is
    an int, so base-c potentials are exact: the least integer >= 4 and
    >= 2*log2(n)**0.4 that exceeds 1/epsilon exactly (10 at epsilon 0.1).
    psi_factor is the local search's fixed gate, not a setting.
    """

    psi_factor: ClassVar[Fraction] = Fraction(1, 8)

    epsilon: float = 0.1
    profile: str = "practical"
    base_c: int = 10
    stop_threshold_local: float = 0.0
    stop_threshold_aug: float = 0.0

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        c = self.base_c
        if not isinstance(c, int) or c < 4 or c <= 1 / Fraction(self.epsilon):
            raise ValueError(f"base_c must be an int >= 4 and > 1/epsilon, got {c}")

    @classmethod
    def for_n(cls, n: int, profile: str = "practical", epsilon: float = 0.1) -> "Config":
        """Resolve the n-dependent defaults for an n-vertex instance."""
        _check_epsilon(epsilon)
        log_n = math.log2(n) if n > 1 else 0.0
        base_c = max(4, math.floor(1 / Fraction(epsilon)) + 1, math.ceil(2.0 * log_n ** 0.4))
        if profile == "paper":
            stop_local = 34.0 * log_n
            stop_aug = 2.0 * log_n / math.log2(base_c / 2.0)
        else:
            stop_local = 0.0
            stop_aug = 0.0
        return cls(
            epsilon=epsilon,
            profile=profile,
            base_c=base_c,
            stop_threshold_local=stop_local,
            stop_threshold_aug=stop_aug,
        )

    @classmethod
    def for_graph(cls, g, **kwargs) -> "Config":
        return cls.for_n(g.n, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

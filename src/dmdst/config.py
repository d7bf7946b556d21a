"""Solver configuration and the paper/practical profile split.

A caller chooses two values, epsilon and the profile; everything else is
derived from them and the instance size n in one place, Config's
constructor.  epsilon is read as one exact rational, the float's binary
value (Fraction(0.1) = 3602879701896397/36028797018963968), by every
solver rule that uses it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field
from fractions import Fraction
from typing import ClassVar

PROFILES = ("paper", "practical")


@dataclass(frozen=True)
class Config:
    """Knobs shared by both solvers, resolved for an n-vertex instance.

    epsilon must lie in (0, 1/4) and is stored as Fraction(epsilon).
    base_c is the least int >= 4 and >= 2*log2(n)**0.4 that exceeds
    1/epsilon exactly (10 at epsilon 0.1), so base-c potentials are exact.
    profile "paper" keeps the loop thresholds that back the approximation
    guarantee; "practical" sets both stop thresholds to 0 so the solvers
    keep improving for as long as any gated adjustment exists.
    psi_factor is the local search's fixed gate, not a setting.
    """

    psi_factor: ClassVar[Fraction] = Fraction(1, 8)

    n: InitVar[int]
    epsilon: Fraction = Fraction(0.1)
    profile: str = "practical"
    base_c: int = field(init=False)
    stop_threshold_local: float = field(init=False)
    stop_threshold_aug: float = field(init=False)

    def __post_init__(self, n: int) -> None:
        # range first: Fraction(inf) and Fraction(nan) raise, 1/0 divides by zero
        if not 0 < self.epsilon < 0.25:
            raise ValueError(f"epsilon must be in (0, 1/4), got {self.epsilon}")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        eps = Fraction(self.epsilon)
        log_n = math.log2(n) if n > 1 else 0.0
        c = max(4, math.floor(1 / eps) + 1, math.ceil(2.0 * log_n ** 0.4))
        paper = self.profile == "paper"
        derived = {
            "epsilon": eps,
            "base_c": c,
            "stop_threshold_local": 34.0 * log_n if paper else 0.0,
            "stop_threshold_aug": 2.0 * log_n / (math.log2(c) - 1) if paper else 0.0,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def for_graph(cls, g, **kwargs) -> "Config":
        return cls(g.n, **kwargs)

    def to_dict(self) -> dict:
        """The five resolved values, epsilon as the caller's float."""
        return {**asdict(self), "epsilon": float(self.epsilon)}

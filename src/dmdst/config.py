"""Solver configuration and the paper/practical profile split.

A caller chooses two values, epsilon and the profile; everything else is
derived from them and the instance size n in one place, Config's
constructor.  epsilon is read as one exact rational, the float's binary
value (Fraction(0.1) = 3602879701896397/36028797018963968), by every
solver rule that uses it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import ClassVar

PROFILES = ("paper", "practical")


class ConfigError(ValueError):
    """An epsilon or profile outside its range: bad input."""


@dataclass(frozen=True)
class Config:
    """Knobs shared by both solvers, resolved for an n-vertex instance.

    epsilon must lie in (0, 1/4) and is stored as Fraction(epsilon).
    base_c is the least int >= 4 and >= 2*log2(n)**0.4 that exceeds
    1/epsilon exactly (10 at epsilon 0.1), so base-c potentials are exact.
    profile "paper" keeps the loop thresholds that back the approximation
    guarantee; "practical" sets both stop thresholds to 0 so the solvers
    keep improving for as long as any gated adjustment exists.
    The loops decide by the thresholds' exact int forms, since log2 is
    monotone: Delta > 34*log2(n) iff 2**Delta > stop_power_local = n**34,
    and Delta > 2*log2(n)/(log2(c) - 1) iff (c/2)**Delta > stop_power_aug
    = n**2 (c >= 4).  In the practical profile both powers are 1, which
    is Delta > 0.  The float thresholds are what a report's config shows.
    psi_factor is the local search's fixed gate, not a setting.
    """

    psi_factor: ClassVar[Fraction] = Fraction(1, 8)

    n: InitVar[int]
    epsilon: Fraction = Fraction(0.1)
    profile: str = "practical"
    base_c: int = field(init=False)
    stop_threshold_local: float = field(init=False)
    stop_threshold_aug: float = field(init=False)
    stop_power_local: int = field(init=False)
    stop_power_aug: int = field(init=False)

    def __post_init__(self, n: int) -> None:
        # range first: Fraction(inf) and Fraction(nan) raise, 1/0 divides by zero
        if not 0 < self.epsilon < 0.25:
            raise ConfigError(f"epsilon must be in (0, 1/4), got {self.epsilon}")
        if self.profile not in PROFILES:
            raise ConfigError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        eps = Fraction(self.epsilon)
        log_n = math.log2(n) if n > 1 else 0.0
        c = max(4, math.floor(1 / eps) + 1, math.ceil(2.0 * log_n ** 0.4))
        paper = self.profile == "paper"
        derived = {
            "epsilon": eps,
            "base_c": c,
            "stop_threshold_local": 34.0 * log_n if paper else 0.0,
            "stop_threshold_aug": 2.0 * log_n / (math.log2(c) - 1) if paper else 0.0,
            "stop_power_local": n ** 34 if paper else 1,
            "stop_power_aug": n ** 2 if paper else 1,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def for_graph(cls, g, **kwargs) -> "Config":
        return cls(g.n, **kwargs)

    def to_dict(self) -> dict:
        """A report's config: epsilon as the caller's float, the profile,
        base_c and the two float stop thresholds."""
        return {
            "epsilon": float(self.epsilon),
            "profile": self.profile,
            "base_c": self.base_c,
            "stop_threshold_local": self.stop_threshold_local,
            "stop_threshold_aug": self.stop_threshold_aug,
        }

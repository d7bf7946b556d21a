"""Solve reports: the stable JSON surface shared by all solvers.

A report is one line of compact JSON with sorted keys, as the standard
library's C encoder writes it.  Reading is json.loads, which takes the
indented layout of older reports alike.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .certificate import BlockingCertificate

SCHEMA_VERSION = 1
# the algorithms a report can come from: the two solvers and the exact oracle
ALGORITHMS = ("local", "augment", "exact")


class ReportFormatError(ValueError):
    """A report file is not a well-formed solve report: bad input."""


@contextmanager
def _any_int_length() -> Iterator[None]:
    """Lift Python's limit on int <-> decimal string conversion for the
    duration of one dump or load, then restore it.

    Trace rows carry exact base-c potentials, which at a tiny epsilon
    (c about 1/epsilon) run to thousands of digits.  Interpreters that
    predate the limit have no setter and need no lift.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(saved)


def _int_field(d: dict, key: str) -> int:
    """A report's int field, which must be an int (not a bool)."""
    value = d[key]
    if type(value) is not int:
        raise TypeError(f"{key} {value!r} is not an int")
    return value


def _parent_array(parent: list) -> list[int]:
    """A report's parent array, whose entries must be ints (not bools)."""
    parent = list(parent)
    if not set(map(type, parent)) <= {int}:  # screened at C speed
        bad = next(p for p in parent if type(p) is not int)
        raise TypeError(f"parent entry {bad!r} is not an int")
    return parent


@dataclass
class SolveReport:
    algorithm: str
    profile: str
    n: int
    m: int
    delta_initial: int
    delta_final: int
    lower_bound: Fraction | None
    certificate: BlockingCertificate | None
    iterations: int
    potential_trace: list[dict] | None
    layers_trace: list[dict] | None
    parent: list[int]
    wall_time_ms: float
    config: dict
    guarantee: str
    exit_reason: str

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "profile": self.profile,
            "n": self.n,
            "m": self.m,
            "delta_initial": self.delta_initial,
            "delta_final": self.delta_final,
            "lower_bound": None
            if self.lower_bound is None
            else {
                "num": self.lower_bound.numerator,
                "den": self.lower_bound.denominator,
            },
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "iterations": self.iterations,
            "parent": list(self.parent),
            "wall_time_ms": self.wall_time_ms,
            "config": dict(self.config),
            "guarantee": self.guarantee,
            "exit_reason": self.exit_reason,
        }
        if self.potential_trace is not None:
            out["potential_trace"] = self.potential_trace
        if self.layers_trace is not None:
            out["layers_trace"] = self.layers_trace
        if self.algorithm == "augment":
            out["epsilon"] = self.config.get("epsilon")
            out["c"] = self.config.get("base_c")
        return out

    def to_json(self) -> str:
        """The report as one line: compact JSON with sorted keys, which the
        standard library's C encoder writes, and a newline."""
        with _any_int_length():
            return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "SolveReport":
        """Raises ReportFormatError on a missing key or a wrongly shaped
        value: the algorithm must be one of ALGORITHMS, since verification
        rules differ by algorithm; n, m, delta_initial, delta_final,
        iterations, lower_bound's num and den and every parent entry must
        be ints, and bools are not; a certificate must pass
        BlockingCertificate.from_dict."""
        if not isinstance(d, dict):
            raise ReportFormatError(f"report must be a JSON object, not {type(d).__name__}")
        try:
            algorithm = d["algorithm"]
            if algorithm not in ALGORITHMS:
                raise ReportFormatError(f"unknown algorithm {algorithm!r}")
            lb = d.get("lower_bound")
            cert = d.get("certificate")
            return cls(
                algorithm=algorithm,
                profile=d["profile"],
                n=_int_field(d, "n"),
                m=_int_field(d, "m"),
                delta_initial=_int_field(d, "delta_initial"),
                delta_final=_int_field(d, "delta_final"),
                lower_bound=None
                if lb is None
                else Fraction(_int_field(lb, "num"), _int_field(lb, "den")),
                certificate=None if cert is None else BlockingCertificate.from_dict(cert),
                iterations=_int_field(d, "iterations"),
                potential_trace=d.get("potential_trace"),
                layers_trace=d.get("layers_trace"),
                parent=_parent_array(d["parent"]),
                wall_time_ms=d["wall_time_ms"],
                config=d.get("config", {}),
                guarantee=d["guarantee"],
                exit_reason=d.get("exit_reason", ""),
            )
        except KeyError as exc:
            raise ReportFormatError(f"malformed report: missing key {exc}") from exc
        except ReportFormatError:
            raise
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ReportFormatError(f"malformed report: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        """Raises ReportFormatError on JSON nested deeper than the decoder
        recurses, as well as where from_dict does."""
        with _any_int_length():
            try:
                data = json.loads(text)
            except RecursionError as exc:
                raise ReportFormatError("malformed report: JSON nested too deeply") from exc
        return cls.from_dict(data)

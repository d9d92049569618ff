"""Exact rational arithmetic and the shortfall decomposition delta = s - r/q.

Every rational this package takes or returns is a `fractions.Fraction`:
stored reduced, denominator positive, so equality is structural and values
hash cleanly. There is no floating point anywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

# wire format: optional sign, digits, optional '/digits' -- no floats
_RATIONAL_FORMAT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format '3', '-5/6', '+7/2'. Floats are rejected."""
    if not _RATIONAL_FORMAT.fullmatch(text):
        raise ValueError(f"malformed rational literal: {text!r}")
    return Fraction(text)  # raises ZeroDivisionError on 'p/0'


def rational_str(x) -> str:
    """Wire format for a rational: '3', '-5/6'. Denominator 1 prints bare."""
    return str(Fraction(x))


def floor_frac(x) -> tuple[int, Fraction]:
    """Split x into (floor, fractional part), with 0 <= frac < 1 exactly."""
    x = Fraction(x)
    fl = math.floor(x)
    return fl, x - fl


def canonical_q(x) -> int:
    """Smallest positive q with q*x an integer: the reduced denominator."""
    return Fraction(x).denominator


@dataclass(frozen=True)
class SRQ:
    """Decomposition delta = s - r/q with s = floor(delta) + 1.

    s counts the shortfall rounded up to whole units; r = q*(1 - frac(delta))
    measures how far delta sits below s, in steps of 1/q. Invariants:
    s >= 0 and 1 <= r <= q.
    """

    s: int
    r: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        if not 1 <= self.r <= self.q:
            raise ValueError(f"r must lie in [1, {self.q}], got {self.r}")
        if self.s < 0:
            raise ValueError(f"s must be nonnegative, got {self.s}")

    @property
    def delta(self) -> Fraction:
        return self.s - Fraction(self.r, self.q)


def srq_decompose(delta, q: int) -> SRQ:
    """Write delta = s - r/q. Requires delta >= -1 and q*delta integral."""
    delta = Fraction(delta)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    if delta < -1:
        raise ValueError(f"delta must be >= -1, got {delta}")
    if (q * delta).denominator != 1:
        raise ValueError(f"q*delta must be an integer, got q={q}, delta={delta}")
    fl, frac = floor_frac(delta)
    r = q * (1 - frac)  # exact integer since q*delta is integral
    return SRQ(s=fl + 1, r=int(r), q=q)


def near_one_check(n: int, p: int, q: int) -> bool:
    """True iff 1 - 1/n <= p/q < 1.

    Whenever the hypothesis holds, the denominator cannot be small: n <= q.
    That consequence is asserted here as a consistency check.
    """
    if min(n, p, q) < 1:
        raise ValueError(f"n, p, q must be positive integers, got {(n, p, q)}")
    holds = (n - 1) * q <= n * p and p < q
    if holds:
        assert n <= q, f"near-one bound violated at n={n}, p={p}, q={q}"
    return holds

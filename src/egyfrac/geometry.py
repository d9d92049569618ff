"""Dictionary between boundary divisors on projective space and
unit-fraction arithmetic.

A log structure is a dimension together with boundary coefficients drawn
from the standard set {1 - 1/m : m >= 1} plus {1}. With k finite
coefficients 1 - 1/m_i and c coefficients equal to one, the degree
("volume") v = -(dim + 1) + sum of coefficients satisfies the exact
dictionary

    sum_i 1/m_i = k - (dim - c + 1 + v),

so volume questions translate into deficiency questions about the tuple
(m_1, ..., m_k) and the sharp bounds apply with delta = dim - c + 1 + v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import gap_amount, lcm_bound
from .egyptian import reciprocal_sum
from .rationals import as_int, as_rational, canonical_q, reduced


@dataclass(frozen=True)
class StandardCoefficient:
    """One boundary coefficient: 1 - 1/m for finite m, or exactly 1.

    m = None encodes the coefficient 1.
    """

    m: int | None = None

    def __post_init__(self):
        if self.m is not None:
            as_int(self.m, "m")

    @property
    def is_one(self) -> bool:
        return self.m is None

    @property
    def value(self) -> Fraction:
        return Fraction(1) if self.m is None else 1 - Fraction(1, self.m)


ONE = StandardCoefficient()


def finite(m: int) -> StandardCoefficient:
    """The coefficient 1 - 1/m."""
    return StandardCoefficient(m)


@dataclass(frozen=True)
class LogStructure:
    """A dimension plus a tuple of standard boundary coefficients."""

    dim: int
    coefficients: tuple[StandardCoefficient, ...]

    def __post_init__(self):
        as_int(self.dim, "dimension")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        for c in self.coefficients:
            if not isinstance(c, StandardCoefficient):
                raise ValueError(f"coefficients must be StandardCoefficient, got {c!r}")

    @property
    def finite_denominators(self) -> tuple[int, ...]:
        """The m values of the finite coefficients, in nondecreasing order."""
        return tuple(sorted(c.m for c in self.coefficients if not c.is_one))

    @property
    def ones_count(self) -> int:
        return sum(1 for c in self.coefficients if c.is_one)


def _less_finite_sum(whole: int, ls: LogStructure) -> Fraction:
    """whole - sum of 1/m over the finite coefficients, as one Fraction."""
    num, den = reciprocal_sum(c.m for c in ls.coefficients if not c.is_one)
    # num is coprime to den, so whole * den - num is too
    return reduced(whole * den - num, den, 1)


def volume(ls: LogStructure) -> Fraction:
    """Degree v = -(dim + 1) + sum of the boundary coefficients: each
    coefficient adds 1, less 1/m if it is finite."""
    return _less_finite_sum(len(ls.coefficients) - ls.dim - 1, ls)


def deficiency(ls: LogStructure) -> Fraction:
    """The delta = dim - c + 1 + v matching the finite-part tuple.

    Equals the reciprocal-sum shortfall k - sum of 1/m of the k finite
    denominators, so it is always >= 0.
    """
    return _less_finite_sum(len(ls.coefficients) - ls.ones_count, ls)


def _threshold(dim: int, t) -> Fraction:
    as_int(dim, "dimension")
    return as_rational(t, "threshold", 0)


def gap_bound(dim: int, t, q: int) -> Fraction:
    """When the volume exceeds a threshold t >= 0, it exceeds it by at least
    q*(1 - frac(t)) / u(floor(t) + dim + 3, q): the gap amount at the
    deficiency delta = t + dim + 1 of a structure with no coefficient one.

    Requires q*t integral. This is the coefficient-count-free bound; see
    refined_index_bound for the sharper index that uses the number of
    coefficients equal to one.
    """
    return gap_amount(_threshold(dim, t) + dim + 1, q)


def index_bound(dim: int, t, q: int) -> Fraction:
    """Volume exactly at the threshold t caps the clearing index r by
    u(floor(t) + dim + 2, q) / (q*(1 - frac(t))): the lcm bound at the
    deficiency delta = t + dim + 1 of a structure with no coefficient one.

    Requires t >= 0 with q*t integral.
    """
    return lcm_bound(_threshold(dim, t) + dim + 1, q)


def refined_index_bound(dim: int, ones: int, t, q: int) -> Fraction:
    """Sharper index cap u(floor(t) + dim - ones + 2, q) / (q*(1 - frac(t)))
    available when `ones` coefficients equal one: the lcm bound at the
    deficiency delta = t + dim - ones + 1, which must stay >= 0.
    """
    t = _threshold(dim, t)
    return lcm_bound(t + dim - as_int(ones, "ones", 0) + 1, q)


def bpf_index(ls: LogStructure) -> int:
    """Clearing index: the lcm r of the finite coefficient denominators.

    Requires nonnegative volume. r times every coefficient is an integer,
    since each m divides r; that r respects the index bound at threshold
    t = volume is the paper's claim, and is asserted.
    """
    v = volume(ls)
    if v < 0:
        raise ValueError(f"volume must be nonnegative, got {v}")
    r = math.lcm(*ls.finite_denominators)
    assert r <= index_bound(ls.dim, v, canonical_q(v)), (
        f"clearing index {r} above the index bound for {ls}"
    )
    return r

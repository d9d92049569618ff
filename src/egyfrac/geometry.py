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
from .rationals import canonical_q


@dataclass(frozen=True)
class StandardCoefficient:
    """One boundary coefficient: 1 - 1/m for finite m, or exactly 1.

    m = None encodes the coefficient 1.
    """

    m: int | None = None

    def __post_init__(self):
        if self.m is not None and (not isinstance(self.m, int) or self.m < 1):
            raise ValueError(f"finite coefficient needs integer m >= 1, got {self.m!r}")

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
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    @property
    def finite_denominators(self) -> tuple[int, ...]:
        """The m values of the finite coefficients, in nondecreasing order."""
        return tuple(sorted(c.m for c in self.coefficients if not c.is_one))

    @property
    def ones_count(self) -> int:
        return sum(1 for c in self.coefficients if c.is_one)


def volume(ls: LogStructure) -> Fraction:
    """Degree v = -(dim + 1) + sum of the boundary coefficients."""
    return -(ls.dim + 1) + sum((c.value for c in ls.coefficients), Fraction(0))


def deficiency(ls: LogStructure) -> Fraction:
    """The delta = dim - c + 1 + v matching the finite-part tuple.

    Equals the reciprocal-sum shortfall of the finite denominators, so it is
    always >= 0.
    """
    return ls.dim - ls.ones_count + 1 + volume(ls)


def _threshold(dim: int, t) -> Fraction:
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    return t


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
    if ones < 0:
        raise ValueError(f"ones count must be >= 0, got {ones}")
    return lcm_bound(t + dim - ones + 1, q)


def bpf_index(ls: LogStructure) -> int:
    """Clearing index: the lcm r of the finite coefficient denominators.

    Requires nonnegative volume. r times every coefficient is an integer,
    and r respects the index bound at threshold t = volume; both facts are
    asserted.
    """
    v = volume(ls)
    if v < 0:
        raise ValueError(f"volume must be nonnegative, got {v}")
    r = math.lcm(*ls.finite_denominators)
    for c in ls.coefficients:
        assert (r * c.value).denominator == 1, f"index {r} fails to clear {c}"
    assert r <= index_bound(ls.dim, v, canonical_q(v)), (
        f"clearing index {r} above the index bound for {ls}"
    )
    return r

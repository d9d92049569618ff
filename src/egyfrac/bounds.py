"""Sharp bounds on reciprocal sums and lcms, their extremal tuples, and the
classifier for the exact equality families.

Throughout, a k-tuple with reciprocal sum k - delta has "deficiency" delta;
delta >= -1 and q*delta integral. Writing delta = s - r/q (see SRQ):

  * no k-tuple sum lands in the open window
    (k - delta - r/u(s+1, q),  k - delta); the window floor is sharp.
  * within the class summing to exactly k - delta, lcm <= u(s, q)/r.

Both bounds are attained by explicit tuples built from the Sylvester
companion terms, constructed here, and only by those tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .egyptian import EgyptianTuple, as_tuple, tuple_lcm, tuple_sum
from .rationals import SRQ, srq_decompose
from .sylvester import sylvester_u


class EqualityFamily(Enum):
    NEGATIVE_DELTA = "NEGATIVE_DELTA"
    FRACTIONAL_DELTA = "FRACTIONAL_DELTA"
    SYLVESTER_GAP = "SYLVESTER_GAP"
    SYLVESTER_LCM = "SYLVESTER_LCM"
    TWO_TERM_LCM = "TWO_TERM_LCM"
    NONE = "NONE"


@dataclass(frozen=True)
class EqualityCase:
    """Classification result; witness is present exactly when a family matched."""

    tag: EqualityFamily
    witness: EgyptianTuple | None = None

    def __post_init__(self):
        if (self.tag is EqualityFamily.NONE) != (self.witness is None):
            raise ValueError("witness must be present iff tag is not NONE")


def gap_amount(delta, q: int) -> Fraction:
    """Width r / u(s+1, q) of the forbidden window below k - delta.

    >>> gap_amount(2, 1)
    Fraction(1, 42)
    """
    d = srq_decompose(delta, q)
    return Fraction(d.r, sylvester_u(d.s + 1, q))


def sharp_sum_bound(k: int, delta, q: int) -> Fraction:
    """Largest reciprocal sum a k-tuple can attain strictly below k - delta."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k - Fraction(delta) - gap_amount(delta, q)


def lcm_bound(delta, q: int) -> Fraction:
    """Upper bound u(s, q) / r on the lcm over tuples summing to k - delta.

    Defined only for delta >= 0: below that s = 0, where u is undefined, and
    the class of tuples is empty anyway. Negative delta is a hard error.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError(f"lcm bound requires delta >= 0, got {delta}")
    d = srq_decompose(delta, q)
    return Fraction(sylvester_u(d.s, q), d.r)


def _pattern(k: int, d: SRQ, closing: int) -> EgyptianTuple | None:
    """An extremal shape for d = srq_decompose(delta, q), unchecked: k-s ones,
    then (1 + u(i, q))/r for i < s, then (closing + u(s, q))/r.

    closing=1 gives extremal_gap_tuple's shape, closing=0 extremal_lcm_tuple's.
    None when k < s, returned at the first entry r fails to divide, before
    any later (larger) u is built.
    """
    if k < d.s:
        return None
    out = [1] * (k - d.s)
    for i in range(1, d.s + 1):
        num = (1 if i < d.s else closing) + sylvester_u(i, d.q)
        if num % d.r:
            return None
        out.append(num // d.r)
    return tuple(out)


def extremal_gap_tuple(k: int, delta, q: int) -> EgyptianTuple | None:
    """The unique k-tuple attaining the sharp sum bound, or None.

    Shape: k-s ones, then (1 + u(i, q))/r for i = 1..s. Absent when k < s or
    when r fails to divide some tail numerator. A tuple that is built is
    asserted to attain the bound, so every caller that builds one checks it.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    t = _pattern(k, srq_decompose(delta, q), 1)
    assert t is None or tuple_sum(t) == sharp_sum_bound(k, delta, q)
    return t


def extremal_lcm_tuple(k: int, delta, q: int) -> EgyptianTuple | None:
    """The unique lcm-maximizing k-tuple in the class summing to k - delta.

    Shape: k-s ones, then (1 + u(i, q))/r for i = 1..s-1, closed by
    u(s, q)/r. Absent when k < s or when any entry is non-integral; the
    integrality works out exactly for s=1 with r | q, s=2 with r | 1+q, and
    s >= 3 with r = 1. A tuple that is built is asserted to sum to k - delta
    and to attain lcm_bound.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError(f"extremal lcm tuple requires delta >= 0, got {delta}")
    t = _pattern(k, srq_decompose(delta, q), 0)
    if t is not None:
        assert tuple_sum(t) == k - delta
        assert tuple_lcm(t) == lcm_bound(delta, q)
    return t


def classify_equality(t: Iterable[int], delta, q: int) -> EqualityCase:
    """Which exact equality family, if any, a tuple belongs to.

    Membership is structural: the tuple must reproduce the extremal pattern
    for its deficiency, not merely match a bound numerically. Tuples summing
    to exactly k - delta are tested against the lcm families; tuples at the
    sharp sum bound against the gap families; anything else is NONE.

    The tuple is summed once. Having matched a bound's value, it is compared
    with the extremal pattern directly, without the constructors, whose
    asserts would sum it again (and, for lcm, take its lcm).

    Gap families by delta range: NEGATIVE_DELTA (all ones), FRACTIONAL_DELTA
    (0 <= delta < 1, single tail term (1+q)/r), SYLVESTER_GAP (delta >= 1).
    Lcm families: TWO_TERM_LCM for s = 2 with r > 1, else SYLVESTER_LCM.
    """
    t = as_tuple(t)
    delta = Fraction(delta)
    d = srq_decompose(delta, q)
    k = len(t)
    if k == 0:
        return EqualityCase(EqualityFamily.NONE)
    total = tuple_sum(t)

    if total == k - delta:
        if delta >= 0 and t == _pattern(k, d, 0):
            if d.s == 2 and d.r > 1:
                return EqualityCase(EqualityFamily.TWO_TERM_LCM, t)
            return EqualityCase(EqualityFamily.SYLVESTER_LCM, t)
        return EqualityCase(EqualityFamily.NONE)

    if total == sharp_sum_bound(k, delta, q) and t == _pattern(k, d, 1):
        if delta < 0:
            return EqualityCase(EqualityFamily.NEGATIVE_DELTA, t)
        if delta < 1:
            return EqualityCase(EqualityFamily.FRACTIONAL_DELTA, t)
        return EqualityCase(EqualityFamily.SYLVESTER_GAP, t)

    return EqualityCase(EqualityFamily.NONE)

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

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .egyptian import EgyptianTuple, as_tuple, check_terms, tuple_lcm, tuple_sum
from .rationals import SRQ, as_int, as_rational, reduced, srq_decompose
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
    u = sylvester_u(d.s + 1, q)
    return reduced(d.r, u, math.gcd(d.r, u))


def sharp_sum_bound(k: int, delta, q: int) -> Fraction:
    """Largest reciprocal sum a k-tuple can attain strictly below k - delta.

    With u = u(s+1, q), the bound is (k - s) + r/q - r/u = m/(q*u), where
    m = ((k - s)*q + r)*u - r*q. It is reduced by q*gcd(r*q, u), a gcd
    taken against the small r*q: m/q = (k - s)*u + r*(W - 1) with W = u/q,
    the product of the 1 + u(i, q) for i <= s, so W = 1 (mod q) and W is
    coprime to q and to W - 1; hence gcd(m/q, u) = gcd(r*(W - 1), q*W)
    = q*gcd(r, W) = gcd(r*q, u).
    """
    return _sharp_sum_bound(as_int(k, "k"), srq_decompose(delta, q))


def _sharp_sum_bound(k: int, d: SRQ) -> Fraction:
    """sharp_sum_bound for a valid k at d = srq_decompose(delta, q)."""
    u = sylvester_u(d.s + 1, d.q)
    m = ((k - d.s) * d.q + d.r) * u - d.r * d.q
    return reduced(m, d.q * u, d.q * math.gcd(d.r * d.q, u))


def lcm_bound(delta, q: int) -> Fraction:
    """Upper bound u(s, q) / r on the lcm over tuples summing to k - delta.

    Defined only for delta >= 0: below that s = 0, where u is undefined, and
    the class of tuples is empty anyway. Negative delta is a hard error.
    """
    return _lcm_bound(srq_decompose(as_rational(delta, "delta", 0), q))


def _lcm_bound(d: SRQ) -> Fraction:
    """lcm_bound at d = srq_decompose(delta, q) for a delta >= 0 (s >= 1)."""
    u = sylvester_u(d.s, d.q)
    return reduced(u, d.r, math.gcd(d.r, u))


def _pattern(k: int, d: SRQ, closing: int) -> EgyptianTuple | None:
    """An extremal shape for d = srq_decompose(delta, q), unchecked: k-s ones,
    then (1 + u(i, q))/r for i < s, then (closing + u(s, q))/r.

    closing=1 gives extremal_gap_tuple's shape, closing=0 extremal_lcm_tuple's.
    None when k < s, returned at the first entry r fails to divide, before
    any later (larger) u is built. A k past MAX_TERMS is refused first.
    """
    check_terms(k, "k")
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
    t = _pattern(as_int(k, "k"), srq_decompose(delta, q), 1)
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
    as_int(k, "k")
    delta = as_rational(delta, "delta", 0)
    t = _pattern(k, srq_decompose(delta, q), 0)
    if t is not None:
        assert tuple_sum(t) == k - delta
        assert tuple_lcm(t) == lcm_bound(delta, q)
    return t


def classify_equality(t: Iterable[int], delta, q: int) -> EqualityCase:
    """Which exact equality family, if any, a tuple belongs to.

    Membership is structural: the tuple must reproduce the extremal pattern
    for its deficiency, and matching the pattern settles its sum. By the
    Sylvester identity sum_{i<=p} 1/(1 + u(i, q)) = 1/q - 1/u(p+1, q), the
    lcm pattern (closed by u(s, q)/r) sums to exactly k - delta and the gap
    pattern (closed by (1 + u(s, q))/r) to the sharp sum bound
    k - delta - r/u(s+1, q). So the tuple is never summed: it is compared
    with the two patterns, and is NONE if it matches neither. The gap
    pattern's sum lies below k - delta by a positive gap, so no tuple is in
    both families.

    Gap families by delta range, read from s = floor(delta) + 1:
    NEGATIVE_DELTA (s = 0: all ones), FRACTIONAL_DELTA (s = 1,
    0 <= delta < 1: single tail term (1+q)/r), SYLVESTER_GAP (s >= 2).
    Lcm families: TWO_TERM_LCM for s = 2 with r > 1, else SYLVESTER_LCM.
    """
    t = as_tuple(t)
    tag = _family(t, srq_decompose(delta, q))
    return EqualityCase(tag, None if tag is EqualityFamily.NONE else t)


def _family(t: EgyptianTuple, d: SRQ) -> EqualityFamily:
    """classify_equality's tag for a valid t at d = srq_decompose(delta, q).

    The two patterns share all but their last entry: k - s ones, then
    (1 + u(i, q))/r for i < s. That part is checked once, each entry m as
    m*r == 1 + u(i, q), so no quotient is taken. The last entry then
    closes the lcm pattern when last*r == u(s, q) and the gap pattern when
    it is one more. At s = 0 both patterns are the k ones, and only the gap
    family is defined there.
    """
    k = len(t)
    s, r, q = d.s, d.r, d.q
    ones = k - s
    if k == 0 or ones < 0 or any(m != 1 for m in t[:ones]):
        return EqualityFamily.NONE
    for i in range(1, s):
        if t[ones + i - 1] * r != 1 + sylvester_u(i, q):
            return EqualityFamily.NONE
    closing = t[-1] * r - sylvester_u(s, q) if s else 1
    if closing == 0:
        if s == 2 and r > 1:
            return EqualityFamily.TWO_TERM_LCM
        return EqualityFamily.SYLVESTER_LCM
    if closing == 1:
        if s > 1:
            return EqualityFamily.SYLVESTER_GAP
        if s == 1:
            return EqualityFamily.FRACTIONAL_DELTA
        return EqualityFamily.NEGATIVE_DELTA
    return EqualityFamily.NONE

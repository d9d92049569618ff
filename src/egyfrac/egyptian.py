"""Unit-fraction tuples: greedy construction, term splitting, and exhaustive
enumeration of all representations with a fixed term count.

A representation of x is a nondecreasing tuple (m_1, ..., m_k) of positive
integers with sum of 1/m_i equal to x; denominators may repeat and may be 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .rationals import srq_decompose

EgyptianTuple = tuple[int, ...]


def as_tuple(denominators: Iterable[int]) -> EgyptianTuple:
    """Validate and freeze a nondecreasing tuple of positive denominators."""
    t = tuple(denominators)
    for i, m in enumerate(t):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"denominators must be positive integers, got {m!r}")
        if i and m < t[i - 1]:
            raise ValueError(f"denominators must be nondecreasing, got {t}")
    return t


def tuple_sum(t: Iterable[int]) -> Fraction:
    """Exact reciprocal sum; the empty tuple sums to 0."""
    return sum((Fraction(1, m) for m in t), Fraction(0))


def tuple_lcm(t: Iterable[int]) -> int:
    """Least common multiple of the denominators; 1 for the empty tuple."""
    return math.lcm(*t)


def greedy(x) -> EgyptianTuple:
    """Greedy representation: always take the largest unit fraction that fits.

    The next denominator is the smallest m >= 1 with m*x >= 1, so integer
    inputs emit leading 1s. The reduced numerator of the remainder drops
    strictly every step, which bounds the term count and forces termination.

    >>> greedy(Fraction(5, 6))
    (2, 3)
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"greedy needs a nonnegative input, got {x}")
    out = []
    while x:
        m = -(-x.denominator // x.numerator)  # ceil(1/x)
        out.append(m)
        x -= Fraction(1, m)
    return tuple(out)


def split_expand(t: Iterable[int], index: int) -> EgyptianTuple:
    """Replace the entry m at a 0-based index by m+1 and m*(m+1), re-sorted.

    Sum is preserved: 1/m = 1/(m+1) + 1/(m*(m+1)). Length grows by one.
    """
    t = as_tuple(t)
    if not 0 <= index < len(t):
        raise ValueError(f"index {index} out of range for {len(t)} entries")
    m = t[index]
    expanded = t[:index] + t[index + 1 :] + (m + 1, m * (m + 1))
    return tuple(sorted(expanded))


def position_range(
    prev: int, slots: int, room: tuple[int, int], need: tuple[int, int]
) -> range:
    """Admissible denominators at one enumeration position, in integers.

    room = (p, q) stands for p/q > 0, the most the next term 1/m may add (no
    overshoot); need = (p, q) for what the `slots` terms left must still
    cover, so slots/m >= need (even repeating m everywhere must not fall
    short). m >= prev keeps the tuple nondecreasing.
    """
    lo = max(prev, -(-room[1] // room[0]))
    hi = slots * need[1] // need[0]
    return range(lo, hi + 1)


def walk(k: int, low, cap) -> Iterator[tuple[list[int], int, int, int, int]]:
    """Depth-first walk over nondecreasing prefixes of k-term tuples, in
    lexicographic order, with the prefix sum kept as a reduced integer pair.

    Yields (prefix, slots, side, num, den) for every visited prefix, the
    empty one first: slots terms are still to place, num/den is the prefix
    sum, and side is an integer whose sign places that sum below (< 0), on
    (0) or above (> 0) low. Only a prefix below low with slots left gets
    children, the m in position_range with room cap - sum and need
    low - sum; cap >= low. The yielded list is reused: copy it to keep it.
    """
    a, b = low.numerator, low.denominator
    c, d = cap.numerator, cap.denominator
    prefix: list[int] = []

    def visit(prev: int, num: int, den: int):
        slots = k - len(prefix)
        side = num * b - a * den
        yield prefix, slots, side, num, den
        if side < 0 and slots:
            room = (c * den - num * d, d * den)
            for m in position_range(prev, slots, room, (-side, b * den)):
                prefix.append(m)
                child_num, child_den = num * m + den, den * m
                g = math.gcd(child_num, child_den)
                yield from visit(m, child_num // g, child_den // g)
                prefix.pop()

    return visit(1, 0, 1)


def iter_exact(x, k: int) -> Iterator[EgyptianTuple]:
    """Yield every k-term representation of x, in lexicographic order."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"target sum must be nonnegative, got {x}")
    if k < 0:
        raise ValueError(f"term count must be nonnegative, got {k}")
    for prefix, slots, side, _, _ in walk(k, x, x):
        if not slots and not side:
            yield tuple(prefix)


def enumerate_exact(x, k: int) -> list[EgyptianTuple]:
    """All k-term representations of x as a lexicographically sorted list.

    >>> enumerate_exact(1, 3)
    [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
    """
    return list(iter_exact(x, k))


def enumerate_deficiency(k: int, delta, q: int) -> list[EgyptianTuple]:
    """All k-tuples whose reciprocal sum is exactly k - delta.

    delta must be >= -1 with q*delta integral; the list is empty whenever
    k - delta falls outside [0, k] (in particular for every delta < 0).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    delta = Fraction(delta)
    srq_decompose(delta, q)  # validates delta >= -1 and q*delta integral
    target = k - delta
    if target < 0 or target > k:
        return []
    return enumerate_exact(target, k)

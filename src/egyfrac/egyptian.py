"""Unit-fraction tuples: greedy construction, term splitting, and exhaustive
enumeration of all representations with a fixed term count.

A representation of x is a nondecreasing tuple (m_1, ..., m_k) of positive
integers with sum of 1/m_i equal to x; denominators may repeat and may be 1.
"""

from __future__ import annotations

import bisect
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


def _prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, as {prime: exponent}."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# the most candidates a that two_term_pairs scans one by one, one test of
# x | q^2 each; a wider range is closed from the divisors of q^2, whose
# trial division costs up to about sqrt(q)/2 steps however wide the range
# (on the lcm grid of the benchmark, limits from 128 to 4096 time alike,
# and 256 to 1024 on the cell (6, 11/2, 2))
SCAN_LIMIT = 256


def two_term_pairs(prev: int, p: int, q: int) -> list[tuple[int, int]]:
    """Every pair prev <= a <= b with 1/a + 1/b == p/q, in increasing a.

    p/q > 0 must be reduced. Then q/p < a <= 2q/p, and the equation is
    (pa - q)(pb - q) = q^2, so a pair is a divisor x = pa - q <= q of q^2
    with x = -q (mod p); then q^2/x = -q (mod p) as well, since p is
    coprime to q, and b = (q^2/x + q)/p is whole. When the candidates a
    from max(prev, q//p + 1) to 2q//p number at most SCAN_LIMIT, their
    x = pa - q are scanned directly, one test x | q^2 each. More are
    closed from the divisors of q^2 that factoring q gives.

    >>> two_term_pairs(1, 1, 2)
    [(3, 6), (4, 4)]
    """
    lo = max(prev, q // p + 1)
    hi = 2 * q // p
    square = q * q
    if hi - lo < SCAN_LIMIT:
        return [
            ((x + q) // p, (square // x + q) // p)
            for x in range(p * lo - q, p * hi - q + 1, p)
            if square % x == 0
        ]
    divisors = [1]  # the divisors of q^2 up to q, kept sorted
    for prime, e in _prime_factors(q).items():
        grown = divisors[:]
        power = 1
        for _ in range(2 * e):
            power *= prime
            end = bisect.bisect_right(divisors, q // power)
            if not end:
                break
            grown += [d * power for d in divisors[:end]]
        divisors = sorted(grown)
    return [
        ((x + q) // p, (square // x + q) // p)
        for x in divisors[bisect.bisect_left(divisors, prev * p - q):]
        if (x + q) % p == 0
    ]


def walk(k: int, low, cap) -> Iterator[tuple[list[int], int, int, int, int]]:
    """Depth-first walk over nondecreasing prefixes of k-term tuples, in
    lexicographic order, with the prefix sum kept as a reduced integer pair.

    Yields (prefix, slots, side, num, den) for every visited prefix, the
    empty one first: slots terms are still to place, num/den is the prefix
    sum, and side is an integer whose sign places that sum below (< 0), on
    (0) or above (> 0) low. Only a prefix below low with slots left gets
    children, the m in position_range with room cap - sum and need
    low - sum; cap >= low. The yielded list is reused: copy it to keep it.

    An exact target (cap == low) stops at every prefix below it with two
    slots left: that prefix is yielded, but its children and grandchildren
    are not visited. Its consumer closes it with close_pairs, whose pairs
    complete it to every tuple summing to low. So an exact walk yields its
    prefixes with two or more slots (for k = 1, the root and its one leaf,
    if any), and expanding each two-slot prefix by its pairs gives every
    k-term tuple summing to low once, in lexicographic order.

    The walk is one loop over an explicit stack, without recursion: each
    yield costs the same at every depth.
    """
    a, b = low.numerator, low.denominator
    c, d = cap.numerator, cap.denominator
    # an exact target stops at its prefixes with two slots left; the loop
    # compares only nonzero slots, so 0 means "never"
    stop_at = 2 if (a, b) == (c, d) else 0
    prefix: list[int] = []
    # one (children, num, den) per prefix whose children are being walked;
    # while a level is open, prefix ends in the slot of its current child
    stack: list[tuple[Iterator[int], int, int]] = []
    m, num, den = 1, 0, 1  # m: the prefix's last entry (1 for the root)
    while True:
        slots = k - len(prefix)
        side = num * b - a * den
        yield prefix, slots, side, num, den
        if side < 0 and slots and slots != stop_at:
            room = (c * den - num * d, d * den)
            children = position_range(m, slots, room, (-side, b * den))
            stack.append((iter(children), num, den))
            prefix.append(0)
        # on to the next child of the deepest open level; none left: done
        while stack:
            children, num, den = stack[-1]
            m = next(children, 0)  # denominators are positive
            if m:
                break
            stack.pop()
            prefix.pop()
        else:
            return
        prefix[-1] = m
        num, den = num * m + den, den * m
        g = math.gcd(num, den)
        num, den = num // g, den // g


def close_pairs(prefix: list[int], side: int, den: int, low) -> list[tuple[int, int]]:
    """The pairs (a, b), in increasing a, that complete a prefix which an
    exact walk toward low yielded with two slots left (pass its side < 0
    and den): two_term_pairs on the reduced remainder, with a no smaller
    than the prefix's last entry.

    two_term_pairs factors the remainder's denominator q only when more
    than SCAN_LIMIT candidates remain. That trial division takes up to
    about sqrt(q)/2 steps, and no node budget bounds it: a remainder whose
    denominator has a large prime factor stalls a single closing.
    """
    b = low.denominator
    g = math.gcd(side, b * den)
    return two_term_pairs(prefix[-1] if prefix else 1, -side // g, b * den // g)


def iter_exact(x, k: int) -> Iterator[EgyptianTuple]:
    """Yield every k-term representation of x, in lexicographic order.

    The target is exact, so walk stops two slots short, and each prefix it
    yields there is completed by the pairs close_pairs returns.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"target sum must be nonnegative, got {x}")
    if k < 0:
        raise ValueError(f"term count must be nonnegative, got {k}")
    for prefix, slots, side, _, den in walk(k, x, x):
        if slots == 2 and side < 0:
            head = tuple(prefix)
            for pair in close_pairs(prefix, side, den, x):
                yield head + pair
        elif not slots and not side:
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

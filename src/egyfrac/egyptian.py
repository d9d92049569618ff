"""Unit-fraction tuples: greedy construction, term splitting, and exhaustive
enumeration of all representations with a fixed term count.

A representation of x is a nondecreasing tuple (m_1, ..., m_k) of positive
integers with sum of 1/m_i equal to x; denominators may repeat and may be 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .rationals import as_int, as_rational, reduced, srq_decompose
from .sylvester import MAX_BITS

EgyptianTuple = tuple[int, ...]

# the most terms a tuple built here may hold, at the scale of
# sylvester.MAX_BITS: greedy lists a 1 per unit of x and an extremal tuple
# k - s ones, so a larger count is refused before any entry is built
MAX_TERMS = 2**20

# the node budget of an enumeration, which keeps every tuple it lists: at
# 10^6 nodes the list of --terms 9 holds about 230 MiB, while (7, 6, 1),
# the lcm frontier's largest class at 362,392 nodes, still fits
ENUMERATE_BUDGET = 10**6


def check_terms(count, name: str) -> None:
    """Refuse a count of terms, or a value that needs as many, past MAX_TERMS."""
    if count > MAX_TERMS:
        raise ValueError(f"{name} = {count} asks for more than MAX_TERMS = {MAX_TERMS} terms")


def as_tuple(denominators: Iterable[int]) -> EgyptianTuple:
    """Validate and freeze a nondecreasing tuple of positive denominators."""
    t = tuple(denominators)
    for i, m in enumerate(t):
        as_int(m, "denominator")
        if i and m < t[i - 1]:
            raise ValueError(f"denominators must be nondecreasing, got {t}")
    return t


def reciprocal_sum(t: Iterable[int]) -> tuple[int, int]:
    """The reciprocal sum of t as an integer pair (num, den) in lowest
    terms, den > 0; the empty tuple sums to (0, 1). Each denominator must
    be a positive integer, in any order.

    Each 1/m is added by the steps Fraction's own addition takes: with
    g = gcd(den, m), the new numerator is coprime to den * m / g except
    within g, so one gcd against g keeps the pair reduced.
    """
    num, den = 0, 1
    for m in t:
        g = math.gcd(den, as_int(m, "denominator"))
        if g == 1:
            num, den = num * m + den, den * m
        else:
            s = den // g
            num = num * (m // g) + s
            g2 = math.gcd(num, g)
            num, den = num // g2, s * (m // g2)
    return num, den


def tuple_sum(t: Iterable[int]) -> Fraction:
    """Exact reciprocal sum; the empty tuple sums to 0. Each denominator
    must be a positive integer, in any order."""
    return reduced(*reciprocal_sum(t), 1)


def tuple_lcm(t: Iterable[int]) -> int:
    """Least common multiple of the denominators; 1 for the empty tuple.
    Each denominator must be a positive integer, in any order."""
    return math.lcm(*(as_int(m, "denominator") for m in t))


def greedy(x) -> EgyptianTuple:
    """Greedy representation: always take the largest unit fraction that fits.

    The next denominator is the smallest m >= 1 with m*x >= 1, so x's integer
    part is listed at once as leading 1s. On the rest the reduced numerator
    of the remainder drops strictly every step, which forces termination. An
    x above MAX_TERMS, whose tuple would hold more terms, is refused, and so
    is a step that could square the remainder's denominator past MAX_BITS.

    >>> greedy(Fraction(5, 6))
    (2, 3)
    """
    x = as_rational(x, "x", 0)
    check_terms(x, "x")
    ones, num = divmod(x.numerator, x.denominator)
    out = [1] * ones
    den = x.denominator
    # the remainder num/den, kept reduced by the steps of Fraction's own
    # subtraction, as reciprocal_sum keeps its sum
    while num:
        if 2 * den.bit_length() > MAX_BITS:
            raise ValueError(f"greedy's remainder passes the {MAX_BITS}-bit ceiling after "
                             f"{len(out)} terms: its denominator has {den.bit_length()} bits")
        m = -(-den // num)  # ceil(den/num)
        out.append(m)
        g = math.gcd(den, m)
        s = den // g
        num = num * (m // g) - s
        g2 = math.gcd(num, g)
        num, den = num // g2, s * (m // g2)
    return tuple(out)


def split_expand(t: Iterable[int], index: int) -> EgyptianTuple:
    """Replace the entry m at a 0-based index by m+1 and m*(m+1), re-sorted.

    Sum is preserved: 1/m = 1/(m+1) + 1/(m*(m+1)). Length grows by one.
    """
    t = as_tuple(t)
    if as_int(index, "index", 0) >= len(t):
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
    short). m >= prev keeps the tuple nondecreasing. walk computes the same
    two bounds in place, without the call.
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


def two_term_pairs(prev: int, p: int, q: int, limit: int | None = None) -> list[tuple[int, int]]:
    """The pairs prev <= a <= b with 1/a + 1/b == p/q, in increasing a:
    every one, or only the first `limit` >= 0.

    p/q > 0 must be reduced. Then q/p < a <= 2q/p, and the equation is
    (pa - q)(pb - q) = q^2, so a pair is a divisor x = pa - q <= q of q^2
    with x = -q (mod p); then q^2/x = -q (mod p) as well, since p is
    coprime to q, and b = (q^2/x + q)/p is whole. When the candidates a
    from max(prev, q//p + 1) to 2q//p number at most SCAN_LIMIT, their
    x = pa - q are scanned directly, one test x | q^2 each. More are
    closed from the divisors of q^2 that factoring q gives.

    Factored, q^2 has (d(q^2) + 1)/2 divisors up to q. When `limit` is
    smaller, the divisors are built only up to a threshold: it starts at
    64 * max(prev * p - q, 1), from the least x kept, and grows 64-fold
    until `limit` pairs lie below it or it reaches q. So a few pairs asked
    of a q whose square has millions of divisors build only the divisors
    below the first threshold past the last pair asked for. The trial
    division that factors q has no such bound.

    >>> two_term_pairs(1, 1, 2)
    [(3, 6), (4, 4)]
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be a nonnegative integer, got {limit!r}")
    lo = max(prev, q // p + 1)
    hi = 2 * q // p
    square = q * q
    if hi - lo < SCAN_LIMIT:
        return [
            ((x + q) // p, (square // x + q) // p)
            for x in range(p * lo - q, p * hi - q + 1, p)
            if square % x == 0
        ][:limit]
    factors = _prime_factors(q).items()
    residue, least = -q % p, prev * p - q
    top = q  # the largest divisor built
    if limit is not None and (math.prod(2 * e + 1 for _, e in factors) + 1) // 2 > limit:
        top = min(q, 64 * max(least, 1))
    while True:
        divisors = [1]  # the divisors of q^2 up to top, unsorted
        for prime, e in factors:
            # each power w of prime, with the largest divisor it may multiply
            powers = [(w, top // w) for w in (prime**i for i in range(2 * e + 1))]
            divisors = [d * w for w, most in powers for d in divisors if d <= most]
        kept = sorted([x for x in divisors if x >= least and x % p == residue])
        if top == q or len(kept) >= limit:
            break
        top = min(q, 64 * top)
    return [((x + q) // p, (square // x + q) // p) for x in kept[:limit]]


def walk(k: int, low, cap) -> Iterator[tuple[list[int], int, int, int, int]]:
    """Depth-first walk over nondecreasing prefixes of k-term tuples, in
    lexicographic order, with the prefix sum kept as an integer pair.

    Yields (prefix, slots, side, num, den) for every visited prefix, the
    empty one first: slots terms are still to place, num/den is the prefix
    sum, and side is an integer whose sign places that sum below (< 0), on
    (0) or above (> 0) low. Only a prefix below low with slots left gets
    children: every m from its last entry on with 1/m <= cap - sum and
    slots/m >= low - sum, the range position_range states; cap >= low.
    The yielded list is reused: copy it to keep it.

    num/den is never reduced: den == prod(prefix) and num is the sum of
    den // m over the prefix's entries.

    An exact target (cap == low) stops at every prefix below it with two
    slots left: that prefix is yielded, but its children and grandchildren
    are not visited: exact_closings completes it by the pairs that
    two_term_pairs gives. So an exact walk yields its prefixes with two or
    more slots (for k = 1, the root and its one leaf, if any), and
    expanding each two-slot prefix by its pairs gives every k-term tuple
    summing to low once, in lexicographic order.

    The walk is one loop over an explicit stack, without recursion, so a
    prefix costs the same at every depth. A prefix computes its children's
    range in integers, in place, and opens a level only when the range is
    not empty and two or more slots are left: four integers, so a sibling
    step is one increment and one compare. A prefix below low with one
    slot left pushes no level: its leaves come from one inner loop, which
    does not go through the stack. Under a prefix (side, num, den) with
    low = a/b, leaf m has side m*side + b*den and sum (num*m + den)/(den*m),
    all linear in m, so each leaf after the first adds the prefix's side,
    num and den to the last leaf's: three additions and no multiplication,
    which makes a leaf the cheapest node.
    """
    a, b = low.numerator, low.denominator
    c, d = cap.numerator, cap.denominator
    # an exact target stops at its prefixes with two slots left; the loop
    # compares only nonzero slots, so 0 means "never"
    stop_at = 2 if (a, b) == (c, d) else 0
    prefix: list[int] = []
    # one [next child, last child, num, den] per prefix with two or more
    # slots whose children are being walked; while a level is open, prefix
    # ends in the slot of its current child
    stack: list[list[int]] = []
    m, num, den = 1, 0, 1  # m: the prefix's last entry (1 for the root)
    while True:
        slots = k - len(prefix)
        side = num * b - a * den
        yield prefix, slots, side, num, den
        if side < 0 and slots and slots != stop_at:
            # position_range's bounds, with room cap - num/den and need
            # low - num/den = -side/(b*den)
            lo = -(d * den // (num * d - c * den))
            if lo < m:
                lo = m
            hi = slots * b * den // -side
            if lo <= hi:
                if slots > 1:
                    # the first child at once; the level keeps the next
                    prefix.append(lo)
                    stack.append([lo + 1, hi, num, den])
                    m, num, den = lo, num * lo + den, den * lo
                    continue
                # the leaves, with no stack level, each stepped from the last
                leaf_side, leaf_num, leaf_den = lo * side + b * den, num * lo + den, den * lo
                prefix.append(lo)
                for prefix[-1] in range(lo, hi + 1):
                    yield prefix, 0, leaf_side, leaf_num, leaf_den
                    leaf_side += side
                    leaf_num += num
                    leaf_den += den
                prefix.pop()
        # on to the next child of the deepest open level; none left: done
        while stack:
            level = stack[-1]
            m, last, num, den = level
            if m <= last:
                level[0] = m + 1
                break
            stack.pop()
            prefix.pop()
        else:
            return
        prefix[-1] = m
        num, den = num * m + den, den * m


def exact_closings(x, k: int, budget: int) -> Iterator[tuple[EgyptianTuple, int, int, list, int]]:
    """The k-term tuples summing to x (a Fraction), within a node budget:
    the one exact-class core under iter_exact and oracle.max_lcm_search.

    Yields (head, num, den, tails, nodes) in lexicographic order: head +
    tail is a member for each tail, num/den is head's sum as walk carries
    it, and nodes counts the nodes spent so far. Each prefix that
    walk(k, x, x) stops at with two slots left is a head, closed by
    two_term_pairs on the reduced remainder, and yielded if a pair closes
    it. For k <= 1 nothing is closed: a walk leaf on x, if any, is the one
    member, a tail under (). A node is each prefix walk yields and each
    closing pair, so that member costs only its own walk node. The last yield carries no
    tails and the total, or, past the budget, budget + 1 and only the pairs
    that fit.

    A closing asks two_term_pairs for no more pairs than the budget has
    left, plus the one that exceeds it, so the budget bounds the pairs a
    closing builds. It does not bound the factoring: two_term_pairs
    factors the remainder's denominator q when more than SCAN_LIMIT
    candidates remain, by trial division of up to about sqrt(q)/2 steps,
    so a remainder whose denominator has a large prime factor stalls a
    single closing.
    """
    b = x.denominator
    nodes = 0
    for prefix, slots, side, num, den in walk(k, x, x):
        nodes += 1
        if nodes > budget:
            break
        if slots == 2 and side < 0:
            g = math.gcd(side, b * den)
            prev = prefix[-1] if prefix else 1
            # one node per pair; the first pair past the budget is counted
            tails = two_term_pairs(prev, -side // g, b * den // g, budget - nodes + 1)
            nodes += len(tails)
            if nodes > budget:
                yield tuple(prefix), num, den, tails[:-1], nodes
                return
            if tails:
                yield tuple(prefix), num, den, tails, nodes
        elif not slots and not side:
            yield (), 0, 1, [tuple(prefix)], nodes
    yield (), 0, 1, [], nodes


def iter_exact(x, k: int, budget: int = ENUMERATE_BUDGET) -> Iterator[EgyptianTuple]:
    """Yield every k-term representation of x, in lexicographic order, as
    exact_closings lists them. A class past the node budget raises
    ValueError, naming the budget and the tuples yielded before it ran out;
    a closing's tuples are yielded only if all of them fit.
    """
    x = as_rational(x, "target sum", 0)
    as_int(k, "term count", 0)
    as_int(budget, "budget")
    count = 0
    for head, _, _, tails, nodes in exact_closings(x, k, budget):
        if nodes > budget:
            raise ValueError(f"enumeration ran out of its budget of {budget} nodes "
                             f"after {count} tuples")
        for tail in tails:
            yield head + tail
        count += len(tails)


def enumerate_exact(x, k: int, budget: int = ENUMERATE_BUDGET) -> list[EgyptianTuple]:
    """All k-term representations of x as a lexicographically sorted list,
    within iter_exact's node budget.

    >>> enumerate_exact(1, 3)
    [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
    """
    return list(iter_exact(x, k, budget))


def enumerate_deficiency(k: int, delta, q: int,
                         budget: int = ENUMERATE_BUDGET) -> list[EgyptianTuple]:
    """All k-tuples whose reciprocal sum is exactly k - delta, listed by
    enumerate_exact within its node budget.

    delta must be >= -1 with q*delta integral; the list is empty whenever
    k - delta falls outside [0, k] (in particular for every delta < 0).
    """
    as_int(k, "k")
    delta = as_rational(delta)
    srq_decompose(delta, q)  # validates delta >= -1 and q*delta integral
    target = k - delta
    if target < 0:
        return []
    return enumerate_exact(target, k, budget)

"""Greedy construction, splitting, and exhaustive fixed-length enumeration."""

import bisect
import itertools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egyfrac import egyptian
from egyfrac.egyptian import (
    SCAN_LIMIT,
    as_tuple,
    enumerate_deficiency,
    enumerate_exact,
    exact_closings,
    greedy,
    iter_exact,
    position_range,
    reciprocal_sum,
    split_expand,
    tuple_lcm,
    tuple_sum,
    two_term_pairs,
)
from egyfrac.oracle import max_lcm_search
from egyfrac.rationals import floor_frac
from egyfrac.sylvester import MAX_BITS, sylvester_term, sylvester_u


def test_as_tuple_validates():
    assert as_tuple([2, 3, 6]) == (2, 3, 6)
    assert as_tuple(()) == ()
    with pytest.raises(ValueError):
        as_tuple([3, 2])
    with pytest.raises(ValueError):
        as_tuple([0, 2])
    with pytest.raises(ValueError):
        as_tuple([2, -3])


def test_tuple_sum_and_lcm():
    assert tuple_sum((2, 3, 6)) == 1
    assert tuple_sum(()) == 0
    assert tuple_sum((1, 1, 2)) == Fraction(5, 2)
    assert tuple_lcm((2, 3, 6)) == 6
    assert tuple_lcm((4, 6)) == 12
    assert tuple_lcm(()) == 1


def _fraction_sum(t):
    """tuple_sum as it read before sums were carried as integer pairs."""
    return sum((Fraction(1, m) for m in t), Fraction(0))


def _sum_cases(rng):
    # repeats, 1s, the empty tuple, entries past 2**64 and deep Sylvester
    # tails, whose sums reduce by a factor inside gcd(den, m)
    yield ()
    yield (1, 1, 1)
    yield (2**70, 2**70)
    yield (6, 2**70 * 3, 2**70 * 3, 2**71)
    for p in range(1, 12):
        for q in (1, 2, 3):
            tail = [sylvester_term(i, q) for i in range(1, p + 1)]
            yield tuple(tail)
            yield (*tail, tail[-1], sylvester_u(p + 1, q))
            yield (*tail, *tail)
    for _ in range(500):
        pool = [rng.randint(1, 12) for _ in range(3)] + [rng.randint(1, 10**6)]
        pool.append(2**rng.randint(60, 80) * rng.choice((1, 3, 5)))
        yield tuple(rng.choice(pool) for _ in range(rng.randint(0, 12)))


def test_tuple_sum_matches_the_fraction_reference():
    rng = random.Random(33)
    for t in _sum_cases(rng):
        want = _fraction_sum(t)
        for order in (t, t[::-1]):
            got = tuple_sum(order)
            # equal, and stored in lowest terms as the reference is
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), t
            assert reciprocal_sum(order) == (want.numerator, want.denominator)
    with pytest.raises(ValueError, match="^denominator must be a positive integer, got 0$"):
        tuple_sum((2, 0))
    with pytest.raises(ValueError, match="^denominator must be a positive integer, got 2.0$"):
        tuple_sum((3, 2.0))


def _fraction_greedy(x):
    """greedy as it read before its remainder was carried as an integer pair."""
    ones = x.numerator // x.denominator
    out = [1] * ones
    x -= ones
    while x:
        m = -(-x.denominator // x.numerator)
        out.append(m)
        x -= Fraction(1, m)
    return tuple(out)


def test_greedy_matches_the_fraction_reference():
    rng = random.Random(34)
    for _ in range(500):
        den = rng.randint(1, 10 ** rng.randint(1, 4))
        x = Fraction(rng.randint(0, 3 * den), den)
        assert greedy(x) == _fraction_greedy(x), x


def test_greedy_frozen_examples():
    assert greedy(Fraction(5, 6)) == (2, 3)
    assert greedy(Fraction(9, 20)) == (3, 9, 180)
    assert greedy(3) == (1, 1, 1)
    assert greedy(Fraction(7, 2)) == (1, 1, 1, 2)
    assert greedy(0) == ()
    with pytest.raises(ValueError):
        greedy(Fraction(-1, 2))


def test_greedy_refuses_x_past_the_term_ceiling(monkeypatch):
    monkeypatch.setattr(egyptian, "MAX_TERMS", 4)
    assert greedy(4) == (1, 1, 1, 1)
    assert greedy(Fraction(7, 2)) == (1, 1, 1, 2)
    for x in (Fraction(9, 2), 5):
        with pytest.raises(ValueError, match=f"^x = {x} asks for more than MAX_TERMS = 4 terms$"):
            greedy(x)
    # at the real ceiling, x itself is refused before any term is listed:
    # 10^30 would mean 10^30 ones
    monkeypatch.undo()
    with pytest.raises(ValueError, match=f"^x = {10**30} asks for more than "
                                         f"MAX_TERMS = {egyptian.MAX_TERMS} terms$"):
        greedy(10**30)


def test_greedy_refuses_a_remainder_past_the_bit_ceiling():
    # a step at most squares the remainder's denominator, and these two pass
    # MAX_BITS within about 20 terms: each is refused before the step that
    # could. Without the ceiling the first ends in seconds, its last term
    # about 10^7 bits long, and the second does not end, so it comes last
    for x in ("17605994435776624894214725/6850064826623699087972396",
              "339403663113621708131272/371270883134136055136355"):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"passes the {MAX_BITS}-bit ceiling after"):
            greedy(Fraction(x))
        assert time.perf_counter() - started < 2
    # the ceiling itself: a remainder denominator of MAX_BITS // 2 bits,
    # which a step could square to MAX_BITS, passes, and one bit more is
    # refused
    den = 2 ** (MAX_BITS // 2 - 1)
    assert greedy(1 + Fraction(1, den)) == (1, den)
    with pytest.raises(ValueError, match=f"after 1 terms: its denominator has "
                                         f"{MAX_BITS // 2 + 1} bits$"):
        greedy(1 + Fraction(1, 2 * den))


def test_greedy_contract_random():
    """Sum reconstructs exactly, tuple is nondecreasing, and the term count
    obeys floor(x) plus the reduced numerator of the fractional part."""
    rng = random.Random(31)
    for _ in range(1000):
        den = rng.randint(1, 100)
        num = rng.randint(1, 5 * den)
        x = Fraction(num, den)
        t = greedy(x)
        assert tuple_sum(t) == x
        assert as_tuple(t) == t
        fl, frac = floor_frac(x)
        assert len(t) <= fl + frac.numerator


@settings(max_examples=200, deadline=None)
@given(x=st.fractions(min_value=0, max_value=500, max_denominator=60))
@example(x=Fraction(500))
@example(x=Fraction(2999, 6))
def test_greedy_lists_its_integer_part_at_once(x):
    # the integer part as leading 1s, then the fractional part's terms
    t = greedy(x)
    assert tuple_sum(t) == x
    assert as_tuple(t) == t
    assert t.count(1) == x.numerator // x.denominator


def test_greedy_at_the_term_ceiling_is_fast():
    # 2^20 ones, listed at once rather than subtracted one by one
    started = time.perf_counter()
    t = greedy(egyptian.MAX_TERMS)
    assert time.perf_counter() - started < 1
    assert t == (1,) * egyptian.MAX_TERMS


def test_greedy_remainder_numerator_drops():
    # replay the recursion: after each fractional step the reduced numerator
    # strictly decreases, which is the termination argument
    rng = random.Random(32)
    for _ in range(300):
        x = Fraction(rng.randint(1, 99), 100)
        rem = x
        for m in greedy(x):
            nxt = rem - Fraction(1, m)
            if rem < 1:
                assert nxt.numerator < rem.numerator
            rem = nxt
        assert rem == 0


def test_split_preserves_sum():
    assert split_expand((2, 3), 1) == (2, 4, 12)
    assert split_expand((2, 3), 0) == (3, 3, 6)
    assert split_expand((1,), 0) == (2, 2)
    rng = random.Random(33)
    for _ in range(300):
        t = greedy(Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        if not t:
            continue
        i = rng.randrange(len(t))
        s = split_expand(t, i)
        assert len(s) == len(t) + 1
        assert tuple_sum(s) == tuple_sum(t)
        assert as_tuple(s) == s
    with pytest.raises(ValueError):
        split_expand((2, 3), 2)


@settings(max_examples=200, deadline=None)
@given(
    t=st.lists(st.integers(1, 10**6), min_size=1, max_size=8).map(sorted),
    data=st.data(),
)
def test_split_expand_property(t, data):
    i = data.draw(st.integers(0, len(t) - 1))
    s = split_expand(t, i)
    assert len(s) == len(t) + 1
    assert tuple_sum(s) == tuple_sum(t)
    assert as_tuple(s) == s


def test_exact_closings_frozen_yields():
    # the class of 1 in three terms: the root, (1) on the target, then (2)
    # and (3), each closed by its pairs, and the total last
    assert list(exact_closings(Fraction(1), 3, 100)) == [
        ((2,), 1, 2, [(3, 6), (4, 4)], 5),
        ((3,), 1, 3, [(3, 3)], 7),
        ((), 0, 1, [], 7),
    ]
    # in the class of 1 in four terms (2, 3) is node 5: a budget of 7
    # keeps the first two of its five pairs and counts the third
    assert list(exact_closings(Fraction(1), 4, 7)) == [((2, 3), 5, 6, [(7, 42), (8, 24)], 8)]
    # k = 1: the root's leaf is the member, a tail under (), and costs
    # only its own walk node
    assert list(exact_closings(Fraction(1, 2), 1, 5)) == [((), 0, 1, [(2,)], 2), ((), 0, 1, [], 2)]
    assert list(exact_closings(Fraction(1, 2), 1, 1)) == [((), 0, 1, [], 2)]


def test_enumerate_frozen_examples():
    assert enumerate_exact(1, 3) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
    assert enumerate_exact(Fraction(1, 2), 2) == [(3, 6), (4, 4)]
    assert enumerate_exact(1, 1) == [(1,)]
    assert enumerate_exact(2, 2) == [(1, 1)]
    assert enumerate_exact(Fraction(1, 7), 1) == [(7,)]
    assert enumerate_exact(Fraction(2, 7), 1) == []
    assert enumerate_exact(0, 0) == [()]
    assert enumerate_exact(Fraction(1, 2), 0) == []


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 5),
    low=st.fractions(min_value=0, max_value=5, max_denominator=12),
    extra=st.fractions(min_value=0, max_value=2, max_denominator=6),
)
@example(k=3, low=Fraction(41, 42), extra=Fraction(2))  # the window floor of (3, 2, 1)
@example(k=5, low=Fraction(5, 2), extra=Fraction(0))  # exact: closings, no leaves
@example(k=1, low=Fraction(1, 2000), extra=Fraction(2))  # 999 leaves of the root in a row
@example(k=3, low=Fraction(41, 42), extra=Fraction(1, 1000))  # one-slot prefixes with no leaves
def test_walk_yields_each_prefix_sum_and_side(k, low, extra):
    # num/den is the prefix's sum unreduced: den is its product, and side
    # is num*b - a*den; the first 1000 yields only, since some draws walk
    # for far longer
    a, b = low.numerator, low.denominator
    for prefix, slots, side, num, den in itertools.islice(
        egyptian.walk(k, low, low + extra), 1000
    ):
        total = tuple_sum(prefix)
        assert slots == k - len(prefix)
        assert Fraction(num, den) == total
        assert side == num * b - a * den
        assert _sign(side) == _sign(total - low)
        assert den == math.prod(prefix)
        assert num == sum(den // m for m in prefix)


def _naive_exact(x: Fraction, k: int) -> list[tuple[int, ...]]:
    """Independent recursion used only as a crosscheck: same nondecreasing
    search space, no shared code with the library walker."""
    found = []

    def go(prefix, rem, slots):
        if slots == 0:
            if rem == 0:
                found.append(tuple(prefix))
            return
        if rem <= 0:
            return
        m = max(prefix[-1] if prefix else 1, (1 / rem).__ceil__())
        while Fraction(slots, m) >= rem:
            go(prefix + [m], rem - Fraction(1, m), slots - 1)
            m += 1

    go([], x, k)
    return found


def test_enumerate_matches_naive():
    cases = [
        (Fraction(1), 3),
        (Fraction(1), 4),
        (Fraction(1, 2), 3),
        (Fraction(2, 3), 3),
        (Fraction(3, 4), 2),
        (Fraction(5, 2), 4),
        (Fraction(4), 4),
        (Fraction(3, 7), 3),
    ]
    for x, k in cases:
        got = enumerate_exact(x, k)
        assert got == _naive_exact(x, k)
        assert got == sorted(set(got))  # lex order, no duplicates
        for t in got:
            assert tuple_sum(t) == x
            assert as_tuple(t) == t


def test_enumerate_matches_capped_product_scan():
    # second, dumber crosscheck: scan all nondecreasing triples up to a cap
    cap = 30
    want = [
        t
        for t in itertools.combinations_with_replacement(range(1, cap + 1), 3)
        if tuple_sum(t) == 1
    ]
    got = [t for t in enumerate_exact(1, 3) if max(t) <= cap]
    assert got == want


def test_greedy_appears_in_enumeration():
    rng = random.Random(34)
    for _ in range(60):
        x = Fraction(rng.randint(1, 11), 12)
        t = greedy(x)
        if len(t) > 4:
            continue  # keep the exhaustive side cheap
        assert t in enumerate_exact(x, len(t))


def test_enumeration_closed_under_split_prefixes():
    # splitting any entry of a k-term representation lands in the (k+1)-term
    # class of the same sum
    for t in enumerate_exact(1, 3):
        bigger = enumerate_exact(1, 4)
        for i in range(len(t)):
            assert split_expand(t, i) in bigger


def test_position_range_replay():
    # every emitted tuple re-derives through the published position bounds
    for x, k in [(Fraction(1), 4), (Fraction(1, 2), 3), (Fraction(7, 6), 3)]:
        for t in iter_exact(x, k):
            prev, rem = 1, x
            for i, m in enumerate(t):
                pair = (rem.numerator, rem.denominator)
                assert m in position_range(prev, k - i, pair, pair)
                prev, rem = m, rem - Fraction(1, m)
            assert rem == 0


def _brute_exact(x: Fraction, k: int) -> list[tuple[int, ...]]:
    """Scan every nondecreasing (k-1)-entry head up to a fixed cap and solve
    for the last entry. With x - (sum of the first j-1 terms) a positive
    multiple of 1/(x.denominator * m_1 * ... * m_{j-1}), the j-th entry is at
    most (k - j + 1) * x.denominator * m_1 * ... * m_{j-1}, which for k <= 3
    never exceeds (k * x.denominator) ** 2."""
    out = []
    cap = (k * x.denominator) ** 2
    for head in itertools.combinations_with_replacement(range(1, cap + 1), k - 1):
        rest = x - tuple_sum(head)
        if rest > 0 and rest.numerator == 1 and rest.denominator >= max(head, default=1):
            out.append(head + (rest.denominator,))
    return out


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), q=st.integers(1, 3), data=st.data())
def test_iter_exact_matches_brute_force(k, q, data):
    x = Fraction(data.draw(st.integers(0, k * q + 1)), q)
    assert list(iter_exact(x, k)) == _brute_exact(x, k)


def _brute_two_term(prev: int, x: Fraction) -> list[tuple[int, int]]:
    """Scan every a from prev up to 2/x and keep those with 1/a short of x
    by a unit fraction 1/b, b >= a."""
    out = []
    for a in range(prev, 2 * x.denominator // x.numerator + 1):
        rest = x - Fraction(1, a)
        if rest > 0 and rest.numerator == 1 and rest.denominator >= a:
            out.append((a, rest.denominator))
    return out


def _reference_two_term_pairs(prev: int, p: int, q: int) -> list[tuple[int, int]]:
    """two_term_pairs as it read before it scanned narrow candidate ranges,
    kept as the reference: every pair comes from a divisor x = pa - q <= q
    of q^2 with x = -q (mod p)."""
    factors: dict[int, int] = {}
    n, d = q, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divisors = [1]  # the divisors of q^2 up to q, kept sorted
    for prime, e in factors.items():
        grown = divisors[:]
        power = 1
        for _ in range(2 * e):
            power *= prime
            end = bisect.bisect_right(divisors, q // power)
            if not end:
                break
            grown += [d * power for d in divisors[:end]]
        divisors = sorted(grown)
    square = q * q
    return [
        ((x + q) // p, (square // x + q) // p)
        for x in divisors[bisect.bisect_left(divisors, prev * p - q):]
        if (x + q) % p == 0
    ]


# with p = 1 the candidates a run from max(prev, q + 1) to 2q
@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 40), q=st.integers(1, 5040), prev=st.integers(1, 100))
@example(p=1, q=2520, prev=1)  # 2520^2 has 158 divisors up to 2520, each a pair
@example(p=1, q=SCAN_LIMIT - 1, prev=1)  # scanned
@example(p=1, q=SCAN_LIMIT, prev=1)  # scanned: SCAN_LIMIT candidates
@example(p=1, q=SCAN_LIMIT + 1, prev=1)  # closed by divisors
@example(p=1, q=2 * SCAN_LIMIT, prev=4 * SCAN_LIMIT - 119)  # prev leaves 120: scanned
@example(p=1, q=2 * SCAN_LIMIT, prev=3 * SCAN_LIMIT)  # prev leaves SCAN_LIMIT + 1
@example(p=3, q=1000, prev=1)  # 333 candidates: divisors x = pa - q, x = 2 (mod 3)
@example(p=3, q=100, prev=40)  # prev sets the scan's start, a = 40 closes (40, 200)
@example(p=7, q=120, prev=24)  # prev sets the scan's start, a = 24 closes (24, 60)
def test_two_term_pairs_match_brute_force(p, q, prev):
    x = Fraction(p, q)
    pairs = two_term_pairs(prev, x.numerator, x.denominator)
    assert pairs == _brute_two_term(prev, x)
    for a, b in pairs:
        assert Fraction(1, a) + Fraction(1, b) == x


@pytest.mark.parametrize("q,prev,factored", [
    (SCAN_LIMIT - 1, 1, False),
    (SCAN_LIMIT, 1, False),
    (SCAN_LIMIT + 1, 1, True),
    (2 * SCAN_LIMIT, 1, True),
    (2 * SCAN_LIMIT, 4 * SCAN_LIMIT - 119, False),
])
def test_two_term_pairs_factor_only_wide_ranges(q, prev, factored, monkeypatch):
    calls = []
    real = egyptian._prime_factors
    monkeypatch.setattr(egyptian, "_prime_factors", lambda n: calls.append(n) or real(n))
    two_term_pairs(prev, 1, q)
    assert calls == ([q] if factored else [])


# q = 2^a 3^b 5^c 7^d: q^2 has many divisors, and many products d * w of a
# divisor and a prime power pass q and are cut
_SMOOTH = st.builds(
    lambda a, b, c, d: 2**a * 3**b * 5**c * 7**d,
    st.integers(0, 10), st.integers(0, 6), st.integers(0, 4), st.integers(0, 4),
)


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 40), q=st.one_of(st.integers(1, 10**6), _SMOOTH),
       prev=st.integers(1, 100))
@example(p=1, q=720720, prev=1)  # 720720^2 has 1,823 divisors up to 720720, each a pair
@example(p=1, q=720720, prev=1000000)  # prev drops the pairs below it
@example(p=11, q=2**6 * 3**4 * 5**2 * 7**2, prev=1)  # smooth q, p > 1: the congruence
@example(p=37, q=2**10 * 3**6 * 5**4 * 7**4, prev=10**6)  # and prev with it
def test_two_term_pairs_match_the_divisor_method(p, q, prev):
    # far more than SCAN_LIMIT candidates for most draws: the divisor branch
    x = Fraction(p, q)
    p, q = x.numerator, x.denominator
    assert two_term_pairs(prev, p, q) == _reference_two_term_pairs(prev, p, q)


# small reduced p/q at every prev up to past 2q/p, scanned or, with
# SCAN_LIMIT patched to 0, closed by divisors; past q = 64 with prev small,
# the divisor branch grows its threshold once
@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 150), scan=st.booleans())
@example(p=1, q=144, scan=False)
@example(p=1, q=144, scan=True)
def test_two_term_pairs_limit_keeps_the_first_pairs(p, q, scan):
    x = Fraction(p, q)
    p, q = x.numerator, x.denominator
    with mock.patch.object(egyptian, "SCAN_LIMIT", SCAN_LIMIT if scan else 0):
        for prev in range(1, 2 * q // p + 2):
            full = two_term_pairs(prev, p, q)
            for limit in range(1, len(full) + 1):
                assert two_term_pairs(prev, p, q, limit) == full[:limit], (prev, limit)


@pytest.mark.parametrize("p,q,prev", [
    (1, 720720, 1),  # thresholds 64, 64^2 and 64^3 lie below q
    (1, 720720, 730000),  # prev lifts the first threshold to 64 * 9280, below q
    (1, 720720, 900000),  # and here to 64 * 179280, past q: one round
    (11, 2**6 * 3**4 * 5**2 * 7**2, 1),  # p > 1: only x = -q (mod p) count
])
def test_two_term_pairs_limit_through_each_threshold(p, q, prev):
    # each limit at, just below and just past the pairs whose divisor
    # x = pa - q lies under a threshold, and the full count
    full = two_term_pairs(prev, p, q)
    top = 64 * max(prev * p - q, 1)
    limits = {1, len(full)}
    while top < q:
        under = sum(p * a - q <= top for a, _ in full)
        limits |= {under - 1, under, under + 1}
        top *= 64
    for limit in sorted(n for n in limits if 1 <= n <= len(full)):
        assert two_term_pairs(prev, p, q, limit) == full[:limit], limit


@pytest.mark.parametrize("q", [6, 720720])  # the scan branch, the divisor branch
def test_two_term_pairs_refuses_a_negative_limit(q):
    with pytest.raises(ValueError, match="limit must be a nonnegative integer, got -1"):
        two_term_pairs(1, 1, q, -1)
    assert two_term_pairs(1, 1, q, 0) == []
    assert two_term_pairs(1, 1, q, None) == two_term_pairs(1, 1, q)


def test_two_term_pairs_limit_bounds_the_divisors_kept(monkeypatch):
    # q, the product of the first 11 primes, gives q^2 3^11 divisors, 88,574
    # of them up to q, each a pair for p = 1. Asked for 3 pairs,
    # two_term_pairs keeps only the divisors up to its first threshold, 64
    q = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    kept = []
    monkeypatch.setattr(egyptian, "sorted", lambda xs: kept.append(len(xs)) or sorted(xs),
                        raising=False)
    assert two_term_pairs(1, 1, q, 3) == [(q + x, q * q // x + q) for x in (1, 2, 3)]
    assert kept == [sum(q * q % x == 0 for x in range(1, 65))]
    kept.clear()
    assert len(two_term_pairs(1, 1, q)) == (3**11 + 1) // 2 == kept[0]


def test_enumerate_deficiency():
    assert enumerate_deficiency(3, 2, 1) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
    assert enumerate_deficiency(2, -1, 1) == []  # target 3 exceeds two terms
    assert enumerate_deficiency(2, 0, 1) == [(1, 1)]
    assert enumerate_deficiency(1, Fraction(3, 2), 2) == []  # negative target
    with pytest.raises(ValueError):
        enumerate_deficiency(0, 0, 1)
    with pytest.raises(ValueError):
        enumerate_deficiency(3, Fraction(-3, 2), 2)
    with pytest.raises(ValueError):
        enumerate_deficiency(3, Fraction(1, 2), 3)  # q*delta not integral


def test_iter_exact_rejects_negative():
    with pytest.raises(ValueError):
        list(iter_exact(Fraction(-1, 2), 2))
    with pytest.raises(ValueError):
        list(iter_exact(1, -1))


@pytest.mark.parametrize("k, delta, q", [
    (1, 0, 1), (3, 2, 1), (4, 2, 1), (4, Fraction(3, 2), 2), (5, Fraction(5, 2), 2),
    (5, 3, 1), (6, 4, 2),
])
def test_enumerate_budget_counts_the_lcm_searchs_nodes(k, delta, q):
    # prefixes walk yields plus closed pairs, so the enumeration fits its
    # budget exactly when max_lcm_search's walk of the same class does
    search = max_lcm_search(k, delta, q)
    nodes = search.stats.nodes
    target = k - Fraction(delta)
    tuples = enumerate_exact(target, k, budget=nodes)
    assert len(tuples) == search.details["class_size"]
    assert tuples == enumerate_exact(target, k)
    with pytest.raises(ValueError, match=rf"budget of {nodes - 1} nodes after \d+ tuples"):
        enumerate_exact(target, k, budget=nodes - 1)
    assert enumerate_deficiency(k, delta, q, budget=nodes) == tuples
    with pytest.raises(ValueError, match=rf"budget of {nodes - 1} nodes"):
        enumerate_deficiency(k, delta, q, budget=nodes - 1)


def test_enumerate_past_its_budget_names_the_count_reached():
    # the class of 1 in four terms takes 27 nodes; 20 list 10 of its 14 tuples
    listed = []
    with pytest.raises(ValueError) as raised:
        for t in iter_exact(1, 4, budget=20):
            listed.append(t)
    assert str(raised.value) == "enumeration ran out of its budget of 20 nodes after 10 tuples"
    assert listed == enumerate_exact(1, 4, budget=27)[:10]
    with pytest.raises(ValueError):
        enumerate_exact(1, 4, budget=26)
    for budget in (0, -1, True):
        with pytest.raises(ValueError, match="budget"):
            enumerate_exact(1, 3, budget=budget)


def test_enumerate_budget_bounds_a_huge_class():
    # --sum 1 --terms 9 does not finish unbudgeted, and the default budget
    # ENUMERATE_BUDGET = 10^6 takes seconds to refuse it; 10^5 nodes end it
    # at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget of 100000 nodes after"):
        enumerate_exact(1, 9, budget=10**5)
    assert time.perf_counter() - start < 5

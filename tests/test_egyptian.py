"""Greedy construction, splitting, and exhaustive fixed-length enumeration."""

import bisect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egyfrac import egyptian
from egyfrac.egyptian import (
    SCAN_LIMIT,
    as_tuple,
    enumerate_deficiency,
    enumerate_exact,
    greedy,
    iter_exact,
    position_range,
    split_expand,
    tuple_lcm,
    tuple_sum,
    two_term_pairs,
)
from egyfrac.rationals import floor_frac


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


def test_greedy_frozen_examples():
    assert greedy(Fraction(5, 6)) == (2, 3)
    assert greedy(Fraction(9, 20)) == (3, 9, 180)
    assert greedy(3) == (1, 1, 1)
    assert greedy(Fraction(7, 2)) == (1, 1, 1, 2)
    assert greedy(0) == ()
    with pytest.raises(ValueError):
        greedy(Fraction(-1, 2))


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


def test_enumerate_frozen_examples():
    assert enumerate_exact(1, 3) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
    assert enumerate_exact(Fraction(1, 2), 2) == [(3, 6), (4, 4)]
    assert enumerate_exact(1, 1) == [(1,)]
    assert enumerate_exact(2, 2) == [(1, 1)]
    assert enumerate_exact(Fraction(1, 7), 1) == [(7,)]
    assert enumerate_exact(Fraction(2, 7), 1) == []
    assert enumerate_exact(0, 0) == [()]
    assert enumerate_exact(Fraction(1, 2), 0) == []


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


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 40), q=st.integers(1, 10**6), prev=st.integers(1, 100))
@example(p=1, q=720720, prev=1)  # 720720^2 has 1,823 divisors up to 720720, each a pair
@example(p=1, q=720720, prev=1000000)  # prev drops the pairs below it
def test_two_term_pairs_match_the_divisor_method(p, q, prev):
    # far more than SCAN_LIMIT candidates for most draws: the divisor branch
    x = Fraction(p, q)
    p, q = x.numerator, x.denominator
    assert two_term_pairs(prev, p, q) == _reference_two_term_pairs(prev, p, q)


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

"""Exact arithmetic helpers and the shortfall decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egyfrac.rationals import (
    SRQ,
    canonical_q,
    floor_frac,
    near_one_check,
    parse_rational,
    rational_str,
    srq_decompose,
)


def test_parse_rational_grammar():
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("+7") == Fraction(7)
    assert parse_rational("0") == Fraction(0)


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "1/2/3", "", " 1/2", "1/2 ", "1/-2", "--1", "a/b"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/00")


def test_rational_str_round_trip():
    rng = random.Random(20)
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(rational_str(x)) == x
    # denominator 1 prints bare
    assert rational_str(Fraction(6, 3)) == "2"
    assert rational_str(Fraction(-5, 6)) == "-5/6"


def test_floor_frac_examples():
    assert floor_frac(Fraction(7, 3)) == (2, Fraction(1, 3))
    assert floor_frac(Fraction(-7, 3)) == (-3, Fraction(2, 3))
    assert floor_frac(5) == (5, Fraction(0))
    assert floor_frac(Fraction(-1)) == (-1, Fraction(0))


def test_floor_frac_reconstructs():
    rng = random.Random(21)
    for _ in range(10_000):
        x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**4))
        fl, frac = floor_frac(x)
        assert fl + frac == x
        assert 0 <= frac < 1
        assert isinstance(fl, int)


def test_canonical_q():
    assert canonical_q(Fraction(2, 4)) == 2
    assert canonical_q(Fraction(-3, 9)) == 3
    assert canonical_q(7) == 1
    assert canonical_q(0) == 1


def test_srq_frozen_examples():
    assert srq_decompose(Fraction(3, 2), 2) == SRQ(s=2, r=1, q=2)
    assert srq_decompose(-1, 1) == SRQ(s=0, r=1, q=1)
    assert srq_decompose(0, 3) == SRQ(s=1, r=3, q=3)
    assert srq_decompose(2, 1) == SRQ(s=3, r=1, q=1)
    assert srq_decompose(Fraction(1, 2), 4) == SRQ(s=1, r=2, q=4)


def test_srq_invariants_enforced():
    with pytest.raises(ValueError):
        SRQ(s=-1, r=1, q=1)
    with pytest.raises(ValueError):
        SRQ(s=0, r=0, q=1)
    with pytest.raises(ValueError):
        SRQ(s=0, r=3, q=2)
    with pytest.raises(ValueError):
        SRQ(s=0, r=1, q=0)


def test_srq_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        srq_decompose(Fraction(-3, 2), 2)  # below -1
    with pytest.raises(ValueError):
        srq_decompose(Fraction(1, 3), 2)  # q*delta not integral
    with pytest.raises(ValueError):
        srq_decompose(0, 0)
    with pytest.raises(ValueError):
        srq_decompose(0, -3)


def test_srq_decompose_reconstructs():
    # every representable delta in [-1, 3] for small q round-trips
    for q in range(1, 13):
        for j in range(-q, 3 * q + 1):
            delta = Fraction(j, q)
            d = srq_decompose(delta, q)
            assert d.delta == delta
            assert d.q == q
            assert d.s >= 0 and 1 <= d.r <= d.q


@given(q=st.integers(1, 10**6), data=st.data())
def test_srq_decompose_round_trip_property(q, data):
    delta = Fraction(data.draw(st.integers(-q, 10**6)), q)
    d = srq_decompose(delta, q)
    assert d.delta == delta
    assert d.q == q
    assert 1 <= d.r <= q


def test_near_one_examples():
    assert near_one_check(3, 2, 3) is True  # 2/3 == 1 - 1/3
    assert near_one_check(4, 2, 3) is False  # 2/3 < 3/4
    assert near_one_check(2, 3, 4) is True  # 1/2 <= 3/4 < 1
    assert near_one_check(5, 9, 9) is False  # p/q = 1 not allowed


def test_near_one_rejects_nonpositive():
    with pytest.raises(ValueError):
        near_one_check(0, 1, 2)
    with pytest.raises(ValueError):
        near_one_check(2, 0, 2)
    with pytest.raises(ValueError):
        near_one_check(2, 1, 0)


def test_near_one_consequence_exhaustive():
    """Whenever 1 - 1/n <= p/q < 1 the call itself asserts n <= q; sweeping
    the cube just has to run without tripping that assert."""
    hits = 0
    for n in range(1, 51):
        for p in range(1, 51):
            for q in range(1, 51):
                if near_one_check(n, p, q):
                    hits += 1
                    assert n <= q
    assert hits == 4627  # frozen count over the 50^3 cube

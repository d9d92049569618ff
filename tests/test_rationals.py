"""Exact arithmetic helpers and the shortfall decomposition."""

import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egyfrac.bounds import (
    classify_equality,
    extremal_gap_tuple,
    extremal_lcm_tuple,
    gap_amount,
    lcm_bound,
    sharp_sum_bound,
)
from egyfrac.egyptian import (
    as_tuple,
    enumerate_deficiency,
    enumerate_exact,
    greedy,
    iter_exact,
    split_expand,
    tuple_lcm,
    tuple_sum,
)
from egyfrac.geometry import (
    LogStructure,
    StandardCoefficient,
    gap_bound,
    index_bound,
    refined_index_bound,
)
from egyfrac.majorization import positive_sequence
from egyfrac.oracle import lcm_square_check, max_lcm_search, sweep, window_search
from egyfrac.rationals import (
    SRQ,
    as_int,
    as_rational,
    canonical_q,
    floor_frac,
    near_one_check,
    parse_int,
    parse_rational,
    rational_str,
    reduced,
    srq_decompose,
)
from egyfrac.sylvester import SylvesterTable, check_identities, sylvester_u


def test_parse_rational_grammar():
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("+7") == Fraction(7)
    assert parse_rational("0") == Fraction(0)


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "1/2/3", "", " 1/2", "1/2 ", "1/-2", "--1", "a/b", "1_000",
            "\u0663/\u0664"]
)
def test_parse_rational_rejects(bad):
    message = f"malformed rational literal: {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_rational(bad)


def test_parse_int_grammar():
    assert [parse_int(t) for t in ("3", "-5", "+7", "0", "007")] == [3, -5, 7, 0, 7]
    assert parse_int("9" * 100) == 10**100 - 1
    for bad in ("", "+", "--1", "1_0", " 3", "3 ", "1.0", "1e3", "1/2", "0x10", "\u0662"):
        message = f"malformed integer literal: {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_int(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match=r"^zero denominator in '1/00'$"):
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


def test_srq_decompose_builds_an_ordinary_srq():
    # srq_decompose skips SRQ's checks on the fields it derives, and
    # nothing else: the value compares, hashes, prints and stays frozen
    # like one built directly
    d = srq_decompose(Fraction(5, 2), 4)
    direct = SRQ(s=3, r=2, q=4)
    assert (d, hash(d), repr(d)) == (direct, hash(direct), repr(direct))
    assert d.delta == Fraction(5, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.r = 1


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


def test_srq_decompose_formula_cases():
    # the gate's floor, n < -d in integers, refuses exactly the delta below -1
    assert srq_decompose(Fraction(-1), 1) == SRQ(s=0, r=1, q=1)
    with pytest.raises(ValueError, match=r"delta must be >= -1, got -7/6"):
        srq_decompose(Fraction(-7, 6), 6)
    # q % d refuses exactly the q that leave q*delta fractional
    assert srq_decompose(Fraction(5, 6), 12) == SRQ(s=1, r=2, q=12)
    with pytest.raises(ValueError, match=r"got q=9, delta=5/6"):
        srq_decompose(Fraction(5, 6), 9)
    # r = q*(s*d - n)/d, from 1 up to q
    assert srq_decompose(Fraction(5, 2), 2) == SRQ(s=3, r=1, q=2)
    assert srq_decompose(Fraction(7, 3), 3) == SRQ(s=3, r=2, q=3)
    assert srq_decompose(Fraction(-2, 3), 6) == SRQ(s=0, r=4, q=6)
    assert srq_decompose(Fraction(2), 5) == SRQ(s=3, r=5, q=5)
    assert srq_decompose(Fraction(11, 5), 5) == SRQ(s=3, r=4, q=5)


def test_reduced_builds_the_fraction_in_lowest_terms():
    for num, den in ((6, 4), (-6, 4), (0, 5), (7, 1), (3 * 10**40, 9 * 10**41 + 3)):
        x = reduced(num, den, math.gcd(num, den))
        assert type(x) is Fraction and x == Fraction(num, den)
        assert (x.numerator, x.denominator) == Fraction(num, den).as_integer_ratio()
        assert type(x.numerator) is int and type(x.denominator) is int


def test_as_rational_keeps_a_fraction_and_converts_the_rest():
    x = Fraction(3, 2)
    assert as_rational(x) is x
    assert as_rational(3) == Fraction(3) and type(as_rational(3)) is Fraction
    assert as_rational("-5/6") == Fraction(-5, 6)


FLOAT_CALLS = [
    (srq_decompose, (0.5, 2)),
    (rational_str, (0.5,)),
    (canonical_q, (0.5,)),
    (floor_frac, (0.5,)),
    (gap_amount, (0.5, 2)),
    (sharp_sum_bound, (3, 0.5, 2)),
    (lcm_bound, (0.5, 2)),
    (extremal_gap_tuple, (3, 0.5, 2)),
    (extremal_lcm_tuple, (3, 0.5, 2)),
    (classify_equality, ((1, 1, 3), 0.5, 2)),
    (greedy, (0.5,)),
    (enumerate_exact, (0.5, 2)),
    (enumerate_deficiency, (3, 0.5, 2)),
    (gap_bound, (1, 0.5, 2)),
    (index_bound, (1, 0.5, 2)),
    (refined_index_bound, (1, 0, 0.5, 2)),
    (window_search, (2, 0.5, 2)),
    (max_lcm_search, (2, 0.5, 2)),
    (sweep, (2, [0.5])),
]


@pytest.mark.parametrize("f, args", FLOAT_CALLS, ids=[f.__name__ for f, _ in FLOAT_CALLS])
def test_floats_are_refused(f, args):
    with pytest.raises(ValueError, match=r"rationals must be exact, got the float 0\.5"):
        f(*args)


BOOL_Q_CALLS = [
    (srq_decompose, (1, True)),
    (gap_amount, (1, True)),
    (sharp_sum_bound, (3, 1, True)),
    (lcm_bound, (1, True)),
    (window_search, (3, 1, True)),
    (max_lcm_search, (3, 1, True)),
    (lcm_square_check, ((2, 3, 6), True)),
    (sylvester_u, (3, True)),
    (SylvesterTable, (True,)),
]


@pytest.mark.parametrize("f, args", BOOL_Q_CALLS, ids=[f.__name__ for f, _ in BOOL_Q_CALLS])
def test_bool_q_is_refused(f, args):
    with pytest.raises(ValueError, match=r"q must be a positive integer, got True"):
        f(*args)


# one row per integer parameter the library checks, all through as_int: a
# call with that parameter set to x, the name its error gives it, and the
# least value it takes
INT_PARAMETERS = [
    ("srq_decompose", lambda x: srq_decompose(1, x), "q", 1),
    ("near_one_check:n", lambda x: near_one_check(x, 1, 2), "n", 1),
    ("near_one_check:p", lambda x: near_one_check(2, x, 2), "p", 1),
    ("near_one_check:q", lambda x: near_one_check(2, 1, x), "q", 1),
    ("SRQ:s", lambda x: SRQ(s=x, r=1, q=1), "s", 0),
    ("SRQ:r", lambda x: SRQ(s=0, r=x, q=2), "r", 1),
    ("SRQ:q", lambda x: SRQ(s=0, r=1, q=x), "q", 1),
    ("SylvesterTable", lambda x: SylvesterTable(x), "seed q", 1),
    ("SylvesterTable.u", lambda x: SylvesterTable(1).u(x), "index p", 1),
    ("sylvester_u:p", lambda x: sylvester_u(x, 1), "index p", 1),
    ("sylvester_u:q", lambda x: sylvester_u(3, x), "seed q", 1),
    ("check_identities:p_max", lambda x: check_identities(x, 1), "p_max", 1),
    ("check_identities:q_max", lambda x: check_identities(1, x), "q_max", 1),
    ("StandardCoefficient", lambda x: StandardCoefficient(x), "m", 1),
    ("LogStructure", lambda x: LogStructure(x, ()), "dimension", 1),
    ("gap_bound", lambda x: gap_bound(x, 0, 1), "dimension", 1),
    ("index_bound", lambda x: index_bound(x, 0, 1), "dimension", 1),
    ("refined_index_bound:dim", lambda x: refined_index_bound(x, 0, 0, 1), "dimension", 1),
    ("refined_index_bound:ones", lambda x: refined_index_bound(1, x, 1, 1), "ones", 0),
    ("sharp_sum_bound", lambda x: sharp_sum_bound(x, 1, 1), "k", 1),
    ("extremal_gap_tuple", lambda x: extremal_gap_tuple(x, 1, 1), "k", 1),
    ("extremal_lcm_tuple", lambda x: extremal_lcm_tuple(x, 1, 1), "k", 1),
    ("window_search:k", lambda x: window_search(x, 1, 1), "k", 1),
    ("window_search:budget", lambda x: window_search(3, 1, 1, budget=x), "budget", 1),
    ("max_lcm_search:k", lambda x: max_lcm_search(x, 1, 1), "k", 1),
    ("max_lcm_search:budget", lambda x: max_lcm_search(3, 1, 1, budget=x), "budget", 1),
    ("lcm_square_check", lambda x: lcm_square_check((2, 3, 6), x), "q", 1),
    ("sweep:k_max", lambda x: sweep(x, [1]), "k_max", 0),
    ("sweep:budget", lambda x: sweep(2, [1], budget=x), "budget", 1),
    ("as_tuple", lambda x: as_tuple((x, 2, 2)), "denominator", 1),
    ("classify_equality", lambda x: classify_equality((x,), -1, 1), "denominator", 1),
    ("tuple_sum", lambda x: tuple_sum((x, 2)), "denominator", 1),
    ("tuple_lcm", lambda x: tuple_lcm((x, 2)), "denominator", 1),
    ("split_expand", lambda x: split_expand((2, 3), x), "index", 0),
    ("enumerate_exact", lambda x: enumerate_exact(1, x), "term count", 0),
    ("enumerate_deficiency", lambda x: enumerate_deficiency(x, 1, 1), "k", 1),
]


@pytest.mark.parametrize("call, name, least", [c[1:] for c in INT_PARAMETERS],
                         ids=[c[0] for c in INT_PARAMETERS])
def test_bool_integers_are_refused(call, name, least):
    # a bool, a whole float, a fractional one, the first integer out of
    # range and a negative one, each with the gate's message. A check by
    # value alone (k < 1, say) lets the floats and bools through:
    # sharp_sum_bound(3.0, 1, 1) would return a Fraction of floats,
    # enumerate_exact(1, True) the tuple (1,), and max_lcm_search(3, 1, 1,
    # budget=1.5) fail with a TypeError; with no check at all,
    # tuple_sum((-2, 2)) would return 0 and tuple_lcm((0, 2)) 0
    kind = "positive" if least else "nonnegative"
    for bad in (True, 3.0, 1.5, least - 1, -2):
        message = f"{name} must be a {kind} integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)


def test_as_int_returns_valid_integers_unchanged():
    big = 10**30
    assert as_int(big, "n") is big
    assert as_int(1, "n") == 1
    assert as_int(0, "n", 0) == 0
    # 0 where a parameter allows it
    assert sweep(0, [1]).passed
    assert enumerate_exact(0, 0) == [()]
    assert split_expand((2, 3), 0) == (3, 3, 6)
    assert refined_index_bound(1, 0, 1, 1) == index_bound(1, 1, 1)
    assert SRQ(s=0, r=1, q=1).delta == -1
    # a reciprocal sum and an lcm take their denominators in any order
    assert tuple_sum((6, 2, 3)) == 1
    assert tuple_lcm((6, 2, 3)) == 6


# strings that Fraction reads but the wire format refuses: an exponent,
# spaces, an underscore, a decimal point and non-ASCII digits (3/4 in
# Arabic-Indic)
NOT_WIRE_FORMAT = ["1e-3", " 3/2 ", "1_000", "3.5", "\u0663/\u0664"]


# one row per public rational input, all through as_rational: a call with
# that input set to x, the name and the floor its error gives it (None for
# an input with no floor), and a value the call takes with what it returns,
# the floor itself where there is one
RATIONAL_PARAMETERS = [
    # delta >= -1: the gap bound's s >= 0
    ("srq_decompose", lambda x: dataclasses.astuple(srq_decompose(x, 2)), "delta", -1, -1,
     (0, 2, 2)),
    ("sharp_sum_bound", lambda x: sharp_sum_bound(3, x, 2), "delta", -1, -1, 3),
    ("gap_amount", lambda x: gap_amount(x, 2), "delta", -1, -1, 1),
    ("extremal_gap_tuple", lambda x: extremal_gap_tuple(3, x, 2), "delta", -1, -1, (1, 1, 1)),
    ("classify_equality", lambda x: classify_equality((1, 1, 1), x, 2).tag.name,
     "delta", -1, -1, "NEGATIVE_DELTA"),
    ("window_search", lambda x: window_search(3, x, 2).passed, "delta", -1, -1, True),
    ("sweep", lambda x: sweep(2, [x]).passed, "delta", -1, -1, True),
    # delta >= 0: the lcm bound's s >= 1
    ("lcm_bound", lambda x: lcm_bound(x, 2), "delta", 0, 0, 1),
    ("extremal_lcm_tuple", lambda x: extremal_lcm_tuple(3, x, 2), "delta", 0, 0, (1, 1, 1)),
    ("max_lcm_search", lambda x: max_lcm_search(3, x, 2).passed, "delta", 0, 0, True),
    # x and a target sum >= 0
    ("greedy", greedy, "x", 0, 0, ()),
    ("iter_exact", lambda x: list(iter_exact(x, 0)), "target sum", 0, 0, [()]),
    ("enumerate_exact", lambda x: enumerate_exact(x, 0), "target sum", 0, 0, [()]),
    # a volume threshold >= 0
    ("gap_bound", lambda x: gap_bound(1, x, 2), "threshold", 0, 0, Fraction(1, 903)),
    ("index_bound", lambda x: index_bound(1, x, 2), "threshold", 0, 0, 21),
    ("refined_index_bound", lambda x: refined_index_bound(1, 0, x, 2),
     "threshold", 0, 0, 21),
    # no floor; positive_sequence checks its entries positive on its own
    ("floor_frac", floor_frac, None, None, Fraction(-7, 2), (-4, Fraction(1, 2))),
    ("canonical_q", canonical_q, None, None, Fraction(-7, 2), 2),
    ("rational_str", rational_str, None, None, Fraction(-7, 2), "-7/2"),
    ("positive_sequence", lambda x: positive_sequence([x]), None, None, "1/2",
     (Fraction(1, 2),)),
]


@pytest.mark.parametrize("call, name, least, accepted, result",
                         [c[1:] for c in RATIONAL_PARAMETERS],
                         ids=[c[0] for c in RATIONAL_PARAMETERS])
def test_rational_inputs_are_refused_below_their_floor(call, name, least, accepted,
                                                       result):
    # a float, even a whole one, a bool, a string outside the wire format, a
    # zero denominator and the floor less a half, each with the gate's
    # message, then the floor itself accepted
    refusals = [(bad, f"rationals must be exact, got the float {bad!r}") for bad in (0.5, 2.0)]
    refusals.append((True, "rationals must be exact, got the bool True"))
    refusals += [(bad, f"malformed rational literal: {bad!r}") for bad in NOT_WIRE_FORMAT]
    refusals.append(("1/0", "zero denominator in '1/0'"))
    if least is not None:
        below = least - Fraction(1, 2)
        refusals.append((below, f"{name} must be >= {least}, got {below}"))
    for bad, message in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    assert least is None or accepted == least
    assert call(accepted) == result


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

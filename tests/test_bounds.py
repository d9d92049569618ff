"""Sharp window and lcm bounds, extremal tuples, equality classification."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egyfrac import bounds
from egyfrac.bounds import (
    EqualityCase,
    EqualityFamily,
    classify_equality,
    extremal_gap_tuple,
    extremal_lcm_tuple,
    gap_amount,
    lcm_bound,
    sharp_sum_bound,
)
from egyfrac.egyptian import as_tuple, enumerate_deficiency, tuple_lcm, tuple_sum
from egyfrac.rationals import floor_frac, srq_decompose
from egyfrac.sylvester import sylvester_u

# (delta, canonical q) grid reused below; every q*delta is integral
GRID = [
    (Fraction(-1), 1),
    (Fraction(-1, 2), 2),
    (Fraction(-1, 3), 3),
    (Fraction(0), 1),
    (Fraction(1, 3), 3),
    (Fraction(1, 2), 2),
    (Fraction(2, 3), 3),
    (Fraction(1), 1),
    (Fraction(4, 3), 3),
    (Fraction(3, 2), 2),
    (Fraction(2), 1),
    (Fraction(5, 2), 2),
    (Fraction(3), 1),
]


def test_gap_amount_frozen():
    assert gap_amount(2, 1) == Fraction(1, 42)
    assert gap_amount(-1, 1) == Fraction(1)
    assert gap_amount(Fraction(1, 2), 2) == Fraction(1, 6)
    assert gap_amount(0, 1) == Fraction(1, 2)
    assert gap_amount(1, 1) == Fraction(1, 6)
    assert gap_amount(Fraction(3, 2), 2) == Fraction(1, 42)


def test_gap_amount_dual_route():
    # r/u(s+1, q) must agree with q*(1 - frac(delta))/u(floor(delta)+2, q)
    for delta, base in GRID:
        for q in (base, 2 * base, 3 * base):
            fl, frac = floor_frac(delta)
            direct = Fraction(q * (1 - frac), sylvester_u(fl + 2, q))
            assert gap_amount(delta, q) == direct


def test_gap_amount_shrinks_as_q_grows():
    # for delta >= 0 a finer grid strictly narrows the window
    for delta, base in GRID:
        if delta < 0:
            continue
        for mult in (1, 2, 3):
            q = base * mult
            assert gap_amount(delta, 2 * q) < gap_amount(delta, q)


def test_gap_amount_constant_below_zero():
    # for -1 <= delta < 0 the window width is -delta, independent of q
    for delta, base in GRID:
        if delta >= 0:
            continue
        assert gap_amount(delta, base) == -delta
        assert gap_amount(delta, 5 * base) == -delta


def test_gap_amount_rejects_incompatible_q():
    with pytest.raises(ValueError):
        gap_amount(Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        gap_amount(Fraction(-3, 2), 2)


def test_sharp_sum_bound_frozen():
    assert sharp_sum_bound(3, 2, 1) == Fraction(41, 42)
    assert sharp_sum_bound(4, 1, 1) == Fraction(17, 6)
    assert sharp_sum_bound(1, 0, 1) == Fraction(1, 2)
    assert sharp_sum_bound(3, -1, 1) == Fraction(3)
    with pytest.raises(ValueError):
        sharp_sum_bound(0, 0, 1)


def test_lcm_bound_frozen():
    assert lcm_bound(2, 1) == 6
    assert lcm_bound(1, 1) == 2
    assert lcm_bound(Fraction(1, 2), 2) == 2
    assert lcm_bound(Fraction(4, 3), 3) == 6
    assert lcm_bound(3, 1) == 42


def test_lcm_bound_rejects_negative_delta():
    with pytest.raises(ValueError):
        lcm_bound(Fraction(-1, 2), 2)
    with pytest.raises(ValueError):
        lcm_bound(-1, 1)


def test_extremal_gap_frozen():
    assert extremal_gap_tuple(4, 1, 1) == (1, 1, 2, 3)
    assert extremal_gap_tuple(3, Fraction(1, 2), 2) == (1, 1, 3)
    assert extremal_gap_tuple(2, 1, 2) is None  # r = 2 divides no 1 + u(i, 2)
    assert extremal_gap_tuple(3, 2, 1) == (2, 3, 7)
    assert extremal_gap_tuple(2, 3, 1) is None  # k < s
    assert extremal_gap_tuple(3, -1, 1) == (1, 1, 1)


def test_extremal_lcm_frozen():
    assert extremal_lcm_tuple(3, 2, 1) == (2, 3, 6)
    assert extremal_lcm_tuple(4, Fraction(3, 2), 2) == (1, 1, 3, 6)
    assert extremal_lcm_tuple(2, 1, 2) is None
    assert extremal_lcm_tuple(1, 0, 1) == (1,)
    assert extremal_lcm_tuple(2, 3, 1) is None  # k < s
    with pytest.raises(ValueError):
        extremal_lcm_tuple(3, Fraction(-1, 2), 2)


def test_extremal_tuples_stop_at_the_first_entry_r_fails_to_divide():
    # s = 40, r = 2, q = 3: r fails to divide 1 + u(2, 3) = 13, long before
    # u(40, 3) would pass the bit ceiling on Sylvester values
    assert extremal_gap_tuple(40, Fraction(118, 3), 3) is None
    assert extremal_lcm_tuple(40, Fraction(118, 3), 3) is None


def test_extremal_gap_attains_bound():
    for delta, base in GRID:
        for q in (base, 2 * base):
            for k in range(1, 6):
                t = extremal_gap_tuple(k, delta, q)
                if t is None:
                    continue
                assert tuple_sum(t) == sharp_sum_bound(k, delta, q)
                assert len(t) == k


def test_extremal_gap_presence_law():
    # s = 0: always present; s = 1: present iff r | 1+q; s >= 2: iff r = 1
    # (1 + u(1, q) and 1 + u(2, q) are coprime, so r > 1 cannot divide both)
    for delta, base in GRID:
        for q in (base, 2 * base, 3 * base):
            d = srq_decompose(delta, q)
            k = d.s + 2
            expect = (
                d.s == 0
                or (d.s == 1 and (1 + q) % d.r == 0)
                or (d.s >= 2 and d.r == 1)
            )
            assert (extremal_gap_tuple(k, delta, q) is not None) == expect


def test_extremal_lcm_attains_bound_and_presence_law():
    # present iff k >= s and (s=1 and r|q, or s=2 and r|1+q, or s>=3 and r=1)
    for delta, base in GRID:
        if delta < 0:
            continue
        for q in (base, 2 * base, 3 * base):
            d = srq_decompose(delta, q)
            for k in range(1, 6):
                t = extremal_lcm_tuple(k, delta, q)
                divisible = (
                    (d.s == 1 and q % d.r == 0)
                    or (d.s == 2 and (1 + q) % d.r == 0)
                    or (d.s >= 3 and d.r == 1)
                )
                assert (t is not None) == (k >= d.s and divisible)
                if t is None:
                    continue
                assert tuple_sum(t) == k - delta
                assert tuple_lcm(t) == lcm_bound(delta, q)


def test_extremal_lcm_dominates_class_lcm():
    # brute confirmation on one cell: no 3-term tuple summing to 1 beats it
    from egyfrac.egyptian import enumerate_exact

    best = extremal_lcm_tuple(3, 2, 1)
    bound = lcm_bound(2, 1)
    for t in enumerate_exact(1, 3):
        assert tuple_lcm(t) <= bound
        assert (tuple_lcm(t) == bound) == (t == best)


def test_classify_gap_families():
    assert classify_equality((1, 1, 1), -1, 1).tag is EqualityFamily.NEGATIVE_DELTA
    assert classify_equality((1, 1, 3), Fraction(1, 2), 2).tag is (
        EqualityFamily.FRACTIONAL_DELTA
    )
    assert classify_equality((2, 3, 7), 2, 1).tag is EqualityFamily.SYLVESTER_GAP
    assert classify_equality((1, 1, 2, 3), 1, 1).tag is EqualityFamily.SYLVESTER_GAP
    case = classify_equality((2, 3, 7), 2, 1)
    assert case.witness == (2, 3, 7)


def test_classify_lcm_families():
    assert classify_equality((2, 3, 6), 2, 1).tag is EqualityFamily.SYLVESTER_LCM
    assert classify_equality((1,), 0, 1).tag is EqualityFamily.SYLVESTER_LCM
    # s = 2 with r = 2 > 1: delta = 2 - 2/3 = 4/3, entries (1+3)/2, 12/2
    assert classify_equality((2, 6), Fraction(4, 3), 3).tag is (
        EqualityFamily.TWO_TERM_LCM
    )
    assert tuple_sum((2, 6)) == 2 - Fraction(4, 3)
    assert tuple_lcm((2, 6)) == lcm_bound(Fraction(4, 3), 3)


def test_classify_none_cases():
    # right sum, wrong structure
    assert classify_equality((2, 4, 4), 2, 1).tag is EqualityFamily.NONE
    assert classify_equality((3, 3, 3), 2, 1).tag is EqualityFamily.NONE
    # sum matches neither the class level nor the sharp bound
    assert classify_equality((2, 2), 2, 1).tag is EqualityFamily.NONE
    assert classify_equality((), 0, 1).tag is EqualityFamily.NONE
    assert classify_equality((2, 4, 4), 2, 1).witness is None


def test_classify_round_trips_extremal_constructors():
    for delta, base in GRID:
        for q in (base, 2 * base):
            d = srq_decompose(delta, q)
            for k in range(max(1, d.s), 6):
                g = extremal_gap_tuple(k, delta, q)
                if g is not None:
                    tag = classify_equality(g, delta, q).tag
                    if delta < 0:
                        assert tag is EqualityFamily.NEGATIVE_DELTA
                    elif delta < 1:
                        assert tag is EqualityFamily.FRACTIONAL_DELTA
                    else:
                        assert tag is EqualityFamily.SYLVESTER_GAP
                if delta < 0:
                    continue
                kl = extremal_lcm_tuple(k, delta, q)
                if kl is not None:
                    tag = classify_equality(kl, delta, q).tag
                    if d.s == 2 and d.r > 1:
                        assert tag is EqualityFamily.TWO_TERM_LCM
                    else:
                        assert tag is EqualityFamily.SYLVESTER_LCM


def test_equality_case_witness_consistency():
    with pytest.raises(ValueError):
        EqualityCase(EqualityFamily.NONE, (2, 3, 6))
    with pytest.raises(ValueError):
        EqualityCase(EqualityFamily.SYLVESTER_GAP, None)


def test_first_two_companions_coprime_backs_presence_law():
    # the s >= 2, r > 1 exclusions above rest on this coprimality
    for q in range(1, 40):
        assert math.gcd(1 + sylvester_u(1, q), 1 + sylvester_u(2, q)) == 1


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 3), q=st.integers(1, 3), data=st.data())
def test_classify_equality_accepts_exactly_the_extremal_tuples(k, q, data):
    delta = Fraction(data.draw(st.integers(-q, 3 * q)), q)
    extremal = {extremal_gap_tuple(k, delta, q)}
    if delta >= 0:
        extremal.add(extremal_lcm_tuple(k, delta, q))
    extremal.discard(None)
    # draw from the extremal tuples, the whole class summing to k - delta,
    # and arbitrary tuples, so both answers of the classifier come up
    candidates = sorted(extremal) + enumerate_deficiency(k, delta, q)
    arbitrary = st.lists(st.integers(1, 60), min_size=k, max_size=k).map(
        lambda t: tuple(sorted(t))
    )
    if candidates:
        t = data.draw(st.one_of(st.sampled_from(candidates), arbitrary))
    else:
        t = data.draw(arbitrary)
    case = classify_equality(t, delta, q)
    assert (case.tag is not EqualityFamily.NONE) == (t in extremal)
    assert case.witness == (t if t in extremal else None)


def _reference_gap_tuple(k, delta, q):
    """extremal_gap_tuple as it read before its pattern was split out."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    d = srq_decompose(delta, q)
    if k < d.s:
        return None
    tail = []
    for i in range(1, d.s + 1):
        num = 1 + sylvester_u(i, q)
        if num % d.r:
            return None
        tail.append(num // d.r)
    t = (1,) * (k - d.s) + tuple(tail)
    assert tuple_sum(t) == sharp_sum_bound(k, delta, q)
    return t


def _reference_lcm_tuple(k, delta, q):
    """extremal_lcm_tuple as it read before its pattern was split out."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError(f"extremal lcm tuple requires delta >= 0, got {delta}")
    d = srq_decompose(delta, q)
    if k < d.s:
        return None
    entries = []
    for i in range(1, d.s):
        num = 1 + sylvester_u(i, q)
        if num % d.r:
            return None
        entries.append(num // d.r)
    closing = sylvester_u(d.s, q)
    if closing % d.r:
        return None
    entries.append(closing // d.r)
    t = (1,) * (k - d.s) + tuple(entries)
    assert tuple_sum(t) == k - delta
    assert tuple_lcm(t) == lcm_bound(delta, q)
    return t


def _reference_classify(t, delta, q):
    """classify_equality as it read when it called the public constructors,
    which re-sum (and, for lcm, re-take the lcm of) the tuple it has summed."""
    t = as_tuple(t)
    delta = Fraction(delta)
    d = srq_decompose(delta, q)
    k = len(t)
    if k == 0:
        return EqualityCase(EqualityFamily.NONE)
    total = tuple_sum(t)

    if total == k - delta:
        if delta >= 0 and t == _reference_lcm_tuple(k, delta, q):
            if d.s == 2 and d.r > 1:
                return EqualityCase(EqualityFamily.TWO_TERM_LCM, t)
            return EqualityCase(EqualityFamily.SYLVESTER_LCM, t)
        return EqualityCase(EqualityFamily.NONE)

    if total == sharp_sum_bound(k, delta, q) and t == _reference_gap_tuple(k, delta, q):
        if delta < 0:
            return EqualityCase(EqualityFamily.NEGATIVE_DELTA, t)
        if delta < 1:
            return EqualityCase(EqualityFamily.FRACTIONAL_DELTA, t)
        return EqualityCase(EqualityFamily.SYLVESTER_GAP, t)

    return EqualityCase(EqualityFamily.NONE)


def _outcome(classify, t, delta, q):
    """(tag, witness) of a classification, or the text of its ValueError."""
    try:
        case = classify(t, delta, q)
    except ValueError as e:
        return ("ValueError", str(e))
    return (case.tag, case.witness)


# deficiencies -1, -1/2, ..., 12, each at its canonical q and at twice it
HALF_GRID = [
    (Fraction(n, 2), q)
    for n in range(-2, 25)
    for q in (Fraction(n, 2).denominator, 2 * Fraction(n, 2).denominator)
]
DEEP_CELLS = [(Fraction(14), 1), (Fraction(35, 2), 2), (Fraction(18), 1)]


def _extremal_cases(cells, ks):
    """Every extremal tuple of the cells, with (k, delta, q) and its kind."""
    for delta, q in cells:
        for k in ks(srq_decompose(delta, q).s):
            kinds = [("gap", _reference_gap_tuple)]
            if delta >= 0:
                kinds.append(("lcm", _reference_lcm_tuple))
            for kind, make in kinds:
                t = make(k, delta, q)
                if t is not None:
                    yield kind, k, delta, q, t


def _with_neighbours(t):
    """t and t with its last entry one lower and one higher."""
    return [t, t[:-1] + (t[-1] - 1,), t[:-1] + (t[-1] + 1,)]


def test_constructors_match_the_reference_on_the_half_grid():
    for delta, q in HALF_GRID:
        for k in range(1, 9):
            assert extremal_gap_tuple(k, delta, q) == _reference_gap_tuple(k, delta, q)
            if delta >= 0:
                assert extremal_lcm_tuple(k, delta, q) == _reference_lcm_tuple(k, delta, q)


def test_classify_matches_the_reference_on_extremal_tuples_and_neighbours():
    cases = list(_extremal_cases(HALF_GRID, lambda s: range(1, 9)))
    assert len(cases) > 100
    for _, _, delta, q, t in cases:
        for u in _with_neighbours(t):
            new = _outcome(classify_equality, u, delta, q)
            assert new == _outcome(_reference_classify, u, delta, q), (u, delta, q)
        assert classify_equality(t, delta, q).tag is not EqualityFamily.NONE


def test_classify_matches_the_reference_on_deep_cells():
    cases = list(_extremal_cases(DEEP_CELLS, lambda s: (s, s + 2)))
    assert len(cases) == 12  # r = 1 in each cell: gap and lcm at both k
    for _, _, delta, q, t in cases:
        for u in _with_neighbours(t):
            new = _outcome(classify_equality, u, delta, q)
            assert new == _outcome(_reference_classify, u, delta, q)


@settings(max_examples=300, deadline=None)
@given(
    t=st.lists(st.integers(0, 50), max_size=6),
    sort=st.booleans(),
    num=st.integers(-6, 16),
    den=st.integers(1, 4),
    q=st.integers(1, 6),
)
def test_classify_matches_the_reference_on_arbitrary_tuples(t, sort, num, den, q):
    t = tuple(sorted(t)) if sort else tuple(t)
    delta = Fraction(num, den)
    assert _outcome(classify_equality, t, delta, q) == _outcome(
        _reference_classify, t, delta, q
    )


def _counting(monkeypatch, name):
    """Wrap egyfrac.bounds.<name> so that its calls are counted."""
    calls = []
    real = getattr(bounds, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, name, counted)
    return calls


@pytest.mark.parametrize("delta, q", DEEP_CELLS)
@pytest.mark.parametrize("kind", ["gap", "lcm"])
def test_classify_sums_a_deep_extremal_tuple_once(monkeypatch, kind, delta, q):
    make = extremal_gap_tuple if kind == "gap" else extremal_lcm_tuple
    t = make(srq_decompose(delta, q).s + 1, delta, q)
    sums = _counting(monkeypatch, "tuple_sum")
    lcms = _counting(monkeypatch, "tuple_lcm")
    assert classify_equality(t, delta, q).witness == t
    assert (len(sums), len(lcms)) == (1, 0)


def test_constructors_still_assert_the_bounds(monkeypatch):
    monkeypatch.setattr(bounds, "tuple_sum", lambda t: Fraction(0))
    with pytest.raises(AssertionError):
        extremal_gap_tuple(3, 2, 1)
    with pytest.raises(AssertionError):
        extremal_lcm_tuple(3, 2, 1)

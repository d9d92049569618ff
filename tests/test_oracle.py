"""Window and lcm verification searches, plus the grid sweep around them."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egyfrac import egyptian, oracle
from egyfrac.bounds import (
    EqualityCase,
    EqualityFamily,
    classify_equality,
    extremal_gap_tuple,
    gap_amount,
    lcm_bound,
    sharp_sum_bound,
)
from egyfrac.egyptian import (
    as_tuple,
    close_pairs,
    enumerate_exact,
    position_range,
    tuple_lcm,
    tuple_sum,
    walk,
)
from egyfrac.oracle import (
    lcm_square_check,
    max_lcm_search,
    sweep,
    window_search,
)
from egyfrac.report import (
    Counterexample,
    EqualityWitness,
    SearchStats,
    VerificationReport,
    report_to_dict,
)
from test_egyptian import _reference_two_term_pairs

F = Fraction


def test_window_frozen_cells():
    report = window_search(3, 2, 1)
    assert report.passed
    assert report.counterexamples == []
    assert [w.denominators for w in report.equality_witnesses] == [(2, 3, 7)]
    assert report.equality_witnesses[0].family == "SYLVESTER_GAP"
    assert report.stats.nodes == 15
    assert report.parameters["sharp_sum_bound"] == F(41, 42)
    assert report.parameters["window_top"] == 1

    report = window_search(2, 0, 1)
    assert report.passed
    assert [w.denominators for w in report.equality_witnesses] == [(1, 2)]
    assert report.equality_witnesses[0].family == "FRACTIONAL_DELTA"

    report = window_search(1, -1, 1)
    assert report.passed
    assert [w.denominators for w in report.equality_witnesses] == [(1,)]
    assert report.equality_witnesses[0].family == "NEGATIVE_DELTA"


def _brute_window(k: int, delta: F, q: int, cap: int):
    """Scan every nondecreasing k-tuple with entries <= cap; return the sums
    that land inside the open window and the tuples sitting on its floor."""
    bound = sharp_sum_bound(k, delta, q)
    top = k - delta
    inside, floor = [], []
    for t in itertools.combinations_with_replacement(range(1, cap + 1), k):
        s = tuple_sum(t)
        if bound < s < top:
            inside.append(t)
        elif s == bound:
            floor.append(t)
    return inside, floor


@pytest.mark.parametrize(
    "k,delta,q,cap",
    [
        (3, F(2), 1, 30),
        (2, F(0), 1, 30),
        (4, F(1), 1, 25),
        (3, F(3, 2), 2, 30),
        (3, F(-1, 2), 2, 20),
    ],
)
def test_window_matches_brute_force(k, delta, q, cap):
    inside, floor = _brute_window(k, delta, q, cap)
    assert inside == []  # the window really is empty of achievable sums
    report = window_search(k, delta, q)
    assert report.passed
    witnesses = [w.denominators for w in report.equality_witnesses]
    assert sorted(witnesses) == sorted(floor)
    expected = extremal_gap_tuple(k, delta, q)
    assert witnesses == ([expected] if expected is not None else [])


def test_window_budget_exhaustion():
    report = window_search(4, 2, 1, budget=3)
    assert not report.passed
    assert report.budget_exceeded
    assert report.counterexamples == []  # ran out, found nothing wrong
    assert report.stats.nodes == 4  # the node that tripped the limit counts


def _reference_window(k: int, delta: F, q: int, budget: int, bound: F):
    """The original recursive Fraction traversal behind window_search, kept
    as the reference for the integer walker: returns (nodes, counterexamples,
    witnesses, budget_exceeded) for the window (bound, k - delta)."""
    top = k - delta
    counterexamples, witnesses = [], []
    nodes = 0
    exceeded = False
    prefix = []

    def visit(prev, total, slots):
        nonlocal nodes, exceeded
        if exceeded:
            return
        nodes += 1
        if nodes > budget:
            exceeded = True
            return
        if total >= top:
            return
        if total > bound:
            claim = (
                "sum inside forbidden window"
                if slots == 0
                else "prefix completable into forbidden window"
            )
            counterexamples.append(Counterexample(claim, tuple(prefix), delta, q))
            return
        if total == bound:
            if slots == 0:
                tag = classify_equality(prefix, delta, q).tag.value
                witnesses.append(EqualityWitness(tuple(prefix), delta, q, tag))
            else:
                counterexamples.append(
                    Counterexample(
                        "boundary prefix completable into forbidden window",
                        tuple(prefix),
                        delta,
                        q,
                    )
                )
            return
        if slots == 0:
            return
        hi = math.floor(slots / (bound - total))
        for m in range(max(prev, 1), hi + 1):
            prefix.append(m)
            visit(m, total + F(1, m), slots - 1)
            prefix.pop()
            if exceeded:
                return

    visit(1, F(0), k)
    return nodes, counterexamples, witnesses, exceeded


def _assert_matches_reference(k, delta, q, budget=oracle.DEFAULT_BUDGET):
    report = window_search(k, delta, q, budget=budget)
    bound = report.parameters["sharp_sum_bound"]
    assert (
        report.stats.nodes,
        report.counterexamples,
        report.equality_witnesses,
        report.budget_exceeded,
    ) == _reference_window(k, delta, q, budget, bound), (k, delta, q, budget)


WALKER_CELLS = [
    (k, delta, q)
    for k in range(1, 6)
    for delta in (F(n, 2) for n in range(-2, 7))
    for q in range(delta.denominator, 5, delta.denominator)
]


def test_window_walker_matches_reference():
    assert len(WALKER_CELLS) == 140
    for cell in WALKER_CELLS:
        _assert_matches_reference(*cell)


@pytest.mark.parametrize("k,delta,q", [(4, F(2), 1), (5, F(5, 2), 2)])
def test_window_walker_matches_reference_under_budget(k, delta, q):
    for budget in range(1, 41):
        _assert_matches_reference(k, delta, q, budget)


@pytest.mark.parametrize("k,delta,q", [(3, F(2), 1), (4, F(3, 2), 2), (5, F(3), 1)])
def test_window_walker_matches_reference_on_counterexamples(k, delta, q, monkeypatch):
    # a floor lowered by one more gap puts the true floor tuples inside the
    # window, so both traversals must report the same counterexamples
    def lowered(k, delta, q):
        return sharp_sum_bound(k, delta, q) - gap_amount(delta, q)

    monkeypatch.setattr(oracle, "sharp_sum_bound", lowered)
    report = window_search(k, delta, q)
    assert report.counterexamples
    _assert_matches_reference(k, delta, q)


def test_window_names_each_prefix_counterexample(monkeypatch):
    # under a floor of 1/3 the prefix (2,) lies inside the window (1/3, 1)
    # and (3,) sits on its floor, each with two slots still open
    monkeypatch.setattr(oracle, "sharp_sum_bound", lambda k, delta, q: F(1, 3))
    report = window_search(3, 2, 1)
    assert report.counterexamples[:2] == [
        Counterexample("prefix completable into forbidden window", (2,), F(2), 1),
        Counterexample("boundary prefix completable into forbidden window", (3,), F(2), 1),
    ]


def test_window_rejects_bad_input():
    with pytest.raises(ValueError):
        window_search(0, 1, 1)
    with pytest.raises(ValueError):
        window_search(2, -2, 1)
    with pytest.raises(ValueError):
        window_search(2, 1, 1, budget=0)


def test_max_lcm_frozen_cells():
    report = max_lcm_search(3, 2, 1)
    assert report.passed
    assert report.details["class_size"] == 3
    assert report.details["max_lcm"] == 6
    assert report.details["maximizers"] == [(2, 3, 6)]
    assert [w.denominators for w in report.equality_witnesses] == [(2, 3, 6)]
    assert report.equality_witnesses[0].family == "SYLVESTER_LCM"
    assert report.parameters["lcm_bound"] == 6

    report = max_lcm_search(2, 0, 1)
    assert report.passed
    assert report.details == {"class_size": 1, "max_lcm": 1, "maximizers": [(1, 1)]}
    assert [w.denominators for w in report.equality_witnesses] == [(1, 1)]


def test_max_lcm_empty_class():
    # target sum k - delta < 0: nothing to enumerate, vacuous pass
    report = max_lcm_search(1, 2, 1)
    assert report.passed
    assert report.equality_witnesses == []
    assert report.details["class_size"] == 0
    assert report.details["max_lcm"] is None
    assert report.stats.nodes == 1  # the walk yields only the root


def test_max_lcm_budget_exhaustion():
    # the class (2, 3, 6), (2, 4, 4), (3, 3, 3) takes 7 walker nodes (the
    # root, (1), (2), (3) and the three closed pairs), and every one of them
    # counts against the budget, not just the members
    report = max_lcm_search(3, 2, 1, budget=5)
    assert not report.passed
    assert report.budget_exceeded
    assert report.counterexamples == []
    assert report.stats.nodes == 6  # the node that tripped the limit counts


def _closed_walk(k: int, low: F, cap: F):
    """walk's yields with each exact closing expanded back into leaves:
    a prefix below an exact target with two slots left is followed by one
    (prefix + pair, 0, 0, low's numerator, low's denominator) per pair that
    close_pairs returns, as walk yielded its closed pairs before its
    consumers took them over."""
    for prefix, slots, side, num, den in walk(k, low, cap):
        yield prefix, slots, side, num, den
        if low == cap and slots == 2 and side < 0:
            for pair in close_pairs(prefix, side, den, low):
                yield prefix + list(pair), 0, 0, low.numerator, low.denominator


def _walk_under_budget(k: int, delta: F, budget: int):
    """(nodes, class members, maximizers, budget_exceeded) of a budgeted pass
    over the class summing to k - delta, one node per prefix walk yields and
    one per pair that closes a prefix."""
    target = k - delta
    yields = _yields(_closed_walk(k, target, target), budget + 1)
    members = [t for t, slots, side, _, _ in yields[:budget] if not slots and not side]
    lcms = [math.lcm(*t) for t in members]
    top = max(lcms, default=None)
    maximizers = [t for t, lcm in zip(members, lcms) if lcm == top]
    return len(yields), len(members), maximizers, len(yields) > budget


@pytest.mark.parametrize(
    "k,delta,q,budgets",
    [
        (4, F(2), 1, range(1, 51)),
        (5, F(5, 2), 2, range(1, 51)),
        (6, F(11, 2), 2, [1000]),
        (4, F(3), 1, range(1, 51)),
    ],
)
def test_max_lcm_budget_counts_walker_nodes(k, delta, q, budgets):
    # in (6, 11/2, 2), closed pairs are 989 of the first 1000 nodes: the
    # budget counts them as well as the prefixes they close
    for budget in budgets:
        report = max_lcm_search(k, delta, q, budget=budget)
        assert (
            report.stats.nodes,
            report.details["class_size"],
            report.details["maximizers"],
            report.budget_exceeded,
        ) == _walk_under_budget(k, delta, budget), budget


def test_max_lcm_budget_cuts_through_a_closing():
    # in (4, 3, 1) the prefix (2, 3) is node 5, and its five pairs (7, 42),
    # (8, 24), (9, 18), (10, 15), (12, 12) are nodes 6 to 10: a budget of 7
    # checks the first two and counts the third as the node past it
    report = max_lcm_search(4, F(3), 1, budget=7)
    assert report.budget_exceeded
    assert report.stats.nodes == 8
    assert report.details["class_size"] == 2
    assert report.details["maximizers"] == [(2, 3, 7, 42)]
    assert (8, 2, [(2, 3, 7, 42)], True) == _walk_under_budget(4, F(3), 7)


def _reference_square_check(t, q: int) -> bool:
    """lcm_square_check as it read before it checked class membership in
    integers, kept as the reference: the shortfall is a Fraction from
    tuple_sum, then q | L, then the square."""
    t = as_tuple(t)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    shortfall = len(t) - tuple_sum(t)
    if (q * shortfall).denominator != 1:
        raise ValueError(
            f"tuple is not in a deficiency class mod q={q}: shortfall {shortfall}"
        )
    lcm_value = math.lcm(*t)
    if lcm_value % q:
        raise ValueError(f"q={q} does not divide the tuple lcm {lcm_value}")
    return lcm_value * lcm_value <= q * math.prod(t)


def _reference_walk(k: int, low: F, cap: F):
    """egyptian.walk as it read before exact targets closed their last two
    slots by divisors, kept as the reference: every prefix down to the last
    slot is visited, and each member is a leaf of the last slot's loop."""
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


def _reference_closing_walk(k: int, low: F, cap: F):
    """egyptian.walk as it read before it became one loop over an explicit
    stack, kept as the reference: one nested generator per prefix, with an
    exact target's last two slots closed by divisors alone."""
    a, b = low.numerator, low.denominator
    c, d = cap.numerator, cap.denominator
    close_at = 2 if (a, b) == (c, d) else 0
    prefix: list[int] = []

    def visit(prev: int, num: int, den: int):
        slots = k - len(prefix)
        side = num * b - a * den
        yield prefix, slots, side, num, den
        if side < 0 and slots:
            if slots == close_at:
                g = math.gcd(side, b * den)
                for pair in _reference_two_term_pairs(prev, -side // g, b * den // g):
                    prefix.extend(pair)
                    yield prefix, 0, 0, a, b
                    del prefix[-2:]
                return
            room = (c * den - num * d, d * den)
            for m in position_range(prev, slots, room, (-side, b * den)):
                prefix.append(m)
                child_num, child_den = num * m + den, den * m
                g = math.gcd(child_num, child_den)
                yield from visit(m, child_num // g, child_den // g)
                prefix.pop()

    return visit(1, 0, 1)


def _yields(walker, budget=None):
    """A walk's yields, each prefix copied, the first budget of them if given."""
    return [
        (tuple(prefix), slots, side, num, den)
        for prefix, slots, side, num, den in itertools.islice(walker, budget)
    ]


def _reference_class(k: int, target: F) -> list[tuple[int, ...]]:
    """The k-tuples summing to target, in the reference walk's order."""
    return [
        tuple(prefix)
        for prefix, slots, side, _, _ in _reference_walk(k, target, target)
        if not slots and not side
    ]


def _reference_lcm(k: int, delta: F, q: int, bound: F):
    """The class loop that max_lcm_search ran over iter_exact before it
    walked egyptian.walk itself, kept as the reference and fed by the
    reference walk: returns (class_size, max_lcm, maximizers, witnesses,
    counterexamples)."""
    counterexamples, witnesses, maximizers = [], [], []
    max_lcm = 0
    count = 0
    target = k - delta
    if 0 <= target <= k:
        for t in _reference_class(k, target):
            count += 1
            lcm_value = tuple_lcm(t)
            if lcm_value > bound:
                counterexamples.append(Counterexample("lcm above bound", t, delta, q))
            if lcm_value % q == 0 and not _reference_square_check(t, q):
                counterexamples.append(
                    Counterexample("lcm square inequality violated", t, delta, q)
                )
            if lcm_value > max_lcm:
                max_lcm, maximizers = lcm_value, [t]
            elif lcm_value == max_lcm:
                maximizers.append(t)
            if lcm_value == bound:
                tag = classify_equality(t, delta, q).tag.value
                witnesses.append(EqualityWitness(t, delta, q, tag))
    return count, (max_lcm if count else None), maximizers, witnesses, counterexamples


def _assert_lcm_matches_reference(k, delta, q):
    report = max_lcm_search(k, delta, q)
    details = report.details
    assert (
        details["class_size"],
        details["max_lcm"],
        details["maximizers"],
        report.equality_witnesses,
        report.counterexamples,
    ) == _reference_lcm(k, delta, q, report.parameters["lcm_bound"]), (k, delta, q)
    target = k - delta
    assert report.stats.nodes == sum(1 for _ in _closed_walk(k, target, target))
    if target >= 0:
        assert enumerate_exact(target, k) == _reference_class(k, target), (k, delta)


LCM_CELLS = [
    (k, delta, q)
    for k in range(1, 6)
    for delta in (F(n, 2) for n in range(0, 8))
    for q in range(delta.denominator, 5, delta.denominator)
]

# the lcm-class cells of the benchmark: k <= 7 x delta 0..5 step 1/2 x q a
# multiple of the canonical q up to 2; (6, 11/2) and (7, 11/2) lie past
# them, where the reference walk does not finish
CLASS_CELLS = [
    (k, delta, q)
    for k in range(1, 8)
    for delta in (F(n, 2) for n in range(0, 11))
    for q in range(delta.denominator, 3, delta.denominator)
]


def test_max_lcm_walker_matches_reference():
    assert len(LCM_CELLS) == 120
    assert len(CLASS_CELLS) == 119
    for cell in LCM_CELLS + CLASS_CELLS:
        _assert_lcm_matches_reference(*cell)


def test_walk_matches_the_recursive_walk():
    for k, delta, q in WALKER_CELLS:
        bound = sharp_sum_bound(k, delta, q)
        assert _yields(walk(k, bound, k + 1)) == _yields(
            _reference_closing_walk(k, bound, k + 1)
        ), (k, delta, q)
    for k, delta, q in LCM_CELLS + CLASS_CELLS:
        target = k - delta
        assert _yields(_closed_walk(k, target, target)) == _yields(
            _reference_closing_walk(k, target, target)
        ), (k, delta, q)


@pytest.mark.parametrize("k,low,cap", [
    (4, sharp_sum_bound(4, 2, 1), 5),
    (5, F(5, 2), F(5, 2)),
])
def test_walk_matches_the_recursive_walk_when_cut_short(k, low, cap):
    for budget in range(1, 51):
        assert _yields(_closed_walk(k, low, cap), budget) == _yields(
            _reference_closing_walk(k, low, cap), budget
        ), budget


def test_walk_yields_the_root_before_any_child(monkeypatch):
    # the frontier cell's walk takes seconds to finish; its first yield
    # must not wait for any of it
    calls = []
    real = egyptian.position_range

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(egyptian, "position_range", counted)
    bound = sharp_sum_bound(7, F(11, 2), 2)
    prefix, slots, side, num, den = next(walk(7, bound, 8))
    assert (prefix, slots, num, den) == ([], 7, 0, 1)
    assert side < 0
    assert calls == []


def test_max_lcm_frontier_cell_finishes():
    # the reference walk meets 341 of the 270,332 members in its first
    # 2x10^6 nodes, 1,999,650 of which have one slot left; closing every
    # prefix with two slots left by divisors finishes in 332,904 nodes
    report = max_lcm_search(6, F(11, 2), 2)
    assert report.passed
    assert not report.budget_exceeded
    assert report.counterexamples == []
    assert report.details["class_size"] == 270_332
    assert report.details["max_lcm"] == 10_650_056_950_806 == lcm_bound(F(11, 2), 2)
    assert [w.denominators for w in report.equality_witnesses] == [
        (3, 7, 43, 1807, 3263443, 10650056950806)
    ]
    assert report.equality_witnesses[0].family == "SYLVESTER_LCM"
    assert report.stats.nodes == 332_904


@pytest.mark.parametrize("k,delta,q", [(3, F(2), 1), (4, F(5, 2), 2), (5, F(3), 1)])
def test_max_lcm_walker_matches_reference_on_counterexamples(k, delta, q, monkeypatch):
    # a bound halved puts the extremal tuple's lcm above it, so both loops
    # must report the same counterexamples
    def halved(delta, q):
        return lcm_bound(delta, q) / 2

    monkeypatch.setattr(oracle, "lcm_bound", halved)
    report = max_lcm_search(k, delta, q)
    assert report.counterexamples
    _assert_lcm_matches_reference(k, delta, q)


@pytest.mark.parametrize("shift", [F(1, 2), F(-1, 2)])
@pytest.mark.parametrize("k,delta,q", [(3, F(2), 1), (5, F(5, 2), 2)])
def test_max_lcm_bound_between_integers(k, delta, q, shift, monkeypatch):
    # a bound moved off the integers leaves the extremal lcm just below it
    # (no witness, no counterexample) or just above it (a counterexample)
    def shifted(delta, q):
        return lcm_bound(delta, q) + shift

    monkeypatch.setattr(oracle, "lcm_bound", shifted)
    report = max_lcm_search(k, delta, q)
    assert report.equality_witnesses == []
    assert bool(report.counterexamples) == (shift < 0)
    _assert_lcm_matches_reference(k, delta, q)


def test_max_lcm_bound_never_beaten_small_grid():
    for k in range(1, 5):
        for delta, q in [(F(0), 1), (F(1), 1), (F(1, 2), 2), (F(3, 2), 2), (F(2), 1)]:
            report = max_lcm_search(k, delta, q)
            assert report.passed, (k, delta, q)
            if report.details["max_lcm"] is not None:
                assert report.details["max_lcm"] <= lcm_bound(delta, q)


def test_max_lcm_rejects_negative_delta():
    with pytest.raises(ValueError):
        max_lcm_search(2, F(-1, 2), 2)


def test_lcm_square_check():
    assert lcm_square_check((2, 3, 6), 1)  # 36 <= 36, the tight case
    assert lcm_square_check((2, 4, 4), 1)
    assert lcm_square_check((2, 3, 7), 42)  # 42^2 <= 42 * 42
    assert lcm_square_check((3,), 3)
    assert lcm_square_check((), 1)  # empty tuple: 1 <= 1
    with pytest.raises(ValueError, match="shortfall 2/3"):
        lcm_square_check((3,), 2)  # shortfall 2/3 is not a multiple of 1/2
    # (2,) against q=3 fails both preconditions: membership is checked first
    with pytest.raises(ValueError, match="not in a deficiency class mod q=3"):
        lcm_square_check((2,), 3)
    with pytest.raises(ValueError):
        lcm_square_check((2, 3), 0)
    # outside the q | lcm domain the inequality is not even claimed:
    # (2,) sits in the shortfall-1/2 class mod 4, but L would be 4 > sqrt(8)
    with pytest.raises(ValueError):
        lcm_square_check((2,), 4)
    with pytest.raises(ValueError):
        lcm_square_check((), 5)


def _square_check_outcome(check, t, q):
    try:
        return check(t, q)
    except ValueError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(
    t=st.lists(st.integers(1, 60), max_size=4).map(sorted),
    q=st.integers(1, 12),
)
def test_lcm_square_check_matches_reference(t, q):
    assert _square_check_outcome(lcm_square_check, t, q) == _square_check_outcome(
        _reference_square_check, t, q
    )


def test_lcm_square_check_always_in_domain_at_canonical_q():
    # at the canonical q every class member satisfies q | lcm, so the check
    # runs on all of them; verify on a few whole classes
    from egyfrac.egyptian import enumerate_deficiency, tuple_lcm
    from egyfrac.rationals import canonical_q

    for k, delta in [(3, F(1, 2)), (4, F(4, 3)), (3, F(0)), (4, F(5, 2))]:
        q = canonical_q(delta)
        members = enumerate_deficiency(k, delta, q)
        assert members, (k, delta)
        for t in members:
            assert tuple_lcm(t) % q == 0
            assert lcm_square_check(t, q), (t, q)


def test_max_lcm_search_takes_one_lcm_per_member(monkeypatch):
    # walk has proved each member, and the search takes one lcm per member
    # and one per closed prefix with a pair, which each of its pairs
    # extends: the search neither re-validates a member nor takes its lcm
    # from scratch (all seven closings of this cell have pairs)
    def no_validation(t):
        raise AssertionError("max_lcm_search re-validated a class member")

    lcms = []
    real_lcm = math.lcm
    monkeypatch.setattr(oracle, "as_tuple", no_validation)
    monkeypatch.setattr(math, "lcm", lambda *t: lcms.append(t) or real_lcm(*t))
    report = max_lcm_search(5, F(5, 2), 2)
    monkeypatch.undo()
    assert report.equality_witnesses and not report.counterexamples
    target = F(5, 2)
    closed = sum(slots == 2 and side < 0 for _, slots, side, _, _ in walk(5, target, target))
    assert (len(lcms), report.details["class_size"], closed) == (21, 14, 7)


def test_max_lcm_search_checks_membership_of_each_closed_pair(monkeypatch):
    # a pair pushed off the target must fail the membership check, with the
    # message lcm_square_check gives for the same tuple
    real = egyptian.two_term_pairs
    monkeypatch.setattr(
        egyptian, "two_term_pairs", lambda *args: [(a, b + 1) for a, b in real(*args)]
    )
    with pytest.raises(ValueError) as found:
        max_lcm_search(3, F(2), 1)
    with pytest.raises(ValueError) as expected:
        lcm_square_check((2, 3, 7), 1)
    assert str(found.value) == str(expected.value)
    assert "not in a deficiency class mod q=1" in str(found.value)


def test_sweep_frozen_grid():
    report = sweep(k_max=4, deltas=(F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(2)))
    assert report.passed
    assert report.counterexamples == []
    assert not report.budget_exceeded
    assert report.parameters["cells"] == 28
    assert report.stats.nodes == 236
    assert len(report.equality_witnesses) == 40
    families = {w.family for w in report.equality_witnesses}
    assert "NONE" not in families
    # both searches contribute: gap families and lcm families show up
    assert "SYLVESTER_GAP" in families
    assert "SYLVESTER_LCM" in families
    witnessed = {w.denominators for w in report.equality_witnesses}
    assert (2, 3, 7) in witnessed
    assert (2, 3, 6) in witnessed


def test_sweep_wider_q_grid():
    report = sweep(k_max=3, deltas=(F(1, 2),), q_mode="all-upto:6")
    assert report.passed
    qs = {w.q for w in report.equality_witnesses}
    assert qs <= {2, 4, 6}


def test_sweep_empty_grid_is_vacuous():
    report = sweep(k_max=0, deltas=())
    assert report.passed
    assert report.parameters["cells"] == 0
    assert report.stats.nodes == 0
    assert report.equality_witnesses == []


def test_sweep_budget_exhaustion():
    report = sweep(k_max=4, deltas=(F(2),), budget=5)
    assert not report.passed
    assert report.budget_exceeded


def test_sweep_rejects_bad_config():
    with pytest.raises(ValueError):
        sweep(k_max=-1, deltas=())
    with pytest.raises(ValueError):
        sweep(k_max=2, deltas=(F(-3, 2),))
    with pytest.raises(ValueError):
        sweep(k_max=2, deltas=(F(0),), q_mode="weird")
    with pytest.raises(ValueError):
        sweep(k_max=2, deltas=(F(0),), q_mode="all-upto:x")
    with pytest.raises(ValueError):
        sweep(k_max=2, deltas=(F(1), F(1, 2)), q_mode="all-upto:1")
    with pytest.raises(ValueError):
        sweep(k_max=2, deltas=(F(0),), budget=0)


def test_sweep_reports_witnesses_off_the_extremal_tuple(monkeypatch):
    real = oracle.extremal_gap_tuple
    monkeypatch.setattr(oracle, "extremal_gap_tuple",
                        lambda k, delta, q: (2, 3, 8) if k == 3 else real(k, delta, q))
    report = sweep(k_max=3, deltas=(F(2),))
    assert report.passed is False
    assert not report.budget_exceeded
    assert report.counterexamples == [
        Counterexample("gap equality witnesses [(2, 3, 7)] do not match "
                       "extremal construction [(2, 3, 8)]", (2, 3, 7), F(2), 1),
    ]


def test_sweep_reports_unclassified_witnesses(monkeypatch):
    monkeypatch.setattr(oracle, "classify_equality",
                        lambda t, delta, q: EqualityCase(EqualityFamily.NONE))
    report = sweep(k_max=3, deltas=(F(2),))
    assert report.passed is False
    assert report.counterexamples == [
        Counterexample("gap equality witness left unclassified", (2, 3, 7), F(2), 1),
        Counterexample("lcm equality witness left unclassified", (2, 3, 6), F(2), 1),
    ]


def _report_json(report) -> str:
    d = report_to_dict(report)
    del d["stats"]["millis"]
    return json.dumps(d)


def _witness_json(denominators, delta, q, family) -> dict:
    return {"denominators": [str(m) for m in denominators], "delta": delta,
            "q": q, "family": family}


README_SWEEP_WITNESSES = [
    ((1,), "-1", 1, "NEGATIVE_DELTA"),
    ((1, 1), "-1", 1, "NEGATIVE_DELTA"),
    ((1, 1, 1), "-1", 1, "NEGATIVE_DELTA"),
    ((2,), "0", 1, "FRACTIONAL_DELTA"),
    ((1,), "0", 1, "SYLVESTER_LCM"),
    ((1, 2), "0", 1, "FRACTIONAL_DELTA"),
    ((1, 1), "0", 1, "SYLVESTER_LCM"),
    ((1, 1, 2), "0", 1, "FRACTIONAL_DELTA"),
    ((1, 1, 1), "0", 1, "SYLVESTER_LCM"),
    ((3,), "1/2", 2, "FRACTIONAL_DELTA"),
    ((2,), "1/2", 2, "SYLVESTER_LCM"),
    ((1, 3), "1/2", 2, "FRACTIONAL_DELTA"),
    ((1, 2), "1/2", 2, "SYLVESTER_LCM"),
    ((1, 1, 3), "1/2", 2, "FRACTIONAL_DELTA"),
    ((1, 1, 2), "1/2", 2, "SYLVESTER_LCM"),
    ((2, 3), "1", 1, "SYLVESTER_GAP"),
    ((2, 2), "1", 1, "SYLVESTER_LCM"),
    ((1, 2, 3), "1", 1, "SYLVESTER_GAP"),
    ((1, 2, 2), "1", 1, "SYLVESTER_LCM"),
]
README_DELTAS = (F(-1), F(0), F(1, 2), F(1))


@pytest.mark.parametrize("run, expected", [
    (lambda: window_search(3, 2, 1), {
        "passed": True,
        "parameters": {"k": 3, "delta": "2", "q": 1, "sharp_sum_bound": "41/42",
                       "window_top": "1"},
        "counterexamples": [],
        "equality_witnesses": [_witness_json((2, 3, 7), "2", 1, "SYLVESTER_GAP")],
        "stats": {"nodes": 15},
    }),
    (lambda: window_search(4, 2, 1, budget=3), {
        "passed": False,
        "parameters": {"k": 4, "delta": "2", "q": 1, "sharp_sum_bound": "83/42",
                       "window_top": "2"},
        "counterexamples": [],
        "equality_witnesses": [],
        "stats": {"nodes": 4},
        "budget_exceeded": True,
    }),
    (lambda: max_lcm_search(3, 2, 1), {
        "passed": True,
        "parameters": {"k": 3, "delta": "2", "q": 1, "lcm_bound": "6"},
        "counterexamples": [],
        "equality_witnesses": [_witness_json((2, 3, 6), "2", 1, "SYLVESTER_LCM")],
        "stats": {"nodes": 7},
        "details": {"class_size": 3, "max_lcm": "6", "maximizers": [["2", "3", "6"]]},
    }),
    (lambda: sweep(k_max=3, deltas=README_DELTAS), {
        "passed": True,
        "parameters": {"k_max": 3, "deltas": ["-1", "0", "1/2", "1"],
                       "q_mode": "canonical", "budget": 100000000, "cells": 12},
        "counterexamples": [],
        "equality_witnesses": [_witness_json(*w) for w in README_SWEEP_WITNESSES],
        "stats": {"nodes": 68},
    }),
    # a sweep that spends its budget exactly stops before the next search
    (lambda: sweep(k_max=3, deltas=README_DELTAS, budget=5), {
        "passed": False,
        "parameters": {"k_max": 3, "deltas": ["-1", "0", "1/2", "1"],
                       "q_mode": "canonical", "budget": 5, "cells": 12},
        "counterexamples": [],
        "equality_witnesses": [_witness_json(*w) for w in README_SWEEP_WITNESSES[:2]],
        "stats": {"nodes": 5},
        "budget_exceeded": True,
    }),
], ids=["window", "window-budget", "lcm", "readme-sweep", "sweep-budget"])
def test_report_json_is_pinned(run, expected):
    # compared as text, so key order and the optional keys are pinned too
    assert _report_json(run()) == json.dumps(expected)


BAD_SEARCH_ARGUMENTS = [
    ((0, 2, 1), {}, "k must be positive, got 0", None),
    ((3, 2, 1), {"budget": 0}, "budget must be positive, got 0", None),
    ((3, "x", 1), {}, "Invalid literal for Fraction: 'x'", None),
    ((3, -2, 1), {}, "delta must be >= -1, got -2",
     "lcm bound requires delta >= 0, got -2"),
    ((3, F(1, 3), 1), {}, "q*delta must be an integer, got q=1, delta=1/3", None),
    ((3, 2, 0), {}, "q must be a positive integer, got 0", None),
]


@pytest.mark.parametrize("args, kwargs, window_message, lcm_message",
                         BAD_SEARCH_ARGUMENTS)
def test_searches_name_each_bad_argument(args, kwargs, window_message, lcm_message):
    for search, message in ((window_search, window_message),
                            (max_lcm_search, lcm_message or window_message)):
        with pytest.raises(ValueError) as excinfo:
            search(*args, **kwargs)
        assert str(excinfo.value) == message, search.__name__


def test_searches_check_k_and_budget_before_delta():
    for search in (window_search, max_lcm_search):
        with pytest.raises(ValueError, match="^k must be positive, got 0$"):
            search(0, "x", 1)
        with pytest.raises(ValueError, match="^budget must be positive, got 0$"):
            search(3, "x", 1, budget=0)


def test_report_defaults_are_empty_and_unshared():
    a, b = VerificationReport({}), VerificationReport({})
    assert a.passed
    assert (a.counterexamples, a.equality_witnesses, a.details) == ([], [], {})
    assert a.stats == SearchStats(0, 0)
    assert not a.budget_exceeded
    a.counterexamples.append(Counterexample("c", (1,)))
    a.equality_witnesses.append(EqualityWitness((1,), F(-1), 1, "NEGATIVE_DELTA"))
    assert b.counterexamples == [] and b.equality_witnesses == []
    assert not a.passed and b.passed

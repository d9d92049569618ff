"""Window and lcm verification searches, plus the grid sweep around them."""

import itertools
import math
from fractions import Fraction

import pytest

from egyfrac import oracle
from egyfrac.bounds import (
    classify_equality,
    extremal_gap_tuple,
    gap_amount,
    lcm_bound,
    sharp_sum_bound,
)
from egyfrac.egyptian import tuple_sum
from egyfrac.oracle import (
    SweepConfig,
    lcm_square_check,
    max_lcm_search,
    sweep,
    window_search,
)
from egyfrac.report import Counterexample, EqualityWitness

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
    with pytest.raises(ValueError):
        lcm_square_check((3,), 2)  # shortfall 2/3 is not a multiple of 1/2
    with pytest.raises(ValueError):
        lcm_square_check((2, 3), 0)
    # outside the q | lcm domain the inequality is not even claimed:
    # (2,) sits in the shortfall-1/2 class mod 4, but L would be 4 > sqrt(8)
    with pytest.raises(ValueError):
        lcm_square_check((2,), 4)
    with pytest.raises(ValueError):
        lcm_square_check((), 5)


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


def test_sweep_frozen_grid():
    config = SweepConfig(
        k_max=4, deltas=(F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(2))
    )
    report = sweep(config)
    assert report.passed
    assert report.counterexamples == []
    assert not report.budget_exceeded
    assert report.parameters["cells"] == 28
    assert report.stats.nodes == 193
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
    report = sweep(SweepConfig(k_max=3, deltas=(F(1, 2),), q_mode="all-upto:6"))
    assert report.passed
    qs = {w.q for w in report.equality_witnesses}
    assert qs <= {2, 4, 6}


def test_sweep_empty_grid_is_vacuous():
    report = sweep(SweepConfig(k_max=0, deltas=()))
    assert report.passed
    assert report.parameters["cells"] == 0
    assert report.stats.nodes == 0
    assert report.equality_witnesses == []


def test_sweep_budget_exhaustion():
    report = sweep(SweepConfig(k_max=4, deltas=(F(2),), budget=5))
    assert not report.passed
    assert report.budget_exceeded


def test_sweep_rejects_bad_config():
    with pytest.raises(ValueError):
        sweep(SweepConfig(k_max=-1, deltas=()))
    with pytest.raises(ValueError):
        sweep(SweepConfig(k_max=2, deltas=(F(-3, 2),)))
    with pytest.raises(ValueError):
        sweep(SweepConfig(k_max=2, deltas=(F(0),), q_mode="weird"))
    with pytest.raises(ValueError):
        sweep(SweepConfig(k_max=2, deltas=(F(0),), q_mode="all-upto:x"))
    with pytest.raises(ValueError):
        sweep(SweepConfig(k_max=2, deltas=(F(1), F(1, 2)), q_mode="all-upto:1"))
    with pytest.raises(ValueError):
        sweep(SweepConfig(k_max=2, deltas=(F(0),), budget=0))

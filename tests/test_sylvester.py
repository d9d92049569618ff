"""Generalized Sylvester sequences: values, identities, growth."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from egyfrac import sylvester
from egyfrac.oracle import sweep
from egyfrac.sylvester import (
    SylvesterTable,
    check_identities,
    sylvester_term,
    sylvester_u,
)


def test_u_frozen_values():
    assert sylvester_u(1, 1) == 1
    assert sylvester_u(2, 1) == 2
    assert sylvester_u(3, 1) == 6
    assert sylvester_u(4, 1) == 42
    assert sylvester_u(5, 1) == 1806
    assert sylvester_u(1, 5) == 5
    assert sylvester_u(2, 5) == 30
    assert sylvester_u(3, 2) == 42
    assert sylvester_u(4, 2) == 1806
    # read again once built: each of these is served from the table
    assert [sylvester_u(p, 1) for p in range(1, 6)] == [1, 2, 6, 42, 1806]


def test_companion_terms_q1():
    assert [sylvester_term(p, 1) for p in range(1, 6)] == [2, 3, 7, 43, 1807]


def test_seed_two_shifts_seed_one():
    # u(p, 2) == u(p+1, 1): seeding at 2 just skips the first step
    for p in range(1, 8):
        assert sylvester_u(p, 2) == sylvester_u(p + 1, 1)


def test_recurrence_direct():
    for q in (1, 2, 3, 7, 10):
        for p in range(1, 7):
            u = sylvester_u(p, q)
            assert sylvester_u(p + 1, q) == u * (u + 1)


def test_growth_envelope():
    # doubly exponential: q^(2^(p-1)) <= u(p, q) < (q+1)^(2^(p-1)) for q >= 2
    for q in range(2, 11):
        for p in range(1, 9):
            e = 2 ** (p - 1)
            u = sylvester_u(p, q)
            assert q**e <= u < (q + 1) ** e


def test_first_two_terms_coprime():
    # 1 + u(1, q) and 1 + u(2, q) never share a factor
    for q in range(1, 101):
        assert math.gcd(sylvester_term(1, q), sylvester_term(2, q)) == 1


def test_table_prefix_and_caching():
    table = SylvesterTable(3)
    assert [table.u(p) for p in range(1, 5)] == [3, 12, 156, 24492]
    assert table.u(2) == 12  # served from the memo
    assert sylvester_term(1, 3) == 4


def test_table_rejects_bad_indices():
    table = SylvesterTable(2)
    with pytest.raises(ValueError):
        table.u(0)
    assert table.u(5) == sylvester_u(5, 2)
    with pytest.raises(ValueError):
        SylvesterTable(0)
    with pytest.raises(ValueError):
        sylvester_u(1, 0)


def test_table_refuses_values_past_the_bit_ceiling(monkeypatch):
    # u(6, 1) = 3263442 has 22 bits and u(7, 1) 44, so a 64-bit ceiling
    # admits u(7, 1) and refuses the squaring that would build u(8, 1)
    monkeypatch.setattr(sylvester, "MAX_BITS", 64)
    table = SylvesterTable(1)
    assert table.u(7) == sylvester_u(7, 1)
    with pytest.raises(ValueError, match="64-bit ceiling"):
        table.u(8)
    with pytest.raises(ValueError, match="64-bit ceiling"):
        table.u(10**6)
    assert [table.u(p) for p in range(1, 8)] == [sylvester_u(p, 1) for p in range(1, 8)]


def _recurrence(q, p_max):
    values = [q]
    while len(values) < p_max:
        values.append(values[-1] * (values[-1] + 1))
    return values


def _race(seeds, orders):
    """One thread per order, started together under a tiny switch interval;
    each reads u(p, q) for the (q, p) pairs its order lists and returns
    every read that differs from a private recurrence, and every raise."""
    expected = {q: _recurrence(q, 14) for q in seeds}
    wrong = []
    start = threading.Barrier(len(orders))

    def read(pairs):
        try:
            start.wait(timeout=10)
            for q, p in pairs:
                if sylvester_u(p, q) != expected[q][p - 1]:
                    wrong.append((p, q))
        except Exception as exc:  # reported by the caller's assertion
            wrong.append(exc)

    threads = [threading.Thread(target=read, args=(pairs,)) for pairs in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return wrong


def test_concurrent_reads_match_the_recurrence():
    # a value already built is read without the lock while other threads
    # grow the same table under it: 6 threads read u(p, q) in shuffled
    # order and 2 extend each table one index at a time, seed by seed, from
    # an empty cache, so every table starts empty. A torn or early read
    # breaks the equality with a private recurrence.
    seeds = range(1009, 1041, 2)
    rngs = [random.Random(seed) for seed in range(6)]
    orders = [[(q, p) for q in seeds for p in rng.sample(range(1, 15), 14)] for rng in rngs]
    orders += [[(q, p) for q in seeds for p in range(1, 15)]] * 2
    sylvester._shared_table.cache_clear()
    assert _race(seeds, orders) == []


def test_concurrent_reads_across_evictions_match_the_recurrence():
    # more seeds than the cache keeps: 4 threads read every (q, p) pair in
    # shuffled order, so a table is dropped while others still read it and
    # a dropped seed is built again; 4 more extend each table in turn
    seeds = range(2003, 2003 + 2 * (sylvester.MAX_TABLES + 16), 2)
    pairs = [(q, p) for q in seeds for p in range(1, 15)]
    orders = [random.Random(seed).sample(pairs, len(pairs)) for seed in range(4)]
    orders += [pairs] * 4
    sylvester._shared_table.cache_clear()
    assert _race(seeds, orders) == []
    info = sylvester._shared_table.cache_info()
    assert info.misses > len(seeds)  # some seed was dropped and built again
    assert info.currsize == sylvester.MAX_TABLES


def test_sweep_over_many_seeds_keeps_max_tables():
    # an all-upto grid meets a new seed every few cells: at budget 10^4 it
    # reads seeds 1..5000, and the cache keeps only the last MAX_TABLES
    sylvester._shared_table.cache_clear()
    report = sweep(1, (1,), "all-upto:1" + "0" * 30, budget=10**4)
    assert report.budget_exceeded
    info = sylvester._shared_table.cache_info()
    assert info.misses == 5000
    assert info.currsize == sylvester.MAX_TABLES
    # seed 2 was dropped: reading it again builds a new table, whose values
    # are the recurrence's
    assert [sylvester_u(p, 2) for p in range(1, 15)] == _recurrence(2, 14)
    assert sylvester._shared_table.cache_info().misses == 5001


def test_identities_hold():
    report = check_identities(12, 10)
    assert report.passed
    assert report.counterexamples == []
    assert report.stats.nodes == 120
    assert not report.budget_exceeded


def test_identities_by_hand():
    # 1/2 + 1/3 + 1/7 == 1 - 1/42 and 2*3*7 == 42
    total = sum(Fraction(1, sylvester_term(p, 1)) for p in range(1, 4))
    assert total == 1 - Fraction(1, 42)
    assert math.prod(sylvester_term(p, 1) for p in range(1, 4)) == 42
    # seed 5: 1/6 == 1/5 - 1/30
    assert Fraction(1, sylvester_term(1, 5)) == Fraction(1, 5) - Fraction(1, 30)


class _OffByOne(SylvesterTable):
    """A seed-1 table whose u(3, 1) reads 7 instead of 6."""

    def u(self, p):
        return super().u(p) + (p == 3)


def test_check_identities_reports_each_broken_identity(monkeypatch):
    monkeypatch.setattr(sylvester, "_shared_table", _OffByOne)
    report = check_identities(4, 1)
    # u(3, 1) is read as u(p + 1) at p = 2 and through the term at p = 3;
    # the running sum and product carry the error on to p = 4
    assert [(c.claim, c.values, c.q) for c in report.counterexamples] == [
        (claim, (p, 1), 1)
        for p in (2, 3, 4)
        for claim in ("reciprocal sum identity", "companion product identity")
    ]
    assert report.stats.nodes == 4
    assert not report.passed
    assert not report.budget_exceeded


def _fraction_counterexamples(table_of, p_max, q_max):
    """check_identities' claims as it checked them before its running sum
    was carried as an integer pair."""
    out = []
    for q in range(1, q_max + 1):
        table = table_of(q)
        total, product = Fraction(0), 1
        for p in range(1, p_max + 1):
            term = 1 + table.u(p)
            total += Fraction(1, term)
            product *= term
            nxt = table.u(p + 1)
            if total != Fraction(1, q) - Fraction(1, nxt):
                out.append(("reciprocal sum identity", (p, q), q))
            if product * q != nxt:
                out.append(("companion product identity", (p, q), q))
    return out


class _Shifted(SylvesterTable):
    """A table whose u(at) reads off by `by` for the seed `seed` only."""

    def __init__(self, q, at, by, seed):
        super().__init__(q)
        self.shift = (at, by if q == seed else 0)

    def u(self, p):
        at, by = self.shift
        return super().u(p) + by * (p == at)


@pytest.mark.parametrize("at,by,seed", [(0, 0, 0), (2, 1, 1), (3, -1, 2), (5, 6, 3),
                                        (7, 1, 4), (9, 2, 1)])
def test_check_identities_match_the_fraction_reference(monkeypatch, at, by, seed):
    def shifted(q):
        return _Shifted(q, at, by, seed)

    monkeypatch.setattr(sylvester, "_shared_table", shifted)
    found = 0
    for p_max, q_max in [(1, 1), (3, 2), (8, 4), (9, 3)]:
        report = check_identities(p_max, q_max)
        want = _fraction_counterexamples(shifted, p_max, q_max)
        assert [(c.claim, c.values, c.q) for c in report.counterexamples] == want
        assert report.passed == (not want)
        assert report.stats.nodes == p_max * q_max
        found += len(want)
    # a shifted value breaks an identity somewhere on the grid
    assert bool(found) == (by != 0)


def test_check_identities_rejects_empty_ranges():
    with pytest.raises(ValueError):
        check_identities(0, 5)
    with pytest.raises(ValueError):
        check_identities(5, 0)

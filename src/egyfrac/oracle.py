"""Exhaustive small-scale verification of the sum-window and lcm bounds.

window_search proves, for one (k, delta, q), that no k-tuple sum lands in
the open window (sharp_sum_bound, k - delta), collecting the tuples that hit
the window floor exactly. max_lcm_search enumerates the full class summing
to k - delta and compares every lcm against lcm_bound. sweep runs both over
a parameter grid and cross-checks all equality witnesses against the
extremal constructors.

Both searches iterate egyptian.walk, in lexicographic order, and count
every prefix it yields as one node against their budget; running out of
budget is reported as its own failure mode, never as a counterexample.
max_lcm_search takes the exact class from egyptian.exact_closings, which
closes its last two slots and says what it counts as a node there; the
window's open interval has no divisor form, so its walk visits, and
counts, every prefix down to the last slot.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bounds import (
    _family,
    _lcm_bound,
    _sharp_sum_bound,
    extremal_gap_tuple,
    extremal_lcm_tuple,
)
from .egyptian import as_tuple, exact_closings, walk
from .rationals import SRQ, as_int, as_rational, canonical_q, parse_int, reduced, srq_decompose
from .report import Counterexample, EqualityWitness, VerificationReport

DEFAULT_BUDGET = 10**8


def _witness(t: tuple[int, ...], delta: Fraction, d: SRQ) -> EqualityWitness:
    """t, found at a bound, tagged with its equality family; d is the
    search's srq_decompose(delta, q)."""
    return EqualityWitness(t, delta, d.q, _family(t, d).value)


def window_search(k: int, delta, q: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Search the open interval (sharp_sum_bound, k - delta) for achievable
    k-term sums; record tuples attaining the bound itself as witnesses.

    A prefix whose partial sum already lies inside the window, or sits on the
    bound with slots still open, is reported as a counterexample on the spot:
    padding with arbitrarily large denominators would complete it into the
    window, so no completion needs to be materialized. At a prefix strictly
    below the bound, the next denominator m is capped by slots/m >= bound-P,
    which keeps the tree finite. delta is decomposed once, for the bound
    and for every witness's tag.
    """
    as_int(k, "k")
    as_int(budget, "budget")
    delta = as_rational(delta)
    d = srq_decompose(delta, q)
    bound = _sharp_sum_bound(k, d)
    top_den = delta.denominator
    top_num = k * top_den - delta.numerator
    # k - delta over delta's denominator: a gcd of the two divides
    # delta's numerator too, so the pair is already in lowest terms
    top = reduced(top_num, top_den, 1)
    report = VerificationReport(
        {
            "k": k,
            "delta": delta,
            "q": q,
            "sharp_sum_bound": bound,
            "window_top": top,
        }
    )
    nodes = 0
    # cap k + 1 never binds: a child of a prefix P < bound <= k sums to at
    # most P + 1 < k + 1, so its children are every m >= prev up to the
    # slots/m >= bound - P limit
    for nodes, (prefix, slots, side, num, den) in enumerate(walk(k, bound, k + 1), 1):
        if nodes > budget:
            break
        if side < 0:
            continue  # below the floor, so below the top too
        if num * top_den >= top_num * den:
            continue  # at or past the window top; sums only grow
        if not (side or slots):  # on the floor with no slots left
            report.equality_witnesses.append(_witness(tuple(prefix), delta, d))
            continue
        claim = (
            "boundary prefix completable into forbidden window" if not side
            else "prefix completable into forbidden window" if slots
            else "sum inside forbidden window"
        )
        report.counterexamples.append(Counterexample(claim, tuple(prefix), delta, q))
    return report.finish(nodes, nodes > budget)


def lcm_square_check(t, q: int) -> bool:
    """With L = lcm(q, m_1, ..., m_k): test L*L <= q * (m_1 * ... * m_k).

    Preconditions: the reciprocal-sum shortfall k - sum lies in (1/q)Z, and
    q divides the tuple lcm. The second condition is automatic whenever q is
    the canonical denominator of the shortfall (then q*(1 - frac) is coprime
    to q); at a non-canonical q it can fail, and the inequality genuinely
    breaks there, e.g. (2,) against q=4 has L=4 but q*product=8. Under the
    preconditions every maximal prime power in L is contributed at least
    twice among q and the denominators, which is what makes the square fit.

    Both preconditions are checked in integers, membership first. With P
    the product of the m_i and N = sum of P // m_i, the reciprocal sum is
    N/P, so the shortfall lies in (1/q)Z exactly when P divides q*N; the
    Fraction shortfall is built only for the error message. max_lcm_search
    calls it for the one member of a k = 1 class.

    >>> lcm_square_check((2, 3, 6), 1)
    True
    """
    t = as_tuple(t)
    as_int(q, "q")
    product = math.prod(t)
    lcm_value = math.lcm(*t)
    num = sum(product // m for m in t)
    if q * num % product:
        raise _outside_class(t, q, num, product)
    if lcm_value % q:
        raise ValueError(f"q={q} does not divide the tuple lcm {lcm_value}")
    return lcm_value * lcm_value <= q * product


def _outside_class(t, q: int, num: int, product: int) -> ValueError:
    """The error for a tuple t, of sum num/product, whose shortfall is not
    in (1/q)Z."""
    shortfall = len(t) - Fraction(num, product)
    return ValueError(f"tuple is not in a deficiency class mod q={q}: shortfall {shortfall}")


def max_lcm_search(k: int, delta, q: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Enumerate the whole class of k-tuples summing to k - delta, record the
    maximum lcm with all its attainers, and compare against lcm_bound.

    egyptian.exact_closings lists the class and counts its nodes. Each
    member head + (a, b) takes its lcm from head's, and its sum from
    head's sum num/den one walk step at a time, through a and then b. A
    member whose lcm the modulus divides (all of them when q is canonical)
    also takes lcm_square_check's two tests, in integers on that sum over
    the member's product: its class membership, whose failure raises
    lcm_square_check's error, and the square inequality. The tuple itself
    is built only for a member that is recorded: a counterexample, a
    maximizer, or an equality witness, whose lcm equals the bound. The one
    member of a class of k = 1 goes through lcm_square_check itself.
    Requires delta >= 0. delta is decomposed once, for the bound and for
    every witness's tag.
    """
    as_int(k, "k")
    as_int(budget, "budget")
    delta = as_rational(delta, "delta", 0)
    d = srq_decompose(delta, q)
    bound = _lcm_bound(d)
    target = Fraction(k * delta.denominator - delta.numerator, delta.denominator)
    report = VerificationReport({"k": k, "delta": delta, "q": q, "lcm_bound": bound})
    # an lcm is an integer, so it exceeds the bound exactly when it exceeds
    # the bound's floor, and meets the bound only when the bound is integral
    floor_bound = bound.numerator // bound.denominator
    integral = bound.denominator == 1
    maximizers: list[tuple[int, ...]] = []
    max_lcm = 0
    count = 0

    def record(t: tuple[int, ...], lcm_value: int, square_holds: bool) -> None:
        nonlocal max_lcm, maximizers
        if lcm_value > floor_bound:
            report.counterexamples.append(Counterexample("lcm above bound", t, delta, q))
        if not square_holds:
            report.counterexamples.append(
                Counterexample("lcm square inequality violated", t, delta, q)
            )
        if lcm_value > max_lcm:
            max_lcm, maximizers = lcm_value, [t]
        elif lcm_value == max_lcm:
            maximizers.append(t)
        if integral and lcm_value == floor_bound:
            report.equality_witnesses.append(_witness(t, delta, d))

    # a negative target (delta > k) leaves the root above it: no children
    for head, num, den, tails, nodes in exact_closings(target, k, budget):
        if not tails:
            continue
        count += len(tails)
        if k == 1:  # the one member (m,), a tail under (), of lcm m
            (t,) = tails
            (m,) = t
            record(t, m, m % q != 0 or lcm_square_check(t, q))
            continue
        head_lcm = math.lcm(*head)
        q_num, q_den = q * num, q * den
        for a, b in tails:
            lcm_value = math.lcm(head_lcm, a, b)
            if lcm_value % q == 0:
                # the member's product is den * ab, and q times its sum is
                # q_total over that product
                ab = a * b
                q_total = q_num * ab + q_den * (a + b)
                if q_total % (den * ab):
                    raise _outside_class(head + (a, b), q, q_total // q, den * ab)
                if lcm_value * lcm_value > q_den * ab:
                    record(head + (a, b), lcm_value, False)
                    continue
            # a member below the running maximum and the bound's floor
            # changes nothing
            if lcm_value >= max_lcm or lcm_value >= floor_bound:
                record(head + (a, b), lcm_value, True)
    report.details = {
        "class_size": count,
        "max_lcm": max_lcm if count else None,
        "maximizers": maximizers,
    }
    return report.finish(nodes, nodes > budget)


def _q_ranges(deltas: tuple[Fraction, ...], q_mode: str) -> list[range]:
    """Each delta's q, as one range of multiples of its canonical q: up to
    that q itself for 'canonical', up to N for 'all-upto:N'. q_mode is
    parsed, and every delta's range checked, before any search."""
    limit = None  # 'canonical': each range stops at its start
    if q_mode != "canonical":
        if not q_mode.startswith("all-upto:"):
            raise ValueError(f"unknown q mode: {q_mode!r}")
        try:
            limit = parse_int(q_mode.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed q mode: {q_mode!r}") from None
    ranges = []
    for delta in deltas:
        base = canonical_q(delta)
        qs = range(base, (base if limit is None else limit) + 1, base)
        if not qs:
            raise ValueError(
                f"q mode {q_mode!r} leaves no q for delta={delta}, "
                f"whose canonical q is {base}"
            )
        ranges.append(qs)
    return ranges


def sweep(k_max: int, deltas, q_mode: str = "canonical",
          budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run window and lcm searches over the grid and cross-check every
    equality witness list against the extremal constructors.

    The grid is k = 1..k_max crossed with every delta and its q set.
    q_mode is either 'canonical' (the reduced denominator of delta) or
    'all-upto:N' (every multiple of the canonical q up to N; an N below
    some delta's canonical q is an error, not a skipped delta).

    The grid is produced in order (by delta, q, k; window before lcm) and
    never listed, and parameters["cells"] is counted, so the node budget
    alone bounds a sweep's time and memory. The report aggregates all
    counterexamples and witnesses; the searches share the budget, counted
    in walker nodes, and the sweep stops at the search that runs out of
    it. An empty grid passes with zero stats.
    """
    as_int(k_max, "k_max", 0)
    as_int(budget, "budget")
    deltas = tuple(as_rational(d, "delta", -1) for d in deltas)
    ranges = _q_ranges(deltas, q_mode)
    gap = (window_search, extremal_gap_tuple, "gap")
    lcm = (max_lcm_search, extremal_lcm_tuple, "lcm")
    # with k_max = 0 no q is walked: a huge range would yield no check
    checks = (
        (k, delta, q, check)
        for delta, qs in (zip(deltas, ranges) if k_max else ())
        for q in qs
        for k in range(1, k_max + 1)
        for check in ((gap, lcm) if delta >= 0 else (gap,))
    )

    report = VerificationReport(
        {
            "k_max": k_max,
            "deltas": list(deltas),
            "q_mode": q_mode,
            "budget": budget,
            "cells": k_max * sum(qs[-1] // qs.step for qs in ranges),
        }
    )
    nodes = 0
    exceeded = False
    # a remaining budget of 0 is no valid search budget, so the flag is
    # raised before the next search rather than derived from nodes
    for k, delta, q, (search, extremal, kind) in checks:
        exceeded = nodes >= budget
        if exceeded:
            break
        cell = search(k, delta, q, budget=budget - nodes)
        nodes += cell.stats.nodes
        report.counterexamples.extend(cell.counterexamples)
        report.equality_witnesses.extend(cell.equality_witnesses)
        exceeded = cell.budget_exceeded
        if exceeded:
            break
        found = [w.denominators for w in cell.equality_witnesses]
        expected = extremal(k, delta, q)
        wanted = [] if expected is None else [expected]
        if found != wanted:
            report.counterexamples.append(
                Counterexample(
                    f"{kind} equality witnesses {found} do not match "
                    f"extremal construction {wanted}",
                    found[0] if found else (expected or ()),
                    delta,
                    q,
                )
            )
        for w in cell.equality_witnesses:
            if w.family == "NONE":
                report.counterexamples.append(
                    Counterexample(
                        f"{kind} equality witness left unclassified",
                        w.denominators,
                        w.delta,
                        w.q,
                    )
                )
    return report.finish(nodes, exceeded)

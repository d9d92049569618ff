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
The lcm class has an exact target, so walk stops at each prefix with two
slots left, and max_lcm_search closes it in one step with
egyptian.close_pairs (two_term_pairs: a direct scan of at most
SCAN_LIMIT candidates, else divisors): there a node is a prefix with two
or more slots left or a closed pair. max_lcm_search takes the lcm L_P,
scaled sum S_P = sum of L_P // m and product of each closed prefix P once
and extends them per pair (a, b): L = lcm(L_P, a, b) and
S = (L // L_P) * S_P + L // a + L // b. The window's open interval has no
divisor form, so its walk visits, and counts, every prefix down to the
last slot.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from .bounds import (
    classify_equality,
    extremal_gap_tuple,
    extremal_lcm_tuple,
    lcm_bound,
    sharp_sum_bound,
)
from .egyptian import as_tuple, close_pairs, walk
from .rationals import canonical_q
from .report import Counterexample, EqualityWitness, SearchStats, VerificationReport

DEFAULT_BUDGET = 10**8


def _check_search(k: int, budget: int) -> None:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")


def _witness(t: tuple[int, ...], delta: Fraction, q: int) -> EqualityWitness:
    """t, found at a bound, tagged with its equality family."""
    return EqualityWitness(t, delta, q, classify_equality(t, delta, q).tag.value)


def _finish(report: VerificationReport, nodes: int, t0: float,
            exceeded: bool) -> VerificationReport:
    """Stamp a finished run's node count, time since t0 and budget flag."""
    millis = int((time.perf_counter() - t0) * 1000)
    report.stats = SearchStats(nodes=nodes, millis=millis)
    report.budget_exceeded = exceeded
    return report


def window_search(k: int, delta, q: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Search the open interval (sharp_sum_bound, k - delta) for achievable
    k-term sums; record tuples attaining the bound itself as witnesses.

    A prefix whose partial sum already lies inside the window, or sits on the
    bound with slots still open, is reported as a counterexample on the spot:
    padding with arbitrarily large denominators would complete it into the
    window, so no completion needs to be materialized. At a prefix strictly
    below the bound, the next denominator m is capped by slots/m >= bound-P,
    which keeps the tree finite.
    """
    _check_search(k, budget)
    delta = Fraction(delta)
    bound = sharp_sum_bound(k, delta, q)
    top = k - delta
    report = VerificationReport(
        {
            "k": k,
            "delta": delta,
            "q": q,
            "sharp_sum_bound": bound,
            "window_top": top,
        }
    )
    top_num, top_den = top.numerator, top.denominator
    t0 = time.perf_counter()
    nodes = 0
    # cap k + 1 never binds: a child of a prefix P < bound <= k sums to at
    # most P + 1 < k + 1, so its children are every m >= prev up to the
    # slots/m >= bound - P limit
    for nodes, (prefix, slots, side, num, den) in enumerate(walk(k, bound, k + 1), 1):
        if nodes > budget:
            break
        if num * top_den >= top_num * den:
            continue  # at or past the window top; sums only grow
        if side > 0:
            claim = (
                "sum inside forbidden window"
                if slots == 0
                else "prefix completable into forbidden window"
            )
            report.counterexamples.append(Counterexample(claim, tuple(prefix), delta, q))
        elif side == 0:
            if slots == 0:
                report.equality_witnesses.append(_witness(tuple(prefix), delta, q))
            else:
                report.counterexamples.append(
                    Counterexample(
                        "boundary prefix completable into forbidden window",
                        tuple(prefix),
                        delta,
                        q,
                    )
                )
    return _finish(report, nodes, t0, nodes > budget)


def lcm_square_check(t, q: int) -> bool:
    """With L = lcm(q, m_1, ..., m_k): test L*L <= q * (m_1 * ... * m_k).

    Preconditions: the reciprocal-sum shortfall k - sum lies in (1/q)Z, and
    q divides the tuple lcm. The second condition is automatic whenever q is
    the canonical denominator of the shortfall (then q*(1 - frac) is coprime
    to q); at a non-canonical q it can fail, and the inequality genuinely
    breaks there, e.g. (2,) against q=4 has L=4 but q*product=8. Under the
    preconditions every maximal prime power in L is contributed at least
    twice among q and the denominators, which is what makes the square fit.

    Both preconditions are checked in integers, membership first. With L
    the lcm of the m_i and S = sum of L // m_i, the reciprocal sum is S/L, so
    the shortfall lies in (1/q)Z exactly when L divides q*S; the Fraction
    shortfall is built only for the error message.

    >>> lcm_square_check((2, 3, 6), 1)
    True
    """
    t = as_tuple(t)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    lcm_value = math.lcm(*t)
    return _square_check(t, q, lcm_value, sum(lcm_value // m for m in t), math.prod(t))


def _square_check(t, q: int, lcm_value: int, scaled_sum: int, product: int) -> bool:
    """lcm_square_check without input validation: t and q must be valid,
    lcm_value the lcm of t, scaled_sum the sum of lcm_value // m_i and
    product that of t. Both preconditions are still checked; t is read
    only for the error message."""
    if q * scaled_sum % lcm_value:
        shortfall = len(t) - Fraction(scaled_sum, lcm_value)
        raise ValueError(
            f"tuple is not in a deficiency class mod q={q}: shortfall {shortfall}"
        )
    if lcm_value % q:
        raise ValueError(f"q={q} does not divide the tuple lcm {lcm_value}")
    return lcm_value * lcm_value <= q * product


def max_lcm_search(k: int, delta, q: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Enumerate the whole class of k-tuples summing to k - delta, record the
    maximum lcm with all its attainers, and compare against lcm_bound.

    Every enumerated tuple whose lcm the modulus divides (all of them when q
    is canonical) is also run through lcm_square_check's core; walk and
    close_pairs have already proved its class membership, and the check
    re-verifies it without Fractions. The core takes the member's lcm L,
    scaled sum S = sum of L // m_i and product as integers. walk stops at
    each prefix P with two slots left, and the search closes P with
    close_pairs and checks all its members in one inner loop: L_P = lcm(P),
    S_P and P's product are taken once, S_P = L_P // den * num from P's
    sum num/den in lowest terms (den divides L_P), and each member
    P + (a, b) gets L = lcm(L_P, a, b), S = (L // L_P) * S_P + L // a + L // b
    and product prod(P) * a * b. Tuples whose lcm equals the bound become
    equality witnesses.
    The budget counts one node per prefix walk yields (those with two or
    more slots left; for k = 1, the root and its member) and one per pair
    that closes a prefix. When it runs out inside a closing, the pairs
    within it are checked and the first one past it is the last node
    counted. Requires delta >= 0.
    """
    _check_search(k, budget)
    delta = Fraction(delta)
    bound = lcm_bound(delta, q)  # validates delta >= 0 and q
    target = k - delta
    report = VerificationReport({"k": k, "delta": delta, "q": q, "lcm_bound": bound})
    # an lcm is an integer, so it exceeds the bound exactly when it exceeds
    # the bound's floor, and meets the bound only when the bound is integral
    floor_bound = bound.numerator // bound.denominator
    integral = bound.denominator == 1
    t0 = time.perf_counter()
    maximizers: list[tuple[int, ...]] = []
    max_lcm = 0
    count = 0
    nodes = 0
    cut = False
    # a negative target (delta > k) leaves the root above it: no children
    for prefix, slots, side, num, den in walk(k, target, target):
        nodes += 1
        if nodes > budget:
            break
        if slots == 2 and side < 0:
            tails = close_pairs(prefix, side, den, target)
            cut = nodes + len(tails) > budget
            if cut:  # the budget runs out inside this closing
                tails = tails[:budget - nodes]
            nodes += len(tails)
            if tails:
                head = tuple(prefix)
                head_lcm = math.lcm(*prefix)
                head_sum = head_lcm // den * num
                head_prod = math.prod(prefix)
        elif slots or side:
            continue
        else:  # k = 1: the root's child is the one member, and no pair closes it
            head, tails = (), [tuple(prefix)]
        count += len(tails)
        for tail in tails:
            t = head + tail
            if k > 1:
                a, b = tail
                lcm_value = math.lcm(head_lcm, a, b)
                scaled_sum = lcm_value // head_lcm * head_sum + lcm_value // a + lcm_value // b
                product = head_prod * a * b
            else:
                lcm_value = product = t[0]
                scaled_sum = 1
            if lcm_value > floor_bound:
                report.counterexamples.append(Counterexample("lcm above bound", t, delta, q))
            if lcm_value % q == 0 and not _square_check(t, q, lcm_value, scaled_sum, product):
                report.counterexamples.append(
                    Counterexample("lcm square inequality violated", t, delta, q)
                )
            if lcm_value > max_lcm:
                max_lcm, maximizers = lcm_value, [t]
            elif lcm_value == max_lcm:
                maximizers.append(t)
            if integral and lcm_value == floor_bound:
                report.equality_witnesses.append(_witness(t, delta, q))
        if cut:
            nodes += 1  # the first pair past the budget
            break
    report.details = {
        "class_size": count,
        "max_lcm": max_lcm if count else None,
        "maximizers": maximizers,
    }
    return _finish(report, nodes, t0, nodes > budget)


def _qs_for(delta: Fraction, q_mode: str) -> list[int]:
    base = canonical_q(delta)
    if q_mode == "canonical":
        return [base]
    if q_mode.startswith("all-upto:"):
        try:
            limit = int(q_mode.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed q mode: {q_mode!r}") from None
        if limit < base:
            raise ValueError(
                f"q mode {q_mode!r} leaves no q for delta={delta}, "
                f"whose canonical q is {base}"
            )
        return list(range(base, limit + 1, base))
    raise ValueError(f"unknown q mode: {q_mode!r}")


def sweep(k_max: int, deltas, q_mode: str = "canonical",
          budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run window and lcm searches over the grid and cross-check every
    equality witness list against the extremal constructors.

    The grid is k = 1..k_max crossed with every delta and its q set.
    q_mode is either 'canonical' (the reduced denominator of delta) or
    'all-upto:N' (every multiple of the canonical q up to N; an N below
    some delta's canonical q is an error, not a skipped delta).

    The report aggregates all counterexamples and witnesses; the searches
    share budget, counted in walker nodes, and the sweep stops at the
    search that runs out of it. An empty grid passes with zero stats.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    deltas = tuple(Fraction(d) for d in deltas)
    for d in deltas:
        if d < -1:
            raise ValueError(f"delta must be >= -1, got {d}")
    cells = [
        (delta, q, k)
        for delta in deltas
        for q in _qs_for(delta, q_mode)
        for k in range(1, k_max + 1)
    ]
    gap = (window_search, extremal_gap_tuple, "gap")
    lcm = (max_lcm_search, extremal_lcm_tuple, "lcm")
    checks = [
        (k, delta, q, check)
        for delta, q, k in cells
        for check in ((gap, lcm) if delta >= 0 else (gap,))
    ]

    report = VerificationReport(
        {
            "k_max": k_max,
            "deltas": list(deltas),
            "q_mode": q_mode,
            "budget": budget,
            "cells": len(cells),
        }
    )
    t0 = time.perf_counter()
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
    return _finish(report, nodes, t0, exceeded)

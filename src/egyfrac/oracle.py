"""Exhaustive small-scale verification of the sum-window and lcm bounds.

window_search proves, for one (k, delta, q), that no k-tuple sum lands in
the open window (sharp_sum_bound, k - delta), collecting the tuples that hit
the window floor exactly. max_lcm_search enumerates the full class summing
to k - delta and compares every lcm against lcm_bound. sweep runs both over
a parameter grid and cross-checks all equality witnesses against the
extremal constructors.

All searches are deterministic (lexicographic traversal) and carry a node
budget; running out of budget is reported as its own failure mode, never as
a counterexample.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    classify_equality,
    extremal_gap_tuple,
    extremal_lcm_tuple,
    lcm_bound,
    sharp_sum_bound,
)
from .egyptian import as_tuple, iter_exact, tuple_lcm, tuple_sum, walk
from .rationals import canonical_q
from .report import Counterexample, EqualityWitness, SearchStats, VerificationReport

DEFAULT_BUDGET = 10**8


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
    delta = Fraction(delta)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    bound = sharp_sum_bound(k, delta, q)
    top = k - delta
    t0 = time.perf_counter()
    counterexamples: list[Counterexample] = []
    witnesses: list[EqualityWitness] = []
    nodes = 0
    exceeded = False
    # cap k + 1 never binds: a child of a prefix P < bound <= k sums to at
    # most P + 1 < k + 1, so its children are every m >= prev up to the
    # slots/m >= bound - P limit
    for prefix, slots, side, num, den in walk(k, bound, k + 1):
        nodes += 1
        if nodes > budget:
            exceeded = True
            break
        if num * top.denominator >= top.numerator * den:
            continue  # at or past the window top; sums only grow
        if side > 0:
            claim = (
                "sum inside forbidden window"
                if slots == 0
                else "prefix completable into forbidden window"
            )
            counterexamples.append(Counterexample(claim, tuple(prefix), delta, q))
        elif side == 0:
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
    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        passed=not counterexamples and not exceeded,
        parameters={
            "k": k,
            "delta": delta,
            "q": q,
            "sharp_sum_bound": bound,
            "window_top": top,
        },
        counterexamples=counterexamples,
        equality_witnesses=witnesses,
        stats=SearchStats(nodes=nodes, millis=millis),
        budget_exceeded=exceeded,
    )


def lcm_square_check(t, q: int) -> bool:
    """With L = lcm(q, m_1, ..., m_k): test L*L <= q * (m_1 * ... * m_k).

    Preconditions: the reciprocal-sum shortfall k - sum lies in (1/q)Z, and
    q divides the tuple lcm. The second condition is automatic whenever q is
    the canonical denominator of the shortfall (then q*(1 - frac) is coprime
    to q); at a non-canonical q it can fail, and the inequality genuinely
    breaks there, e.g. (2,) against q=4 has L=4 but q*product=8. Under the
    preconditions every maximal prime power in L is contributed at least
    twice among q and the denominators, which is what makes the square fit.

    >>> lcm_square_check((2, 3, 6), 1)
    True
    """
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


def max_lcm_search(k: int, delta, q: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Enumerate the whole class of k-tuples summing to k - delta, record the
    maximum lcm with all its attainers, and compare against lcm_bound.

    Every enumerated tuple whose lcm the modulus divides (all of them when q
    is canonical) is also run through lcm_square_check. Tuples whose lcm
    equals the bound become equality witnesses. Requires delta >= 0.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    delta = Fraction(delta)
    bound = lcm_bound(delta, q)  # validates delta >= 0 and q
    t0 = time.perf_counter()
    counterexamples: list[Counterexample] = []
    witnesses: list[EqualityWitness] = []
    maximizers: list[tuple[int, ...]] = []
    max_lcm = 0
    count = 0
    exceeded = False
    target = k - delta
    if 0 <= target <= k:
        for t in iter_exact(target, k):
            count += 1
            if count > budget:
                exceeded = True
                break
            lcm_value = tuple_lcm(t)
            if lcm_value > bound:
                counterexamples.append(Counterexample("lcm above bound", t, delta, q))
            if lcm_value % q == 0 and not lcm_square_check(t, q):
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
    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        passed=not counterexamples and not exceeded,
        parameters={"k": k, "delta": delta, "q": q, "lcm_bound": bound},
        counterexamples=counterexamples,
        equality_witnesses=witnesses,
        stats=SearchStats(nodes=count, millis=millis),
        budget_exceeded=exceeded,
        details={
            "class_size": count,
            "max_lcm": max_lcm if count else None,
            "maximizers": maximizers,
        },
    )


@dataclass(frozen=True)
class SweepConfig:
    """Grid for sweep: k = 1..k_max crossed with every delta and its q set.

    q_mode is either 'canonical' (the reduced denominator of delta) or
    'all-upto:N' (every multiple of the canonical q up to N; an N below
    some delta's canonical q is an error, not a skipped delta).
    """

    k_max: int
    deltas: tuple
    q_mode: str = "canonical"
    budget: int = DEFAULT_BUDGET


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


def sweep(config: SweepConfig) -> VerificationReport:
    """Run window and lcm searches over the grid and cross-check every
    equality witness list against the extremal constructors.

    The report aggregates all counterexamples and witnesses; passed requires
    a clean, budget-complete run. An empty grid passes with zero stats.
    """
    if config.k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {config.k_max}")
    if config.budget < 1:
        raise ValueError(f"budget must be positive, got {config.budget}")
    deltas = tuple(Fraction(d) for d in config.deltas)
    for d in deltas:
        if d < -1:
            raise ValueError(f"delta must be >= -1, got {d}")
    cells = [
        (delta, q, k)
        for delta in deltas
        for q in _qs_for(delta, config.q_mode)
        for k in range(1, config.k_max + 1)
    ]

    t0 = time.perf_counter()
    counterexamples: list[Counterexample] = []
    witnesses: list[EqualityWitness] = []
    nodes = 0
    exceeded = False

    def absorb(report: VerificationReport, expected, kind: str) -> bool:
        """Merge one sub-report; return False once the budget is gone."""
        nonlocal nodes, exceeded
        nodes += report.stats.nodes
        counterexamples.extend(report.counterexamples)
        witnesses.extend(report.equality_witnesses)
        if report.budget_exceeded:
            exceeded = True
            return False
        found = [w.denominators for w in report.equality_witnesses]
        wanted = [] if expected is None else [expected]
        if found != wanted:
            counterexamples.append(
                Counterexample(
                    f"{kind} equality witnesses {found} do not match "
                    f"extremal construction {wanted}",
                    found[0] if found else (expected or ()),
                    report.parameters["delta"],
                    report.parameters["q"],
                )
            )
        for w in report.equality_witnesses:
            if w.family == "NONE":
                counterexamples.append(
                    Counterexample(
                        f"{kind} equality witness left unclassified",
                        w.denominators,
                        w.delta,
                        w.q,
                    )
                )
        return True

    for delta, q, k in cells:
        remaining = config.budget - nodes
        if remaining < 1:
            exceeded = True
            break
        if not absorb(
            window_search(k, delta, q, budget=remaining),
            extremal_gap_tuple(k, delta, q),
            "gap",
        ):
            break
        if delta >= 0:
            remaining = config.budget - nodes
            if remaining < 1:
                exceeded = True
                break
            if not absorb(
                max_lcm_search(k, delta, q, budget=remaining),
                extremal_lcm_tuple(k, delta, q),
                "lcm",
            ):
                break

    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        passed=not counterexamples and not exceeded,
        parameters={
            "k_max": config.k_max,
            "deltas": list(deltas),
            "q_mode": config.q_mode,
            "budget": config.budget,
            "cells": len(cells),
        },
        counterexamples=counterexamples,
        equality_witnesses=witnesses,
        stats=SearchStats(nodes=nodes, millis=millis),
        budget_exceeded=exceeded,
    )

"""Dominance lemmas for nonincreasing positive sequences.

Two exact comparison principles, each paired with a constructive generator
that manufactures hypothesis-satisfying test pairs by running the proofs'
exchange moves backwards (no rejection sampling):

  * prefix-product dominance of x over y forces sum(x) >= sum(y);
  * suffix-sum dominance of x over y forces prod(x) >= prod(y);

and in both, equality of the aggregate forces entrywise equality.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

PositiveSequence = tuple[Fraction, ...]


def positive_sequence(entries: Iterable) -> PositiveSequence:
    """Validate and freeze a nonincreasing sequence of positive rationals."""
    xs = tuple(Fraction(e) for e in entries)
    for i, v in enumerate(xs):
        if v <= 0:
            raise ValueError(f"entries must be positive, got {v}")
        if i and v > xs[i - 1]:
            raise ValueError(f"entries must be nonincreasing, got {xs}")
    return xs


def _paired(x, y) -> tuple[PositiveSequence, PositiveSequence]:
    xs, ys = positive_sequence(x), positive_sequence(y)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return xs, ys


def _prefix_products_dominate(xs: PositiveSequence, ys: PositiveSequence) -> bool:
    products = zip(accumulate(xs, operator.mul), accumulate(ys, operator.mul))
    return all(px >= py for px, py in products)


def _suffix_sums_dominate(xs: PositiveSequence, ys: PositiveSequence) -> bool:
    sums = zip(accumulate(reversed(xs)), accumulate(reversed(ys)))
    return all(sx >= sy for sx, sy in sums)


def prefix_product_dominates(x, y) -> bool:
    """True iff prod(x_1..x_j) >= prod(y_1..y_j) for every prefix length j."""
    return _prefix_products_dominate(*_paired(x, y))


def suffix_sum_dominates(x, y) -> bool:
    """True iff sum(x_j..x_n) >= sum(y_j..y_n) for every suffix start j."""
    return _suffix_sums_dominate(*_paired(x, y))


def _conclusion(x, y, dominate, hypothesis: str, aggregate, name: str) -> bool:
    """Validate x and y once, require dominate(xs, ys), then compare the
    aggregates: True when strict, False when equal (and then xs == ys)."""
    xs, ys = _paired(x, y)
    if not dominate(xs, ys):
        raise ValueError(f"hypothesis failed: x must {hypothesis} y")
    ax, ay = aggregate(xs), aggregate(ys)
    assert ax >= ay, f"{name} dominance violated for {xs} vs {ys}"
    if ax == ay:
        assert xs == ys, f"{name} equality without entrywise equality: {xs} vs {ys}"
        return False
    return True


def sum_dominance_conclusion(x, y) -> bool:
    """Under prefix-product dominance of x over y: sum(x) >= sum(y) holds,
    with equality exactly when x == y entrywise.

    Returns True for strict sum dominance, False for the equality case.
    Raises if the hypothesis fails.
    """
    return _conclusion(
        x, y, _prefix_products_dominate, "prefix-product dominate", sum, "sum"
    )


def product_dominance_conclusion(x, y) -> bool:
    """Under suffix-sum dominance of x over y: prod(x) >= prod(y) holds,
    with equality exactly when x == y entrywise.

    Returns True for strict product dominance, False for the equality case.
    Raises if the hypothesis fails.
    """
    return _conclusion(
        x, y, _suffix_sums_dominate, "suffix-sum dominate", math.prod, "product"
    )


# ---------------------------------------------------------------------------
# constructive pair generation
#
# Both generators start from a random nonincreasing x and derive y through
# moves that preserve the relevant dominance by construction. Every applied
# move strictly shrinks the compared aggregate, so y == x exactly when no
# move fired, which keeps the equality branch reachable.

_RATIO_CHOICES = tuple(
    Fraction(a, b) for a, b in [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (5, 3), (7, 4)]
)


def _random_nonincreasing(rng: random.Random, n: int, max_value: int) -> list[Fraction]:
    vals = []
    for _ in range(n):
        v = Fraction(rng.randint(1, 4 * max_value), rng.randint(1, 4))
        vals.append(min(v, Fraction(max_value)))
    vals.sort(reverse=True)
    return vals


def random_prefix_dominated_pair(
    rng: random.Random, max_len: int = 8, max_value: int = 10
) -> tuple[PositiveSequence, PositiveSequence]:
    """A pair (x, y) with x prefix-product dominating y, built constructively.

    y starts as a copy of x; each move divides y[l-1] by t and multiplies
    y[l] by t for some t > 1 with t*t <= y[l-1]/y[l], which scales one prefix
    product down and leaves the rest alone. An optional global shrink scales
    every prefix product by a power of a factor <= 1.
    """
    n = rng.randint(1, max_len)
    x = _random_nonincreasing(rng, n, max_value)
    y = list(x)
    if n >= 2:
        for _ in range(rng.randint(0, 3)):
            l = rng.randrange(1, n)
            cap = y[l - 1] / y[l]
            usable = [t for t in _RATIO_CHOICES if t * t <= cap]
            if not usable:
                continue
            t = rng.choice(usable)
            y[l - 1] /= t
            y[l] *= t
    if rng.random() < 0.3:
        shrink = Fraction(rng.randint(1, 4), 4)
        y = [v * shrink for v in y]
    return tuple(x), tuple(y)


def random_suffix_dominated_pair(
    rng: random.Random, max_len: int = 8, max_value: int = 10
) -> tuple[PositiveSequence, PositiveSequence]:
    """A pair (x, y) with x suffix-sum dominating y, built constructively.

    y starts as a copy of x; moves either shift mass from a later entry to an
    earlier one (suffix sums in between drop) or shave an entry down, always
    within the nonincreasing and positivity constraints.
    """
    n = rng.randint(1, max_len)
    x = _random_nonincreasing(rng, n, max_value)
    y = list(x)
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5 and n >= 2:
            j2 = rng.randrange(1, n)
            j1 = rng.randrange(0, j2)
            room_up = (y[j1 - 1] - y[j1]) if j1 else Fraction(max_value) - y[0]
            room_down = y[j2] - (y[j2 + 1] if j2 + 1 < n else Fraction(0))
            eps_max = min(room_up, room_down)
            if eps_max <= 0:
                continue
            eps = eps_max * Fraction(rng.randint(1, 3), 4)
            y[j1] += eps
            y[j2] -= eps
        else:
            j = rng.randrange(0, n)
            room = y[j] - (y[j + 1] if j + 1 < n else Fraction(0))
            if room <= 0:
                continue
            eps = room * Fraction(rng.randint(1, 3), 4)
            y[j] -= eps
    return tuple(x), tuple(y)

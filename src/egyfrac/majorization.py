"""Dominance lemmas for nonincreasing positive sequences.

Two exact comparison principles, each paired with a constructive generator
that manufactures hypothesis-satisfying test pairs by running the proofs'
exchange moves backwards (no rejection sampling):

  * prefix-product dominance of x over y forces sum(x) >= sum(y);
  * suffix-sum dominance of x over y forces prod(x) >= prod(y);

and in both, equality of the aggregate forces entrywise equality.

The API takes and returns Fractions. The kernels work on exact integer
(numerator, denominator) pairs: running sums and products stay unreduced,
and two of them compare by cross-multiplication.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .rationals import as_rational

PositiveSequence = tuple[Fraction, ...]
Pairs = list[tuple[int, int]]


def _validated(entries: Iterable) -> tuple[PositiveSequence, Pairs]:
    """The entries as Fractions and as (num, den) pairs, checked positive
    and nonincreasing; den > 0, so both checks are integer ones."""
    xs = tuple(as_rational(e) for e in entries)
    pairs = [v.as_integer_ratio() for v in xs]
    prev_n, prev_d = 1, 0  # +infinity: the first entry never steps up
    for v, (n, d) in zip(xs, pairs):
        if n <= 0:
            raise ValueError(f"entries must be positive, got {v}")
        if n * prev_d > prev_n * d:
            raise ValueError(f"entries must be nonincreasing, got {xs}")
        prev_n, prev_d = n, d
    return xs, pairs


def positive_sequence(entries: Iterable) -> PositiveSequence:
    """Validate and freeze a nonincreasing sequence of positive rationals.

    Each entry passes `as_rational`: an int, a Fraction or a wire-format
    string such as "3/2"; floats, bools and other strings are refused.
    """
    return _validated(entries)[0]


def _paired(x, y) -> tuple[Pairs, Pairs]:
    xp, yp = _validated(x)[1], _validated(y)[1]
    if len(xp) != len(yp):
        raise ValueError(f"length mismatch: {len(xp)} vs {len(yp)}")
    return xp, yp


def _prefix_products_dominate(xp: Pairs, yp: Pairs) -> bool:
    xn = xd = yn = yd = 1
    for (a, b), (c, d) in zip(xp, yp):
        xn, xd, yn, yd = xn * a, xd * b, yn * c, yd * d
        if xn * yd < yn * xd:
            return False
    return True


def _suffix_sums_dominate(xp: Pairs, yp: Pairs) -> bool:
    xn, xd, yn, yd = 0, 1, 0, 1
    for (a, b), (c, d) in zip(reversed(xp), reversed(yp)):
        xn, xd = xn * b + a * xd, xd * b
        yn, yd = yn * d + c * yd, yd * d
        if xn * yd < yn * xd:
            return False
    return True


def _sum(pairs: Pairs) -> tuple[int, int]:
    n, d = 0, 1
    for a, b in pairs:
        n, d = n * b + a * d, d * b
    return n, d


def _product(pairs: Pairs) -> tuple[int, int]:
    n = d = 1
    for a, b in pairs:
        n, d = n * a, d * b
    return n, d


def prefix_product_dominates(x, y) -> bool:
    """True iff prod(x_1..x_j) >= prod(y_1..y_j) for every prefix length j."""
    return _prefix_products_dominate(*_paired(x, y))


def suffix_sum_dominates(x, y) -> bool:
    """True iff sum(x_j..x_n) >= sum(y_j..y_n) for every suffix start j."""
    return _suffix_sums_dominate(*_paired(x, y))


def _conclusion(x, y, dominate, hypothesis: str, aggregate, name: str) -> bool:
    """Validate x and y once, require dominate(xp, yp), then compare the
    aggregates: True when strict, False when equal (and then x == y: the
    pairs are in lowest terms, so equal pairs are equal entries)."""
    xp, yp = _paired(x, y)
    if not dominate(xp, yp):
        raise ValueError(f"hypothesis failed: x must {hypothesis} y")
    (xn, xd), (yn, yd) = aggregate(xp), aggregate(yp)
    ax, ay = xn * yd, yn * xd
    assert ax >= ay, f"{name} dominance violated for {x} vs {y}"
    if ax == ay:
        assert xp == yp, f"{name} equality without entrywise equality: {x} vs {y}"
        return False
    return True


def sum_dominance_conclusion(x, y) -> bool:
    """Under prefix-product dominance of x over y: sum(x) >= sum(y) holds,
    with equality exactly when x == y entrywise.

    Returns True for strict sum dominance, False for the equality case.
    Raises if the hypothesis fails.
    """
    return _conclusion(
        x, y, _prefix_products_dominate, "prefix-product dominate", _sum, "sum"
    )


def product_dominance_conclusion(x, y) -> bool:
    """Under suffix-sum dominance of x over y: prod(x) >= prod(y) holds,
    with equality exactly when x == y entrywise.

    Returns True for strict product dominance, False for the equality case.
    Raises if the hypothesis fails.
    """
    return _conclusion(
        x, y, _suffix_sums_dominate, "suffix-sum dominate", _product, "product"
    )


# ---------------------------------------------------------------------------
# constructive pair generation
#
# Both generators start from a random nonincreasing x and derive y through
# moves that preserve the relevant dominance by construction. Every applied
# move strictly shrinks the compared aggregate, so y == x exactly when no
# move fired, which keeps the equality branch reachable.
#
# x's entries are drawn as a/b with b <= 4 and held as numerators over
# _DEN: 12 is the lcm of 1..4, and each of the at most _MOVES suffix moves
# takes a quarter multiple of a difference of entries, so the extra factor
# 4**_MOVES keeps every suffix-generator value an integer over _DEN.

_MAX_LEN = 8
_MAX_VALUE = 10
_MOVES = 3
_DEN = 12 * 4**_MOVES
_RATIO_CHOICES = ((2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (5, 3), (7, 4))


def _random_nonincreasing(rng: random.Random, n: int) -> list[int]:
    """n entries, each min(a/b, _MAX_VALUE), as numerators over _DEN,
    largest first."""
    vals = []
    for _ in range(n):
        v = rng.randint(1, 4 * _MAX_VALUE) * (_DEN // rng.randint(1, 4))
        vals.append(min(v, _MAX_VALUE * _DEN))
    vals.sort(reverse=True)
    return vals


def _over_den(vals: list[int]) -> PositiveSequence:
    return tuple(Fraction(v, _DEN) for v in vals)


def random_prefix_dominated_pair(
    rng: random.Random,
) -> tuple[PositiveSequence, PositiveSequence]:
    """A pair (x, y) with x prefix-product dominating y, built constructively.

    x has 1 to _MAX_LEN entries, each a positive rational at most
    _MAX_VALUE. y starts as a copy of x; each move divides y[l-1] by t and
    multiplies y[l] by t for some t > 1 with t*t <= y[l-1]/y[l], which
    scales one prefix product down and leaves the rest alone. An optional
    global shrink scales every prefix product by a power of a factor <= 1.
    """
    n = rng.randint(1, _MAX_LEN)
    x = _random_nonincreasing(rng, n)
    y = [(v, _DEN) for v in x]
    if n >= 2:
        for _ in range(rng.randint(0, _MOVES)):
            l = rng.randrange(1, n)
            (a, b), (c, d) = y[l - 1], y[l]
            # t*t <= (a/b) / (c/d), with t = p/q, cross-multiplied
            usable = [(p, q) for p, q in _RATIO_CHOICES if p * p * b * c <= q * q * a * d]
            if not usable:
                continue
            p, q = rng.choice(usable)
            y[l - 1] = (a * q, b * p)
            y[l] = (c * p, d * q)
    if rng.random() < 0.3:
        shrink = rng.randint(1, 4)
        y = [(a * shrink, b * 4) for a, b in y]
    return _over_den(x), tuple(Fraction(a, b) for a, b in y)


def random_suffix_dominated_pair(
    rng: random.Random,
) -> tuple[PositiveSequence, PositiveSequence]:
    """A pair (x, y) with x suffix-sum dominating y, built constructively.

    x has 1 to _MAX_LEN entries, each a positive rational at most
    _MAX_VALUE. y starts as a copy of x; moves either shift mass from a
    later entry to an earlier one (suffix sums in between drop) or shave an
    entry down, always within the nonincreasing, positivity and
    at-most-_MAX_VALUE constraints.
    """
    n = rng.randint(1, _MAX_LEN)
    x = _random_nonincreasing(rng, n)
    y = list(x)
    for _ in range(rng.randint(0, _MOVES)):
        if rng.random() < 0.5 and n >= 2:
            j2 = rng.randrange(1, n)
            j1 = rng.randrange(0, j2)
            room_up = (y[j1 - 1] - y[j1]) if j1 else _MAX_VALUE * _DEN - y[0]
            room_down = y[j2] - (y[j2 + 1] if j2 + 1 < n else 0)
            eps_max = min(room_up, room_down)
            if eps_max <= 0:
                continue
            eps = eps_max * rng.randint(1, 3) // 4
            y[j1] += eps
            y[j2] -= eps
        else:
            j = rng.randrange(0, n)
            room = y[j] - (y[j + 1] if j + 1 < n else 0)
            if room <= 0:
                continue
            eps = room * rng.randint(1, 3) // 4
            y[j] -= eps
    return _over_den(x), _over_den(y)

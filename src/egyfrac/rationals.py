"""Exact rational arithmetic and the shortfall decomposition delta = s - r/q.

Every rational this package takes or returns is a `fractions.Fraction`:
stored reduced, denominator positive, so equality is structural and values
hash cleanly. There is no floating point anywhere: a float input is
refused, not converted. Every integer argument, a count, an index or a
modulus, passes through `as_int`, which refuses bools and floats alike.
Text has one number grammar, the wire format: `INTEGER_LITERAL`, an optional
sign and ASCII digits, read by `parse_int`, and `RATIONAL_LITERAL`, that and
an optional '/digits', which every string given to `as_rational` must match.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

INTEGER_LITERAL = re.compile(r"[+-]?[0-9]+")
RATIONAL_LITERAL = re.compile(INTEGER_LITERAL.pattern + r"(?:/[0-9]+)?")


def parse_int(text: str) -> int:
    """Parse the wire format '3', '-5', '+7'."""
    if not INTEGER_LITERAL.fullmatch(text):
        raise ValueError(f"malformed integer literal: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse the wire format '3', '-5/6', '+7/2', as `as_rational` does."""
    return as_rational(text)


def as_rational(x, name: str = "", least: int | None = None) -> Fraction:
    """x as a Fraction: x itself if it is one, else Fraction(x) of a number
    such as an int, or of a wire-format string such as "3/2". A float or a
    bool is refused, and so is a zero denominator; when least is given, so
    is an x below it, by an integer compare of numerator and denominator."""
    if type(x) is not Fraction:
        if isinstance(x, (bool, float)):
            raise ValueError(f"rationals must be exact, got the {type(x).__name__} {x!r}")
        if isinstance(x, str) and not RATIONAL_LITERAL.fullmatch(x):
            raise ValueError(f"malformed rational literal: {x!r}")
        try:
            x = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if least is not None and x.numerator < least * x.denominator:
        raise ValueError(f"{name} must be >= {least}, got {x}")
    return x


def as_int(x, name: str, least: int = 1) -> int:
    """x itself if it is an int no smaller than least, which is 1 or 0.

    A bool or a float, even a whole one such as 2.0, is refused rather than
    converted: in the arithmetic a float builds a Fraction of floats, and a
    bool prints as True where a number was meant.
    """
    if type(x) is not int or x < least:
        kind = "nonnegative" if least == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {x!r}")
    return x


class _LowestTerms(NamedTuple):
    numerator: int
    denominator: int


# numbers.Rational defines numerator and denominator to be in lowest terms,
# and Fraction(x) of a Rational x copies them as they are
numbers.Rational.register(_LowestTerms)


# below this, Fraction(num, den) is built faster than from _LowestTerms,
# whose ABC dispatch costs more than a gcd of 64-bit operands
_SMALL = 2**64


def reduced(num: int, den: int, g: int) -> Fraction:
    """num/den as a Fraction, for den > 0 and g = gcd(num, den).

    Fraction(num, den) finds g itself and divides by it even when it is 1:
    for num and den the size of a Sylvester value u(s, q), that gcd costs
    more than the bound it reduces. Callers find g against a small operand
    instead, and the division happens only when g > 1. A den below 2**64
    is left to Fraction, whose gcd is cheap at that size.
    """
    if g > 1:
        num, den = num // g, den // g
    if den < _SMALL:
        return Fraction(num, den)
    return Fraction(_LowestTerms(num, den))


def rational_str(x) -> str:
    """Wire format for a rational: '3', '-5/6'. Denominator 1 prints bare."""
    return str(as_rational(x))


def floor_frac(x) -> tuple[int, Fraction]:
    """Split x into (floor, fractional part), with 0 <= frac < 1 exactly."""
    x = as_rational(x)
    fl = math.floor(x)
    return fl, x - fl


def canonical_q(x) -> int:
    """Smallest positive q with q*x an integer: the reduced denominator."""
    return as_rational(x).denominator


@dataclass(frozen=True)
class SRQ:
    """Decomposition delta = s - r/q with s = floor(delta) + 1.

    s counts the shortfall rounded up to whole units; r = q*(1 - frac(delta))
    measures how far delta sits below s, in steps of 1/q. Invariants:
    s >= 0 and 1 <= r <= q.
    """

    s: int
    r: int
    q: int

    def __post_init__(self):
        if as_int(self.q, "q") < as_int(self.r, "r"):
            raise ValueError(f"r must lie in [1, {self.q}], got {self.r}")
        as_int(self.s, "s", 0)

    @property
    def delta(self) -> Fraction:
        return self.s - Fraction(self.r, self.q)


def srq_decompose(delta, q: int) -> SRQ:
    """Write delta = s - r/q. Requires delta >= -1 and q*delta integral.

    On delta = n/d in lowest terms, in integers: delta >= -1 is n >= -d;
    q*delta = q*n/d is an integer exactly when d divides q, since n is
    coprime to d; s = floor(delta) + 1 = n // d + 1; and r = q*(s - delta)
    = q*(s*d - n)/d, exact because d divides q.
    """
    delta = as_rational(delta)
    as_int(q, "q")
    # the floor after q, so a bad q is named before a low delta
    as_rational(delta, "delta", -1)
    n, d = delta.numerator, delta.denominator
    if q % d:
        raise ValueError(f"q*delta must be an integer, got q={q}, delta={delta}")
    s = n // d + 1
    # s >= 0 and 1 <= r <= q hold by construction, so the fields skip
    # SRQ's checks, which cost more than the decomposition itself
    out = object.__new__(SRQ)
    out.__dict__.update(s=s, r=q * (s * d - n) // d, q=q)
    return out


def near_one_check(n: int, p: int, q: int) -> bool:
    """True iff 1 - 1/n <= p/q < 1.

    Whenever the hypothesis holds, the denominator cannot be small: n <= q.
    That consequence is asserted here as a consistency check.
    """
    as_int(n, "n")
    as_int(p, "p")
    as_int(q, "q")
    holds = (n - 1) * q <= n * p and p < q
    if holds:
        assert n <= q, f"near-one bound violated at n={n}, p={p}, q={q}"
    return holds

"""Dictionary between boundary coefficients and unit-fraction deficiency."""

import contextlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from egyfrac.egyptian import tuple_sum
from egyfrac.geometry import (
    ONE,
    LogStructure,
    StandardCoefficient,
    bpf_index,
    deficiency,
    finite,
    gap_bound,
    index_bound,
    refined_index_bound,
    volume,
)
from egyfrac.rationals import canonical_q, srq_decompose
from egyfrac.sylvester import sylvester_u

F = Fraction


def test_coefficient_values():
    assert ONE.is_one and ONE.value == 1
    assert finite(3).value == F(2, 3)
    assert finite(1).value == 0  # m = 1 encodes the zero coefficient
    assert not finite(2).is_one
    with pytest.raises(ValueError):
        finite(0)
    with pytest.raises(ValueError):
        StandardCoefficient(-2)


def test_log_structure_accessors():
    ls = LogStructure(2, (finite(4), ONE, finite(2), finite(3), ONE))
    assert ls.finite_denominators == (2, 3, 4)
    assert ls.ones_count == 2
    with pytest.raises(ValueError):
        LogStructure(0, (ONE,))


def test_log_structure_refuses_an_entry_that_is_not_a_coefficient():
    for entry in (3, F(1, 2), None, "one"):
        with pytest.raises(ValueError, match=f"^coefficients must be StandardCoefficient, "
                                             f"got {re.escape(repr(entry))}$"):
            LogStructure(1, (finite(2), entry))


def test_volume_deficiency_frozen():
    ls = LogStructure(2, (finite(2), finite(3), finite(4), ONE, ONE))
    assert volume(ls) == F(11, 12)
    assert deficiency(ls) == F(23, 12)
    assert bpf_index(ls) == 12
    empty = LogStructure(1, ())
    assert volume(empty) == -2
    assert deficiency(empty) == 0


def _random_structure(rng: random.Random) -> LogStructure:
    dim = rng.randint(1, 3)
    coeffs = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.3:
            coeffs.append(ONE)
        else:
            coeffs.append(finite(rng.randint(1, 8)))
    return LogStructure(dim, tuple(coeffs))


def test_dictionary_identity_random():
    # reciprocal sum of the finite part == (number of finite parts) - delta
    rng = random.Random(51)
    for _ in range(2000):
        ls = _random_structure(rng)
        ms = ls.finite_denominators
        delta = deficiency(ls)
        assert tuple_sum(ms) == len(ms) - delta
        assert delta >= 0


def test_gap_bound_frozen():
    assert gap_bound(1, 0, 1) == F(1, 42)
    assert gap_bound(1, F(1, 2), 2) == F(1, 1806)
    assert gap_bound(2, 0, 1) == F(1, 1806)
    assert gap_bound(1, 1, 1) == F(1, 1806)


def test_index_bound_frozen():
    assert index_bound(1, 0, 1) == 6
    assert index_bound(1, F(1, 2), 2) == 42
    assert index_bound(2, 0, 1) == 42
    assert index_bound(1, 1, 1) == 42


def test_threshold_bounds_reject_bad_input():
    for fn in (gap_bound, index_bound):
        with pytest.raises(ValueError):
            fn(0, 0, 1)
        with pytest.raises(ValueError):
            fn(1, F(-1, 2), 2)
        with pytest.raises(ValueError):
            fn(1, F(1, 2), 3)  # q*t not integral


def test_refined_index_bound():
    assert refined_index_bound(2, 2, F(11, 12), 12) == 156
    # with no ones the refinement reduces to the plain bound
    for t, q in [(F(0), 1), (F(1, 2), 2), (F(1), 1)]:
        for dim in (1, 2, 3):
            assert refined_index_bound(dim, 0, t, q) == index_bound(dim, t, q)
    with pytest.raises(ValueError):
        refined_index_bound(1, 3, 0, 1)  # index drops below 1
    with pytest.raises(ValueError, match="ones must be a nonnegative integer, got -1"):
        refined_index_bound(1, -1, 0, 1)


def test_threshold_bounds_match_sylvester_formulas():
    # the three bounds written out in u(p, q) directly, with
    # s = floor(t) + 1 and r = q*(1 - frac(t)) from the threshold
    cases = 0
    for dim in range(1, 5):
        for q in range(1, 5):
            for n in range(0, 4 * q + 1):
                t = F(n, q)
                d = srq_decompose(t, q)
                assert gap_bound(dim, t, q) == F(d.r, sylvester_u(d.s + dim + 2, q))
                assert index_bound(dim, t, q) == F(sylvester_u(d.s + dim + 1, q), d.r)
                for ones in range(0, dim + d.s + 2):
                    index = d.s + dim - ones + 1
                    if index < 1:
                        with pytest.raises(ValueError):
                            refined_index_bound(dim, ones, t, q)
                    else:
                        assert refined_index_bound(dim, ones, t, q) == F(
                            sylvester_u(index, q), d.r
                        )
                cases += 1
    assert cases == 176


def test_refined_bound_monotone_in_ones():
    for dim in (1, 2, 3):
        for t, q in [(F(0), 1), (F(1, 2), 2), (F(3, 2), 2)]:
            prev = None
            for ones in range(0, dim + 1):
                b = refined_index_bound(dim, ones, t, q)
                if prev is not None:
                    assert b <= prev  # dropping terms only sharpens the cap
                prev = b


def test_volume_gap_exhaustive_dim1():
    """Every standard structure in a small exhaustive family either stays at
    or below the threshold or clears it by the full gap bound."""
    pool = [2, 3, 4, 5, 6, 7]
    thresholds = [(F(0), 1), (F(1, 2), 2)]
    checked = 0
    for size in range(0, 4):
        for ms in itertools.combinations_with_replacement(pool, size):
            for ones in range(0, 3):
                coeffs = tuple(finite(m) for m in ms) + (ONE,) * ones
                v = volume(LogStructure(1, coeffs))
                for t, q in thresholds:
                    if v > t:
                        checked += 1
                        assert v >= t + gap_bound(1, t, q), (ms, ones, t)
    assert checked > 50


def test_bpf_index():
    ls = LogStructure(1, (finite(2), finite(3), finite(6), ONE))
    assert volume(ls) == 1
    assert bpf_index(ls) == 6  # also asserts 6 <= index_bound(1, 1, 1) == 42
    no_finite = LogStructure(1, (ONE, ONE, ONE))
    assert bpf_index(no_finite) == 1
    with pytest.raises(ValueError):
        bpf_index(LogStructure(1, (finite(2), ONE)))  # volume -1/2


def test_bpf_index_random_structures():
    rng = random.Random(52)
    for _ in range(500):
        ls = _random_structure(rng)
        v = volume(ls)
        if v < 0:
            continue
        r = bpf_index(ls)
        # r clears every coefficient by construction, and bpf_index asserts
        # the index bound; restate both here
        assert all((r * c.value).denominator == 1 for c in ls.coefficients)
        assert r <= index_bound(ls.dim, v, canonical_q(v))


@pytest.mark.skipif(not __debug__, reason="the index-bound check is an assert")
def test_bpf_index_asserts_the_index_bound(monkeypatch):
    # the bound holds on every structure, so only a lowered bound shows
    # that the check runs
    monkeypatch.setattr("egyfrac.geometry.index_bound", lambda dim, t, q: F(5))
    ls = LogStructure(1, (finite(2), finite(3), finite(6), ONE))
    with pytest.raises(AssertionError, match=re.escape(
            f"clearing index 6 above the index bound for {ls}")):
        bpf_index(ls)


def _fraction_volume(ls):
    """volume as it read before sums were carried as integer pairs."""
    return -(ls.dim + 1) + sum((c.value for c in ls.coefficients), F(0))


def _reference_structures(rng):
    # dim 1-3, up to nine coefficients, with and without ONE; some
    # denominators past 2**64, where the result is built from lowest terms
    for _ in range(1500):
        ones = rng.random() < 0.5
        pool = [rng.randint(1, 12), rng.randint(1, 60), rng.randint(1, 2**rng.randint(8, 70))]
        coeffs = [ONE if ones and rng.random() < 0.3 else finite(rng.choice(pool))
                  for _ in range(rng.randint(0, 9))]
        yield LogStructure(rng.randint(1, 3), tuple(coeffs))


def test_volume_deficiency_and_index_match_the_fraction_reference():
    rng = random.Random(53)
    indexed = 0
    for ls in _reference_structures(rng):
        want = _fraction_volume(ls)
        v = volume(ls)
        assert (v.numerator, v.denominator) == (want.numerator, want.denominator), ls
        want = ls.dim - ls.ones_count + 1 + want
        delta = deficiency(ls)
        assert (delta.numerator, delta.denominator) == (want.numerator, want.denominator), ls
        if v >= 0:
            r = bpf_index(ls)
            assert r == math.lcm(*ls.finite_denominators)
            assert all((r * c.value).denominator == 1 for c in ls.coefficients)
            indexed += 1
        else:
            with pytest.raises(ValueError, match="^volume must be nonnegative"):
                bpf_index(ls)
    assert indexed > 300


@contextlib.contextmanager
def _counting_fractions():
    """Count the Fractions built inside the block: by Fraction(...) and, on
    Python 3.12 and later, by the arithmetic's own _from_coprime_ints."""
    built = []
    saved = {name: vars(F)[name] for name in ("__new__", "_from_coprime_ints") if name in vars(F)}
    new = saved["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    F.__new__ = staticmethod(counting_new)
    if "_from_coprime_ints" in saved:
        coprime = saved["_from_coprime_ints"].__func__

        def counting_coprime(cls, numerator, denominator):
            built.append(cls)
            return coprime(cls, numerator, denominator)

        F._from_coprime_ints = classmethod(counting_coprime)
    try:
        yield built
    finally:
        for name, original in saved.items():
            setattr(F, name, original)


def test_sums_build_one_fraction():
    terms = tuple(range(2, 14))
    ls = LogStructure(2, tuple(finite(m) for m in range(2, 11)))
    original = vars(F)["__new__"]
    with _counting_fractions() as built:
        total = tuple_sum(terms)
    assert len(built) == 1
    with _counting_fractions() as built:
        v = volume(ls)
    assert len(built) == 1
    # the counter sees a Fraction per term in the references
    with _counting_fractions() as built:
        assert sum((F(1, m) for m in terms), F(0)) == total
    assert len(built) >= 2 * len(terms)
    with _counting_fractions() as built:
        assert _fraction_volume(ls) == v
    assert len(built) >= 2 * len(ls.coefficients)
    assert vars(F)["__new__"] is original

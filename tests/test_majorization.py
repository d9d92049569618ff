"""Dominance lemmas and their constructive pair generators."""

import math
import operator
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egyfrac.egyptian import enumerate_exact
from egyfrac.majorization import (
    positive_sequence,
    prefix_product_dominates,
    product_dominance_conclusion,
    random_prefix_dominated_pair,
    random_suffix_dominated_pair,
    suffix_sum_dominates,
    sum_dominance_conclusion,
)

F = Fraction


def test_positive_sequence_validates():
    assert positive_sequence([3, 2, 2]) == (F(3), F(2), F(2))
    assert positive_sequence(()) == ()
    assert positive_sequence([F(5, 2), "3/2", 1]) == (F(5, 2), F(3, 2), F(1))
    # every entry passes the rational gate: no bool, and a string only in
    # the wire format
    with pytest.raises(ValueError, match="^rationals must be exact, got the bool True$"):
        positive_sequence([2, True])
    with pytest.raises(ValueError, match=r"^malformed rational literal: '0\.5'$"):
        positive_sequence([1, "0.5"])
    with pytest.raises(ValueError):
        positive_sequence([2, 3])  # increasing step
    with pytest.raises(ValueError):
        positive_sequence([1, 0])
    with pytest.raises(ValueError):
        positive_sequence([F(-1, 2)])


def test_dominance_predicates_by_hand():
    assert prefix_product_dominates((4, 2), (2, 2))
    assert not prefix_product_dominates((2, 2), (3, 1))
    assert prefix_product_dominates((3, 2, 1), (2, 2, F(3, 2)))
    assert suffix_sum_dominates((3, 2, 1), (3, F(3, 2), 1))
    assert not suffix_sum_dominates((2, 1), (2, F(3, 2)))
    assert prefix_product_dominates((), ())
    assert suffix_sum_dominates((), ())


def test_predicates_reject_bad_pairs():
    with pytest.raises(ValueError):
        prefix_product_dominates((2, 1), (2,))  # length mismatch
    with pytest.raises(ValueError):
        suffix_sum_dominates((2, 1), (1, 2))  # rhs not nonincreasing


def test_sum_conclusion_by_hand():
    assert sum_dominance_conclusion((4, 2), (2, 2)) is True
    assert sum_dominance_conclusion((2, 2), (2, 2)) is False
    # equal final products, strictly larger sum
    assert sum_dominance_conclusion((3, 2, 1), (2, 2, F(3, 2))) is True
    with pytest.raises(ValueError):
        sum_dominance_conclusion((2, 2), (3, 1))


def test_product_conclusion_by_hand():
    assert product_dominance_conclusion((3, 2, 1), (3, F(3, 2), 1)) is True
    assert product_dominance_conclusion((2, 2), (2, 2)) is False
    # suffix sums tie everywhere except the head
    assert product_dominance_conclusion((2, 2), (F(5, 2), F(3, 2))) is True
    with pytest.raises(ValueError):
        product_dominance_conclusion((2, 1), (2, F(3, 2)))


def test_prefix_generator_contract():
    rng = random.Random(41)
    equal_cases = 0
    for _ in range(2000):
        x, y = random_prefix_dominated_pair(rng)
        assert prefix_product_dominates(x, y)
        strict = sum_dominance_conclusion(x, y)
        assert strict == (x != y)
        equal_cases += x == y
    assert 0 < equal_cases < 2000  # both branches exercised


def test_suffix_generator_contract():
    rng = random.Random(42)
    equal_cases = 0
    for _ in range(2000):
        x, y = random_suffix_dominated_pair(rng)
        assert suffix_sum_dominates(x, y)
        strict = product_dominance_conclusion(x, y)
        assert strict == (x != y)
        equal_cases += x == y
    assert 0 < equal_cases < 2000


def _recip(t):
    # nondecreasing denominators become a nonincreasing positive sequence
    return tuple(F(1, m) for m in t)


def test_no_prefix_dominance_inside_a_sum_class():
    """Distinct representations of the same sum can never prefix-product
    dominate one another; otherwise the sum lemma would force a strict sum
    inequality between equal sums."""
    for k, x in [(3, F(1)), (4, F(1)), (3, F(1, 2))]:
        reps = enumerate_exact(x, k)
        for a in reps:
            for b in reps:
                if a != b:
                    assert not prefix_product_dominates(_recip(a), _recip(b))


def test_suffix_dominance_inside_a_sum_class_orders_products():
    # when it does occur between equal sums, suffix dominance strictly orders
    # the denominator products; (2,4,4) over (2,3,6) is the classic instance
    assert suffix_sum_dominates(_recip((2, 4, 4)), _recip((2, 3, 6)))
    assert product_dominance_conclusion(_recip((2, 4, 4)), _recip((2, 3, 6))) is True
    hits = 0
    for k, x in [(3, F(1)), (4, F(1)), (4, F(3, 2))]:
        reps = enumerate_exact(x, k)
        for a in reps:
            for b in reps:
                if a == b or not suffix_sum_dominates(_recip(a), _recip(b)):
                    continue
                hits += 1
                assert product_dominance_conclusion(_recip(a), _recip(b)) is True
                assert math.prod(a) < math.prod(b)
    assert hits > 0


def test_conclusions_accept_empty_pair():
    assert sum_dominance_conclusion((), ()) is False
    assert product_dominance_conclusion((), ()) is False


def test_floats_are_refused():
    for bad in ([1.5], [3, 0.5], [2, F(3, 2), 1.0]):
        with pytest.raises(ValueError, match=r"rationals must be exact, got the float"):
            positive_sequence(bad)
    with pytest.raises(ValueError, match=r"the float 0\.25"):
        prefix_product_dominates((1, 1), (1, 0.25))
    with pytest.raises(ValueError, match=r"the float 2\.0"):
        product_dominance_conclusion((2.0,), (1,))


# ---------------------------------------------------------------------------
# the plain-Fraction module the integer kernels replaced, kept as the
# reference: its predicates, conclusions and generators, as they were


def _ref_positive_sequence(entries):
    xs = tuple(Fraction(e) for e in entries)
    for i, v in enumerate(xs):
        if v <= 0:
            raise ValueError(f"entries must be positive, got {v}")
        if i and v > xs[i - 1]:
            raise ValueError(f"entries must be nonincreasing, got {xs}")
    return xs


def _ref_paired(x, y):
    xs, ys = _ref_positive_sequence(x), _ref_positive_sequence(y)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return xs, ys


def _ref_prefix_products_dominate(xs, ys):
    products = zip(accumulate(xs, operator.mul), accumulate(ys, operator.mul))
    return all(px >= py for px, py in products)


def _ref_suffix_sums_dominate(xs, ys):
    sums = zip(accumulate(reversed(xs)), accumulate(reversed(ys)))
    return all(sx >= sy for sx, sy in sums)


def _ref_conclusion(x, y, dominate, hypothesis, aggregate):
    xs, ys = _ref_paired(x, y)
    if not dominate(xs, ys):
        raise ValueError(f"hypothesis failed: x must {hypothesis} y")
    ax, ay = aggregate(xs), aggregate(ys)
    assert ax >= ay
    if ax == ay:
        assert xs == ys
        return False
    return True


REFERENCE = {
    prefix_product_dominates:
        lambda x, y: _ref_prefix_products_dominate(*_ref_paired(x, y)),
    suffix_sum_dominates:
        lambda x, y: _ref_suffix_sums_dominate(*_ref_paired(x, y)),
    sum_dominance_conclusion: lambda x, y: _ref_conclusion(
        x, y, _ref_prefix_products_dominate, "prefix-product dominate", sum),
    product_dominance_conclusion: lambda x, y: _ref_conclusion(
        x, y, _ref_suffix_sums_dominate, "suffix-sum dominate", math.prod),
}

_RATIOS = tuple(F(a, b) for a, b in [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (5, 3), (7, 4)])


def _ref_random_nonincreasing(rng, n):
    vals = []
    for _ in range(n):
        v = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        vals.append(min(v, Fraction(10)))
    vals.sort(reverse=True)
    return vals


def _ref_prefix_pair(rng):
    n = rng.randint(1, 8)
    x = _ref_random_nonincreasing(rng, n)
    y = list(x)
    if n >= 2:
        for _ in range(rng.randint(0, 3)):
            l = rng.randrange(1, n)
            cap = y[l - 1] / y[l]
            usable = [t for t in _RATIOS if t * t <= cap]
            if not usable:
                continue
            t = rng.choice(usable)
            y[l - 1] /= t
            y[l] *= t
    if rng.random() < 0.3:
        shrink = Fraction(rng.randint(1, 4), 4)
        y = [v * shrink for v in y]
    return tuple(x), tuple(y)


def _ref_suffix_pair(rng):
    n = rng.randint(1, 8)
    x = _ref_random_nonincreasing(rng, n)
    y = list(x)
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5 and n >= 2:
            j2 = rng.randrange(1, n)
            j1 = rng.randrange(0, j2)
            room_up = (y[j1 - 1] - y[j1]) if j1 else Fraction(10) - y[0]
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


@pytest.mark.parametrize("make, reference", [
    (random_prefix_dominated_pair, _ref_prefix_pair),
    (random_suffix_dominated_pair, _ref_suffix_pair),
], ids=["prefix", "suffix"])
def test_generators_match_the_fraction_reference(make, reference):
    """Same pairs, and the same RNG calls: the generator state agrees after."""
    for seed in range(2000):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            pair = make(rng)
            assert pair == reference(ref), seed
            assert all(type(v) is Fraction for v in pair[0] + pair[1])
        assert rng.random() == ref.random(), seed


def test_generator_golden_pairs():
    # literal outputs, so the generators and their reference cannot drift
    # apart together: one ratio move with t = 6/5, and three suffix moves
    assert random_prefix_dominated_pair(random.Random(15)) == (
        (F(11, 2), F(10, 3), F(2), F(1)), (F(55, 12), F(4), F(2), F(1)))
    assert random_suffix_dominated_pair(random.Random(28)) == (
        (F(15, 2), F(9, 2)), (F(601, 64), F(119, 64)))


def _outcome(f, x, y):
    try:
        return f(x, y)
    except ValueError as e:
        return type(e), str(e)


_entries = st.one_of(
    st.integers(1, 12),
    st.fractions(min_value=F(1, 6), max_value=12, max_denominator=6),
)


def _sequence(n):
    return st.lists(_entries, min_size=n, max_size=n).map(lambda v: sorted(v, reverse=True))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_kernels_match_the_fraction_reference(data):
    """Both predicates and both conclusions give the reference's answer, or
    its ValueError in type and text, on nonincreasing ints and Fractions;
    y is x itself, x with entries shrunk, or an independent draw, and a
    flaw may be planted first."""
    n = data.draw(st.integers(0, 8), label="n")
    x = data.draw(_sequence(n), label="x")
    how = data.draw(st.sampled_from(["same", "shrunk", "drawn"]), label="how")
    if how == "same":
        y = [F(v) for v in x]
    elif how == "shrunk":
        cuts = data.draw(st.lists(st.sampled_from([1, F(1, 2), F(2, 3), F(9, 10)]),
                                  min_size=n, max_size=n), label="cuts")
        y = sorted((v * c for v, c in zip(x, cuts)), reverse=True)
    else:
        y = data.draw(_sequence(n), label="y")
    flaw = data.draw(st.sampled_from(
        ["none", "none", "none", "nonpositive", "increasing", "length"]), label="flaw")
    side = data.draw(st.sampled_from(["x", "y"]), label="side")
    target = x if side == "x" else y
    if flaw == "nonpositive" and target:
        i = data.draw(st.integers(0, len(target) - 1), label="i")
        target[i] = data.draw(st.sampled_from([0, -1, F(-1, 2)]), label="bad")
    elif flaw == "increasing" and len(target) >= 2:
        target.reverse()
        if target[0] == target[-1]:
            target[-1] += 1
    elif flaw == "length":
        if target:
            target.pop()
        else:
            target.append(1)
    for f, reference in REFERENCE.items():
        assert _outcome(f, x, y) == _outcome(reference, x, y), f.__name__

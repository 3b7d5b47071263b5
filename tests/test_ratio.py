"""The unreduced rational behind the exact builders: its arithmetic equals
Fraction's in value, its float has Fraction's bits, and its comparisons with
floats (NaN and +-inf included) decide as Fraction's do."""

import math
import operator
import random
from fractions import Fraction as F

import pytest

from qosc import _ratio
from qosc._ratio import Ratio, reduced
from qosc.representation import _ratio_route


def value(r):
    assert type(r) is Ratio and type(r.n) is int and type(r.d) is int and r.d > 0
    return F(r.n, r.d)


def unreduced(rng, bits=40):
    """A Ratio and its Fraction, n and d sharing a drawn common factor."""
    g = rng.randint(1, 2**bits)
    n, d = rng.randint(-2**bits, 2**bits) * g, rng.randint(1, 2**bits) * g
    return Ratio(n, d), F(n, d)


def test_arithmetic_matches_fraction_in_value_and_reduces_nothing():
    rng = random.Random(27)
    ops = [operator.add, operator.sub, operator.mul, operator.truediv]
    for _ in range(400):
        (r, f), (s, g) = unreduced(rng), unreduced(rng)
        k = rng.randint(-50, 50)
        for op in ops:
            if op is not operator.truediv or g:
                assert value(op(r, s)) == op(f, g)
            if op is not operator.truediv or k:
                assert value(op(r, k)) == op(f, k)
            if op is not operator.truediv or f:
                assert value(op(k, r)) == op(k, f)
        assert value(-r) == -f and value(abs(r)) == abs(f) and bool(r) is bool(f)
        for e in range(-4, 5):
            if f or e >= 0:
                assert value(r**e) == f**e
    half = Ratio(1, 2) + Ratio(1, 2)
    assert (half.n, half.d) == (4, 4)


def test_a_negative_power_of_a_negative_ratio_keeps_d_positive():
    for e in (-1, -2, -3):
        r = Ratio(-2, 3) ** e
        assert r.d > 0 and value(r) == F(-2, 3) ** e
    r = Ratio(3, 5) / Ratio(-7, 2)
    assert (r.n, r.d) == (-6, 35)
    r = 4 / Ratio(-3, 8)
    assert (r.n, r.d) == (-32, 3)


@pytest.mark.parametrize("divide", [
    lambda: Ratio(1, 3) / Ratio(0, 5),
    lambda: Ratio(1, 3) / 0,
    lambda: 2 / Ratio(0, 7),
    lambda: Ratio(0, 4) ** -2,
], ids=["by-ratio", "by-int", "int-by-ratio", "power"])
def test_a_zero_divisor_raises(divide):
    with pytest.raises(ZeroDivisionError):
        divide()


def test_float_has_the_bits_of_float_of_the_fraction():
    rng = random.Random(5)
    for bits in (10, 60, 1100, 4000):  # unreduced operands past 2**1000 too
        for _ in range(200):
            r, f = unreduced(rng, bits)
            assert float.hex(float(r)) == float.hex(float(f))
    huge = 3**700
    tiny = Ratio(huge, huge * 2**1080)  # 2**-1080: subnormal, correctly rounded
    assert float(tiny) == float(F(tiny.n, tiny.d)) == 2.0**-1080
    assert float(Ratio(huge * 7, huge * 2**1076)) == float(F(7, 2**1076))
    assert float(Ratio(huge, huge * 10**400)) == 0.0


def test_float_beyond_the_range_overflows_as_fractions_does():
    g = 7**500
    r = Ratio(10**400 * g, 3 * g)
    with pytest.raises(OverflowError) as mine:
        float(r)
    with pytest.raises(OverflowError) as fractions:
        float(F(r.n, r.d))
    assert str(mine.value) == str(fractions.value)


def test_comparisons_with_floats_agree_with_fraction():
    rng = random.Random(11)
    specials = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7e308]
    for _ in range(300):
        r, f = unreduced(rng, rng.choice((8, 80)))
        x = rng.choice(specials + [float(f), float(f) * (1 + 2**-52), rng.uniform(-3, 3)])
        for op in (operator.lt, operator.le, operator.eq):
            assert op(r, x) is op(f, x), (op, f, x)
        assert (x > r) is (x > f) and (x >= r) is (x >= f)
        k = rng.randint(-3, 3)
        assert (r == k) is (f == k) and (r < k) is (f < k) and (r <= k) is (f <= k)
    assert Ratio(6, 3) == 2 and Ratio(6, 3) == Ratio(4, 2) and Ratio(6, 3) != Ratio(5, 2)


def test_reduced_gives_one_fraction_per_ratio_and_keeps_ints():
    out = reduced([Ratio(6, 4), 0, Ratio(-9, 3)])
    assert out == (F(3, 2), 0, F(-3))
    assert [type(v) for v in out] == [F, int, F]


class Sub(F):
    pass


@pytest.mark.parametrize("values", [
    (0.5, F(1, 3)), (1, F(1, 3)), (True, F(1, 3)), (Sub(1, 2), F(1, 3)), (1j, F(1, 3)),
    (F(1, 3), 2), (0.5, 0.25),
], ids=["float", "int", "bool", "subclass", "complex", "trailing-int", "floats"])
def test_only_all_fraction_values_take_the_route(values):
    got, out = _ratio_route(*values)
    assert all(map(operator.is_, got, values)) and out is tuple
    got, out = _ratio_route(F(1, 3), F(-4, 6))
    assert [(r.n, r.d) for r in got] == [(1, 3), (-2, 3)] and out is _ratio.reduced

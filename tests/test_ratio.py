"""The unreduced rational behind the exact builders: its arithmetic equals
Fraction's in value, its float has Fraction's bits, and its comparisons with
floats (NaN and +-inf included) decide as Fraction's do.  And the one rule
that sends exact input to _ratio.py changes no value, type or refusal."""

import math
import operator
import random
from fractions import Fraction as F

import pytest

from qosc import (AWParams, BandMatrix, GeneralParams, StructuredParams, _ratio, askey_wilson,
                  band_mul, band_tridiagonal, big_q_jacobi, build_general, char_poly_eval,
                  opmatrix, q_hahn, q_para_krawtchouk, representation)
from qosc._ratio import Ratio, reduced
from qosc.errors import ResonanceError
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
        k = rng.randint(-3, 3)
        for op in (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge):
            for y in (x, k):
                assert op(r, y) is op(f, y), (op, f, y)
                assert op(y, r) is op(y, f), (op, y, f)
    assert Ratio(6, 3) == 2 and Ratio(6, 3) == Ratio(4, 2) and Ratio(6, 3) != Ratio(5, 2)


def test_arithmetic_with_a_float_has_fractions_bits():
    # an int q's q**-k is a float among Ratios: each operation is Fraction's
    rng = random.Random(28)
    ops = [operator.add, operator.sub, operator.mul, operator.truediv]
    specials = [math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7e308]
    for _ in range(300):
        r, f = unreduced(rng, rng.choice((8, 80, 1100)))
        x = rng.choice(specials + [rng.uniform(-3, 3), float(f)])
        for op in ops:
            for a, b, c, d in ((r, x, f, x), (x, r, x, f)):
                try:
                    want = op(c, d)
                except (ZeroDivisionError, OverflowError) as exc:
                    with pytest.raises(type(exc)):
                        op(a, b)
                    continue
                got = op(a, b)
                assert type(got) is float and float.hex(got) == float.hex(want), (op, c, d)
    got = Ratio(1, 3) + math.nan
    assert got != got


def test_reduced_gives_one_fraction_per_ratio_and_keeps_ints_and_floats():
    out = reduced([Ratio(6, 4), 0, Ratio(-9, 3), 0.25])
    assert out == (F(3, 2), 0, F(-3), 0.25)
    assert [type(v) for v in out] == [F, int, F, float]


class Sub(F):
    pass


@pytest.mark.parametrize("values, lifted", [
    ((0.5, F(1, 3)), None), ((1, F(1, 3)), [1, (1, 3)]), ((True, F(1, 3)), None),
    ((Sub(1, 2), F(1, 3)), None), ((1j, F(1, 3)), None), ((F(1, 3), 2), [(1, 3), 2]),
    ((0.5, 0.25), None),
], ids=["float", "int", "bool", "subclass", "complex", "trailing-int", "floats"])
def test_only_exact_values_take_the_route(values, lifted):
    # exact: ints and Fractions, one a Fraction; only the Fractions are lifted
    got, out = _ratio_route(*values)
    if lifted is None:
        assert all(map(operator.is_, got, values)) and out is tuple
    else:
        assert [v if type(v) is int else (v.n, v.d) for v in got] == lifted
        assert out is _ratio.reduced
    got, out = _ratio_route(F(1, 3), F(-4, 6))
    assert [(r.n, r.d) for r in got] == [(1, 3), (-2, 3)] and out is _ratio.reduced


# -- one rule for exact input ---------------------------------------------------------
# opmatrix._exact_route decides every route: ints and Fractions, one a Fraction.
# Each call below takes the _ratio route exactly when its input is exact, and
# gives the value, type or refusal it gives with the rule patched to refuse.

KINDS = ["fraction", "mixed", "int", "float", "bool", "subclass"]


def draw(rng, kind, count):
    """A q-like value and count - 1 nonzero ones: all Fractions, ints and at
    least one Fraction (an int q half the time), all ints, or one odd value
    (a float, True, a Fraction subclass) among Fractions."""
    values = [F(rng.randint(2, 9), rng.choice((10, 11))) * rng.choice((1, -1))]
    values += [F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 40)) for _ in range(count - 1)]
    ints = [rng.choice((2, 3, -2))] + [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(count - 1)]
    if kind == "int":
        return ints
    if kind == "mixed":
        keep = rng.randrange(1, count) if count > 1 else 0
        return [i if j != keep and rng.random() < 0.5 else v
                for j, (i, v) in enumerate(zip(ints, values))]
    j = rng.randrange(count)
    odd = {"float": float(values[j]), "bool": True, "subclass": Sub(values[j])}
    values[j] = odd.get(kind, values[j])
    return values


def make_call(name, rng, kind):
    """(a call of ``name`` on seeded input of ``kind``, with no argument; whether
    that input is exact).  q_hahn's c3 = q**-(N+1) is a float for an int q, so
    such a q-Hahn call is not exact, as it is not in Fraction arithmetic."""
    n, exact = rng.randint(3, 8), kind in ("fraction", "mixed")
    if name == "band_mul":
        A, B = (BandMatrix(n, {k: draw(rng, kind, n - abs(k)) for k in rng.sample(range(-2, 3), 2)})
                for _ in range(2))
        return lambda: band_mul(A, B), exact
    if name == "char_poly_eval":
        x, *e = draw(rng, kind, 3 * n - 1)
        bands = e[:n - 1], e[n - 1:2 * n - 1], e[2 * n - 1:]
        return lambda: char_poly_eval(band_tridiagonal(*bands), x), exact
    if name == "big_q_jacobi":
        v = draw(rng, kind, 4)
        return lambda: big_q_jacobi(StructuredParams(*v), n), exact
    if name == "askey_wilson":
        v = draw(rng, kind, 5)
        return lambda: askey_wilson(AWParams(*v), n), exact
    if name == "build_general":
        v = draw(rng, kind, 5)
        return lambda: build_general(GeneralParams(*v), n), exact
    N = 2 * rng.randint(0, 3) + 1
    if name == "q_hahn":
        q, c1, c2 = draw(rng, kind, 3)
        return lambda: q_hahn(c1, c2, q, N), exact and type(q) is not int
    q, c3 = draw(rng, kind, 2)
    return lambda: q_para_krawtchouk(c3, q, N), exact


def outcome(call):
    """Each value the call returns with its type (a float by its bits), or the
    type and message of its refusal."""
    def leaves(x):
        if isinstance(x, BandMatrix):
            x = tuple(x.bands[k] for k in sorted(x.bands))
        fields = getattr(type(x), "__record_fields__", None)
        if fields is not None:
            x = tuple(getattr(x, f) for f in fields)
        if isinstance(x, (tuple, list)):
            for v in x:
                yield from leaves(v)
        else:
            yield type(x), float.hex(x) if type(x) is float else x

    try:
        return list(leaves(call()))
    except Exception as exc:  # noqa: BLE001 - a refusal is an outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["band_mul", "char_poly_eval", "big_q_jacobi", "q_hahn",
                                  "askey_wilson", "q_para_krawtchouk", "build_general"])
def test_one_rule_routes_exact_input_and_changes_nothing(name, kind, monkeypatch):
    routed = []
    for attr in ("_exact_band_mul", "_char_poly"):
        real = getattr(_ratio, attr)
        monkeypatch.setattr(_ratio, attr, lambda *a, real=real: routed.append(1) or real(*a))
    lift = Ratio.__init__  # the builders' route lifts each Fraction parameter to a Ratio
    monkeypatch.setattr(Ratio, "__init__", lambda r, n, d: routed.append(1) or lift(r, n, d))
    rng = random.Random(f"{name}/{kind}")
    calls, exact = zip(*[make_call(name, rng, kind) for _ in range(30)])
    got, took = [], []
    for call in calls:
        del routed[:]
        got.append(outcome(call))
        took.append(bool(routed))
    assert took == list(exact) and sum(took) >= (10 if kind in ("fraction", "mixed") else 0)
    assert sum(type(g) is list for g in got) >= len(calls) // 3  # most calls build
    del routed[:]
    with monkeypatch.context() as patch:
        for module in (opmatrix, representation):
            patch.setattr(module, "_exact_route", lambda x, groups: None)
        assert [outcome(call) for call in calls] == got
        assert not routed


@pytest.mark.parametrize("call", [
    lambda: big_q_jacobi(StructuredParams(F(1, 2), 4, 2, F(1, 3)), 5),
    lambda: big_q_jacobi(StructuredParams(2, F(1, 8), 1, F(1, 3)), 5),
    lambda: q_hahn(8, 1, F(1, 2), 5),
    lambda: askey_wilson(AWParams(2, F(1, 4), 1, 1, 1), 5),
    lambda: build_general(GeneralParams(2, F(16), 1, F(1, 10), F(1, 5)), 6),
    lambda: build_general(GeneralParams(F(1, 2), 1, 16, F(1, 10), 0), 6),
], ids=["big-q-jacobi", "big-q-jacobi-int-q", "q-hahn", "askey-wilson-int-q", "general-int-q",
        "general"])
def test_one_rule_keeps_refusals_on_mixed_input(call, monkeypatch):
    # ints and Fractions on a resonance line: the route refuses as Fraction arithmetic does
    routed = outcome(call)
    assert routed[0] is ResonanceError
    for module in (opmatrix, representation):
        monkeypatch.setattr(module, "_exact_route", lambda x, groups: None)
    assert outcome(call) == routed

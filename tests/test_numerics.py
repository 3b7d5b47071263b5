"""Tolerance policy, the worst value of a sequence, Laurent-polynomial ring."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qosc import (
    InvalidParameterError,
    LaurentPoly,
    TolerancePolicy,
    laurent_add,
    laurent_mul,
    laurent_scale,
    laurent_scale_arg,
)
from qosc.numerics import _worst_of

# coefficient values well above rounding level, or exactly 0
coeffs = st.floats(min_value=-8.0, max_value=8.0).filter(lambda c: c == 0.0 or abs(c) > 1e-6)
polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(min_value=-4, max_value=4), coeffs, max_size=8),
)


class TestTolerancePolicy:
    def test_effective_is_max_of_floor_and_scaled(self):
        pol = TolerancePolicy(abs_tol=1e-10, rel_tol=1e-6)
        assert pol.effective(1e3) == 1e-6 * 1e3
        assert pol.effective(0.25) == 1e-6  # scale clamps at 1
        assert pol.effective(1e-9) == 1e-6
        assert TolerancePolicy(abs_tol=1e-3, rel_tol=1e-9).effective(1.0) == 1e-3

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(InvalidParameterError):
            TolerancePolicy(abs_tol=0.0)
        with pytest.raises(InvalidParameterError):
            TolerancePolicy(rel_tol=-1e-9)


class TestWorstOf:
    def test_empty_and_nonpositive_have_no_index(self):
        assert _worst_of([]) == (0.0, None)
        assert _worst_of(iter(())) == (0.0, None)
        assert _worst_of([0.0, 0.0]) == (0.0, None)

    def test_largest_and_first_index_on_ties(self):
        assert _worst_of([1.0, 3.0, 2.0, 3.0]) == (3.0, 1)
        assert _worst_of(x for x in (0.0, 5.0, 5.0)) == (5.0, 1)

    @pytest.mark.parametrize("values, index", [
        ([1.0, math.inf, math.nan, 2.0], 2),  # a NaN after an inf still wins
        ([math.nan, math.inf, 3.0], 0),  # a NaN first stays
        ([0.5, math.nan, 9.0, math.nan], 1),  # the first of two NaNs
    ])
    def test_first_nan_is_the_worst(self, values, index):
        worst, loc = _worst_of(values)
        assert math.isnan(worst) and loc == index


class TestLaurentBasics:
    def test_monomial_scale_arg(self):
        p = LaurentPoly({2: 1.0})
        assert laurent_scale_arg(p, 0.5).coeffs == {2: 0.25}

    def test_negative_degree_scale_arg(self):
        p = LaurentPoly({-1: 1.0, 0: 1.0})
        assert laurent_scale_arg(p, 2.0).coeffs == {-1: 0.5, 0: 1.0}

    def test_scale_arg_rational_oracle(self):
        p = LaurentPoly({3: 3.0, 1: -1.0})
        got = laurent_scale_arg(p, 0.7)
        q = F(0.7)  # the exact binary value the float path multiplies by
        assert got.coeffs.get(3, 0) == pytest.approx(float(3 * q**3), rel=1e-15)
        assert got.coeffs.get(1, 0) == pytest.approx(float(-q), rel=1e-15)

    def test_scale_arg_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            laurent_scale_arg(LaurentPoly({0: 1.0}), 0.0)

    def test_difference_of_squares(self):
        p = laurent_mul(LaurentPoly({1: 1.0, 0: 1.0}), LaurentPoly({1: 1.0, 0: -1.0}))
        assert p.coeffs == {2: 1.0, 0: -1.0}

    def test_binomial_square(self):
        p = LaurentPoly({-1: 1.0, 1: 1.0})
        assert laurent_mul(p, p).coeffs == {-2: 1.0, 0: 2.0, 2: 1.0}

    def test_degree_bounds_and_mass(self):
        p = LaurentPoly({-2: 1.5, 3: -0.5})
        assert (min(p.coeffs), max(p.coeffs)) == (-2, 3)
        assert p.mass() == 2.0

    @pytest.mark.parametrize("c", [math.nan, math.inf, 1e-300])
    def test_every_nonzero_coefficient_survives(self, c):
        p = LaurentPoly({0: 1.0, 1: c})
        for got, degrees in [
            (laurent_add(p, LaurentPoly({0: -1.0})), [1]),  # 1.0 - 1.0 is dropped, c is not
            (laurent_mul(LaurentPoly({1: 1.0}), p), [1, 2]),
            (laurent_scale(1.0, p), [0, 1]),
        ]:
            assert list(got.coeffs) == degrees
            assert float.hex(got.coeffs[degrees[-1]]) == float.hex(c)

    def test_exact_zeros_are_dropped(self):
        third = LaurentPoly({0: F(1, 3), 1: F(2)})
        assert laurent_add(third, LaurentPoly({0: F(-1, 3)})).coeffs == {1: 2}
        assert laurent_scale(0.0, LaurentPoly({0: 1.0, 2: 5.0})).coeffs == {}
        zeros = LaurentPoly({0: 0.0, 1: F(0), 2: -0.0, 3: 1.5})
        assert laurent_add(zeros, LaurentPoly()).coeffs == {3: 1.5}

    def test_non_integer_degree_rejected(self):
        with pytest.raises(InvalidParameterError):
            LaurentPoly({0.5: 1.0})


class TestLaurentProperties:
    @given(p=polys, q=st.floats(min_value=0.1, max_value=4.0))
    def test_scale_arg_roundtrip(self, p, q):
        back = laurent_scale_arg(laurent_scale_arg(p, q), 1.0 / q)
        for k in set(p.coeffs) | set(back.coeffs):
            assert back.coeffs.get(k, 0) == pytest.approx(p.coeffs.get(k, 0), rel=1e-9, abs=1e-12)

    @given(p1=polys, p2=polys)
    def test_mul_commutative(self, p1, p2):
        a = laurent_mul(p1, p2)
        b = laurent_mul(p2, p1)
        for k in set(a.coeffs) | set(b.coeffs):
            assert a.coeffs.get(k, 0) == pytest.approx(b.coeffs.get(k, 0), rel=1e-9, abs=1e-12)

    @given(p1=polys, p2=polys, p3=polys)
    def test_mul_associative(self, p1, p2, p3):
        a = laurent_mul(laurent_mul(p1, p2), p3)
        b = laurent_mul(p1, laurent_mul(p2, p3))
        scale = max(1.0, p1.mass() * p2.mass() * p3.mass())
        for k in set(a.coeffs) | set(b.coeffs):
            assert abs(a.coeffs.get(k, 0) - b.coeffs.get(k, 0)) <= 1e-9 * scale

    @given(p=polys, x=st.floats(min_value=0.25, max_value=3.0))
    def test_eval_is_ring_homomorphism(self, p, x):
        def value(p):
            return sum(c * x**k for k, c in sorted(p.coeffs.items()))

        assert value(laurent_mul(p, p)) == pytest.approx(value(p) ** 2, rel=1e-9, abs=1e-9)

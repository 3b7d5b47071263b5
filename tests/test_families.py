"""Family coefficient tables, finite truncations, and spectrum certification."""

import math
import re
from fractions import Fraction as F

import mpmath
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from exact_oracles import askey_wilson_bu, big_q_jacobi_bu, q_para_krawtchouk_bu

from qosc import (
    AWParams,
    GeneralParams,
    InvalidParameterError,
    MonicRecurrence,
    ResonanceError,
    SpectrumLattice,
    SpectrumMismatchError,
    StructuredParams,
    TolerancePolicy,
    UnsupportedFamilyError,
    UnsupportedSpectrumError,
    askey_wilson,
    big_q_jacobi,
    build_general,
    char_poly_eval,
    claimed_spectrum,
    eigenvalues,
    eval_monic,
    expand_monic,
    jacobi_matrix,
    laurent_eval,
    q_hahn,
    q_para_krawtchouk,
    verify_spectrum,
)
from qosc import families


class TestMonicRecurrence:
    def test_size_and_fields(self):
        rec = MonicRecurrence((0.5, 0.25), (0.1,))
        assert rec.size == 2
        assert rec.b == (0.5, 0.25)
        assert rec.u == (0.1,)
        assert rec.family == "custom"

    def test_empty_b_rejected(self):
        with pytest.raises(InvalidParameterError):
            MonicRecurrence((), ())

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            MonicRecurrence((0.5, 0.25), (0.1, 0.2))

    def test_jacobi_matrix_layout(self):
        rec = MonicRecurrence((0.5, 0.25, 0.125), (0.1, 0.2))
        J = jacobi_matrix(rec)
        assert J.entry(1, 0) == 1 and J.entry(2, 1) == 1
        assert [J.entry(n, n) for n in range(3)] == [0.5, 0.25, 0.125]
        assert [J.entry(0, 1), J.entry(1, 2)] == [0.1, 0.2]

    def test_jacobi_matrix_size_one(self):
        J = jacobi_matrix(MonicRecurrence((0.5,), ()))
        assert J.size == 1 and J.entry(0, 0) == 0.5


class TestBigQJacobi:
    def test_c0_vanishes_so_b0_is_one_minus_d0(self):
        # Exact: q=1/2, c=(1/4,1/2,1/4) gives D_0 = 49/62, b_0 = 13/62.
        p = StructuredParams(F(1, 2), F(1, 4), F(1, 2), F(1, 4))
        rec = big_q_jacobi(p, 4)
        assert rec.b[0] == F(13, 62)

    def test_matches_exact_oracle(self):
        q, c1, c2, c3 = F(1, 2), F(1, 4), F(1, 2), F(1, 4)
        rec = big_q_jacobi(StructuredParams(q, c1, c2, c3), 11)
        b, u = big_q_jacobi_bu(q, c1, c2, c3, 11)
        assert rec.b == tuple(b)
        assert rec.u == tuple(u)

    def test_matches_exact_oracle_second_parameter_point(self):
        q, c1, c2, c3 = F(2, 3), F(1, 5), F(3, 7), F(2, 9)
        rec = big_q_jacobi(StructuredParams(q, c1, c2, c3), 9)
        b, u = big_q_jacobi_bu(q, c1, c2, c3, 9)
        assert rec.b == tuple(b)
        assert rec.u == tuple(u)

    def test_count_must_be_positive(self):
        p = StructuredParams(0.5, 0.25, 0.5, 0.25)
        with pytest.raises(InvalidParameterError):
            big_q_jacobi(p, 0)

    def test_resonant_denominator_raises(self):
        # c1*c2*q**3 = 1 kills the n=1 denominator.
        p = StructuredParams(0.5, 8.0, 1.0, 0.3)
        with pytest.raises(ResonanceError):
            big_q_jacobi(p, 3)

    @given(
        q=st.floats(min_value=0.35, max_value=0.9),
        c1=st.floats(min_value=0.05, max_value=0.6),
        c2=st.floats(min_value=0.05, max_value=0.6),
        c3=st.floats(min_value=0.05, max_value=0.6),
    )
    def test_z_lattice_orders_with_n(self, q, c1, c2, c3):
        # z_n = c1*c2*q**(n+1) + q**-n grows strictly once q**-n dominates.
        z = [c1 * c2 * q ** (n + 1) + q ** (-n) for n in range(12)]
        rec = big_q_jacobi(StructuredParams(q, c1, c2, c3), 12)
        assert rec.size == 12
        assert all(z[n + 1] > z[n] for n in range(2, 11))


class TestAskeyWilson:
    def test_b0_from_d0_alone(self):
        from qosc import askey_wilson

        q, a1, a2, a3, a4 = F(3, 5), F(9, 10), F(1, 2), F(2, 5), F(3, 10)
        rec = askey_wilson(AWParams(q, a1, a2, a3, a4), 3)
        g = a1 * a2 * a3 * a4
        D0 = (
            (1 - a1 * a2)
            * (1 - a1 * a3)
            * (1 - a1 * a4)
            * (1 - g / q)
            / (a1 * (1 - g / q) * (1 - g))
        )
        assert rec.b[0] == (a1 + 1 / a1 - D0) / 2

    def test_matches_exact_oracle(self):
        from qosc import askey_wilson

        q, a1, a2, a3, a4 = F(3, 5), F(9, 10), F(1, 2), F(2, 5), F(3, 10)
        rec = askey_wilson(AWParams(q, a1, a2, a3, a4), 11)
        b, u = askey_wilson_bu(q, a1, a2, a3, a4, 11)
        assert rec.b == tuple(b)
        assert rec.u == tuple(u)

    def test_a1_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            AWParams(0.5, 0.0, 0.5, 0.4, 0.3)


class TestQHahn:
    def test_truncation_from_vanishing_d(self):
        # At c3 = q**-(N+1) the forward rate D_N = 0, so u_{N+1} = 0 exactly.
        q, c1, c2, N = F(1, 2), F(3, 10), F(2, 5), 3
        extended = big_q_jacobi(StructuredParams(q, c1, c2, q ** (-N - 1)), N + 2)
        assert extended.u[N] == 0
        rec = q_hahn(c1, c2, q, N)
        assert rec.size == N + 1
        assert all(x != 0 for x in rec.u)

    def test_coefficients_match_big_q_jacobi(self):
        q, c1, c2, N = F(1, 2), F(3, 10), F(2, 5), 4
        rec = q_hahn(c1, c2, q, N)
        b, u = big_q_jacobi_bu(q, c1, c2, q ** (-N - 1), N + 1)
        assert rec.b == tuple(b) and rec.u == tuple(u)

    def test_spectrum_is_inverse_q_powers(self):
        rec = q_hahn(0.3, 0.4, 0.5, 3)
        ev = eigenvalues(jacobi_matrix(rec))
        assert len(ev) == 4
        for lam, want in zip(ev, [1.0, 2.0, 4.0, 8.0]):
            assert abs(lam - want) <= 1e-9 * want

    def test_trace_identity(self):
        rec = q_hahn(0.3, 0.4, 0.7, 5)
        ev = eigenvalues(jacobi_matrix(rec))
        assert abs(sum(ev) - float(sum(rec.b))) <= 1e-9 * float(sum(rec.b))

    def test_n_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            q_hahn(0.3, 0.4, 0.5, 0)


class TestQParaKrawtchouk:
    def test_even_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            q_para_krawtchouk(0.2, 0.5, 4)

    def test_zero_c3_rejected(self):
        with pytest.raises(InvalidParameterError):
            q_para_krawtchouk(0.0, 0.5, 3)

    def test_matches_exact_oracle(self):
        c3, q, N = F(1, 5), F(1, 2), 5
        rec = q_para_krawtchouk(c3, q, N)
        b, u = q_para_krawtchouk_bu(c3, q, N)
        assert rec.b == tuple(b) and rec.u == tuple(u)

    def test_bi_lattice_spectrum(self):
        rec = q_para_krawtchouk(0.2, 0.5, 3)
        ev = eigenvalues(jacobi_matrix(rec))
        want = sorted([1.0, 2.0, 0.1, 0.05])
        assert len(ev) == 4
        for lam, target in zip(ev, want):
            assert abs(lam - target) <= 1e-9 * max(1.0, target)

    @pytest.mark.parametrize(
        "N,q,c3",
        [(3, sp.Rational(1, 2), sp.Rational(1, 5)), (5, sp.Rational(2, 3), sp.Rational(3, 7))],
    )
    def test_equals_big_q_jacobi_specialization_limit(self, N, q, c3):
        """c1 = c2 = q**-(N+1)/2 specialization, read as a limit.

        Middle coefficients of the generic closed forms hit 0/0 there, so the
        comparison is lim_{t -> q**-(N+1)/2} of the generic rational function
        against the q-para-Krawtchouk closed forms, exactly in sympy.
        """
        t = sp.Symbol("t", positive=True)
        target = q ** sp.Rational(-(N + 1), 2)
        c12 = t * t

        def D(n):
            num = (1 - t * q ** (n + 1)) * (1 - c12 * q ** (n + 1)) * (1 - c3 * q ** (n + 1))
            den = (1 - c12 * q ** (2 * n + 1)) * (1 - c12 * q ** (2 * n + 2))
            return num / den

        def C(n):
            if n == 0:
                return sp.Integer(0)
            num = -t * c3 * q ** (n + 1) * (1 - q**n) * (1 - t * q**n) * (1 - c12 / c3 * q**n)
            den = (1 - c12 * q ** (2 * n + 1)) * (1 - c12 * q ** (2 * n))
            return num / den

        # Pointwise substitution is singular at the middle index: one
        # denominator factor vanishes identically.
        mid = (N + 1) // 2
        assert (1 - c12 * q ** (2 * mid)).subs(t, target) == 0

        rec = q_para_krawtchouk(F(c3.p, c3.q), F(q.p, q.q), N)
        for n in range(N + 1):
            b_big = sp.cancel(sp.together(1 - D(n) - C(n)))
            lim = sp.limit(b_big, t, target)
            assert sp.nsimplify(lim) == sp.Rational(rec.b[n].numerator, rec.b[n].denominator)
        for n in range(1, N + 1):
            u_big = sp.cancel(sp.together(D(n - 1) * C(n)))
            lim = sp.limit(u_big, t, target)
            assert sp.nsimplify(lim) == sp.Rational(rec.u[n - 1].numerator, rec.u[n - 1].denominator)


class TestFiniteFamilyParams:
    """A finite family carries the big q-Jacobi specialization it is; N = size - 1."""

    @pytest.mark.parametrize(
        "c1, c2, q, N, c3",
        [
            (0.3, 0.4, 0.5, 3, 16.0),
            (F(3, 10), F(2, 5), F(1, 2), 4, F(32)),
            (0.3, 0.4, 1.7, 2, 1.7**-3),
        ],
    )
    def test_q_hahn(self, c1, c2, q, N, c3):
        rec = q_hahn(c1, c2, q, N)
        assert rec.params == StructuredParams(q, c1, c2, c3)
        assert type(rec.params.c3) is type(c3)
        assert rec.size - 1 == N

    @pytest.mark.parametrize(
        "c3, q, N, c",
        [
            (0.2, 0.5, 5, 8.0),
            (F(1, 5), F(1, 2), 3, F(4)),
            (0.2, 1.7, 3, 1.7**-2),
        ],
    )
    def test_q_para_krawtchouk(self, c3, q, N, c):
        rec = q_para_krawtchouk(c3, q, N)
        assert rec.params == StructuredParams(q, c, c, c3)
        assert type(rec.params.c1) is type(c)
        assert rec.size - 1 == N


class TestEvalAndExpand:
    def setup_method(self):
        self.rec = big_q_jacobi(StructuredParams(F(1, 2), F(1, 4), F(1, 2), F(1, 4)), 8)

    def test_p0_p1_p2(self):
        b, u = self.rec.b, self.rec.u
        x = F(3, 7)
        assert eval_monic(self.rec, 0, x) == 1
        assert eval_monic(self.rec, 1, x) == x - b[0]
        assert eval_monic(self.rec, 2, x) == (x - b[1]) * (x - b[0]) - u[0]

    def test_degree_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            eval_monic(self.rec, -1, 0.0)
        with pytest.raises(InvalidParameterError):
            eval_monic(self.rec, self.rec.size + 1, 0.0)
        with pytest.raises(InvalidParameterError):
            expand_monic(self.rec, self.rec.size + 1)

    def test_monic_leading_behavior(self):
        # P_n(x)/x**n -> 1; at x = 1e6 the correction is O(1/x).
        x = 1.0e6
        for n in range(1, 7):
            ratio = float(eval_monic(self.rec, n, x)) / x**n
            assert abs(ratio - 1.0) <= 1e-4

    def test_expand_matches_eval(self):
        for n in range(7):
            poly = expand_monic(self.rec, n)
            for x in (F(0), F(1, 3), F(1), F(5, 2)):
                assert laurent_eval(poly, x) == eval_monic(self.rec, n, x)

    def test_expand_degree_and_leading_coefficient(self):
        poly = expand_monic(self.rec, 5)
        assert max(poly.coeffs) == 5
        assert poly.coeffs[5] == 1
        assert min(poly.coeffs) >= 0


class TestSpectrumCertification:
    def test_lattice_rejects_duplicates(self):
        with pytest.raises(InvalidParameterError):
            SpectrumLattice((1.0, 2.0, 2.0), "single-exponential")

    def test_claimed_kinds(self):
        hahn = claimed_spectrum(q_hahn(0.3, 0.4, 0.5, 3))
        para = claimed_spectrum(q_para_krawtchouk(0.2, 0.5, 3))
        assert hahn.kind == "single-exponential"
        assert para.kind == "bi-exponential"
        assert sorted(hahn.points) == [1.0, 2.0, 4.0, 8.0]
        assert sorted(para.points) == [0.05, 0.1, 1.0, 2.0]

    def test_claimed_points_keep_their_bits(self):
        hahn = claimed_spectrum(q_hahn(0.3, 0.4, 1.7, 4))
        assert [x.hex() for x in hahn.points] == [
            "0x1.0000000000000p+0", "0x1.2d2d2d2d2d2d3p-1", "0x1.6253443526171p-2",
            "0x1.a0da6e5ca5485p-3", "0x1.ea6a63b849facp-4",
        ]
        para = claimed_spectrum(q_para_krawtchouk(0.25, 0.6, 7))
        assert [x.hex() for x in para.points] == [
            "0x1.0000000000000p+0", "0x1.aaaaaaaaaaaabp+0", "0x1.638e38e38e38fp+1",
            "0x1.284bda12f684cp+2", "0x1.3333333333333p-3", "0x1.70a3d70a3d70ap-4",
            "0x1.ba5e353f7ced8p-5", "0x1.096bb98c7e282p-5",
        ]

    def test_claimed_spectrum_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            claimed_spectrum(MonicRecurrence((0.1, 0.2), (0.3,)))
        with pytest.raises(UnsupportedFamilyError):
            claimed_spectrum(big_q_jacobi(StructuredParams(0.5, 0.25, 0.5, 0.25), 4))

    def test_q_hahn_verifies_against_lattice(self):
        rec = q_hahn(0.3, 0.4, 0.7, 5)
        rep = verify_spectrum(rec, claimed_spectrum(rec))
        assert rep.passed

    def test_q_hahn_eigenvalues_cross_check(self):
        # Frozen dense-solver values for N=5, q=0.7, c1=0.3, c2=0.4.
        frozen = [
            1.0000000000000009,
            1.4285714285714282,
            2.0408163265306141,
            2.915451895043732,
            4.1649312786338948,
            5.9499018266198558,
        ]
        ev = eigenvalues(jacobi_matrix(q_hahn(0.3, 0.4, 0.7, 5)))
        assert len(ev) == len(frozen)
        for lam, ref in zip(ev, frozen):
            assert abs(lam - ref) <= 1e-8 * abs(ref)

    def test_q_para_verifies_against_bi_lattice(self):
        rec = q_para_krawtchouk(0.25, 0.6, 7)
        rep = verify_spectrum(rec, claimed_spectrum(rec), TolerancePolicy(rel_tol=1e-8))
        assert rep.passed

    def test_q_para_eigenvalues_cross_check(self):
        # Frozen dense-solver values for N=7, q=0.6, c3=0.25.
        frozen = [
            0.032399999979686171,
            0.054000000036735434,
            0.08999999998092359,
            0.15000000000265462,
            1.0,
            1.666666666666665,
            2.7777777777777812,
            4.629629629629628,
        ]
        ev = eigenvalues(jacobi_matrix(q_para_krawtchouk(0.25, 0.6, 7)))
        assert len(ev) == len(frozen)
        for lam, ref in zip(ev, frozen):
            assert abs(lam - ref) <= 1e-7 * max(abs(ref), 1e-2)

    def test_perturbed_lattice_fails(self):
        rec = q_hahn(0.3, 0.4, 0.5, 3)
        pts = list(claimed_spectrum(rec).points)
        pts[1] = pts[1] + 1e-2
        rep = verify_spectrum(rec, SpectrumLattice(pts, "single-exponential"))
        assert not rep.passed
        assert rep.max_abs > rep.tolerance
        # the evidence singles out the moved point, and only it
        assert rep.points[1] == pts[1] and rep.location == (1, 1)
        for s in (0, 2, 3):
            assert rep.rel_distance[s] <= rep.tolerance
            assert rep.charpoly_scaled[s] <= rep.tolerance
        assert rep.rel_distance[1] > rep.tolerance and rep.charpoly_scaled[1] > rep.tolerance

    @pytest.mark.parametrize(
        "rec", [q_hahn(0.3, 0.4, 0.7, 5), q_para_krawtchouk(0.25, 0.6, 7), q_hahn(0.3, 0.4, 1.6, 4)],
        ids=["q-hahn", "q-para-krawtchouk", "q-hahn-q>1"],
    )
    def test_report_carries_the_evidence(self, rec):
        lattice = claimed_spectrum(rec)
        rep = verify_spectrum(rec, lattice, TolerancePolicy(rel_tol=1e-8))
        assert rep.passed
        n = rec.size
        assert list(rep.points) == sorted(float(x) for x in lattice.points)
        assert len(rep.eigenvalues) == len(rep.rel_distance) == len(rep.charpoly_scaled) == n
        assert sorted(rep.eigenvalues) == sorted(eigenvalues(jacobi_matrix(rec)))
        for lam, x, rel in zip(rep.eigenvalues, rep.points, rep.rel_distance):
            assert rel == abs(lam - x) / abs(x) <= rep.tolerance
        assert rep.max_abs == max(rep.rel_distance + rep.charpoly_scaled)
        s = rep.location[0]
        assert rep.location == (s, s)
        assert rep.max_abs in (rep.rel_distance[s], rep.charpoly_scaled[s])
        assert rep.rows == (0, n - 1) and rep.scale == 1.0

    @pytest.mark.parametrize("c3, q, N", [(F(1, 5), F(1, 2), 9), (F(1, 5), F(1, 2), 13),
                                          (F(1, 5), F(9, 10), 13)])
    def test_exact_family_is_judged_at_its_exact_points(self, c3, q, N):
        # At the rounded points charpoly_scaled read 8.1e-8, 14.0 and 4.6e-7
        # against 1e-9 here, though the eigenvalues matched exactly.
        rec = q_para_krawtchouk(c3, q, N)
        lattice = claimed_spectrum(rec)
        rep = verify_spectrum(rec, lattice)
        assert rep.passed and rep.max_abs == 0.0
        assert rep.charpoly_scaled == (0.0,) * (N + 1) and rep.rel_distance == (0.0,) * (N + 1)
        assert rep.points == tuple(sorted(float(x) for x in lattice.points))
        assert all(type(x) is float for x in rep.points)

    @pytest.mark.parametrize("c3, q, N", [(F(1, 5), F(1, 2), 9), (F(1, 5), F(9, 10), 13)])
    @pytest.mark.parametrize("n", [0, 1, "middle"])
    def test_one_u_n_off_by_two_to_the_minus_40_fails(self, c3, q, N, n):
        rec = q_para_krawtchouk(c3, q, N)
        u = list(rec.u)
        n = N // 2 if n == "middle" else n
        u[n] *= 1 + F(1, 2**40)
        rep = verify_spectrum(MonicRecurrence(rec.b, u, rec.family, rec.params), claimed_spectrum(rec))
        assert not rep.passed
        assert max(rep.charpoly_scaled) > rep.tolerance  # the exact half fails on its own

    def test_exact_value_beyond_the_float_range(self):
        # |charpoly| near 1e360 at the top point: float() of it raises, where the
        # float recurrence overflowed to inf; the pairing then refuses, as before.
        rec = q_hahn(F(3, 10), F(2, 5), F(1, 2), 35)
        shifted = MonicRecurrence(tuple(b + 10**10 for b in rec.b), rec.u, rec.family, rec.params)
        with pytest.raises(SpectrumMismatchError, match="not injective"):
            verify_spectrum(shifted, claimed_spectrum(rec))

    @pytest.mark.parametrize("N, wide", [(30, 0), (34, 5), (38, 14)])
    def test_overflow_gives_no_nan(self, N, wide):
        # The top points' gap products pass 1.8e308 from N = 34, and |charpoly|
        # overflows with them: inf / inf read as NaN at 4 points (N = 34) and 13
        # (N = 38), and a finite |charpoly| over an overflowed product as 0.0.
        rec = q_hahn(0.3, 0.4, 0.5, N)
        J = jacobi_matrix(rec)
        rep = verify_spectrum(rec, claimed_spectrum(rec))
        pts, overflowed = rep.points, 0
        for x, v in zip(pts, rep.charpoly_scaled):
            c = abs(char_poly_eval(J, x))
            g = math.prod(abs(x - y) for y in pts if y != x)
            if c < math.inf and g < math.inf:
                assert v == c / g  # the same bits wherever neither side overflows
            else:
                overflowed += 1
            # the float recurrence and product with an unbounded exponent
            with mpmath.workprec(53):
                X, (sub, b, sup) = mpmath.mpf(x), (J.bands[k] for k in (-1, 0, 1))
                p0, p1 = mpmath.mpf(1), X - b[0]
                for bk, s, t in zip(b[1:], sub, sup):
                    p0, p1 = p1, (X - bk) * p1 - mpmath.mpf(s * t) * p0
                gap = mpmath.fprod(abs(X - y) for y in pts if y != x)
                assert v == float(abs(p1) / gap)
        assert overflowed == wide
        assert 1e-9 < rep.max_abs < 1e-4 and not rep.passed  # the open false FAIL

    def test_exact_family_stays_exact_past_the_float_range(self):
        # The float gaps overflow at N = 38; the exact charpoly is still 0.
        rec = q_hahn(F(3, 10), F(2, 5), F(1, 2), 38)
        rep = verify_spectrum(rec, claimed_spectrum(rec))
        assert rep.passed and rep.charpoly_scaled == (0.0,) * 39

    def test_underflowed_gaps_exact_family(self):
        # c3 = 1e-300: the gap products of the three small points underflow to 0.0,
        # and the exact charpoly is 0 at every claimed point
        rec = q_para_krawtchouk(F(1, 10**300), F(1, 2), 5)
        J, given = jacobi_matrix(rec), sorted(claimed_spectrum(rec).points)
        pts = tuple(float(x) for x in given)
        assert math.prod(abs(pts[0] - y) for y in pts[1:]) == 0.0
        assert [families._charpoly_scaled(rec, J, x, pts) for x in given] == [0.0] * 6
        # off the lattice, |c| (near 1e-600) over the float gaps, both far below
        # the float range, is exact to rounding
        for s in range(6):
            x = given[s] * (1 + F(1, 2**20))
            fx = float(x)
            exact = abs(char_poly_eval(J, x))
            for y in pts:
                exact /= F(abs(fx - y)) if y != fx else 1
            got = families._charpoly_scaled(rec, J, x, pts)
            assert got > 0 and abs(F(got) / exact - 1) < 1e-12

    @pytest.mark.parametrize("c3", [1e-300, 1e-200])
    def test_underflowed_gaps_float_family(self, c3):
        # the gap products underflow to 0.0 and used to divide by it; the rounded
        # family then has a certified non-real eigenvalue, the known float limit
        rec = q_para_krawtchouk(c3, 0.5, 5)
        with pytest.raises(UnsupportedSpectrumError, match="non-real eigenvalue"):
            verify_spectrum(rec, claimed_spectrum(rec))

    def test_count_mismatch_raises(self):
        rec = q_hahn(0.3, 0.4, 0.5, 3)
        short = SpectrumLattice((1.0, 2.0, 4.0), "single-exponential")
        with pytest.raises(SpectrumMismatchError):
            verify_spectrum(rec, short)


# Each builder, given x = 1 - 2r, has one denominator 1 - x (or xi0 - zeta0 for
# gamma_0) at relative distance |a - b| / (|a| + |b|) = r / (1 - r) from zero.
NEAR_RESONANT = {
    "big-q-jacobi 1-c1*c2*q": lambda x: big_q_jacobi(StructuredParams(0.5, 4 * x, 0.5, 0.3), 3),
    "askey-wilson 1-g/q": lambda x: askey_wilson(AWParams(0.5, 0.5, 0.5, 0.5, 4 * x), 3),
    "general gamma_0": lambda x: build_general(GeneralParams(0.5, 1.0, x, 0.1, 0.2), 4),
    "general y_0": lambda x: build_general(GeneralParams(0.5, 1.0, 2 * x, 0.1, 0.2), 4),
}


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 5, 9])
def test_first_resonant_denominator_is_named(k, monkeypatch):
    # Each 1 - c*q^j denominator is formed once, j increasing, so the refusal
    # names the least resonant j: 2 * count of them for big q-Jacobi (j = 1..2
    # count), and likewise for Askey-Wilson (j = -1..2 count - 2).
    calls = []
    checked = families._nonresonant

    def counted(a, b, label, index):
        calls.append(label.format(index))
        return checked(a, b, label, index)

    monkeypatch.setattr(families, "_nonresonant", counted)
    builders = [("c1*c2", lambda c: big_q_jacobi(StructuredParams(0.5, c, 1.0, 0.3), 6), 12),
                ("g", lambda c: askey_wilson(AWParams(0.5, 0.5, 0.5, 0.5, 8 * c), 6), 12)]
    for name, build, dens in builders:
        calls.clear()
        build(0.3)
        assert len(calls) == dens
        if k < 1 and name == "c1*c2":  # big q-Jacobi has no j < 1
            continue
        with pytest.raises(ResonanceError, match=rf"1-{re.escape(name)}\*q\^{k} vanishes"):
            build(0.5**-k)


def test_q_para_krawtchouk_forms_each_denominator_once(monkeypatch):
    # D(n) divides by (1 - q^(2n-N)) (1 + q^(n-half)), and C(n) by the first
    # factor and D(n-1)'s second: 2 (N + 1) denominators, each formed once in
    # D(n) order (N = 21: 44 calls).
    calls = []
    checked = families._nonresonant

    def counted(a, b, label, index):
        calls.append(label.format(index))
        return checked(a, b, label, index)

    monkeypatch.setattr(families, "_nonresonant", counted)
    q_para_krawtchouk(0.2, 0.5, 21)
    assert len(calls) == len(set(calls)) == 44
    assert calls[:4] == ["denominator 1-q^-21", "denominator 1+q^-10",
                         "denominator 1-q^-19", "denominator 1+q^-9"]
    # Near q = -1 every 1 + q^odd vanishes and no 1 - q^odd does: the first in
    # D(n) order is named, D(0)'s m = -half when half is odd, else D(1)'s.
    for N, m in [(5, -1), (7, -3), (9, -3), (11, -5)]:
        with pytest.raises(ResonanceError, match=rf"1\+q\^{m} vanishes"):
            q_para_krawtchouk(0.2, -(1 + 1e-12), N)


@pytest.mark.parametrize("build, message", [
    (lambda: build_general(GeneralParams(0.5, 1.0, 16.0, 0.1, 0.2), 6), "gamma_2 vanishes"),
    (lambda: build_general(GeneralParams(0.5, 1.0, 8.0, 0.1, 0.2), 6), "y_1 vanishes"),
    (lambda: big_q_jacobi(StructuredParams(0.5, 8.0, 1.0, 0.3), 6),
     "denominator 1-c1*c2*q^3 vanishes"),
    (lambda: askey_wilson(AWParams(0.5, 0.5, 0.5, 0.5, 32.0), 6), "denominator 1-g*q^2 vanishes"),
    (lambda: q_para_krawtchouk(0.2, 1 + 1e-12, 5), "denominator 1-q^-5 vanishes"),
    (lambda: q_para_krawtchouk(0.2, -(1 + 1e-12), 5), "denominator 1+q^-1 vanishes"),
], ids=["gamma", "y", "c1*c2", "g", "1-q", "1+q"])
def test_resonance_messages(build, message):
    # labels are formatted only for the refusal, which names the index as before
    with pytest.raises(ResonanceError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("case", sorted(NEAR_RESONANT))
def test_one_relative_resonance_rule(case):
    # families and build_general share one rule: refuse at 1e-10 relative.
    with pytest.raises(ResonanceError):
        NEAR_RESONANT[case](1 - 2 * 1e-11)
    NEAR_RESONANT[case](1 - 2 * 1e-9)

"""Structure constants and residual certification of the operator relations."""

from fractions import Fraction as F

import pytest

from qosc import (
    AWAlgebraConstants,
    StructuredParams,
    TolerancePolicy,
    TooSmallError,
    aw_algebra_residuals,
    aw_constants,
    band_add,
    band_identity,
    band_mul,
    band_scale,
    band_sub,
    big_q_jacobi,
    big_qjacobi_algebra_residuals,
    big_qjacobi_constants,
    build_B_from_A,
    build_Z,
    companion_b,
    jacobi_matrix,
    q_commutator_residual,
    r_coefficients,
)
from qosc._record import field_names

EXACT_P = StructuredParams(F(1, 2), F(1, 4), F(1, 2), F(1, 4))
FLOAT_P = StructuredParams(0.5, 0.25, 0.5, 0.25)


def bracket(X, Y, q):
    return band_sub(band_mul(X, Y), band_scale(q, band_mul(Y, X)))


class TestBigQJacobiConstants:
    def test_unit_parameter_fixture(self):
        k = big_qjacobi_constants(StructuredParams(F(1, 2), 1, 1, 1))
        assert k.gamma1 == -3
        assert k.delta1 == 4
        assert k.gamma2 == F(-3, 16)
        assert k.delta2 == 1

    def test_tied_to_companion_coefficients(self):
        # gamma2 = 1/r1 and delta2 = -r0/r1, exactly.
        k = big_qjacobi_constants(EXACT_P)
        r0, r1 = r_coefficients(EXACT_P)
        assert k.gamma2 == 1 / r1
        assert k.delta2 == -r0 / r1


class TestBigQJacobiResiduals:
    def test_all_three_relations_close(self):
        rep1, rep2, rep3 = big_qjacobi_algebra_residuals(FLOAT_P, 10)
        for rep in (rep1, rep2, rep3):
            assert rep.passed
            assert rep.rows == (0, 8)

    def test_nan_parameter_fails_every_relation(self):
        p = StructuredParams(float("nan"), 0.25, 0.5, 0.25)
        for rep in big_qjacobi_algebra_residuals(p, 6):
            assert rep.max_abs != rep.max_abs and not rep.passed

    def test_interior_rows_exact_in_rationals(self):
        size = 8
        A = jacobi_matrix(big_q_jacobi(EXACT_P, size))
        B = companion_b(A, EXACT_P)
        Z = build_Z(EXACT_P, size).matrix()
        I = band_identity(size)
        k = big_qjacobi_constants(EXACT_P)
        q = EXACT_P.q
        residuals = (
            band_sub(bracket(A, B, q), I),
            band_sub(
                bracket(B, Z, q),
                band_add(band_scale(k.gamma1, A), band_scale(k.delta1, I)),
            ),
            band_sub(
                bracket(Z, A, q),
                band_add(band_scale(k.gamma2, B), band_scale(k.delta2, I)),
            ),
        )
        # Band entry t of offset k sits in row t + max(0, -k).
        for R in residuals:
            for off, entries in R.bands.items():
                for t, v in enumerate(entries):
                    if t + max(0, -off) <= size - 2:
                        assert v == 0

    def test_size_guard(self):
        with pytest.raises(TooSmallError):
            big_qjacobi_algebra_residuals(FLOAT_P, 2)

    def test_constants_are_load_bearing(self):
        # Dropping the gamma1*A term must leave a visible residual.
        size = 10
        A = jacobi_matrix(big_q_jacobi(FLOAT_P, size))
        B = build_B_from_A(FLOAT_P, size)
        Z = build_Z(FLOAT_P, size).matrix()
        I = band_identity(size)
        k = big_qjacobi_constants(FLOAT_P)
        good = band_sub(
            bracket(B, Z, FLOAT_P.q),
            band_add(band_scale(k.gamma1, A), band_scale(k.delta1, I)),
        )
        bad = band_sub(bracket(B, Z, FLOAT_P.q), band_scale(k.delta1, I))

        def worst(R, hi):
            out = 0.0
            for off, entries in R.bands.items():
                for t, v in enumerate(entries):
                    if t + max(0, -off) <= hi:
                        out = max(out, abs(float(v)))
            return out
        assert worst(good, size - 2) <= 1e-9
        assert worst(bad, size - 2) > 1e-2


class TestAWConstants:
    def test_closed_forms_at_rational_fixture(self):
        q, c1, c2, c3 = EXACT_P.q, EXACT_P.c1, EXACT_P.c2, EXACT_P.c3
        mu = F(2, 3)
        k = aw_constants(EXACT_P, mu)
        assert isinstance(k, AWAlgebraConstants)
        assert k.sigma1 == c1 * c2 * (q**2 - 1) ** 2
        assert k.sigma2 == mu * (1 - q) * (q + 1) ** 2 / q
        assert k.omega0 == q * (1 - q) * (c3 * (c1 + 1) + c1 * (c2 + 1)) + mu / c3 * (
            c3 * (c2 + 1) + c2 * (c1 + 1)
        )

    def test_mu_zero_degenerates_to_big_q_jacobi_constants(self):
        # At mu = 0 the pencil relations collapse onto relation (iii).
        k0 = aw_constants(EXACT_P, F(0))
        kb = big_qjacobi_constants(EXACT_P)
        assert k0.sigma2 == 0
        assert k0.omega0 == kb.delta2
        assert k0.omega2 == kb.gamma2

    def test_sigma1_independent_of_mu(self):
        assert aw_constants(EXACT_P, F(1, 3)).sigma1 == aw_constants(EXACT_P, F(7, 2)).sigma1


class TestAWAlgebraResiduals:
    def test_ml_ordering_closes(self):
        rep = aw_algebra_residuals(FLOAT_P, 0.7, 12)
        assert rep.m_def.passed
        assert rep.relation1.passed
        assert rep.relation2.passed
        assert not rep.relation2_lm.passed
        assert rep.passing_variant == "ML"
        assert rep.relation1.rows == (0, 10)
        assert rep.relation2.rows == (0, 9)

    def test_relation2_is_the_ml_ordering(self):
        # relation2 is M@L - q*L@M = sigma2*Z + omega2*I, rebuilt here from its
        # definition; relation2_lm is the reversed ordering, which does not close
        q, mu, size = FLOAT_P.q, 0.7, 12
        A = jacobi_matrix(big_q_jacobi(FLOAT_P, size))
        Z, I = build_Z(FLOAT_P, size).matrix(), band_identity(size)
        k = aw_constants(FLOAT_P, mu)
        L = band_add(A, band_scale(mu, companion_b(A, FLOAT_P)))
        M = band_sub(bracket(L, Z, q), band_scale(k.omega0, I))
        rhs = band_add(band_scale(k.sigma2, Z), band_scale(k.omega2, I))
        rep = aw_algebra_residuals(FLOAT_P, mu, size)
        assert rep.relation2 == q_commutator_residual(M, L, q, rhs, rows=(0, size - 3))
        assert rep.relation2_lm == q_commutator_residual(L, M, q, rhs, rows=(0, size - 3))
        assert rep.relation2.passed and not rep.relation2_lm.passed
        assert field_names(rep) == (
            "constants", "m_def", "relation1", "relation2", "relation2_lm", "passing_variant",
        )
        with pytest.raises(TypeError):
            aw_algebra_residuals(FLOAT_P, mu, size, variant="ML")  # one ordering, no knob

    def test_size_guard(self):
        with pytest.raises(TooSmallError):
            aw_algebra_residuals(FLOAT_P, 0.7, 4)

    @pytest.mark.parametrize(
        "p,mu",
        [
            (StructuredParams(0.52, 0.2, 0.35, 0.15), 0.3),
            (StructuredParams(0.6, 0.3, 0.25, 0.2), 0.7),
            (StructuredParams(0.7, 0.15, 0.4, 0.3), 1.2),
            (StructuredParams(0.55, 0.25, 0.2, 0.35), -0.4),
        ],
    )
    def test_ml_is_the_unique_closing_ordering(self, p, mu):
        rep = aw_algebra_residuals(p, mu, 12, TolerancePolicy(rel_tol=1e-8))
        assert rep.passing_variant == "ML"
        assert rep.m_def.passed
        assert rep.relation1.passed

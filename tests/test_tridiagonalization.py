"""Z-pencil constructions, monic reduction, parameter maps, q-difference picture."""

import json
import math
import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exact_oracles import askey_wilson_bu, big_q_jacobi_bu, dense, mat_mul

from qosc import (
    AWParams,
    BandMatrix,
    InvalidParameterError,
    LaurentPoly,
    MonicRecurrence,
    NotMonicReducibleError,
    ResonanceError,
    SizeGuardError,
    StructuredParams,
    WCoeffs,
    TolerancePolicy,
    UnsupportedFamilyError,
    aw_match_residual,
    aw_parameter_map,
    askey_wilson,
    big_q_jacobi,
    build_W,
    build_Z,
    build_general,
    char_poly_eval,
    classify,
    companion_b,
    companion_params,
    eigenvalue_sequence,
    expand_monic,
    jacobi_matrix,
    laurent_add,
    laurent_mul,
    laurent_scale,
    q_commutator_residual,
    q_hahn,
    q_para_krawtchouk,
    qdiff_B_apply,
    qdiff_Z_apply,
    qdiff_residuals,
    r_coefficients,
    to_monic,
)
from qosc.tridiagonalization import _check_distinct

EXACT_P = StructuredParams(F(1, 2), F(1, 4), F(1, 2), F(1, 4))
FLOAT_P = StructuredParams(0.5, 0.25, 0.5, 0.25)


def mass(f: LaurentPoly) -> float:
    return sum(abs(float(c)) for c in f.coeffs.values())


def z_of(p: StructuredParams, n: int):
    return p.c1 * p.c2 * p.q ** (n + 1) + p.q ** (-n)


class TestZOperator:
    def test_eigenvalue_sequence_closed_form(self):
        zs = eigenvalue_sequence(EXACT_P, 6)
        assert zs == tuple(z_of(EXACT_P, n) for n in range(6))

    def test_build_Z_returns_checked_diagonal(self):
        M = build_Z(EXACT_P, 6)
        assert M == BandMatrix(6, {0: tuple(z_of(EXACT_P, n) for n in range(6))})
        assert M.entry(0, 1) == 0

    def test_coincident_eigenvalues_rejected(self):
        # c1*c2 = q**-2 makes z_0 = z_1.
        with pytest.raises(ResonanceError, match="^z_0 and z_1 coincide$"):
            build_Z(StructuredParams(0.5, 4.0, 1.0, 0.3), 4)
        with pytest.raises(SizeGuardError):  # the size guard runs before the check
            build_Z(StructuredParams(0.5, 4.0, 1.0, 0.3), 200)

    def test_distinctness_guard(self):
        with pytest.raises(ResonanceError, match="^z_0 and z_2 coincide$"):
            _check_distinct((1.0, 2.0, 1.0 + 1e-15))


def pairwise_verdict(z):
    """The all-pairs distinctness rule: the message naming the first coinciding
    (i, j), or None when every pair is apart."""
    zf = [float(v) for v in z]
    for i in range(len(zf)):
        for j in range(i + 1, len(zf)):
            if abs(zf[i] - zf[j]) <= 1e-12 * max(1.0, abs(zf[i]), abs(zf[j])):
                return f"z_{i} and z_{j} coincide"
    return None


def verdict(z):
    try:
        _check_distinct(z)
    except ResonanceError as exc:
        return str(exc)
    return None


class TestDistinctnessMatchesPairwiseRule:
    """The sorted-gap shortcut accepts only what the all-pairs rule accepts, and
    every refusal names the same first pair."""

    @pytest.mark.parametrize("gap", [0.5e-12, 1e-12, 2e-12, 3e-12])
    @pytest.mark.parametrize("x", [0.25, 1.0, 7.0, -3e5, 1e12, -1e-300])
    def test_relative_gaps_at_the_threshold(self, gap, x):
        spread = [x + 10.0 * n * max(1.0, abs(x)) for n in range(1, 6)]
        for near in (x + gap * max(1.0, abs(x)), x * (1 + gap), x - gap * max(1.0, abs(x))):
            for z in ([x, near], spread[:2] + [x] + spread[2:] + [near], [near] + spread + [x]):
                assert verdict(z) == pairwise_verdict(z), z

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nan_and_inf_entries(self, bad):
        for z in ([bad, 1.0, 2.0], [1.0, bad, 2.0, bad], [bad, bad], [1.0, 2.0, 1.0, bad],
                  [bad, 3.0, 3.0 + 1e-15, -bad]):
            assert verdict(z) == pairwise_verdict(z), z

    def test_exact_and_int_entries(self):
        for z in ([F(1, 3), F(2, 3), 1], [F(1, 3), 0.3333333333333333, 2], [0, -0.0], [5, 4, 3, 5]):
            assert verdict(z) == pairwise_verdict(z), z

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(width=64), st.sampled_from((0.0, -0.0, 1.0, 1.0 + 2e-12))),
                    max_size=12))
    def test_random_values(self, z):
        assert verdict(z) == pairwise_verdict(z)

    @pytest.mark.parametrize("size", [32, 120])
    def test_big_q_jacobi_sequences(self, size):
        z = eigenvalue_sequence(StructuredParams(0.8, 0.3, 0.4, 0.2), size)
        assert verdict(z) is None and pairwise_verdict(z) is None


class TestCompanion:
    def test_r_coefficients_closed_form(self):
        r0, r1 = r_coefficients(EXACT_P)
        assert r0 == F(44, 3)
        assert r1 == F(-256, 3)

    def test_companion_matches_dense_oracle(self):
        size = 8
        A = jacobi_matrix(big_q_jacobi(EXACT_P, size))
        B = companion_b(A, EXACT_P)
        r0, r1 = r_coefficients(EXACT_P)
        Ad = dense(A)
        Zd = [[z_of(EXACT_P, i) if i == j else F(0) for j in range(size)] for i in range(size)]
        ZA = mat_mul(Zd, Ad)
        AZ = mat_mul(Ad, Zd)
        want = [
            [
                r1 * (ZA[i][j] - EXACT_P.q * AZ[i][j]) + (r0 if i == j else 0)
                for j in range(size)
            ]
            for i in range(size)
        ]
        assert dense(B) == want

    def test_pair_satisfies_oscillator_relation(self):
        size = 9
        A = jacobi_matrix(big_q_jacobi(FLOAT_P, size))
        B = companion_b(A, FLOAT_P)
        rep = q_commutator_residual(A, B, FLOAT_P.q)
        assert rep.passed

    def test_classify_recovers_induced_parameters(self):
        size = 8
        q, c1, c2, c3 = 0.5, 0.25, 0.5, 0.25
        A = jacobi_matrix(big_q_jacobi(FLOAT_P, size))
        B = companion_b(A, FLOAT_P)
        gp, rep = classify(A, B, q)
        assert rep.passed
        xi0 = 1.0 / (c1 * c3 * q * (q - 1.0))
        assert abs(gp.xi0 - xi0) <= 1e-9 * abs(xi0)
        assert abs(gp.zeta0 - c1 * c2 * xi0) <= 1e-9 * abs(c1 * c2 * xi0)
        A2, B2, _ = build_general(gp, size)
        for M, M2 in ((A, A2), (B, B2)):
            for k, entries in M.bands.items():
                for i, v in enumerate(entries):
                    assert abs(v - M2.bands[k][i]) <= 1e-9 * max(1.0, abs(v))

    def test_companion_params_per_family(self):
        # each family carries the specialization companion_b needs
        hahn = q_hahn(F(3, 10), F(2, 5), F(1, 2), 3)
        sp = companion_params(hahn)
        assert sp is hahn.params and sp == StructuredParams(F(1, 2), F(3, 10), F(2, 5), 16)
        para = q_para_krawtchouk(F(1, 5), F(1, 2), 3)
        sp = companion_params(para)
        assert sp is para.params and sp == StructuredParams(F(1, 2), 4, 4, F(1, 5))
        big = big_q_jacobi(EXACT_P, 4)
        assert companion_params(big) is big.params == EXACT_P

    @pytest.mark.parametrize(
        "rec",
        [
            askey_wilson(AWParams(0.5, 0.9, 0.5, 0.4, 0.3), 4),
            to_monic(build_W(FLOAT_P, WCoeffs(0.1, 0.2, -0.1, 1.0), 4))[0],
            MonicRecurrence((0.1, 0.2), (0.3,), params=FLOAT_P),
        ],
        ids=["askey-wilson", "to_monic", "custom"],
    )
    def test_companion_params_refuses_other_families(self, rec):
        with pytest.raises(UnsupportedFamilyError, match=repr(rec.family)):
            companion_params(rec)

    def test_finite_families_complete_to_oscillator_pairs(self):
        # The degenerate closed forms still admit the same companion pencil.
        for rec in (q_hahn(0.3, 0.4, 0.5, 5), q_para_krawtchouk(0.2, 0.5, 5)):
            A = jacobi_matrix(rec)
            B = companion_b(A, companion_params(rec))
            rep = q_commutator_residual(A, B, 0.5)
            assert rep.passed


class TestBuildW:
    W = WCoeffs(tau0=F(1, 3), tau1=F(2, 5), tau2=F(-3, 7), tau3=F(1, 2))

    def test_band_entries_closed_form(self):
        size = 7
        rec = big_q_jacobi(EXACT_P, size)
        W = build_W(EXACT_P, self.W, size)
        t0, t1, t2, t3 = self.W.tau0, self.W.tau1, self.W.tau2, self.W.tau3
        z = [z_of(EXACT_P, n) for n in range(size)]
        for n in range(size - 1):
            assert W.entry(n + 1, n) == t1 * z[n + 1] + t2 * z[n] + t3
            assert W.entry(n, n + 1) == rec.u[n] * (t1 * z[n] + t2 * z[n + 1] + t3)
        for n in range(size):
            assert W.entry(n, n) == ((t1 + t2) * z[n] + t3) * rec.b[n] + t0

    def test_to_monic_roundtrip(self):
        size = 7
        W = build_W(EXACT_P, self.W, size)
        monic, d = to_monic(W)
        assert d[0] == 1
        for n in range(size - 1):
            assert d[n + 1] == d[n] * W.entry(n + 1, n)
        assert monic.b == tuple(W.entry(n, n) for n in range(size))
        assert monic.u == tuple(
            W.entry(n, n - 1) * W.entry(n - 1, n) for n in range(1, size)
        )

    def test_to_monic_charpoly_invariant(self):
        # Similarity preserves the characteristic polynomial.
        size = 6
        W = build_W(EXACT_P, self.W, size)
        monic, _ = to_monic(W)
        J = jacobi_matrix(monic)
        for k in range(16):
            x = F(k, 3)
            assert char_poly_eval(W, x) == char_poly_eval(J, x)

    def test_to_monic_identity_on_monic_input(self):
        rec = big_q_jacobi(EXACT_P, 6)
        monic, d = to_monic(jacobi_matrix(rec))
        assert monic.b == rec.b and monic.u == rec.u
        assert d == (1,) * 6

    def test_vanishing_subdiagonal_not_reducible(self):
        z0, z1 = z_of(EXACT_P, 0), z_of(EXACT_P, 1)
        t1, t2 = F(2, 5), F(-3, 7)
        w = WCoeffs(tau0=F(1, 3), tau1=t1, tau2=t2, tau3=-t1 * z1 - t2 * z0)
        W = build_W(EXACT_P, w, 6)
        assert W.entry(1, 0) == 0
        with pytest.raises(NotMonicReducibleError):
            to_monic(W)

    def test_non_tridiagonal_rejected(self):
        M = BandMatrix(4, {2: (1.0, 1.0), 0: (1.0,) * 4})
        with pytest.raises(InvalidParameterError):
            to_monic(M)

    def test_tiny_subdiagonal_reduces(self):
        # the similarity exists for any nonzero subdiagonal, however small
        M = BandMatrix(3, {-1: (1e-13, 2.0), 0: (1.0, 2.0, 3.0), 1: (4.0, 5.0)})
        rec, d = to_monic(M)
        assert (rec.b, rec.u, d) == ((1.0, 2.0, 3.0), (1e-13 * 4.0, 10.0), (1, 1e-13, 2e-13))

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, F(0)], ids=repr)
    def test_exact_zero_subdiagonal_refused(self, zero):
        M = BandMatrix(3, {-1: (1.0, zero), 0: (1.0, 2.0, 3.0), 1: (4.0, 5.0)})
        with pytest.raises(NotMonicReducibleError, match=r"\(2,1\) vanishes"):
            to_monic(M)


class TestAWParameterMap:
    Q = F(3, 5)
    A = (F(9, 10), F(1, 2), F(2, 5), F(3, 10))

    def test_map_closed_forms(self):
        q = self.Q
        a1, a2, a3, a4 = self.A
        sp, w = aw_parameter_map(AWParams(q, a1, a2, a3, a4))
        assert sp == StructuredParams(q, a1 * a2 / q, a3 * a4 / q, a1 * a3 / q)
        assert w.tau2 == -q * w.tau1
        assert w.tau1 == 1 / (2 * a1 * a2 * a3 * (q - 1 / q))
        assert w.tau3 == 1 / (2 * a1)
        # g = a1*a2*a3*a4 equals q**2 * c1 * c2 under the map.
        assert a1 * a2 * a3 * a4 == q**2 * sp.c1 * sp.c2

    def test_zero_a2_or_a3_rejected(self):
        with pytest.raises(InvalidParameterError):
            aw_parameter_map(AWParams(0.5, 0.9, 0.0, 0.4, 0.3))
        with pytest.raises(InvalidParameterError):
            aw_parameter_map(AWParams(0.5, 0.9, 0.5, 0.0, 0.3))

    def test_monic_W_reproduces_askey_wilson_exactly(self):
        # Exact rational check: the reduced W recurrence IS the AW recurrence.
        size = 9
        q = self.Q
        a1, a2, a3, a4 = self.A
        sp, w = aw_parameter_map(AWParams(q, a1, a2, a3, a4))
        monic, _ = to_monic(build_W(sp, w, size))
        b, u = askey_wilson_bu(q, a1, a2, a3, a4, size)
        assert monic.b == tuple(b)
        assert monic.u == tuple(u)

    def test_monic_W_matches_direct_family_floats(self):
        size = 12
        p = AWParams(0.6, 0.9, 0.5, 0.4, 0.3)
        sp, w = aw_parameter_map(p)
        monic, _ = to_monic(build_W(sp, w, size))
        direct = askey_wilson(p, size)
        for got, want in zip(monic.b, direct.b):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        for got, want in zip(monic.u, direct.u):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def shifted_pencil(p: StructuredParams, mu, lam, size: int):
    """A + mu*B + lam*I over the big q-Jacobi realization: build_W at the induced tau."""
    r0, r1 = r_coefficients(p)
    return build_W(p, WCoeffs(tau0=mu * r0 + lam, tau1=mu * r1, tau2=-p.q * mu * r1, tau3=1), size)


class TestPencil:
    def test_mu_zero_shifts_A(self):
        size = 6
        A = jacobi_matrix(big_q_jacobi(EXACT_P, size))
        C = shifted_pencil(EXACT_P, F(0), F(2, 7), size)
        for n in range(size):
            assert C.entry(n, n) == A.entry(n, n) + F(2, 7)
        for n in range(size - 1):
            assert C.entry(n + 1, n) == A.entry(n + 1, n)
            assert C.entry(n, n + 1) == A.entry(n, n + 1)

    def test_pencil_is_W_at_induced_taus(self):
        size = 8
        mu, lam = F(2, 3), F(-1, 5)
        A = jacobi_matrix(big_q_jacobi(EXACT_P, size))
        B = companion_b(A, EXACT_P)
        want = [[a + mu * b + (lam if i == j else 0) for j, (a, b) in enumerate(zip(ra, rb))]
                for i, (ra, rb) in enumerate(zip(dense(A), dense(B)))]
        assert dense(shifted_pencil(EXACT_P, mu, lam, size)) == want

    def test_pencil_band_closed_forms(self):
        size = 8
        q = EXACT_P.q
        mu, lam = F(2, 3), F(-1, 5)
        r0, r1 = r_coefficients(EXACT_P)
        rec = big_q_jacobi(EXACT_P, size)
        z = [z_of(EXACT_P, n) for n in range(size)]
        C = shifted_pencil(EXACT_P, mu, lam, size)
        for n in range(size - 1):
            assert C.entry(n + 1, n) == 1 + mu * r1 * (z[n + 1] - q * z[n])
            assert C.entry(n, n + 1) == (1 + mu * r1 * (z[n] - q * z[n + 1])) * rec.u[n]
        for n in range(size):
            assert C.entry(n, n) == mu * r0 + lam + rec.b[n] * (1 + mu * (1 - q) * r1 * z[n])

    def test_pencil_spectrum_is_askey_wilson_up_to_affine_map(self):
        # The monic pencil recurrence is an affine image of an AW recurrence.
        size = 10
        q, c1, c2, c3 = 0.5, 0.25, 0.5, 0.25
        p = StructuredParams(q, c1, c2, c3)
        mu, lam = 0.7, 0.3
        _, r1 = r_coefficients(p)
        mono, _ = to_monic(shifted_pencil(p, mu, lam, size))
        a1 = math.sqrt(mu * r1 * q**2 * c1 * c3 * (q - 1.0 / q))
        a2, a3, a4 = q * c1 / a1, q * c3 / a1, c2 * a1 / c3
        aw = askey_wilson(AWParams(q, a1, a2, a3, a4), size)
        kappa = (mono.b[1] - mono.b[0]) / (aw.b[1] - aw.b[0])
        nu = mono.b[0] - kappa * aw.b[0]
        for got, bw in zip(mono.b, aw.b):
            want = kappa * bw + nu
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        for got, uw in zip(mono.u, aw.u):
            want = kappa**2 * uw
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestQDifference:
    P = StructuredParams(0.5, 0.25, 0.5, 0.25)

    def test_constant_is_eigenfunction_at_z0(self):
        out = qdiff_Z_apply(LaurentPoly({0: 1.0}), self.P)
        z0 = self.P.c1 * self.P.c2 * self.P.q + 1.0
        assert set(out.coeffs) == {0}
        assert abs(out.coeffs[0] - z0) <= 1e-14 * abs(z0)

    def test_linear_input_spreads_to_three_terms(self):
        out = qdiff_Z_apply(LaurentPoly({1: 1.0}), self.P)
        assert min(out.coeffs) >= 0
        assert max(out.coeffs) == 1
        # x itself is not an eigenfunction: a constant term must appear.
        assert 0 in out.coeffs

    def test_companion_keeps_polynomials_polynomial(self):
        # 1/x coefficients cancel identically; nothing below degree 0 survives.
        for k in range(0, 9):
            out = qdiff_B_apply(LaurentPoly({k: 1.0}), self.P)
            assert min(out.coeffs) >= 0

    def test_companion_on_constants_exact_cancellation(self):
        q, c1, c3 = self.P.q, self.P.c1, self.P.c3
        G_m1 = 1.0 / (q - 1.0)
        out = qdiff_B_apply(LaurentPoly({0: 1.0}), self.P)
        assert -1 not in out.coeffs
        assert G_m1 + 1.0 / (1.0 - q) == 0.0

    def test_oscillator_commutator_identity(self):
        # x * (B f) - q * B(x f) = f, coefficientwise.
        q = self.P.q
        x = LaurentPoly({1: 1.0})
        for k in range(0, 11):
            f = LaurentPoly({k: 1.0})
            lhs = laurent_add(
                laurent_mul(x, qdiff_B_apply(f, self.P)),
                laurent_scale(-q, qdiff_B_apply(laurent_mul(x, f), self.P)),
            )
            resid = laurent_add(lhs, laurent_scale(-1.0, f))
            scale = max(1.0, mass(qdiff_B_apply(f, self.P)))
            assert mass(resid) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "p",
        [
            StructuredParams(0.5, 0.25, 0.5, 0.25),
            StructuredParams(0.6, 0.2, 0.3, 0.15),
            StructuredParams(0.7, 0.3, 0.4, 0.2),
        ],
    )
    def test_eigenrelation_on_family_polynomials(self, p):
        rec = big_q_jacobi(p, 9)
        for n in range(9):
            P_n = expand_monic(rec, n)
            z_n = z_of(p, n)
            resid = laurent_add(
                qdiff_Z_apply(P_n, p), laurent_scale(-z_n, P_n)
            )
            assert mass(resid) <= 1e-9 * (abs(z_n) * mass(P_n))

    def test_zero_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            qdiff_Z_apply(LaurentPoly({}), self.P)
        with pytest.raises(InvalidParameterError):
            qdiff_B_apply(LaurentPoly({}), self.P)


def golden_suite_cases():
    """The recorded CLI cases of the aw-match and qdiff suites that print JSON checks."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")
    with open(path) as fh:
        cases = json.load(fh)["cases"]
    out = []
    for case in cases:
        argv = case["argv"]
        if argv[:2] != ["verify", "--suite"] or argv[2] not in ("aw-match", "qdiff"):
            continue
        if case["exit"] in (0, 1) and "--no-json" not in argv:
            flags = dict(zip(argv[3::2], argv[4::2]))
            out.append(pytest.param(argv[2], flags, json.loads(case["stdout"])["checks"],
                                    id=case["label"]))
    return out


class TestSuiteReports:
    """aw_match_residual and qdiff_residuals are the reports the CLI prints."""

    @pytest.mark.parametrize("suite, flags, checks", golden_suite_cases())
    def test_reports_match_the_golden_cli_checks(self, suite, flags, checks):
        fl = {k.lstrip("-"): float(v) for k, v in flags.items()}
        pol = TolerancePolicy(fl.get("abs-tol", 1e-12), fl.get("rel-tol", 1e-9))
        if suite == "aw-match":
            p = AWParams(fl["q"], fl["a1"], fl["a2"], fl["a3"], fl["a4"])
            reps = [aw_match_residual(p, int(fl.get("count", 21)), pol)[0]]
        else:
            p = StructuredParams(fl["q"], fl["c1"], fl["c2"], fl["c3"])
            reps = qdiff_residuals(p, int(fl.get("kmax", 10)), int(fl.get("nmax", 8)), pol)
        assert len(reps) == len(checks)
        for rep, check in zip(reps, checks):
            assert float.hex(rep.max_abs) == float.hex(float(check["max_abs"]))
            assert float.hex(rep.tolerance) == float.hex(float(check["tolerance"]))
            assert rep.passed is check["pass"]

    def test_golden_cases_cover_both_suites(self):
        suites = [c.values[0] for c in golden_suite_cases()]
        assert suites.count("qdiff") >= 2 and suites.count("aw-match") >= 2

    def test_aw_match_returns_both_recurrences(self):
        p = AWParams(0.6, 0.9, 0.5, 0.4, 0.3)
        rep, direct, rec = aw_match_residual(p, 21)
        assert direct == askey_wilson(p, 21)
        assert rec == to_monic(build_W(*aw_parameter_map(p), 21))[0]
        assert rep.rows == (0, 20) and rep.tolerance == TolerancePolicy().rel_tol

    def test_aw_match_fails_at_count_41(self):
        # q**(-2n) * eps conditioning: the float deviation is 2.45e-8 against 1e-9
        rep, _, _ = aw_match_residual(AWParams(0.6, 0.9, 0.5, 0.4, 0.3), 41)
        assert not rep.passed and 1e-9 < rep.max_abs < 1e-7

    def test_qdiff_tolerances_and_windows(self):
        pol = TolerancePolicy(abs_tol=1e-11, rel_tol=1e-8)
        comm, eig = qdiff_residuals(FLOAT_P, 4, 3, pol)
        assert (comm.tolerance, comm.rows) == (1e-11, (0, 4))
        assert (eig.tolerance, eig.rows) == (1e-8, (0, 3))
        assert comm.passed and eig.passed

    def test_qdiff_nan_residual_fails_where_it_occurs(self):
        # c3 = 1e300 overflows Z P_1: inf - inf in its negative-degree terms is NaN
        comm, eig = qdiff_residuals(StructuredParams(0.5, 0.25, 0.5, 1e300), 10, 8)
        assert comm.passed
        assert math.isnan(eig.max_abs) and eig.location == (1, 1) and not eig.passed

    def test_qdiff_rounding_residual_is_reported(self):
        # the benchmark's seed-1 parameters: every residual coefficient counts
        p = StructuredParams(0.8165, 0.2492, 0.4876, -0.2459)
        comm, eig = qdiff_residuals(p, 10, 8, TolerancePolicy(abs_tol=1e-14))
        assert comm.max_abs == 1.2079226507921703e-13 and comm.location == (10, 10)
        assert not comm.passed and eig.passed

    def test_qdiff_negative_counts_refused(self):
        with pytest.raises(InvalidParameterError):
            qdiff_residuals(FLOAT_P, -1, 3)
        with pytest.raises(InvalidParameterError):
            qdiff_residuals(FLOAT_P, 3, -1)

"""General tridiagonal solution, classification, canonical form, decomposition."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from exact_oracles import GENERAL_RATIONAL_FIXTURES, dense, general_solution

from qosc import (
    BandMatrix,
    GeneralParams,
    InvalidNormalizationError,
    InvalidParameterError,
    NotAQOscillatorError,
    NotDecomposableError,
    ReducibleRepresentationError,
    ResonanceError,
    SizeGuardError,
    StructuredParams,
    TolerancePolicy,
    TooSmallError,
    XiResiduals,
    band_mul,
    build_general,
    canonical_pair,
    classify,
    decompose,
    jacobi_matrix,
    q_commutator_residual,
    q_hahn,
    xi_residuals,
)

SAFE = dict(q=0.7, xi0=1.0, zeta0=0.2, s1=0.1, s2=0.3)

qs = st.floats(min_value=0.35, max_value=0.9)
amps = st.floats(min_value=0.15, max_value=1.8)
srange = st.floats(min_value=-1.0, max_value=1.0)


def typed(values):
    return [(type(v), v) for v in values]


def safe_params(q, xi0, zeta0, s1, s2, size=10):
    """Reject draws whose gamma/y denominators come near resonance."""
    for n in range(size + 1):
        g = xi0 * q**-n - zeta0 * q**n
        y = xi0 * q**-n - zeta0 * q ** (n + 1)
        scale = abs(xi0) * q**-n + abs(zeta0) * q**n
        if abs(g) < 1e-3 * scale or abs(y) < 1e-3 * scale:
            return False
    return True


class TestParamValidation:
    @pytest.mark.parametrize("q", [0.0, 1.0, -1.0])
    def test_degenerate_q(self, q):
        with pytest.raises(InvalidParameterError):
            GeneralParams(q=q, xi0=1.0, zeta0=1.0, s1=0.0, s2=0.0)

    def test_zero_leading_coefficients(self):
        with pytest.raises(InvalidParameterError):
            GeneralParams(q=0.5, xi0=0.0, zeta0=1.0, s1=0.0, s2=0.0)
        with pytest.raises(InvalidParameterError):
            StructuredParams(q=0.5, c1=0.0, c2=0.5, c3=0.25)


class TestBuildGeneral:
    def test_size_floor(self):
        with pytest.raises(TooSmallError):
            build_general(GeneralParams(**SAFE), 2)

    def test_overflow_guard(self):
        with pytest.raises(SizeGuardError):
            build_general(GeneralParams(q=0.5, xi0=1.0, zeta0=0.3, s1=0.1, s2=0.1), 200)

    def test_resonance_detected(self):
        # gamma_1 = xi0/q - zeta0*q vanishes at xi0 = zeta0*q**2
        p = GeneralParams(q=0.5, xi0=0.25, zeta0=1.0, s1=0.1, s2=0.1)
        with pytest.raises(ResonanceError):
            build_general(p, 6)

    def test_reducible_truncation_detected(self):
        # bisect s2 to a zero of u_1; the builder must refuse that parameter
        q, xi0, zeta0, s1 = 0.5, 1.0, 0.3, 0.2

        def u1(s2):
            tr = build_general(GeneralParams(q=q, xi0=xi0, zeta0=zeta0, s1=s1, s2=s2), 4)[2]
            return tr.u[1]

        lo, hi = -1.6, -1.5
        flo = u1(lo)
        assert flo * u1(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            try:
                val = u1(mid)
            except ReducibleRepresentationError:
                return  # refused right at the root
            if flo * val <= 0:
                hi = mid
            else:
                lo, flo = mid, val
        pytest.fail("bisection never reached the reducible locus")

    def test_trace_matches_exact_oracle(self):
        fx = GENERAL_RATIONAL_FIXTURES[0]
        _, _, tr = build_general(GeneralParams(**fx), 8)
        want = general_solution(size=8, **fx)
        assert list(tr.b) == want["b"]
        assert list(tr.eta) == want["eta"]
        assert list(tr.u) == want["u"]
        assert tr.s0 == want["s0"]

    @pytest.mark.parametrize("seed", range(8))
    def test_fraction_parameters_match_the_oracle_in_value_and_type(self, seed):
        # All-Fraction parameters take the unreduced-ratio route; every entry of
        # A, B and the trace comes out as the reduced Fraction that Fraction
        # arithmetic gives, with u_0 the int 0 and A's unit subdiagonal ints.
        rng = random.Random(seed)
        args = [F(rng.randint(2, 9), rng.choice((10, 11, 13))) * rng.choice((1, -1)),
                *(F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 40)) for _ in range(4))]
        size = rng.randint(3, 16)
        A, B, tr = build_general(GeneralParams(*args), size)
        want = general_solution(*args, size)
        want["u"][0] = 0
        for name, values in want.items():
            got = getattr(tr, name)
            if name == "s0":
                got, values = [got], [values]
            assert typed(got) == typed(values), name
        assert typed(A.bands[-1]) == [(int, 1)] * (size - 1)
        assert typed(A.bands[0]) == typed(want["b"]) and typed(A.bands[1]) == typed(want["u"][1:])
        assert typed(B.bands[-1]) == typed(want["xi"][1:]) and typed(B.bands[0]) == typed(want["eta"])
        assert typed(B.bands[1]) == typed([z * u for z, u in zip(want["zeta"][1:], want["u"][1:])])

    @pytest.mark.parametrize("args, moved, error, message", [
        ((F(1, 2), F(1), F(16), F(1, 10), F(1, 5)), 2, ResonanceError, "gamma_2 vanishes"),
        ((F(1, 2), F(1), F(8), F(1, 10), F(1, 5)), 2, ResonanceError, "y_1 vanishes"),
        ((F(1, 2), F(-3), F(12), F(0), F(120)), 4, ReducibleRepresentationError,
         "u_1 vanishes: truncation is reducible"),
    ], ids=["gamma", "y", "u"])
    @pytest.mark.parametrize("off", [0, 1, -1])
    def test_fraction_refusals_keep_their_messages(self, args, moved, error, message, off):
        # Exactly on the line, and with one parameter 1e-11 off it in relative
        # terms: the same refusal, naming the same first index.
        args = list(args)
        args[moved] *= 1 + off * F(1, 10**11)
        with pytest.raises(error) as exc:
            build_general(GeneralParams(*args), 6)
        assert str(exc.value) == message

    def test_band_layout(self):
        p = GeneralParams(**SAFE)
        A, B, tr = build_general(p, 6)
        assert A.bands[-1] == (1,) * 5
        assert A.bands[0] == tr.b and A.bands[1] == tr.u[1:]
        assert B.bands[-1] == tr.xi[1:] and B.bands[0] == tr.eta
        assert B.bands[1] == tuple(tr.zeta[n] * tr.u[n] for n in range(1, 6))

    def test_xi_band_is_geometric_seq(self):
        fx = GENERAL_RATIONAL_FIXTURES[1]
        _, _, tr = build_general(GeneralParams(**fx), 8)
        assert list(tr.xi) == [fx["xi0"] / fx["q"] ** n for n in range(8)]
        assert list(tr.zeta) == [fx["zeta0"] * fx["q"] ** n for n in range(8)]

    @given(q=qs, xi0=amps, zeta0=amps, s1=srange, s2=srange)
    def test_commutator_and_xi_conditions(self, q, xi0, zeta0, s1, s2):
        assume(safe_params(q, xi0, zeta0, s1, s2))
        p = GeneralParams(q=q, xi0=xi0, zeta0=zeta0, s1=s1, s2=s2)
        try:
            A, B, _ = build_general(p, 10)
        except ReducibleRepresentationError:
            assume(False)
        rep = q_commutator_residual(A, B, q)
        assert rep.passed
        assert xi_residuals(A, B, q).max_abs() <= rep.tolerance


class TestClosedFormIdentities:
    """Exact-rational identities among the solution sequences."""

    @pytest.mark.parametrize("fx", GENERAL_RATIONAL_FIXTURES, ids=range(5))
    def test_inversion_roundtrip(self, fx):
        q = fx["q"]
        _, _, tr = build_general(GeneralParams(**fx), 8)
        s1 = (tr.z[0] * tr.b[0] - (q + 1) * tr.eta[0]) / q
        s2 = (tr.z[0] * tr.eta[0] - (q + 1) * fx["xi0"] * fx["zeta0"] * tr.b[0]) / q
        assert s1 == fx["s1"] and s2 == fx["s2"]

    @pytest.mark.parametrize("fx", GENERAL_RATIONAL_FIXTURES, ids=range(5))
    def test_linear_relations(self, fx):
        q = fx["q"]
        _, _, tr = build_general(GeneralParams(**fx), 8)
        for n in range(8):
            assert (q + 1) * tr.eta[n] == tr.z[n] * tr.b[n] - q * fx["s1"]
            assert (q + 1) * fx["xi0"] * fx["zeta0"] * tr.b[n] == tr.z[n] * tr.eta[n] - q * fx["s2"]

    @pytest.mark.parametrize("fx", GENERAL_RATIONAL_FIXTURES, ids=range(5))
    def test_u_telescoping(self, fx):
        # V_n = y_n y_{n-1} u_n steps by y_n + (q-1) y_n b_n eta_n
        q = fx["q"]
        _, _, tr = build_general(GeneralParams(**fx), 8)
        V = [tr.y[n] * tr.y[n - 1] * tr.u[n] if n >= 1 else 0 for n in range(8)]
        for n in range(1, 7):
            assert V[n + 1] - V[n] == tr.y[n] + (q - 1) * tr.y[n] * tr.b[n] * tr.eta[n]

    @pytest.mark.parametrize("fx", GENERAL_RATIONAL_FIXTURES, ids=range(5))
    def test_first_step_closed_form(self, fx):
        # the n = 0 structural condition reduces to y_1 u_1 = 1 - (1-q) b_0 eta_0
        q = fx["q"]
        _, _, tr = build_general(GeneralParams(**fx), 8)
        assert tr.y[1] * tr.u[1] == 1 - (1 - q) * tr.b[0] * tr.eta[0]


class TestXiResiduals:
    def test_all_vanish_on_build_general_output(self):
        A, B, _ = build_general(GeneralParams(**SAFE), 10)
        assert xi_residuals(A, B, SAFE["q"]).max_abs() < 1e-12

    def test_nan_is_the_max_wherever_it_sits(self):
        r = XiResiduals((), (0.0,), (float("nan"),), (1.0,), ())
        assert math.isnan(r.max_abs())
        A, B, _ = build_general(GeneralParams(**{**SAFE, "s1": float("nan")}), 6)
        assert math.isnan(xi_residuals(A, B, SAFE["q"]).max_abs())

    def test_perturbation_localizes(self):
        # bumping B[2,1] = xi_2 must light up exactly the conditions that read it
        p = GeneralParams(**SAFE)
        A, B, _ = build_general(p, 6)
        sub = list(B.bands[-1])
        sub[1] += 1e-3  # entry (2, 1)
        Bp = BandMatrix(6, {-1: tuple(sub), 0: B.bands[0], 1: B.bands[1]})
        r = xi_residuals(A, Bp, p.q)
        hot = {("xi1", 0), ("xi1", 1), ("xi2", 1), ("xi3", 1), ("xi3", 2)}
        for name in ("xi1", "xi2", "xi3", "xi4", "xi5"):
            for i, val in enumerate(getattr(r, name)):
                if (name, i) in hot:
                    assert abs(val) > 1e-8, (name, i)
                else:
                    assert abs(val) < 1e-10, (name, i)

    @pytest.mark.parametrize("case, error, message", [
        ("size-mismatch", InvalidParameterError, "^size mismatch$"),
        ("size-2", TooSmallError, "^band sequences need size >= 3$"),
        ("non-unit-subdiagonal", InvalidNormalizationError, "^A must have unit subdiagonal$"),
        ("u_2-zero", ReducibleRepresentationError, "^u_2 = 0: pair is not irreducible$"),
    ], ids=["size-mismatch", "size-2", "non-unit-subdiagonal", "u_2-zero"])
    def test_malformed_pairs_refused(self, case, error, message):
        A, B, _ = build_general(GeneralParams(**SAFE), 6)
        if case == "size-mismatch":
            B = build_general(GeneralParams(**SAFE), 5)[1]
        elif case == "size-2":
            A = B = BandMatrix(2, {-1: (1.0,), 0: (0.5, 0.25), 1: (0.1,)})
        elif case == "non-unit-subdiagonal":
            A = scaled_entry(A, -1, 3, 2.0)
        else:
            A = scaled_entry(A, 1, 1, 0.0)
        with pytest.raises(error, match=message):
            xi_residuals(A, B, SAFE["q"])


def scaled_entry(M, k, t, factor):
    """M with entry t of band k multiplied by ``factor``."""
    band = list(M.bands[k])
    band[t] *= factor
    return BandMatrix(M.size, {**M.bands, k: tuple(band)})


class TestClassify:
    @given(q=qs, xi0=amps, zeta0=amps, s1=srange, s2=srange)
    def test_roundtrip_recovers_params(self, q, xi0, zeta0, s1, s2):
        assume(safe_params(q, xi0, zeta0, s1, s2))
        p = GeneralParams(q=q, xi0=xi0, zeta0=zeta0, s1=s1, s2=s2)
        try:
            A, B, _ = build_general(p, 10)
        except ReducibleRepresentationError:
            assume(False)
        rec, rep = classify(A, B, q)
        assert rep.passed and rep.max_abs <= 1e-9
        assert rec.xi0 == pytest.approx(xi0, rel=1e-9)
        assert rec.zeta0 == pytest.approx(zeta0, rel=1e-9)
        assert rec.s1 == pytest.approx(s1, rel=1e-7, abs=1e-9)
        assert rec.s2 == pytest.approx(s2, rel=1e-7, abs=1e-9)

    def test_rejects_non_oscillator(self):
        A, B, _ = build_general(GeneralParams(**SAFE), 6)
        diag = list(A.bands[0])
        diag[2] += 1.0
        Ap = BandMatrix(6, {-1: A.bands[-1], 0: tuple(diag), 1: A.bands[1]})
        with pytest.raises(NotAQOscillatorError):
            classify(Ap, B, SAFE["q"])

    def test_rejects_nan_pair(self):
        A, B, _ = build_general(GeneralParams(**{**SAFE, "s1": float("nan")}), 6)
        with pytest.raises(NotAQOscillatorError):
            classify(A, B, SAFE["q"])

    @pytest.mark.parametrize("k, t, factor, size, message", [
        (-1, 2, 1 + 1e-8, 12, "^xi_3 violates the geometric law$"),
        # zeta0 is read off zeta_1, so zeta_2 is the first entry off the law
        (1, 0, 1 + 1e-7, 12, "^zeta_2 violates the geometric law$"),
        # at size 30 the commutator tolerance, relative to ||A|| ||B||, is 0.8
        (1, 0, 0.0, 30, "^first band entries xi_1, zeta_1 must be nonzero$"),
    ], ids=["xi_3-scaled", "zeta_1-scaled", "zeta_1-zero"])
    def test_rejects_a_broken_band_law_the_commutator_misses(self, k, t, factor, size, message):
        A, B, _ = build_general(GeneralParams(0.5, 1.0, -0.3, 0.4, 0.1), size)
        B = scaled_entry(B, k, t, factor)
        assert q_commutator_residual(A, B, 0.5).passed
        with pytest.raises(NotAQOscillatorError, match=message):
            classify(A, B, 0.5)

    def test_rejects_non_monic(self):
        A, B, _ = build_general(GeneralParams(**SAFE), 6)
        sub = [2.0] + [1.0] * 4
        Ap = BandMatrix(6, {-1: tuple(sub), 0: A.bands[0], 1: A.bands[1]})
        with pytest.raises((InvalidNormalizationError, NotAQOscillatorError)):
            classify(Ap, B, SAFE["q"])


class TestCanonicalPair:
    def test_instance_q_half(self):
        A, B = canonical_pair(1.0, 0.5, 4)
        assert A.bands[0] == (1.0, 2.0, 4.0, 8.0)
        assert B.bands[0] == (2.0, 1.0, 0.5, 0.25)
        assert B.bands[1] == (1, 1, 1)

    def test_commutator_within_four_ulp_all_rows(self):
        import math

        for q in (0.3, 0.5, 0.9):
            for a in (1.0, 2.0, -0.5):
                A, B = canonical_pair(a, q, 16)
                AB, BA = band_mul(A, B), band_mul(B, A)
                for i in range(16):
                    for j in range(16):
                        resid = AB.entry(i, j) - q * BA.entry(i, j) - (i == j)
                        scale = max(1.0, abs(AB.entry(i, j)), abs(q * BA.entry(i, j)))
                        assert abs(resid) <= 4 * math.ulp(scale), (q, a, i, j)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            canonical_pair(0.0, 0.5, 4)
        with pytest.raises(InvalidParameterError):
            canonical_pair(1.0, 1.0, 4)
        with pytest.raises(InvalidParameterError, match="^size must be >= 1$"):
            canonical_pair(1.0, 0.5, 0)


class TestDecompose:
    def test_two_chains_from_block_diagonal(self):
        # spectrum {1, 1/q, 5, 5/q} at q = 1/2 splits into two doubling chains
        q = 0.5
        A1, B1 = canonical_pair(1.0, q, 2)
        A5, B5 = canonical_pair(5.0, q, 2)
        A = BandMatrix(4, {0: A1.bands[0] + A5.bands[0]})
        B = BandMatrix(
            4,
            {
                0: B1.bands[0] + B5.bands[0],
                1: (B1.bands[1][0], 0.0, B5.bands[1][0]),
            },
        )
        blocks = decompose(A, B, q)
        assert [(tuple(v), s) for v, s in blocks] == [((1.0, 2.0), 2), ((5.0, 10.0), 2)]

    def test_nan_entry_refused(self):
        # two canonical blocks with NaN as B's last entry: only the last residual
        # row sees it, outside the window, but the pair scale is NaN
        q = 0.5
        (A1, B1), (A3, B3) = canonical_pair(1.0, q, 3), canonical_pair(3.0, q, 3)
        A = BandMatrix(6, {0: A1.bands[0] + A3.bands[0]})
        B = BandMatrix(6, {0: B1.bands[0] + B3.bands[0][:2] + (math.nan,),
                           1: B1.bands[1] + (0.0,) + B3.bands[1]})
        with pytest.raises(NotAQOscillatorError, match="exceeds nan"):
            decompose(A, B, q)

    @pytest.mark.parametrize("column", [0, 3])
    def test_nan_in_the_similarity_refused(self, monkeypatch, column):
        # a NaN in one eigenvector makes Bt = V^-1 B V NaN: max() would drop it
        from qosc import representation

        A, B = canonical_pair(1.0, 0.5, 4)
        lams = sorted(representation.eigenvalues(A))
        real = representation._adjugate_vectors

        def nan_vector(M, lam):
            v, y = real(M, lam)
            return ([math.nan] + list(v[1:]) if lam == lams[column] else v), y

        monkeypatch.setattr(representation, "_adjugate_vectors", nan_vector)
        with pytest.raises(NotDecomposableError, match="exceeds nan"):
            decompose(A, B, 0.5)

    def test_qhahn_is_irreducible(self):
        from qosc import companion_b, companion_params

        rec = q_hahn(0.3, 0.4, 0.5, 4)
        J = jacobi_matrix(rec)
        blocks = decompose(J, companion_b(J, companion_params(rec)), 0.5)
        assert len(blocks) == 1 and blocks[0][1] == 5

    def test_rejects_non_oscillator(self):
        A, _ = canonical_pair(1.0, 0.5, 4)
        with pytest.raises(NotAQOscillatorError):
            decompose(A, A, 0.5)

    @pytest.mark.parametrize(
        "a, q, size", [(1.0, 0.5, 6), (2.0, 0.7, 10), (-0.5, 0.3, 8), (1.5, 0.9, 12), (1.0, 2.0, 6)]
    )
    def test_canonical_pair_and_its_transpose_are_one_block(self, a, q, size):
        # canonical_pair has diagonal A; its transpose pair (B^T, A^T) also satisfies
        # AB - qBA = I and has lower-bidiagonal A with the spectrum a' q^n
        A, B = canonical_pair(a, q, size)
        [(spectrum, n)] = decompose(A, B, q)
        assert n == size and spectrum == pytest.approx(sorted(A.bands[0]), rel=1e-14)
        At, Bt = (BandMatrix(size, {-k: band for k, band in M.bands.items()}) for M in (A, B))
        [(spectrum, n)] = decompose(Bt, At, q)
        assert n == size and spectrum == pytest.approx(sorted(B.bands[0]), rel=1e-14)

    def test_eigenvectors_whose_overlap_underflows_are_refused(self):
        # The transposed canonical pair at a = 1e100: A is lower bidiagonal with
        # unit subdiagonal and eigenvalues 1e-100 apart, so each eigenvector grows
        # by about 1e100 an entry, and y . v underflows to 0.0 once both are
        # scaled to a largest entry near 1.
        A, B = canonical_pair(1e100, 0.5, 5)
        At, Bt = (BandMatrix(5, {-k: band for k, band in M.bands.items()}) for M in (A, B))
        with pytest.raises(NotDecomposableError, match="^in floats the left and right eigenvectors"
                           " are orthogonal: V is singular or too ill-conditioned to certify$"):
            decompose(Bt, At, 0.5)

    def test_verdicts_match_a_numpy_similarity(self):
        # decompose against inv(V) B V with V from numpy.linalg.eig, on the chains
        # decompose itself uses; compared only where the oracle's off-block mass is
        # not within a factor of 4 of its tolerance
        import numpy as np

        from qosc import companion_b, companion_params, q_para_krawtchouk
        from qosc.representation import _geometric_chains

        pol = TolerancePolicy(rel_tol=1e-8)
        seen = {True: 0, False: 0}
        for q in (0.5, 0.6, 0.7, 0.9):
            for N in range(3, 16, 2):
                for rec in (q_hahn(0.3, 0.4, q, N), q_para_krawtchouk(0.2, q, N)):
                    A = jacobi_matrix(rec)
                    B = companion_b(A, companion_params(rec))
                    lam, V = np.linalg.eig(np.array(dense(A), dtype=float))
                    if lam.imag.any():
                        continue
                    chains = sorted(_geometric_chains(list(lam.real), q), key=min)
                    V = V[:, [int(np.argmin(abs(lam.real - x))) for c in chains for x in c]].real
                    Bt = np.linalg.inv(V) @ np.array(dense(B), dtype=float) @ V
                    off, end = 0.0, 0
                    for c in chains:
                        start, end = end, end + len(c)
                        cols = Bt[:, start:end]
                        off = max(off, abs(cols[:start]).max(initial=0.0),
                                  abs(cols[end:]).max(initial=0.0))
                    ratio = off / pol.effective(max(1.0, abs(Bt).max()))
                    if 0.25 <= ratio <= 4.0:
                        continue
                    want = [len(c) for c in chains] if ratio < 1.0 else None
                    try:
                        got = [n for _, n in decompose(A, B, q, pol)]
                    except NotDecomposableError:
                        got = None
                    assert got == want, (rec.family, q, N)
                    seen[want is None] += 1
        assert seen[True] >= 5 and seen[False] >= 30


def _minor_cases():
    """Diagonals whose running products leave the float range: the fixed cases,
    then seeded draws with factors from 1e-300 to 1e300 in magnitude."""
    cases = [[1e-200] * 3, [1e200] * 3, [1e100, 1e300, 1e-300, 1e-300, 1e300], [-1e-150] * 9]
    rng = random.Random(20)
    for _ in range(20):
        size = rng.randint(1, 12)
        cases.append([rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** rng.randint(-300, 299)
                      for _ in range(size)])
    return cases


@pytest.mark.parametrize("d", _minor_cases(), ids=lambda d: f"{len(d)}-factors")
def test_scaled_minors_match_exact_products(d):
    # with w0 = 0 the minors are the running products of the diagonal: each
    # (m, e) pair is the exact product to within one rounding per factor
    from qosc.representation import _scaled_minors

    minors = _scaled_minors(d, [0.0] * len(d))
    exact = F(1)
    assert minors[0] == (0.5, 1)
    for k, (m, e) in enumerate(minors[1:], start=1):
        exact *= F(d[k - 1])
        assert 0.5 <= abs(m) < 1
        assert abs(F(m) * F(2) ** e / exact - 1) <= k * 2.0**-53

"""Band-matrix kernel: storage, products, residuals, eigenvalues."""

import inspect
import math
import os
import random
import re
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_oracles import dense

from qosc import (
    BandMatrix,
    GeneralParams,
    InvalidParameterError,
    NotMonicReducibleError,
    NumericFailureError,
    SizeGuardError,
    StructuredParams,
    TolerancePolicy,
    TooSmallError,
    UnsupportedSpectrumError,
    band_add,
    band_identity,
    band_mul,
    band_scale,
    band_sub,
    band_tridiagonal,
    big_q_jacobi,
    build_general,
    canonical_pair,
    char_poly_eval,
    claimed_spectrum,
    companion_b,
    eigenvalues,
    guard_size,
    inf_norm,
    jacobi_matrix,
    q_commutator_residual,
    q_hahn,
    q_para_krawtchouk,
    residual_report,
    to_monic,
    xi_residuals,
)
from qosc import _eigen, _ratio, _real_roots, opmatrix
from qosc.representation import _adjugate_vectors

entries = st.floats(min_value=-5.0, max_value=5.0)


def band_matrices(max_size=8, max_band=3):
    def build(draw):
        size = draw(st.integers(min_value=1, max_value=max_size))
        offsets = draw(
            st.lists(
                st.integers(min_value=-min(max_band, size - 1), max_value=min(max_band, size - 1)),
                unique=True,
                min_size=1,
                max_size=5,
            )
        )
        bands = {
            k: tuple(draw(entries) for _ in range(size - abs(k))) for k in offsets
        }
        return BandMatrix(size, bands)

    return st.composite(lambda draw: build(draw))()


class TestBandMatrix:
    def test_entry_and_dense(self):
        M = band_tridiagonal((1.0, 2.0), (5.0, 6.0, 7.0), (3.0, 4.0))
        assert M.entry(1, 0) == 1.0 and M.entry(2, 1) == 2.0
        assert M.entry(0, 1) == 3.0 and M.entry(0, 2) == 0.0
        assert dense(M) == [[5.0, 3.0, 0.0], [1.0, 6.0, 4.0], [0.0, 2.0, 7.0]]
        for i, j in [(3, 0), (0, -1)]:
            with pytest.raises(InvalidParameterError, match="^index out of range$"):
                M.entry(i, j)

    def test_band_length_validated(self):
        with pytest.raises(InvalidParameterError):
            BandMatrix(3, {0: (1.0, 2.0)})
        with pytest.raises(InvalidParameterError):
            BandMatrix(2, {5: (1.0,)})

    @pytest.mark.parametrize("sub, diag, sup, message", [
        ((1.0,), (1.0, 2.0, 3.0), (1.0, 1.0), "band -1 has 1 entries, expected 2"),
        ((1.0, 1.0), (1.0, 2.0, 3.0), (1.0,), "band 1 has 1 entries, expected 2"),
        ((1.0,), (2.0,), (), "band offset -1 out of range"),
    ], ids=["short-sub", "short-sup", "size-1-with-sub"])
    def test_malformed_tridiagonal_refused(self, sub, diag, sup, message):
        # band_tridiagonal leaves every length check to BandMatrix
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            band_tridiagonal(sub, diag, sup)

    def test_tridiagonal_band_order(self):
        # band_mul sums band pairs in storage order, so the order fixes the bits
        assert list(band_tridiagonal((1.0,), (2.0, 3.0), (4.0,)).bands) == [0, -1, 1]
        assert band_tridiagonal((), (2.0,), ()) == BandMatrix(1, {0: (2.0,)})

    def test_identity_and_diagonal(self):
        assert dense(band_identity(2)) == [[1, 0], [0, 1]]
        assert dense(BandMatrix(2, {0: (2.0, 3.0)})) == [[2.0, 0], [0, 3.0]]

    def test_norms(self):
        M = band_tridiagonal((1.0,), (-2.0, 0.5), (3.0,))
        assert inf_norm(M) == 5.0
        diff, _ = opmatrix._worst(band_sub(M, M))
        assert diff == 0.0

    @pytest.mark.parametrize("diag", [(1.0, math.nan), (math.nan, 1.0), (3.0, math.nan, 2.0)])
    def test_norm_of_a_nan_row_is_nan(self, diag):
        # max() keeps a NaN only when it comes first
        assert math.isnan(inf_norm(BandMatrix(len(diag), {0: diag})))
        assert inf_norm(BandMatrix(2, {0: (1.0, math.inf)})) == math.inf

    def test_add_sub_scale(self):
        A = BandMatrix(2, {0: (1.0, 2.0)})
        B = band_tridiagonal((4.0,), (0.0, 0.0), (0.0,))
        assert dense(band_add(A, B)) == [[1.0, 0.0], [4.0, 2.0]]
        assert dense(band_sub(A, A)) == [[0.0, 0.0], [0.0, 0.0]]
        assert dense(band_scale(2, A)) == [[2.0, 0.0], [0.0, 4.0]]
        with pytest.raises(InvalidParameterError):
            band_add(A, band_identity(3))


class TestBandMul:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_matches_dense_product(self, data):
        A = data.draw(band_matrices())
        B = data.draw(band_matrices(max_size=A.size))
        if B.size != A.size:
            B = BandMatrix(A.size, {0: tuple(1.0 for _ in range(A.size))})
        got = np.array(dense(band_mul(A, B)))
        want = np.array(dense(A)) @ np.array(dense(B))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_bandwidth_adds(self):
        A = band_tridiagonal((1.0, 1.0), (0.0,) * 3, (1.0, 1.0))
        M2 = band_mul(A, A)
        assert M2.entry(0, 2) == 1.0 and M2.entry(2, 0) == 1.0


# Reference loops, one Python statement per entry: the slice-and-map kernel
# must match them bit for bit, entry types included.
def loop_band_mul(A, B):
    size = A.size
    out = {}
    for ka, banda in A.bands.items():
        for kb, bandb in B.bands.items():
            k = ka + kb
            if abs(k) > size - 1:
                continue
            acc = out.setdefault(k, [0] * (size - abs(k)))
            i_lo = max(0, -ka, -ka - kb)
            i_hi = size - 1 - max(0, ka, ka + kb)
            for i in range(i_lo, i_hi + 1):
                a = banda[i + min(0, ka)]
                b = bandb[i + ka + min(0, kb)]
                acc[i + min(0, k)] += a * b
    return BandMatrix(size, {k: tuple(v) for k, v in out.items()})


def loop_band_add(A, B):
    out = {}
    for k in sorted(set(A.bands) | set(B.bands)):
        a = A.bands.get(k)
        b = B.bands.get(k)
        if a is None:
            out[k] = b
        elif b is None:
            out[k] = a
        else:
            out[k] = tuple(x + y for x, y in zip(a, b))
    return BandMatrix(A.size, out)


def loop_band_scale(c, A):
    return BandMatrix(A.size, {k: tuple(c * v for v in band) for k, band in A.bands.items()})


def loop_inf_norm(M):
    sums = [0.0] * M.size
    for k, band in M.bands.items():
        for i, v in enumerate(band, max(0, -k)):
            sums[i] += abs(float(v))
    return math.nan if any(s != s for s in sums) else max(sums)  # any NaN row sum


def exactly(x):
    """A key equal for two values only when they have the same type and the same
    value, floats compared by float.hex (so -0.0 differs from 0.0).  A NaN's sign
    bit is not compared: the interpreter's specialized float add may take it from
    the other operand than the generic add does, so the loops do not fix it."""
    if isinstance(x, float):
        return float, float.hex(x)
    if isinstance(x, BandMatrix):
        return x.size, {k: tuple(map(exactly, band)) for k, band in x.bands.items()}
    if isinstance(x, tuple):
        return tuple(map(exactly, x))
    return type(x), x


def outcome(f, *args):
    try:
        return exactly(f(*args))
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


class SubFraction(F):
    """A Fraction subclass: not one of the exact routes' types."""


SPECIALS = (math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 0, 1, -1)
mixed_scalars = st.one_of(
    st.floats(width=64),
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
    st.sampled_from(SPECIALS),
)


@st.composite
def typed_band_matrices(draw, size=None):
    """Banded matrices whose bands are all float, all int, all Fraction or mixed."""
    if size is None:
        size = draw(st.integers(min_value=1, max_value=9))
    kind = draw(st.sampled_from(("float", "int", "fraction", "mixed")))
    scalar = {
        "float": st.one_of(st.floats(width=64), st.sampled_from((math.nan, math.inf, -0.0))),
        "int": st.integers(min_value=-10**6, max_value=10**6),
        "fraction": st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
        "mixed": mixed_scalars,
    }[kind]
    offsets = draw(st.lists(st.integers(min_value=1 - size, max_value=size - 1),
                            unique=True, max_size=5))
    return BandMatrix(size, {k: tuple(draw(scalar) for _ in range(size - abs(k))) for k in offsets})


class TestKernelMatchesEntryLoops:
    """The slice-and-map kernel against the per-entry loops above, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_band_mul(self, data):
        A = data.draw(typed_band_matrices())
        B = data.draw(typed_band_matrices(A.size))
        assert outcome(band_mul, A, B) == outcome(loop_band_mul, A, B)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_band_add_and_sub(self, data):
        A = data.draw(typed_band_matrices())
        B = data.draw(typed_band_matrices(A.size))
        assert outcome(band_add, A, B) == outcome(loop_band_add, A, B)
        assert outcome(band_sub, A, B) == outcome(
            lambda X, Y: loop_band_add(X, loop_band_scale(-1, Y)), A, B)

    @settings(max_examples=60, deadline=None)
    @given(c=mixed_scalars, A=typed_band_matrices())
    def test_band_scale_mixed_scalars(self, c, A):
        assert outcome(band_scale, c, A) == outcome(loop_band_scale, c, A)

    @settings(max_examples=60, deadline=None)
    @given(M=typed_band_matrices())
    def test_inf_norm(self, M):
        assert outcome(inf_norm, M) == outcome(loop_inf_norm, M)

    def test_every_product_range_is_nonempty(self):
        # each band pair whose sum lands inside the matrix reaches at least one row
        for size in range(1, 7):
            for ka in range(1 - size, size):
                for kb in range(1 - size, size):
                    A = BandMatrix(size, {ka: (F(1),) * (size - abs(ka))})
                    B = BandMatrix(size, {kb: (F(1),) * (size - abs(kb))})
                    assert exactly(band_mul(A, B)) == exactly(loop_band_mul(A, B))
                    k = ka + kb
                    if abs(k) < size:
                        assert any(band_mul(A, B).bands[k])

    # Exact route: int and Fraction entries summed on integer pairs, one Fraction per entry.

    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize("pair", ["general", "big-q-jacobi"])
    def test_exact_route_on_family_pairs(self, pair, n, monkeypatch):
        # denominators of hundreds of bits, far past the strategies' 50
        if pair == "general":
            A, B = build_general(GeneralParams(F(10, 13), F(6, 7), -F(3, 10), F(2, 5), F(1, 9)), n)[:2]
        else:
            sp = StructuredParams(F(11, 13), F(1, 4), F(1, 3), -F(1, 5))
            A = jacobi_matrix(big_q_jacobi(sp, n))
            B = companion_b(A, sp)
        assert max(F(v).denominator.bit_length() for band in B.bands.values() for v in band) > 200
        routed = []
        exact = _ratio._exact_band_mul
        monkeypatch.setattr(_ratio, "_exact_band_mul", lambda *a: routed.append(1) or exact(*a))
        for X, Y in [(A, B), (B, A), (A, A), (B, B)]:
            assert exactly(band_mul(X, Y)) == exactly(loop_band_mul(X, Y))
        assert len(routed) == 4

    def test_exact_route_keeps_int_terms_and_unreached_entries(self):
        # A's subdiagonal is int: A @ A's band -2 has only int * int terms, and
        # A's band 1 times B's band -1 leaves the last diagonal entry unreached.
        A = BandMatrix(3, {1: (F(1, 2), F(2, 3)), -1: (1, 2)})
        B = BandMatrix(3, {-1: (F(3), 5)})
        for X, Y in [(A, A), (A, B), (B, A)]:
            assert exactly(band_mul(X, Y)) == exactly(loop_band_mul(X, Y))
        assert exactly(band_mul(A, A).bands[-2]) == ((int, 2),)
        assert exactly(band_mul(A, B).bands[0]) == ((F, F(3, 2)), (F, F(10, 3)), (int, 0))
        assert exactly(band_mul(B, A).bands[-2]) == ((int, 5),)

    @pytest.mark.parametrize("odd", [True, SubFraction(1, 3), 0.25],
                             ids=["bool", "subclass", "float"])
    @pytest.mark.parametrize("where", ["head", "inside"])
    def test_other_types_take_the_loop(self, odd, where, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact route ran")

        monkeypatch.setattr(_ratio, "_exact_band_mul", refuse)
        diag = (odd, F(1, 2), 3) if where == "head" else (F(1, 2), odd, 3)
        A = BandMatrix(3, {0: diag, 1: (F(2, 7), 1)})
        B = BandMatrix(3, {0: (F(5, 3), 2, F(1, 4)), -1: (F(1, 5), F(9, 2))})
        for X, Y in [(A, B), (B, A)]:
            assert exactly(band_mul(X, Y)) == exactly(loop_band_mul(X, Y))


# Every matrix of size <= 2 is tridiagonal, whatever bandwidths it is drawn with.
TRIDIAGONAL_SYSTEMS = [(zero_lead, lo, up, n) for zero_lead in (False, True) for lo in (0, 1, 2)
                       for up in (0, 1, 2) for n in (1, 2, 7, 21) if max(lo, up) <= 1 or n <= 2]


class TestBandLU:
    """Linear systems of the tridiagonal kernel, solved through the adjugate.

    adj(M) = det(M) M^-1, so the column v and the row y that _adjugate_vectors
    reads off adj(M - 0 I) solve M v = c e_j and y M = c e_j^T for the twist
    index j; when M is singular (c = 0) they are null vectors instead, and zero
    when 0 is not a simple eigenvalue.
    """

    @pytest.mark.parametrize("zero_lead, lo, up, n", TRIDIAGONAL_SYSTEMS)
    def test_solve_matches_numpy(self, n, lo, up, zero_lead):
        rng = np.random.default_rng(1000 * n + 100 * lo + 10 * up + zero_lead)
        bands = {k: list(rng.uniform(-1.0, 1.0, n - abs(k))) for k in range(-lo, up + 1) if abs(k) < n}
        if zero_lead:
            bands[0][0] = 0.0
            if n > 1:
                bands[0][1] = 0.0
        M = BandMatrix(n, bands)
        D = np.array(dense(M), dtype=float)
        v, y = (np.array(x) for x in _adjugate_vectors(M, 0.0))
        if zero_lead and (lo == 0 or up == 0 or n == 1):  # triangular with a zero diagonal
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(D, [1.0] * n)
            assert np.linalg.norm(D @ v) <= 1e-14 * np.linalg.norm(D) * np.linalg.norm(v)
            assert np.linalg.norm(y @ D) <= 1e-14 * np.linalg.norm(D) * np.linalg.norm(y)
            return
        # Otherwise the leading minors vanish at the first column, or the second.
        j = int(np.argmax(abs(D @ v)))
        bound = 1e-13 * np.linalg.cond(D)
        e_j = np.eye(n)[j]
        assert same_direction(v, np.linalg.solve(D, e_j), bound)
        assert same_direction(y, np.linalg.solve(D.T, e_j), bound)

    @pytest.mark.parametrize("dense", [
        [[1.0, 2.0], [2.0, 4.0]],  # rank one
        [[0.0, 1.0, 0.0], [0.0, 2.0, 3.0], [0.0, 0.0, 1.0]],  # a zero column
        # a zero determinant, no zero entry on the band
        [[2.0, 1.0, 0.0], [4.0, 2.0, 1.0], [0.0, 0.0, 3.0]],
    ])
    def test_singular_is_reported(self, dense):
        n = len(dense)
        M = BandMatrix(n, {k: tuple(dense[i][i + k] for i in range(max(0, -k), min(n, n - k)))
                           for k in (-1, 0, 1)})
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(dense), [1.0] * n)
        v, y = _adjugate_vectors(M, 0.0)
        assert max(map(abs, v)) >= 0.25 and max(map(abs, y)) >= 0.25  # rank n - 1: adj(M) != 0
        assert np.allclose(np.array(dense) @ v, 0.0, atol=1e-15)
        assert np.allclose(np.array(y) @ np.array(dense), 0.0, atol=1e-15)


class TestGuardSize:
    def test_small_ok(self):
        guardless = BandMatrix(4, {0: (1.0,) * 4})  # construction itself unguarded
        assert guardless.size == 4

    def test_overflow_guard_raises(self):
        guard_size(0.5, 20)
        with pytest.raises(InvalidParameterError, match="^size must be >= 1$"):
            guard_size(0.5, 0)
        with pytest.raises(SizeGuardError):
            guard_size(0.5, 200)
        with pytest.raises(SizeGuardError):
            guard_size(2.0, 200)

    @pytest.mark.parametrize("q, size", [(0.5, 1024), (2.0, 1100), (1e200, 5)])
    def test_spread_past_the_float_range_is_refused(self, q, size):
        # max(|q|, 1/|q|) ** size raises OverflowError here: the spread counts as inf
        with pytest.raises(SizeGuardError, match=r"spans inf > 1e\+12$"):
            guard_size(q, size)

    def test_float_message_and_zero_q(self):
        with pytest.raises(SizeGuardError, match=r"^size 200 with q = 0\.5 spans 1\.607e\+60 > 1e\+12$"):
            guard_size(0.5, 200)
        for q in (0.0, 0, F(0)):
            with pytest.raises(InvalidParameterError, match="^q must be nonzero$"):
                guard_size(q, 5)

    @pytest.mark.parametrize("q", [F(10**400), F(-(10**400), 3), 10**400, F(1, 10**400),
                                   F(-1, 10**400)],
                             ids=["huge", "huge-negative", "huge-int", "tiny", "tiny-negative"])
    @pytest.mark.parametrize("size", [1, 5])
    def test_exact_q_outside_the_float_range_is_refused(self, q, size):
        # float(q) overflows, or underflows to 0 for a q that is not 0: the spread is inf
        want = rf"^size {size} with an exact q outside the float range spans inf > 1e\+12$"
        with pytest.raises(SizeGuardError, match=want):
            guard_size(q, size)
        with pytest.raises(SizeGuardError, match=want):
            big_q_jacobi(StructuredParams(q, F(1, 4), F(1, 2), F(1, 4)), size)


class TestCharPolyAndSimilarity:
    def test_two_by_two_expansion(self):
        M = band_tridiagonal((2.0,), (1.0, 3.0), (4.0,))
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert char_poly_eval(M, x) == pytest.approx((x - 1) * (x - 3) - 8.0)

    def test_monic_in_leading_order(self):
        M = band_tridiagonal((1.0, 1.0), (0.1, 0.2, 0.3), (0.5, 0.5))
        x = 1e7
        assert char_poly_eval(M, x) == pytest.approx(x**3, rel=1e-5)


class TestTridiagonalRead:
    """Every reader of the three bands takes a band that is not stored as zeros
    and refuses a matrix that stores a wider band."""

    @pytest.mark.parametrize("diag", [(3.0, 1.0, 2.0), (F(1, 3), F(2), F(-1, 2))])
    def test_diagonal_only(self, diag):
        M = BandMatrix(len(diag), {0: diag})
        assert eigenvalues(M) == sorted(float(x) for x in diag)
        assert char_poly_eval(M, 0.5) == math.prod(0.5 - x for x in diag)
        b, w = opmatrix._exact_entries(*opmatrix._tridiagonal(M))
        assert b == [x.as_integer_ratio() for x in diag] and w == [(0, 1)] * 3
        with pytest.raises(NotMonicReducibleError, match=r"\(1,0\) vanishes"):
            to_monic(M)

    @pytest.mark.parametrize("bands, value", [({0: (2.5,)}, 2.5), ({}, 0)])
    def test_one_by_one(self, bands, value):
        M = BandMatrix(1, bands)
        assert eigenvalues(M) == [value]
        assert char_poly_eval(M, 0.5) == 0.5 - value
        b, w = opmatrix._exact_entries(*opmatrix._tridiagonal(M))
        assert (b, w) == ([value.as_integer_ratio()], [(0, 1)])
        exact = exact_char_poly(M)
        assert exact.sign(value + 1.0) == 1 and exact.sign(value - 1.0) == -1
        rec, d = to_monic(M)
        assert (rec.b, rec.u, d) == ((value,), (), (1,))

    def test_wider_band_refused_even_when_zero(self):
        M = BandMatrix(4, {-1: (1.0,) * 3, 0: (1.0, 2.0, 3.0, 4.0), 1: (0.5,) * 3, 2: (0.0, 0.0)})
        readers = [eigenvalues, lambda M: char_poly_eval(M, 0.5), to_monic,
                   lambda M: _adjugate_vectors(M, 1.0), lambda M: xi_residuals(M, M, 0.5)]
        for read in readers:
            with pytest.raises(InvalidParameterError, match="matrix is not tridiagonal"):
                read(M)


def loop_char_poly(M, x):
    """det(xI - M) by the duck-typed three-term loop: the oracle of the exact path."""
    sub, b, sup = opmatrix._tridiagonal(M)
    p0, p1 = 1, x - b[0]
    for bk, s, t in zip(b[1:], sub, sup):
        p0, p1 = p1, (x - bk) * p1 - s * t * p0
    return p1


def exact_char_poly(M):
    return _eigen._ExactCharPoly(*opmatrix._exact_entries(*opmatrix._tridiagonal(M)))


def fraction_sign(M, x):
    """The sign of det(xI - M) in Fraction arithmetic, the entries and x read
    exactly: the value the global-lcm recurrence's sign was read from."""
    sub, b, sup = (list(map(F, band)) for band in opmatrix._tridiagonal(M))
    x = F(x)
    p0, p1 = 1, x - b[0]
    for bk, s, t in zip(b[1:], sub, sup):
        p0, p1 = p1, (x - bk) * p1 - s * t * p0
    return (p1 > 0) - (p1 < 0)


def fraction_newton(M, z):
    """_ExactCharPoly.newton in Fraction arithmetic: p and p' as (re, im) pairs,
    then the same correctly rounded ratio, radius and exact disc test."""
    sub, b, sup = (list(map(F, band)) for band in opmatrix._tridiagonal(M))
    zr, zi = F(z.real), F(z.imag)

    def mul(a, c):
        return a[0] * c[0] - a[1] * c[1], a[0] * c[1] + a[1] * c[0]

    def step(t, w, a1, a0):
        ta = mul(t, a1)
        return ta[0] - w * a0[0], ta[1] - w * a0[1]

    p0, p1, d0, d1 = (F(1), F(0)), (zr - b[0], zi), (F(0), F(0)), (F(1), F(0))
    for bk, s, t in zip(b[1:], sub, sup):
        shift = (zr - bk, zi)
        d2 = step(shift, s * t, d1, d0)
        p0, p1, d0, d1 = p1, step(shift, s * t, p1, p0), d1, (d2[0] + p1[0], d2[1] + p1[1])
    n = M.size
    pp, dd = p1[0] ** 2 + p1[1] ** 2, d1[0] ** 2 + d1[1] ** 2
    if dd == 0:
        return math.inf, math.inf, False
    certified = zi * zi * dd > n * n * pp
    ratio = complex(float((p1[0] * d1[0] + p1[1] * d1[1]) / dd),
                    float((p1[1] * d1[0] - p1[0] * d1[1]) / dd))
    return ratio, n * math.sqrt(float(pp / dd)), certified


exact_ints = st.integers(min_value=-50, max_value=50)
exact_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def exact_tridiagonals(draw):
    """(M, x) with int, Fraction or mixed entries and point: a full
    tridiagonal, a diagonal-only matrix, or one with some w_n = 0, size 1..10."""
    size = draw(st.integers(min_value=1, max_value=10))
    kind = draw(st.sampled_from(("int", "fraction", "mixed")))
    scalar = {"int": exact_ints, "fraction": exact_fractions,
              "mixed": st.one_of(exact_ints, exact_fractions)}[kind]
    diag = draw(st.lists(scalar, min_size=size, max_size=size))
    shape = draw(st.sampled_from(("tridiagonal", "diagonal", "some w_n = 0")))
    if size == 1 or shape == "diagonal":
        M = BandMatrix(size, {0: diag})
    else:
        sub, sup = (draw(st.lists(scalar, min_size=size - 1, max_size=size - 1)) for _ in "ab")
        if shape == "some w_n = 0":
            for k in draw(st.sets(st.integers(min_value=0, max_value=size - 2), min_size=1)):
                (sub if k % 2 else sup)[k] = 0
        M = band_tridiagonal(sub, diag, sup)
    return M, draw(st.one_of(exact_ints, exact_fractions))


@st.composite
def sign_inputs(draw):
    """(M, x): a float, Fraction or mixed tridiagonal and a float point,
    sometimes a diagonal entry, where a diagonal-only matrix has p = 0."""
    size = draw(st.integers(min_value=1, max_value=9))
    floats = st.floats(min_value=-4.0, max_value=4.0)
    scalar = draw(st.sampled_from((floats, exact_fractions, st.one_of(floats, exact_fractions))))
    diag = draw(st.lists(scalar, min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        sub, sup = (draw(st.lists(scalar, min_size=size - 1, max_size=size - 1)) for _ in "ab")
        M = band_tridiagonal(sub, diag, sup)
    else:
        M = BandMatrix(size, {0: diag})
    x = draw(st.one_of(floats, st.sampled_from([float(v) for v in diag])))
    return M, x


class TestExactCharPoly:
    """char_poly_eval on int and Fraction input, and _ExactCharPoly, run the
    minor recurrence on plain integers; the Fraction loops above are the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(exact_tridiagonals())
    def test_matches_the_loop_in_value_and_type(self, case):
        M, x = case
        assert exactly(char_poly_eval(M, x)) == exactly(loop_char_poly(M, x))

    @pytest.mark.parametrize("x, diag, off", [
        (True, (1, 2, 3), (1, 1)),
        (2, (True, 2, 3), (1, False)),
        (F(1, 2), (SubFraction(1, 3), F(2), 3), (1, 2)),
        (SubFraction(1, 2), (F(1, 3), F(2), 3), (1, 2)),
        (0.5, (F(1, 3), F(2), 3), (1, F(2, 7))),
        (F(1, 2), (1.0, 2, 3), (1, 2)),
    ], ids=["bool-x", "bool-entries", "subclass-entry", "subclass-x", "float-x", "float-entry"])
    def test_other_types_take_the_loop(self, x, diag, off, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact path ran")

        monkeypatch.setattr(_ratio, "_char_poly", refuse)
        M = band_tridiagonal(off, diag, off)
        assert exactly(char_poly_eval(M, x)) == exactly(loop_char_poly(M, x))

    @pytest.mark.parametrize("q", [F(10, 13), F(11, 13)])
    @pytest.mark.parametrize("N", [5, 11, 21])
    @pytest.mark.parametrize("family", ["q-hahn", "q-para-krawtchouk"])
    def test_vanishes_exactly_on_the_lattice(self, family, N, q):
        if family == "q-hahn":
            rec = q_hahn(F(3, 10), F(2, 5), q, N)
        else:
            rec = q_para_krawtchouk(F(1, 5), q, N)
        J = jacobi_matrix(rec)
        values = [char_poly_eval(J, x) for x in claimed_spectrum(rec).points]
        assert len(values) == N + 1
        assert all(type(v) is F and v == 0 for v in values)

    @settings(max_examples=100, deadline=None)
    @given(sign_inputs())
    def test_sign_matches_fraction_arithmetic(self, case):
        M, x = case
        assert exact_char_poly(M).sign(x) == fraction_sign(M, x)

    @settings(max_examples=80, deadline=None)
    @given(sign_inputs(), st.floats(min_value=-4.0, max_value=4.0),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_newton_matches_fraction_arithmetic(self, case, re, im):
        M, _ = case
        z = complex(re, im)
        assert exact_char_poly(M).newton(z) == fraction_newton(M, z)


def fraction_char_poly(M, x):
    """det(xI - M) by the duck-typed loop on the entries and x read as Fractions,
    typed as char_poly_eval types it: an int when x and every entry are ints."""
    bands = opmatrix._tridiagonal(M)
    value = loop_char_poly(band_tridiagonal(*([F(v) for v in band] for band in bands)), F(x))
    ints = type(x) is int and all(type(v) is int for band in bands for v in band)
    return int(value) if ints else value


def random_exact_tridiagonal(rng, n, kind):
    """band_tridiagonal of int, Fraction or mixed entries, some of them 0."""
    def entry():
        if rng.random() < 0.1:
            return 0
        v = F(rng.randint(-60, 60), rng.randint(1, 40))
        return {"int": round(v * 7), "fraction": v, "mixed": rng.choice((v, round(v)))}[kind]

    return band_tridiagonal([entry() for _ in range(n - 1)], [entry() for _ in range(n)],
                            [entry() for _ in range(n - 1)])


class TestExactLift:
    """char_poly_eval lifts a matrix to integers once and keeps the lift on it,
    keyed on the band tuples it read; every value equals the Fraction loop."""

    def test_seeded_tridiagonals_match_the_fraction_loop(self, monkeypatch):
        lifts, scaled_steps = [], _ratio._scaled_steps
        monkeypatch.setattr(_ratio, "_scaled_steps",
                            lambda b, w: lifts.append(1) or scaled_steps(b, w))
        rng = random.Random(26)
        for n in range(1, 26):
            for kind in ("int", "fraction", "mixed"):
                M = random_exact_tridiagonal(rng, n, kind)
                points = [rng.randint(-9, 9), F(rng.randint(-90, 90), rng.randint(1, 30)),
                          *rng.sample(M.bands[0], min(n, 3))]  # a diagonal entry, the lattice of w = 0
                del lifts[:]
                for x in points:
                    assert exactly(char_poly_eval(M, x)) == exactly(fraction_char_poly(M, x))
                assert len(lifts) == 1

    @pytest.mark.parametrize("N", [3, 9, 15, 23])
    def test_finite_families_vanish_on_their_lattices_and_match_elsewhere(self, N):
        rng = random.Random(N)
        q = F(rng.randint(5, 9), 10)
        for rec in (q_hahn(F(3, 10), F(2, 5), q, N), q_para_krawtchouk(F(1, 5), q, N)):
            J = jacobi_matrix(rec)
            assert all(exactly(char_poly_eval(J, x)) == (F, 0) for x in claimed_spectrum(rec).points)
            for x in (F(rng.randint(-50, 50), rng.randint(1, 13)), rng.randint(-3, 3)):
                assert exactly(char_poly_eval(J, x)) == exactly(fraction_char_poly(J, x))

    @pytest.mark.parametrize("bands", [
        {0: (F(1, 3), F(2), F(5, 7), F(1))},
        {-1: (F(1, 3), F(-2, 9), F(4))},
        {1: (F(3, 2), F(1, 5), F(-7, 4))},
    ], ids=["diagonal", "sub", "super"])
    def test_a_band_not_stored_keeps_the_lift(self, bands, monkeypatch):
        lifts, scaled_steps = [], _ratio._scaled_steps
        monkeypatch.setattr(_ratio, "_scaled_steps",
                            lambda b, w: lifts.append(1) or scaled_steps(b, w))
        M = BandMatrix(4, bands)
        for x in (F(1, 2), 3, F(-5, 3), F(2), 0):
            assert exactly(char_poly_eval(M, x)) == exactly(fraction_char_poly(M, x))
        assert len(lifts) == 1
        M.bands[0] = (F(1),) * 4  # a band stored anew, or in place of an absent one, misses it
        assert char_poly_eval(M, F(1, 2)) == fraction_char_poly(M, F(1, 2))
        assert len(lifts) == 2

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_a_replaced_band_is_read_anew(self, k):
        rng = random.Random(k)
        M = random_exact_tridiagonal(rng, 6, "fraction")
        x = F(3, 7)
        assert char_poly_eval(M, x) == fraction_char_poly(M, x)
        M.bands[k] = tuple(v + 1 for v in M.bands[k])
        assert char_poly_eval(M, x) == fraction_char_poly(M, x)
        band = M.bands[k] = list(M.bands[k])  # a list may change in place: it is not kept
        assert char_poly_eval(M, x) == fraction_char_poly(M, x)
        band[2] += F(1, 3)
        assert char_poly_eval(M, x) == fraction_char_poly(M, x)

    def test_int_then_fraction_points_keep_their_types(self):
        M = band_tridiagonal((1, 2, 3), (4, -5, 6, 0), (7, -1, 2))
        for x in (2, -3, F(1, 2), F(6), 5, F(-7, 3)):
            got = char_poly_eval(M, x)
            assert exactly(got) == exactly(fraction_char_poly(M, x))
            assert type(got) is (int if type(x) is int else F)
        M = band_tridiagonal((1, F(2, 3)), (F(1, 2), 0, 1), (1, 1))
        for x in (0, 2, F(1, 2)):
            assert type(char_poly_eval(M, x)) is F

    def test_q_para_krawtchouk_at_n_81_vanishes_on_all_its_points(self):
        rec = q_para_krawtchouk(F(1, 5), F(9, 10), 81)
        J = jacobi_matrix(rec)
        values = [char_poly_eval(J, x) for x in claimed_spectrum(rec).points]
        assert len(values) == 82 and all(exactly(v) == (F, 0) for v in values)


class TestJudge:
    """opmatrix._judge is the one pass/fail rule of every report."""

    def test_passes_within_tolerance(self):
        rep = opmatrix._judge(1e-10, (1, 2), (0, 4), 3.0, 1e-9)
        assert rep == opmatrix.ResidualReport(1e-10, (1, 2), (0, 4), 3.0, 1e-9, True)
        assert opmatrix._judge(1e-9, None, None, 1.0, 1e-9).passed  # the bound itself passes
        assert not opmatrix._judge(2e-9, None, None, 1.0, 1e-9).passed

    @pytest.mark.parametrize("worst, scale, tol", [
        (math.nan, 1.0, 1e-9),  # a NaN residual
        (0.0, 1.0, math.inf),  # an infinite tolerance
        (math.inf, math.inf, math.inf),  # inf <= inf holds, yet the scale overflowed
        (0.0, math.nan, 1e-9),  # a NaN scale
        (0.0, math.inf, 1e-9),
        (0.0, 1.0, math.nan),
    ])
    def test_anything_not_finite_fails(self, worst, scale, tol):
        rep = opmatrix._judge(worst, None, (0, 2), scale, tol)
        assert rep.passed is False

    def test_numbers_become_floats(self):
        rep = opmatrix._judge(1, None, None, F(3, 2), 1)
        assert [type(v) for v in (rep.max_abs, rep.scale, rep.tolerance)] == [float] * 3
        assert (rep.max_abs, rep.scale, rep.tolerance, rep.passed) == (1.0, 1.5, 1.0, True)

    def test_no_other_code_builds_a_report(self):
        # every ResidualReport, and so every verdict, comes out of _judge
        src = os.path.dirname(opmatrix.__file__)
        calls = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as fh:
                    text = fh.read()
                calls += [name] * text.count("ResidualReport(")
        assert calls == ["opmatrix.py"]
        assert "ResidualReport(" in inspect.getsource(opmatrix._judge)


class TestQCommutatorResidual:
    def test_canonical_pair_exact(self):
        A, B = canonical_pair(1.0, 0.5, 6)
        rep = q_commutator_residual(A, B, 0.5, rows=(0, 5))
        assert rep.max_abs == 0.0 and rep.passed

    def test_size_guard(self):
        A, B = canonical_pair(1.0, 0.5, 2)
        with pytest.raises(TooSmallError):
            q_commutator_residual(A, B, 0.5)

    def test_default_rows_are_interior(self):
        A, B = canonical_pair(1.0, 0.5, 5)
        rep = q_commutator_residual(A, B, 0.5)
        assert rep.rows == (0, 3)

    def test_nan_entry_is_the_worst(self):
        # a NaN must not be skipped by the comparison, whatever follows it
        M = BandMatrix(3, {0: (1.0, math.nan, 7.0), 1: (9.0, 2.0)})
        worst, loc = opmatrix._worst(band_sub(M, BandMatrix(3)))
        assert math.isnan(worst) and loc == (1, 1)

    def test_nan_residual_fails(self):
        A, B = canonical_pair(2.0, 0.5, 5)
        rep = q_commutator_residual(A, B, math.nan)
        assert math.isnan(rep.max_abs) and not rep.passed

    def test_overflowed_scale_fails(self):
        # ||A|| ||B|| = 1e400 overflows: tolerance inf, and inf <= inf must not pass
        A = BandMatrix(4, {0: (1e200,) * 4})
        rep = q_commutator_residual(A, A, -0.5)
        assert rep.scale == rep.tolerance == rep.max_abs == math.inf and not rep.passed

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale_fails_a_zero_residual(self, scale):
        # max(1, NaN) is 1, so a NaN scale leaves the tolerance finite: the scale is checked too
        rep = residual_report(BandMatrix(3), TolerancePolicy(), (0, 2), scale)
        assert rep.max_abs == 0.0 and not rep.passed
        assert residual_report(BandMatrix(3), TolerancePolicy(), (0, 2), 1e300).passed

    @pytest.mark.parametrize("rows", [(-1, 1), (2, 1), (0, 3)])
    def test_row_window_out_of_range(self, rows):
        with pytest.raises(InvalidParameterError, match="^row window out of range$"):
            residual_report(BandMatrix(3), TolerancePolicy(), rows, 1.0)

    @pytest.mark.parametrize("size", [3, 5])
    def test_nan_outside_the_row_window_fails(self, size):
        # B's last diagonal entry touches only the last residual row, which the
        # window leaves out; the NaN pair scale still fails the check
        A, B = canonical_pair(1.0, 0.5, size)
        B = BandMatrix(size, {**B.bands, 0: B.bands[0][:-1] + (math.nan,)})
        rep = q_commutator_residual(A, B, 0.5)
        assert rep.max_abs == 0.0 and math.isnan(rep.scale) and not rep.passed

    def test_custom_rhs(self):
        A, B = canonical_pair(2.0, 0.5, 4)
        rhs = band_scale(1.0, band_identity(4))
        rep = q_commutator_residual(A, B, 0.5, rhs=rhs, rows=(0, 3))
        assert rep.passed

    def test_conjugation_covariance(self):
        # R(D^-1 A D, D^-1 B D) equals D^-1 R(A, B) D entrywise
        A, B = canonical_pair(1.5, 0.6, 5)
        q, d = 0.6, (1.0, 2.0, 0.5, 3.0, 1.25)

        def diag_similarity(M, d):  # diag(d)^-1 M diag(d)
            return BandMatrix(M.size, {k: [v * d[i + k] / d[i] for i, v in enumerate(e, max(0, -k))]
                                       for k, e in M.bands.items()})

        Ad, Bd = diag_similarity(A, d), diag_similarity(B, d)
        R = band_sub(band_sub(band_mul(A, B), band_scale(q, band_mul(B, A))), band_identity(5))
        Rd = band_sub(
            band_sub(band_mul(Ad, Bd), band_scale(q, band_mul(Bd, Ad))), band_identity(5)
        )
        want = diag_similarity(R, d)
        for i in range(5):
            for j in range(5):
                assert Rd.entry(i, j) == pytest.approx(want.entry(i, j), abs=1e-13)


class TestEigenvalues:
    def test_qhahn_exponential_lattice(self):
        J = jacobi_matrix(q_hahn(0.3, 0.4, 0.5, 3))
        assert list(eigenvalues(J)) == pytest.approx([1.0, 2.0, 4.0, 8.0], rel=1e-10)

    def test_single_entry(self):
        assert eigenvalues(BandMatrix(1, {0: (3.5,)})) == [3.5]

    def test_char_poly_vanishes_at_roots(self):
        pol = TolerancePolicy()
        J = jacobi_matrix(q_hahn(0.25, 0.7, 0.7, 5))
        claimed = sorted(0.7**-s for s in range(6))
        gaps = [
            math.prod(abs(x - y) for y in claimed if y != x) for x in claimed
        ]
        for ev, g in zip(eigenvalues(J), gaps):
            assert abs(char_poly_eval(J, ev)) <= pol.effective(g)

    def test_matches_numpy_on_random_symmetrizable(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            b = rng.uniform(-2, 2, size=6)
            u = rng.uniform(0.05, 1.0, size=5)  # positive u: real simple spectrum
            M = band_tridiagonal(tuple(np.ones(5)), tuple(b), tuple(u))
            want = np.sort(np.linalg.eigvals(np.array(dense(M))).real)
            got = np.array(eigenvalues(M))
            assert np.allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_huge_w_far_above_the_diagonal(self):
        # w_0 ~ 1e120 with eigenvalues near 1e60: a hull of radius 1 + |w_0|
        # left brackets 60 decades too wide for bisection and polish to cross.
        assert eigenvalues(band_tridiagonal((1e60,), (0.0, 0.0), (1e60,))) == [-1e60, 1e60]
        s, d = 2.2144819815501077e59, -9.138206986912898e59
        big = (d - math.sqrt(d * d + 4 * s * s)) / 2
        got = eigenvalues(band_tridiagonal((s,), (0.0, d), (s,)))
        assert got == pytest.approx([big, -s * s / big], rel=1e-14)

    def test_entries_without_an_integer_ratio_are_read_at_their_float_value(self):
        # mpmath.mpf and sympy.Rational have no as_integer_ratio: each entry is
        # float(v), so the result is the float matrix's, bit for bit
        import sympy

        diag = (2, 3, 5, 7)
        want = eigenvalues(band_tridiagonal((1.0,) * 3, tuple(map(float, diag)), (1.0,) * 3))
        got = eigenvalues(band_tridiagonal((1,) * 3, tuple(map(mpmath.mpf, diag)), (1,) * 3))
        assert [x.hex() for x in got] == [x.hex() for x in want]
        # some w_n < 0 (the Aberth path), thirds that floats round
        sub, sup = (1, 1, 1), (-1, 2, 1)
        want = eigenvalues(band_tridiagonal(sub, tuple(d / 3 for d in (1, 31, 61, 91)), sup))
        thirds = tuple(sympy.Rational(d, 3) for d in (1, 31, 61, 91))
        got = eigenvalues(band_tridiagonal(sub, thirds, sup))
        assert [x.hex() for x in got] == [x.hex() for x in want]
        # numpy ints have no as_integer_ratio either, and are numbers.Real
        got = eigenvalues(band_tridiagonal(sub, tuple(map(np.int64, (1, 31, 61, 91))), sup))
        assert got == eigenvalues(band_tridiagonal(sub, (1.0, 31.0, 61.0, 91.0), sup))

    def test_complex_pair_unsupported(self):
        M = band_tridiagonal((1.0,), (0.0, 0.0), (-1.0,))  # eigenvalues +/- i
        with pytest.raises(UnsupportedSpectrumError) as err:
            eigenvalues(M)
        z, r = certified_disc(err.value)
        assert abs(abs(z.imag) - 1.0) <= 1e-12
        assert newton_radius(M, z) <= 1.001 * r < abs(z.imag)


def certified_disc(exc):
    """(centre, radius) of the disc named by an UnsupportedSpectrumError; the
    radius is printed to 4 digits."""
    m = re.search(r"radius (\S+) about (\S+)j", str(exc))
    assert m, str(exc)
    return complex(m.group(2) + "j"), float(m.group(1))


def newton_radius(M, z):
    """n |p(z) / p'(z)| for p = det(zI - M), evaluated in 50-digit mpmath."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z.real, z.imag)
        b = [mpmath.mpf(M.entry(i, i)) for i in range(M.size)]
        w = [mpmath.mpf(M.entry(i + 1, i)) * mpmath.mpf(M.entry(i, i + 1)) for i in range(M.size - 1)]
        p0, p1, d0, d1 = 1, z - b[0], 0, 1
        for k in range(1, M.size):
            p0, p1, d0, d1 = (p1, (z - b[k]) * p1 - w[k - 1] * p0,
                              d1, p1 + (z - b[k]) * d1 - w[k - 1] * d0)
        return float(M.size * abs(p1 / d1))


def symmetrized(rec):
    u = np.sqrt(np.asarray(rec.u, dtype=float))
    return np.diag(np.asarray(rec.b, dtype=float)) + np.diag(u, 1) + np.diag(u, -1)


class TestSturmPath:
    """Every w_n > 0: QL seeds, certified by Sturm counts, dd polish."""

    @pytest.mark.parametrize("n", [16, 64, 120])
    def test_big_q_jacobi_matches_eigvalsh(self, n):
        rec = big_q_jacobi(StructuredParams(0.8, 0.25, 0.5, -0.25), n)
        want = np.linalg.eigvalsh(symmetrized(rec))
        got = np.array(eigenvalues(jacobi_matrix(rec)))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_ql_seeds_match_eigvalsh(self):
        # The root-free QL sweep is backward stable: every seed is within a few
        # units of roundoff of the norm, graded matrices (QL run from either end) too.
        rng = random.Random(13)
        for i in range(80):
            n = rng.randint(2, 80)
            grade = rng.uniform(0.7, 1.3) if i % 2 else 1.0
            b = [rng.uniform(-3.0, 3.0) * grade**k for k in range(n)]
            w = [rng.uniform(0.05, 4.0) * grade ** (2 * k + 1) for k in range(n - 1)]
            off = np.sqrt(w)
            want = np.linalg.eigvalsh(np.diag(b) + np.diag(off, 1) + np.diag(off, -1))
            got = _real_roots._pwk(b, w)
            assert np.max(np.abs(np.array(got) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [64, 120])
    def test_evaluations_per_root(self, n, monkeypatch):
        # The QL seeds need no float recurrence: one Sturm count per cut between
        # two seeds (n - 1) and one dd polish per root (n), with no root left
        # to the bisection and Laguerre fallback.
        calls = {"_cp_float": 0, "_cp_dd": 0, "_sturm_count": 0}
        for name in calls:
            def counted(*args, _f=getattr(_real_roots, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(_real_roots, name, counted)
        eigenvalues(jacobi_matrix(big_q_jacobi(StructuredParams(0.8, 0.25, 0.5, -0.25), n)))
        assert calls["_cp_float"] == 0
        assert calls["_cp_dd"] <= 1.02 * n
        assert calls["_sturm_count"] <= n

    def test_tiny_and_huge_scales_match_eigvalsh(self):
        # Below about 1e-42 eigenvalues were off by up to 2.5e6 normwise: the
        # rescale test m = p^2 + p'^2 + p''^2 underflowed to 0.0 and skipped
        # the up-scale, and a hull pad of at least 1e-9 left tens of empty
        # decades that the bracketed Laguerre steps could not cross (n <= 7).
        rng = random.Random(11)
        for i in range(300):
            n = rng.randint(1, 40) if i % 2 else rng.randint(2, 7)
            scale = 10.0 ** rng.uniform(-60.0, 60.0)
            sign = [rng.choice((-1.0, 1.0)) for _ in range(n - 1)]
            sub = [s * rng.uniform(0.05, 2.0) * scale for s in sign]
            sup = [s * rng.uniform(0.05, 2.0) * scale for s in sign]
            diag = [rng.uniform(-3.0, 3.0) * scale for _ in range(n)]
            got = eigenvalues(band_tridiagonal(sub, diag, sup))
            unit = 2.0 ** -math.frexp(scale)[1]  # numpy on entries near 1, scaled exactly
            off = [math.sqrt(s * t) * unit for s, t in zip(sub, sup)]
            T = np.diag([x * unit for x in diag]) + np.diag(off, 1) + np.diag(off, -1)
            want = np.linalg.eigvalsh(T)
            err = np.max(np.abs(np.array(got) * unit - want)) / np.max(np.abs(want))
            assert err <= 1e-13, (scale, n, err)

    def test_extreme_scales_match_eigvalsh(self):
        # Outside about 1e-65 to 1e110 the recurrences' values and derivatives
        # drift apart by the square of the scale at every step, and w = sub * sup
        # under- or overflows: eigenvalues were off by up to 0.5 normwise, or
        # refused, before the power-of-two prescale.
        rng = random.Random(12)
        for decade in [*range(-300, -79, 20), *range(110, 291, 20)]:
            for _ in range(20):
                n = rng.randint(2, 30)
                scale = 10.0 ** (decade + rng.uniform(-1.0, 1.0))
                sign = [rng.choice((-1.0, 1.0)) for _ in range(n - 1)]
                sub = [s * rng.uniform(0.05, 2.0) * scale for s in sign]
                sup = [s * rng.uniform(0.05, 2.0) * scale for s in sign]
                diag = [rng.uniform(-3.0, 3.0) * scale for _ in range(n)]
                got = eigenvalues(band_tridiagonal(sub, diag, sup))
                unit = 2.0 ** -math.frexp(scale)[1]  # numpy on entries near 1, scaled exactly
                off = [math.sqrt((s * unit) * (t * unit)) for s, t in zip(sub, sup)]
                T = np.diag([x * unit for x in diag]) + np.diag(off, 1) + np.diag(off, -1)
                want = np.linalg.eigvalsh(T)
                err = np.max(np.abs(np.array(got) * unit - want)) / np.max(np.abs(want))
                assert err <= 1e-12, (scale, n, err)

    def test_w_beyond_the_float_range(self):
        # sub * sup = 1e400 was refused as "not finite"; an eigenvalue beyond the
        # float range is a NumericFailureError, not an OverflowError.
        assert eigenvalues(band_tridiagonal((1e200,), (0.0, 0.0), (1e200,))) == [-1e200, 1e200]
        with pytest.raises(NumericFailureError, match="exceeds the float range"):
            eigenvalues(band_tridiagonal((1e308,), (1e308, 1e308), (1e308,)))
        with pytest.raises(InvalidParameterError, match="must be finite"):
            eigenvalues(band_tridiagonal((1.0,), (0.0, math.nan), (1.0,)))

    @pytest.mark.parametrize("entry", [1j, None, "1.5", "abc"])
    def test_entry_that_is_not_a_real_number_is_refused(self, entry):
        with pytest.raises(InvalidParameterError, match="^matrix entries must be real numbers$"):
            eigenvalues(band_tridiagonal([1, 1], [entry, 2, 3], [1, 1]))

    def test_recurrence_values_below_the_up_scale_bound(self):
        # A diagonal clustered within 87 ulp of 1 and w = 1e-24: near the cluster
        # each step of the recurrence scales p and its derivatives by about 1e-12,
        # so they reach the subnormals by n = 30 unless the kernels scale them up.
        # Without the up-scale the worst relative error was 6.4e-14.
        n = 30
        diag = [1 + 3 * k * 2.0**-52 for k in range(n)]
        got = eigenvalues(band_tridiagonal([1.0] * (n - 1), diag, [1e-24] * (n - 1)))
        with mpmath.workdps(60):
            off = mpmath.sqrt(mpmath.mpf(1e-24))  # the symmetrized matrix
            T = mpmath.matrix(n, n)
            for i in range(n):
                T[i, i] = mpmath.mpf(diag[i])
                if i:
                    T[i, i - 1] = T[i - 1, i] = off
            want = sorted(mpmath.eigsy(T, eigvals_only=True))
            err = max(abs((x - y) / y) for x, y in zip(got, want))
        assert err <= 1e-15, float(err)

    @pytest.mark.parametrize("d", [0.0, 1.0, 1e-50])
    def test_degenerate_hull_is_refused(self, d):
        # A multiple of the identity has Gershgorin hull lo = hi, so the pad,
        # relative to the hull, is 0.0 at d = 0; the repeated root is refused.
        for M in (BandMatrix(3, {0: (d,) * 3}), band_tridiagonal((0.0, 0.0), (d,) * 3, (0.0, 0.0))):
            with pytest.raises(NumericFailureError, match="could not bracket 3 distinct"):
                eigenvalues(M)

    def test_q_hahn_wide_entries(self):
        # Entries span 1e9 (w_n up to 6e16): an unguarded Newton step from the
        # isolating interval lands near 5e12, far outside the spectrum.
        rec = q_hahn(0.3, 0.4, 0.5, 30)
        got = eigenvalues(jacobi_matrix(rec))
        want = sorted(0.5**-s for s in range(31))
        assert len(got) == 31
        assert all(abs(x - y) <= 1e-14 * y for x, y in zip(got, want))

    def test_split_point_on_an_eigenvalue(self):
        # Bisection splits the hull at 0, itself an eigenvalue.  A Laguerre step
        # from 1e40 out carries an O(1e24) rounding error and can land exactly on
        # that end of the top root's bracket, which is another root.
        v = 1e20
        M = band_tridiagonal((v, v), (0.0, 0.0, 0.0), (v, v))
        assert eigenvalues(M) == pytest.approx([-math.sqrt(2.0) * v, 0.0, math.sqrt(2.0) * v], rel=1e-15)

    def test_close_pairs_are_resolved(self):
        # Wilkinson W21+: its top eigenvalues pair up within 1e-14.
        M = band_tridiagonal((1.0,) * 20, tuple(abs(10.0 - i) for i in range(21)), (1.0,) * 20)
        want = np.linalg.eigvalsh(np.array(dense(M)))
        assert np.allclose(eigenvalues(M), want, rtol=0, atol=1e-13)


class TestAberthPath:
    """Some w_n <= 0: Ehrlich-Aberth, then a certificate or sign brackets."""

    @pytest.mark.parametrize("n", [6, 12, 16])
    def test_big_q_jacobi_positive_c3_refused(self, n):
        J = jacobi_matrix(big_q_jacobi(StructuredParams(0.8, 0.25, 0.5, 0.25), n))
        with pytest.raises(UnsupportedSpectrumError) as err:
            eigenvalues(J)
        z, r = certified_disc(err.value)
        assert newton_radius(J, z) <= 1.001 * r < abs(z.imag)
        ev = np.linalg.eigvals(np.array(dense(J), dtype=float))
        assert np.abs(ev.imag).max() > 1e-3

    def test_q_para_krawtchouk_invented_roots_refused(self):
        # A sign scan used to report 14 real eigenvalues here; the float
        # matrix has a conjugate pair with |Im| = 0.0286.
        J = jacobi_matrix(q_para_krawtchouk(0.2, 0.5, 13))
        with pytest.raises(UnsupportedSpectrumError) as err:
            eigenvalues(J)
        z, r = certified_disc(err.value)
        assert newton_radius(J, z) <= 1.001 * r < abs(z.imag)
        ev = np.linalg.eigvals(np.array(dense(J), dtype=float))
        assert np.abs(ev.imag).max() > 1e-3

    def test_exact_entries_are_taken_as_given(self):
        # The same family with Fraction parameters has the real bi-lattice
        # spectrum; its entries are not floats, so nothing is refused.
        rec = q_para_krawtchouk(F(1, 5), F(1, 2), 13)
        want = sorted(float(x) for x in claimed_spectrum(rec).points)
        got = eigenvalues(jacobi_matrix(rec))
        assert all(abs(x - y) <= 1e-15 * y for x, y in zip(got, want))

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_q_para_krawtchouk_n21_typed_error(self, q):
        J = jacobi_matrix(q_para_krawtchouk(0.2, q, 21))
        with pytest.raises(UnsupportedSpectrumError) as err:
            eigenvalues(J)
        z, r = certified_disc(err.value)
        assert newton_radius(J, z) <= 1.001 * r < abs(z.imag)

    def test_agrees_with_numpy_on_random_tridiagonals(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            M = band_tridiagonal(
                tuple(rng.uniform(-2, 2, n - 1)),
                tuple(rng.uniform(-3, 3, n)),
                tuple(rng.uniform(-2, 2, n - 1)),
            )
            ev = np.linalg.eigvals(np.array(dense(M)))
            if np.abs(ev.imag).max() > 1e-6:
                with pytest.raises(UnsupportedSpectrumError):
                    eigenvalues(M)
            else:
                assert np.allclose(eigenvalues(M), np.sort(ev.real), rtol=1e-10, atol=1e-12)

    def test_outcome_does_not_depend_on_scale(self):
        # A mixed-sign matrix times an even power of two near 1e-250 ... 1e280
        # gives the eigenvalues of the unscaled one times that power, bit for
        # bit, or the same error; a refusal names the disc scaled back.  Before
        # the prescale, w = sub * sup underflowed or overflowed at these scales.
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 9)
            sub = [rng.uniform(-2.0, 2.0) for _ in range(n - 1)]
            sup = [rng.uniform(-2.0, 2.0) for _ in range(n - 1)]
            diag = [rng.uniform(-3.0, 3.0) for _ in range(n)]
            outcomes, radii = [], []
            for e in (0, -830, -498, -166, 200, 598, 930):  # 2^e ~ 1, 1e-250, ..., 1e280
                M = band_tridiagonal(*([math.ldexp(x, e) for x in v] for v in (sub, diag, sup)))
                try:
                    outcomes.append([math.ldexp(x, -e) for x in eigenvalues(M)])
                except UnsupportedSpectrumError as exc:
                    z, r = certified_disc(exc)
                    outcomes.append(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)))
                    radii.append(math.ldexp(r, -e))
                except NumericFailureError:
                    outcomes.append(NumericFailureError)
            assert all(o == outcomes[0] for o in outcomes), (n, outcomes)
            assert all(abs(r - radii[0]) <= 1e-3 * radii[0] for r in radii)  # printed to 4 digits

    def test_repeated_root_cannot_be_bracketed(self):
        with pytest.raises(NumericFailureError):
            eigenvalues(BandMatrix(3, {0: (1.0, 1.0, 2.0)}))

    def test_decoupled_diagonal(self):
        A, _ = canonical_pair(1.0, 0.5, 8)
        assert eigenvalues(A) == [2.0**k for k in range(8)]


def random_tridiagonal(rng, n, zeros):
    """Tridiagonal with sub * super >= 0 (real spectrum); ``zeros`` entries of
    the sub- or superdiagonal are set to 0, which splits M into triangular blocks."""
    d = rng.uniform(-1.0, 1.0, n)
    lo = rng.uniform(-1.0, 1.0, n - 1)
    up = np.sign(lo) * rng.uniform(0.1, 1.0, n - 1)
    for k in rng.choice(2 * (n - 1), size=min(zeros, 2 * (n - 1)), replace=False):
        (lo if k < n - 1 else up)[k % (n - 1)] = 0.0
    bands = {0: tuple(d)}
    if n > 1:
        bands.update({-1: tuple(lo), 1: tuple(up)})
    return BandMatrix(n, bands)


def same_direction(v, u, bound):
    v = np.asarray(v) / np.linalg.norm(v)
    u = np.asarray(u) / np.linalg.norm(u)
    return min(np.linalg.norm(v - u), np.linalg.norm(v + u)) <= bound


class TestAdjugateVectors:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    @pytest.mark.parametrize("zeros", [0, 1, 3])
    def test_matches_numpy_eig(self, n, zeros):
        rng = np.random.default_rng(100 * n + zeros)
        for _ in range(4):
            M = random_tridiagonal(rng, n, zeros)
            D = np.array(dense(M), dtype=float)
            lam, U = np.linalg.eig(D)
            lamt, W = np.linalg.eig(D.T)  # the left eigenvectors
            assert not lam.imag.any()
            lam, lamt = lam.real, lamt.real
            for s in range(n):
                gap = min((abs(lam[s] - x) for t, x in enumerate(lam) if t != s), default=1.0)
                bound = 1e-12 * max(1.0, np.linalg.norm(D, 2)) / gap
                v, y = _adjugate_vectors(M, float(lam[s]))
                assert 0.25 <= max(map(abs, v)) < 1.0 and 0.25 <= max(map(abs, y)) < 1.0
                assert same_direction(v, U[:, s].real, bound)
                assert same_direction(y, W[:, np.argmin(abs(lamt - lam[s]))].real, bound)

    def test_wide_range_needs_rescaling(self):
        # det(M - lam I) ~ 2**(200 n): the minors leave the float range unless rescaled
        rng = np.random.default_rng(5)
        M = random_tridiagonal(rng, 12, 1)
        D = np.array(dense(M), dtype=float)
        lam, U = np.linalg.eig(D)
        for scale in (2.0**200, 2.0**-200):
            big = BandMatrix(12, {k: tuple(x * scale for x in band) for k, band in M.bands.items()})
            for s in range(12):
                v, _ = _adjugate_vectors(big, float(lam[s].real) * scale)
                assert same_direction(v, U[:, s].real, 1e-9)

    def test_diagonal_matrix_gives_unit_vectors(self):
        A, _ = canonical_pair(1.0, 0.5, 5)
        for s, lam in enumerate(A.bands[0]):
            v, y = _adjugate_vectors(A, lam)
            assert [i for i, x in enumerate(v) if x] == [s] == [i for i, x in enumerate(y) if x]

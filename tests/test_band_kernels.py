"""The one-pass band kernels against the compositions they replaced.

The reference functions below are the band expressions as the package built
them before each became one pass per band: ``band_add`` as its own loop,
``band_sub`` as band_add(A, band_scale(-1, B)), and a q-bracket residual as
band_sub(band_sub(X@Y, band_scale(q, Y@X)), rhs).  The builder on top of
the q-bracket, companion_b, is checked against the same compositions end to
end.

The kernels must return the same band offsets in the same order and the same
entries: the same type, and for floats the same bits (``float.hex``; a NaN
need only be a NaN, since its sign may come from either operand).  One
difference is deliberate: a - b is IEEE subtraction, while the old
a + (-1 * b) multiplied a complex b by complex(-1, 0), which can flip the
sign of a zero part or turn an infinite part into a NaN.  Complex entries are
therefore drawn with finite nonzero parts, where the two agree.
"""

import math
import operator
import random
from fractions import Fraction as F

import pytest

from qosc import (
    BandMatrix,
    InvalidParameterError,
    StructuredParams,
    TolerancePolicy,
    band_add,
    band_identity,
    band_mul,
    band_scale,
    band_sub,
    big_q_jacobi,
    build_Z,
    companion_b,
    inf_norm,
    jacobi_matrix,
    q_commutator_residual,
    r_coefficients,
    residual_report,
)
from qosc.opmatrix import _q_bracket


# -- the compositions as they were ---------------------------------------------


def ref_band_add(A, B):
    out = {}
    for k in sorted(set(A.bands) | set(B.bands)):
        a, b = A.bands.get(k), B.bands.get(k)
        out[k] = b if a is None else a if b is None else tuple(map(operator.add, a, b))
    return BandMatrix(A.size, out)


def ref_band_scale(c, A):
    return BandMatrix(A.size, {k: tuple(c * v for v in band) for k, band in A.bands.items()})


def ref_band_sub(A, B):
    return ref_band_add(A, ref_band_scale(-1, B))


def ref_q_bracket(X, Y, q):
    return ref_band_sub(band_mul(X, Y), ref_band_scale(q, band_mul(Y, X)))


def ref_residual(X, Y, q, rhs):
    return ref_band_sub(ref_q_bracket(X, Y, q), rhs)


def ref_companion_b(A, p):
    r0, r1 = r_coefficients(p)
    Bq = ref_q_bracket(build_Z(p, A.size), A, p.q)
    return ref_band_add(ref_band_scale(r1, Bq), ref_band_scale(r0, band_identity(A.size)))


# -- inputs and the sameness test ----------------------------------------------

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)
TOL = TolerancePolicy()


def scalar(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("float", "int", "fraction", "special"))
    if kind == "float":
        return rng.choice((-1, 1)) * 10.0 ** rng.uniform(-8, 8)
    if kind == "special":
        return rng.choice(SPECIALS + (1.5, -2.25))
    if kind == "int":
        return rng.randint(-1000, 1000)
    if kind == "fraction":
        return F(rng.randint(-1000, 1000), rng.randint(1, 50))
    return complex(scalar(rng, "float"), scalar(rng, "float"))


def band_matrix(rng, size, kind):
    offsets = rng.sample(range(1 - size, size), rng.randint(0, min(4, 2 * size - 1)))
    return BandMatrix(size, {k: tuple(scalar(rng, kind) for _ in range(size - abs(k)))
                             for k in offsets})


KINDS = ("float", "int", "fraction", "complex", "special", "mixed")


def draws(count=60):
    """(rng, size, kind) per case, seeded per kind."""
    for kind in KINDS:
        rng = random.Random(f"band-kernels/{kind}")
        for _ in range(count):
            yield rng, rng.randint(1, 7), kind


def coefficient(rng, kind):
    """A scalar of the bands' own kind, or a real one for complex bands."""
    return scalar(rng, "float" if kind == "complex" else kind)


def same_entry(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or (a != a and b != b)
    if isinstance(a, complex):
        return same_entry(a.real, b.real) and same_entry(a.imag, b.imag)
    return a == b


def assert_same(got, want):
    assert got.size == want.size
    assert list(got.bands) == list(want.bands)  # the same offsets, in the same order
    for k, band in want.bands.items():
        assert len(got.bands[k]) == len(band)
        for g, w in zip(got.bands[k], band):
            assert same_entry(g, w), (k, g, w)


def outcome(f, *args):
    """f(*args), or the type of the arithmetic error it raises."""
    try:
        return f(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc)


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert_same(got, want)


# -- the tests ---------------------------------------------------------------------


def test_draws_cover_one_sided_bands_and_every_special():
    seen, one_sided = set(), 0
    for rng, size, kind in draws():
        A, B = band_matrix(rng, size, kind), band_matrix(rng, size, kind)
        one_sided += bool(set(A.bands) ^ set(B.bands))
        for M in (A, B):
            for band in M.bands.values():
                seen.update(repr(v) for v in band if type(v) is float and not 0 < abs(v) < math.inf)
    assert one_sided > 100
    assert {"0.0", "-0.0", "inf", "-inf", "nan"} <= seen


def test_band_add_and_sub():
    for rng, size, kind in draws():
        A, B = band_matrix(rng, size, kind), band_matrix(rng, size, kind)
        assert_same_outcome(outcome(band_sub, A, B), outcome(ref_band_sub, A, B))
        assert_same_outcome(outcome(band_add, A, B), outcome(ref_band_add, A, B))
        c = coefficient(rng, kind)
        assert_same_outcome(outcome(band_scale, c, A), outcome(ref_band_scale, c, A))


def test_q_bracket_and_its_residual():
    for rng, size, kind in draws():
        X, Y, rhs = (band_matrix(rng, size, kind) for _ in range(3))
        q = coefficient(rng, kind)
        assert_same_outcome(outcome(_q_bracket, X, Y, q), outcome(ref_q_bracket, X, Y, q))
        assert_same_outcome(outcome(_q_bracket, X, Y, q, rhs), outcome(ref_residual, X, Y, q, rhs))


def test_q_commutator_residual_report():
    for rng, size, kind in draws(30):
        if size < 3 or kind == "complex":
            continue
        X, Y, rhs = (band_matrix(rng, size, kind) for _ in range(3))
        q = coefficient(rng, kind)
        for given in (rhs, None):
            want_rhs = band_identity(size) if given is None else given
            try:
                R = ref_residual(X, Y, q, want_rhs)
                want = residual_report(R, TOL, (0, size - 2), max(inf_norm(X) * inf_norm(Y), 1.0))
            except (ArithmeticError, TypeError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    q_commutator_residual(X, Y, q, given, TOL)
                continue
            got = q_commutator_residual(X, Y, q, given, TOL)
            assert repr(got) == repr(want)


def test_sizes_must_agree():
    A, B = band_identity(3), band_identity(4)
    for f in (lambda: band_sub(A, B), lambda: band_add(A, B), lambda: _q_bracket(A, A, 0.5, B)):
        with pytest.raises(InvalidParameterError, match="size mismatch"):
            f()


def test_complex_zero_follows_ieee_subtraction():
    A = BandMatrix(1, {0: (complex(-0.0, 0.0),)})
    B = BandMatrix(1, {0: (complex(0.0, -1.0),)})
    got = band_sub(A, B).bands[0][0]
    assert same_entry(got, complex(-0.0, 1.0))  # a - b
    old = ref_band_sub(A, B).bands[0][0]
    assert math.copysign(1.0, old.real) == 1.0  # -1 * b made the real part +0.0


PARAMS = [StructuredParams(0.5, 0.25, 0.5, 0.25), StructuredParams(0.8, 0.3, 0.4, -0.25),
          StructuredParams(F(1, 2), F(1, 4), F(1, 2), F(1, 3))]


@pytest.mark.parametrize("p", PARAMS, ids=["float", "float-negative-c3", "fraction"])
def test_builders(p):
    size = 9
    A = jacobi_matrix(big_q_jacobi(p, size))
    assert_same(companion_b(A, p), ref_companion_b(A, p))

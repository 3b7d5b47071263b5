"""Monic orthogonal-polynomial families and their spectra.

Recurrences are stored monically: x P_n = P_{n+1} + b_n P_n + u_n P_{n-1},
so the Jacobi matrix has unit subdiagonal, diagonal b_n and superdiagonal u_n.
The finite families (q-Hahn, q-para-Krawtchouk) carry explicit eigenvalue
lattices which verify_spectrum certifies against the Jacobi matrix.

On exact parameters, big_q_jacobi (and so q_hahn), askey_wilson and
q_para_krawtchouk take the builders' route of _ratio.py: the value and type
of Fraction arithmetic, and every refusal where Fraction arithmetic puts it.
"""

from __future__ import annotations

import math
import sys

from ._record import field_names, record
from .errors import InvalidParameterError, SpectrumMismatchError, UnsupportedFamilyError
from .numerics import LaurentPoly, TolerancePolicy, _worst_of, laurent_add, laurent_mul, laurent_scale
from .opmatrix import (
    BandMatrix,
    _judge,
    band_tridiagonal,
    char_poly_eval,
    eigenvalues,
    guard_size,
)
from .representation import (AWParams, StructuredParams, _check_q, _nonresonant, _ratio_route,
                             _scaled_minors)

_TINY = sys.float_info.min  # the smallest normal float


@record
class MonicRecurrence:
    """Coefficients (b_n, u_n) of a monic three-term recurrence."""

    b: tuple
    u: tuple
    family: str = "custom"
    params: object = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "u", tuple(self.u))
        if len(self.b) < 1:
            raise InvalidParameterError("recurrence needs at least b_0")
        if len(self.u) != len(self.b) - 1:
            raise InvalidParameterError("u must have one entry fewer than b")

    @property
    def size(self) -> int:
        return len(self.b)


def big_q_jacobi(p: StructuredParams, count: int) -> MonicRecurrence:
    """First ``count`` monic big q-Jacobi coefficients for parameters (c1, c2, c3).

    b_n = 1 - D_n - C_n and u_n = D_{n-1} C_n with the standard forward /
    backward rates; every 1 - c1*c2*q^k denominator in range must stay away
    from zero (ResonanceError otherwise).
    """
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    guard_size(p.q, count)
    (q, c1, c2, c3), out = _ratio_route(p.q, p.c1, p.c2, p.c3)
    qp = [q**k for k in range(2 * count + 1)]  # each power of q once
    c12 = c1 * c2
    # each denominator once, in increasing k, so the first refused is the least k
    den = {k: _nonresonant(1, c12 * qp[k], "denominator 1-c1*c2*q^{}", k)
           for k in range(1, 2 * count + 1)}
    m13, c12_3 = -c1 * c3, c12 / c3

    def D(n):
        num = (1 - c1 * qp[n + 1]) * (1 - c12 * qp[n + 1]) * (1 - c3 * qp[n + 1])
        return num / (den[2 * n + 1] * den[2 * n + 2])

    def C(n):
        if n == 0:
            return 0
        num = m13 * qp[n + 1] * (1 - qp[n]) * (1 - c2 * qp[n]) * (1 - c12_3 * qp[n])
        return num / (den[2 * n + 1] * den[2 * n])

    Ds = [D(n) for n in range(count)]
    Cs = [C(n) for n in range(count)]
    b = out(1 - Ds[n] - Cs[n] for n in range(count))
    u = out(Ds[n - 1] * Cs[n] for n in range(1, count))
    return MonicRecurrence(b, u, family="big-q-jacobi", params=p)


def askey_wilson(p: AWParams, count: int) -> MonicRecurrence:
    """First ``count`` monic Askey-Wilson coefficients in the variable x = cos-type
    average (a1 + 1/a1 normalization): b_n = (a1 + 1/a1 - D_n - C_n)/2,
    u_n = D_{n-1} C_n / 4."""
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    guard_size(p.q, count)
    (q, a1, a2, a3, a4, g), out = _ratio_route(p.q, p.a1, p.a2, p.a3, p.a4, p.g)
    qp = {k: q**k for k in range(-1, 2 * count - 1)}  # each power of q once
    # each denominator once, in increasing k, so the first refused is the least k
    den = {k: _nonresonant(1, g * qp[k], "denominator 1-g*q^{}", k) for k in range(-1, 2 * count - 1)}
    a12, a13, a14, a23, a24, a34 = a1 * a2, a1 * a3, a1 * a4, a2 * a3, a2 * a4, a3 * a4

    def D(n):
        den_n = a1 * den[2 * n - 1] * den[2 * n]
        return (1 - a12 * qp[n]) * (1 - a13 * qp[n]) * (1 - a14 * qp[n]) * (1 - g * qp[n - 1]) / den_n

    def C(n):
        if n == 0:
            return 0
        den_n = den[2 * n - 1] * den[2 * n - 2]
        r = qp[n - 1]
        return a1 * (1 - qp[n]) * (1 - a23 * r) * (1 - a24 * r) * (1 - a34 * r) / den_n

    Ds = [D(n) for n in range(count)]
    Cs = [C(n) for n in range(count)]
    inv_a1 = 1 / a1
    b = out((a1 + inv_a1 - Ds[n] - Cs[n]) / 2 for n in range(count))
    u = out(Ds[n - 1] * Cs[n] / 4 for n in range(1, count))
    return MonicRecurrence(b, u, family="askey-wilson", params=p)


def q_hahn(c1, c2, q, N: int) -> MonicRecurrence:
    """Finite q-Hahn family of size N+1: big q-Jacobi truncating at c3 = q**-(N+1).

    ``params`` is that StructuredParams(q, c1, c2, q**-(N+1)); N is ``size - 1``.
    """
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    rec = big_q_jacobi(StructuredParams(q, c1, c2, q ** (-N - 1)), N + 1)
    return MonicRecurrence(rec.b, rec.u, family="q-hahn", params=rec.params)


def q_para_krawtchouk(c3, q, N: int) -> MonicRecurrence:
    """Finite q-para-Krawtchouk family of size N+1 (N odd).

    Coincides with big q-Jacobi at c1 = c2 = q**-(N+1)/2 after cancelling the
    indeterminate middle coefficients, so it is built from its own closed
    forms; the half-integer powers reduce to integer powers of q.  ``params`` is
    that StructuredParams(q, c, c, c3), c = q**-(N+1)/2; N is ``size - 1``.
    """
    if N < 1 or N % 2 == 0:
        raise InvalidParameterError("N must be odd and >= 1")
    _check_q(q)
    if c3 == 0:
        raise InvalidParameterError("c3 must be nonzero")
    guard_size(q, N + 1)
    c = q ** (-(N + 1) // 2)
    params = StructuredParams(q, c, c, c3)
    (q, c3), out = _ratio_route(q, c3)
    half = (N - 1) // 2
    qp = {k: q**k for k in range(-N - 1, N + 2)}  # each power of q once

    # each denominator once, in D(n) order, so the first refused is D(n)'s: D(n)
    # divides by (1 - q^(2n-N)) * (1 + q^(n-half)), and C(n) by its own first
    # factor times D(n-1)'s second
    den = {}
    for n in range(N + 1):
        k, m = 2 * n - N, n - half
        den[n] = (_nonresonant(1, qp[k], "denominator 1-q^{}", k),
                  _nonresonant(1, -qp[m], "denominator 1+q^{}", m))
    m3 = -c3

    def D(n):
        return (1 - qp[n - N]) * (1 - c3 * qp[n + 1]) / (den[n][0] * den[n][1])

    def C(n):
        if n == 0:
            return 0
        num = m3 * qp[n - half] * (1 - qp[n]) * (1 - qp[n - N - 1] / c3)
        return num / (den[n][0] * den[n - 1][1])

    Ds = [D(n) for n in range(N + 1)]
    Cs = [C(n) for n in range(N + 1)]
    b = out(1 - Ds[n] - Cs[n] for n in range(N + 1))
    u = out(Ds[n - 1] * Cs[n] for n in range(1, N + 1))
    return MonicRecurrence(b, u, family="q-para-krawtchouk", params=params)


def jacobi_matrix(rec: MonicRecurrence) -> BandMatrix:
    """Monic Jacobi matrix: unit subdiagonal, diagonal b, superdiagonal u."""
    return band_tridiagonal((1,) * (rec.size - 1), rec.b, rec.u)


def eval_monic(rec: MonicRecurrence, n: int, x):
    """P_n(x) = det(xI - J), J the leading n x n block of the Jacobi matrix; n <= rec.size."""
    if n < 0 or n > rec.size:
        raise InvalidParameterError(f"degree {n} outside 0..{rec.size}")
    if n == 0:
        return 1
    return char_poly_eval(band_tridiagonal((1,) * (n - 1), rec.b[:n], rec.u[:n - 1]), x)


def expand_monic(rec: MonicRecurrence, n: int) -> LaurentPoly:
    """Coefficient expansion of P_n as a (Laurent) polynomial in x."""
    if n < 0 or n > rec.size:
        raise InvalidParameterError(f"degree {n} outside 0..{rec.size}")
    x = LaurentPoly({1: 1})
    p0 = LaurentPoly({0: 1})
    if n == 0:
        return p0
    p1 = laurent_add(x, LaurentPoly({0: -rec.b[0]}))
    for k in range(1, n):
        shifted = laurent_add(x, LaurentPoly({0: -rec.b[k]}))
        p0, p1 = p1, laurent_add(laurent_mul(shifted, p1), laurent_scale(-rec.u[k - 1], p0))
    return p1


@record
class SpectrumLattice:
    """Finite claimed spectrum tagged 'single-exponential' or 'bi-exponential'."""

    points: tuple
    kind: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        pts = sorted(float(x) for x in self.points)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise InvalidParameterError("lattice points must be pairwise distinct")


def claimed_spectrum(rec: MonicRecurrence) -> SpectrumLattice:
    """Closed-form spectrum for the finite families.

    q-Hahn: {q**-s : s = 0..N}.  q-para-Krawtchouk: the bi-lattice
    {q**-s} union {c3 * q**(s+1)} for s = 0..(N-1)/2.  Other families raise
    UnsupportedFamilyError.
    """
    p, N = rec.params, rec.size - 1
    if rec.family == "q-hahn":
        return SpectrumLattice(tuple(p.q ** (-s) for s in range(N + 1)), "single-exponential")
    if rec.family == "q-para-krawtchouk":
        half = (N + 1) // 2
        pts = [p.q ** (-s) for s in range(half)] + [p.c3 * p.q ** (s + 1) for s in range(half)]
        return SpectrumLattice(tuple(pts), "bi-exponential")
    raise UnsupportedFamilyError(f"no closed-form spectrum for family {rec.family!r}")


@record
class SpectrumReport:
    """verify_spectrum's verdict and the per-point evidence behind it.

    The first six fields are those of ResidualReport.  The four tuples run
    over the lattice points in ascending order: each point, the computed
    eigenvalue paired with it, their relative distance, and the point's
    |charpoly| scaled by its product of gaps.
    """

    max_abs: float
    location: tuple | None
    rows: tuple
    scale: float
    tolerance: float
    passed: bool
    points: tuple
    eigenvalues: tuple
    rel_distance: tuple
    charpoly_scaled: tuple


def _charpoly_scaled(rec: MonicRecurrence, J: BandMatrix, x, pts) -> float:
    """|charpoly(x)| / prod_{y != x} |x - y|, 0 exactly when charpoly(x) is.  Where a side leaves
    the normal floats, by (mantissa, exponent) pairs: rescaled recurrences that round as math.prod
    and char_poly_eval do, or an exact charpoly's numerator and denominator."""
    c, fx = char_poly_eval(J, x), float(x)
    gaps = [abs(fx - y) for y in pts if y != fx]
    try:
        a, g = abs(float(c)), math.prod(gaps)
        if (not c or _TINY <= a < math.inf) and _TINY <= g < math.inf:  # both normal floats
            return a / g
    except OverflowError:  # an exact charpoly beyond the float range
        pass
    gm, ge = _scaled_minors(gaps, [0.0] * len(gaps))[-1]
    if isinstance(c, float):
        cm, ce = _scaled_minors([fx - v for v in rec.b], (0.0,) + rec.u)[-1]  # J = jacobi_matrix(rec)
    else:  # c = cm * 2**ce with cm in (1/2, 2), or c = 0
        n, d = c.numerator, c.denominator
        ce = n.bit_length() - d.bit_length()
        cm = (n << max(0, -ce)) / (d << max(0, ce))
    if not cm:
        return 0.0
    r, k = math.frexp(cm / gm)
    return abs(math.ldexp(r, k + ce - ge)) if k + ce - ge <= 1024 else math.inf


def verify_spectrum(
    rec: MonicRecurrence, lattice: SpectrumLattice, pol: TolerancePolicy = TolerancePolicy()
) -> SpectrumReport:
    """Certify that the Jacobi matrix spectrum equals the claimed lattice.

    Two checks run at each lattice point x_s, taken in ascending order:
    (i) charpoly_scaled, |charpoly(x_s)| over the product of float gaps
    prod_{t != s} |x_s - x_t|, with charpoly evaluated at the point as the
    lattice gives it, so exact points on an exact matrix give an exact value
    (0 on a true lattice), and (ii) rel_distance, the relative distance
    from x_s to the computed eigenvalue paired with it, each eigenvalue going
    to its nearest point.  The report keeps both per point; max_abs is the
    worst of either (a NaN counts as worst) and location = (s, s) indexes the
    ascending points.  Raises SpectrumMismatchError when counts differ or two
    eigenvalues pair with one point.
    """
    if len(lattice.points) != rec.size:
        raise SpectrumMismatchError(f"lattice has {len(lattice.points)} points for size {rec.size}")
    J = jacobi_matrix(rec)
    given = sorted(lattice.points)
    pts = tuple(float(x) for x in given)
    scaled = tuple(_charpoly_scaled(rec, J, x, pts) for x in given)
    paired = [None] * len(pts)
    for lam in eigenvalues(J):
        s = min(range(len(pts)), key=lambda t: abs(lam - pts[t]))
        if paired[s] is not None:
            msg = f"eigenvalue pairing is not injective at lattice point {pts[s]!r}"
            raise SpectrumMismatchError(msg)
        paired[s] = lam
    rel = tuple(abs(lam - x) / max(abs(x), 1e-300) for lam, x in zip(paired, pts))
    worst, i = _worst_of(d for pair in zip(scaled, rel) for d in pair)
    loc = None if i is None else (i // 2, i // 2)
    verdict = _judge(worst, loc, (0, rec.size - 1), 1.0, pol.effective(1.0))
    six = (getattr(verdict, name) for name in field_names(verdict))
    return SpectrumReport(*six, pts, tuple(paired), rel, scaled)

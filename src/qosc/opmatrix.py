"""Banded operator matrices and residual checks.

The band kernel is pure Python and duck-typed: entries may be floats,
fractions.Fraction, or any ring element supporting +, -, *, so exact inputs
produce exact residuals.  Products, sums, scalings and row sums walk each band
as a slice under a C-level ``map`` rather than one Python statement per entry;
the operand order and the order of every sum are those of per-entry loops, so
the results are the same bit for bit.  On exact input, ints and Fractions
with one a Fraction (``_exact_route``, the one test for it), ``band_mul`` and
``char_poly_eval`` take the integer routes of _ratio.py instead, with the
value and type of that loop; _ratio.py says how they work.
``band_sub`` and ``_q_bracket`` (past its two products) form each band of a
difference in one pass, with the bits of the band_add/band_scale
compositions they replaced (kept in tests/test_band_kernels.py).  The
residual scan ``_worst`` stays a loop: a max() over a mapped list measured
slower than the interpreter's specialized float compare.  The package has
no numpy: the eigenvectors behind ``decompose`` are read off the adjugate of
a tridiagonal matrix by its minor recurrences (``_adjugate_vectors`` in
representation.py), and numpy enters only in tests.

Every reader of a tridiagonal matrix's three bands goes through
``_tridiagonal``, which refuses a matrix storing any wider band.

Truncation bookkeeping: all infinite-matrix identities checked here hold on a
size x size truncation except for rows coupled to the cut, so residual checks
take an explicit row window and default to rows 0..size-2.

``eigenvalues`` says how its two paths work.  They live in
_eigen.py, their real-root kernels in _real_roots.py; ``eigenvalues``
imports them on its first call, so a process that solves no eigenproblem
never compiles them.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import repeat

from ._record import record
from .errors import InvalidParameterError, SizeGuardError, TooSmallError
from .numerics import TolerancePolicy

# Largest |q|-power spread allowed before geometric bands degrade float checks.
SIZE_GUARD_LIMIT = 1e12
_ratio = None  # qosc._ratio, the routes of exact input, once _exact_route imports it


def guard_size(q, size: int) -> None:
    """Reject sizes whose q-geometric entries would span > SIZE_GUARD_LIMIT.

    An exact q whose |q| overflows the float range, or underflows it to 0,
    spans more than any float at every size."""
    if size < 1:
        raise InvalidParameterError("size must be >= 1")
    if not q:
        raise InvalidParameterError("q must be nonzero")
    try:
        aq = abs(float(q))
        inverse = 1.0 / aq
    except (OverflowError, ZeroDivisionError):
        raise SizeGuardError(f"size {size} with an exact q outside the float range spans inf"
                             f" > {SIZE_GUARD_LIMIT:.0e}") from None
    try:
        spread = max(aq, inverse) ** size
    except OverflowError:  # a spread past the float range is past the limit too
        spread = math.inf
    if spread > SIZE_GUARD_LIMIT:
        raise SizeGuardError(
            f"size {size} with q = {float(q)!r} spans {spread:.3e} > {SIZE_GUARD_LIMIT:.0e}"
        )


class BandMatrix:
    """Square matrix stored by diagonals.

    ``bands[k]`` holds the entries M[i, i+k]; index t in the stored tuple
    corresponds to row t + max(0, -k), so t == min(row, col).  Compared by
    value, and unhashable since it is mutable.
    """

    __hash__ = None

    def __init__(self, size: int, bands: dict | None = None) -> None:
        if size < 1:
            raise InvalidParameterError("size must be >= 1")
        clean = {}
        for k, entries in (bands or {}).items():
            if not isinstance(k, int) or abs(k) > size - 1:
                raise InvalidParameterError(f"band offset {k!r} out of range")
            entries = tuple(entries)
            if len(entries) != size - abs(k):
                raise InvalidParameterError(
                    f"band {k} has {len(entries)} entries, expected {size - abs(k)}"
                )
            clean[k] = entries
        self.size = size
        self.bands = clean
        self._lift = None  # char_poly_eval's integer steps (see _ratio._lift)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.size, self.bands) == (other.size, other.bands)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(size={self.size!r}, bands={self.bands!r})"

    def entry(self, i: int, j: int):
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise InvalidParameterError("index out of range")
        band = self.bands.get(j - i)
        if band is None:
            return 0
        return band[min(i, j)]


def _worst(M: BandMatrix, rows: tuple | None = None, ref: BandMatrix | None = None):
    """(largest |M_ij|, its (i, j)), the first in band order on ties.

    A NaN entry counts as the largest, so a report over it fails.  Only rows
    lo <= i <= hi count when ``rows`` = (lo, hi) is given.  With ``ref`` each
    |M_ij| is first divided by max(1, |ref_ij|).  A plain loop, with no call
    per entry: every residual report runs it.
    """
    lo, hi = (0, M.size - 1) if rows is None else rows
    worst, loc = 0.0, None
    for k, entries in M.bands.items():
        i0 = max(0, -k)  # the row of entries[0]
        r = None if ref is None else ref.bands.get(k)
        for t in range(max(0, lo - i0), min(len(entries), hi - i0 + 1)):
            d = abs(float(entries[t]))
            if r is not None:
                d /= max(1.0, abs(float(r[t])))
            if not d <= worst:  # true for d > worst and for NaN
                worst, loc = d, (i0 + t, i0 + t + k)
                if d != d:
                    return worst, loc
    return worst, loc


def band_identity(size: int) -> BandMatrix:
    return BandMatrix(size, {0: (1,) * size})


def band_tridiagonal(sub, diag, sup) -> BandMatrix:
    """Bands stored in the order 0, -1, +1 that band_mul sums them in; a size-1
    matrix stores no empty off-diagonal, and BandMatrix refuses a wrong length."""
    bands = {0: tuple(diag)}
    sub, sup = tuple(sub), tuple(sup)
    if len(bands[0]) > 1 or sub or sup:
        bands[-1], bands[1] = sub, sup
    return BandMatrix(len(bands[0]), bands)


def _check_same_size(A: BandMatrix, B: BandMatrix) -> int:
    if A.size != B.size:
        raise InvalidParameterError("size mismatch")
    return A.size


def band_add(A: BandMatrix, B: BandMatrix) -> BandMatrix:
    size = _check_same_size(A, B)
    out = {}
    for k in sorted(set(A.bands) | set(B.bands)):
        a = A.bands.get(k)
        b = B.bands.get(k)
        if a is None:
            out[k] = b
        elif b is None:
            out[k] = a
        else:
            out[k] = tuple(map(operator.add, a, b))
    return BandMatrix(size, out)


def band_scale(c, A: BandMatrix) -> BandMatrix:
    """c * A, each entry formed as c * v: mixed scalar types may tell it from v * c."""
    scaled = {k: tuple(map(operator.mul, repeat(c), band)) for k, band in A.bands.items()}
    return BandMatrix(A.size, scaled)


def _minus(a, b):
    """a - b entry by entry; -1 * v where only b is stored (a is None)."""
    return map(operator.mul, repeat(-1), b) if a is None else map(operator.sub, a, b)


def band_sub(A: BandMatrix, B: BandMatrix) -> BandMatrix:
    size = _check_same_size(A, B)
    out = {}
    for k in sorted(set(A.bands) | set(B.bands)):
        a, b = A.bands.get(k), B.bands.get(k)
        out[k] = a if b is None else tuple(_minus(a, b))
    return BandMatrix(size, out)


def band_mul(A: BandMatrix, B: BandMatrix) -> BandMatrix:
    """Exact banded product; output bandwidth is the sum of input bandwidths.

    Band pair (ka, kb) adds a_i * b_i into output band ka + kb over the rows
    i_lo .. i_lo + n - 1 it reaches, as one map over three aligned slices.
    Each output entry starts at int 0 and takes its terms in band-pair order.

    Exact input (``_exact_route``) takes ``_ratio._exact_band_mul``, which forms
    the same entries on integer pairs.  The type of A's first band head sends
    floats to the loop with no other test.
    """
    size = _check_same_size(A, B)
    head = next(iter(A.bands.values()), (0.0,))[0]
    exact = type(head) is not float and _exact_route(head, [*A.bands.values(), *B.bands.values()])
    if exact:
        return exact._exact_band_mul(A, B, size)
    out: dict = {}
    for ka, banda in A.bands.items():
        for kb, bandb in B.bands.items():
            k = ka + kb
            if abs(k) > size - 1:
                continue
            acc = out.setdefault(k, [0] * (size - abs(k)))
            i_lo = max(0, -ka, -k)
            n = size - max(0, ka, k) - i_lo
            a0, b0, o = i_lo + min(0, ka), i_lo + ka + min(0, kb), i_lo + min(0, k)
            acc[o:o + n] = map(operator.add, acc[o:o + n],
                               map(operator.mul, banda[a0:a0 + n], bandb[b0:b0 + n]))
    return BandMatrix(size, {k: tuple(v) for k, v in out.items()})


def inf_norm(M: BandMatrix) -> float:
    """Max absolute row sum; each row sums its bands in band order."""
    sums = [0.0] * M.size
    for k, entries in M.bands.items():
        i0 = max(0, -k)  # the row of entries[0]
        i1 = i0 + len(entries)
        sums[i0:i1] = map(operator.add, sums[i0:i1], map(abs, map(float, entries)))
    total = sum(sums)  # NaN when any row sum is, where max() keeps a NaN only in front
    return total if total != total else max(sums)


@record
class ResidualReport:
    """Outcome of one matrix-identity check over a row window."""

    max_abs: float
    location: tuple | None
    rows: tuple
    scale: float
    tolerance: float
    passed: bool


def _judge(worst, loc, rows, scale, tol) -> ResidualReport:
    """The one pass/fail rule of every check: worst <= tol, the scale and the
    tolerance finite.  So a NaN anywhere fails, and an overflowed scale too."""
    scale, tol = float(scale), float(tol)
    passed = worst <= tol and math.isfinite(tol) and math.isfinite(scale)
    return ResidualReport(float(worst), loc, rows, scale, tol, passed)


def residual_report(R: BandMatrix, pol: TolerancePolicy, rows: tuple, scale: float) -> ResidualReport:
    """Max |R_ij| over rows[0] <= i <= rows[1], judged by ``_judge`` at the
    tolerance ``pol.effective(scale)``."""
    lo, hi = rows
    if not (0 <= lo <= hi < R.size):
        raise InvalidParameterError("row window out of range")
    worst, loc = _worst(R, rows)
    return _judge(worst, loc, (lo, hi), scale, pol.effective(scale))


def _q_bracket(X: BandMatrix, Y: BandMatrix, q, rhs: BandMatrix | None = None) -> BandMatrix:
    """X@Y - q*Y@X (- rhs), each band in one pass past the two products; every
    q-bracket in the package is built here, so their band operations agree."""
    xy, yx = band_mul(X, Y).bands, band_mul(Y, X).bands
    r = {}
    if rhs is not None:
        _check_same_size(X, rhs)
        r = rhs.bands
    out = {}
    for k in sorted(set(xy) | set(yx) | set(r)):
        v = xy.get(k)
        if k in yx:
            v = _minus(v, map(operator.mul, repeat(q), yx[k]))
        if k in r:
            v = _minus(v, r[k])
        out[k] = tuple(v)
    return BandMatrix(X.size, out)


def q_commutator_residual(
    A: BandMatrix,
    B: BandMatrix,
    q,
    rhs: BandMatrix | None = None,
    pol: TolerancePolicy = TolerancePolicy(),
    rows: tuple | None = None,
) -> ResidualReport:
    """Residual of the q-bracket identity A@B - q*B@A = rhs (default I).

    Every q-bracket identity in the package is measured here: the q-oscillator
    relation, and the algebra relations of algebra.py with their own ``rhs``.
    Max |A@B - q*B@A - rhs| over the row window (default 0..size-2, since the
    last truncation row is corrupted by the cut) is judged at the pair scale
    max(1, ||A||_inf ||B||_inf), NaN when a norm is NaN.
    """
    size = _check_same_size(A, B)
    if size < 3:
        raise TooSmallError("q-commutator check needs size >= 3")
    R = _q_bracket(A, B, q, band_identity(size) if rhs is None else rhs)
    if rows is None:
        rows = (0, size - 2)
    return residual_report(R, pol, rows, max(inf_norm(A) * inf_norm(B), 1.0))  # keeps a NaN


def _tridiagonal(M: BandMatrix):
    """(sub, diag, super) of a tridiagonal matrix, a band not stored reading as
    zeros; InvalidParameterError when a band beyond +-1 is stored."""
    if any(abs(k) > 1 for k in M.bands):
        raise InvalidParameterError("matrix is not tridiagonal")
    zeros = (0,) * M.size
    return M.bands.get(-1, zeros[1:]), M.bands.get(0, zeros), M.bands.get(1, zeros[1:])


def char_poly_eval(M: BandMatrix, x):
    """det(xI - M) for tridiagonal M by the three-term minor recurrence.

    Exact input (``_exact_route``) takes ``_ratio._char_poly``, on integers, with
    the value and type of the loop below.  Any other input (floats, complex,
    all ints) takes that loop, unscaled, so it may overflow for large sizes
    with wide entry ranges (eigenvalues() uses a rescaled variant).
    """
    bands = sub, b, sup = _tridiagonal(M)
    exact = _exact_route(x, bands)
    if exact:
        return exact._char_poly(M, bands, x)
    p0, p1 = 1, x - b[0]
    for bk, s, t in zip(b[1:], sub, sup):
        p0, p1 = p1, (x - bk) * p1 - s * t * p0
    return p1


def _exact_route(x, groups):
    """The routes of exact input, qosc._ratio, when x and every value of
    ``groups`` are exactly an int or a Fraction, one a Fraction, else None: the
    one test for exact input (bool and subclasses are not).  No Fraction exists
    unless fractions is loaded, so neither it nor _ratio is imported before."""
    global _ratio
    fraction = getattr(sys.modules.get("fractions"), "Fraction", None)
    if fraction is None or type(x) is not int and type(x) is not fraction:
        return None
    kinds = {type(x)}.union(*[map(type, group) for group in groups])
    if not (kinds <= {int, fraction} and fraction in kinds):
        return None
    if _ratio is None:
        from . import _ratio
    return _ratio


def _ratios(band) -> list:
    """Each entry as an exact (numerator, denominator) pair; floats, ints and
    Fractions are exact, other numbers.Real entries (mpmath.mpf, sympy.Rational,
    numpy ints) are read at their float value, and others are a TypeError."""
    try:
        return [v.as_integer_ratio() for v in band]
    except AttributeError:
        import numbers  # loaded only when an entry has no as_integer_ratio
        if not all(isinstance(v, numbers.Real) for v in band):
            raise TypeError("matrix entries must be real numbers") from None
        return [(v if hasattr(v, "as_integer_ratio") else float(v)).as_integer_ratio() for v in band]


def _exact_entries(sub, diag, sup):
    """The diagonal b_k and the products w_k = sub_{k-1} * sup_{k-1} (w_0 = 0)
    of a tridiagonal matrix, each an exact (numerator, denominator) pair."""
    w = [(s * t, ds * dt) for (s, ds), (t, dt) in zip(_ratios(sub), _ratios(sup))]
    return _ratios(diag), [(0, 1)] + w


def _exact_det(steps, X: int, d: int = 1) -> int:
    """P_n of the ``_ratio._scaled_steps`` recurrence at X / d (or at X of
    ``_ExactCharPoly``'s lifted steps (1, S b_k, S^2 w_k)): det(xI - M) times
    a positive integer, so its sign is that of det(xI - M)."""
    P0, P1, d2 = 0, 1, d * d
    for e, B, W in steps:
        P0, P1 = P1, (X * e - d * B) * P1 - d2 * W * P0
    return P1


def eigenvalues(M: BandMatrix) -> list:
    """All eigenvalues of a tridiagonal matrix with real simple spectrum, sorted.

    There is no tolerance argument: both paths below work to full float
    precision, whatever tolerance the caller later judges the result by.

    The signs of w_n = M[n+1, n] * M[n, n+1] choose one of two paths:

    * every w_n > 0: M is similar to a symmetric irreducible tridiagonal, so
      its spectrum is real and simple.  A root-free QL sweep (LAPACK's dsterf)
      seeds every eigenvalue; a Sturm count (LDL^T inertia) at each midpoint
      between seeds certifies one eigenvalue per interval, and one
      double-double Newton polish from its seed finishes it.  An eigenvalue
      the seeds do not settle is isolated by bisection on Sturm counts over
      the Gershgorin hull;
    * some w_n <= 0: the Ehrlich-Aberth iteration approximates every root of
      p(z) = det(zI - M), evaluated by the three-term recurrence in complex
      arithmetic, or exactly in integers where float rounding hides the root.
      The disc of radius n |p(z)| / |p'(z)| about any point z holds a root of
      p; if it misses the real axis once rounding is accounted for, M has a
      non-real eigenvalue and UnsupportedSpectrumError names z and the
      radius.  Otherwise the real parts are bracketed by sign changes of p;
      NumericFailureError is raised when n distinct roots cannot be bracketed
      (a repeated eigenvalue, say).

    Each root isolated by bisection or by sign changes is then converged by
    Laguerre steps kept inside its bracket and finished with the same
    double-double polish, except roots the Aberth iteration already converged
    under exact evaluation.  The polish, not the route to it, sets the last
    bit.

    Both paths run on M / 2^k (``_prescale``) and scale the result back, so
    it does not depend on the scale of M.
    """
    from . import _eigen  # compiled on the first call

    return _eigen.eigenvalues(M)

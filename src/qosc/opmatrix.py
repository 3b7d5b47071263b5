"""Banded operator matrices and residual checks.

The band kernel is pure Python and duck-typed: entries may be floats,
fractions.Fraction, or any ring element supporting +, -, *, so exact inputs
produce exact residuals.  Products, sums, scalings and row sums walk each band
as a slice under a C-level ``map`` rather than one Python statement per entry;
the operand order and the order of every sum are those of per-entry loops, so
the results are the same bit for bit.  On entries of type int and Fraction,
``band_mul`` and ``char_poly_eval`` take an exact route on plain integers
instead, with the value and type of that loop and far fewer gcds (and
``char_poly_eval`` lifts a matrix once, kept on it until a band is replaced).
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

``band_mul`` and ``char_poly_eval`` (their exact integer routes) and
``eigenvalues`` (its two paths) say how each works.  The eigen paths live in
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
        self._lift = None  # char_poly_eval's integer steps (see _lift)

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

    When every entry is of type int or fractions.Fraction and one is a
    Fraction, ``_exact_band_mul`` forms the same entries on integer pairs.
    The type of A's first band head sends floats to the loop with no other
    test; any other input (complex, bool, a Fraction subclass, one float
    among Fractions) takes the loop too.
    """
    size = _check_same_size(A, B)
    head = next(iter(A.bands.values()), (0.0,))[0]
    if type(head) is not float:
        kind = _exact_kind(head, [*A.bands.values(), *B.bands.values()])
        if kind not in (None, int):
            return _exact_band_mul(A, B, size, kind)
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


def _exact_band_mul(A: BandMatrix, B: BandMatrix, size: int, fraction) -> BandMatrix:
    """``band_mul`` on int and ``fraction`` entries, over the same band pairs and rows.

    Each entry is read as an integer pair (``_ratios``), and each output entry
    sums its terms x/y * u/v as N/D on plain integers, N <- N y v + x u D and
    D <- D y v, with no gcd; one Fraction(N, D) is reduced per entry at the
    end.  An entry whose terms are all int * int stays an int, and one that no
    band pair reaches stays int 0, as in the loop.
    """
    pa, pb = [{k: (_ratios(band), [type(v) is not int for v in band])
               for k, band in M.bands.items()} for M in (A, B)]
    out: dict = {}
    for ka, (ra, fa) in pa.items():
        for kb, (rb, fb) in pb.items():
            k = ka + kb
            if abs(k) > size - 1:
                continue
            m = size - abs(k)
            num, den, frac = out.setdefault(k, ([0] * m, [1] * m, [False] * m))
            i_lo = max(0, -ka, -k)
            n = size - max(0, ka, k) - i_lo
            a0, b0, o = i_lo + min(0, ka), i_lo + ka + min(0, kb), i_lo + min(0, k)
            for t, (x, y), (u, v) in zip(range(o, o + n), ra[a0:a0 + n], rb[b0:b0 + n]):
                yv, d = y * v, den[t]
                num[t], den[t] = num[t] * yv + x * u * d, d * yv
            frac[o:o + n] = map(operator.or_, frac[o:o + n],
                                map(operator.or_, fa[a0:a0 + n], fb[b0:b0 + n]))
    return BandMatrix(size, {k: [fraction(x, y) if f else x for x, y, f in zip(*acc)]
                             for k, acc in out.items()})


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

    When x and every entry are of type int or fractions.Fraction, the
    recurrence runs on plain integers (``_exact_det``) over M's integer lift
    (``_lift``), taken once and kept on M for every later point until a band
    it read is replaced, and one Fraction is built at the end, or an int when
    every input is an int, or Fraction(0) at once when the minor is 0: the
    same value and type as the loop below, without a gcd on the growing
    minors at any step.  Any other input (floats, complex, bool, a Fraction
    subclass) takes the duck-typed loop, unscaled, so it may overflow for
    large sizes with wide entry ranges (eigenvalues() uses a rescaled variant).
    """
    bands = sub, b, sup = _tridiagonal(M)
    kind = _exact_kind(x, bands)
    if kind is not None:
        X, d = x.as_integer_ratio()
        steps, E = _lift(M, bands)
        P = _exact_det(steps, X, d)
        if kind is int or P == 0:
            return kind(P)
        return kind(P, d ** len(steps) * E)
    p0, p1 = 1, x - b[0]
    for bk, s, t in zip(b[1:], sub, sup):
        p0, p1 = p1, (x - bk) * p1 - s * t * p0
    return p1


def _lift(M: BandMatrix, bands) -> tuple:
    """(steps, e_0 ... e_{n-1}) of ``_scaled_steps`` on M's three bands, made on
    the first exact call and kept on M.  It is keyed on the identity of what
    M.bands stores at -1, 0 and +1, None for a band not stored, so replacing,
    adding or deleting a band misses it, and a tuple cannot change in place;
    a band of another type is not kept."""
    stored = [M.bands.get(k) for k in (-1, 0, 1)]
    kept = M._lift
    if kept is None or not all(map(operator.is_, kept[0], stored)):
        steps = list(_scaled_steps(*_exact_entries(*bands)))
        kept = stored, (steps, math.prod(e for e, _, _ in steps))
        M._lift = kept if all(band is None or type(band) is tuple for band in stored) else None
    return kept[1]


def _exact_kind(x, bands):
    """int when x and every entry are of type int, fractions.Fraction when
    each is an int or a Fraction and one is a Fraction, else None.  Types are
    matched exactly, so bool and subclasses are not exact here.  No Fraction
    exists unless the fractions module is loaded, so it is never imported."""
    fractions = sys.modules.get("fractions")
    exact = {int} if fractions is None else {int, fractions.Fraction}
    if type(x) not in exact:
        return None
    kinds = {type(x)}.union(*[map(type, band) for band in bands])
    if not kinds <= exact:
        return None
    return int if kinds == {int} else fractions.Fraction


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


def _scaled_steps(b, w):
    """(e_k, B_k, W_k) of each step of the minor recurrence, for every point.

    Step k scales by its own denominator c_k, the lcm of den b_k and the
    part of den w_k that c_{k-1} lacks.  Then e_k = c_k, B_k = c_k b_k and
    W_k = c_k c_{k-1} w_k are integers, and at a point X / d,
    P_k = (X e_k - d B_k) P_{k-1} - d^2 W_k P_{k-2} (P_{-1} = 1) is the
    leading minor of order k + 1 of xI - M times d^(k+1) c_0 ... c_k.  The
    gcds are on entry denominators only, never on the growing P_k.
    """
    c = 1
    for (bn, bd), (wn, wd) in zip(b, w):
        ck = math.lcm(bd, wd // math.gcd(wd, c))
        yield ck, bn * (ck // bd), wn * (ck * c // wd)
        c = ck


def _exact_det(steps, X: int, d: int = 1) -> int:
    """P_n of the ``_scaled_steps`` recurrence at X / d (or at X of
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

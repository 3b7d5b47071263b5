"""Banded operator matrices and residual checks.

The band kernel is pure Python and duck-typed: entries may be floats,
fractions.Fraction, or any ring element supporting +, -, *, so exact inputs
produce exact residuals.  Products, sums, scalings and row sums walk each band
as a slice under a C-level ``map`` rather than one Python statement per entry;
the operand order and the order of every sum are those of per-entry loops, so
the results are the same bit for bit.  On entries of type int and Fraction,
``band_mul`` and ``char_poly_eval`` take an exact route on plain integers
instead, with the value and type of that loop and far fewer gcds.
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
``eigenvalues`` (its two paths) say how each works.  The real-root kernels
of both eigen paths are in _real_roots.py; the complex ones of the Aberth
path are here.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from functools import cached_property
from itertools import repeat

from ._real_roots import _BIG, _DOWN, _EPS, _SMALL, _UP, _polish, _split_neg, _sturm_path
from ._record import record
from .errors import (
    InvalidParameterError,
    NumericFailureError,
    SizeGuardError,
    TooSmallError,
    UnsupportedSpectrumError,
)
from .numerics import TolerancePolicy

# Largest |q|-power spread allowed before geometric bands degrade float checks.
SIZE_GUARD_LIMIT = 1e12


def guard_size(q, size: int) -> None:
    """Reject sizes whose q-geometric entries would span > SIZE_GUARD_LIMIT."""
    if size < 1:
        raise InvalidParameterError("size must be >= 1")
    aq = abs(float(q))
    if aq == 0.0:
        raise InvalidParameterError("q must be nonzero")
    spread = max(aq, 1.0 / aq) ** size
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.size, self.bands) == (other.size, other.bands)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(size={self.size!r}, bands={self.bands!r})"

    @property
    def lower(self) -> int:
        return max((-k for k in self.bands if k < 0), default=0)

    @property
    def upper(self) -> int:
        return max((k for k in self.bands if k > 0), default=0)

    def entry(self, i: int, j: int):
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise InvalidParameterError("index out of range")
        band = self.bands.get(j - i)
        if band is None:
            return 0
        return band[min(i, j)]

    def to_dense(self) -> list:
        out = [[0] * self.size for _ in range(self.size)]
        for i, j, v in _entries(self):
            out[i][j] = v
        return out


def _entries(M: BandMatrix):
    """(i, j, M_ij) of every stored entry, band by band."""
    for k, entries in M.bands.items():
        for i, v in enumerate(entries, max(0, -k)):
            yield i, i + k, v


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


def band_diagonal(diag) -> BandMatrix:
    diag = tuple(diag)
    return BandMatrix(len(diag), {0: diag})


def band_tridiagonal(sub, diag, sup) -> BandMatrix:
    diag = tuple(diag)
    size = len(diag)
    bands = {0: diag}
    sub, sup = tuple(sub), tuple(sup)
    if size > 1:
        if len(sub) != size - 1 or len(sup) != size - 1:
            raise InvalidParameterError("sub/super diagonals must have size-1 entries")
        bands[-1] = sub
        bands[1] = sup
    elif sub or sup:
        raise InvalidParameterError("size-1 matrix admits no off-diagonals")
    return BandMatrix(size, bands)


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


def max_entry_diff(A: BandMatrix, B: BandMatrix):
    """(max |A_ij - B_ij|, location); scans the union of the stored bands."""
    return _worst(band_sub(A, B))


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


def diag_similarity(M: BandMatrix, d) -> BandMatrix:
    """Conjugation diag(d)^-1 M diag(d): entry (n, n+k) picks up d_{n+k}/d_n."""
    d = tuple(d)
    if len(d) != M.size:
        raise InvalidParameterError("diagonal length must equal matrix size")
    if any(x == 0 for x in d):
        raise InvalidParameterError("similarity diagonal must be nonzero")
    out = {}
    for i, j, v in _entries(M):
        out.setdefault(j - i, []).append(v * d[j] / d[i])
    return BandMatrix(M.size, out)


def _tridiagonal(M: BandMatrix):
    """(sub, diag, super) of a tridiagonal matrix, a band not stored reading as
    zeros; InvalidParameterError when a band beyond +-1 is stored."""
    if M.lower > 1 or M.upper > 1:
        raise InvalidParameterError("matrix is not tridiagonal")
    zeros = (0,) * M.size
    return M.bands.get(-1, zeros[1:]), M.bands.get(0, zeros), M.bands.get(1, zeros[1:])


def char_poly_eval(M: BandMatrix, x):
    """det(xI - M) for tridiagonal M by the three-term minor recurrence.

    When x and every entry are of type int or fractions.Fraction, the
    recurrence runs on plain integers (``_exact_det``) and one Fraction is
    built at the end, or an int when every input is an int, or Fraction(0)
    at once when the minor is 0: the same value and type as the loop below,
    without a gcd on the growing minors at every step.  Any other input
    (floats, complex, bool, a Fraction subclass) takes the duck-typed loop,
    unscaled, so it may overflow for large sizes with wide entry ranges
    (eigenvalues() uses a rescaled variant).
    """
    sub, b, sup = _tridiagonal(M)
    kind = _exact_kind(x, (sub, b, sup))
    if kind is not None:
        X, d = x.as_integer_ratio()
        steps = list(_scaled_steps(*_exact_entries(sub, b, sup), d))
        P = _exact_det(steps, X)
        if kind is int or P == 0:
            return kind(P)
        return kind(P, d ** len(steps) * math.prod(e for e, _, _ in steps))
    p0, p1 = 1, x - b[0]
    for bk, s, t in zip(b[1:], sub, sup):
        p0, p1 = p1, (x - bk) * p1 - s * t * p0
    return p1


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
    Fractions are exact, other types are read at their float value."""
    try:
        return [v.as_integer_ratio() for v in band]
    except AttributeError:
        return [(v if hasattr(v, "as_integer_ratio") else float(v)).as_integer_ratio() for v in band]


def _exact_entries(sub, diag, sup):
    """The diagonal b_k and the products w_k = sub_{k-1} * sup_{k-1} (w_0 = 0)
    of a tridiagonal matrix, each an exact (numerator, denominator) pair."""
    w = [(s * t, ds * dt) for (s, ds), (t, dt) in zip(_ratios(sub), _ratios(sup))]
    return _ratios(diag), [(0, 1)] + w


def _scaled_steps(b, w, d: int):
    """(e_k, B_k, W_k) of each step of the minor recurrence at a point X / d.

    Step k scales by its own denominator c_k, the lcm of d, den b_k and the
    part of den w_k that c_{k-1} lacks.  Then e_k = c_k / d, B_k = c_k b_k
    and W_k = c_k c_{k-1} w_k are integers, and P_k = (X e_k - B_k) P_{k-1}
    - W_k P_{k-2} (P_{-1} = 1) is the leading minor of order k + 1 of
    xI - M times c_0 ... c_k.  The gcds are on entry denominators only,
    never on the growing P_k.
    """
    c = 1
    for (bn, bd), (wn, wd) in zip(b, w):
        ck = math.lcm(d, bd, wd // math.gcd(wd, c))
        yield ck // d, bn * (ck // bd), wn * (ck * c // wd)
        c = ck


def _exact_det(steps, X: int) -> int:
    """P_n of the ``_scaled_steps`` recurrence at X (or of ``_ExactCharPoly``'s
    lifted steps, every c_k = S): det(xI - M) times c_0 ... c_{n-1} > 0, so
    its sign is that of det(xI - M)."""
    P0, P1 = 0, 1
    for e, B, W in steps:
        P0, P1 = P1, (X * e - B) * P1 - W * P0
    return P1


# -- eigenvalue machinery (see eigenvalues()) ---------------------------------
#
# The complex recurrences rescale value and derivative jointly by powers of two
# to dodge overflow/underflow, as the real ones of _real_roots.py do.
#
# The running error bound of the complex recurrence decides when a float sign
# of p can be trusted and when a root needs exact evaluation.  Its local terms
# are charged at _ERR_UNITS units of roundoff: complex multiply (sqrt(5) u),
# the shifts z - b_k and the subtraction, and entries given to within a few
# units (w_n = sub * super is itself rounded).  About 6 u is needed; the
# factor-2 margin also covers the second-order terms the linear bound omits,
# for any n << 1/u.
_ERR_UNITS = 16.0
_ABERTH_SWEEPS = 200


def _cp_complex(b, w, ab, aw, z: complex):
    """(p(z), p'(z), e) up to a common positive rescale factor, where e bounds
    the error of p (running error analysis).

    ``ab`` and ``aw`` hold |b_k| and |w_k|; the bound also covers entries that
    are themselves rounded to within a few units (see _ERR_UNITS), so it holds
    for the matrix as given.
    """
    u = _ERR_UNITS * _EPS
    p0, p1 = 1.0, z - b[0]
    d0, d1 = 0.0, 1.0
    a0, a1 = 1.0, abs(p1)
    e0, e1 = 0.0, u * (a1 + ab[0])
    for bk, wk, abk, awk in zip(b[1:], w, ab[1:], aw):
        t = z - bk
        at = abs(t)
        d0, d1 = d1, p1 + t * d1 - wk * d0
        p0, p1 = p1, t * p1 - wk * p0
        e0, e1 = e1, at * e1 + awk * e0 + u * ((at + abk) * a1 + awk * a0)
        a0, a1 = a1, abs(p1)
        m = a1 + abs(d1) + e1
        if m > _BIG or 0.0 < m < _SMALL:
            r = _DOWN if m > _BIG else _UP
            p0 *= r; p1 *= r; d0 *= r; d1 *= r
            a0 *= r; a1 *= r; e0 *= r; e1 *= r
    return p1, d1, e1


def _cp_ratio(b, w, z: complex):
    """p(z) / p'(z): ``_cp_complex`` without the bound (a rescale leaves the ratio's bits)."""
    p0, p1 = 1.0, z - b[0]
    d0, d1 = 0.0, 1.0
    for bk, wk in zip(b[1:], w):
        t = z - bk
        d0, d1 = d1, p1 + t * d1 - wk * d0
        p0, p1 = p1, t * p1 - wk * p0
        m = abs(p1) + abs(d1)
        if m > _BIG or 0.0 < m < _SMALL:
            r = _DOWN if m > _BIG else _UP
            p0 *= r; p1 *= r; d0 *= r; d1 *= r
    return p1 / d1 if d1 != 0.0 else math.inf


class _ExactCharPoly:
    """p(z) = det(zI - M) and p'(z) in exact integer arithmetic, for M given
    by the exact pairs (b, w) of ``_exact_entries``; ``eigenvalues`` passes
    M / 2^k and its k, by which refusals scale back.

    The float parts of z are taken exactly too: every entry is lifted to an
    integer by the lcm G of all the entry denominators, once per matrix, and a
    point of denominator d scales that by lcm(d, G) / G.
    """

    def __init__(self, b, w, k: int = 0):
        self.b, self.w, self.k = b, w, k

    @cached_property
    def _lifted(self):
        """(G, [(1, G b_k, G^2 w_k)]): the minor recurrence's steps for
        ``_exact_det`` at points of denominator G."""
        b, w = self.b, self.w
        G = math.lcm(*(d for _, d in b + w))
        return G, [(1, bn * (G // bd), wn * (G // wd) * G) for (bn, bd), (wn, wd) in zip(b, w)]

    def _steps(self, d: int):
        """(S, steps): the steps at the scale S = lcm(d, G), so a point X / d
        is (X S / d) / S there."""
        G, steps = self._lifted
        S = math.lcm(d, G)
        if S == G:
            return G, steps
        f = S // G
        f2 = f * f
        return S, [(1, B * f, W * f2) for _, B, W in steps]

    def _eval(self, z: complex):
        """Integers (P, D, Ti, S) with p(z) = P / S^n, p'(z) = D / S^(n-1) and
        Im z = Ti / S; P and D are (real, imaginary) pairs."""
        (zr, dr), (zi, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        S, steps = self._steps(math.lcm(dr, di))
        Zr = zr * (S // dr)
        Ti = zi * (S // di)
        pr0 = pi0 = dr0 = di0 = pi1 = dr1 = di1 = 0
        pr1 = 1
        for _, B, W in steps:
            Tr = Zr - B
            pr0, pi0, dr0, di0, pr1, pi1, dr1, di1 = (
                pr1, pi1, dr1, di1,
                Tr * pr1 - Ti * pi1 - W * pr0,
                Tr * pi1 + Ti * pr1 - W * pi0,
                pr1 + Tr * dr1 - Ti * di1 - W * dr0,
                pi1 + Tr * di1 + Ti * dr1 - W * di0,
            )
        return (pr1, pi1), (dr1, di1), Ti, S

    def sign(self, x: float) -> int:
        """The sign of p at a real point, by the integer recurrence of
        ``char_poly_eval``'s exact path."""
        X, d = x.as_integer_ratio()
        S, steps = self._steps(d)
        P = _exact_det(steps, X * (S // d))
        return (P > 0) - (P < 0)

    def newton(self, z: complex):
        """(p(z) / p'(z), the inclusion radius n |p(z) / p'(z)|, whether that
        disc misses the real axis).  The last is decided in integers:
        |Im z| > n |p| / |p'| iff Ti^2 |D|^2 > n^2 |P|^2."""
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return math.inf, math.inf, False
        (pr, pi), (dr, di), ti, S = self._eval(z)
        n = len(self.b)
        pp, dd = pr * pr + pi * pi, dr * dr + di * di
        if dd == 0:
            return math.inf, math.inf, False
        certified = ti * ti * dd > n * n * pp
        try:
            ratio = complex((pr * dr + pi * di) / (dd * S), (pi * dr - pr * di) / (dd * S))
            radius = n * math.sqrt(pp / (dd * S * S))
        except OverflowError:
            return math.inf, math.inf, certified
        return ratio, radius, certified


def _aberth(b, w, ab, aw, exact: _ExactCharPoly) -> list:
    """Ehrlich-Aberth approximations to all n roots of p = det(zI - M).

    A root whose float p is within its rounding bound, and whose corrections
    stopped shrinking, moves to exact evaluation; a root freezes once its
    correction stops moving it.  A frozen root off the real axis (and, once
    the sweeps run out, any root off it) is tested: the disc |zeta - z| <=
    n |p(z)| / |p'(z)| holds a root of p, so if it misses the real axis
    (decided exactly) UnsupportedSpectrumError names it.  A root that froze
    off the axis on float values without such a certificate (the float and
    the exact entries can disagree) moves to exact evaluation and goes on.

    Returns [(z, settled)], where settled marks roots that froze under exact
    evaluation and so are already accurate to the last few bits.
    """
    n = len(b)
    # Start on a circle about the mean eigenvalue trace(M)/n whose radius is
    # the RMS spread, from trace(M^2) = sum b_k^2 + 2 sum w_k.
    center = sum(b) / n
    spread = (sum(x * x for x in b) + 2.0 * sum(w)) / n - center * center
    radius = math.sqrt(abs(spread)) or 1.0
    z = [center + radius * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    promoted = [False] * n
    settled = [False] * n
    moved = [math.inf] * n  # size of each root's last correction
    stalled = [False] * n  # last p/p' over half the correction before: e was needed
    active = list(range(n))
    for _ in range(_ABERTH_SWEEPS):
        if not active:
            break
        still = []
        for i in active:
            zi = z[i]
            if not promoted[i]:
                ratio = None if stalled[i] else _cp_ratio(b, w, zi)  # _cp_complex's p/p' bits
                if ratio is None or abs(ratio) > 0.5 * moved[i]:  # only then can e promote zi
                    p, d, e = _cp_complex(b, w, ab, aw, zi)
                    ratio = p / d if d != 0.0 else math.inf
                    stalled[i] = abs(ratio) > 0.5 * moved[i]
                    promoted[i] = stalled[i] and abs(p) <= e
            if promoted[i]:
                ratio = exact.newton(zi)[0]
            if ratio == math.inf:
                ratio = complex(radius)
            s = 0j
            for zj in z:
                if zj != zi:
                    s += 1.0 / (zi - zj)
            den = 1.0 - ratio * s
            corr = ratio / den if den != 0.0 else ratio
            z[i] = zi - corr
            moved[i] = abs(corr)
            if moved[i] > 2.0 * _EPS * abs(zi):
                still.append(i)
                continue
            _refuse_if_certified(exact, z[i])
            if promoted[i] or abs(z[i].imag) <= 2.0 * _EPS * abs(z[i]):
                settled[i] = promoted[i]
            else:
                # converged on float values to a point off the real axis that
                # the exact test cannot certify: refine it exactly
                promoted[i] = True
                still.append(i)
        active = still
    for i in active:  # the sweeps ran out before these froze
        _refuse_if_certified(exact, z[i])
    return list(zip(z, settled))


def _refuse_if_certified(exact: _ExactCharPoly, z: complex) -> None:
    """Raise UnsupportedSpectrumError if the inclusion disc about z misses
    the real axis; points on the axis to within rounding are not tested.  The
    message scales z and the radius back by 2^k."""
    if abs(z.imag) <= 2.0 * _EPS * abs(z):
        return
    _, r, certified = exact.newton(z)
    if certified:
        r, z = _unscaled(r, exact.k), complex(_unscaled(z.real, exact.k), _unscaled(z.imag, exact.k))
        raise UnsupportedSpectrumError(
            f"non-real eigenvalue: the disc of radius {r:.3e} about "
            f"{z.real:.17g}{z.imag:+.17g}j holds an eigenvalue and misses the real axis"
        )


def _aberth_path(exact: _ExactCharPoly, b, w, ws, lo: float, hi: float) -> list:
    """Some w_n <= 0: certify a non-real root, or bracket n real ones."""
    n = len(b)
    ab = [abs(v) for v in b]
    aw = [abs(v) for v in w]
    approx = _aberth(b, w, ab, aw, exact)
    seeds, settled = zip(*sorted((z.real, done) for z, done in approx))
    if not all(math.isfinite(x) for x in seeds):
        raise NumericFailureError("Ehrlich-Aberth iteration diverged")
    cuts = [lo] + [0.5 * (x + y) for x, y in zip(seeds, seeds[1:])] + [hi]
    signs = []
    for x in cuts:
        p, _, e = _cp_complex(b, w, ab, aw, complex(x))
        signs.append((p.real > 0.0) - (p.real < 0.0) if abs(p) > e else exact.sign(x))
    if any(s * t >= 0 for s, t in zip(signs, signs[1:])):
        raise NumericFailureError(f"could not bracket {n} distinct real roots by sign changes")
    return [
        x if done else _polish(b, w, ws, a, c, sa, x)
        for x, done, a, c, sa in zip(seeds, settled, cuts, cuts[1:], signs)
    ]


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
    try:
        b, w = _exact_entries(*_tridiagonal(M))
    except (OverflowError, ValueError):  # the ratio of an inf or a NaN
        raise InvalidParameterError("matrix entries must be finite") from None
    k = _prescale(b, w)
    if k >= 0:
        exact = _ExactCharPoly([(n, d << k) for n, d in b], [(n, d << 2 * k) for n, d in w], k)
    else:
        exact = _ExactCharPoly([(n << -k, d) for n, d in b], [(n << -2 * k, d) for n, d in w], k)
    b = [n / d for n, d in exact.b]  # rounded once
    w = [n / d for n, d in exact.w[1:]]
    n = len(b)
    if n == 1:
        return [_unscaled(b[0], k)]
    # Gershgorin discs of the diagonally symmetrized matrix, whose off-diagonal
    # entries in row i have moduli sqrt|w_{i-1}| and sqrt|w_i|
    root_w = [0.0] + [math.sqrt(abs(v)) for v in w] + [0.0]
    lo = min(b[i] - root_w[i] - root_w[i + 1] for i in range(n))
    hi = max(b[i] + root_w[i] + root_w[i + 1] for i in range(n))
    pad = 1e-9 * max(abs(lo), abs(hi))  # past the bounds' rounding; _prescale puts them near 1
    lo, hi = lo - pad, hi + pad
    ws = [_split_neg(v) for v in w]
    if all(v > 0.0 for v in w):
        roots = _sturm_path(b, w, ws, lo, hi)
    else:
        roots = _aberth_path(exact, b, w, ws, lo, hi)
    return [_unscaled(x, k) for x in roots]


def _prescale(b, w) -> int:
    """An even k (so _real_roots._mid scales exactly) with 2^k near max(|b_i|, sqrt|w_i|),
    from bit lengths: M / 2^k, as in LAPACK's dsterf, is exact and keeps w,
    rounded after scaling, in range."""
    k = max([n.bit_length() - d.bit_length() for n, d in b if n]
            + [(n.bit_length() - d.bit_length()) // 2 for n, d in w if n], default=0)
    return k + (k & 1)


def _unscaled(x: float, k: int) -> float:
    """x * 2^k, or NumericFailureError past the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        raise NumericFailureError("an eigenvalue of the matrix exceeds the float range") from None

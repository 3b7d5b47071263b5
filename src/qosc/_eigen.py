"""The eigen paths behind ``opmatrix.eigenvalues``, whose docstring says how
each works.

``opmatrix.eigenvalues`` imports this module on its first call, so a process
that solves no eigenproblem compiles neither it nor _real_roots.py, the
real-root kernels of both paths.  Here are the exact characteristic
polynomial ``_ExactCharPoly``, the complex kernels and the Ehrlich-Aberth
path for a matrix with some w_n <= 0, and the prescale both paths run under.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from ._real_roots import _BIG, _DOWN, _EPS, _SMALL, _UP, _polish, _split_neg, _sturm_path
from .errors import InvalidParameterError, NumericFailureError, UnsupportedSpectrumError
from .opmatrix import _exact_det, _exact_entries, _tridiagonal

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


def eigenvalues(M) -> list:
    """``opmatrix.eigenvalues``: both paths, on M / 2^k."""
    try:
        b, w = _exact_entries(*_tridiagonal(M))
    except (OverflowError, ValueError):  # the ratio of an inf or a NaN
        raise InvalidParameterError("matrix entries must be finite") from None
    except TypeError:  # an entry that is no numbers.Real: complex, None, str
        raise InvalidParameterError("matrix entries must be real numbers") from None
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

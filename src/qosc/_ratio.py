"""Exact input on plain integers, reduced once per output entry.

``opmatrix._exact_route`` returns this module when every value is exactly an
int or a fractions.Fraction and one is a Fraction.  Its three routes keep the
value, type and refusals of Fraction arithmetic: the builders run their own
code with each Fraction parameter an unreduced ``Ratio`` and ``reduced`` on
each output entry (``representation._ratio_route``), ``band_mul`` takes
``_exact_band_mul`` and ``char_poly_eval`` takes ``_char_poly``.

A ``Ratio`` takes no gcd.  ``float(r)`` is n / d, with the bits and the
OverflowError of ``float(Fraction(n, d))``; with a float a Ratio works on n / d
and compares exactly (NaN and +-inf included) as Fraction does, so an int q
still makes floats where ``q**-k`` does.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .opmatrix import BandMatrix, _exact_det, _exact_entries, _ratios


class Ratio:
    """n / d for ints n and d > 0, kept unreduced."""

    __slots__ = ("n", "d")
    __hash__ = None

    def __init__(self, n: int, d: int) -> None:
        self.n, self.d = n, d

    def _float(self, other, op):
        """op(n / d, other) for a float ``other``, as Fraction does; else NotImplemented."""
        return op(self.n / self.d, other) if type(other) is float else NotImplemented

    def __add__(self, other):
        if type(other) is Ratio:
            return Ratio(self.n * other.d + other.n * self.d, self.d * other.d)
        if type(other) is int:
            return Ratio(self.n + other * self.d, self.d)
        return self._float(other, operator.add)

    __radd__ = __add__  # float + and * commute, so op(n / d, other) serves both orders

    def __sub__(self, other):
        if type(other) is Ratio:
            return Ratio(self.n * other.d - other.n * self.d, self.d * other.d)
        if type(other) is int:
            return Ratio(self.n - other * self.d, self.d)
        return self._float(other, operator.sub)

    def __rsub__(self, other):
        if type(other) is int:
            return Ratio(other * self.d - self.n, self.d)
        return other - self.n / self.d if type(other) is float else NotImplemented

    def __mul__(self, other):
        if type(other) is Ratio:
            return Ratio(self.n * other.n, self.d * other.d)
        if type(other) is int:
            return Ratio(self.n * other, self.d)
        return self._float(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Ratio:
            return _ratio(self.n * other.d, self.d * other.n)
        if type(other) is int:
            return _ratio(self.n, self.d * other)
        return self._float(other, operator.truediv)

    def __rtruediv__(self, other):
        if type(other) is int:
            return _ratio(other * self.d, self.n)
        return other / (self.n / self.d) if type(other) is float else NotImplemented

    def __pow__(self, k):
        if type(k) is not int:
            return NotImplemented
        if k >= 0:
            return Ratio(self.n**k, self.d**k)
        return _ratio(self.d**-k, self.n**-k)

    def __neg__(self):
        return Ratio(-self.n, self.d)

    def __abs__(self):
        return Ratio(abs(self.n), self.d)

    def __bool__(self) -> bool:
        return self.n != 0

    def __float__(self) -> float:
        return self.n / self.d

    def _compare(self, other, op):
        """op(self, other) decided exactly; a NaN or an infinite float is
        compared with 0.0 in place of self, as Fraction does."""
        if type(other) is Ratio:
            m, e = other.n, other.d
        elif type(other) is int:
            m, e = other, 1
        elif type(other) is float:
            if not math.isfinite(other):
                return op(0.0, other)
            m, e = other.as_integer_ratio()
        else:
            return NotImplemented
        return op(self.n * e, m * self.d)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)


def _ratio(n: int, d: int) -> Ratio:
    """n / d with its sign moved onto n; ZeroDivisionError when d is 0."""
    if d > 0:
        return Ratio(n, d)
    if d:
        return Ratio(-n, -d)
    raise ZeroDivisionError(f"Ratio({n}, 0)")


def reduced(values) -> tuple:
    """Each Ratio of ``values`` as one reduced Fraction; an int or a float
    stays as it is, as it does in Fraction arithmetic when no Fraction touched it."""
    return tuple(Fraction(v.n, v.d) if type(v) is Ratio else v for v in values)


def _exact_band_mul(A: BandMatrix, B: BandMatrix, size: int) -> BandMatrix:
    """``band_mul`` on int and Fraction entries, over the same band pairs and rows.

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
    return BandMatrix(size, {k: [Fraction(x, y) if f else x for x, y, f in zip(*acc)]
                             for k, acc in out.items()})


def _char_poly(M: BandMatrix, bands, x) -> Fraction:
    """``char_poly_eval`` at x on exact input: ``_exact_det`` at X / d over M's
    lift, and one Fraction at the end, or Fraction(0) at once when it is 0."""
    X, d = x.as_integer_ratio()
    steps, E = _lift(M, bands)
    P = _exact_det(steps, X, d)
    return Fraction(P, d ** len(steps) * E) if P else Fraction(0)


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

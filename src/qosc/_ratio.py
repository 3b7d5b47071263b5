"""Unreduced rationals for the exact recurrence builders.

A ``Ratio`` is a pair of ints (n, d) with d > 0 that stands for n / d and is
never reduced.  ``+ - * /`` and ``**`` by an int, between Ratios or with an
int, are done on plain integers with no gcd, where every fractions.Fraction
result pays one or two.  ``big_q_jacobi``, ``askey_wilson`` and
``q_para_krawtchouk`` in families.py and ``build_general`` in
representation.py run their own code on Ratios when every parameter is
exactly a Fraction (``representation._ratio_route``), and ``reduced`` turns
each output entry into one Fraction: the value Fraction arithmetic gives, in
its type.  The module is imported only then.

Every decision those builders take reads floats, and ``float(r)`` is n / d,
Python's correctly rounded int division, which gives the bits of
``float(Fraction(n, d))`` and raises OverflowError where it does.  A
comparison with a float is exact and treats NaN and +-inf as Fraction does,
so every refusal falls where it falls in Fraction arithmetic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class Ratio:
    """n / d for ints n and d > 0, kept unreduced."""

    __slots__ = ("n", "d")
    __hash__ = None

    def __init__(self, n: int, d: int) -> None:
        self.n, self.d = n, d

    def __add__(self, other):
        if type(other) is Ratio:
            return Ratio(self.n * other.d + other.n * self.d, self.d * other.d)
        if type(other) is int:
            return Ratio(self.n + other * self.d, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Ratio:
            return Ratio(self.n * other.d - other.n * self.d, self.d * other.d)
        if type(other) is int:
            return Ratio(self.n - other * self.d, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return Ratio(other * self.d - self.n, self.d)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is Ratio:
            return Ratio(self.n * other.n, self.d * other.d)
        if type(other) is int:
            return Ratio(self.n * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Ratio:
            return _ratio(self.n * other.d, self.d * other.n)
        if type(other) is int:
            return _ratio(self.n, self.d * other)
        return NotImplemented

    def __rtruediv__(self, other):
        if type(other) is int:
            return _ratio(other * self.d, self.n)
        return NotImplemented

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


def _ratio(n: int, d: int) -> Ratio:
    """n / d with its sign moved onto n; ZeroDivisionError when d is 0."""
    if d > 0:
        return Ratio(n, d)
    if d:
        return Ratio(-n, -d)
    raise ZeroDivisionError(f"Ratio({n}, 0)")


def reduced(values) -> tuple:
    """Each Ratio of ``values`` as one reduced Fraction; an int stays an int,
    as it does in Fraction arithmetic when nothing touched it."""
    return tuple(v if type(v) is int else Fraction(v.n, v.d) for v in values)

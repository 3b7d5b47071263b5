"""Shared numeric plumbing: tolerance policy, Laurent polynomials.

All arithmetic here is duck-typed on purpose: the same code paths run with
floats and with exact types such as fractions.Fraction, which keeps exact-input
computations exact end to end.  For the same reason the Laurent arithmetic has
no pruning threshold: a coefficient is dropped only when it equals 0, so a
rounding-level remainder, an inf or a NaN is kept and shows in ``mass()``.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import InvalidParameterError

@record
class TolerancePolicy:
    """How residual checks turn a raw magnitude into pass/fail.

    The effective tolerance for a comparison made at magnitude ``scale`` is
    ``max(abs_tol, rel_tol * max(1, scale))``: the scale never tightens a check
    below its absolute floor, and scales below 1 do not shrink it either.  A NaN
    scale gives a NaN tolerance, which fails every check judged at it.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise InvalidParameterError("tolerances must be positive")
        if not (self.abs_tol < math.inf and self.rel_tol < math.inf):  # NaN fails too
            raise InvalidParameterError("tolerances must be finite")

    def effective(self, scale: float = 1.0) -> float:
        return max(self.rel_tol * max(float(scale), 1.0), self.abs_tol)


def _worst_of(values) -> tuple:
    """(largest value, its index), the first on ties: the sequence twin of
    opmatrix._worst.  The first NaN counts as the largest (max() may drop it),
    so a check judged on it fails; (0.0, None) when no value exceeds 0."""
    worst, loc = 0.0, None
    for i, v in enumerate(values):
        if not v <= worst:  # true for v > worst and for NaN
            worst, loc = v, i
            if v != v:
                break
    return worst, loc


class LaurentPoly:
    """Sparse Laurent polynomial: maps integer degree -> coefficient.

    Treated as immutable by convention; arithmetic goes through the module
    functions below, which drop a coefficient only when it is exactly zero, so
    a NaN, an inf or a rounding-level remainder stays visible.
    Compared by value, and unhashable since the dict it wraps is mutable.
    """

    __hash__ = None

    def __init__(self, coeffs: dict | None = None) -> None:
        self.coeffs = {} if coeffs is None else coeffs
        for k in self.coeffs:
            if not isinstance(k, int):
                raise InvalidParameterError("degrees must be integers")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(coeffs={self.coeffs!r})"

    def mass(self) -> float:
        """Sum of absolute coefficient values (the l1 mass)."""
        return sum(abs(c) for c in self.coeffs.values())


def _pruned(coeffs: dict) -> LaurentPoly:
    return LaurentPoly({k: c for k, c in sorted(coeffs.items()) if c != 0})


def laurent_scale_arg(p: LaurentPoly, q) -> LaurentPoly:
    """f(x) -> f(q*x): multiplies the degree-k coefficient by q**k."""
    if q == 0:
        raise InvalidParameterError("argument scale must be nonzero")
    return LaurentPoly({k: c * q**k for k, c in sorted(p.coeffs.items())})


def laurent_add(p1: LaurentPoly, p2: LaurentPoly) -> LaurentPoly:
    out = dict(p1.coeffs)
    for k, c in p2.coeffs.items():
        out[k] = out.get(k, 0) + c
    return _pruned(out)


def laurent_mul(p1: LaurentPoly, p2: LaurentPoly) -> LaurentPoly:
    out: dict = {}
    for k1, c1 in p1.coeffs.items():
        for k2, c2 in p2.coeffs.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return _pruned(out)


def laurent_scale(c, p: LaurentPoly) -> LaurentPoly:
    return _pruned({k: c * v for k, v in p.coeffs.items()})

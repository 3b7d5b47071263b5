"""Error taxonomy shared across the package.

Every failure mode raised by the library is a subclass of QoscError carrying a
short machine-readable ``kind`` slug; the CLI maps any QoscError to exit
status 2 (parameter / contract errors) while check failures use exit status 1.
"""

from __future__ import annotations


class QoscError(Exception):
    """Base class for all library errors."""

    kind = "error"


class InvalidParameterError(QoscError):
    kind = "invalid-parameter"


class TooSmallError(InvalidParameterError):
    kind = "too-small"


class SizeGuardError(InvalidParameterError):
    """Requested size exceeds the overflow guard for the given q."""

    kind = "overflow-guard"


class ResonanceError(InvalidParameterError):
    """A structural denominator vanished (gamma_n, y_n or a 1 - c1*c2*q^k factor)."""

    kind = "resonance"


class ReducibleRepresentationError(QoscError):
    """Some u_n vanished: the tridiagonal pair is not irreducible."""

    kind = "reducible-representation"


class InvalidNormalizationError(QoscError):
    """Matrix does not carry the expected monic normalization (unit subdiagonal)."""

    kind = "invalid-normalization"


class NotAQOscillatorError(QoscError):
    """Bands violate the geometric laws / commutator of a q-oscillator pair."""

    kind = "not-a-q-oscillator-representation"


class NumericFailureError(QoscError):
    kind = "numeric-failure"


class UnsupportedSpectrumError(QoscError):
    """Spectrum is not real and simple as required."""

    kind = "unsupported-spectrum"


class NotMonicReducibleError(QoscError):
    """A subdiagonal entry vanishes; no diagonal similarity reaches monic form."""

    kind = "not-reducible-to-monic"


class SpectrumMismatchError(QoscError):
    kind = "spectrum-mismatch"


class NotDecomposableError(QoscError):
    kind = "not-decomposable-by-this-method"


class UnsupportedFamilyError(QoscError):
    kind = "unsupported-family"

"""Tridiagonal representations of the q-oscillator relation A@B - q*B@A = I.

The two-parameter family of geometric bands xi_n = xi0 * q**-n,
zeta_n = zeta0 * q**n, together with the constants (s1, s2), produces the most
general irreducible tridiagonal pair with A monic.  ``build_general``
constructs the truncation, ``classify`` inverts it from raw matrices,
``canonical_pair`` gives the diagonal/bidiagonal normal form, and
``decompose`` splits a pair into irreducible blocks along geometric chains of
the spectrum of A.
"""

from __future__ import annotations

import math
import operator

from ._record import record
from .errors import (
    InvalidNormalizationError,
    InvalidParameterError,
    NotAQOscillatorError,
    NotDecomposableError,
    ReducibleRepresentationError,
    ResonanceError,
    TooSmallError,
)
from .numerics import TolerancePolicy, _worst_of
from .opmatrix import (
    BandMatrix,
    _exact_route,
    _judge,
    _tridiagonal,
    _worst,
    band_sub,
    band_tridiagonal,
    guard_size,
    eigenvalues,
    q_commutator_residual,
)

# Relative floor below which a structural denominator counts as resonant and
# a u_n counts as a vanished off-diagonal (reducible truncation).
_DEGENERACY_RTOL = 1e-10


def _refuse_vanishing(value, scale: float, error: type, label: str, index: int, why: str = "") -> None:
    """Raise ``error`` when |float(value)| <= _DEGENERACY_RTOL * scale: the one test
    behind every builder refusal, so a builder reads a value through ``float()``
    only and never compares it.  The refusal reads "{name} vanishes{why}", its
    name ``label.format(index)`` formatted only then.  Against a scale that left
    the float range the test cannot tell a zero, so it raises OverflowError
    (infinite scale) or ZeroDivisionError (zero scale) naming the quantity; a
    NaN value or scale, or an infinite value at a finite scale, does not vanish.
    """
    if abs(float(value)) <= _DEGENERACY_RTOL * scale:
        name = label.format(index)
        if scale == math.inf:
            raise OverflowError(f"the scale of {name} overflows")
        if scale == 0:
            raise ZeroDivisionError(f"the scale of {name} underflows")
        raise error(f"{name} vanishes{why}")


def _nonresonant(a, b, label: str, index: int):
    """a - b, refused with ResonanceError by ``_refuse_vanishing`` when it vanishes
    relative to |a| + |b|; the test runs in floats, so exact inputs pay no
    big-integer arithmetic for it."""
    d = a - b
    _refuse_vanishing(d, abs(float(a)) + abs(float(b)), ResonanceError, label, index)
    return d


def _ratio_route(*values):
    """(values, out) for a builder: on exact input (``_exact_route``) each Fraction
    as an unreduced ``_ratio.Ratio`` and ``out`` ``_ratio.reduced``, which makes
    one Fraction of each; else the values as they are and ``out`` ``tuple``."""
    exact = _exact_route(values[0], [values])
    if not exact:
        return values, tuple  # a float q costs one test
    ratio = exact.Ratio
    return [v if type(v) is int else ratio(v.numerator, v.denominator) for v in values], exact.reduced


def _check_q(q) -> None:
    if q == 0 or q == 1 or q == -1:
        raise InvalidParameterError("q must avoid 0, 1, -1")


@record
class GeneralParams:
    """Parameters (q, xi0, zeta0, s1, s2) of the general tridiagonal pair."""

    q: object
    xi0: object
    zeta0: object
    s1: object
    s2: object

    def __post_init__(self) -> None:
        _check_q(self.q)
        if self.xi0 == 0 or self.zeta0 == 0:
            raise InvalidParameterError("xi0 and zeta0 must be nonzero")


@record
class StructuredParams:
    """Parameters (q, c1, c2, c3) of the big q-Jacobi-type operators."""

    q: object
    c1: object
    c2: object
    c3: object

    def __post_init__(self) -> None:
        _check_q(self.q)
        if self.c1 == 0 or self.c3 == 0:
            raise InvalidParameterError("c1 and c3 must be nonzero")


@record
class AWParams:
    """Askey-Wilson parameters (q, a1, a2, a3, a4)."""

    q: object
    a1: object
    a2: object
    a3: object
    a4: object

    def __post_init__(self) -> None:
        _check_q(self.q)
        if self.a1 == 0:
            raise InvalidParameterError("a1 must be nonzero")

    @property
    def g(self):
        return self.a1 * self.a2 * self.a3 * self.a4


@record
class GeneralSolutionTrace:
    """All intermediate sequences of a build_general run.

    Index ranges: xi, zeta, y, K, b, eta, u cover n = 0..size-1 (with u[0] = 0
    by convention); z covers n = 0..size-1; gamma covers n = 0..size since b_n
    needs gamma_{n+1}.
    """

    xi: tuple
    zeta: tuple
    z: tuple
    gamma: tuple
    y: tuple
    K: tuple
    s0: object
    b: tuple
    eta: tuple
    u: tuple


def build_general(p: GeneralParams, size: int):
    """Truncated pair (A, B, trace) of the general solution.

    A is monic tridiagonal (unit subdiagonal, diagonal b_n, superdiagonal u_n);
    B has subdiagonal xi_n, diagonal eta_n, superdiagonal zeta_{n+1} * u_{n+1}.
    Raises ResonanceError when a gamma_n or y_n denominator vanishes in range
    and ReducibleRepresentationError when some u_n vanishes (n = 1..size-1),
    or OverflowError (ZeroDivisionError) when the scale it vanishes against is
    infinite (zero).

    Exact parameters take the builders' route of _ratio.py: the value and
    type of Fraction arithmetic (u_0 stays the int 0), every refusal at the
    same index.
    """
    if size < 3:
        raise TooSmallError("size must be >= 3")
    guard_size(p.q, size)
    (q, xi0, zeta0, s1, s2), out = _ratio_route(p.q, p.xi0, p.zeta0, p.s1, p.s2)

    qp = {k: q**k for k in range(-size, size + 2)}
    xi = [xi0 * qp[-n] for n in range(size + 1)]  # n = 0..size, each formed once
    zeta = [zeta0 * qp[n] for n in range(size + 1)]

    gamma = [_nonresonant(xi[n], zeta[n], "gamma_{}", n) for n in range(size + 1)]
    y = [_nonresonant(xi[n], zeta[n + 1], "y_{}", n) for n in range(size)]

    z = [xi[n] + zeta[n + 1] for n in range(size)]

    b, eta = [], []
    s1xi0, s1zeta0, q1s2, s1xz = s1 * xi0, s1 * zeta0, (q + 1) * s2, s1 * xi0 * zeta0 * (q + 1)
    for n in range(size):
        den = gamma[n] * gamma[n + 1]
        b.append((s1 * z[n] + q1s2) / den)
        eta.append((s1xz + s2 * z[n]) / den)

    K = [qp[2 - n] * (s2 + s1zeta0 * qp[n]) * (s2 * qp[n] + s1xi0) / gamma[n] ** 2 for n in range(size)]
    s0 = q * (xi0 + zeta0) / (q - 1) - K[0]

    u = [0]
    shift = 1 / q - 1
    shift_abs, s0_abs = abs(float(shift)), abs(float(s0))
    for n in range(1, size):
        yy = y[n] * y[n - 1]
        un = ((xi[n] + zeta[n]) / shift + K[n] + s0) / yy
        floor = (
            (abs(float(xi[n])) + abs(float(zeta[n]))) / shift_abs + abs(float(K[n])) + s0_abs
        ) / abs(float(yy))
        _refuse_vanishing(un, floor, ReducibleRepresentationError, "u_{}", n,
                          ": truncation is reducible")
        u.append(un)

    xi, zeta, z, gamma, y, K, (s0,), b, eta, u = map(
        out, (xi[:size], zeta[:size], z, gamma, y, K, (s0,), b, eta, u))
    A = band_tridiagonal((1,) * (size - 1), b, u[1:])
    B = band_tridiagonal(xi[1:], eta, tuple(zeta[n] * u[n] for n in range(1, size)))
    return A, B, GeneralSolutionTrace(xi, zeta, z, gamma, y, K, s0, b, eta, u)


def _read_tridiagonal_pair(A: BandMatrix, B: BandMatrix):
    """Extract (b, u, xi, eta, zeta) sequences; A must be monic tridiagonal."""
    if A.size != B.size:
        raise InvalidParameterError("size mismatch")
    size = A.size
    if size < 3:
        raise TooSmallError("band sequences need size >= 3")
    (ones, b, u), (xi, eta, zu) = _tridiagonal(A), _tridiagonal(B)
    if any(abs(s - 1) > 1e-12 for s in ones):
        raise InvalidNormalizationError("A must have unit subdiagonal")
    u = [0, *u]
    for n in range(1, size):
        if u[n] == 0:
            raise ReducibleRepresentationError(f"u_{n} = 0: pair is not irreducible")
    zeta = [None] + [z / un for z, un in zip(zu, u[1:])]
    return b, u, [None, *xi], eta, zeta


@record
class XiResiduals:
    """The five band conditions equivalent to A@B - q*B@A = I.

    With size = N+1: xi1/xi5 cover n = 2..N, xi2/xi4 cover n = 1..N and xi3
    covers n = 0..N-1 (the n = 0 term uses u_0 = 0).
    """

    xi1: tuple
    xi2: tuple
    xi3: tuple
    xi4: tuple
    xi5: tuple

    def max_abs(self) -> float:
        """The largest |residual|, or NaN when any residual is NaN."""
        seqs = (self.xi1, self.xi2, self.xi3, self.xi4, self.xi5)
        return _worst_of(abs(float(v)) for seq in seqs for v in seq)[0]


def xi_residuals(A: BandMatrix, B: BandMatrix, q) -> XiResiduals:
    """Evaluate the five structural conditions on a monic tridiagonal pair."""
    _check_q(q)
    b, u, xi, eta, zeta = _read_tridiagonal_pair(A, B)
    N = A.size - 1
    xi1 = tuple(xi[n - 1] - q * xi[n] for n in range(2, N + 1))
    xi5 = tuple(zeta[n] - q * zeta[n - 1] for n in range(2, N + 1))
    xi2 = tuple(xi[n] * (b[n] - q * b[n - 1]) + eta[n - 1] - q * eta[n] for n in range(1, N + 1))
    xi4 = tuple(zeta[n] * (b[n - 1] - q * b[n]) + eta[n] - q * eta[n - 1] for n in range(1, N + 1))
    xi3 = []
    for n in range(0, N):
        zu_n = zeta[n] * u[n] if n >= 1 else 0
        xu_n = xi[n] * u[n] if n >= 1 else 0
        xi3.append(
            zu_n
            - q * zeta[n + 1] * u[n + 1]
            + xi[n + 1] * u[n + 1]
            - q * xu_n
            + (1 - q) * b[n] * eta[n]
            - 1
        )
    return XiResiduals(xi1, xi2, tuple(xi3), xi4, xi5)


def _require_q_oscillator(A: BandMatrix, B: BandMatrix, q, pol: TolerancePolicy) -> None:
    """Raise NotAQOscillatorError unless A@B - q*B@A = I within tolerance."""
    comm = q_commutator_residual(A, B, q, None, pol)
    if not comm.passed:
        raise NotAQOscillatorError(
            f"q-commutator residual {comm.max_abs:.3e} exceeds {comm.tolerance:.3e}"
        )


def classify(A: BandMatrix, B: BandMatrix, q, pol: TolerancePolicy = TolerancePolicy()):
    """Recover GeneralParams from a raw pair and report the refit residual.

    Validates the q-commutator and the geometric band laws first
    (NotAQOscillatorError on violation), then reads (xi0, zeta0) off the first
    band entries, inverts (b_0, eta_0) for (s1, s2), rebuilds, and compares
    every stored band entry.  The report's max_abs is the worst deviation
    normalized by max(1, |reference entry|).
    """
    _require_q_oscillator(A, B, q, pol)
    b, u, xi, eta, zeta = _read_tridiagonal_pair(A, B)
    size = A.size
    if xi[1] == 0 or zeta[1] == 0:
        raise NotAQOscillatorError("first band entries xi_1, zeta_1 must be nonzero")
    xi0 = q * xi[1]
    zeta0 = zeta[1] / q
    for n in range(1, size):
        want_xi = xi0 * q**-n
        want_zeta = zeta0 * q**n
        if abs(float(xi[n] - want_xi)) > pol.effective(abs(float(want_xi))):
            raise NotAQOscillatorError(f"xi_{n} violates the geometric law")
        if abs(float(zeta[n] - want_zeta)) > pol.effective(abs(float(want_zeta))):
            raise NotAQOscillatorError(f"zeta_{n} violates the geometric law")
    z0 = xi0 + zeta0 * q
    s1 = (z0 * b[0] - (q + 1) * eta[0]) / q
    s2 = (z0 * eta[0] - (q + 1) * xi0 * zeta0 * b[0]) / q
    params = GeneralParams(q, xi0, zeta0, s1, s2)
    A2, B2, _ = build_general(params, size)
    scans = (_worst(band_sub(A, A2), ref=A), _worst(band_sub(B, B2), ref=B))
    worst, i = _worst_of(w for w, _ in scans)
    loc = None if i is None else scans[i][1]
    return params, _judge(worst, loc, (0, size - 1), 1.0, pol.effective(1.0))


def canonical_pair(a, q, size: int):
    """Diagonal/bidiagonal normal form: A = diag(a * q**-n), B upper bidiagonal.

    B has diagonal a' * q**n with a' = 1/(a*(1-q)) and unit superdiagonal; the
    commutator identity holds entrywise on every row of the truncation, last
    row included.  No size guard: entries are exact powers and the identity is
    float-exact to a few ulp regardless of spread.
    """
    if q == 0 or q == 1:
        raise InvalidParameterError("q must avoid 0 and 1")
    if a == 0:
        raise InvalidParameterError("a must be nonzero")
    if size < 1:
        raise InvalidParameterError("size must be >= 1")
    adiag = [a]
    for _ in range(size - 1):
        adiag.append(adiag[-1] / q)
    ap = 1 / (a * (1 - q))
    bdiag = [ap]
    for _ in range(size - 1):
        bdiag.append(bdiag[-1] * q)
    A = BandMatrix(size, {0: tuple(adiag)})
    bands = {0: tuple(bdiag)}
    if size > 1:
        bands[1] = (1,) * (size - 1)
    B = BandMatrix(size, bands)
    return A, B


# Relative tolerance for matching successive points of a geometric chain.
# Chain gaps are a full factor of 1/q apart while eigenvalues are accurate to
# ~1e-9 relative, so a fixed 1e-6 window separates the two regimes safely.
_CHAIN_RTOL = 1e-6


def _geometric_chains(values: list, q) -> list:
    """Partition values into maximal chains v, v r, v r^2, ... from the smallest
    |v| up, where r = 1/q for |q| < 1 and r = q for |q| > 1."""
    order = sorted(range(len(values)), key=lambda i: abs(values[i]))
    used = [False] * len(values)
    chains = []
    for start in order:
        if used[start]:
            continue
        chain = [values[start]]
        used[start] = True
        while True:
            target = chain[-1] * q if abs(q) > 1 else chain[-1] / q
            best, best_err = None, None
            for j in order:
                if used[j]:
                    continue
                err = abs(values[j] - target)
                if err <= _CHAIN_RTOL * max(abs(target), 1e-300) and (best is None or err < best_err):
                    best, best_err = j, err
            if best is None:
                break
            chain.append(values[best])
            used[best] = True
        chains.append(chain)
    return chains


def decompose(A: BandMatrix, B: BandMatrix, q, pol: TolerancePolicy = TolerancePolicy()):
    """Split a q-oscillator pair into irreducible blocks.

    Computes the spectrum of A, groups it into maximal geometric chains with
    ratio 1/q (q when |q| > 1), certifies via eigenvectors of A that B is
    block preserving, and returns [(ascending block spectrum, block size)]
    ordered by smallest eigenvalue.  The certificate is pure Python and needs
    no linear solve: for each eigenvalue lambda, a column v and a row y of the
    adjugate of the tridiagonal A - lambda I are its right and left
    eigenvectors, read off the three-term minor recurrences in O(size).  With
    every v at unit 2-norm, Bt = V^-1 B V has entries (y_s . B v_t) /
    (y_s . v_s); its off-block mass is judged at the scale of Bt.  Raises
    NotDecomposableError when some y_s . v_s is 0.0 (V is singular or too
    ill-conditioned) or the off-block mass fails at that scale (a NaN in Bt fails).
    """
    _require_q_oscillator(A, B, q, pol)
    ev = eigenvalues(A)
    chains = _geometric_chains(ev, q)
    chains.sort(key=lambda c: min(c))

    size = A.size
    bands = [(max(0, -k), k, [float(b) for b in band]) for k, band in B.bands.items()]
    Y, BV = [], []  # the rows of V^-1 and the columns of B V
    for lam in (lam for chain in chains for lam in chain):
        v, y = _adjugate_vectors(A, lam)
        yv = sum(map(operator.mul, y, v))
        if yv == 0.0:
            raise NotDecomposableError("in floats the left and right eigenvectors are orthogonal:"
                                       " V is singular or too ill-conditioned to certify")
        norm = math.hypot(*v)
        Y.append([x * norm / yv for x in y])
        bv = [0.0] * size
        for i0, k, band in bands:
            i1 = i0 + len(band)
            bv[i0:i1] = map(operator.add, bv[i0:i1], map(operator.mul, band, v[i0 + k:i1 + k]))
        BV.append([x / norm for x in bv])

    off = peak = 0.0
    end = 0
    for chain in chains:  # the columns start..end-1 form one block
        start, end = end, end + len(chain)
        for bv in BV[start:end]:
            mags = [abs(sum(map(operator.mul, y, bv))) for y in Y]
            peak = _worst_of((peak, *mags))[0]  # a NaN stays, where max() may drop it
            off = _worst_of((off, *mags[:start], *mags[end:]))[0]
    bscale = max(peak, 1.0)  # max() keeps its first argument unless a later one is larger
    tol = pol.effective(bscale)
    if not _judge(off, None, (0, size - 1), bscale, tol).passed:
        raise NotDecomposableError(f"off-block mass {off:.3e} exceeds {tol:.3e}")
    return [(tuple(sorted(chain)), len(chain)) for chain in chains]


# -- eigenvectors ---------------------------------------------------------------


def _scaled_minors(d, w0) -> list:
    """Leading principal minors 1, det T[:1, :1], ..., det T as frexp pairs.

    T is tridiagonal with diagonal d and w0[k] = T[k, k-1] * T[k-1, k]
    (w0[0] = 0).  Each minor is stored as (mantissa, binary exponent), and
    after each step the running pair is divided by the power of two that puts
    the newest minor's mantissa in [1/2, 1).  So no minor overflows or
    underflows while the entries and the ratios of neighbouring minors stay
    within the float range, and a scaling by a power of two rounds as the
    unscaled recurrence would.
    """
    out = [(0.5, 1)]
    p0, p1, e = 0.0, 1.0, 0
    for dk, wk in zip(d, w0):
        p0, p1 = p1, dk * p1 - wk * p0
        m, x = math.frexp(p1)
        out.append((m, x + e))
        if m:  # a zero minor leaves the pair as it is
            p0, p1, e = math.ldexp(p0, -x), m, e + x
    return out


def _adjugate_vectors(M: BandMatrix, lam: float):
    """(v, y): column and row j of adj(M - lam I) for tridiagonal M, in floats.

    With T = M - lam I, r its superdiagonal, l its subdiagonal, theta_k its
    leading and phi_k its trailing principal minors (theta_{-1} = phi_n = 1):

        adj(T)[i, j] = (-1)^(i+j) r_i...r_{j-1} theta_{i-1} phi_{j+1}   (i <= j)
        adj(T)[i, j] = (-1)^(i+j) l_j...l_{i-1} theta_{j-1} phi_{i+1}   (i >= j)

    When lam is a simple eigenvalue, T adj(T) = adj(T) T = det(T) I = 0, so
    column j is a right and row j a left eigenvector.  j is the twist index
    that maximises |adj(T)[j, j]| = |theta_{j-1} phi_{j+1}|, the column least
    spoilt by the rounding of lam (Fernando, SIAM J. Matrix Anal. Appl. 18,
    1997).  Each vector is scaled by a power of two so that its largest entry
    lies in [1/4, 1); it can only be zero when lam is not simple.  O(size);
    no linear solve.
    """
    n = M.size
    l, d, r = ([float(x) for x in band] for band in _tridiagonal(M))
    d = [x - lam for x in d]
    w0 = [0.0] + [a * b for a, b in zip(l, r)]
    theta = _scaled_minors(d, w0)  # theta[k] = theta_{k-1}
    phi = _scaled_minors(d[::-1], [0.0] + w0[:0:-1])[::-1]  # phi[k] = phi_k
    twist = [(tm * pm, te + pe) for (tm, te), (pm, pe) in zip(theta, phi[1:])]
    mags = _unit_scaled(twist)
    j = mags.index(max(mags, key=abs))

    def column(up, down) -> list:
        out = [twist[j]] * n
        m, e = phi[j + 1]
        for i in range(j - 1, -1, -1):
            m, x = math.frexp(-up[i] * m)
            e += x
            tm, te = theta[i]
            out[i] = (m * tm, e + te)
        m, e = theta[j]
        for i in range(j + 1, n):
            m, x = math.frexp(-down[i - 1] * m)
            e += x
            pm, pe = phi[i + 1]
            out[i] = (m * pm, e + pe)
        return _unit_scaled(out)

    return column(r, l), column(l, r)


def _unit_scaled(pairs) -> list:
    """The values m * 2**e of (m, e) pairs, all scaled by the one power of two
    that puts the largest in [1/4, 1) when every nonzero m lies in [1/4, 1)."""
    top = max((e for m, e in pairs if m), default=0)
    return [math.ldexp(m, e - top) for m, e in pairs]

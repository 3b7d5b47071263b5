"""Tridiagonalization of the big q-Jacobi operator pair.

Z is the diagonal eigenvalue operator z_n = c1*c2*q**(n+1) + q**-n in the
polynomial eigenbasis; the companion operator B = r1*(Z@A - q*A@Z) + r0*I
completes A (multiplication by x) to a q-oscillator pair.  General pencils
W = tau1*Z@A + tau2*A@Z + tau3*A + tau0*I (``build_W``; the shifted pencil
A + mu*B + lam*I is W at tau = (mu*r0 + lam, mu*r1, -q*mu*r1, 1)) reduce to
monic form by a diagonal similarity; the Askey-Wilson parameter map lands
exactly on the Askey-Wilson recurrence (``aw_match_residual``).  The same
operators act on Laurent polynomials through the q-difference realization at
the bottom, whose identities ``qdiff_residuals`` reports.
"""

from __future__ import annotations

from ._record import record
from .errors import InvalidParameterError, NotMonicReducibleError, ResonanceError, UnsupportedFamilyError
from .families import MonicRecurrence, askey_wilson, big_q_jacobi, expand_monic, jacobi_matrix
from .numerics import (
    LaurentPoly,
    TolerancePolicy,
    _worst_of,
    laurent_add,
    laurent_mul,
    laurent_scale,
    laurent_scale_arg,
)
from .opmatrix import (
    BandMatrix,
    _judge,
    _q_bracket,
    _tridiagonal,
    _worst,
    band_add,
    band_identity,
    band_mul,
    band_scale,
    band_sub,
    guard_size,
)
from .representation import AWParams, StructuredParams


def eigenvalue_sequence(p: StructuredParams, size: int) -> tuple:
    """z_n = c1*c2*q**(n+1) + q**-n for n = 0..size-1."""
    q, c12 = p.q, p.c1 * p.c2
    qp = {k: q**k for k in range(1 - size, size + 1)}  # each power of q once
    return tuple(c12 * qp[n + 1] + qp[-n] for n in range(size))


def _z_matrix(p: StructuredParams, size: int) -> BandMatrix:
    guard_size(p.q, size)
    return BandMatrix(size, {0: eigenvalue_sequence(p, size)})


def _check_distinct(z) -> None:
    """Raise ResonanceError unless the entries of ``z`` are pairwise distinct.

    z_i and z_j coincide when |z_i - z_j| <= 1e-12 * max(1, |z_i|, |z_j|).  When
    every gap between neighbours in sorted order exceeds twice that, no pair
    can coincide and the check ends in O(n log n).  Otherwise (a NaN or an inf
    fails that test too) every pair is compared, so the first coinciding
    (i, j) is the one named.
    """
    zf = [float(v) for v in z]
    s = sorted(zf)
    if all(b - a > 2e-12 * max(1.0, abs(a), abs(b)) for a, b in zip(s, s[1:])):
        return
    for i in range(len(zf)):
        for j in range(i + 1, len(zf)):
            if abs(zf[i] - zf[j]) <= 1e-12 * max(1.0, abs(zf[i]), abs(zf[j])):
                raise ResonanceError(f"z_{i} and z_{j} coincide")


def build_Z(p: StructuredParams, size: int) -> BandMatrix:
    """diag(z_0, ..., z_{size-1}), whose entries must be pairwise distinct.

    Distinctness backs the eigenbasis arguments; pencil constructions that only
    need the diagonal values (companion_b, build_W) skip the check, since e.g.
    the q-para-Krawtchouk specialization has a palindromic z sequence.
    """
    Z = _z_matrix(p, size)
    _check_distinct(Z.bands[0])
    return Z


def r_coefficients(p: StructuredParams):
    """(r0, r1) of the companion combination B = r1*(Z@A - q*A@Z) + r0*I."""
    q, c1, c2, c3 = p.q, p.c1, p.c2, p.c3
    r0 = (c1 * (c2 + 1) + c3 * (c1 + 1)) / (c1 * c3 * (1 - q**2))
    r1 = -1 / (c1 * c3 * q * (q + 1) * (1 - q) ** 2)
    return r0, r1


def companion_b(A: BandMatrix, p: StructuredParams) -> BandMatrix:
    """B = r1*(Z@A - q*A@Z) + r0*I for a given realization A of multiplication by x."""
    Z = _z_matrix(p, A.size)
    r0, r1 = r_coefficients(p)
    return band_add(band_scale(r1, _q_bracket(Z, A, p.q)), band_scale(r0, band_identity(A.size)))


@record
class WCoeffs:
    """Coefficients of the pencil W = tau1*Z@A + tau2*A@Z + tau3*A + tau0*I."""

    tau0: object
    tau1: object
    tau2: object
    tau3: object


def build_W(p: StructuredParams, w: WCoeffs, size: int) -> BandMatrix:
    A = jacobi_matrix(big_q_jacobi(p, size))
    Z = _z_matrix(p, size)
    W = band_add(
        band_scale(w.tau1, band_mul(Z, A)),
        band_scale(w.tau2, band_mul(A, Z)),
    )
    W = band_add(W, band_scale(w.tau3, A))
    return band_add(W, band_scale(w.tau0, band_identity(size)))


def to_monic(W: BandMatrix):
    """Reduce a tridiagonal W to monic form by the diagonal similarity d.

    d_0 = 1, d_{n+1} = d_n * W[n+1, n]; the monic coefficients are
    b_n = W[n, n] and u_n = W[n, n-1] * W[n-1, n].  The similarity exists
    exactly when no subdiagonal entry is 0, however small the others are: an
    entry equal to 0 raises NotMonicReducibleError.
    """
    sub, b, sup = _tridiagonal(W)
    d = [1]
    for n, s in enumerate(sub):
        if s == 0:
            raise NotMonicReducibleError(f"subdiagonal entry ({n + 1},{n}) vanishes")
        d.append(d[-1] * s)
    return MonicRecurrence(b, tuple(s * t for s, t in zip(sub, sup))), tuple(d)


def aw_parameter_map(p: AWParams):
    """(StructuredParams, WCoeffs) whose monic pencil equals the Askey-Wilson
    recurrence at parameters (a1, a2, a3, a4):

        c1 = a1*a2/q,  c2 = a3*a4/q,  c3 = a1*a3/q,
        tau1 = 1/(2*a1*a2*a3*(q - 1/q)),  tau2 = -q*tau1,
        tau3 = 1/(2*a1),
        tau0 = (q*(a2 + a3) + a2*a3*(a1 + a4)) / (2*(q + 1)*a2*a3).
    """
    q, a1, a2, a3, a4 = p.q, p.a1, p.a2, p.a3, p.a4
    if a2 == 0 or a3 == 0:
        raise InvalidParameterError("a2 and a3 must be nonzero for the parameter map")
    sp = StructuredParams(q, a1 * a2 / q, a3 * a4 / q, a1 * a3 / q)
    tau1 = 1 / (2 * a1 * a2 * a3 * (q - 1 / q))
    w = WCoeffs(
        tau0=(q * (a2 + a3) + a2 * a3 * (a1 + a4)) / (2 * (q + 1) * a2 * a3),
        tau1=tau1,
        tau2=-q * tau1,
        tau3=1 / (2 * a1),
    )
    return sp, w


def aw_match_residual(p: AWParams, count: int, pol: TolerancePolicy = TolerancePolicy()):
    """(report, direct, pencil): the Askey-Wilson recurrence of ``count``
    coefficients and the monic reduction of build_W under aw_parameter_map.

    max_abs is the largest |pencil - direct| / max(1, |direct|) over the
    entries of their Jacobi matrices, judged at ``pol.rel_tol``.
    """
    direct = askey_wilson(p, count)
    rec, _ = to_monic(build_W(*aw_parameter_map(p), count))
    J = jacobi_matrix(direct)
    dev, loc = _worst(band_sub(jacobi_matrix(rec), J), ref=J)
    return _judge(dev, loc, (0, count - 1), 1.0, pol.rel_tol), direct, rec


def companion_params(rec: MonicRecurrence) -> StructuredParams:
    """StructuredParams under which companion_b completes this family's Jacobi
    matrix to a q-oscillator pair: ``rec.params`` for big q-Jacobi, q-Hahn and
    q-para-Krawtchouk, each finite family carrying the big q-Jacobi
    specialization it is.  Other families raise UnsupportedFamilyError.
    """
    if rec.family in ("big-q-jacobi", "q-hahn", "q-para-krawtchouk"):
        return rec.params
    raise UnsupportedFamilyError(f"no companion parameters for family {rec.family!r}")


# -- q-difference realization --------------------------------------------------


def qdiff_Z_apply(f: LaurentPoly, p: StructuredParams) -> LaurentPoly:
    """The big q-Jacobi q-difference operator acting on a Laurent polynomial:

        (Z f)(x) = E(x) f(qx) + F(x) f(x/q) + (c1*c2*q + 1 - E(x) - F(x)) f(x)

    with E = c1*q*(x-1)*(c2*x-c3)/x**2 and F = (x-c1*q)*(x-c3*q)/x**2.
    Eigenpolynomials P_n satisfy Z P_n = z_n P_n.  Nothing is pruned: in
    floats, Z P_n may keep negative-degree terms at rounding level.
    """
    if not f.coeffs:
        raise InvalidParameterError("f must be nonzero")
    q, c1, c2, c3 = p.q, p.c1, p.c2, p.c3
    E = LaurentPoly({0: c1 * c2 * q, -1: -c1 * (c2 + c3) * q, -2: c1 * c3 * q})
    F = LaurentPoly({0: 1, -1: -(c1 + c3) * q, -2: c1 * c3 * q**2})
    out = laurent_mul(E, laurent_scale_arg(f, q))
    out = laurent_add(out, laurent_mul(F, laurent_scale_arg(f, 1 / q)))
    diag = laurent_add(LaurentPoly({0: c1 * c2 * q + 1}), laurent_scale(-1, laurent_add(E, F)))
    return laurent_add(out, laurent_mul(diag, f))


def qdiff_B_apply(f: LaurentPoly, p: StructuredParams) -> LaurentPoly:
    """The companion operator in the q-difference picture:

        (B f)(x) = G(x) f(x/q) + f(x) / ((1-q)*x),
        G(x) = (x - q*c1)*(x - q*c3) / (q**2*(q-1)*c1*c3*x).

    For polynomial f the 1/x terms cancel and the result is again polynomial;
    only coefficients that round to exactly 0 are dropped.
    """
    if not f.coeffs:
        raise InvalidParameterError("f must be nonzero")
    q, c1, c3 = p.q, p.c1, p.c3
    den = (q - 1) * c1 * c3
    G = LaurentPoly({1: 1 / (q**2 * den), 0: -(c1 + c3) / (q * den), -1: 1 / (q - 1)})
    out = laurent_mul(G, laurent_scale_arg(f, 1 / q))
    tail = laurent_mul(LaurentPoly({-1: 1 / (1 - q)}), f)
    return laurent_add(out, tail)


def _sequence_report(values: list, tol: float):
    worst, i = _worst_of(values)
    return _judge(worst, None if i is None else (i, i), (0, len(values) - 1), 1.0, tol)


def qdiff_residuals(p: StructuredParams, kmax: int, nmax: int, pol: TolerancePolicy = TolerancePolicy()):
    """(commutator, eigenrelation) reports of the q-difference realization.

    commutator: the l1 mass of x B f - q B(x f) - f for f = x**k, k = 0..kmax,
    judged at ``pol.abs_tol``.  eigenrelation: the mass of Z P_n - z_n P_n
    over |z_n| times the mass of P_n, for the monic big q-Jacobi P_n,
    n = 0..nmax, judged at ``pol.rel_tol``.  location = (k, k) or (n, n).
    Every coefficient the residual keeps counts, rounding-level ones too, and
    an overflow is a NaN at the first k or n where it occurs.
    """
    if kmax < 0 or nmax < 0:
        raise InvalidParameterError("kmax and nmax must be >= 0")
    x = LaurentPoly({1: 1.0})
    comm = []
    for k in range(kmax + 1):
        f = LaurentPoly({k: 1.0})
        lhs = laurent_add(laurent_mul(x, qdiff_B_apply(f, p)),
                          laurent_scale(-p.q, qdiff_B_apply(laurent_mul(x, f), p)))
        comm.append(float(laurent_add(lhs, laurent_scale(-1.0, f)).mass()))  # f has mass 1
    rec = big_q_jacobi(p, nmax + 1)
    eig = []
    for n, z in enumerate(eigenvalue_sequence(p, nmax + 1)):
        Pn = expand_monic(rec, n)
        resid = laurent_add(qdiff_Z_apply(Pn, p), laurent_scale(-z, Pn))
        eig.append(float(resid.mass()) / max(1e-300, abs(z) * float(Pn.mass())))
    return _sequence_report(comm, pol.abs_tol), _sequence_report(eig, pol.rel_tol)

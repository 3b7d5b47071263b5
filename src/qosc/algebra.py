"""Quadratic algebra satisfied by the big q-Jacobi operators and their pencils.

With A the monic big q-Jacobi Jacobi matrix, B its companion and Z the
diagonal eigenvalue operator, the triple closes on

    (i)   A@B - q*B@A = I
    (ii)  B@Z - q*Z@B = gamma1*A + delta1*I
    (iii) Z@A - q*A@Z = gamma2*B + delta2*I.

For the pencil L = A + mu*B the pair (Z, L) generates an Askey-Wilson-type
algebra: M = L@Z - q*Z@L - omega0*I satisfies

    Z@M - q*M@Z = sigma1*L + omega1*I
    M@L - q*L@M = sigma2*Z + omega2*I

on the truncation interior.  The reversed ordering L@M - q*M@L does not close
with these constants; aw_algebra_residuals measures both and records which one
passes.  Each relation is a q-bracket identity X@Y - q*Y@X = rhs, measured by
opmatrix.q_commutator_residual.
"""

from __future__ import annotations

from ._record import record
from .errors import TooSmallError
from .numerics import TolerancePolicy, _worst_of
from .opmatrix import (
    ResidualReport,
    _judge,
    _q_bracket,
    band_add,
    band_identity,
    band_scale,
    band_sub,
    q_commutator_residual,
)
from .representation import StructuredParams
from .tridiagonalization import big_q_jacobi, build_Z, companion_b, jacobi_matrix


@record
class BigQJacobiConstants:
    gamma1: object
    delta1: object
    gamma2: object
    delta2: object


def big_qjacobi_constants(p: StructuredParams) -> BigQJacobiConstants:
    """Structure constants of relations (ii) and (iii); gamma2 = 1/r1 and
    delta2 = -r0/r1 tie them to the companion combination."""
    q, c1, c2, c3 = p.q, p.c1, p.c2, p.c3
    return BigQJacobiConstants(
        gamma1=-c2 * (q + 1) / (c3 * q),
        delta1=c2 / c3 * (c1 + 1) + c2 + 1,
        gamma2=-c1 * c3 * q * (q + 1) * (1 - q) ** 2,
        delta2=q * (1 - q) * (c1 * (c2 + 1) + c3 * (c1 + 1)),
    )


def big_qjacobi_algebra_residuals(
    p: StructuredParams, size: int, pol: TolerancePolicy = TolerancePolicy()
):
    """Residual reports for relations (i), (ii), (iii) on rows 0..size-2.

    The last truncation row is corrupted by the cut in each case; everything
    above it must vanish to tolerance at the operator-product scale.
    """
    if size < 3:
        raise TooSmallError("algebra residuals need size >= 3")
    A = jacobi_matrix(big_q_jacobi(p, size))
    B = companion_b(A, p)
    Z = build_Z(p, size).matrix()
    I = band_identity(size)
    k = big_qjacobi_constants(p)
    rows = (0, size - 2)
    rep1 = q_commutator_residual(A, B, p.q, I, pol, rows)
    rhs2 = band_add(band_scale(k.gamma1, A), band_scale(k.delta1, I))
    rep2 = q_commutator_residual(B, Z, p.q, rhs2, pol, rows)
    rhs3 = band_add(band_scale(k.gamma2, B), band_scale(k.delta2, I))
    rep3 = q_commutator_residual(Z, A, p.q, rhs3, pol, rows)
    return rep1, rep2, rep3


@record
class AWAlgebraConstants:
    omega0: object
    sigma1: object
    omega1: object
    sigma2: object
    omega2: object


def aw_constants(p: StructuredParams, mu) -> AWAlgebraConstants:
    """Structure constants of the pencil algebra at L = A + mu*B."""
    q, c1, c2, c3 = p.q, p.c1, p.c2, p.c3
    omega0 = q * (1 - q) * (c3 * (c1 + 1) + c1 * (c2 + 1)) + mu / c3 * (
        c3 * (c2 + 1) + c2 * (c1 + 1)
    )
    sigma1 = c1 * c2 * (q**2 - 1) ** 2
    omega1 = c2 / c3 * mu * (q**2 - 1) * (c3 * (c1 + 1) + c1 * (c2 + 1)) - c1 * q * (
        q + 1
    ) * (q - 1) ** 2 * (c3 * (c2 + 1) + c2 * (c1 + 1))
    sigma2 = mu * (1 - q) * (q + 1) ** 2 / q
    omega2 = (
        mu * (q**2 - 1) * (c1 * c2 * (1 / c3 + 1) + c1 + c2 + c3 + 1)
        - c1 * c3 * q * (q + 1) * (q - 1) ** 2
        - mu**2 * (q + 1) * c2 / (q * c3)
    )
    return AWAlgebraConstants(omega0, sigma1, omega1, sigma2, omega2)


@record
class AWAlgebraReport:
    """Everything aw_algebra_residuals measured.

    relation2 is the M@L ordering, the one the algebra closes in; relation2_lm
    is the reversed L@M ordering, and passing_variant records which of them
    actually closes ('ML', 'LM', 'both' or 'none').
    """

    constants: AWAlgebraConstants
    m_def: ResidualReport
    relation1: ResidualReport
    relation2: ResidualReport
    relation2_lm: ResidualReport
    passing_variant: str


def aw_algebra_residuals(
    p: StructuredParams,
    mu,
    size: int,
    pol: TolerancePolicy = TolerancePolicy(),
) -> AWAlgebraReport:
    """Measure the pencil-algebra relations on a size x size truncation.

    m_def checks the closed-form (omega0, omega1) against the pair solved
    from the first two diagonal entries of relation 1, so a wrong shift in M
    is caught independently of the relation residuals.  Relation 1 uses rows
    0..size-2; both orderings of relation 2 use rows 0..size-3 (products of
    two pencils corrupt one extra row at the cut).
    """
    if size < 5:
        raise TooSmallError("pencil algebra residuals need size >= 5")
    q = p.q
    A = jacobi_matrix(big_q_jacobi(p, size))
    B = companion_b(A, p)
    Z = build_Z(p, size).matrix()
    I = band_identity(size)
    k = aw_constants(p, mu)

    L = band_add(A, band_scale(mu, B))
    M_raw = _q_bracket(L, Z, q)
    M = band_sub(M_raw, band_scale(k.omega0, I))

    # Solve (omega0*, omega1*) from rows 0,1 of Z@M_raw - q*M_raw@Z = sigma1*L
    # + omega1*I - omega0*(q-1)*Z and compare to the closed forms.
    T = band_sub(_q_bracket(Z, M_raw, q), band_scale(k.sigma1, L))
    z0, z1 = Z.entry(0, 0), Z.entry(1, 1)
    t00, t11 = T.entry(0, 0), T.entry(1, 1)
    w0 = (t11 - t00) / ((q - 1) * (z0 - z1))
    w1 = (q - 1) * z0 * w0 + t00
    dev, _ = _worst_of((
        abs(float(k.omega0 - w0)) / max(1.0, abs(float(w0))),
        abs(float(k.omega1 - w1)) / max(1.0, abs(float(w1))),
    ))
    m_def = _judge(dev, None, (0, 1), 1.0, pol.effective(1.0))

    rhs1 = band_add(band_scale(k.sigma1, L), band_scale(k.omega1, I))
    rep1 = q_commutator_residual(Z, M, q, rhs1, pol, (0, size - 2))
    rhs2 = band_add(band_scale(k.sigma2, Z), band_scale(k.omega2, I))
    rep2 = q_commutator_residual(M, L, q, rhs2, pol, (0, size - 3))
    rep_lm = q_commutator_residual(L, M, q, rhs2, pol, (0, size - 3))
    passing = {(True, True): "both", (True, False): "ML", (False, True): "LM"}.get(
        (rep2.passed, rep_lm.passed), "none"
    )
    return AWAlgebraReport(k, m_def, rep1, rep2, rep_lm, passing)

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
passes instead of silently choosing.
"""

from __future__ import annotations

from ._record import record
from .errors import InvalidParameterError, TooSmallError
from .numerics import TolerancePolicy
from .opmatrix import (
    BandMatrix,
    ResidualReport,
    _pair_scale,
    band_add,
    band_identity,
    band_mul,
    band_scale,
    band_sub,
    residual_report,
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


def _q_bracket(X: BandMatrix, Y: BandMatrix, q) -> BandMatrix:
    return band_sub(band_mul(X, Y), band_scale(q, band_mul(Y, X)))


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

    R1 = band_sub(_q_bracket(A, B, p.q), I)
    rep1 = residual_report(R1, pol, rows, _pair_scale(A, B))

    R2 = band_sub(
        _q_bracket(B, Z, p.q),
        band_add(band_scale(k.gamma1, A), band_scale(k.delta1, I)),
    )
    rep2 = residual_report(R2, pol, rows, _pair_scale(B, Z))

    R3 = band_sub(
        _q_bracket(Z, A, p.q),
        band_add(band_scale(k.gamma2, B), band_scale(k.delta2, I)),
    )
    rep3 = residual_report(R3, pol, rows, _pair_scale(Z, A))
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

    relation2 is the residual of the requested variant; relation2_ml and
    relation2_lm are both orderings, and passing_variant records which of them
    actually closes ('ML', 'LM', 'both' or 'none').
    """

    constants: AWAlgebraConstants
    m_def: ResidualReport
    relation1: ResidualReport
    relation2: ResidualReport
    relation2_ml: ResidualReport
    relation2_lm: ResidualReport
    variant: str
    passing_variant: str


def aw_algebra_residuals(
    p: StructuredParams,
    mu,
    size: int,
    pol: TolerancePolicy = TolerancePolicy(),
    variant: str = "ML",
) -> AWAlgebraReport:
    """Measure the pencil-algebra relations on a size x size truncation.

    m_def checks the closed-form (omega0, omega1) against the pair solved
    from the first two diagonal entries of relation 1, so a wrong shift in M
    is caught independently of the relation residuals.  Relation 1 uses rows
    0..size-2; both orderings of relation 2 use rows 0..size-3 (products of
    two pencils corrupt one extra row at the cut).
    """
    if variant not in ("ML", "LM"):
        raise InvalidParameterError(f"variant must be 'ML' or 'LM', got {variant!r}")
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
    dev = max(
        abs(float(k.omega0 - w0)) / max(1.0, abs(float(w0))),
        abs(float(k.omega1 - w1)) / max(1.0, abs(float(w1))),
    )
    tol = pol.effective(1.0)
    m_def = ResidualReport(dev, None, (0, 1), 1.0, tol, dev <= tol)

    rows1 = (0, size - 2)
    R1 = band_sub(
        _q_bracket(Z, M, q), band_add(band_scale(k.sigma1, L), band_scale(k.omega1, I))
    )
    rep1 = residual_report(R1, pol, rows1, _pair_scale(Z, M))

    rows2 = (0, size - 3)
    rhs2 = band_add(band_scale(k.sigma2, Z), band_scale(k.omega2, I))
    Rml = band_sub(_q_bracket(M, L, q), rhs2)
    Rlm = band_sub(_q_bracket(L, M, q), rhs2)
    scale2 = _pair_scale(M, L)
    rep_ml = residual_report(Rml, pol, rows2, scale2)
    rep_lm = residual_report(Rlm, pol, rows2, scale2)
    if rep_ml.passed and not rep_lm.passed:
        passing = "ML"
    elif rep_lm.passed and not rep_ml.passed:
        passing = "LM"
    elif rep_ml.passed and rep_lm.passed:
        passing = "both"
    else:
        passing = "none"
    return AWAlgebraReport(
        constants=k,
        m_def=m_def,
        relation1=rep1,
        relation2=rep_ml if variant == "ML" else rep_lm,
        relation2_ml=rep_ml,
        relation2_lm=rep_lm,
        variant=variant,
        passing_variant=passing,
    )

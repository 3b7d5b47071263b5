"""Independent exact-arithmetic oracles for the test suite.

Everything here is recomputed from scratch in Fraction arithmetic with plain
dense matrices, deliberately sharing no code with the package internals.
"""

from fractions import Fraction as F


# -- dense exact linear algebra --------------------------------------------------


def dense(M):
    """Dense list-of-lists copy of a band matrix, preserving entry types."""
    n = M.size
    return [[M.entry(i, j) for j in range(n)] for i in range(n)]


def mat_mul(X, Y):
    n = len(X)
    return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def commutator_minus_identity(A, B, q):
    """Dense AB - q BA - I from two band matrices, exact for exact entries."""
    X, Y = dense(A), dense(B)
    XY, YX = mat_mul(X, Y), mat_mul(Y, X)
    n = len(X)
    return [
        [XY[i][j] - q * YX[i][j] - (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


# -- general-solution closed forms -----------------------------------------------


def general_solution(q, xi0, zeta0, s1, s2, size):
    """All sequences of the general tridiagonal pair, in exact arithmetic."""
    xi = [xi0 * q**-n for n in range(size)]
    zeta = [zeta0 * q**n for n in range(size)]
    z = [xi0 * q**-n + zeta0 * q ** (n + 1) for n in range(size)]
    gamma = [xi0 * q**-n - zeta0 * q**n for n in range(size + 1)]
    y = [xi0 * q**-n - zeta0 * q ** (n + 1) for n in range(size)]
    b = [(s1 * z[n] + (q + 1) * s2) / (gamma[n] * gamma[n + 1]) for n in range(size)]
    eta = [
        (s1 * xi0 * zeta0 * (q + 1) + s2 * z[n]) / (gamma[n] * gamma[n + 1])
        for n in range(size)
    ]
    K = [
        q ** (2 - n) * (s2 + s1 * zeta0 * q**n) * (s2 * q**n + s1 * xi0) / gamma[n] ** 2
        for n in range(size)
    ]
    s0 = q * (xi0 + zeta0) / (q - 1) - K[0]
    u = [0 * q]
    for n in range(1, size):
        u.append(
            ((xi0 * q**-n + zeta0 * q**n) / (q**-1 - 1) + K[n] + s0)
            / (y[n] * y[n - 1])
        )
    return {
        "xi": xi, "zeta": zeta, "z": z, "gamma": gamma, "y": y,
        "b": b, "eta": eta, "K": K, "s0": s0, "u": u,
    }


# -- big q-Jacobi / Askey-Wilson / finite-family recurrences ----------------------


def big_q_jacobi_DC(q, c1, c2, c3, count):
    """The forward and backward rates ([D_n], [C_n]) for n < count."""

    def D(n):
        return (
            (1 - c1 * q ** (n + 1))
            * (1 - c1 * c2 * q ** (n + 1))
            * (1 - c3 * q ** (n + 1))
        ) / ((1 - c1 * c2 * q ** (2 * n + 1)) * (1 - c1 * c2 * q ** (2 * n + 2)))

    def C(n):
        return (
            -c1
            * c3
            * q ** (n + 1)
            * (1 - q**n)
            * (1 - c2 * q**n)
            * (1 - c1 * c2 * q**n / c3)
        ) / ((1 - c1 * c2 * q ** (2 * n + 1)) * (1 - c1 * c2 * q ** (2 * n)))

    return [D(n) for n in range(count)], [C(n) for n in range(count)]


def big_q_jacobi_bu(q, c1, c2, c3, count):
    Ds, Cs = big_q_jacobi_DC(q, c1, c2, c3, count)
    b = [1 - Ds[n] - Cs[n] for n in range(count)]
    u = [Ds[n - 1] * Cs[n] for n in range(1, count)]
    return b, u


def askey_wilson_bu(q, a1, a2, a3, a4, count):
    g = a1 * a2 * a3 * a4

    def D(n):
        return (
            (1 - a1 * a2 * q**n)
            * (1 - a1 * a3 * q**n)
            * (1 - a1 * a4 * q**n)
            * (1 - g * q ** (n - 1))
        ) / (a1 * (1 - g * q ** (2 * n - 1)) * (1 - g * q ** (2 * n)))

    def C(n):
        return (
            a1
            * (1 - q**n)
            * (1 - a2 * a3 * q ** (n - 1))
            * (1 - a2 * a4 * q ** (n - 1))
            * (1 - a3 * a4 * q ** (n - 1))
        ) / ((1 - g * q ** (2 * n - 1)) * (1 - g * q ** (2 * n - 2)))

    b = [(a1 + 1 / a1 - D(n) - C(n)) / 2 for n in range(count)]
    u = [D(n - 1) * C(n) / 4 for n in range(1, count)]
    return b, u


def q_para_krawtchouk_bu(c3, q, N):
    half_lo = (N - 1) // 2
    half_hi = (N + 1) // 2

    def D(n):
        return ((1 - q ** (n - N)) * (1 - c3 * q ** (n + 1))) / (
            (1 - q ** (2 * n - N)) * (1 + q ** (n - half_lo))
        )

    def C(n):
        return (
            -c3
            * q ** (n - half_lo)
            * (1 - q**n)
            * (1 - q ** (n - N - 1) / c3)
        ) / ((1 - q ** (2 * n - N)) * (1 + q ** (n - half_hi)))

    b = [1 - D(n) - C(n) for n in range(N + 1)]
    u = [D(n - 1) * C(n) for n in range(1, N + 1)]
    return b, u


def monic_eval(b, u, n, x):
    """P_n(x) by the three-term recurrence, exact for exact inputs."""
    p_prev, p_cur = 1, x - b[0]
    if n == 0:
        return 1 + 0 * x
    for k in range(1, n):
        p_prev, p_cur = p_cur, (x - b[k]) * p_cur - u[k - 1] * p_prev
    return p_cur


# -- rational acceptance fixtures -------------------------------------------------

# resonance-free, all u_n nonzero at size 8 (checked when frozen)
GENERAL_RATIONAL_FIXTURES = (
    dict(q=F(1, 2), xi0=F(3, 2), zeta0=F(1, 3), s1=F(1, 4), s2=F(2, 5)),
    dict(q=F(2, 3), xi0=F(5, 4), zeta0=F(-2, 7), s1=F(3, 5), s2=F(-1, 3)),
    dict(q=F(3, 5), xi0=F(-7, 6), zeta0=F(4, 9), s1=F(-1, 2), s2=F(1, 8)),
    dict(q=F(5, 8), xi0=F(11, 10), zeta0=F(3, 7), s1=F(2, 9), s2=F(5, 6)),
    dict(q=F(4, 7), xi0=F(9, 5), zeta0=F(-5, 11), s1=F(-3, 8), s2=F(-2, 5)),
)

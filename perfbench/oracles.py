"""Checks of the program's outputs, made apart from the program.

Every check takes plain data (floats, Fractions, lists, dicts, report text) and
raises CheckFailed when the output is wrong.  Residuals are recomputed densely
with numpy, eigenvalues against numpy's symmetric solver, lattices and
Askey-Wilson coefficients from their closed forms, exact residuals by an
independent exact product.  The checks never import qosc.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

ABS_TOL, REL_TOL = 1e-12, 1e-9  # the library's default TolerancePolicy
FAMILY_REL_TOL = 1e-8  # the policy the workloads use for the finite families


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- dense helpers ----------------------------------------------------------------


def dense(bands: dict, n: int) -> np.ndarray:
    M = np.zeros((n, n))
    for k, entries in bands.items():
        k = int(k)
        for t, v in enumerate(entries):
            i = t + max(0, -k)
            M[i, i + k] = float(v)
    return M


def inf_norm(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=1).max())


def tolerance(scale: float, abs_tol=ABS_TOL, rel_tol=REL_TOL) -> float:
    return max(abs_tol, rel_tol * max(1.0, scale))


def pair_scale(X: np.ndarray, Y: np.ndarray) -> float:
    return max(1.0, inf_norm(X) * inf_norm(Y))


def q_bracket(X, Y, q):
    return X @ Y - q * (Y @ X)


def residual(R: np.ndarray, last_row: int, max_abs: float, tol: float, scale: float,
             what: str) -> None:
    """The dense residual on rows 0..last_row lies below the tolerance the
    program reported, that tolerance is the policy's at this scale, and the
    reported max_abs agrees with the dense one to within it."""
    want = tolerance(scale)
    require(math.isclose(tol, want, rel_tol=1e-6),
            f"{what}: reported tolerance {tol:.6e}, policy gives {want:.6e}")
    got = float(np.abs(R[: last_row + 1]).max())
    require(got <= tol, f"{what}: dense residual {got:.3e} exceeds tolerance {tol:.3e}")
    require(abs(got - max_abs) <= tol,
            f"{what}: reported max_abs {max_abs:.3e}, dense residual {got:.3e}")


def report_residual(R, last_row, rep: dict, scale: float, what: str) -> None:
    residual(R, last_row, rep["max_abs"], rep["tolerance"], scale, what)
    require(rep["passed"] == (rep["max_abs"] <= rep["tolerance"]),
            f"{what}: pass flag disagrees with max_abs and tolerance")


def z_diag(q, c1, c2, n: int) -> np.ndarray:
    return np.diag([c1 * c2 * q ** (k + 1) + q ** (-k) for k in range(n)])


# -- identities -------------------------------------------------------------------


def check_general(d: dict) -> None:
    n, q = d["n"], d["q"]
    A, B = dense(d["A"], n), dense(d["B"], n)
    R = q_bracket(A, B, q) - np.eye(n)
    report_residual(R, n - 2, d["report"], pair_scale(A, B), f"q-commutator n={n}")
    require(d["xi_max"] <= d["report"]["tolerance"],
            f"xi conditions {d['xi_max']:.3e} exceed {d['report']['tolerance']:.3e}")
    require(d["xi_lengths"] == [n - 2, n - 1, n - 1, n - 1, n - 2],
            f"xi condition lengths {d['xi_lengths']} for size {n}")


def check_classify(d: dict) -> None:
    for name, g, r in zip(("xi0", "zeta0", "s1", "s2"), d["given"], d["recovered"]):
        require(abs(r - g) <= 1e-8 * max(1.0, abs(g)), f"classify recovered {name}={r!r}, given {g!r}")
    rep = d["report"]
    require(rep["max_abs"] <= rep["tolerance"], f"classify refit {rep['max_abs']:.3e}")


def check_bqj_algebra(d: dict) -> None:
    n = d["n"]
    q, c1, c2, c3 = d["params"]
    g1, d1, g2, d2 = d["constants"]
    A, B, Z, I = dense(d["A"], n), dense(d["B"], n), z_diag(q, c1, c2, n), np.eye(n)
    relations = (
        (q_bracket(A, B, q) - I, pair_scale(A, B)),
        (q_bracket(B, Z, q) - (g1 * A + d1 * I), pair_scale(B, Z)),
        (q_bracket(Z, A, q) - (g2 * B + d2 * I), pair_scale(Z, A)),
    )
    for i, ((R, scale), rep) in enumerate(zip(relations, d["reports"])):
        report_residual(R, n - 2, rep, scale, f"big q-Jacobi relation {i + 1} n={n}")


def aw_pencil_residuals(A, B, Z, q, mu, constants):
    """Dense (relation 1, relation 2 in the ML ordering) of the pencil algebra."""
    omega0, sigma1, omega1, sigma2, omega2 = constants
    n = A.shape[0]
    I = np.eye(n)
    L = A + mu * B
    M = q_bracket(L, Z, q) - omega0 * I
    R1 = q_bracket(Z, M, q) - (sigma1 * L + omega1 * I)
    R2 = q_bracket(M, L, q) - (sigma2 * Z + omega2 * I)
    return (R1, pair_scale(Z, M)), (R2, pair_scale(M, L))


def check_aw_algebra(d: dict) -> None:
    n = d["n"]
    q, c1, c2, c3 = d["params"]
    A, B, Z = dense(d["A"], n), dense(d["B"], n), z_diag(q, c1, c2, n)
    (R1, s1), (R2, s2) = aw_pencil_residuals(A, B, Z, q, d["mu"], d["constants"])
    report_residual(R1, n - 2, d["relation1"], s1, f"pencil relation 1 n={n}")
    report_residual(R2, n - 3, d["relation2"], s2, f"pencil relation 2 n={n}")


def aw_coefficients(q, a1, a2, a3, a4, count: int):
    """Monic Askey-Wilson recurrence (b_n, u_n) in x = (z + 1/z)/2, from the
    textbook closed form (Koekoek-Lesky-Swarttouw 14.1.4)."""
    g = a1 * a2 * a3 * a4

    def A_n(n):
        return ((1 - a1 * a2 * q**n) * (1 - a1 * a3 * q**n) * (1 - a1 * a4 * q**n)
                * (1 - g * q ** (n - 1))) / (a1 * (1 - g * q ** (2 * n - 1)) * (1 - g * q ** (2 * n)))

    def C_n(n):
        return (a1 * (1 - q**n) * (1 - a2 * a3 * q ** (n - 1)) * (1 - a2 * a4 * q ** (n - 1))
                * (1 - a3 * a4 * q ** (n - 1))) / ((1 - g * q ** (2 * n - 2)) * (1 - g * q ** (2 * n - 1)))

    b = [(a1 + 1 / a1 - A_n(n) - (C_n(n) if n else 0.0)) / 2 for n in range(count)]
    u = [A_n(n - 1) * C_n(n) / 4 for n in range(1, count)]
    return b, u


def relative_gap(xs, ys) -> float:
    return max((abs(y - x) / max(1.0, abs(x)) for x, y in zip(xs, ys)), default=0.0)


def check_aw_match(d: dict) -> None:
    count = d["count"]
    b, u = aw_coefficients(*d["params"], count)
    require(len(d["direct_b"]) == count and len(d["pencil_b"]) == count,
            f"aw-match: expected {count} coefficients")
    closed = max(relative_gap(b, d["direct_b"]), relative_gap(u, d["direct_u"]))
    require(closed <= 1e-12, f"askey_wilson deviates from the closed form by {closed:.3e}")
    dev = max(relative_gap(d["direct_b"], d["pencil_b"]), relative_gap(d["direct_u"], d["pencil_u"]))
    require(dev <= REL_TOL, f"reduced pencil deviates from Askey-Wilson by {dev:.3e}")


def _poly_eval(coeffs: dict, x: float) -> float:
    return sum(c * x**k for k, c in coeffs.items())


def monic_values(b, u, n: int, x: float) -> list:
    """[P_0(x), ..., P_n(x)] by the monic three-term recurrence."""
    vals = [1.0, x - b[0]]
    for k in range(1, n):
        vals.append((x - b[k]) * vals[-1] - u[k - 1] * vals[-2])
    return vals[: n + 1]


def _mass(coeffs: dict) -> float:
    return sum(abs(c) for c in coeffs.values())


def check_qdiff(d: dict) -> None:
    n = d["n"]
    q, c1, c2, c3 = d["params"]
    P = d["P"]
    require(max(P) == n and P[n] == 1.0, f"expand_monic P_{n} is not monic of degree {n}")
    for x in (0.3, 0.7, 1.3):
        want = monic_values(d["b"], d["u"], n, x)[n]
        got = _poly_eval(P, x)
        require(abs(got - want) <= 1e-9 * max(1.0, _mass(P)), f"P_{n}({x}) = {got!r}, recurrence {want!r}")
    z = c1 * c2 * q ** (n + 1) + q ** (-n)
    keys = set(P) | set(d["ZP"])
    eig = max(abs(d["ZP"].get(k, 0.0) - z * P.get(k, 0.0)) for k in keys)
    require(eig <= 1e-9 * abs(z) * _mass(P), f"Z P_{n} - z_n P_{n} has mass {eig:.3e}")
    # x (B P) - q B(x P) = P, the q-oscillator relation in the q-difference picture
    BP, BxP = d["BP"], d["BxP"]
    keys = {k + 1 for k in BP} | set(BxP) | set(P)
    comm = max(abs(BP.get(k - 1, 0.0) - q * BxP.get(k, 0.0) - P.get(k, 0.0)) for k in keys)
    scale = max(1.0, _mass(BP) + abs(q) * _mass(BxP))
    require(comm <= 1e-9 * scale, f"x B P_{n} - q B x P_{n} - P_{n} = {comm:.3e}")
    neg = max((abs(c) for k, c in BP.items() if k < 0), default=0.0)
    require(neg <= 1e-9 * scale, f"B P_{n} keeps a 1/x term {neg:.3e}")


# -- spectra ----------------------------------------------------------------------


def symmetrized(b, u) -> np.ndarray:
    """Symmetric matrix similar to the monic Jacobi matrix: off-diagonals sqrt(u_n)."""
    require(all(v > 0 for v in u), "symmetrization needs every u_n > 0")
    off = np.sqrt(np.asarray(u, dtype=float))
    return np.diag(np.asarray(b, dtype=float)) + np.diag(off, 1) + np.diag(off, -1)


def check_eigenvalues(d: dict) -> None:
    want = np.linalg.eigvalsh(symmetrized(d["b"], d["u"]))
    got = np.sort(np.asarray(d["eigenvalues"], dtype=float))
    require(got.shape == want.shape, f"{got.size} eigenvalues for size {want.size}")
    err = float(np.abs(got - want).max())
    bound = 1e-10 * max(1.0, float(np.abs(want).max()))
    require(err <= bound, f"eigenvalues deviate from eigvalsh by {err:.3e} (bound {bound:.3e})")


def lattice(desc: dict, exact: bool = False) -> list:
    """Closed-form spectrum of a finite family: {q^-s}, plus {c3 q^(s+1)} for
    q-para-Krawtchouk, s running over (N+1)/2 points."""
    q, N = desc["q"], desc["N"]
    if not exact:
        q = float(q)
    if desc["family"] == "q-hahn":
        return [q ** (-s) for s in range(N + 1)]
    half = (N + 1) // 2
    c3 = desc["c3"] if exact else float(desc["c3"])
    return [q ** (-s) for s in range(half)] + [c3 * q ** (s + 1) for s in range(half)]


def expected_blocks(desc: dict) -> list:
    """One block of N+1 for q-Hahn, two of (N+1)/2 for q-para-Krawtchouk."""
    N = desc["N"]
    return [N + 1] if desc["family"] == "q-hahn" else [(N + 1) // 2] * 2


def check_verify_spectrum(d: dict) -> None:
    rep = d["report"]
    require(math.isclose(rep["tolerance"], FAMILY_REL_TOL, rel_tol=1e-9),
            f"spectrum tolerance {rep['tolerance']!r}, expected {FAMILY_REL_TOL}")
    require(rep["passed"] and rep["max_abs"] <= rep["tolerance"],
            f"spectrum report {rep['max_abs']:.3e} over {rep['tolerance']:.3e}")


def check_blocks(blocks: list, desc: dict) -> None:
    """Block sizes as the family demands; together the blocks carry the lattice,
    and each block is a geometric chain with ratio 1/q."""
    sizes = sorted(size for _, size in blocks)
    want = expected_blocks(desc)
    require(sizes == want, f"{desc['family']} N={desc['N']}: blocks {sizes}, expected {want}")
    values = sorted(v for vals, _ in blocks for v in vals)
    points = sorted(lattice(desc))
    require(len(values) == len(points), "block values do not cover the lattice")
    for v, x in zip(values, points):
        require(abs(v - x) <= FAMILY_REL_TOL * abs(x), f"block value {v!r} off lattice point {x!r}")
    q = float(desc["q"])
    for vals, size in blocks:
        require(len(vals) == size, "block size disagrees with its values")
        chain = sorted(vals, key=abs)
        for a, b in zip(chain, chain[1:]):
            require(abs(b * q - a) <= 1e-6 * abs(a), f"block {chain} is not a chain of ratio 1/q")


def check_decompose(d: dict) -> None:
    check_blocks(d["blocks"], d)


# -- exact ------------------------------------------------------------------------


def _exact_entry(bands: dict, i: int, j: int):
    entries = bands.get(j - i)
    return 0 if entries is None else entries[min(i, j)]


def exact_commutator_rows(A: dict, B: dict, q, n: int, last_row: int) -> dict:
    """{(i, j): (A B - q B A - I)[i, j]} for rows 0..last_row of tridiagonal A, B,
    by exact products of the stored entries."""
    out = {}
    for i in range(last_row + 1):
        for j in range(max(0, i - 2), min(n, i + 3)):
            ks = range(max(0, i - 1), min(n, i + 2))
            ab = sum(_exact_entry(A, i, k) * _exact_entry(B, k, j) for k in ks)
            ba = sum(_exact_entry(B, i, k) * _exact_entry(A, k, j) for k in ks)
            out[(i, j)] = ab - q * ba - (1 if i == j else 0)
    return out


def require_exact_zero(values, what: str) -> None:
    for v in values:
        require(isinstance(v, (int, Fraction)), f"{what}: inexact entry {v!r}")
        require(v == 0, f"{what}: nonzero entry {v}")


def check_exact_pair(d: dict) -> None:
    n, q = d["n"], d["q"]
    R = d["R"]
    require_exact_zero([v for e in R.values() for v in e], f"exact residual n={n}")
    mine = exact_commutator_rows(d["A"], d["B"], q, n, n - 2)
    require_exact_zero(mine.values(), f"independent exact residual n={n}")
    for (i, j), v in mine.items():
        k = j - i
        entries = R.get(k)
        got = 0 if entries is None else entries[min(i, j)]
        require(got == v, f"exact residual entry ({i},{j}) is {got}, recomputed {v}")


def check_charpoly(d: dict) -> None:
    points = d["points"]
    want = lattice(d, exact=True)
    require(points == want, f"claimed lattice {points} differs from the closed form")
    require_exact_zero(d["values"], f"char_poly_eval on the {d['family']} lattice N={d['N']}")


# -- reject -----------------------------------------------------------------------


def require_error(d: dict, name: str) -> None:
    require(d["error"] == name, f"raised {d['error']}, expected {name}")


def check_complex_refusal(d: dict) -> None:
    require_error(d, "UnsupportedSpectrumError")
    b, u = d["b"], d["u"]
    n = len(b)
    J = np.diag(np.asarray(b, dtype=float)) + np.diag(np.ones(n - 1), -1) + np.diag(np.asarray(u, dtype=float), 1)
    ev = np.linalg.eigvals(J)
    scale = max(1.0, float(np.abs(ev).max()))
    require(float(np.abs(ev.imag).max()) > 1e-6 * scale, "numpy finds a real spectrum")


def check_resonance_refusal(d: dict) -> None:
    require_error(d, "ResonanceError")
    q, xi0, zeta0, m = d["q"], d["xi0"], d["zeta0"], d["m"]
    gamma = xi0 * q ** (-m) - zeta0 * q**m
    require(abs(gamma) <= 1e-12 * (abs(xi0 * q ** (-m)) + abs(zeta0 * q**m)),
            f"gamma_{m} = {gamma!r} is not on the resonance line")


def check_guard_refusal(d: dict) -> None:
    require_error(d, "SizeGuardError")
    q = abs(d["q"])
    require(max(q, 1 / q) ** d["size"] > 1e12, "size is within the overflow guard")


def check_even_refusal(d: dict) -> None:
    require_error(d, "InvalidParameterError")
    require(d["N"] % 2 == 0, f"N={d['N']} is odd")


# -- cli --------------------------------------------------------------------------

REPORT_KEYS = ["command", "params", "checks", "tables", "version"]


def check_exit(returncode: int, expected: int, label: str) -> None:
    require(returncode == expected, f"{label}: exit status {returncode}, expected {expected}")


def check_identical(hashes: list, label: str) -> None:
    require(len(set(hashes)) == 1, f"{label}: output differs between repeated calls")


def parse_report(text: str, label: str) -> dict:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{label}: report is not JSON: {exc}") from exc
    require(list(rep) == REPORT_KEYS, f"{label}: report keys {list(rep)}")
    for c in rep["checks"]:
        if c["name"] != "block-count":
            require(c["pass"] == (c["max_abs"] <= c["tolerance"]),
                    f"{label}: check {c['name']} pass flag disagrees with its numbers")
    return rep


def table(rep: dict, name: str) -> list:
    for t in rep["tables"]:
        if t["name"] == name:
            return t["rows"]
    raise CheckFailed(f"{rep['command']}: no table {name!r}")


def check_of(rep: dict, name: str) -> dict:
    for c in rep["checks"]:
        if c["name"] == name:
            return c
    raise CheckFailed(f"{rep['command']}: no check {name!r}")


def band_table(rep: dict, name: str) -> tuple:
    offsets = {"sub": -1, "diag": 0, "super": 1}
    bands = {offsets[row[0]]: row[1:] for row in table(rep, name)}
    return bands, len(bands[0])


def _check_residual(c: dict, R, last_row, scale, what) -> None:
    residual(R, last_row, c["max_abs"], c["tolerance"], scale, what)


def check_cli(outputs: dict) -> None:
    """Cross-check the reports of one cli pass, keyed by label."""
    reps = {label: parse_report(text, label) for label, text in outputs.items()}

    bs = reps["build-structured"]
    p = bs["params"]
    q, c1, c2 = p["q"], p["c1"], p["c2"]
    bands_a, n = band_table(bs, "A")
    A, B = dense(bands_a, n), dense(band_table(bs, "B")[0], n)
    _check_residual(check_of(bs, "q-commutator"), q_bracket(A, B, q) - np.eye(n), n - 2,
                    pair_scale(A, B), "build structured")

    bg = reps["build-general"]
    bands_g, m = band_table(bg, "A")
    qg = bg["params"]["q"]
    Ag, Bg = dense(bands_g, m), dense(band_table(bg, "B")[0], m)
    Rg = q_bracket(Ag, Bg, qg) - np.eye(m)
    for label in ("build-general", "verify-qosc"):
        _check_residual(check_of(reps[label], "q-commutator"), Rg, m - 2, pair_scale(Ag, Bg), label)
        xi = check_of(reps[label], "xi-conditions")
        require(xi["pass"], f"{label}: xi conditions fail")

    vb = reps["verify-bqj"]
    k = dict(table(vb, "constants"))
    Z, I = z_diag(q, c1, c2, n), np.eye(n)
    for name, R, scale in (
        ("q-oscillator", q_bracket(A, B, q) - I, pair_scale(A, B)),
        ("bz-bracket", q_bracket(B, Z, q) - (k["gamma1"] * A + k["delta1"] * I), pair_scale(B, Z)),
        ("za-bracket", q_bracket(Z, A, q) - (k["gamma2"] * B + k["delta2"] * I), pair_scale(Z, A)),
    ):
        _check_residual(check_of(vb, name), R, n - 2, scale, f"verify bigqjacobi-algebra {name}")

    va = reps["verify-aw-algebra"]
    k = dict(table(va, "constants"))
    consts = [k["omega0"], k["sigma1"], k["omega1"], k["sigma2"], k["omega2"]]
    (R1, s1), (R2, s2) = aw_pencil_residuals(A, B, Z, q, va["params"]["mu"], consts)
    _check_residual(check_of(va, "relation-1"), R1, n - 2, s1, "verify aw-algebra relation 1")
    _check_residual(check_of(va, "relation-2"), R2, n - 3, s2, "verify aw-algebra relation 2")

    vm = reps["verify-aw-match"]
    pm = vm["params"]
    rows = table(vm, "coefficients")[1:]
    b, u = aw_coefficients(pm["q"], pm["a1"], pm["a2"], pm["a3"], pm["a4"], pm["count"])
    direct_b, pencil_b = [r[1] for r in rows], [r[2] for r in rows]
    direct_u, pencil_u = [r[3] for r in rows[1:]], [r[4] for r in rows[1:]]
    closed = max(relative_gap(b, direct_b), relative_gap(u, direct_u))
    require(closed <= 1e-12, f"verify aw-match: direct coefficients off the closed form by {closed:.3e}")
    dev = max(relative_gap(direct_b, pencil_b), relative_gap(direct_u, pencil_u))
    c = check_of(vm, "aw-match")
    require(abs(dev - c["max_abs"]) <= 1e-15 + 1e-6 * dev and dev <= c["tolerance"],
            f"verify aw-match: table deviation {dev:.3e}, reported {c['max_abs']:.3e}")

    for c in reps["verify-qdiff"]["checks"]:
        require(c["pass"], f"verify qdiff: {c['name']} fails")

    sp = reps["spectrum"]
    desc = {"family": "q-para-krawtchouk", **sp["params"]}
    points = sorted(lattice(desc))
    claimed = sorted(table(sp, "lattice")[1][1:])
    require(len(claimed) == len(points)
            and all(abs(x - y) <= 1e-12 * abs(y) for x, y in zip(claimed, points)),
            "spectrum: claimed lattice differs from the closed form")
    for row in table(sp, "eigenvalues")[1:]:
        ev = row[1]
        near = min(points, key=lambda x: abs(x - ev))
        require(abs(ev - near) <= FAMILY_REL_TOL * abs(near), f"spectrum: eigenvalue {ev!r} off the lattice")
    check_blocks([(r[2:], r[1]) for r in table(sp, "blocks")[1:]], desc)

    po = reps["poly"]
    xs = po["params"]["x_points"]
    diag, sup = bands_a[0], bands_a[1]
    for row in table(po, "values")[1:]:
        deg = row[0]
        for x, got in zip(xs, row[1:]):
            want = monic_values(diag, sup, deg, x)[deg]
            require(abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"poly: P_{deg}({x}) = {got!r}, want {want!r}")

    de = reps["decompose"]
    check_blocks([(r[2:], r[1]) for r in table(de, "blocks")[1:]],
                 {"family": "q-hahn", **de["params"]})


CHECKS = {
    "general": check_general,
    "classify": check_classify,
    "bqj_algebra": check_bqj_algebra,
    "aw_algebra": check_aw_algebra,
    "aw_match": check_aw_match,
    "qdiff": check_qdiff,
    "eigenvalues": check_eigenvalues,
    "verify_spectrum": check_verify_spectrum,
    "decompose": check_decompose,
    "exact_pair": check_exact_pair,
    "charpoly": check_charpoly,
    "complex_refusal": check_complex_refusal,
    "resonance_refusal": check_resonance_refusal,
    "guard_refusal": check_guard_refusal,
    "even_refusal": check_even_refusal,
}

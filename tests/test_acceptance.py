"""Acceptance gate: every advertised guarantee, one pass/fail line each.

Each test prints ``ACCEPTANCE <nn> <label>: PASS|FAIL`` before asserting, so a
-s run shows the complete scoreboard and a plain run names the failing
criterion in its traceback.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from exact_oracles import (
    GENERAL_RATIONAL_FIXTURES,
    big_q_jacobi_DC,
    commutator_minus_identity,
)

from qosc import (
    AWParams,
    GeneralParams,
    NotMonicReducibleError,
    QoscError,
    ResonanceError,
    StructuredParams,
    TolerancePolicy,
    askey_wilson,
    aw_algebra_residuals,
    aw_parameter_map,
    band_add,
    band_identity,
    band_mul,
    band_scale,
    band_sub,
    big_q_jacobi,
    big_qjacobi_algebra_residuals,
    big_qjacobi_constants,
    build_W,
    build_Z,
    build_general,
    canonical_pair,
    claimed_spectrum,
    classify,
    companion_b,
    companion_params,
    decompose,
    eigenvalues,
    expand_monic,
    jacobi_matrix,
    laurent_add,
    laurent_mul,
    laurent_scale,
    q_hahn,
    q_para_krawtchouk,
    qdiff_B_apply,
    qdiff_Z_apply,
    to_monic,
    verify_spectrum,
    xi_residuals,
    LaurentPoly,
)


def scoreboard(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def resonance_free(q, xi0, zeta0, size):
    for n in range(size + 1):
        scale = abs(xi0) * q**-n + abs(zeta0) * q**n
        if abs(xi0 * q**-n - zeta0 * q**n) < 1e-3 * scale:
            return False
        if abs(xi0 * q**-n - zeta0 * q ** (n + 1)) < 1e-3 * scale:
            return False
    return True


def test_criterion_01_general_solution_correctness():
    rng = random.Random(101)
    size = 16
    start = time.perf_counter()
    ok = True
    done = 0
    while done < 50:
        q = rng.uniform(0.3, 0.95)
        xi0 = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        zeta0 = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        s1, s2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if not resonance_free(q, xi0, zeta0, size):
            continue
        try:
            A, B, _ = build_general(GeneralParams(q, xi0, zeta0, s1, s2), size)
        except QoscError:
            continue
        R = band_sub(band_sub(band_mul(A, B), band_scale(q, band_mul(B, A))), band_identity(size))
        from qosc import inf_norm

        scale = max(1.0, inf_norm(A) * inf_norm(B))
        worst = 0.0
        for off, entries in R.bands.items():
            for t, v in enumerate(entries):
                if t + max(0, -off) <= size - 2:
                    worst = max(worst, abs(float(v)))
        ok = ok and worst <= 1e-9 * scale
        ok = ok and xi_residuals(A, B, q).max_abs() <= 1e-9 * scale
        done += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    scoreboard(1, f"general-solution correctness ({elapsed * 1e3:.0f} ms / 50 draws)", ok)


def test_criterion_02_exact_rational_oracle():
    start = time.perf_counter()
    size = 8
    ok = True
    for fx in GENERAL_RATIONAL_FIXTURES:
        A, B, _ = build_general(GeneralParams(**fx), size)
        R = commutator_minus_identity(A, B, fx["q"])
        for i in range(size - 1):
            for j in range(size):
                ok = ok and R[i][j] == 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    scoreboard(2, f"exact-oracle certification ({elapsed:.2f} s / 5 fixtures)", ok)


def test_criterion_03_big_q_jacobi_identification():
    rng = random.Random(303)
    ok = True
    for _ in range(20):
        q = rng.uniform(0.5, 0.9)
        c1, c2, c3 = (rng.uniform(0.1, 0.5) for _ in range(3))
        p = StructuredParams(q, c1, c2, c3)
        size = 10
        A = jacobi_matrix(big_q_jacobi(p, size))
        B = companion_b(A, p)
        gp, rep = classify(A, B, q)
        ok = ok and rep.passed
        xi0 = 1.0 / (c1 * c3 * q * (q - 1.0))
        ok = ok and abs(gp.xi0 - xi0) <= 1e-9 * abs(xi0)
        ok = ok and abs(gp.zeta0 - c1 * c2 * xi0) <= 1e-9 * abs(c1 * c2 * xi0)
        A2, B2, _ = build_general(gp, size)
        for M, M2 in ((A, A2), (B, B2)):
            for off, entries in M.bands.items():
                for t, v in enumerate(entries):
                    ok = ok and abs(v - M2.bands[off][t]) <= 1e-9 * max(1.0, abs(v))
    scoreboard(3, "big q-Jacobi identification (20 draws)", ok)


def test_criterion_04_tridiagonalization_theorem():
    # Deviations are judged at each coefficient's cancellation scale: the
    # reduction multiplies O(1) recurrence data by z_n ~ q**-n factors that
    # cancel analytically, so the raw float deviation necessarily carries
    # that conditioning.  A wrong formula still fails at O(1) of this scale.
    rng = random.Random(404)
    count = 21
    done = 0
    attempts = 0
    ok = True
    while done < 50 and attempts < 2000:
        attempts += 1
        q = rng.uniform(0.3, 0.95)
        a = [rng.choice([-1, 1]) * rng.uniform(1e-3, 0.9) for _ in range(4)]
        try:
            p = AWParams(q, *a)
            sp, w = aw_parameter_map(p)
            monic, _ = to_monic(build_W(sp, w, count))
            direct = askey_wilson(p, count)
        except (ResonanceError, NotMonicReducibleError, QoscError):
            continue
        Ds, Cs = big_q_jacobi_DC(sp.q, sp.c1, sp.c2, sp.c3, count)
        z = [sp.c1 * sp.c2 * sp.q ** (n + 1) + sp.q ** (-n) for n in range(count)]
        t0, t1, t2, t3 = abs(w.tau0), abs(w.tau1), abs(w.tau2), abs(w.tau3)
        for n in range(count):
            cond = ((t1 + t2) * abs(z[n]) + t3) * (1 + abs(Ds[n]) + abs(Cs[n])) + t0
            dev = abs(monic.b[n] - direct.b[n]) / max(1.0, abs(direct.b[n]), cond)
            ok = ok and dev <= 1e-9
        for n in range(1, count):
            sub = t1 * abs(z[n]) + t2 * abs(z[n - 1]) + t3
            sup = (t1 * abs(z[n - 1]) + t2 * abs(z[n]) + t3) * abs(Ds[n - 1]) * abs(Cs[n])
            dev = abs(monic.u[n - 1] - direct.u[n - 1]) / max(
                1.0, abs(direct.u[n - 1]), sub * sup
            )
            ok = ok and dev <= 1e-9
        done += 1
    ok = ok and done == 50
    scoreboard(4, f"tridiagonalization theorem ({done} draws)", ok)


def test_criterion_05_q_hahn_truncation():
    pol = TolerancePolicy(rel_tol=1e-8)
    ok = True
    for N in (3, 5, 7):
        for q in (0.5, 0.7):
            rec = q_hahn(0.3, 0.4, q, N)
            rep = verify_spectrum(rec, claimed_spectrum(rec), pol)
            ok = ok and rep.passed and rep.max_abs <= 1e-8
            A = jacobi_matrix(rec)
            B = companion_b(A, companion_params(rec))
            blocks = decompose(A, B, q, pol)
            ok = ok and len(blocks) == 1
    scoreboard(5, "q-Hahn truncation (N in {3,5,7} x q in {0.5,0.7})", ok)


def test_criterion_06_q_para_krawtchouk():
    pol = TolerancePolicy(rel_tol=1e-8)
    ok = True
    for N in (3, 5, 7):
        for q in (0.5, 0.6):
            for c3 in (0.2, 0.25):
                rec = q_para_krawtchouk(c3, q, N)
                rep = verify_spectrum(rec, claimed_spectrum(rec), pol)
                ok = ok and rep.passed and rep.max_abs <= 1e-8
                A = jacobi_matrix(rec)
                B = companion_b(A, companion_params(rec))
                blocks = decompose(A, B, q, pol)
                ok = ok and [s for _, s in blocks] == [(N + 1) // 2, (N + 1) // 2]
    # Named instance: N = 3, q = 1/2, c3 = 1/5.
    ev = eigenvalues(jacobi_matrix(q_para_krawtchouk(0.2, 0.5, 3)))
    for lam, want in zip(ev, sorted([1.0, 2.0, 0.1, 0.05])):
        ok = ok and abs(lam - want) <= 1e-8 * max(1.0, want)
    scoreboard(6, "q-para-Krawtchouk bi-lattice and blocks", ok)


def test_criterion_07_canonical_form():
    ok = True
    for q in (0.3, 0.5, 0.9):
        for a in (1.0, 2.0, -0.5):
            for size in range(1, 65):
                A, B = canonical_pair(a, q, size)
                AB = band_mul(A, B)
                qBA = band_scale(q, band_mul(B, A))
                R = band_sub(band_sub(AB, qBA), band_identity(size))
                for off, entries in R.bands.items():
                    for t, v in enumerate(entries):
                        i = t + max(0, -off)
                        j = t + max(0, off)
                        bound = 4 * math.ulp(
                            max(1.0, abs(AB.entry(i, j)), abs(qBA.entry(i, j)))
                        )
                        ok = ok and abs(v) <= bound
    scoreboard(7, "canonical form (<= 4 ulp, sizes 1..64)", ok)


def test_criterion_08_algebra_relations():
    rng = random.Random(808)
    pol = TolerancePolicy(rel_tol=1e-8)
    size = 14
    ok = True
    orderings = set()
    for _ in range(20):
        q = rng.uniform(0.55, 0.9)
        c1, c2, c3 = (rng.uniform(0.1, 0.5) for _ in range(3))
        mu = rng.choice([-1, 1]) * rng.uniform(0.2, 1.5)
        p = StructuredParams(q, c1, c2, c3)
        rep1, rep2, rep3 = big_qjacobi_algebra_residuals(p, size, pol)
        ok = ok and rep1.passed and rep2.passed and rep3.passed
        rep = aw_algebra_residuals(p, mu, size, pol)
        ok = ok and rep.m_def.passed and rep.relation1.passed and rep.relation2.passed
        orderings.add(rep.passing_variant)
    ok = ok and orderings == {"ML"}
    # Negative controls: zeroed structure constants must fail visibly.
    p = StructuredParams(0.6, 0.3, 0.25, 0.2)
    A = jacobi_matrix(big_q_jacobi(p, size))
    B = companion_b(A, p)
    Z = build_Z(p, size).matrix()
    I = band_identity(size)
    k = big_qjacobi_constants(p)
    bz = band_sub(band_mul(B, Z), band_scale(p.q, band_mul(Z, B)))
    bad = band_sub(bz, band_scale(k.delta1, I))  # gamma1 zeroed
    worst_bad = 0.0
    for off, entries in bad.bands.items():
        for t, v in enumerate(entries):
            if t + max(0, -off) <= size - 2:
                worst_bad = max(worst_bad, abs(float(v)))
    ok = ok and worst_bad > 1e-2
    rep_zero = aw_algebra_residuals(p, 0.7, size, pol)
    L = band_add(A, band_scale(0.7, B))
    M_unshifted = band_sub(band_mul(L, Z), band_scale(p.q, band_mul(Z, L)))  # omega0 zeroed
    zm = band_sub(band_mul(Z, M_unshifted), band_scale(p.q, band_mul(M_unshifted, Z)))
    bad2 = band_sub(
        zm, band_add(band_scale(rep_zero.constants.sigma1, L), band_scale(rep_zero.constants.omega1, I))
    )
    worst_bad2 = 0.0
    for off, entries in bad2.bands.items():
        for t, v in enumerate(entries):
            if t + max(0, -off) <= size - 2:
                worst_bad2 = max(worst_bad2, abs(float(v)))
    ok = ok and worst_bad2 > 1e-2
    scoreboard(8, "algebra relations (20 draws, ML/LM recorded, negative controls)", ok)


def test_criterion_09_q_difference_picture():
    fixtures = [
        StructuredParams(0.5, 0.25, 0.5, 0.25),
        StructuredParams(0.6, 0.2, 0.3, 0.15),
        StructuredParams(0.7, 0.3, 0.4, 0.2),
    ]
    ok = True

    def mass(f):
        return sum(abs(float(c)) for c in f.coeffs.values())

    x = LaurentPoly({1: 1.0})
    for p in fixtures:
        for k in range(11):
            f = LaurentPoly({k: 1.0})
            Bf = qdiff_B_apply(f, p)
            lhs = laurent_add(
                laurent_mul(x, Bf),
                laurent_scale(-p.q, qdiff_B_apply(laurent_mul(x, f), p)),
            )
            resid = laurent_add(lhs, laurent_scale(-1.0, f))
            ok = ok and mass(resid) <= 1e-12 * max(mass(f), mass(Bf))
        rec = big_q_jacobi(p, 9)
        for n in range(9):
            P_n = expand_monic(rec, n)
            z_n = p.c1 * p.c2 * p.q ** (n + 1) + p.q ** (-n)
            resid = laurent_add(
                qdiff_Z_apply(P_n, p), laurent_scale(-z_n, P_n)
            )
            ok = ok and mass(resid) <= 1e-9 * (abs(z_n) * mass(P_n))
    scoreboard(9, "q-difference picture (3 fixtures)", ok)


def test_criterion_10_cli_contract():
    fixtures = [
        [
            "build",
            "--parameterization",
            "structured",
            "--q",
            "0.5",
            "--c1",
            "0.25",
            "--c2",
            "0.5",
            "--c3",
            "0.25",
            "--size",
            "10",
        ],
        ["spectrum", "--family", "q-hahn", "--q", "0.5", "--c1", "0.3", "--c2", "0.4", "--N", "3"],
        [
            "poly",
            "--family",
            "big-q-jacobi",
            "--q",
            "0.5",
            "--c1",
            "0.25",
            "--c2",
            "0.5",
            "--c3",
            "0.25",
            "--size",
            "8",
        ],
    ]
    ok = True
    for argv in fixtures:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "qosc.cli"] + argv, capture_output=True
            )
            for _ in range(2)
        ]
        ok = ok and runs[0].returncode == 0 and runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout and len(runs[0].stdout) > 0
        ok = ok and json.loads(runs[0].stdout.decode()) is not None
    fail = subprocess.run(
        [sys.executable, "-m", "qosc.cli"] + fixtures[0] + ["--rel-tol", "1e-30", "--abs-tol", "1e-300"],
        capture_output=True,
    )
    ok = ok and fail.returncode == 1
    guard = subprocess.run(
        [sys.executable, "-m", "qosc.cli"]
        + [a if a != "10" else "200" for a in fixtures[0]],
        capture_output=True,
    )
    ok = ok and guard.returncode == 2 and guard.stderr.startswith(b"error[overflow-guard]")
    scoreboard(10, "CLI contract (determinism and exit statuses)", ok)

"""Seeded inputs and the operations each workload runs.

Imports only the standard library and qosc, so a process that imports this
module pays for nothing the program itself does not import.  Every library
function is looked up on the ``qosc`` package (``Q.name``) at call time, which
lets the tracer rebind it without touching the program's source.

An operation is one certification or refusal.  ``call`` does the library work
and is the only timed part; ``verdict`` reads the program's own pass/fail;
``export`` turns the result into plain data (floats, Fractions, lists, dicts)
for the oracles, after timing.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import qosc as Q

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("identities", "spectra", "exact", "reject", "cli")

# Float certification of the finite families uses the README's tolerance.
FAMILY_POL = Q.TolerancePolicy(rel_tol=1e-8)


class Op:
    """One operation of a workload pass."""

    __slots__ = ("name", "call", "check", "expect", "verdict", "export", "known_failure",
                 "output")

    def __init__(self, name, call, check, expect=None, verdict=None, export=None,
                 known_failure=False, output=None):
        self.name = name
        self.call = call
        self.check = check
        self.expect = expect
        self.verdict = verdict or (lambda result: True)
        self.export = export or (lambda result: result)
        self.known_failure = known_failure
        self.output = output  # bytes a repeated call must reproduce exactly


def attempt(op):
    """(succeeded, result or exception) of one call; refusals succeed on their type."""
    try:
        result = op.call()
    except Exception as exc:  # every library error is data for the verdict
        return (op.expect is not None and type(exc) is op.expect), exc
    if op.expect is not None:
        return False, result
    return bool(op.verdict(result)), result


# -- plain-data exports -----------------------------------------------------------


def bands(M):
    return {k: list(v) for k, v in M.bands.items()}


def report(r):
    return {
        "max_abs": r.max_abs,
        "location": r.location,
        "rows": tuple(r.rows),
        "scale": r.scale,
        "tolerance": r.tolerance,
        "passed": r.passed,
    }


def _uniform(rng, lo, hi, digits=4):
    """A draw rounded to a few digits, so CLI flags and library inputs agree."""
    return round(rng.uniform(lo, hi), digits)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _fmt(x) -> str:
    return repr(float(x))


# -- identities -------------------------------------------------------------------

IDENTITY_SIZES = (16, 32, 64, 120)
AW_ALGEBRA_SIZES = (12, 16, 24)
AW_MATCH_COUNTS = (8, 14, 21)
QDIFF_DEGREES = (3, 6, 9)


def identity_params(rng):
    q = _uniform(rng, 0.80, 0.82)
    gp = Q.GeneralParams(q, _uniform(rng, 0.9, 1.1), _uniform(rng, -0.35, -0.25),
                         _uniform(rng, 0.35, 0.45), _uniform(rng, 0.05, 0.15))
    sp = Q.StructuredParams(q, _uniform(rng, 0.24, 0.26), _uniform(rng, 0.48, 0.52),
                            _uniform(rng, -0.26, -0.24))
    mu = _uniform(rng, 0.25, 0.35)
    aw = Q.AWParams(_uniform(rng, 0.58, 0.62), _uniform(rng, 0.88, 0.92),
                    _uniform(rng, 0.48, 0.52), _uniform(rng, 0.38, 0.42),
                    _uniform(rng, 0.28, 0.32))
    return gp, sp, mu, aw


def _general_op(gp, n):
    def call():
        A, B, _ = Q.build_general(gp, n)
        rep = Q.q_commutator_residual(A, B, gp.q)
        xi = Q.xi_residuals(A, B, gp.q)
        return A, B, rep, xi

    def export(res):
        A, B, rep, xi = res
        return {"q": gp.q, "A": bands(A), "B": bands(B), "n": n, "report": report(rep),
                "xi_max": xi.max_abs(),
                "xi_lengths": [len(s) for s in (xi.xi1, xi.xi2, xi.xi3, xi.xi4, xi.xi5)]}

    return Op(f"general/n={n}", call, "general",
              verdict=lambda res: res[2].passed and res[3].max_abs() <= res[2].tolerance,
              export=export)


def _classify_op(gp, n):
    def call():
        A, B, _ = Q.build_general(gp, n)
        return Q.classify(A, B, gp.q)

    def export(res):
        params, rep = res
        return {"given": [gp.xi0, gp.zeta0, gp.s1, gp.s2],
                "recovered": [params.xi0, params.zeta0, params.s1, params.s2],
                "report": report(rep)}

    return Op(f"classify/n={n}", call, "classify", verdict=lambda res: res[1].passed,
              export=export)


def _structured_mats(sp, n):
    A = Q.jacobi_matrix(Q.big_q_jacobi(sp, n))
    return A, Q.companion_b(A, sp)


def _bqj_algebra_op(sp, n):
    def call():
        return Q.big_qjacobi_algebra_residuals(sp, n)

    def export(reps):
        A, B = _structured_mats(sp, n)
        k = Q.big_qjacobi_constants(sp)
        return {"params": [sp.q, sp.c1, sp.c2, sp.c3], "n": n, "A": bands(A), "B": bands(B),
                "constants": [k.gamma1, k.delta1, k.gamma2, k.delta2],
                "reports": [report(r) for r in reps]}

    return Op(f"bqj-algebra/n={n}", call, "bqj_algebra",
              verdict=lambda reps: all(r.passed for r in reps), export=export)


def _aw_algebra_op(sp, mu, n):
    def call():
        return Q.aw_algebra_residuals(sp, mu, n)

    def export(rep):
        A, B = _structured_mats(sp, n)
        k = rep.constants
        return {"params": [sp.q, sp.c1, sp.c2, sp.c3], "mu": mu, "n": n,
                "A": bands(A), "B": bands(B),
                "constants": [k.omega0, k.sigma1, k.omega1, k.sigma2, k.omega2],
                "relation1": report(rep.relation1), "relation2": report(rep.relation2)}

    return Op(f"aw-algebra/n={n}", call, "aw_algebra",
              verdict=lambda r: r.m_def.passed and r.relation1.passed and r.relation2.passed,
              export=export)


def aw_match_dev(direct, pencil) -> float:
    """The CLI's aw-match deviation: worst coefficient gap relative to max(1, |direct|)."""
    dev = 0.0
    for x, y in zip(direct.b, pencil.b):
        dev = max(dev, abs(y - x) / max(1.0, abs(x)))
    for x, y in zip(direct.u, pencil.u):
        dev = max(dev, abs(y - x) / max(1.0, abs(x)))
    return dev


def _aw_match_op(aw, count):
    def call():
        direct = Q.askey_wilson(aw, count)
        sp, w = Q.aw_parameter_map(aw)
        pencil, _ = Q.to_monic(Q.build_W(sp, w, count))
        return direct, pencil

    def export(res):
        direct, pencil = res
        return {"params": [aw.q, aw.a1, aw.a2, aw.a3, aw.a4], "count": count,
                "direct_b": list(direct.b), "direct_u": list(direct.u),
                "pencil_b": list(pencil.b), "pencil_u": list(pencil.u)}

    return Op(f"aw-match/count={count}", call, "aw_match",
              verdict=lambda res: aw_match_dev(*res) <= 1e-9, export=export)


def _qdiff_op(sp, n):
    def call():
        rec = Q.big_q_jacobi(sp, n + 1)
        Pn = Q.expand_monic(rec, n)
        xPn = Q.laurent_mul(Q.LaurentPoly({1: 1.0}), Pn)
        return (rec, Pn, Q.qdiff_Z_apply(Pn, sp), Q.qdiff_B_apply(Pn, sp),
                Q.qdiff_B_apply(xPn, sp))

    def export(res):
        rec, Pn, ZP, BP, BxP = res
        return {"params": [sp.q, sp.c1, sp.c2, sp.c3], "n": n,
                "b": list(rec.b), "u": list(rec.u),
                "P": dict(Pn.coeffs), "ZP": dict(ZP.coeffs),
                "BP": dict(BP.coeffs), "BxP": dict(BxP.coeffs)}

    return Op(f"qdiff/n={n}", call, "qdiff", export=export)


def identities(seed):
    gp, sp, mu, aw = identity_params(rng_for("identities", seed))
    ops = []
    for n in IDENTITY_SIZES:
        ops.append(_general_op(gp, n))
        ops.append(_classify_op(gp, n))
        ops.append(_bqj_algebra_op(sp, n))
    ops += [_aw_algebra_op(sp, mu, n) for n in AW_ALGEBRA_SIZES]
    ops += [_aw_match_op(aw, c) for c in AW_MATCH_COUNTS]
    ops += [_qdiff_op(sp, n) for n in QDIFF_DEGREES]
    probe = ["verify", "--suite", "bigqjacobi-algebra", "--q", _fmt(sp.q), "--c1", _fmt(sp.c1),
             "--c2", _fmt(sp.c2), "--c3", _fmt(sp.c3), "--size", "32"]
    return ops, probe


# -- spectra ----------------------------------------------------------------------

EIGEN_SIZES = (16, 64, 120)
QHAHN_NS = (4, 10, 20)
QPK_NS = (3, 5)
# (c3, q, N) of q-para-Krawtchouk inputs that do not depend on the seed.  At
# N = 7 float certification passes here but fails on most draws near it, so
# N = 7 runs only at this point.  At N = 9 and 11 verify_spectrum reports FAIL
# on an exact lattice and decompose refuses, on every run.
QPK_FIXED = ((0.2, 0.5, 7),)
QPK_KNOWN_FAILURES = ((0.2, 0.5, 9), (0.2, 0.5, 11))


def spectra_params(rng):
    sp = Q.StructuredParams(_uniform(rng, 0.80, 0.82), _uniform(rng, 0.24, 0.26),
                            _uniform(rng, 0.48, 0.52), _uniform(rng, -0.26, -0.24))
    hahn = (_uniform(rng, 0.28, 0.32), _uniform(rng, 0.38, 0.42), _uniform(rng, 0.48, 0.52))
    qpk = (_uniform(rng, 0.19, 0.21), _uniform(rng, 0.49, 0.51))
    return sp, hahn, qpk


def _eigen_op(sp, n):
    def call():
        rec = Q.big_q_jacobi(sp, n)
        return rec, Q.eigenvalues(Q.jacobi_matrix(rec))

    def export(res):
        rec, ev = res
        return {"b": list(rec.b), "u": list(rec.u), "eigenvalues": list(ev)}

    return Op(f"eigenvalues/n={n}", call, "eigenvalues",
              verdict=lambda res: len(res[1]) == n, export=export)


class Family:
    """A finite family by its parameters; ``make`` runs the library constructor."""

    def __init__(self, family, q, N, **params):
        self.family, self.q, self.N, self.params = family, q, N, params

    def make(self):
        if self.family == "q-hahn":
            return Q.q_hahn(self.params["c1"], self.params["c2"], self.q, self.N)
        return Q.q_para_krawtchouk(self.params["c3"], self.q, self.N)

    def desc(self):
        return {"family": self.family, "q": self.q, "N": self.N, **self.params}


def _verify_op(fam, known=False):
    def call():
        rec = fam.make()
        return Q.verify_spectrum(rec, Q.claimed_spectrum(rec), FAMILY_POL)

    return Op(f"verify/{fam.family}/N={fam.N}", call, "verify_spectrum",
              verdict=lambda rep: rep.passed,
              export=lambda rep: {**fam.desc(), "report": report(rep)},
              known_failure=known)


def _decompose_op(fam, known=False):
    def call():
        rec = fam.make()
        J = Q.jacobi_matrix(rec)
        B = Q.companion_b(J, Q.companion_params(rec))
        return Q.decompose(J, B, fam.q, FAMILY_POL)

    return Op(f"decompose/{fam.family}/N={fam.N}", call, "decompose",
              export=lambda blocks: {**fam.desc(),
                                     "blocks": [[list(v), s] for v, s in blocks]},
              known_failure=known)


def spectra(seed):
    sp, (c1, c2, qh), (c3, qp) = spectra_params(rng_for("spectra", seed))
    ops = [_eigen_op(sp, n) for n in EIGEN_SIZES]
    fams = [Family("q-hahn", qh, N, c1=c1, c2=c2) for N in QHAHN_NS]
    fams += [Family("q-para-krawtchouk", qp, N, c3=c3) for N in QPK_NS]
    fams += [Family("q-para-krawtchouk", qk, N, c3=c3k) for c3k, qk, N in QPK_FIXED]
    for fam in fams:
        ops += [_verify_op(fam), _decompose_op(fam)]
    for c3k, qk, N in QPK_KNOWN_FAILURES:
        fam = Family("q-para-krawtchouk", qk, N, c3=c3k)
        ops += [_verify_op(fam, known=True), _decompose_op(fam, known=True)]
    probe = ["spectrum", "--family", "q-hahn", "--q", _fmt(qh), "--c1", _fmt(c1),
             "--c2", _fmt(c2), "--N", "10", "--decompose", "--rel-tol", "1e-8"]
    return ops, probe


# -- exact ------------------------------------------------------------------------

EXACT_GENERAL_SIZES = (8, 16, 24)
EXACT_PAIR_SIZES = (8, 16)
EXACT_LATTICE_NS = (5, 11, 21)


def exact_params(rng):
    q = F(rng.choice((10, 11)), 13)
    gp = Q.GeneralParams(q, F(rng.choice((6, 8)), 7), -F(rng.choice((2, 3)), 10),
                         F(rng.choice((2, 3)), 5), F(1, rng.choice((7, 9))))
    sp = Q.StructuredParams(q, F(1, 4), F(1, rng.choice((2, 3))), -F(1, rng.choice((4, 5))))
    hahn = (F(3, 10), F(2, 5))
    c3 = F(1, rng.choice((5, 6)))
    return gp, sp, hahn, c3


def _interior(R, last_row):
    """Entries of R on rows 0..last_row, as {offset: [entries]} keyed like bands."""
    out = {}
    for k, entries in R.bands.items():
        out[k] = [v for t, v in enumerate(entries) if t + max(0, -k) <= last_row]
    return out


def _exact_pair_op(name, build, q, n):
    def call():
        A, B = build()
        R = Q.band_sub(Q.band_sub(Q.band_mul(A, B), Q.band_scale(q, Q.band_mul(B, A))),
                       Q.band_identity(n))
        return A, B, R

    def export(res):
        A, B, R = res
        return {"q": q, "n": n, "A": bands(A), "B": bands(B), "R": _interior(R, n - 2)}

    return Op(f"{name}/n={n}", call, "exact_pair",
              verdict=lambda res: all(v == 0 for e in _interior(res[2], n - 2).values() for v in e),
              export=export)


def _charpoly_op(fam):
    def call():
        rec = fam.make()
        J = Q.jacobi_matrix(rec)
        lattice = Q.claimed_spectrum(rec)
        return lattice.points, [Q.char_poly_eval(J, x) for x in lattice.points]

    return Op(f"charpoly/{fam.family}/N={fam.N}", call, "charpoly",
              verdict=lambda res: all(v == 0 for v in res[1]),
              export=lambda res: {**fam.desc(), "points": list(res[0]),
                                  "values": list(res[1])})


def exact(seed):
    gp, sp, (c1, c2), c3 = exact_params(rng_for("exact", seed))
    ops = [_exact_pair_op("general", lambda n=n: Q.build_general(gp, n)[:2], gp.q, n)
           for n in EXACT_GENERAL_SIZES]
    ops += [_exact_pair_op("big-q-jacobi", lambda n=n: _structured_mats(sp, n), sp.q, n)
            for n in EXACT_PAIR_SIZES]
    for N in EXACT_LATTICE_NS:
        ops.append(_charpoly_op(Family("q-hahn", gp.q, N, c1=c1, c2=c2)))
        ops.append(_charpoly_op(Family("q-para-krawtchouk", gp.q, N, c3=c3)))
    probe = ["build", "--parameterization", "general", "--q", _fmt(gp.q), "--xi0", _fmt(gp.xi0),
             "--zeta0", _fmt(gp.zeta0), "--s1", _fmt(gp.s1), "--s2", _fmt(gp.s2), "--size", "24"]
    return ops, probe


# -- reject -----------------------------------------------------------------------

COMPLEX_SIZE = 6
RESONANCE_INDEX = 2
GUARD_SIZE = 60


def reject_params(rng):
    complex_sp = Q.StructuredParams(_uniform(rng, 0.78, 0.82), _uniform(rng, 0.24, 0.26),
                                    _uniform(rng, 0.48, 0.52), _uniform(rng, 0.24, 0.26))
    q = _uniform(rng, 0.45, 0.55)
    xi0 = _uniform(rng, 0.9, 1.1)
    # zeta0 on the resonance line gamma_m = xi0 q^-m - zeta0 q^m = 0
    resonant = (q, xi0, xi0 * q ** (-2 * RESONANCE_INDEX), _uniform(rng, 0.35, 0.45),
                _uniform(rng, 0.05, 0.15))
    even_n = rng.choice((4, 6, 8))
    return complex_sp, resonant, even_n


def _complex_op(sp, n):
    def export(exc):
        rec = Q.big_q_jacobi(sp, n)
        return {"error": type(exc).__name__, "b": list(rec.b), "u": list(rec.u)}

    return Op(f"complex-spectrum/n={n}",
              lambda: Q.eigenvalues(Q.jacobi_matrix(Q.big_q_jacobi(sp, n))),
              "complex_refusal", expect=Q.UnsupportedSpectrumError, export=export)


def reject(seed):
    sp, resonant, even_n = reject_params(rng_for("reject", seed))
    q, xi0, zeta0, s1, s2 = resonant
    gp_res = Q.GeneralParams(q, xi0, zeta0, s1, s2)
    gp_guard = Q.GeneralParams(q, xi0, -0.3, s1, s2)
    ops = [
        _complex_op(sp, COMPLEX_SIZE),
        Op("resonance", lambda: Q.build_general(gp_res, 8), "resonance_refusal",
           expect=Q.ResonanceError,
           export=lambda exc: {"error": type(exc).__name__, "q": q, "xi0": xi0,
                               "zeta0": zeta0, "m": RESONANCE_INDEX}),
        Op("size-guard", lambda: Q.build_general(gp_guard, GUARD_SIZE), "guard_refusal",
           expect=Q.SizeGuardError,
           export=lambda exc: {"error": type(exc).__name__, "q": q, "size": GUARD_SIZE}),
        Op("even-N", lambda: Q.q_para_krawtchouk(0.2, q, even_n), "even_refusal",
           expect=Q.InvalidParameterError,
           export=lambda exc: {"error": type(exc).__name__, "N": even_n}),
    ]
    probe = ["build", "--parameterization", "general", "--q", _fmt(q), "--xi0", _fmt(xi0),
             "--zeta0", _fmt(zeta0), "--s1", _fmt(s1), "--s2", _fmt(s2), "--size", "8"]
    return ops, probe


# -- cli --------------------------------------------------------------------------

# aw-match at count 41 exits 1 on every seed: raw deviation 2.4e-8 against 1e-9.
CLI_KNOWN_FAILURE = ["verify", "--suite", "aw-match", "--q", "0.6", "--a1", "0.9", "--a2", "0.5",
                     "--a3", "0.4", "--a4", "0.3", "--count", "41"]
CLI_STRUCTURED_SIZE = 12
CLI_GENERAL_SIZE = 16


def cli_argvs(seed):
    """[(label, argv)] of one cli pass; labels name what the oracle compares."""
    gp, sp, mu, aw = identity_params(rng_for("cli", seed))
    _, (c1, c2, qh), (c3, qp) = spectra_params(rng_for("cli", seed))
    s = ["--q", _fmt(sp.q), "--c1", _fmt(sp.c1), "--c2", _fmt(sp.c2), "--c3", _fmt(sp.c3)]
    g = ["--q", _fmt(gp.q), "--xi0", _fmt(gp.xi0), "--zeta0", _fmt(gp.zeta0),
         "--s1", _fmt(gp.s1), "--s2", _fmt(gp.s2)]
    a = ["--q", _fmt(aw.q), "--a1", _fmt(aw.a1), "--a2", _fmt(aw.a2), "--a3", _fmt(aw.a3),
         "--a4", _fmt(aw.a4)]
    ss, gs = str(CLI_STRUCTURED_SIZE), str(CLI_GENERAL_SIZE)
    return [
        ("build-structured", ["build", "--parameterization", "structured", *s, "--size", ss]),
        ("build-general", ["build", "--parameterization", "general", *g, "--size", gs]),
        ("verify-qosc", ["verify", "--suite", "qosc", *g, "--size", gs]),
        ("verify-bqj", ["verify", "--suite", "bigqjacobi-algebra", *s, "--size", ss]),
        ("verify-aw-algebra", ["verify", "--suite", "aw-algebra", *s, "--mu", _fmt(mu),
                               "--size", ss]),
        ("verify-aw-match", ["verify", "--suite", "aw-match", *a, "--count", "21"]),
        ("verify-qdiff", ["verify", "--suite", "qdiff", *s]),
        ("verify-aw-match-41", CLI_KNOWN_FAILURE),
        ("spectrum", ["spectrum", "--family", "q-para-krawtchouk", "--q", _fmt(qp),
                      "--c3", _fmt(c3), "--N", "5", "--decompose", "--rel-tol", "1e-8"]),
        ("poly", ["poly", "--family", "big-q-jacobi", *s, "--size", "8",
                  "--x-points", "0.0,0.5,1.0"]),
        ("decompose", ["decompose", "--family", "q-hahn", "--q", _fmt(qh), "--c1", _fmt(c1),
                       "--c2", _fmt(c2), "--N", "3", "--rel-tol", "1e-8"]),
    ]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(argv):
    return [sys.executable, "-m", "qosc.cli", *argv]


def _cli_op(label, argv, call):
    return Op(label, call, "cli", verdict=lambda res: res[0] == 0,
              export=lambda res: {"label": label, "argv": argv, "returncode": res[0],
                                  "stdout": res[1].decode()},
              known_failure=argv is CLI_KNOWN_FAILURE, output=lambda res: res[1])


def cli(seed):
    """Every subcommand as its own subprocess, one at a time."""
    env = cli_env()

    def subprocess_call(argv):
        def call():
            done = subprocess.run(cli_command(argv), env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, check=False)
            return done.returncode, done.stdout

        return call

    argvs = cli_argvs(seed)
    return [_cli_op(label, argv, subprocess_call(argv)) for label, argv in argvs], argvs[0][1]


def cli_in_process(seed):
    """The cli pass as in-process ``qosc.cli.main`` calls with stdout captured,
    for the traced run: a subprocess cannot be traced from here."""
    import contextlib
    import io

    import qosc.cli

    def main_call(argv):
        def call():
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = qosc.cli.main(list(argv))
            return code, buf.getvalue().encode()

        return call

    return [_cli_op(label, argv, main_call(argv)) for label, argv in cli_argvs(seed)]


BUILDERS = {"identities": identities, "spectra": spectra, "exact": exact, "reject": reject,
            "cli": cli}


def build(workload: str, seed: int):
    """(ops, probe argv) of a workload: the whole of its seeded input generation."""
    return BUILDERS[workload](seed)

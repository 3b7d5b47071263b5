"""Sameness sweep: a digest of every output of the band kernel, the checks on it and the CLI.

Records, for one source tree, a sha256 per input of what the band kernel
(band_mul, band_add, band_sub, band_scale, inf_norm, _worst), the diagonal of Z
(with the distinctness check of a tree that has one),
the certificates built on them (q_commutator_residual, xi_residuals,
classify, both algebra residual suites, companion_b, build_W -> to_monic),
the eigen layer (eigenvalues on tridiagonals with every w_n > 0 or with mixed
signs, complex refusals included, the same scaled by 10**U(-60, 60), on
small Fraction tridiagonals, and on every-w_n > 0 tridiagonals of size 13 to
120, some Wilkinson-style with eigenvalues paired closer than float resolution),
char_poly_eval (on float, int, Fraction and mixed tridiagonals at drawn points,
and at every point of a finite family's lattice) and the finite families (claimed_spectrum,
companion_params, verify_spectrum and decompose on q-Hahn and odd-N
q-para-Krawtchouk with float or Fraction parameters, and decompose on
build_general pairs) return on seeded random inputs, and the recurrences
themselves: the b and u of big_q_jacobi, askey_wilson, q_hahn and
q_para_krawtchouk, build_general's A, B and trace, and eigenvalue_sequence,
each with float or (exact_share) Fraction parameters, and those builders with
Fraction parameters on a resonance line (gamma_m = 0 and u_n = 0 of
build_general, 1 - c1*c2*q^k = 0 of big_q_jacobi and q_hahn, 1 - g*q^k = 0
of askey_wilson) or moved off it by a relative resonance_offsets, so that a
refusal that moves to another input or index shows.  It also digests the
exit status, stdout and stderr of ``qosc.cli.main`` run in-process on
seeded argvs: every subcommand and suite, some with --no-json or a
tolerance flag, and some with a flag value that overflows or underflows
(1e300, 1e-300), which drives reports to inf and NaN.  A second mode compares
two such records.  The digested text is the output with every float written
by float.hex and every other value by repr, or the error's type and message.
A NaN's sign is not part of it: the interpreter may take it from either
operand of a float add.

    python scripts/sameness.py record --src OLD/src --out old.json [--seed 1] [--count 300]
    python scripts/sameness.py record --src src --out new.json
    python scripts/sameness.py compare old.json new.json

A record holds the seed, the per-case count, the draw ranges and the digests;
compare exits 1 on any mismatch and 2 on records drawn differently.  With
no arguments it runs a short self-check on the tree beside it: two recordings
agree and a planted mismatch is found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Every range the inputs are drawn from; a record stores them, and compare
# refuses two records whose ranges differ.
RANGES = {
    "size": [1, 12],
    "offsets_per_matrix": [0, 5],
    "float": [-1e6, 1e6],
    "float_wide_exponent": [-300, 300],
    "int": [-1000000, 1000000],
    "fraction_numerator": [-1000, 1000],
    "fraction_denominator": [1, 50],
    "specials": ["nan", "-nan", "inf", "-inf", "-0.0", "0.0", "0", "1", "-1"],
    "special_share": 0.15,
    "distinct_size": [0, 24],
    "distinct_relative_gaps": [5e-13, 1e-12, 2e-12, 3e-12],
    "residual_size": [3, 16],
    "residual_entry": [-5.0, 5.0],
    "residual_nan_share": 0.05,
    "residual_q": [[-1.5, -0.2], [0.2, 1.5]],
    "general_q": [[0.2, 0.9], [1.2, 2.5], [-0.9, -0.2]],
    "general_xi0": [0.5, 2.0],
    "general_zeta0": [-2.0, -0.1],
    "general_s": [-1.0, 1.0],
    "general_size": [3, 24],
    "general_perturbation": [1e-9, 1e-3],
    "structured_q": [[0.3, 0.9], [-0.9, -0.3]],
    "structured_c": [[0.1, 0.9], [-0.9, -0.1]],
    "structured_size": [3, 32],
    "aw_size": [5, 24],
    "mu": [-0.5, 0.5],
    "tau": [-2.0, 2.0],
    "exact_share": 0.2,
    "cli_extreme": ["1e300", "-1e300", "1e-300", "1e307", "1e150", "-1e150"],
    "cli_overflow_decades": [-1.0, 1.0],
    "cli_extreme_share": 0.08,
    "cli_no_json_share": 0.25,
    "cli_tolerance_share": 0.15,
    "cli_tolerance": [1e-14, 1e-6],
    "cli_general_size": [1, 24],
    "cli_structured_size": [1, 32],
    "aw_q": [0.3, 0.8],
    "aw_a": [[0.1, 0.95], [-0.95, -0.1]],
    "aw_count": [0, 45],
    "qdiff_k": [-1, 12],
    "finite_N": [0, 13],
    "eigen_size": [1, 24],
    "eigen_offdiagonal": [0.1, 5.0],
    "eigen_fraction_size": [1, 8],
    "eigen_scale_decades": [-60, 60],
    "eigen_large_size": [13, 120],
    "wilkinson_share": 0.25,
    "charpoly_size": [1, 16],
    "lattice_exact_share": 0.5,
    "odd_N_share": 0.9,
    "poly_n_max": [0, 8],
    "poly_x": [-2.0, 2.0],
    "poly_points": [1, 4],
    "resonance_offsets": [0, 1e-12, 1e-11, 5e-11, 1e-10, 2e-10, 1e-9],
    "resonance_size": [3, 12],
}


def canon(x) -> str:
    """The digested text: floats by float.hex, records field by field."""
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(canon, x)) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in x.items()) + "}"
    fields = getattr(type(x), "__record_fields__", None)
    if fields is not None:
        return f"{type(x).__name__}(" + ",".join(canon(getattr(x, f)) for f in fields) + ")"
    if hasattr(x, "bands") and hasattr(x, "size"):
        return f"BandMatrix({x.size},{canon(x.bands)})"
    return f"{type(x).__name__}:{x!r}"


def digest(thunk, errors: tuple) -> str:
    try:
        text = canon(thunk())
    except errors as exc:
        text = f"error {type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


# -- draws --------------------------------------------------------------------


def _special(rng):
    return {"nan": math.nan, "-nan": -math.nan, "inf": math.inf, "-inf": -math.inf,
            "-0.0": -0.0, "0.0": 0.0, "0": 0, "1": 1, "-1": -1}[rng.choice(RANGES["specials"])]


def _scalar(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("float", "wide", "int", "fraction"))
    if rng.random() < RANGES["special_share"]:
        return _special(rng)
    if kind == "float":
        return rng.uniform(*RANGES["float"])
    if kind == "wide":
        return rng.choice((-1, 1)) * 10.0 ** rng.uniform(*RANGES["float_wide_exponent"])
    if kind == "int":
        return rng.randint(*RANGES["int"])
    return Fraction(rng.randint(*RANGES["fraction_numerator"]),
                    rng.randint(*RANGES["fraction_denominator"]))


def _band_matrix(Q, rng, size=None):
    size = size or rng.randint(*RANGES["size"])
    kind = rng.choice(("float", "wide", "int", "fraction", "mixed"))
    count = min(2 * size - 1, rng.randint(*RANGES["offsets_per_matrix"]))
    bands = {k: tuple(_scalar(rng, kind) for _ in range(size - abs(k)))
             for k in rng.sample(range(1 - size, size), count)}
    return Q.BandMatrix(size, bands)


def _distinct_values(rng):
    n = rng.randint(*RANGES["distinct_size"])
    z = [rng.uniform(*RANGES["float"]) * 10.0 ** rng.randint(-8, 0) for _ in range(n)]
    if z and rng.random() < 0.7:  # a near neighbour at a gap around the threshold
        x = rng.choice(z)
        gap = rng.choice(RANGES["distinct_relative_gaps"]) * rng.choice((-1, 1))
        z.insert(rng.randint(0, len(z)), x + gap * max(1.0, abs(x)))
    if z and rng.random() < 0.2:
        z[rng.randrange(len(z))] = _special(rng)
    if rng.random() < 0.2:
        z = [Fraction(v).limit_denominator(10**6) if math.isfinite(v) else v for v in z]
    return z


def _residual_pair(Q, rng):
    """Half of the time a general pair (which satisfies the relation), else random bands."""
    if rng.random() < 0.5:
        general = _general(Q, rng)
        if general is not None:
            return general
    size = rng.randint(*RANGES["residual_size"])

    def entry():
        if rng.random() < RANGES["residual_nan_share"]:
            return math.nan
        return rng.uniform(*RANGES["residual_entry"])

    def matrix():
        offsets = rng.sample(range(-2, 3), rng.randint(1, 5))
        return Q.BandMatrix(size, {k: tuple(entry() for _ in range(size - abs(k))) for k in offsets})

    q = rng.uniform(*rng.choice(RANGES["residual_q"]))
    return matrix(), matrix(), q


def _general_params(Q, rng, exact_share=0.0):
    """(GeneralParams, size) of float draws, or with exact_share each a nearby Fraction."""
    q = rng.uniform(*rng.choice(RANGES["general_q"]))
    args = (q, rng.uniform(*RANGES["general_xi0"]), rng.uniform(*RANGES["general_zeta0"]),
            rng.uniform(*RANGES["general_s"]), rng.uniform(*RANGES["general_s"]))
    size = rng.randint(*RANGES["general_size"])
    if exact_share and rng.random() < exact_share:
        args = tuple(Fraction(v).limit_denominator(40) for v in args)
    return Q.GeneralParams(*args), size


def _aw_params(Q, rng):
    """(AWParams, count), float or (exact_share) Fraction."""
    args = [rng.uniform(*RANGES["aw_q"])] + [rng.uniform(*rng.choice(RANGES["aw_a"])) for _ in range(4)]
    if rng.random() < RANGES["exact_share"]:
        args = [Fraction(v).limit_denominator(40) for v in args]
    return Q.AWParams(*args), rng.randint(*RANGES["aw_count"])


def _general(Q, rng):
    """A build_general pair, sometimes with one entry perturbed or made NaN."""
    gp, size = _general_params(Q, rng)
    try:
        A, B, _ = Q.build_general(gp, size)
    except Q.QoscError:
        return None
    roll = rng.random()
    if roll < 0.4:
        M = rng.choice((A, B))
        k = rng.choice(sorted(M.bands))
        band = list(M.bands[k])
        t = rng.randrange(len(band))
        factor = 1 + rng.uniform(*RANGES["general_perturbation"])
        band[t] = math.nan if roll < 0.1 else band[t] * factor
        bands = {**M.bands, k: tuple(band)}
        if M is A:
            A = Q.BandMatrix(size, bands)
        else:
            B = Q.BandMatrix(size, bands)
    return A, B, gp.q


def _tridiagonal(Q, rng, positive: bool, exact_only: bool = False):
    """A tridiagonal with every w_n = M[n+1, n] * M[n, n+1] > 0, or with signs drawn
    freely; with ``exact_only`` a small one with Fraction entries."""
    n = rng.randint(*RANGES["eigen_fraction_size" if exact_only else "eigen_size"])
    exact = exact_only or rng.random() < RANGES["exact_share"]

    def entry(span, sign=1):
        v = sign * rng.uniform(*span)
        return Fraction(v).limit_denominator(40) if exact else v

    span = RANGES["eigen_offdiagonal"]
    bands = {0: tuple(entry(RANGES["residual_entry"]) for _ in range(n))}
    if n > 1:
        signs = [rng.choice((-1, 1)) for _ in range(n - 1)]
        bands[-1] = tuple(entry(span, s) for s in signs)
        bands[1] = tuple(entry(span, s if positive else rng.choice((-1, 1))) for s in signs)
    return Q.BandMatrix(n, bands)


def _wide_tridiagonal(Q, rng):
    """A float tridiagonal drawn as by _tridiagonal, every w_n > 0 or signs drawn
    freely, with every entry scaled by 10**U(eigen_scale_decades)."""
    M = _tridiagonal(Q, rng, rng.random() < 0.5)
    s = 10.0 ** rng.uniform(*RANGES["eigen_scale_decades"])
    return Q.BandMatrix(M.size, {k: tuple(float(v) * s for v in band) for k, band in M.bands.items()})


def _large_tridiagonal(Q, rng):
    """A float tridiagonal of eigen_large_size with every w_n > 0: entries drawn as
    by _tridiagonal, or (wilkinson_share) Wilkinson-style, a diagonal |k - m| and
    off-diagonals of modulus 1, whose eigenvalues pair up closer than float
    resolution from about n = 21."""
    n = rng.randint(*RANGES["eigen_large_size"])
    signs = [rng.choice((-1.0, 1.0)) for _ in range(n - 1)]
    if rng.random() < RANGES["wilkinson_share"]:
        diag = [abs(k - (n - 1) / 2) for k in range(n)]
        return Q.band_tridiagonal(signs, diag, signs)
    span = RANGES["eigen_offdiagonal"]
    diag = [rng.uniform(*RANGES["residual_entry"]) for _ in range(n)]
    sub = [s * rng.uniform(*span) for s in signs]
    return Q.band_tridiagonal(sub, diag, [s * rng.uniform(*span) for s in signs])


def _finite(rng, exact_share=RANGES["exact_share"]):
    """(builder name, arguments) of a q-Hahn or an odd-N q-para-Krawtchouk family."""
    q = rng.uniform(*rng.choice(RANGES["structured_q"]))
    c = [rng.uniform(*rng.choice(RANGES["structured_c"])) for _ in range(2)]
    N = rng.randint(*RANGES["finite_N"])
    if rng.random() < exact_share:
        q, *c = (Fraction(v).limit_denominator(40) for v in (q, *c))
    if rng.random() < 0.5:
        return "q_hahn", (c[0], c[1], q, N)
    return "q_para_krawtchouk", (c[0], q, N | 1)


def _charpoly_input(Q, rng):
    """(M, x): a tridiagonal whose entries and point are all float, all wide-range
    float, all int, all Fraction or mixed, specials included."""
    n = rng.randint(*RANGES["charpoly_size"])
    kind = rng.choice(("float", "wide", "int", "fraction", "mixed"))

    def band(m):
        return tuple(_scalar(rng, kind) for _ in range(m))

    return Q.band_tridiagonal(band(n - 1), band(n), band(n - 1)), _scalar(rng, kind)


def _structured(Q, rng, size_range):
    q = rng.uniform(*rng.choice(RANGES["structured_q"]))
    c = [rng.uniform(*rng.choice(RANGES["structured_c"])) for _ in range(3)]
    if rng.random() < RANGES["exact_share"]:
        q, *c = (Fraction(v).limit_denominator(40) for v in (q, *c))
    return Q.StructuredParams(q, *c), rng.randint(*size_range)


def _resonant(Q, rng):
    """(builder name, arguments) with Fraction parameters on one resonance line, or a
    relative resonance_offsets off it: gamma_m = 0 or u_n = 0 of build_general,
    1 - c1*c2*q^k = 0 of big_q_jacobi or q_hahn, 1 - g*q^k = 0 of askey_wilson.  The
    u_n line is reached to float accuracy: the numerator of u_n is quadratic in s2."""
    def draw(key):
        span = RANGES[key]
        if isinstance(span[0], list):
            span = rng.choice(span)
        return Fraction(rng.uniform(*span)).limit_denominator(40)

    q = draw("structured_q")
    off = 1 + rng.choice((-1, 1)) * Fraction(rng.choice(RANGES["resonance_offsets"]))
    size = rng.randint(*RANGES["resonance_size"])
    line = rng.choice(("gamma", "u", "c1*c2", "g"))
    if line in ("gamma", "u"):
        xi0, zeta0, s1, s2 = (draw(k) for k in ("general_xi0", "general_zeta0", "general_s",
                                                 "general_s"))
        if line == "gamma":
            zeta0 = xi0 * q ** (-2 * rng.randint(0, size)) * off
        else:
            n = rng.randint(1, size - 1)

            def numerator(s):  # of u_n, at s2 = s
                def K(j):
                    return (q ** (2 - j) * (s + s1 * zeta0 * q**j) * (s * q**j + s1 * xi0)
                            / (xi0 * q**-j - zeta0 * q**j) ** 2)
                return ((xi0 * q**-n + zeta0 * q**n) / (1 / q - 1) + K(n) - K(0)
                        + q * (xi0 + zeta0) / (q - 1))

            c, ab, a_b = numerator(0), numerator(1), numerator(-1)
            a, b = (ab + a_b) / 2 - c, (ab - a_b) / 2
            if a and b * b >= 4 * a * c:
                s2 = Fraction((-float(b) + math.sqrt(float(b * b - 4 * a * c))) / float(2 * a)) * off
        return "build_general", (Q.GeneralParams(q, xi0, zeta0, s1, s2), size)
    if line == "c1*c2":
        c2, c3 = draw("structured_c"), draw("structured_c")
        c1 = off / (c2 * q ** rng.randint(1, 2 * size))
        if rng.random() < 0.5:
            return "q_hahn", (c1, c2, q, size - 1)
        return "big_q_jacobi", (Q.StructuredParams(q, c1, c2, c3), size)
    a1, a2, a3 = (draw("aw_a") for _ in range(3))
    a4 = off / (a1 * a2 * a3 * q ** rng.randint(-1, 2 * size - 2))
    return "askey_wilson", (Q.AWParams(q, a1, a2, a3, a4), size)


# -- cases ------------------------------------------------------------------------


def cases(Q):
    """(name, draw(rng) -> input, run(input) -> output) of every swept function."""
    from qosc import opmatrix, tridiagonalization as tri

    def pair(rng):
        A = _band_matrix(Q, rng)
        return A, _band_matrix(Q, rng, A.size)

    def worst_input(rng):
        M = _band_matrix(Q, rng)
        lo = rng.randrange(M.size)
        rows = rng.choice((None, (lo, rng.randint(lo, M.size - 1))))
        return M, rows, rng.choice((None, _band_matrix(Q, rng, M.size)))

    def bqj(rng):
        return _structured(Q, rng, RANGES["structured_size"])

    def aw(rng):
        p, size = _structured(Q, rng, RANGES["aw_size"])
        return p, rng.uniform(*RANGES["mu"]), size

    def pencil(rng):
        p, size = bqj(rng)
        return p, Q.WCoeffs(*(rng.uniform(*RANGES["tau"]) for _ in range(4))), size

    def distinct(z):
        """The diagonal as build_Z's tree checks it: DiagonalOperator(z).z in a tree
        with that class, z as a tuple once the private _check_distinct has passed it
        in a tree with that check, else z as a tuple (no distinctness rule)."""
        if hasattr(tri, "DiagonalOperator"):
            return tri.DiagonalOperator(z).z
        if hasattr(tri, "_check_distinct"):
            tri._check_distinct(z)
        return tuple(z)

    def skip_none(run):
        return lambda x: None if x is None else run(*x)

    def family(run):
        """run(rec) on the drawn finite family."""
        return lambda x: run(getattr(Q, x[0])(*x[1]))

    def verify(rec):
        return Q.verify_spectrum(rec, Q.claimed_spectrum(rec))

    def on_lattice(rec):
        J = Q.jacobi_matrix(rec)
        return [Q.char_poly_eval(J, x) for x in Q.claimed_spectrum(rec).points]

    def decompose(rec):
        J, p = Q.jacobi_matrix(rec), Q.companion_params(rec)
        return Q.decompose(J, Q.companion_b(J, p), p.q)

    return [
        ("big_q_jacobi", bqj, lambda x: Q.big_q_jacobi(*x)),
        ("askey_wilson", lambda rng: _aw_params(Q, rng), lambda x: Q.askey_wilson(*x)),
        ("finite_recurrence", _finite, family(lambda rec: rec)),
        ("build_general", lambda rng: _general_params(Q, rng, RANGES["exact_share"]),
         lambda x: Q.build_general(*x)),
        ("resonance_lines", lambda rng: _resonant(Q, rng), lambda x: getattr(Q, x[0])(*x[1])),
        ("eigenvalue_sequence", bqj, lambda x: tri.eigenvalue_sequence(*x)),
        ("band_mul", pair, lambda ab: Q.band_mul(*ab)),
        ("band_add", pair, lambda ab: Q.band_add(*ab)),
        ("band_sub", pair, lambda ab: Q.band_sub(*ab)),
        ("band_scale", lambda rng: (_scalar(rng, "mixed"), _band_matrix(Q, rng)),
         lambda cm: Q.band_scale(*cm)),
        ("inf_norm", lambda rng: _band_matrix(Q, rng), Q.inf_norm),
        ("_worst", worst_input, lambda x: opmatrix._worst(*x)),
        ("distinct_diagonal", _distinct_values, distinct),
        ("q_commutator_residual", lambda rng: _residual_pair(Q, rng),
         lambda x: Q.q_commutator_residual(*x)),
        ("xi_residuals", lambda rng: _general(Q, rng), skip_none(Q.xi_residuals)),
        ("classify", lambda rng: _general(Q, rng), skip_none(Q.classify)),
        ("big_qjacobi_algebra_residuals", bqj, lambda x: Q.big_qjacobi_algebra_residuals(*x)),
        ("aw_algebra_residuals", aw, lambda x: Q.aw_algebra_residuals(*x)),
        ("companion_b", bqj, lambda x: Q.companion_b(Q.jacobi_matrix(Q.big_q_jacobi(*x)), x[0])),
        ("build_W_to_monic", pencil, lambda x: Q.to_monic(Q.build_W(*x))),
        ("eigenvalues_positive_w", lambda rng: _tridiagonal(Q, rng, True), Q.eigenvalues),
        ("eigenvalues_mixed_w", lambda rng: _tridiagonal(Q, rng, False), Q.eigenvalues),
        ("eigenvalues_fraction", lambda rng: _tridiagonal(Q, rng, rng.random() < 0.5, True),
         Q.eigenvalues),
        ("eigenvalues_wide_scale", lambda rng: _wide_tridiagonal(Q, rng), Q.eigenvalues),
        ("eigenvalues_large", lambda rng: _large_tridiagonal(Q, rng), Q.eigenvalues),
        ("char_poly_eval", lambda rng: _charpoly_input(Q, rng), lambda x: Q.char_poly_eval(*x)),
        ("char_poly_eval_lattice", lambda rng: _finite(rng, RANGES["lattice_exact_share"]),
         family(on_lattice)),
        ("claimed_spectrum", _finite, family(Q.claimed_spectrum)),
        ("companion_params", _finite, family(Q.companion_params)),
        ("verify_spectrum", _finite, family(verify)),
        ("decompose_finite", _finite, family(decompose)),
        ("decompose_general", lambda rng: _general(Q, rng), skip_none(Q.decompose)),
    ]


def _value(rng, lo, hi) -> str:
    """A float flag's text: uniform in [lo, hi], or now and then an extreme value."""
    if rng.random() < RANGES["cli_extreme_share"]:
        return rng.choice(RANGES["cli_extreme"])
    return repr(round(rng.uniform(lo, hi), 4))


def _flags(rng, **ranges) -> list:
    """--name=value for each name: value in [lo, hi], or drawn from one of a list of ranges."""
    argv = []
    for name, span in ranges.items():
        lo, hi = rng.choice(span) if isinstance(span[0], list) else span
        argv.append(f"--{name.replace('_', '-')}={_value(rng, lo, hi)}")
    return argv


def _general_flags(rng):
    return _flags(rng, q=RANGES["general_q"], xi0=RANGES["general_xi0"],
                  zeta0=RANGES["general_zeta0"], s1=RANGES["general_s"], s2=RANGES["general_s"])


def _structured_flags(rng):
    c = RANGES["structured_c"]
    return _flags(rng, q=RANGES["structured_q"], c1=c, c2=c, c3=c)


def _int(rng, name, key) -> list:
    return [f"--{name}", str(rng.randint(*RANGES[key]))]


def _cli_argvs():
    """(case name, draw(rng) -> argv) of every subcommand and suite."""
    aw = dict(q=RANGES["aw_q"], a1=RANGES["aw_a"], a2=RANGES["aw_a"], a3=RANGES["aw_a"],
              a4=RANGES["aw_a"])

    def finite(rng):
        c = RANGES["structured_c"]
        N = rng.randint(*RANGES["finite_N"])
        if rng.random() < 0.5:
            return ["--family", "q-hahn", *_flags(rng, q=RANGES["structured_q"], c1=c, c2=c),
                    "--N", str(N)]
        if rng.random() < RANGES["odd_N_share"]:  # q-para-Krawtchouk needs an odd N
            N |= 1
        return ["--family", "q-para-krawtchouk", *_flags(rng, q=RANGES["structured_q"], c3=c),
                "--N", str(N)]

    def poly(rng):
        family = rng.choice(("big-q-jacobi", "askey-wilson", "q-hahn", "q-para-krawtchouk"))
        if family == "big-q-jacobi":
            argv = ["--family", family, *_structured_flags(rng), *_int(rng, "size", "aw_size")]
        elif family == "askey-wilson":
            argv = ["--family", family, *_flags(rng, **aw), *_int(rng, "size", "aw_size")]
        else:
            argv = finite(rng)
        xs = [_value(rng, *RANGES["poly_x"]) for _ in range(rng.randint(*RANGES["poly_points"]))]
        return ["poly", *argv, *_int(rng, "n-max", "poly_n_max"), "--x-points=" + ",".join(xs)]

    def qosc(rng):
        if rng.random() < 0.3:
            flags = _flags(rng, q=RANGES["residual_q"], a=RANGES["general_xi0"])
        else:
            flags = _general_flags(rng)
        return ["verify", "--suite", "qosc", *flags, *_int(rng, "size", "cli_general_size")]

    def qosc_overflow(rng):
        """A canonical pair whose largest entry of A, a * max(1, |q|**(1 - size)),
        lies within a decade of the largest float, on either side."""
        q = rng.uniform(*rng.choice(RANGES["residual_q"]))
        size = rng.randint(*RANGES["residual_size"])
        a = sys.float_info.max * min(1.0, abs(q) ** (size - 1))
        a *= 10 ** rng.uniform(*RANGES["cli_overflow_decades"])
        return ["verify", "--suite", "qosc", f"--q={q!r}", f"--a={a!r}", "--size", str(size)]

    def aw_algebra(rng):
        return ["verify", "--suite", "aw-algebra", *_structured_flags(rng),
                *_flags(rng, mu=RANGES["mu"]), *_int(rng, "size", "aw_size")]

    def decompose(rng):
        if rng.random() < 0.5:
            return ["decompose", *finite(rng)]
        return ["decompose", *_general_flags(rng), *_int(rng, "size", "cli_general_size")]

    return [
        ("cli_build_general", lambda rng: ["build", "--parameterization", "general",
                                           *_general_flags(rng),
                                           *_int(rng, "size", "cli_general_size")]),
        ("cli_build_structured", lambda rng: ["build", "--parameterization", "structured",
                                              *_structured_flags(rng),
                                              *_int(rng, "size", "cli_structured_size")]),
        ("cli_verify_qosc", qosc),
        ("cli_verify_qosc_overflow", qosc_overflow),
        ("cli_verify_bigqjacobi_algebra", lambda rng: [
            "verify", "--suite", "bigqjacobi-algebra", *_structured_flags(rng),
            *_int(rng, "size", "aw_size")]),
        ("cli_verify_aw_algebra", aw_algebra),
        ("cli_verify_aw_match", lambda rng: ["verify", "--suite", "aw-match", *_flags(rng, **aw),
                                             *_int(rng, "count", "aw_count")]),
        ("cli_verify_qdiff", lambda rng: ["verify", "--suite", "qdiff", *_structured_flags(rng),
                                          *_int(rng, "kmax", "qdiff_k"), *_int(rng, "nmax", "qdiff_k")]),
        ("cli_spectrum", lambda rng: ["spectrum", *finite(rng)]
         + (["--decompose"] if rng.random() < 0.5 else [])),
        ("cli_poly", poly),
        ("cli_decompose", decompose),
    ]


def cli_cases(main):
    """(name, draw(rng) -> argv, run(argv) -> (exit status, stdout, stderr)) of the CLI."""

    def options(rng):
        argv = ["--no-json"] if rng.random() < RANGES["cli_no_json_share"] else []
        for flag in ("--rel-tol", "--abs-tol"):
            if rng.random() < RANGES["cli_tolerance_share"]:
                argv.append(f"{flag}={rng.uniform(*RANGES['cli_tolerance'])!r}")
        return argv

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return [(name, lambda rng, draw=draw: draw(rng) + options(rng), run) for name, draw in _cli_argvs()]


def record(src: str, seed: int, count: int) -> dict:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import qosc as Q

    if not os.path.abspath(Q.__file__).startswith(src + os.sep):
        raise SystemExit(f"qosc was imported from {Q.__file__}, not from {src}")

    from qosc.cli import main

    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines at the terminal width
    errors = (Q.QoscError, ArithmeticError, ValueError, TypeError)
    digests = {}
    for name, draw, run in cases(Q) + cli_cases(main):
        for i in range(count):
            x = draw(random.Random(f"{name}/{seed}/{i}"))
            digests[f"{name}/{i}"] = digest(lambda: run(x), errors)
    return {"seed": seed, "count": count, "ranges": RANGES, "digests": digests}


def compare(old: dict, new: dict) -> list:
    """Keys whose digests differ; ValueError when the records were drawn differently."""
    for key in ("seed", "count", "ranges"):
        if old[key] != new[key]:
            raise ValueError(f"the records differ in {key}: {old[key]!r} != {new[key]!r}")
    if old["digests"].keys() != new["digests"].keys():
        raise ValueError("the records cover different inputs")
    return [k for k, d in old["digests"].items() if new["digests"][k] != d]


def _summary(mismatched: list, rec: dict) -> str:
    per_case: dict = {}
    for key in rec["digests"]:
        name = key.rsplit("/", 1)[0]
        per_case.setdefault(name, [0, 0])[0] += 1
    for key in mismatched:
        per_case[key.rsplit("/", 1)[0]][1] += 1
    lines = [f"{name:32} {n:6} inputs {bad:6} mismatched" for name, (n, bad) in per_case.items()]
    lines.append(f"{'total':32} {len(rec['digests']):6} inputs {len(mismatched):6} mismatched")
    return "\n".join(lines)


def self_check() -> int:
    first = json.loads(json.dumps(record(SRC, seed=1, count=20)))
    second = record(SRC, seed=1, count=20)
    mismatched = compare(first, second)
    print(_summary(mismatched, first))
    key = next(iter(second["digests"]))
    second["digests"][key] = "0" * 64
    planted = compare(first, second)
    ok = not mismatched and planted == [key]
    print(f"self-check: {'ok' if ok else 'FAILED'} (two recordings agree; a planted mismatch is found)")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode")
    rec = sub.add_parser("record", help="digest the outputs of the qosc under --src")
    rec.add_argument("--src", default=SRC, help="directory holding the qosc package (default: ./src)")
    rec.add_argument("--out", required=True, metavar="PATH")
    rec.add_argument("--seed", type=int, default=1)
    rec.add_argument("--count", type=int, default=300, help="inputs per function")
    cmp_ = sub.add_parser("compare", help="compare two records")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = ap.parse_args(argv)
    if args.mode is None:
        return self_check()
    if args.mode == "record":
        out = record(args.src, args.seed, args.count)
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=0)
        print(f"{len(out['digests'])} inputs recorded to {args.out}")
        return 0
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    try:
        mismatched = compare(old, new)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_summary(mismatched, old))
    for key in mismatched[:20]:
        print(f"mismatch: {key}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

"""Sameness sweep: a digest of every output of the band kernel and the checks on it.

Records, for one source tree, a sha256 per input of what the band kernel
(band_mul, band_add, band_sub, band_scale, inf_norm, _worst), DiagonalOperator
and the certificates built on them (q_commutator_residual, xi_residuals,
classify, both algebra residual suites, companion_b, build_W -> to_monic)
return on seeded random inputs; a second mode compares two such records.  The
digested text is the output with every float written by float.hex and every
other value by repr, or the error's type and message.  A NaN's sign is not
part of it: the interpreter may take it from either operand of a float add.

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
import hashlib
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


def _general(Q, rng):
    """A build_general pair, sometimes with one entry perturbed or made NaN."""
    q = rng.uniform(*rng.choice(RANGES["general_q"]))
    gp = Q.GeneralParams(q, rng.uniform(*RANGES["general_xi0"]), rng.uniform(*RANGES["general_zeta0"]),
                         rng.uniform(*RANGES["general_s"]), rng.uniform(*RANGES["general_s"]))
    size = rng.randint(*RANGES["general_size"])
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
    return A, B, q


def _structured(Q, rng, size_range):
    q = rng.uniform(*rng.choice(RANGES["structured_q"]))
    c = [rng.uniform(*rng.choice(RANGES["structured_c"])) for _ in range(3)]
    if rng.random() < RANGES["exact_share"]:
        q, *c = (Fraction(v).limit_denominator(40) for v in (q, *c))
    return Q.StructuredParams(q, *c), rng.randint(*size_range)


# -- cases ------------------------------------------------------------------------


def cases(Q):
    """(name, draw(rng) -> input, run(input) -> output) of every swept function."""
    from qosc import opmatrix

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
        return p, rng.uniform(*RANGES["mu"]), size, rng.choice(("ML", "LM"))

    def pencil(rng):
        p, size = bqj(rng)
        return p, Q.WCoeffs(*(rng.uniform(*RANGES["tau"]) for _ in range(4))), size

    def skip_none(run):
        return lambda x: None if x is None else run(*x)

    return [
        ("band_mul", pair, lambda ab: Q.band_mul(*ab)),
        ("band_add", pair, lambda ab: Q.band_add(*ab)),
        ("band_sub", pair, lambda ab: Q.band_sub(*ab)),
        ("band_scale", lambda rng: (_scalar(rng, "mixed"), _band_matrix(Q, rng)),
         lambda cm: Q.band_scale(*cm)),
        ("inf_norm", lambda rng: _band_matrix(Q, rng), Q.inf_norm),
        ("_worst", worst_input, lambda x: opmatrix._worst(*x)),
        ("DiagonalOperator", _distinct_values, Q.DiagonalOperator),
        ("q_commutator_residual", lambda rng: _residual_pair(Q, rng),
         lambda x: Q.q_commutator_residual(*x)),
        ("xi_residuals", lambda rng: _general(Q, rng), skip_none(Q.xi_residuals)),
        ("classify", lambda rng: _general(Q, rng), skip_none(Q.classify)),
        ("big_qjacobi_algebra_residuals", bqj, lambda x: Q.big_qjacobi_algebra_residuals(*x)),
        ("aw_algebra_residuals", aw, lambda x: Q.aw_algebra_residuals(x[0], x[1], x[2], variant=x[3])),
        ("companion_b", bqj, lambda x: Q.companion_b(Q.jacobi_matrix(Q.big_q_jacobi(*x)), x[0])),
        ("build_W_to_monic", pencil, lambda x: Q.to_monic(Q.build_W(*x))),
    ]


def record(src: str, seed: int, count: int) -> dict:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import qosc as Q

    if not os.path.abspath(Q.__file__).startswith(src + os.sep):
        raise SystemExit(f"qosc was imported from {Q.__file__}, not from {src}")

    errors = (Q.QoscError, ArithmeticError, ValueError, TypeError)
    digests = {}
    for name, draw, run in cases(Q):
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

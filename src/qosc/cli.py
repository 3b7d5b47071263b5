"""Command-line front end: build operators, run suites, emit structured reports.

Each run prints a single JSON report to stdout with top-level fields
{command, params, checks, tables, version}.  Numbers are serialized as
decimals with 17 significant digits (null when not finite), so a rerun with
the same inputs is byte-identical.  The CLI decides no verdict: each check
copies max_abs, tolerance and pass from a library report.  Exit status: 0 when
every check passes, 1 when some check fails, 2 on a parameter error, a float
overflow or underflow, or a --params or --csv-dir path that cannot be used.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import __version__
from ._record import field_names
from .algebra import aw_algebra_residuals, big_qjacobi_algebra_residuals, big_qjacobi_constants
from .errors import InvalidParameterError, NotDecomposableError, QoscError
from .families import (
    AWParams,
    askey_wilson,
    big_q_jacobi,
    claimed_spectrum,
    eval_monic,
    jacobi_matrix,
    q_hahn,
    q_para_krawtchouk,
    verify_spectrum,
)
from .numerics import TolerancePolicy, _worst_of
from .opmatrix import _judge, q_commutator_residual
from .representation import (
    GeneralParams,
    StructuredParams,
    build_general,
    canonical_pair,
    decompose,
    xi_residuals,
)
from .tridiagonalization import (
    aw_match_residual,
    companion_b,
    qdiff_residuals,
    r_coefficients,
)

# -- deterministic JSON/CSV rendering -------------------------------------------


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    value = float(value)
    return format(value, ".17g") if math.isfinite(value) else "null"


def _cell(value) -> str:
    return value if isinstance(value, str) else _to_json(value)


def _print_report(report: dict) -> None:
    lines = [f"  {json.dumps(key)}: {_to_json(val)}" for key, val in report.items()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")


def _print_text(report: dict) -> None:
    sys.stdout.write(f"command: {report['command']}\n")
    for c in report["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        sys.stdout.write(
            f"{c['name']}: max_abs={_cell(c['max_abs'])} "
            f"tolerance={_cell(c['tolerance'])} {status}\n"
        )
    overall = all(c["pass"] for c in report["checks"])
    sys.stdout.write("overall: " + ("pass" if overall else "FAIL") + "\n")


def _write_csv(report: dict, csv_dir: str) -> None:
    os.makedirs(csv_dir, exist_ok=True)
    for table in report["tables"]:
        name = str(table["name"]).replace(" ", "-")
        path = os.path.join(csv_dir, f"{report['command']}-{name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in table["rows"]:
                writer.writerow([_cell(v) for v in row])


# -- report assembly -------------------------------------------------------------


def _check(name: str, rep) -> dict:
    """The report's verdict under ``name``; the CLI judges nothing itself."""
    return {"name": name, "max_abs": rep.max_abs, "tolerance": rep.tolerance, "pass": rep.passed}


def _band_table(name: str, M) -> dict:
    rows = []
    for offset in sorted(M.bands):
        label = {-1: "sub", 0: "diag", 1: "super"}.get(offset, f"band{offset}")
        rows.append([label] + [v for v in M.bands[offset]])
    return {"name": name, "rows": rows}


def _field_rows(obj) -> list:
    """One [name, value...] row per record field, tuple values spread out."""
    rows = []
    for name in field_names(obj):
        value = getattr(obj, name)
        rows.append([name, *value] if isinstance(value, tuple) else [name, value])
    return rows


def _blocks_table(blocks) -> dict:
    rows = [["block", "size", "values"]]
    rows += [[i, length, *values] for i, (values, length) in enumerate(blocks)]
    return {"name": "blocks", "rows": rows}


# -- parameters ------------------------------------------------------------------

# The flags after --q (shared by every command) that each parameter class reads.
_GENERAL, _STRUCTURED, _AW = (
    field_names(cls)[1:] for cls in (GeneralParams, StructuredParams, AWParams)
)
_TOLERANCES = field_names(TolerancePolicy)  # --abs-tol and --rel-tol


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise InvalidParameterError(f"missing required parameter(s): {flags}")


def _params(args, cls, *extra):
    """(cls instance, params) from the flags named by the fields of ``cls``.

    The ``extra`` flags are required first, then the fields.  params maps the
    fields and then the extras to their values: the report's key order.
    """
    names = list(field_names(cls))
    _require(args, *extra)
    _require(args, *names)
    params = {name: getattr(args, name) for name in names + list(extra)}
    return cls(*(params[n] for n in names)), params


# family: (flags in report order, the last one sizing the family; builder taking them)
_FAMILIES = {
    "big-q-jacobi": (
        ("q", *_STRUCTURED, "size"),
        lambda *v: big_q_jacobi(StructuredParams(*v[:-1]), v[-1]),
    ),
    "askey-wilson": (("q", *_AW, "size"), lambda *v: askey_wilson(AWParams(*v[:-1]), v[-1])),
    "q-hahn": (("q", "c1", "c2", "N"), lambda q, c1, c2, N: q_hahn(c1, c2, q, N)),
    "q-para-krawtchouk": (("q", "c3", "N"), lambda q, c3, N: q_para_krawtchouk(c3, q, N)),
}
_FINITE = ("q-hahn", "q-para-krawtchouk")


def _family(args, size=None):
    """(recurrence, params) of --family; ``size`` stands in for a missing --size."""
    _require(args, "family", "q")
    flags, build = _FAMILIES[args.family]
    if args.family in _FINITE:
        _require(args, flags[-1], *flags[1:-1])  # --N is named first
    else:
        if args.size is None:
            args.size = size
        _require(args, *flags[1:])
    values = [getattr(args, f) for f in flags]
    return build(*values), {"family": args.family, **dict(zip(flags, values))}


def _blocks(A, B, q, pol: TolerancePolicy) -> list:
    """decompose's blocks of the pair, or none when it refuses."""
    try:
        return decompose(A, B, q, pol)
    except NotDecomposableError:
        return []


def _block_check(rec, pol: TolerancePolicy):
    """(check, blocks): a finite family's pair splits into one block (q-Hahn)
    or two (q-para-Krawtchouk); no blocks when decompose refuses."""
    expected = 1 if rec.family == "q-hahn" else 2
    J = jacobi_matrix(rec)
    blocks = _blocks(J, companion_b(J, rec.params), rec.params.q, pol)
    return _check("block-count", _judge(abs(len(blocks) - expected), None, None, 1.0, 0.5)), blocks


def _general_pair(p: GeneralParams, size: int, pol: TolerancePolicy):
    """(A, B, trace, checks): build_general's pair with its q-commutator and
    xi-conditions checks, the latter judged at the former's scale and tolerance."""
    A, B, trace = build_general(p, size)
    comm = q_commutator_residual(A, B, p.q, pol=pol)
    xi = _judge(xi_residuals(A, B, p.q).max_abs(), None, None, comm.scale, comm.tolerance)
    return A, B, trace, [_check("q-commutator", comm), _check("xi-conditions", xi)]


# -- subcommands: each returns (params, checks, tables) ----------------------------


def cmd_build(args, pol: TolerancePolicy):
    _require(args, "parameterization", "size")
    general = args.parameterization == "general"
    p, params = _params(args, GeneralParams if general else StructuredParams, "size")
    if general:
        A, B, trace, checks = _general_pair(p, args.size, pol)
        extra = {"name": "trace", "rows": _field_rows(trace)}
    else:
        A = jacobi_matrix(big_q_jacobi(p, args.size))
        B = companion_b(A, p)
        checks = [_check("q-commutator", q_commutator_residual(A, B, p.q, pol=pol))]
        r0, r1 = r_coefficients(p)
        rows = [["r0", r0], ["r1", r1], *_field_rows(big_qjacobi_constants(p))]
        extra = {"name": "constants", "rows": rows}
    tables = [_band_table("A", A), _band_table("B", B), extra]
    return {"parameterization": args.parameterization, **params}, checks, tables


def _suite_qosc(args, pol: TolerancePolicy):
    if args.a is not None:
        _require(args, "q", "size")
        A, B = canonical_pair(args.a, args.q, args.size)
        rep = q_commutator_residual(A, B, args.q, pol=pol, rows=(0, args.size - 1))
        return {"q": args.q, "a": args.a, "size": args.size}, [_check("q-commutator", rep)], []
    p, params = _params(args, GeneralParams, "size")
    return params, _general_pair(p, args.size, pol)[3], []


def _suite_bigqjacobi_algebra(args, pol: TolerancePolicy):
    p, params = _params(args, StructuredParams, "size")
    reps = big_qjacobi_algebra_residuals(p, args.size, pol)
    checks = [_check(n, r) for n, r in zip(("q-oscillator", "bz-bracket", "za-bracket"), reps)]
    return params, checks, [{"name": "constants", "rows": _field_rows(big_qjacobi_constants(p))}]


def _suite_aw_algebra(args, pol: TolerancePolicy):
    _require(args, "size", "mu")
    p, params = _params(args, StructuredParams, "mu", "size")
    rep = aw_algebra_residuals(p, args.mu, args.size, pol)
    names = ("m-def", "relation-1", "relation-2")
    checks = [_check(n, r) for n, r in zip(names, (rep.m_def, rep.relation1, rep.relation2))]
    orderings = [
        ["ordering", "max_abs", "pass"],
        ["ML", rep.relation2.max_abs, rep.relation2.passed],
        ["LM", rep.relation2_lm.max_abs, rep.relation2_lm.passed],
        ["passing-variant", rep.passing_variant, ""],
    ]
    tables = [
        {"name": "constants", "rows": _field_rows(rep.constants)},
        {"name": "orderings", "rows": orderings},
    ]
    return params, checks, tables


def _suite_aw_match(args, pol: TolerancePolicy):
    _require(args, "q", *_AW)  # missing flags are named before a stray --size
    if args.size is not None:
        raise InvalidParameterError("--size is not used by --suite aw-match; pass --count")
    pa, params = _params(args, AWParams)
    count = 21 if args.count is None else args.count
    rep, direct, rec = aw_match_residual(pa, count, pol)
    rows = [["n", "b_direct", "b_pencil", "u_direct", "u_pencil"]]
    rows += map(list, zip(range(count), direct.b, rec.b, ("", *direct.u), ("", *rec.u)))
    tables = [{"name": "coefficients", "rows": rows}]
    return {**params, "count": count}, [_check("aw-match", rep)], tables


def _suite_qdiff(args, pol: TolerancePolicy):
    p, params = _params(args, StructuredParams)
    kmax = 10 if args.kmax is None else args.kmax
    nmax = 8 if args.nmax is None else args.nmax
    for flag, value in (("kmax", kmax), ("nmax", nmax)):
        if value < 0:
            raise InvalidParameterError(f"--{flag} must be >= 0")
    reps = qdiff_residuals(p, kmax, nmax, pol)
    checks = [_check(n, r) for n, r in zip(("qdiff-commutator", "qdiff-eigenrelation"), reps)]
    return {**params, "kmax": kmax, "nmax": nmax}, checks, []


_SUITES = {
    "qosc": _suite_qosc,
    "bigqjacobi-algebra": _suite_bigqjacobi_algebra,
    "aw-algebra": _suite_aw_algebra,
    "aw-match": _suite_aw_match,
    "qdiff": _suite_qdiff,
}


def cmd_verify(args, pol: TolerancePolicy):
    _require(args, "suite")
    params, checks, tables = _SUITES[args.suite](args, pol)
    return {"suite": args.suite, **params}, checks, tables


def cmd_spectrum(args, pol: TolerancePolicy):
    _require(args, "family")
    if args.family not in _FINITE:  # before its flags, which this command may not offer
        raise InvalidParameterError("spectrum requires a finite family (q-hahn or q-para-krawtchouk)")
    rec, params = _family(args)
    lattice = claimed_spectrum(rec)
    rep = verify_spectrum(rec, lattice, pol)
    checks = [_check("spectrum", rep)]
    evidence = zip(rep.eigenvalues, rep.points, rep.rel_distance, rep.charpoly_scaled)
    rows = [["n", "computed", "claimed", "rel_distance", "charpoly_scaled"]]
    rows += [[n, *cells] for n, cells in enumerate(evidence)]
    tables = [
        {"name": "lattice", "rows": [["kind", lattice.kind], ["points", *rep.points]]},
        {"name": "eigenvalues", "rows": rows},
    ]
    if args.decompose:
        check, blocks = _block_check(rec, pol)
        checks.append(check)
        tables.append(_blocks_table(blocks))
    return params, checks, tables


def cmd_poly(args, pol: TolerancePolicy):
    n_max = 5 if args.n_max is None else args.n_max
    if n_max < 1:
        raise InvalidParameterError("--n-max must be >= 1")
    rec, params = _family(args, size=n_max)
    if n_max > rec.size:
        raise InvalidParameterError(f"--n-max {n_max} exceeds family size {rec.size}")
    raw = "0.0,0.5,1.0,2.0" if args.x_points is None else args.x_points
    try:
        xs = [_finite_float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise InvalidParameterError(f"bad --x-points {raw!r}") from exc
    if not xs:
        raise InvalidParameterError("--x-points must name at least one point")

    p0_dev, _ = _worst_of(abs(eval_monic(rec, 0, x) - 1.0) for x in xs)
    p1_dev, _ = _worst_of(abs(eval_monic(rec, 1, x) - (x - rec.b[0])) for x in xs)
    checks = [
        _check("p0-is-one", _judge(p0_dev, None, None, 1.0, pol.abs_tol)),
        _check("p1-is-x-minus-b0", _judge(p1_dev, None, None, 1.0, pol.abs_tol)),
    ]
    rows = [["n", *xs]] + [[n] + [eval_monic(rec, n, x) for x in xs] for n in range(n_max + 1)]
    return {**params, "n_max": n_max, "x_points": xs}, checks, [{"name": "values", "rows": rows}]


def cmd_decompose(args, pol: TolerancePolicy):
    if args.family is not None:
        if args.family not in _FINITE:
            raise InvalidParameterError(
                "decompose requires a finite family (q-hahn or q-para-krawtchouk)"
                " or general parameters"
            )
        rec, params = _family(args)
        check, blocks = _block_check(rec, pol)
    else:
        p, params = _params(args, GeneralParams, "size")
        A, B, _ = build_general(p, args.size)
        blocks = _blocks(A, B, p.q, pol)
        check = _check("decomposed", _judge(0.0 if blocks else 1.0, None, None, 1.0, 0.5))
    return params, [check], [_blocks_table(blocks)]


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "poly": cmd_poly,
    "decompose": cmd_decompose,
}


# -- argument parsing ------------------------------------------------------------


def _finite_float(text: str) -> float:
    """The type of every float flag: float(text), refusing nan and inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add(parser, kind, *names) -> None:
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=kind, default=None)


def _build_parser():
    """The parser and its subcommand parsers by name."""
    common = argparse.ArgumentParser(add_help=False)
    _add(common, _finite_float, "q")
    _add(common, int, "size")
    _add(common, _finite_float, *_TOLERANCES)
    common.add_argument("--params", default=None, metavar="PATH")
    common.add_argument("--csv-dir", default=None, metavar="PATH")
    common.add_argument(
        "--json", action=argparse.BooleanOptionalAction, default=None, dest="json_out"
    )

    parser = argparse.ArgumentParser(
        prog="qosc",
        description="q-oscillator tridiagonal representations: build, verify, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("build", parents=[common])
    sp.add_argument("--parameterization", choices=["general", "structured"], default=None)
    _add(sp, _finite_float, *_GENERAL, *_STRUCTURED)
    for name in ("verify", "algebra"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--suite", choices=sorted(_SUITES), default=None)
        _add(sp, _finite_float, *_GENERAL, *_STRUCTURED, *_AW, "mu", "a")
        _add(sp, int, "count", "kmax", "nmax")
    for name, floats in (
        ("spectrum", _STRUCTURED),
        ("poly", _STRUCTURED + _AW),
        ("decompose", _STRUCTURED + _GENERAL),
    ):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--family", choices=list(_FAMILIES), default=None)
        _add(sp, int, "N")
        _add(sp, _finite_float, *floats)
    commands = sub.choices
    commands["spectrum"].add_argument("--decompose", action="store_const", const=True, default=None)
    _add(commands["poly"], int, "n-max")
    commands["poly"].add_argument("--x-points", default=None)
    return parser, commands


def _merge_param_file(args, parser) -> None:
    """Fill the flags of ``parser`` left unset from the --params JSON object.

    Each value goes through its flag's argparse type and choices, as if it
    had been given on the command line; on/off flags take JSON booleans.
    """
    if args.params is None:
        return
    actions = {a.dest: a for a in parser._actions if hasattr(args, a.dest)}
    with open(args.params, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidParameterError("--params file must hold a JSON object")
    for key in sorted(data):
        action = actions.get(str(key).replace("-", "_"))
        if action is None:
            raise InvalidParameterError(f"unknown parameter {key!r} in --params file")
        value = data[key]
        if value is None:
            continue
        if action.nargs == 0:
            ok = isinstance(value, bool)
        else:
            try:
                value = (action.type or str)(str(value))
                ok = action.choices is None or value in action.choices
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                ok = False
        if not ok:
            raise InvalidParameterError(f"bad value {data[key]!r} for {key!r} in --params file")
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_param_file(args, commands[args.command])
        given = {n: getattr(args, n) for n in _TOLERANCES if getattr(args, n) is not None}
        pol = TolerancePolicy(**given)  # the record's defaults fill the flags left unset
        if args.command == "algebra":  # a pure alias: its reports are verify reports
            args.command = "verify"
            args.suite = args.suite or "bigqjacobi-algebra"
        params, checks, tables = _COMMANDS[args.command](args, pol)
        params.update((n, getattr(pol, n)) for n in _TOLERANCES)
        if getattr(args, "decompose", None):  # spectrum echoes --decompose after the tolerances
            params["decompose"] = True
        report = {
            "command": args.command,
            "params": params,
            "checks": checks,
            "tables": tables,
            "version": __version__,
        }
        if args.csv_dir is not None:  # before the report, so an exit of 2 prints none
            _write_csv(report, args.csv_dir)
    except QoscError as exc:
        sys.stderr.write(f"error[{exc.kind}]: {exc}\n")
        return 2
    except (OverflowError, ZeroDivisionError) as exc:  # ** overflows; a product underflows to 0
        kind = "overflow" if isinstance(exc, OverflowError) else "underflow"
        sys.stderr.write(f"error[{kind}]: the inputs {kind} float arithmetic ({exc.args[-1]})\n")
        return 2
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:  # a path, or its bytes
        sys.stderr.write(f"error[io]: {exc}\n")
        return 2
    if args.json_out is False:
        _print_text(report)
    else:
        _print_report(report)
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())

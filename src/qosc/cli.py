"""Command-line front end: build operators, run suites, emit structured reports.

Each run prints a single JSON report to stdout with top-level fields
{command, params, checks, tables, version}.  Numbers are serialized as
decimals with 17 significant digits, so a rerun with the same inputs is
byte-identical.  Exit status: 0 when every check passes, 1 when some check
fails, 2 on a parameter error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .algebra import (
    aw_algebra_residuals,
    aw_constants,
    big_qjacobi_algebra_residuals,
    big_qjacobi_constants,
)
from .errors import InvalidParameterError, NotDecomposableError, QoscError
from .families import (
    AWParams,
    askey_wilson,
    big_q_jacobi,
    claimed_spectrum,
    eval_monic,
    expand_monic,
    jacobi_matrix,
    q_hahn,
    q_para_krawtchouk,
    verify_spectrum,
)
from .numerics import (
    LaurentPoly,
    TolerancePolicy,
    laurent_add,
    laurent_mul,
    laurent_scale,
)
from .opmatrix import char_poly_eval, eigenvalues, q_commutator_residual
from .representation import (
    GeneralParams,
    StructuredParams,
    build_general,
    canonical_pair,
    decompose,
    xi_residuals,
)
from .tridiagonalization import (
    aw_parameter_map,
    build_W,
    companion_b,
    companion_params,
    eigenvalue_sequence,
    qdiff_B_apply,
    qdiff_Z_apply,
    r_coefficients,
    to_monic,
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
    return format(float(value), ".17g")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


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


def _check(name: str, max_abs, tolerance, ok=None) -> dict:
    passed = (float(max_abs) <= float(tolerance)) if ok is None else bool(ok)
    return {
        "name": name,
        "max_abs": float(max_abs),
        "tolerance": float(tolerance),
        "pass": passed,
    }


def _check_from(name: str, rep) -> dict:
    return _check(name, rep.max_abs, rep.tolerance, ok=rep.passed)


def _report(command: str, params: dict, checks: list, tables: list) -> dict:
    return {
        "command": command,
        "params": params,
        "checks": checks,
        "tables": tables,
        "version": __version__,
    }


def _band_table(name: str, M) -> dict:
    rows = []
    for offset in sorted(M.bands):
        label = {-1: "sub", 0: "diag", 1: "super"}.get(offset, f"band{offset}")
        rows.append([label] + [v for v in M.bands[offset]])
    return {"name": name, "rows": rows}


def _policy(args) -> TolerancePolicy:
    return TolerancePolicy(
        abs_tol=1e-12 if args.abs_tol is None else float(args.abs_tol),
        rel_tol=1e-9 if args.rel_tol is None else float(args.rel_tol),
    )


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise InvalidParameterError(f"missing required parameter(s): {flags}")


def _structured(args) -> StructuredParams:
    _require(args, "q", "c1", "c2", "c3")
    return StructuredParams(
        q=float(args.q), c1=float(args.c1), c2=float(args.c2), c3=float(args.c3)
    )


def _general(args) -> GeneralParams:
    _require(args, "q", "xi0", "zeta0", "s1", "s2")
    return GeneralParams(
        q=float(args.q),
        xi0=float(args.xi0),
        zeta0=float(args.zeta0),
        s1=float(args.s1),
        s2=float(args.s2),
    )


def _tol_params(pol: TolerancePolicy) -> dict:
    return {"abs_tol": pol.abs_tol, "rel_tol": pol.rel_tol}


# -- subcommands -----------------------------------------------------------------


def cmd_build(args) -> dict:
    pol = _policy(args)
    _require(args, "parameterization", "size")
    size = int(args.size)
    checks, tables = [], []

    if args.parameterization == "general":
        p = _general(args)
        A, B, trace = build_general(p, size)
        checks.append(_check_from("q-commutator", q_commutator_residual(A, B, p.q, pol=pol)))
        checks.append(_check("xi-conditions", xi_residuals(A, B, p.q).max_abs(), checks[0]["tolerance"]))
        params = {
            "parameterization": "general",
            "q": p.q,
            "xi0": p.xi0,
            "zeta0": p.zeta0,
            "s1": p.s1,
            "s2": p.s2,
            "size": size,
            **_tol_params(pol),
        }
        tables.append(_band_table("A", A))
        tables.append(_band_table("B", B))
        trace_rows = [
            ["xi"] + list(trace.xi),
            ["zeta"] + list(trace.zeta),
            ["z"] + list(trace.z),
            ["gamma"] + list(trace.gamma),
            ["y"] + list(trace.y),
            ["K"] + list(trace.K),
            ["s0", trace.s0],
            ["b"] + list(trace.b),
            ["eta"] + list(trace.eta),
            ["u"] + list(trace.u),
        ]
        tables.append({"name": "trace", "rows": trace_rows})
    else:
        p = _structured(args)
        A = jacobi_matrix(big_q_jacobi(p, size))
        B = companion_b(A, p)
        checks.append(_check_from("q-commutator", q_commutator_residual(A, B, p.q, pol=pol)))
        r0, r1 = r_coefficients(p)
        k = big_qjacobi_constants(p)
        params = {
            "parameterization": "structured",
            "q": p.q,
            "c1": p.c1,
            "c2": p.c2,
            "c3": p.c3,
            "size": size,
            **_tol_params(pol),
        }
        tables.append(_band_table("A", A))
        tables.append(_band_table("B", B))
        tables.append(
            {
                "name": "constants",
                "rows": [
                    ["r0", r0],
                    ["r1", r1],
                    ["gamma1", k.gamma1],
                    ["delta1", k.delta1],
                    ["gamma2", k.gamma2],
                    ["delta2", k.delta2],
                ],
            }
        )
    return _report(args.command, params, checks, tables)


def _suite_qosc(args, pol: TolerancePolicy):
    checks, tables = [], []
    if getattr(args, "a", None) is not None:
        _require(args, "q", "size")
        size = int(args.size)
        A, B = canonical_pair(float(args.a), float(args.q), size)
        rep = q_commutator_residual(A, B, float(args.q), pol=pol, rows=(0, size - 1))
        checks.append(_check_from("q-commutator", rep))
        params = {
            "suite": "qosc",
            "q": float(args.q),
            "a": float(args.a),
            "size": size,
            **_tol_params(pol),
        }
    else:
        _require(args, "size")
        p = _general(args)
        size = int(args.size)
        A, B, _ = build_general(p, size)
        rep = q_commutator_residual(A, B, p.q, pol=pol)
        checks.append(_check_from("q-commutator", rep))
        checks.append(_check("xi-conditions", xi_residuals(A, B, p.q).max_abs(), rep.tolerance))
        params = {
            "suite": "qosc",
            "q": p.q,
            "xi0": p.xi0,
            "zeta0": p.zeta0,
            "s1": p.s1,
            "s2": p.s2,
            "size": size,
            **_tol_params(pol),
        }
    return params, checks, tables


def _suite_bigqjacobi_algebra(args, pol: TolerancePolicy):
    _require(args, "size")
    p = _structured(args)
    size = int(args.size)
    rep1, rep2, rep3 = big_qjacobi_algebra_residuals(p, size, pol)
    checks = [
        _check_from("q-oscillator", rep1),
        _check_from("bz-bracket", rep2),
        _check_from("za-bracket", rep3),
    ]
    k = big_qjacobi_constants(p)
    tables = [
        {
            "name": "constants",
            "rows": [
                ["gamma1", k.gamma1],
                ["delta1", k.delta1],
                ["gamma2", k.gamma2],
                ["delta2", k.delta2],
            ],
        }
    ]
    params = {
        "suite": "bigqjacobi-algebra",
        "q": p.q,
        "c1": p.c1,
        "c2": p.c2,
        "c3": p.c3,
        "size": size,
        **_tol_params(pol),
    }
    return params, checks, tables


def _suite_aw_algebra(args, pol: TolerancePolicy):
    _require(args, "size", "mu")
    p = _structured(args)
    size = int(args.size)
    mu = float(args.mu)
    variant = args.variant if args.variant is not None else "ML"
    rep = aw_algebra_residuals(p, mu, size, pol, variant=variant)
    checks = [
        _check_from("m-def", rep.m_def),
        _check_from("relation-1", rep.relation1),
        _check_from("relation-2", rep.relation2),
    ]
    k = aw_constants(p, mu)
    tables = [
        {
            "name": "constants",
            "rows": [
                ["omega0", k.omega0],
                ["sigma1", k.sigma1],
                ["omega1", k.omega1],
                ["sigma2", k.sigma2],
                ["omega2", k.omega2],
            ],
        },
        {
            "name": "orderings",
            "rows": [
                ["ordering", "max_abs", "pass"],
                ["ML", rep.relation2_ml.max_abs, rep.relation2_ml.passed],
                ["LM", rep.relation2_lm.max_abs, rep.relation2_lm.passed],
                ["passing-variant", rep.passing_variant, ""],
            ],
        },
    ]
    params = {
        "suite": "aw-algebra",
        "q": p.q,
        "c1": p.c1,
        "c2": p.c2,
        "c3": p.c3,
        "mu": mu,
        "size": size,
        "variant": variant,
        **_tol_params(pol),
    }
    return params, checks, tables


def _suite_aw_match(args, pol: TolerancePolicy):
    _require(args, "q", "a1", "a2", "a3", "a4")
    if args.size is not None:
        raise InvalidParameterError("--size is not used by --suite aw-match; pass --count")
    count = 21 if args.count is None else int(args.count)
    pa = AWParams(
        q=float(args.q),
        a1=float(args.a1),
        a2=float(args.a2),
        a3=float(args.a3),
        a4=float(args.a4),
    )
    direct = askey_wilson(pa, count)
    sp, w = aw_parameter_map(pa)
    rec, _ = to_monic(build_W(sp, w, count), pol)
    dev = 0.0
    rows = [["n", "b_direct", "b_pencil", "u_direct", "u_pencil"]]
    for n in range(count):
        dev = max(dev, abs(rec.b[n] - direct.b[n]) / max(1.0, abs(direct.b[n])))
        u_d = direct.u[n - 1] if n >= 1 else ""
        u_p = rec.u[n - 1] if n >= 1 else ""
        if n >= 1:
            dev = max(dev, abs(rec.u[n - 1] - direct.u[n - 1]) / max(1.0, abs(direct.u[n - 1])))
        rows.append([n, direct.b[n], rec.b[n], u_d, u_p])
    checks = [_check("aw-match", dev, pol.rel_tol)]
    tables = [{"name": "coefficients", "rows": rows}]
    params = {
        "suite": "aw-match",
        "q": pa.q,
        "a1": pa.a1,
        "a2": pa.a2,
        "a3": pa.a3,
        "a4": pa.a4,
        "count": count,
        **_tol_params(pol),
    }
    return params, checks, tables


def _suite_qdiff(args, pol: TolerancePolicy):
    p = _structured(args)
    kmax = 10 if args.kmax is None else int(args.kmax)
    nmax = 8 if args.nmax is None else int(args.nmax)
    x = LaurentPoly({1: 1.0})

    worst_comm = 0.0
    for k in range(kmax + 1):
        f = LaurentPoly({k: 1.0})
        lhs = laurent_add(
            laurent_mul(x, qdiff_B_apply(f, p)),
            laurent_scale(-p.q, qdiff_B_apply(laurent_mul(x, f), p)),
        )
        resid = laurent_add(lhs, laurent_scale(-1.0, f))
        worst_comm = max(worst_comm, float(resid.mass()) / max(1.0, float(f.mass())))
    checks = [_check("qdiff-commutator", worst_comm, pol.abs_tol)]

    rec = big_q_jacobi(p, nmax + 1)
    zs = eigenvalue_sequence(p, nmax + 1)
    worst_eig = 0.0
    for n in range(nmax + 1):
        Pn = expand_monic(rec, n)
        resid = laurent_add(qdiff_Z_apply(Pn, p), laurent_scale(-zs[n], Pn))
        scale = max(1e-300, abs(zs[n]) * float(Pn.mass()))
        worst_eig = max(worst_eig, float(resid.mass()) / scale)
    checks.append(_check("qdiff-eigenrelation", worst_eig, pol.rel_tol))

    params = {
        "suite": "qdiff",
        "q": p.q,
        "c1": p.c1,
        "c2": p.c2,
        "c3": p.c3,
        "kmax": kmax,
        "nmax": nmax,
        **_tol_params(pol),
    }
    return params, checks, []


_SUITES = {
    "qosc": _suite_qosc,
    "bigqjacobi-algebra": _suite_bigqjacobi_algebra,
    "aw-algebra": _suite_aw_algebra,
    "aw-match": _suite_aw_match,
    "qdiff": _suite_qdiff,
}


def cmd_verify(args) -> dict:
    pol = _policy(args)
    suite = args.suite
    if suite is None and args.command == "algebra":
        suite = "bigqjacobi-algebra"
    if suite is None:
        raise InvalidParameterError("missing required parameter(s): --suite")
    if suite not in _SUITES:
        raise InvalidParameterError(f"unknown suite {suite!r}")
    args.suite = suite
    params, checks, tables = _SUITES[suite](args, pol)
    # The algebra spelling is a pure alias: its reports are verify reports.
    return _report("verify", params, checks, tables)


def _family_recurrence(args):
    _require(args, "family", "q")
    family = args.family
    if family == "q-hahn":
        _require(args, "N", "c1", "c2")
        rec = q_hahn(float(args.c1), float(args.c2), float(args.q), int(args.N))
        params = {
            "family": family,
            "q": float(args.q),
            "c1": float(args.c1),
            "c2": float(args.c2),
            "N": int(args.N),
        }
    elif family == "q-para-krawtchouk":
        _require(args, "N", "c3")
        rec = q_para_krawtchouk(float(args.c3), float(args.q), int(args.N))
        params = {
            "family": family,
            "q": float(args.q),
            "c3": float(args.c3),
            "N": int(args.N),
        }
    elif family == "big-q-jacobi":
        p = _structured(args)
        _require(args, "size")
        rec = big_q_jacobi(p, int(args.size))
        params = {
            "family": family,
            "q": p.q,
            "c1": p.c1,
            "c2": p.c2,
            "c3": p.c3,
            "size": int(args.size),
        }
    elif family == "askey-wilson":
        _require(args, "a1", "a2", "a3", "a4", "size")
        pa = AWParams(
            q=float(args.q),
            a1=float(args.a1),
            a2=float(args.a2),
            a3=float(args.a3),
            a4=float(args.a4),
        )
        rec = askey_wilson(pa, int(args.size))
        params = {
            "family": family,
            "q": pa.q,
            "a1": pa.a1,
            "a2": pa.a2,
            "a3": pa.a3,
            "a4": pa.a4,
            "size": int(args.size),
        }
    else:
        raise InvalidParameterError(f"unknown family {family!r}")
    return rec, params


def _decompose_blocks(rec, pol: TolerancePolicy):
    J = jacobi_matrix(rec)
    B = companion_b(J, companion_params(rec))
    return decompose(J, B, rec.params.q, pol)


def cmd_spectrum(args) -> dict:
    pol = _policy(args)
    rec, params = _family_recurrence(args)
    if rec.family not in ("q-hahn", "q-para-krawtchouk"):
        raise InvalidParameterError("spectrum requires a finite family (q-hahn or q-para-krawtchouk)")
    params = {**params, **_tol_params(pol)}
    lattice = claimed_spectrum(rec)
    rep = verify_spectrum(rec, lattice, pol)
    checks = [_check_from("spectrum", rep)]

    J = jacobi_matrix(rec)
    eigs = eigenvalues(J, pol)
    claimed = sorted(float(v) for v in lattice.points)
    gaps = []
    for s, xs in enumerate(claimed):
        prod = 1.0
        for t, xt in enumerate(claimed):
            if t != s:
                prod *= abs(xs - xt)
        gaps.append(prod)
    rows = [["n", "computed", "claimed", "rel_distance", "charpoly_scaled"]]
    for n, (ev, xs, g) in enumerate(zip(sorted(eigs), claimed, gaps)):
        rel = abs(ev - xs) / max(abs(xs), 1e-300)
        rows.append([n, ev, xs, rel, abs(float(char_poly_eval(J, xs))) / g])
    tables = [
        {"name": "lattice", "rows": [["kind", lattice.kind]] + [["points"] + claimed]},
        {"name": "eigenvalues", "rows": rows},
    ]

    if args.decompose:
        expected = 1 if rec.family == "q-hahn" else 2
        try:
            blocks = _decompose_blocks(rec, pol)
            ok = len(blocks) == expected
        except NotDecomposableError:
            blocks, ok = [], False
        checks.append(_check("block-count", abs(len(blocks) - expected), 0.5, ok=ok))
        block_rows = [["block", "size", "values"]]
        for i, (values, length) in enumerate(blocks):
            block_rows.append([i, length] + list(values))
        tables.append({"name": "blocks", "rows": block_rows})
        params["decompose"] = True
    return _report(args.command, params, checks, tables)


def cmd_poly(args) -> dict:
    pol = _policy(args)
    n_max = 5 if args.n_max is None else int(args.n_max)
    if n_max < 1:
        raise InvalidParameterError("--n-max must be >= 1")
    if args.family in ("q-hahn", "q-para-krawtchouk"):
        rec, params = _family_recurrence(args)
        if n_max > rec.size:
            raise InvalidParameterError(f"--n-max {n_max} exceeds family size {rec.size}")
    else:
        if getattr(args, "size", None) is None:
            args.size = n_max
        rec, params = _family_recurrence(args)
    raw = "0.0,0.5,1.0,2.0" if args.x_points is None else str(args.x_points)
    try:
        xs = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidParameterError(f"bad --x-points {raw!r}") from exc
    if not xs:
        raise InvalidParameterError("--x-points must name at least one point")
    params = {**params, "n_max": n_max, "x_points": xs, **_tol_params(pol)}

    p0_dev = max(abs(eval_monic(rec, 0, x) - 1.0) for x in xs)
    p1_dev = max(abs(eval_monic(rec, 1, x) - (x - rec.b[0])) for x in xs)
    checks = [
        _check("p0-is-one", p0_dev, pol.abs_tol),
        _check("p1-is-x-minus-b0", p1_dev, pol.abs_tol),
    ]
    rows = [["n"] + [x for x in xs]]
    for n in range(n_max + 1):
        rows.append([n] + [eval_monic(rec, n, x) for x in xs])
    tables = [{"name": "values", "rows": rows}]
    return _report(args.command, params, checks, tables)


def cmd_decompose(args) -> dict:
    pol = _policy(args)
    checks, tables = [], []
    if args.family is not None:
        rec, params = _family_recurrence(args)
        if rec.family not in ("q-hahn", "q-para-krawtchouk"):
            raise InvalidParameterError(
                "decompose requires a finite family (q-hahn or q-para-krawtchouk) or general parameters"
            )
        expected = 1 if rec.family == "q-hahn" else 2
        try:
            blocks = _decompose_blocks(rec, pol)
            ok = len(blocks) == expected
        except NotDecomposableError:
            blocks, ok = [], False
        checks.append(_check("block-count", abs(len(blocks) - expected), 0.5, ok=ok))
    else:
        _require(args, "size")
        p = _general(args)
        size = int(args.size)
        A, B, _ = build_general(p, size)
        params = {
            "q": p.q,
            "xi0": p.xi0,
            "zeta0": p.zeta0,
            "s1": p.s1,
            "s2": p.s2,
            "size": size,
        }
        try:
            blocks = decompose(A, B, p.q, pol)
            ok = True
        except NotDecomposableError:
            blocks, ok = [], False
        checks.append(_check("decomposed", 0.0 if ok else 1.0, 0.5, ok=ok))
    params = {**params, **_tol_params(pol)}
    block_rows = [["block", "size", "values"]]
    for i, (values, length) in enumerate(blocks):
        block_rows.append([i, length] + list(values))
    tables.append({"name": "blocks", "rows": block_rows})
    return _report(args.command, params, checks, tables)


# -- argument parsing ------------------------------------------------------------


def _add_float(parser, *names) -> None:
    for name in names:
        parser.add_argument(name, type=float, default=None)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=float, default=None)
    common.add_argument("--size", type=int, default=None)
    common.add_argument("--abs-tol", type=float, default=None, dest="abs_tol")
    common.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    common.add_argument("--params", default=None, metavar="PATH")
    common.add_argument("--csv-dir", default=None, dest="csv_dir", metavar="PATH")
    common.add_argument(
        "--json", action=argparse.BooleanOptionalAction, default=None, dest="json_out"
    )

    parser = argparse.ArgumentParser(
        prog="qosc",
        description="q-oscillator tridiagonal representations: build, verify, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common])
    p_build.add_argument("--parameterization", choices=["general", "structured"], default=None)
    _add_float(p_build, "--xi0", "--zeta0", "--s1", "--s2", "--c1", "--c2", "--c3")

    suite_names = sorted(_SUITES)
    for cmd in ("verify", "algebra"):
        sp = sub.add_parser(cmd, parents=[common])
        sp.add_argument("--suite", choices=suite_names, default=None)
        _add_float(
            sp,
            "--xi0",
            "--zeta0",
            "--s1",
            "--s2",
            "--c1",
            "--c2",
            "--c3",
            "--a1",
            "--a2",
            "--a3",
            "--a4",
            "--mu",
            "--a",
        )
        sp.add_argument("--count", type=int, default=None)
        sp.add_argument("--kmax", type=int, default=None)
        sp.add_argument("--nmax", type=int, default=None)
        sp.add_argument("--variant", choices=["ML", "LM"], default=None)

    family_names = ["big-q-jacobi", "askey-wilson", "q-hahn", "q-para-krawtchouk"]

    p_spec = sub.add_parser("spectrum", parents=[common])
    p_spec.add_argument("--family", choices=family_names, default=None)
    p_spec.add_argument("--N", type=int, default=None)
    _add_float(p_spec, "--c1", "--c2", "--c3")
    p_spec.add_argument("--decompose", action="store_const", const=True, default=None)

    p_poly = sub.add_parser("poly", parents=[common])
    p_poly.add_argument("--family", choices=family_names, default=None)
    p_poly.add_argument("--N", type=int, default=None)
    _add_float(p_poly, "--c1", "--c2", "--c3", "--a1", "--a2", "--a3", "--a4")
    p_poly.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_poly.add_argument("--x-points", default=None, dest="x_points")

    p_dec = sub.add_parser("decompose", parents=[common])
    p_dec.add_argument("--family", choices=family_names, default=None)
    p_dec.add_argument("--N", type=int, default=None)
    _add_float(p_dec, "--c1", "--c2", "--c3", "--xi0", "--zeta0", "--s1", "--s2")

    return parser


def _merge_param_file(args) -> None:
    if args.params is None:
        return
    with open(args.params) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidParameterError("--params file must hold a JSON object")
    for key in sorted(data):
        attr = str(key).replace("-", "_")
        if not hasattr(args, attr):
            raise InvalidParameterError(f"unknown parameter {key!r} in --params file")
        if getattr(args, attr) is None:
            setattr(args, attr, data[key])


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "algebra": cmd_verify,
    "spectrum": cmd_spectrum,
    "poly": cmd_poly,
    "decompose": cmd_decompose,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_param_file(args)
        report = _COMMANDS[args.command](args)
    except QoscError as exc:
        sys.stderr.write(f"error[{exc.kind}]: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return 2
    if args.json_out is False:
        _print_text(report)
    else:
        _print_report(report)
    if args.csv_dir is not None:
        _write_csv(report, args.csv_dir)
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Report schema, determinism, exit statuses, and the fixture commands."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from qosc import AWParams, askey_wilson, aw_parameter_map, build_W, to_monic
from qosc.cli import main

STRUCTURED = [
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
]

STRUCTURED_FILE = {"parameterization": "structured", "q": 0.5, "c1": 0.25, "c2": 0.5, "c3": 0.25,
                   "size": 10}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table(report, name):
    for t in report["tables"]:
        if t["name"] == name:
            return t
    raise AssertionError(f"no table named {name!r} in {[t['name'] for t in report['tables']]}")


def row(tab, label):
    for r in tab["rows"]:
        if r[0] == label:
            return r
    raise AssertionError(f"no row labeled {label!r}")


class TestReportSchema:
    def test_top_level_fields_and_order(self, capsys):
        code, out, _ = run(capsys, STRUCTURED)
        assert code == 0
        report = json.loads(out)
        assert list(report.keys()) == ["command", "params", "checks", "tables", "version"]
        assert report["command"] == "build"
        for check in report["checks"]:
            assert list(check.keys()) == ["name", "max_abs", "tolerance", "pass"]

    def test_params_echoed(self, capsys):
        _, out, _ = run(capsys, STRUCTURED)
        params = json.loads(out)["params"]
        assert params["parameterization"] == "structured"
        assert params["q"] == 0.5
        assert params["size"] == 10

    def test_structured_fixture_b0(self, capsys):
        # q = 1/2, c = (1/4, 1/2, 1/4) pins b_0 = 13/62.
        _, out, _ = run(capsys, STRUCTURED)
        report = json.loads(out)
        diag = row(table(report, "A"), "diag")
        assert abs(diag[1] - float(F(13, 62))) <= 1e-15

    def test_constants_table_rows(self, capsys):
        _, out, _ = run(capsys, STRUCTURED)
        tab = table(json.loads(out), "constants")
        assert [r[0] for r in tab["rows"]] == ["r0", "r1", "gamma1", "delta1", "gamma2", "delta2"]

    def test_general_build_trace_table(self, capsys):
        argv = [
            "build",
            "--parameterization",
            "general",
            "--q",
            "0.7",
            "--xi0",
            "1.0",
            "--zeta0",
            "0.2",
            "--s1",
            "0.1",
            "--s2",
            "0.3",
            "--size",
            "12",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        assert names == ["q-commutator", "xi-conditions"]
        assert all(c["pass"] for c in report["checks"])
        tr = table(report, "trace")
        assert [r[0] for r in tr["rows"]] == [
            "xi",
            "zeta",
            "z",
            "gamma",
            "y",
            "K",
            "s0",
            "b",
            "eta",
            "u",
        ]
        # u_0 = 0 by convention.
        assert row(tr, "u")[1] == 0.0


class TestDeterminismAndExitCodes:
    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, STRUCTURED)
        _, second, _ = run(capsys, STRUCTURED)
        assert first == second

    def test_exit_one_on_check_failure(self, capsys):
        argv = STRUCTURED + ["--rel-tol", "1e-30", "--abs-tol", "1e-300"]
        code, out, _ = run(capsys, argv)
        assert code == 1
        report = json.loads(out)
        assert not all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("argv", [
        [a if a != "10" else "200" for a in STRUCTURED],
        # 0.5 ** 1100 is past the float range: the guard refuses it all the same
        ["build", "--parameterization", "general", "--q", "0.5", "--xi0", "1", "--zeta0", "-0.3",
         "--s1", "0.4", "--s2", "0.1", "--size", "1100"],
    ], ids=["size-200", "past-float-range"])
    def test_exit_two_on_overflow_guard(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error[overflow-guard]: ") and err.count("\n") == 1

    def test_exit_two_on_missing_parameters(self, capsys):
        argv = ["build", "--parameterization", "general", "--q", "0.7", "--size", "8"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error[invalid-parameter]:")
        assert "--xi0" in err and "--s2" in err

    def test_exit_two_on_resonance(self, capsys):
        argv = [
            "build",
            "--parameterization",
            "structured",
            "--q",
            "0.5",
            "--c1",
            "8.0",
            "--c2",
            "1.0",
            "--c3",
            "0.3",
            "--size",
            "6",
        ]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error[resonance]:")

    def test_unknown_flag_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--no-such-flag", "1"])
        assert exc.value.code == 2

    def test_algebra_is_not_a_command(self, capsys):
        # the bigqjacobi-algebra suite is spelled verify --suite bigqjacobi-algebra
        with pytest.raises(SystemExit) as exc:
            main(["algebra", "--q", "0.5", "--c1", "0.25", "--c2", "0.5", "--c3", "0.25",
                  "--size", "10"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument command: invalid choice: 'algebra'" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--q", "nan"), ("--c1", "inf"), ("--abs-tol", "inf"), ("--rel-tol", "nan"),
         ("--c3", "-inf")],
    )
    def test_non_finite_float_flag_is_argparse_error(self, capsys, flag, value):
        # a NaN input would otherwise give NaN residuals and "nan" tokens in
        # the JSON, and an infinite tolerance would pass every check
        with pytest.raises(SystemExit) as exc:
            main(STRUCTURED + [f"{flag}={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: {value!r} is not a finite number" in err

    def test_bad_float_flag_keeps_argparse_wording(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--q", "abc"])
        assert exc.value.code == 2
        assert "argument --q: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "aw-algebra", "--q", "0.5", "--c1", "0.25", "--c2", "0.5",
         "--c3", "0.25", "--mu", "1e300", "--size", "12"],
        ["build", "--parameterization", "general", "--q", "0.5", "--xi0", "1e300", "--zeta0",
         "-0.3", "--s1", "0.4", "--s2", "0.1", "--size", "8"],
        ["verify", "--suite", "qosc", "--q", "0.5", "--xi0", "1e200", "--zeta0", "-0.3",
         "--s1", "0.4", "--s2", "0.1", "--size", "8"],
        ["decompose", "--q", "0.5", "--xi0", "1e300", "--zeta0", "-0.3", "--s1", "0.4",
         "--s2", "0.1", "--size", "8"],
    ])
    def test_exit_two_on_float_overflow(self, capsys, argv):
        # finite flags whose powers overflow: float ** raises where * gives inf
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error[overflow]: ") and err.count("\n") == 1


    @pytest.mark.parametrize("argv, kind", [
        (["verify", "--suite", "qdiff", "--q", "1e-300", "--c1", "0.156", "--c2", "0.2911",
          "--c3=-0.4652"], "underflow"),
        # the lattice gaps' product underflows, and is taken by scaled minors; the
        # rounded family then has a certified non-real eigenvalue
        (["spectrum", "--family", "q-para-krawtchouk", "--q", "0.3889", "--c3", "1e-300",
          "--N", "5", "--decompose"], "unsupported-spectrum"),
    ], ids=["argv0", "argv1"])
    def test_exit_two_on_float_underflow(self, capsys, argv, kind):
        # a finite flag underflows float arithmetic: one error line, no report
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error[{kind}]: ") and err.count("\n") == 1


def _no_constant(token):
    raise AssertionError(f"{token} is not JSON")


class TestNonFiniteOutput:
    """Numbers that overflow to inf or NaN are written as null."""

    @pytest.mark.parametrize("argv, status", [
        (["verify", "--suite", "aw-match", "--q", "0.6", "--a1", "0.9", "--a2", "0.5", "--a3",
          "0.4", "--a4", "1e300", "--count", "5"], 1),
        (["poly", "--family", "big-q-jacobi", "--q", "0.5", "--c1", "0.25", "--c2", "0.5",
          "--c3", "0.25", "--size", "8", "--x-points", "1e300"], 0),
        (["build", "--parameterization", "structured", "--q", "0.5", "--c1", "1e200", "--c2",
          "1e-200", "--c3", "1e300", "--size", "5"], 1),
    ])
    def test_stdout_is_json(self, capsys, argv, status):
        code, out, _ = run(capsys, argv)
        assert code == status
        report = json.loads(out, parse_constant=_no_constant)
        assert None in [v for t in report["tables"] for r in t["rows"] for v in r]

    def test_overflowed_scale_fails(self, capsys):
        # the pair scale overflows: max_abs and tolerance are both inf, and the
        # library's report fails, so the CLI's verdict must too
        argv = ["verify", "--suite", "qosc", "--q", "-0.5", "--a", "1e307", "--size", "6"]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert '"max_abs": null, "tolerance": null, "pass": false' in out

    def test_xi_conditions_judged_at_the_commutator_scale(self, capsys):
        # s2 = 1e150 overflows the pair scale; the xi residual 2.8e283 is finite
        argv = ["verify", "--suite", "qosc", "--q", "0.5", "--xi0", "1.0", "--zeta0=-0.3",
                "--s1", "0.4", "--s2", "1e150", "--size", "6"]
        code, out, _ = run(capsys, argv)
        xi = json.loads(out)["checks"][1]
        assert code == 1
        assert xi["name"] == "xi-conditions" and 1e283 < xi["max_abs"] < 1e284
        assert xi["tolerance"] is None and xi["pass"] is False

    def test_text_and_csv_write_null(self, capsys, tmp_path):
        argv = ["verify", "--suite", "aw-match", "--q", "0.6", "--a1", "0.9", "--a2", "0.5",
                "--a3", "0.4", "--a4", "1e300", "--count", "3", "--no-json", "--csv-dir",
                str(tmp_path)]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert "aw-match: max_abs=null tolerance=1.0000000000000001e-09 FAIL\n" in out
        assert (tmp_path / "verify-coefficients.csv").read_text().splitlines()[-1] == (
            "2,null,null,null,null"
        )


class TestParamFileAndOutputs:
    def test_params_file_with_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "fixture.json"
        cfg.write_text(
            json.dumps(
                {
                    "parameterization": "structured",
                    "q": 0.5,
                    "c1": 0.25,
                    "c2": 0.5,
                    "c3": 0.25,
                    "size": 4,
                }
            )
        )
        code, out, _ = run(capsys, ["build", "--params", str(cfg), "--size", "10"])
        assert code == 0
        report = json.loads(out)
        assert report["params"]["size"] == 10
        _, direct, _ = run(capsys, STRUCTURED)
        assert out == direct

    def test_null_param_file_value_is_not_given(self, capsys, tmp_path):
        # a JSON null leaves the flag at its default, as if the key were absent
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({**STRUCTURED_FILE, "rel_tol": None}))
        code, out, _ = run(capsys, ["build", "--params", str(cfg)])
        cfg.write_text(json.dumps(STRUCTURED_FILE))
        assert code == 0 and run(capsys, ["build", "--params", str(cfg)]) == (0, out, "")

    def test_unknown_param_file_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"quux": 1}))
        code, _, err = run(capsys, ["build", "--params", str(cfg)])
        assert code == 2
        assert "quux" in err

    def test_param_file_not_utf8_is_an_io_error(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"parameterization": "structured", "q": 0.5, "c1": "\xe9"}')
        code, out, err = run(capsys, ["build", "--params", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error[io]:") and err.count("\n") == 1 and "utf-8" in err

    @pytest.mark.parametrize(
        "argv, data, key",
        [
            (["build"], {**STRUCTURED_FILE, "q": "abc"}, "q"),
            (["build"], {**STRUCTURED_FILE, "c2": float("nan")}, "c2"),
            (["build"], {**STRUCTURED_FILE, "rel_tol": float("inf")}, "rel_tol"),
            (["build"], {**STRUCTURED_FILE, "size": "ten"}, "size"),
            (["build"], {**STRUCTURED_FILE, "parameterization": "bogus"}, "parameterization"),
            (["spectrum", "--family", "q-hahn", "--q", "0.5", "--c1", "0.3", "--c2", "0.4",
              "--N", "3"], {"decompose": "no"}, "decompose"),
        ],
        ids=["float-flag", "nan-float-flag", "inf-tolerance", "int-flag", "choices", "on-off-flag"],
    )
    def test_param_file_values_checked_like_flags(self, capsys, tmp_path, argv, data, key):
        # A file value goes through its flag's argparse type and choices; an
        # on/off flag takes a JSON boolean.
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, argv + ["--params", str(cfg)])
        assert code == 2
        assert out == ""
        assert err.startswith("error[invalid-parameter]:") and repr(key) in err

    def test_csv_dir_writes_tables(self, capsys, tmp_path):
        argv = [
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
            "--csv-dir",
            str(tmp_path),
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        csv_path = tmp_path / "poly-values.csv"
        assert csv_path.exists()
        first = csv_path.read_bytes()
        run(capsys, argv)
        assert csv_path.read_bytes() == first

    def test_no_json_text_mode(self, capsys):
        code, out, _ = run(capsys, STRUCTURED + ["--no-json"])
        assert code == 0
        assert out.splitlines()[0] == "command: build"
        assert "overall: pass" in out


class TestVerifySuites:
    def test_qosc_canonical_exact(self, capsys):
        argv = ["verify", "--suite", "qosc", "--q", "0.5", "--a", "1.0", "--size", "8"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        [check] = [c for c in report["checks"] if c["name"] == "q-commutator"]
        assert check["max_abs"] == 0.0

    def test_aw_match_deviation(self, capsys):
        argv = [
            "verify",
            "--suite",
            "aw-match",
            "--q",
            "0.6",
            "--a1",
            "0.9",
            "--a2",
            "0.5",
            "--a3",
            "0.4",
            "--a4",
            "0.3",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["params"]["count"] == 21
        names = [c["name"] for c in report["checks"]]
        assert any("deviation" in n or "match" in n for n in names)

    def test_aw_match_rejects_size(self, capsys):
        argv = ["verify", "--suite", "aw-match", "--q", "0.6", "--a1", "0.9", "--a2", "0.5",
                "--a3", "0.4", "--a4", "0.3", "--size", "99"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert "--size" in err

    def test_aw_algebra_has_no_variant_flag(self, capsys):
        # relation-2 is the M@L ordering; the orderings table shows both
        argv = ["verify", "--suite", "aw-algebra", "--q", "0.5", "--c1", "0.25", "--c2", "0.5",
                "--c3", "0.25", "--mu", "0.7", "--size", "12", "--variant", "LM"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --variant LM" in capsys.readouterr().err

    def test_aw_algebra_reports_orderings(self, capsys):
        argv = [
            "verify",
            "--suite",
            "aw-algebra",
            "--q",
            "0.5",
            "--c1",
            "0.25",
            "--c2",
            "0.5",
            "--c3",
            "0.25",
            "--mu",
            "0.7",
            "--size",
            "12",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        tab = table(report, "orderings")
        assert row(tab, "ML")[2] is True
        assert row(tab, "LM")[2] is False
        assert row(tab, "passing-variant")[1] == "ML"

    def test_qdiff_suite(self, capsys):
        argv = [
            "verify",
            "--suite",
            "qdiff",
            "--q",
            "0.5",
            "--c1",
            "0.25",
            "--c2",
            "0.5",
            "--c3",
            "0.25",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert all(c["pass"] for c in report["checks"])

    def test_aw_match_nan_deviation_fails(self, capsys):
        # a4 = 1e300 overflows the direct recurrence to NaN; max() used to drop it
        argv = ["verify", "--suite", "aw-match", "--q", "0.6", "--a1", "0.9", "--a2", "0.5",
                "--a3", "0.4", "--a4", "1e300", "--count", "5"]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert '"name": "aw-match", "max_abs": null' in out and '"pass": false' in out

    @pytest.mark.parametrize("seed", range(5))
    def test_aw_match_max_abs_is_the_per_coefficient_rule(self, capsys, seed):
        rng = random.Random(seed)
        q = rng.uniform(0.3, 0.9)
        a = [rng.uniform(0.1, 0.95) for _ in range(4)]
        count = rng.randint(2, 30)
        argv = ["verify", "--suite", "aw-match", "--q", repr(q), "--count", str(count)]
        argv += [x for k, v in enumerate(a, 1) for x in (f"--a{k}", repr(v))]
        _, out, _ = run(capsys, argv)
        # the rule the suite applied coefficient by coefficient before it
        # scanned the two Jacobi matrices: |pencil - direct| / max(1, |direct|)
        pa = AWParams(q, *a)
        direct = askey_wilson(pa, count)
        rec, _ = to_monic(build_W(*aw_parameter_map(pa), count))
        devs = [abs(p - d) / max(1.0, abs(d)) for p, d in zip(rec.b + rec.u, direct.b + direct.u)]
        [check] = json.loads(out)["checks"]
        assert check["max_abs"].hex() == max(devs).hex()

    @pytest.mark.parametrize("flag", ["--kmax", "--nmax"])
    def test_qdiff_negative_count_names_the_flag(self, capsys, flag):
        # --kmax -1 used to check no monomial at all and pass
        argv = ["verify", "--suite", "qdiff", "--q", "0.5", "--c1", "0.25", "--c2", "0.5",
                "--c3", "0.25", flag, "-1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error[invalid-parameter]: {flag} must be >= 0\n"


class TestSpectrumAndPoly:
    def test_q_hahn_spectrum_table(self, capsys):
        argv = ["spectrum", "--family", "q-hahn", "--q", "0.5", "--c1", "0.3", "--c2", "0.4", "--N", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        lattice = table(report, "lattice")
        assert row(lattice, "kind")[1] == "single-exponential"
        assert sorted(row(lattice, "points")[1:]) == [1.0, 2.0, 4.0, 8.0]

    def test_q_para_spectrum_and_blocks(self, capsys):
        argv = [
            "spectrum",
            "--family",
            "q-para-krawtchouk",
            "--q",
            "0.5",
            "--c3",
            "0.2",
            "--N",
            "3",
            "--decompose",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        lattice = table(report, "lattice")
        assert row(lattice, "kind")[1] == "bi-exponential"
        assert sorted(row(lattice, "points")[1:]) == [0.05, 0.1, 1.0, 2.0]
        blocks = table(report, "blocks")
        assert len(blocks["rows"]) == 1 + 2  # header + two blocks

    def test_poly_p0_p1_and_frozen_p5(self, capsys):
        argv = [
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
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        assert "p0-is-one" in names and "p1-is-x-minus-b0" in names
        values = table(report, "values")
        header = values["rows"][0]
        assert header[0] == "n"
        xs = header[1:]
        assert xs == [0.0, 0.5, 1.0, 2.0]
        p5 = row(values, 5)
        frozen = [
            F(-1715794, 175030472903),
            F(1889879040, 175030472903),
            F(105839788320, 175030472903),
            F(4382901234180, 175030472903),
        ]
        for got, want in zip(p5[1:], frozen):
            assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))

    @pytest.mark.parametrize("decompose, solves", [([], 1), (["--decompose"], 2)])
    def test_spectrum_solves_once(self, capsys, monkeypatch, decompose, solves):
        # the table renders verify_spectrum's evidence; only decompose solves again
        import qosc.opmatrix

        calls = []
        original = qosc.opmatrix.eigenvalues

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qosc" and getattr(module, "eigenvalues", None) is original:
                monkeypatch.setattr(module, "eigenvalues", counted)
        argv = ["spectrum", "--family", "q-para-krawtchouk", "--q", "0.5", "--c3", "0.2", "--N", "3"]
        code, _, _ = run(capsys, argv + decompose)
        assert code == 0
        assert len(calls) == solves

    def test_spectrum_table_pairs_each_point_with_its_eigenvalue(self, capsys):
        argv = ["spectrum", "--family", "q-para-krawtchouk", "--q", "0.6", "--c3", "0.25", "--N", "7",
                "--rel-tol", "1e-8"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        rows = table(report, "eigenvalues")["rows"]
        assert rows[0] == ["n", "computed", "claimed", "rel_distance", "charpoly_scaled"]
        claimed = [r[2] for r in rows[1:]]
        assert claimed == sorted(claimed) == row(table(report, "lattice"), "points")[1:]
        worst = max(max(r[3], r[4]) for r in rows[1:])
        assert report["checks"][0]["max_abs"] == worst

    def test_poly_non_finite_x_point_refused(self, capsys):
        argv = ["poly", "--family", "big-q-jacobi", "--q", "0.5", "--c1", "0.25", "--c2", "0.5",
                "--c3", "0.25", "--size", "8", "--x-points", "0.5,nan"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error[invalid-parameter]: bad --x-points '0.5,nan'\n"

    def test_poly_n_max_beyond_size_names_the_flag(self, capsys):
        # the check finite families already had, now on an infinite family
        argv = ["poly", "--family", "big-q-jacobi", "--q", "0.5", "--c1", "0.25", "--c2", "0.5",
                "--c3", "0.25", "--size", "4", "--n-max", "5"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error[invalid-parameter]: --n-max 5 exceeds family size 4\n"

    @pytest.mark.parametrize("family", [
        ["big-q-jacobi", "--c1", "0.25", "--c2", "0.5", "--c3", "0.25", "--size", "4"],
        ["q-hahn", "--c1", "0.3", "--c2", "0.4", "--N", "3"],
    ], ids=["big-q-jacobi", "q-hahn"])
    def test_poly_default_n_max_stops_at_the_family_size(self, capsys, family):
        code, out, err = run(capsys, ["poly", "--q", "0.5", "--family", *family])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["params"]["n_max"] == 4
        assert [r[0] for r in table(report, "values")["rows"][1:]] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("command", ["spectrum", "decompose", "poly"])
    @pytest.mark.parametrize("family", [["q-hahn", "--c1", "0.3", "--c2", "0.4", "--N", "3"],
                                        ["q-para-krawtchouk", "--c3", "0.2", "--N", "3"]],
                             ids=["q-hahn", "q-para-krawtchouk"])
    def test_stray_size_on_a_finite_family_is_refused(self, capsys, command, family):
        argv = [command, "--q", "0.5", "--family", *family]
        assert run(capsys, argv)[0] == 0
        code, out, err = run(capsys, argv + ["--size", "99"])
        assert (code, out) == (2, "")
        assert err == "error[invalid-parameter]: --size is not used by finite families; pass --N\n"

    @pytest.mark.parametrize("command", ["spectrum", "decompose"])
    @pytest.mark.parametrize("family", ["askey-wilson", "big-q-jacobi"])
    def test_infinite_family_refused_before_its_flags(self, capsys, command, family):
        code, out, err = run(capsys, [command, "--family", family, "--q", "0.6"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error[invalid-parameter]: {command} requires a finite family")


class TestDecomposeCommand:
    def test_family_path_counts_blocks(self, capsys):
        argv = [
            "decompose",
            "--family",
            "q-para-krawtchouk",
            "--q",
            "0.5",
            "--c3",
            "0.2",
            "--N",
            "3",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        blocks = table(report, "blocks")
        sizes = [r[1] for r in blocks["rows"][1:]]
        assert sizes == [2, 2]


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qosc.cli"] + STRUCTURED,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "build"


def test_import_loads_no_numpy():
    # A CLI call pays for every module its command imports, and the spectrum
    # command imports all of qosc: numpy costs ~100 ms, dataclasses (which loads
    # inspect) ~10 ms plus the work of its decorator, fractions ~2 ms (the exact
    # paths look it up in sys.modules instead).
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import qosc, qosc.cli, sys\n"
        "from qosc import *\n"
        "import qosc._eigen\n"
        "for name in ('numpy', 'dataclasses', 'inspect', 'fractions'):\n"
        "    assert name not in sys.modules, name\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr

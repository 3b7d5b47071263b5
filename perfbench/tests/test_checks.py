"""The benchmark's oracles reject wrong answers.

    python3 -m pytest perfbench/tests -q

Each test takes a real output of the program from one workload operation,
shows the oracle accepts it, then passes the oracle a deliberately wrong copy
and shows it is rejected.  The program itself is never patched.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def export_of(workload: str, name: str, seed: int = 1) -> dict:
    ops, _ = workloads.build(workload, seed)
    op = next(op for op in ops if op.name == name)
    ok, result = workloads.attempt(op)
    assert ok, f"{name} failed"
    data = op.export(result)
    oracles.CHECKS[op.check](data)  # the true answer passes
    return data


def rejects(check, data) -> None:
    with pytest.raises(CheckFailed):
        check(data)


def test_perturbed_eigenvalue_is_rejected():
    data = export_of("spectra", "eigenvalues/n=64")
    wrong = copy.deepcopy(data)
    wrong["eigenvalues"][10] *= 1 + 1e-7
    rejects(oracles.check_eigenvalues, wrong)


def test_missing_eigenvalue_is_rejected():
    wrong = copy.deepcopy(export_of("spectra", "eigenvalues/n=16"))
    wrong["eigenvalues"].pop()
    rejects(oracles.check_eigenvalues, wrong)


def test_exact_residual_with_one_nonzero_entry_is_rejected():
    data = export_of("exact", "general/n=8")
    wrong = copy.deepcopy(data)
    wrong["R"][1][3] = Fraction(1, 10**30)
    rejects(oracles.check_exact_pair, wrong)


def test_exact_residual_hiding_a_wrong_band_is_rejected():
    # R all zero as reported, but A changed: the independent product disagrees.
    wrong = copy.deepcopy(export_of("exact", "big-q-jacobi/n=8"))
    wrong["A"][0][2] += Fraction(1, 7)
    rejects(oracles.check_exact_pair, wrong)


def test_float_residual_is_not_exact():
    wrong = copy.deepcopy(export_of("exact", "general/n=8"))
    wrong["R"][0][0] = 0.0
    rejects(oracles.check_exact_pair, wrong)


def test_charpoly_nonzero_at_a_lattice_point_is_rejected():
    wrong = copy.deepcopy(export_of("exact", "charpoly/q-para-krawtchouk/N=11"))
    wrong["values"][3] = Fraction(1, 3)
    rejects(oracles.check_charpoly, wrong)


def test_wrong_block_count_is_rejected():
    data = export_of("spectra", "decompose/q-para-krawtchouk/N=5")
    assert [size for _, size in data["blocks"]] == [3, 3]
    vals = [v for block, _ in data["blocks"] for v in block]
    rejects(oracles.check_decompose, {**data, "blocks": [[sorted(vals), len(vals)]]})


def test_block_off_the_lattice_is_rejected():
    wrong = copy.deepcopy(export_of("spectra", "decompose/q-hahn/N=4"))
    wrong["blocks"][0][0][2] *= 1 + 1e-6
    rejects(oracles.check_decompose, wrong)


def test_reported_residual_that_disagrees_with_dense_is_rejected():
    data = export_of("identities", "general/n=64")
    wrong = copy.deepcopy(data)
    wrong["report"]["max_abs"] = data["report"]["max_abs"] + 2 * data["report"]["tolerance"]
    rejects(oracles.check_general, wrong)


def test_residual_of_a_corrupted_band_is_rejected():
    wrong = copy.deepcopy(export_of("identities", "bqj-algebra/n=16"))
    wrong["B"][0][4] += 1e-3
    rejects(oracles.check_bqj_algebra, wrong)


def test_wrong_tolerance_is_rejected():
    wrong = copy.deepcopy(export_of("identities", "aw-algebra/n=12"))
    wrong["relation1"]["tolerance"] *= 10
    rejects(oracles.check_aw_algebra, wrong)


def test_classify_returning_other_parameters_is_rejected():
    wrong = copy.deepcopy(export_of("identities", "classify/n=32"))
    wrong["recovered"][2] += 1e-6
    rejects(oracles.check_classify, wrong)


def test_askey_wilson_coefficient_off_the_closed_form_is_rejected():
    wrong = copy.deepcopy(export_of("identities", "aw-match/count=14"))
    wrong["direct_u"][5] *= 1 + 1e-9
    rejects(oracles.check_aw_match, wrong)


def test_qdiff_eigen_relation_violation_is_rejected():
    wrong = copy.deepcopy(export_of("identities", "qdiff/n=6"))
    wrong["ZP"][2] += 1e-3
    rejects(oracles.check_qdiff, wrong)


def test_failed_spectrum_report_is_rejected():
    wrong = copy.deepcopy(export_of("spectra", "verify/q-hahn/N=10"))
    wrong["report"].update(max_abs=2e-8, passed=False)
    rejects(oracles.check_verify_spectrum, wrong)


def test_refusal_of_the_wrong_type_is_rejected():
    ops, _ = workloads.build("reject", 1)
    op = next(op for op in ops if op.name == "resonance")
    ok, exc = workloads.attempt(op)
    assert ok
    data = op.export(exc)
    oracles.check_resonance_refusal(data)
    rejects(oracles.check_resonance_refusal, {**data, "error": "InvalidParameterError"})
    rejects(oracles.check_resonance_refusal, {**data, "zeta0": data["zeta0"] * 1.01})


def test_real_spectrum_is_not_a_complex_refusal():
    # A symmetrizable big q-Jacobi matrix (c3 < 0) has a real spectrum.
    data = export_of("spectra", "eigenvalues/n=16")
    rejects(oracles.check_complex_refusal,
            {"error": "UnsupportedSpectrumError", "b": data["b"], "u": data["u"]})


def test_wrong_exit_status_is_rejected():
    oracles.check_exit(0, 0, "build")
    with pytest.raises(CheckFailed):
        oracles.check_exit(1, 0, "build")


def test_output_that_changes_between_calls_is_rejected():
    oracles.check_identical(["a", "a", "a"], "build")
    with pytest.raises(CheckFailed):
        oracles.check_identical(["a", "b", "a"], "build")


def cli_outputs(seed: int = 1) -> dict:
    texts = {}
    for op in workloads.cli_in_process(seed):
        ok, (code, out) = workloads.attempt(op)
        if ok:
            texts[op.name] = out.decode()
    return texts


def test_cli_reports_pass_and_a_wrong_number_is_rejected():
    texts = cli_outputs()
    oracles.check_cli(texts)
    rep = json.loads(texts["verify-qosc"])
    rep["checks"][0]["max_abs"] += 2 * rep["checks"][0]["tolerance"]
    with pytest.raises(CheckFailed):
        oracles.check_cli({**texts, "verify-qosc": json.dumps(rep)})


def test_cli_report_that_does_not_parse_is_rejected():
    texts = cli_outputs()
    with pytest.raises(CheckFailed):
        oracles.check_cli({**texts, "poly": texts["poly"][:-3]})

"""The CLI reproduces a recorded corpus byte for byte.

``data/cli_golden.json`` holds argv lists (the README examples, the
``test_cli.py`` and criterion-10 fixtures, every error path, ``--no-json``,
``--params`` files and three seeds of the benchmark's cli pass) with the
stdout, stderr and exit status each one produced when recorded.  ``{tmp}`` in
an argv stands for a temporary directory holding the case's ``files``.

argparse words its usage and error lines differently across Python versions,
so stderr that argparse wrote (it starts with ``usage:``) is compared in full
only on the Python version the corpus was recorded with.

After an intended change to the output, re-record with
``PYTHONPATH=src python tests/test_cli_golden.py --record`` and review the diff.
"""

import json
import os
import sys

import pytest

from qosc.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")

with open(DATA) as fh:
    GOLDEN = json.load(fh)


def run_case(case, tmp, capture):
    """(exit status, stdout, stderr) of one case; ``capture()`` returns (out, err)."""
    for name, text in case["files"].items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)
    argv = [a.replace("{tmp}", tmp) for a in case["argv"]]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capture()
    return code, out, err.replace(tmp, "{tmp}")


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["label"])
def test_golden(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    capsys.readouterr()
    code, out, err = run_case(case, str(tmp_path), capsys.readouterr)
    assert code == case["exit"]
    assert out == case["stdout"]
    if case["stderr"].startswith("usage:") and list(sys.version_info[:2]) != GOLDEN["python"]:
        assert err.startswith("usage:")
    else:
        assert err == case["stderr"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import contextlib
    import io
    import tempfile

    os.environ["COLUMNS"] = "80"
    for case in GOLDEN["cases"]:
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, stdout, stderr = run_case(case, tmp, lambda: (out.getvalue(), err.getvalue()))
        case.update(exit=code, stdout=stdout, stderr=stderr)
    GOLDEN["python"] = list(sys.version_info[:2])
    with open(DATA, "w") as fh:
        json.dump(GOLDEN, fh, indent=1)
        fh.write("\n")

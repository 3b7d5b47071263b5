"""The package loads a submodule on the first read of one of its names, and a
CLI call compiles only the modules its command runs.  Every public name, and
every public method or property of a public class, is used by something other
than the tests.

Each load check starts a fresh interpreter: the test process has long since
imported every module.
"""

import os
import re
import subprocess
import sys
import types

import pytest

import qosc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENV = {**os.environ, "PYTHONPATH": SRC}

# qosc.__all__, sorted.
PUBLIC = """
AWAlgebraConstants AWAlgebraReport AWParams BandMatrix BigQJacobiConstants GeneralParams
GeneralSolutionTrace InvalidNormalizationError InvalidParameterError LaurentPoly MonicRecurrence
NotAQOscillatorError NotDecomposableError NotMonicReducibleError NumericFailureError QoscError
ReducibleRepresentationError ResidualReport ResonanceError SizeGuardError SpectrumLattice
SpectrumMismatchError SpectrumReport StructuredParams TolerancePolicy TooSmallError
UnsupportedFamilyError UnsupportedSpectrumError WCoeffs XiResiduals __version__ askey_wilson
aw_algebra_residuals aw_constants aw_match_residual aw_parameter_map band_add band_identity
band_mul band_scale band_sub band_tridiagonal big_q_jacobi big_qjacobi_algebra_residuals
big_qjacobi_constants build_W build_Z build_general canonical_pair char_poly_eval claimed_spectrum
classify companion_b companion_params decompose eigenvalue_sequence eigenvalues eval_monic
expand_monic guard_size inf_norm jacobi_matrix laurent_add laurent_mul laurent_scale
laurent_scale_arg q_commutator_residual q_hahn q_para_krawtchouk qdiff_B_apply qdiff_Z_apply
qdiff_residuals r_coefficients residual_report to_monic verify_spectrum xi_residuals
""".split()

# Public names taken out of the package: no library code path, README line,
# script or benchmark used them.
RETIRED = ["DiagonalOperator", "PencilParams", "PoleError", "band_diagonal", "build_B_from_A",
           "diag_similarity", "geometric_seq", "laurent", "laurent_eval", "max_entry_diff", "pencil"]

GENERAL = ["--q", "0.7", "--xi0", "1.0", "--zeta0", "0.2", "--s1", "0.1", "--s2", "0.3",
           "--size", "12"]
STRUCTURED = ["--q", "0.5", "--c1", "0.25", "--c2", "0.5", "--c3", "0.25"]
EIGEN = {"qosc._eigen", "qosc._real_roots"}
RATIO = "qosc._ratio"  # loaded only by exact input: ints and Fractions, one a Fraction
BIG_Q_JACOBI = {"qosc.families", "qosc.tridiagonalization", "qosc.algebra"}


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cli_loads(argv) -> set:
    """The qosc modules a ``python -m qosc.cli argv`` run has loaded when it exits
    (-X importtime does not see a module imported by ``from . import name``)."""
    code = (
        "import runpy, sys\n"
        "sys.argv[0] = 'qosc'\n"
        "try:\n"
        "    runpy.run_module('qosc.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    sys.stderr.write(' '.join(m for m in sys.modules if m.split('.')[0] == 'qosc'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=ENV)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stderr.split())


def test_import_loads_no_submodule():
    out = fresh("import qosc, sys; print(sorted(m for m in sys.modules if m.startswith('qosc')))")
    assert out == "['qosc']\n"


def test_public_names_unchanged_and_each_is_its_submodules_object():
    code = (
        "import sys, qosc\n"
        "print(set(qosc.__all__) <= set(dir(qosc)), sorted(qosc.__all__))\n"
        "for name in qosc.__all__[1:]:\n"
        "    value = getattr(qosc, name)\n"
        "    assert value is getattr(sys.modules[value.__module__], name), name\n"
        "    assert vars(qosc)[name] is value is getattr(qosc, name), name\n"
    )
    assert fresh(code) == f"True {PUBLIC}\n"
    assert qosc.__all__[0] == "__version__" and len(qosc.__all__) == 77


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_raises_attribute_error_naming_it(name):
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(qosc, name)


def outside_texts() -> dict:
    """path -> text of the README and of every .py or .md file in src/qosc,
    scripts/ and perfbench/, less __init__.py (which lists every name)."""
    paths = [os.path.join(ROOT, "README.md")]
    for top in ("src/qosc", "scripts", "perfbench"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(folder, f) for f in files if f.endswith((".py", ".md"))]
    paths.remove(os.path.join(SRC, "qosc", "__init__.py"))
    texts = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts[path] = fh.read()
    return texts


def test_every_public_name_is_used_outside_the_tests():
    # Each name's own def/class line does not count.
    texts = outside_texts()
    unused = []
    for name in qosc.__all__[1:]:
        own = os.path.join(SRC, "qosc", f"{qosc._OWNER[name]}.py")
        word = re.compile(rf"\b{name}\b")
        defined = re.compile(rf"^(?:def|class) {name}\b.*$", re.M)
        if not any(word.search(defined.sub("", text) if path == own else text)
                   for path, text in texts.items()):
            unused.append(name)
    assert unused == []


def test_every_public_member_is_read_outside_the_tests():
    # Each method or property declared in the body of a public class is read as
    # .name somewhere; record fields and dunders are exempt.  Its own module
    # counts, and its def line cannot match: no dot precedes the name there.
    texts = outside_texts()
    unread = []
    for name in qosc.__all__[1:]:
        cls = getattr(qosc, name)
        if not isinstance(cls, type):
            continue
        for member, value in vars(cls).items():
            if (member.startswith("_") or member in getattr(cls, "__record_fields__", ())
                    or not isinstance(value, (property, types.FunctionType))):
                continue
            read = re.compile(rf"\.{member}\b")
            if not any(read.search(text) for text in texts.values()):
                unread.append(f"{name}.{member}")
    assert unread == []


@pytest.mark.parametrize("name", ["errors", "numerics", "opmatrix", "representation",
                                  "families", "tridiagonalization", "algebra", "_record",
                                  "_real_roots", "_eigen", "_ratio"])
def test_submodule_resolves_after_bare_import(name):
    code = f"import sys, qosc\nprint(qosc.{name} is sys.modules['qosc.{name}'])\n"
    assert fresh(code) == "True\n"


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qosc.no_such_name
    assert not hasattr(qosc, "no_such_name")


@pytest.mark.parametrize("argv", [
    ["build", "--parameterization", "general", *GENERAL],
    ["verify", "--suite", "qosc", *GENERAL],
], ids=["build-general", "verify-qosc"])
def test_general_pair_calls_load_no_family_or_eigen_module(argv):
    loaded = cli_loads(argv)
    assert "qosc.representation" in loaded
    assert not loaded & (EIGEN | BIG_Q_JACOBI | {RATIO}), sorted(loaded)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "bigqjacobi-algebra", *STRUCTURED, "--size", "10"],
    ["verify", "--suite", "aw-match", "--q", "0.6", "--a1", "0.9", "--a2", "0.5", "--a3", "0.4",
     "--a4", "0.3"],
    ["verify", "--suite", "qdiff", *STRUCTURED],
    ["poly", "--family", "big-q-jacobi", *STRUCTURED, "--size", "8"],
    ["verify", "--suite", "aw-algebra", *STRUCTURED, "--mu", "0.1", "--size", "8"],
    ["build", "--parameterization", "structured", *STRUCTURED, "--size", "8"],
], ids=["bigqjacobi-algebra", "aw-match", "qdiff", "poly", "aw-algebra", "build-structured"])
def test_calls_without_an_eigenproblem_load_no_eigen_module(argv):
    loaded = cli_loads(argv)
    assert "qosc.families" in loaded
    assert not loaded & (EIGEN | {RATIO}), sorted(loaded)


def test_spectrum_loads_the_eigen_modules():
    loaded = cli_loads(["spectrum", "--family", "q-hahn", "--q", "0.5", "--c1", "0.3",
                        "--c2", "0.4", "--N", "3"])
    assert EIGEN <= loaded
    assert RATIO not in loaded


def test_float_decompose_loads_no_ratio_module():
    loaded = cli_loads(["decompose", "--family", "q-hahn", "--q", "0.5", "--c1", "0.3",
                        "--c2", "0.4", "--N", "3"])
    assert RATIO not in loaded


def test_an_all_fraction_build_general_call_loads_the_ratio_module():
    code = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from qosc import GeneralParams, build_general\n"
        "print('qosc._ratio' in sys.modules)\n"
        "build_general(GeneralParams(F(1, 2), F(3, 2), F(1, 3), F(1, 4), 0.4), 6)  # one float\n"
        "print('qosc._ratio' in sys.modules)\n"
        "build_general(GeneralParams(F(1, 2), F(3, 2), F(1, 3), F(1, 4), F(2, 5)), 6)\n"
        "print('qosc._ratio' in sys.modules)\n"
    )
    assert fresh(code) == "False\nFalse\nTrue\n"

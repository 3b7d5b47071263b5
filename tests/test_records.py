"""Value semantics of the public parameter, result and matrix classes.

Each frozen record is built from a field table written out here, so the
tests pin field names and order, keyword construction, defaults, immutability,
equality, hashing and repr independently of how the classes are implemented.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

import qosc
from qosc import (
    BandMatrix,
    InvalidParameterError,
    LaurentPoly,
    MonicRecurrence,
    ResidualReport,
    TolerancePolicy,
)

_REPORT = ResidualReport(1e-12, (1, 2), (0, 5), 1.0, 1e-9, True)

# class name: ((field, value), ...) in declaration order
RECORDS = {
    "TolerancePolicy": (("abs_tol", 1e-10), ("rel_tol", 1e-8)),
    "ResidualReport": (
        ("max_abs", 1e-12), ("location", (1, 2)), ("rows", (0, 5)), ("scale", 1.0),
        ("tolerance", 1e-9), ("passed", True),
    ),
    "MonicRecurrence": (
        ("b", (1.0, 2.0)), ("u", (0.5,)), ("family", "q-hahn"),
        ("params", qosc.StructuredParams(0.5, 0.3, 0.4, 4.0)),
    ),
    "AWParams": (("q", 0.5), ("a1", 0.9), ("a2", 0.5), ("a3", 0.4), ("a4", 0.3)),
    "SpectrumLattice": (("points", (1.0, 2.0, 4.0)), ("kind", "single-exponential")),
    "SpectrumReport": (
        ("max_abs", 1e-12), ("location", (1, 1)), ("rows", (0, 2)), ("scale", 1.0),
        ("tolerance", 1e-9), ("passed", True), ("points", (1.0, 2.0, 4.0)),
        ("eigenvalues", (1.0, 2.0, 4.0)), ("rel_distance", (0.0, 0.0, 0.0)),
        ("charpoly_scaled", (0.0, 1e-12, 0.0)),
    ),
    "BigQJacobiConstants": (("gamma1", 1.0), ("delta1", 2.0), ("gamma2", 3.0), ("delta2", 4.0)),
    "AWAlgebraConstants": (
        ("omega0", 1), ("sigma1", 2), ("omega1", 3), ("sigma2", 4), ("omega2", 5),
    ),
    "AWAlgebraReport": (
        ("constants", qosc.AWAlgebraConstants(1, 2, 3, 4, 5)), ("m_def", _REPORT),
        ("relation1", _REPORT), ("relation2", _REPORT), ("relation2_lm", _REPORT),
        ("passing_variant", "ML"),
    ),
    "GeneralParams": (("q", 0.5), ("xi0", 1.0), ("zeta0", -0.3), ("s1", 0.4), ("s2", 0.2)),
    "StructuredParams": (("q", F(1, 2)), ("c1", F(1, 4)), ("c2", F(1, 2)), ("c3", F(1, 4))),
    "GeneralSolutionTrace": (
        ("xi", (1.0,)), ("zeta", (2.0,)), ("z", (3.0,)), ("gamma", (4.0, 5.0)), ("y", (6.0,)),
        ("K", (7.0,)), ("s0", 8.0), ("b", (9.0,)), ("eta", (10.0,)), ("u", (0,)),
    ),
    "XiResiduals": (("xi1", ()), ("xi2", (0.0,)), ("xi3", (1e-17,)), ("xi4", ()), ("xi5", ())),
    "WCoeffs": (("tau0", 1), ("tau1", 2), ("tau2", 3), ("tau3", 4)),
}


@pytest.fixture(params=sorted(RECORDS), name="case")
def _case(request):
    return getattr(qosc, request.param), RECORDS[request.param]


def test_every_public_class_is_covered():
    classes = {
        name for name in qosc.__all__
        if isinstance(getattr(qosc, name), type) and not issubclass(getattr(qosc, name), Exception)
    }
    assert classes == set(RECORDS) | {"BandMatrix", "LaurentPoly"}


def test_keyword_and_positional_construction_agree(case):
    cls, fields = case
    positional = cls(*(value for _, value in fields))
    keyword = cls(**dict(fields))
    assert positional == keyword
    assert [getattr(keyword, name) for name, _ in fields] == [value for _, value in fields]


def test_repr_lists_fields_in_order(case):
    cls, fields = case
    obj = cls(*(value for _, value in fields))
    inner = ", ".join(f"{name}={value!r}" for name, value in fields)
    assert repr(obj) == f"{cls.__name__}({inner})"


def test_records_are_frozen(case):
    cls, fields = case
    obj = cls(*(value for _, value in fields))
    name, value = fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, name) == value


def test_equal_records_hash_equal(case):
    cls, fields = case
    a = cls(*(value for _, value in fields))
    b = cls(**dict(fields))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != tuple(value for _, value in fields)


def test_records_differ_by_value_and_class():
    base = qosc.StructuredParams(0.5, 0.25, 0.5, 0.25)
    assert base != qosc.StructuredParams(0.5, 0.25, 0.5, 0.3)
    assert qosc.WCoeffs(1, 2, 3, 4) != qosc.WCoeffs(4, 3, 2, 1)
    # same values, different class
    assert qosc.WCoeffs(1, 2, 3, 4) != qosc.BigQJacobiConstants(1, 2, 3, 4)


def test_copy_and_pickle_round_trip(case):
    cls, fields = case
    obj = cls(*(value for _, value in fields))
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_defaults():
    assert TolerancePolicy() == TolerancePolicy(1e-12, 1e-9)
    assert TolerancePolicy(rel_tol=1e-8) == TolerancePolicy(1e-12, 1e-8)
    rec = MonicRecurrence((1.0, 2.0), (0.5,))
    assert rec.family == "custom" and rec.params is None
    assert MonicRecurrence(u=(0.5,), b=(1.0, 2.0), params=None) == rec


def test_post_init_normalises_keyword_construction():
    rec = MonicRecurrence(b=[1.0, 2.0], u=[0.5])
    assert rec.b == (1.0, 2.0) and rec.u == (0.5,)
    assert qosc.SpectrumLattice(points=[1.0, 2.0], kind="x").points == (1.0, 2.0)


def test_bad_calls_raise_type_error():
    with pytest.raises(TypeError):
        qosc.WCoeffs(1, 2, 3)
    with pytest.raises(TypeError):
        qosc.WCoeffs(1, 2, 3, 4, 5)
    with pytest.raises(TypeError):
        qosc.WCoeffs(1, 2, 3, tau0=4)
    with pytest.raises(TypeError):
        qosc.WCoeffs(1, 2, 3, 4, nu=5)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: TolerancePolicy(abs_tol=0), InvalidParameterError, "tolerances must be positive"),
        (lambda: TolerancePolicy(1e-12, -1), InvalidParameterError, "tolerances must be positive"),
        (lambda: TolerancePolicy(abs_tol=float("inf")), InvalidParameterError,
         "tolerances must be finite"),
        (lambda: TolerancePolicy(1e-12, float("nan")), InvalidParameterError,
         "tolerances must be finite"),
        (lambda: MonicRecurrence((), ()), InvalidParameterError, "recurrence needs at least b_0"),
        (lambda: MonicRecurrence(b=(1, 2), u=()), InvalidParameterError,
         "u must have one entry fewer than b"),
        (lambda: qosc.AWParams(0.5, 0, 1, 1, 1), InvalidParameterError, "a1 must be nonzero"),
        (lambda: qosc.AWParams(q=1, a1=1, a2=1, a3=1, a4=1), InvalidParameterError,
         "q must avoid 0, 1, -1"),
        (lambda: qosc.SpectrumLattice((1.0, 1.0), "x"), InvalidParameterError,
         "lattice points must be pairwise distinct"),
        (lambda: qosc.GeneralParams(0.5, 0, 1, 1, 1), InvalidParameterError,
         "xi0 and zeta0 must be nonzero"),
        (lambda: qosc.StructuredParams(q=0.5, c1=1, c2=1, c3=0), InvalidParameterError,
         "c1 and c3 must be nonzero"),
        (lambda: BandMatrix(0), InvalidParameterError, "size must be >= 1"),
        (lambda: BandMatrix(2, {2: (1,)}), InvalidParameterError, "band offset 2 out of range"),
        (lambda: BandMatrix(size=2, bands={0: (1,)}), InvalidParameterError,
         "band 0 has 1 entries, expected 2"),
        (lambda: LaurentPoly({0.5: 1}), InvalidParameterError, "degrees must be integers"),
    ],
)
def test_validation_errors_keep_type_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


class TestMutableClasses:
    def test_band_matrix_value_equality(self):
        M = BandMatrix(2, {0: [1, 2], 1: [3]})
        assert M == BandMatrix(size=2, bands={0: (1, 2), 1: (3,)})
        assert M.bands == {0: (1, 2), 1: (3,)}
        assert M != BandMatrix(2, {0: (1, 2)})
        assert M != BandMatrix(3, {0: (1, 2, 0)})
        assert BandMatrix(3) == BandMatrix(3, {})
        assert repr(M) == "BandMatrix(size=2, bands={0: (1, 2), 1: (3,)})"

    def test_laurent_poly_value_equality(self):
        p = LaurentPoly({-1: 2.0, 0: 1.0})
        assert p == LaurentPoly(coeffs={0: 1.0, -1: 2.0})
        assert p != LaurentPoly({0: 1.0})
        assert LaurentPoly() == LaurentPoly({})
        assert repr(p) == "LaurentPoly(coeffs={-1: 2.0, 0: 1.0})"

    @pytest.mark.parametrize("obj", [BandMatrix(2, {0: (1, 2)}), LaurentPoly({0: 1})])
    def test_unhashable(self, obj):
        with pytest.raises(TypeError):
            hash(obj)
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj

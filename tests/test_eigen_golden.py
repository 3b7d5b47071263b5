"""``eigenvalues`` reproduces a recorded set of spectra bit for bit.

``data/eigen_golden.json`` holds tridiagonal matrices (their three bands as
``float.hex`` strings) and the ``float.hex`` eigenvalues each one produced
when recorded: big q-Jacobi (0.8; 0.25, 0.5, -0.25) at n = 16, 64, 120, q-Hahn
(0.3, 0.4, 0.5) at N = 10 and 30, q-para-Krawtchouk (0.2, 0.5) at N = 5 and 7,
Wilkinson's W21+, and six seeded random tridiagonals with every
sub * super > 0.  The matrices are stored, not rebuilt, so only a change in
the eigen layer can move a result.

A change to how the float iterate reaches a root must leave these unchanged:
the double-double polish, not the route to it, fixes the last bit.  That
held only once the rescaling fault below about 1e-42 was mended (the rescale
test underflowed to 0.0, and a hull pad of at least 1e-9 left decades the
Laguerre steps could not cross): before, the route decided whether such a
spectrum was found at all.  Handing over to the polish at a float step of
1e-4 |x| or of 1e-6 |x| gives this same corpus.  After an
intended change to the results, re-record with
``PYTHONPATH=src python tests/test_eigen_golden.py --record`` and review the diff.
"""

import json
import os
import random
import sys

import pytest

from qosc import (
    StructuredParams,
    band_tridiagonal,
    big_q_jacobi,
    eigenvalues,
    jacobi_matrix,
    q_hahn,
    q_para_krawtchouk,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "eigen_golden.json")

with open(DATA) as fh:
    GOLDEN = json.load(fh)


def matrix(case):
    sub, diag, sup = ([float.fromhex(v) for v in case[k]] for k in ("sub", "diag", "sup"))
    return band_tridiagonal(sub, diag, sup)


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["label"])
def test_golden(case):
    assert [x.hex() for x in eigenvalues(matrix(case))] == case["eigenvalues"]


def positive_tridiagonal(seed):
    """A random tridiagonal with every sub * super > 0 (Sturm path)."""
    rng = random.Random(seed)
    n = rng.randint(4, 40)
    sign = [rng.choice((-1.0, 1.0)) for _ in range(n - 1)]
    sub = [s * rng.uniform(0.05, 2.0) for s in sign]
    sup = [s * rng.uniform(0.05, 2.0) for s in sign]
    return band_tridiagonal(sub, [rng.uniform(-3.0, 3.0) for _ in range(n)], sup)


def record_inputs():
    """(label, matrix) of every golden case."""
    bqj = StructuredParams(0.8, 0.25, 0.5, -0.25)
    for n in (16, 64, 120):
        yield f"big-q-jacobi-n{n}", jacobi_matrix(big_q_jacobi(bqj, n))
    for N in (10, 30):
        yield f"q-hahn-N{N}", jacobi_matrix(q_hahn(0.3, 0.4, 0.5, N))
    for N in (5, 7):
        yield f"q-para-krawtchouk-N{N}", jacobi_matrix(q_para_krawtchouk(0.2, 0.5, N))
    yield "wilkinson-w21", band_tridiagonal(
        (1.0,) * 20, tuple(abs(10.0 - i) for i in range(21)), (1.0,) * 20
    )
    for seed in range(1, 7):
        yield f"random-positive-{seed}", positive_tridiagonal(seed)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    cases = []
    for label, M in record_inputs():
        bands = {k: [float(v).hex() for v in M.bands[b]]
                 for k, b in (("sub", -1), ("diag", 0), ("sup", 1))}
        cases.append({"label": label, **bands, "eigenvalues": [x.hex() for x in eigenvalues(M)]})
    with open(DATA, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")

"""The eigen layer's recurrence kernels against reference loops.

The loops below are ``_cp_float``, ``_cp_dd``, ``_cp_complex`` and
``_aberth`` as they read before the kernels became straight-line code: a
tuple built and unpacked per step, the Dekker split of P_{k-2} formed afresh
at every step, the error bound carried at every Aberth evaluation.  One
change is deliberate: the up-scale tests read ``m < _SMALL2`` where they read
``0.0 < m < _SMALL2``, since m = p^2 + p'^2 (+ p''^2) underflows to 0.0
while p is still nonzero, and the rescale was then skipped (wrong eigenvalues
for entries below about 1e-42).

The kernels must agree with these loops on everything the eigen layer reads
from them: p/p', p''/p', (ph + pl)/p', whether |p| <= e, and the Aberth
iterates with the points where a root moved to exact evaluation.

``ref_sturm_path`` is the every-w_n > 0 path before the QL seeds: bisection on
Sturm counts over the whole hull, then ``_polish`` in each bracket.  The
seeded path must give its eigenvalues bit for bit, whatever the seeds.
"""

import cmath
import json
import math
import os
import random

import pytest

from qosc import (
    NumericFailureError, StructuredParams, UnsupportedSpectrumError, band_tridiagonal, big_q_jacobi,
    eigenvalues, jacobi_matrix, q_para_krawtchouk,
)
from qosc import _real_roots, opmatrix
from qosc._real_roots import _BIG, _BIG2, _DOWN, _EPS, _SMALL, _SMALL2, _SPLIT, _UP
from qosc.opmatrix import _ERR_UNITS, _ABERTH_SWEEPS, _refuse_if_certified


def ref_cp_float(b, w, x):
    p0, p1 = 1.0, x - b[0]
    d0, d1 = 0.0, 1.0
    s0 = s1 = 0.0
    for bk, wk in zip(b[1:], w):
        t = x - bk
        p0, p1, d0, d1, s0, s1 = (
            p1, t * p1 - wk * p0, d1, p1 + t * d1 - wk * d0, s1, 2.0 * d1 + t * s1 - wk * s0
        )
        m = p1 * p1 + d1 * d1 + s1 * s1
        if m > _BIG2:
            p0 *= _DOWN; p1 *= _DOWN; d0 *= _DOWN; d1 *= _DOWN; s0 *= _DOWN; s1 *= _DOWN
        elif m < _SMALL2:
            p0 *= _UP; p1 *= _UP; d0 *= _UP; d1 *= _UP; s0 *= _UP; s1 *= _UP
    return p1, d1, s1


def ref_cp_dd(b, ws, x):
    p0h, p0l = 1.0, 0.0
    p1h = x - b[0]
    bb = p1h - x
    p1l = (x - (p1h - bb)) + (-b[0] - bb)
    d0, d1 = 0.0, 1.0
    for bk, (nw, whi, wlo) in zip(b[1:], ws):
        th = x - bk
        bb = th - x
        tl = (x - (th - bb)) + (-bk - bb)
        ph = p1h * th
        aa = _SPLIT * p1h
        ahi = aa - (aa - p1h)
        alo = p1h - ahi
        tt = _SPLIT * th
        thi = tt - (tt - th)
        tlo = th - thi
        pl = ((ahi * thi - ph) + ahi * tlo + alo * thi) + alo * tlo
        pl += p1h * tl + p1l * th
        ah = ph + pl
        bb = ah - ph
        al = (ph - (ah - bb)) + (pl - bb)
        ph = p0h * nw
        aa = _SPLIT * p0h
        ahi = aa - (aa - p0h)
        alo = p0h - ahi
        pl = ((ahi * whi - ph) + ahi * wlo + alo * whi) + alo * wlo
        pl += p0l * nw
        bh = ph + pl
        bb = bh - ph
        bl = (ph - (bh - bb)) + (pl - bb)
        sh = ah + bh
        bb = sh - ah
        sl = (ah - (sh - bb)) + (bh - bb)
        sl += al + bl
        p2h = sh + sl
        bb = p2h - sh
        p2l = (sh - (p2h - bb)) + (sl - bb)
        d2 = d1 * th + p1h + nw * d0
        p0h, p0l, p1h, p1l, d0, d1 = p1h, p1l, p2h, p2l, d1, d2
        m = p1h * p1h + d1 * d1
        if m > _BIG2:
            p0h *= _DOWN; p0l *= _DOWN; p1h *= _DOWN; p1l *= _DOWN; d0 *= _DOWN; d1 *= _DOWN
        elif m < _SMALL2:
            p0h *= _UP; p0l *= _UP; p1h *= _UP; p1l *= _UP; d0 *= _UP; d1 *= _UP
    return p1h, p1l, d1


def ref_cp_complex(b, w, ab, aw, z):
    u = _ERR_UNITS * _EPS
    p0, p1 = 1.0, z - b[0]
    d0, d1 = 0.0, 1.0
    a0, a1 = 1.0, abs(p1)
    e0, e1 = 0.0, u * (a1 + ab[0])
    for bk, wk, abk, awk in zip(b[1:], w, ab[1:], aw):
        t = z - bk
        at = abs(t)
        p0, p1, d0, d1 = p1, t * p1 - wk * p0, d1, p1 + t * d1 - wk * d0
        e0, e1 = e1, at * e1 + awk * e0 + u * ((at + abk) * a1 + awk * a0)
        a0, a1 = a1, abs(p1)
        m = a1 + abs(d1) + e1
        if m > _BIG:
            s = _DOWN
        elif 0.0 < m < _SMALL:
            s = _UP
        else:
            continue
        p0 *= s; p1 *= s; d0 *= s; d1 *= s
        a0 *= s; a1 *= s; e0 *= s; e1 *= s
    return p1, d1, e1


def ref_aberth(b, w, ab, aw, exact):
    n = len(b)
    center = sum(b) / n
    spread = (sum(x * x for x in b) + 2.0 * sum(w)) / n - center * center
    radius = math.sqrt(abs(spread)) or 1.0
    z = [center + radius * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    promoted = [False] * n
    settled = [False] * n
    moved = [math.inf] * n
    active = list(range(n))
    for _ in range(_ABERTH_SWEEPS):
        if not active:
            break
        still = []
        for i in active:
            zi = z[i]
            if not promoted[i]:
                p, d, e = ref_cp_complex(b, w, ab, aw, zi)
                ratio = p / d if d != 0.0 else math.inf
                promoted[i] = abs(p) <= e and abs(ratio) > 0.5 * moved[i]
            if promoted[i]:
                ratio = exact.newton(zi)[0]
            if ratio == math.inf:
                ratio = complex(radius)
            s = 0j
            for zj in z:
                if zj != zi:
                    s += 1.0 / (zi - zj)
            den = 1.0 - ratio * s
            corr = ratio / den if den != 0.0 else ratio
            z[i] = zi - corr
            moved[i] = abs(corr)
            if moved[i] > 2.0 * _EPS * abs(zi):
                still.append(i)
                continue
            _refuse_if_certified(exact, z[i])
            if promoted[i] or abs(z[i].imag) <= 2.0 * _EPS * abs(z[i]):
                settled[i] = promoted[i]
            else:
                promoted[i] = True
                still.append(i)
        active = still
    for i in active:
        _refuse_if_certified(exact, z[i])
    return list(zip(z, settled))


def same(a, b) -> bool:
    """Equal bit for bit, any NaN equal to any NaN; tuples and complex by part."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, complex) or isinstance(b, complex):
        a, b = complex(a), complex(b)
        return same(a.real, b.real) and same(a.imag, b.imag)
    return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def div(a, b):
    return a / b if b != 0.0 else math.inf


def call(f, *args):
    """f(*args), or the type of the error it raised (abs() of a huge complex overflows)."""
    try:
        return f(*args)
    except OverflowError as exc:
        return type(exc)


# Scales of the entries: the ends of the float range overflow or underflow in
# one step whatever the rescaling; 1e6 and 1e-6 at n >= 50 carry p past 1e120
# or below 1e-120, so the kernels rescale; 1e-50 underflowed m before the fix.
SCALES = (1.0, 1e6, 1e-6, 1e-50, 1e40, 1e250, 1e-250)


def draws(seed, count=120):
    """Seeded (b, w, points): tridiagonal data at SCALES, every w_k > 0 or
    mixed signs, and real points inside and beyond the spectrum."""
    rng = random.Random(seed)
    for i in range(count):
        scale = SCALES[i % len(SCALES)]
        n = rng.choice((1, 2, 7, 30, 50, 80))
        b = [rng.uniform(-3.0, 3.0) * scale for _ in range(n)]
        mixed = rng.random() < 0.4
        w = [rng.uniform(-2.0 if mixed else 0.05, 2.0) * scale * scale for _ in range(n - 1)]
        w = [v if math.isfinite(v) else 1.0 for v in w]
        yield b, w, [rng.uniform(-4.0, 4.0) * scale for _ in range(4)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_and_dd_kernels_match_the_reference_loops(seed):
    rescaled = 0
    for b, w, points in draws(seed):
        ws = [_real_roots._split_neg(v) for v in w]
        for x in points:
            p, d, s = _real_roots._cp_float(b, w, x)
            rp, rd, rs = ref_cp_float(b, w, x)
            assert same(div(p, d), div(rp, rd)) and same(div(s, d), div(rs, rd))
            assert same((p, d, s), (rp, rd, rs))
            ph, pl, d = _real_roots._cp_dd(b, ws, x)
            rph, rpl, rd = ref_cp_dd(b, ws, x)
            assert same(div(ph + pl, d), div(rph + rpl, rd))
            assert same((ph, pl, d), (rph, rpl, rd))
            v = abs(opmatrix.char_poly_eval(band_tridiagonal(w, b, [1.0] * len(w)), x))
            rescaled += not _SMALL < v < _BIG
    assert rescaled > 50  # many of the points needed a rescale on the way


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_complex_kernels_match_the_reference_loop(seed):
    rng = random.Random(seed)
    for b, w, points in draws(seed):
        ab, aw = [abs(v) for v in b], [abs(v) for v in w]
        for x in points:
            z = complex(x, rng.uniform(-1.0, 1.0) * abs(x))
            got = call(opmatrix._cp_complex, b, w, ab, aw, z)
            want = call(ref_cp_complex, b, w, ab, aw, z)
            if want is OverflowError:
                assert got is OverflowError
                continue
            assert same(got, want)
            p, d, e = got
            ratio = call(opmatrix._cp_ratio, b, w, z)
            assert same(ratio, div(want[0], want[1]))
            assert (abs(p) <= e) == (abs(want[0]) <= want[2])


class Spy(opmatrix._ExactCharPoly):
    """Exact evaluation that records every point it is asked about."""

    def __init__(self, M, log):
        super().__init__(*opmatrix._exact_entries(*opmatrix._tridiagonal(M)))
        self.log = log

    def newton(self, z):
        self.log.append(z)
        return super().newton(z)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "eigen_golden.json")


def mixed_sign_matrices():
    """The golden cases with some w_n <= 0, and q-para-Krawtchouk N = 9, 11, 13."""
    with open(GOLDEN) as fh:
        for case in json.load(fh)["cases"]:
            sub, diag, sup = ([float.fromhex(v) for v in case[k]] for k in ("sub", "diag", "sup"))
            if any(s * t <= 0.0 for s, t in zip(sub, sup)):
                yield pytest.param(band_tridiagonal(sub, diag, sup), id=case["label"])
    for N in (9, 11, 13):
        M = jacobi_matrix(q_para_krawtchouk(0.2, 0.5, N))
        yield pytest.param(M, id=f"q-para-krawtchouk-N{N}")


@pytest.mark.parametrize("M", list(mixed_sign_matrices()))
def test_aberth_promotes_and_settles_as_the_reference(M):
    sub, b, sup = ([float(v) for v in band] for band in opmatrix._tridiagonal(M))
    w = [s * t for s, t in zip(sub, sup)]
    ab, aw = [abs(v) for v in b], [abs(v) for v in w]
    results = []
    for aberth in (opmatrix._aberth, ref_aberth):
        log = []
        try:
            out = aberth(b, w, ab, aw, Spy(M, log))
        except UnsupportedSpectrumError as exc:  # N = 13: a certified non-real root
            out = str(exc)
        results.append((out, log))
    (got, got_log), (want, want_log) = results
    assert got == want and got_log == want_log
    assert want_log  # some root moved to exact evaluation


def ref_sturm_path(b, w, ws, lo, hi):
    n = len(b)
    w0 = [0.0] + w
    pivmin = 2.0**-1020 * max(1.0, max(w))
    roots = []
    stack = [(lo, 0, hi, n)]
    while stack:
        a, na, c, nc = stack.pop()
        if nc - na == 1:
            roots.append(_real_roots._polish(b, w, ws, a, c, (-1) ** (n - na), _real_roots._mid(a, c)))
            continue
        m = _real_roots._mid(a, c)
        if not a < m < c:
            roots.extend([m] * (nc - na))
            continue
        nm = _real_roots._sturm_count(b, w0, m, pivmin)
        if nm > na:
            stack.append((a, na, m, nm))
        if nc > nm:
            stack.append((m, nm, c, nc))
    return sorted(roots)


def positive_w_matrices(seed, count):
    """Seeded tridiagonals with every w_n > 0, n from 2 to 120 (log-uniform),
    entries scaled by 10**U(-300, 290); one in eight is Wilkinson-style (a
    diagonal |k - m|, unit off-diagonals), whose eigenvalues pair up closer
    than the seeds resolve."""
    rng = random.Random(seed)
    for i in range(count):
        n = 120 if i % 50 == 0 else round(2.0 * 60.0 ** rng.random())
        scale = 10.0 ** rng.uniform(-300.0, 290.0)
        sign = [rng.choice((-1.0, 1.0)) for _ in range(n - 1)]
        if i % 8 == 7:
            diag = [abs(k - (n - 1) / 2) for k in range(n)]
            sub = sup = [1.0] * (n - 1)
        else:
            diag = [rng.uniform(-3.0, 3.0) for _ in range(n)]
            sub = [rng.uniform(0.05, 2.0) for _ in range(n - 1)]
            sup = [rng.uniform(0.05, 2.0) for _ in range(n - 1)]
        yield band_tridiagonal([s * v * scale for s, v in zip(sign, sub)], [v * scale for v in diag],
                               [s * v * scale for s, v in zip(sign, sup)])


def hexes(values):
    return [float.hex(x) for x in values]


def test_seeded_sturm_path_matches_the_bisection_reference(monkeypatch):
    for M in positive_w_matrices(21, 400):
        got = eigenvalues(M)
        with monkeypatch.context() as patch:
            patch.setattr(opmatrix, "_sturm_path", ref_sturm_path)
            want = eigenvalues(M)
        assert hexes(got) == hexes(want), M.size


def perturbed(seeds, rng):
    return [x * (1.0 + 1e-3 * rng.choice((-1.0, 1.0))) for x in seeds]


def merged(seeds, rng):
    i = rng.randrange(len(seeds) - 1)
    return seeds[:i] + [0.5 * (seeds[i] + seeds[i + 1])] + seeds[i + 2:]


def dropped(seeds, rng):
    i = rng.randrange(len(seeds))
    return seeds[:i] + seeds[i + 1:]


def stalled(seeds, rng):
    return None


@pytest.mark.parametrize("spoil", [perturbed, merged, dropped, stalled])
def test_eigenvalues_do_not_depend_on_the_seeds(spoil, monkeypatch):
    # Whatever _pwk returns, the eigenvalues it does not settle are found by
    # the bisection fallback, with the same bits; no golden case reaches it.
    rng = random.Random(spoil.__name__)
    p = StructuredParams(0.8, 0.25, 0.5, -0.25)
    cases = [jacobi_matrix(big_q_jacobi(p, n)) for n in (2, 16, 64)]
    cases += list(positive_w_matrices(22, 12))
    pwk, polish = _real_roots._pwk, _real_roots._polish
    fallbacks = []

    def counted(*args):
        fallbacks.append(args)
        return polish(*args)

    for M in cases:
        want = eigenvalues(M)
        with monkeypatch.context() as patch:
            patch.setattr(_real_roots, "_pwk", lambda b, w: spoil(pwk(b, w), rng))
            patch.setattr(_real_roots, "_polish", counted)
            fallbacks.clear()
            got = eigenvalues(M)
        assert hexes(got) == hexes(want), M.size
        assert fallbacks  # some eigenvalue went to the bisection fallback


def outcome(M):
    """The eigenvalues' bits, or the type of the error that refused M."""
    try:
        return hexes(eigenvalues(M))
    except UnsupportedSpectrumError as exc:
        return type(exc)


@pytest.mark.parametrize("M", list(mixed_sign_matrices()))
def test_aberth_steps_by_the_radius_where_p_over_p_prime_is_infinite(M, monkeypatch):
    # The first root's first p/p' is inf (p' = 0 there): it moves by the
    # start radius instead, and every root still converges to the same bits.
    want, ratio, calls = outcome(M), opmatrix._cp_ratio, []

    def inf_once(b, w, z):
        calls.append(z)
        return math.inf if len(calls) == 1 else ratio(b, w, z)

    monkeypatch.setattr(opmatrix, "_cp_ratio", inf_once)
    assert outcome(M) == want and len(calls) > 1


def test_roots_converged_off_the_axis_in_floats_finish_exactly(monkeypatch):
    # Shifting every float p/p' by 1e-6j moves its fixed points 1e-6 off the
    # real axis, where the exact disc test certifies nothing: those roots
    # are promoted to exact evaluation, which finds the real roots.
    ratio = opmatrix._cp_ratio

    def shifted(b, w, z):
        return ratio(b, w, z) + 1e-6j * max(1.0, abs(z))

    for N in (5, 7, 9, 11):
        M = jacobi_matrix(q_para_krawtchouk(0.2, 0.5, N))
        sub, b, sup = ([float(v) for v in band] for band in opmatrix._tridiagonal(M))
        w = [s * t for s, t in zip(sub, sup)]
        args = (b, w, [abs(v) for v in b], [abs(v) for v in w])
        want, settled = outcome(M), sum(done for _, done in opmatrix._aberth(*args, Spy(M, [])))
        with monkeypatch.context() as patch:
            patch.setattr(opmatrix, "_cp_ratio", shifted)
            assert outcome(M) == want
            assert sum(done for _, done in opmatrix._aberth(*args, Spy(M, []))) > settled


def test_a_nan_from_the_float_kernel_is_a_typed_failure(monkeypatch):
    monkeypatch.setattr(opmatrix, "_cp_ratio", lambda b, w, z: math.nan)
    with pytest.raises(NumericFailureError, match="Ehrlich-Aberth iteration diverged"):
        eigenvalues(jacobi_matrix(q_para_krawtchouk(0.2, 0.5, 7)))


def test_newton_dd_returns_its_last_iterate_when_it_cannot_converge(monkeypatch):
    # p' = 0: the start, unchanged
    monkeypatch.setattr(_real_roots, "_cp_dd", lambda b, ws, x: (1.0, 0.0, 0.0))
    assert float.hex(_real_roots._newton_dd([0.0], [], 0.7, 1.0)) == float.hex(0.7)
    # steps that stop shrinking (rounding dominates p): the iterate before the first such step
    monkeypatch.setattr(_real_roots, "_cp_dd", lambda b, ws, x: (1.0, 0.0, 1.0))
    assert float.hex(_real_roots._newton_dd([0.0], [], 0.7, 1.0)) == float.hex(0.7 - 1.0)
    # steps 1, 1/2, 1/3, ... that shrink but never converge: the 80th iterate
    calls = []

    def harmonic(b, ws, x):
        calls.append(x)
        return 1.0 / len(calls), 0.0, 1.0

    monkeypatch.setattr(_real_roots, "_cp_dd", harmonic)
    want = 0.7
    for k in range(1, 81):
        want = want - 1.0 / k
    assert float.hex(_real_roots._newton_dd([0.0], [], 0.7, 1.0)) == float.hex(want)
    assert len(calls) == 80

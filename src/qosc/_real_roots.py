"""Real roots of p(x) = det(xI - M) for a tridiagonal M, given by its diagonal
b and the products w_n = M[n+1, n] * M[n, n+1].

``_sturm_path`` finds every eigenvalue when every w_n > 0; ``_polish``
converges one root in a bracket, for both paths of ``opmatrix.eigenvalues``.
The recurrences rescale value and derivatives jointly by powers of two to
dodge overflow/underflow, and are straight-line: tuple packing per step cost
~15% of eigenvalues at n = 120.
"""

from __future__ import annotations

import math

_EPS = 2.0**-53
_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant
_BIG, _SMALL = 1e120, 1e-120
_BIG2, _SMALL2 = _BIG * _BIG, _SMALL * _SMALL  # the same bounds on squares
_DOWN, _UP = 2.0**-400, 2.0**400
_FLOAT_STEPS = 100
_HANDOFF = 1e-4
_GAP = 2.0**26  # a seed's nearer cut lies between |x| / _GAP and |x| * _GAP away


def _cp_float(b, w, x: float):
    """(p(x), p'(x), p''(x)) up to a common positive rescale factor."""
    p0, p1 = 1.0, x - b[0]
    d0, d1 = 0.0, 1.0
    s0 = s1 = 0.0
    for bk, wk in zip(b[1:], w):
        t = x - bk
        s0, s1 = s1, 2.0 * d1 + t * s1 - wk * s0
        d0, d1 = d1, p1 + t * d1 - wk * d0
        p0, p1 = p1, t * p1 - wk * p0
        m = p1 * p1 + d1 * d1 + s1 * s1
        if m > _BIG2 or m < _SMALL2:  # m may underflow to 0.0 with p, p', p'' nonzero
            r = _DOWN if m > _BIG2 else _UP
            p0 *= r; p1 *= r; d0 *= r; d1 *= r; s0 *= r; s1 *= r
    return p1, d1, s1


def _cp_dd(b, ws, x: float):
    """Compensated (double-double) p(x) plus float p'(x), jointly rescaled.

    Each step forms (x - b_k) * P_{k-1} - w_{k-1} * P_{k-2} with the shift x - b_k kept
    exactly as a double-double, Dekker products and Knuth sums written out inline.  ``ws``
    holds -w_k with its Dekker split (_split_neg); P_{k-1}'s split serves again as P_{k-2}'s.
    """
    p0h, p0l = 1.0, 0.0
    p0hi, p0lo = 1.0, 0.0  # the Dekker split of p0h
    p1h = x - b[0]
    bb = p1h - x
    p1l = (x - (p1h - bb)) + (-b[0] - bb)
    d0, d1 = 0.0, 1.0
    for bk, (nw, whi, wlo) in zip(b[1:], ws):
        # t = x - b_k = th + tl exactly
        th = x - bk
        bb = th - x
        tl = (x - (th - bb)) + (-bk - bb)
        # (p1h, p1l) * (th, tl)
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
        # (p0h, p0l) * -w
        ph = p0h * nw
        pl = ((p0hi * whi - ph) + p0hi * wlo + p0lo * whi) + p0lo * wlo
        pl += p0l * nw
        bh = ph + pl
        bb = bh - ph
        bl = (ph - (bh - bb)) + (pl - bb)
        # sum of the two products
        sh = ah + bh
        bb = sh - ah
        sl = (ah - (sh - bb)) + (bh - bb)
        sl += al + bl
        d0, d1 = d1, d1 * th + p1h + nw * d0
        p0h, p0l = p1h, p1l
        p0hi, p0lo = ahi, alo
        p1h = sh + sl
        bb = p1h - sh
        p1l = (sh - (p1h - bb)) + (sl - bb)
        m = p1h * p1h + d1 * d1
        if m > _BIG2 or m < _SMALL2:  # m may underflow to 0.0 with p, p' nonzero
            r = _DOWN if m > _BIG2 else _UP
            p0h *= r; p0l *= r; p1h *= r; p1l *= r; d0 *= r; d1 *= r
            aa = _SPLIT * p0h; p0hi = aa - (aa - p0h); p0lo = p0h - p0hi
    return p1h, p1l, d1


def _split_neg(v: float) -> tuple:
    """(-v, hi, lo): -v and its Dekker split -v = hi + lo, as _cp_dd takes w."""
    t = _SPLIT * -v
    hi = t - (t - -v)
    return -v, hi, -v - hi


def _newton_dd(b, ws, x0: float, curv: float) -> float:
    """Newton on the double-double p until a step delta falls to 1/4 ulp, stops shrinking
    (rounding dominates p), or leaves an error delta^2 curv / 2 below 1e-3 ulp (curv ~ |p''/p'|)."""
    x = x0
    last = math.inf
    for _ in range(80):
        ph, pl, d1 = _cp_dd(b, ws, x)
        if d1 == 0.0:
            break
        xn = x - (ph + pl) / d1
        step = abs(xn - x)
        if step <= 0.25e-15 * max(1e-300, abs(x)) or (
            step < 1e-10 * abs(x) and step * step * curv <= 1e-3 * math.ulp(x)
        ):
            return xn
        if step >= last:
            break
        last = step
        x = xn
    return x


def _mid(a: float, c: float) -> float:
    """Bisection point of [a, c]: geometric when both ends share a sign and
    differ by more than a factor of two, so wide brackets shrink by orders of
    magnitude."""
    if a > 0.0 and c > 2.0 * a:
        return math.sqrt(a) * math.sqrt(c)
    if c < 0.0 and a < 2.0 * c:
        return -math.sqrt(-a) * math.sqrt(-c)
    return 0.5 * (a + c)


def _polish(b, w, ws, a: float, c: float, sa: int, x: float) -> float:
    """The root of p in the bracket [a, c], where p has sign ``sa`` at a.

    Laguerre steps from x (p is real-rooted on both paths that call this, so
    they converge cubically), safeguarded as in rtsafe: a step that would
    leave the bracket (which shrinks by the sign of p at every iterate), or
    that does not halve the step before last, is replaced by a bisection.
    Once a step falls to _HANDOFF * |x| (x then within ~1e-11 |x|), the double-double
    polish takes over with the last |p''/p'|; a polish that leaves the bracket is
    discarded.  That polish, not the route to it, fixes the last bit.
    """
    lo, hi = a, c
    n = len(b)
    step = older = c - a
    curv = math.inf  # |p''/p'|, for the polish
    for _ in range(_FLOAT_STEPS):
        p, d, s = _cp_float(b, w, x)
        if p == 0.0:
            break
        if (p > 0.0) == (sa > 0):
            a = x
        else:
            c = x
        older, step = step, math.inf
        if d != 0.0:
            # n / (G + sgn(G) sqrt((n-1)(nH - G^2))), G = p'/p, H = G^2 - p''/p,
            # multiplied through by h = p/p' so that nothing overflows
            h, curv = p / d, abs(s / d)
            step = n * h / (1.0 + math.sqrt(max(0.0, (n - 1) * (n - 1 - n * h * s / d))))
        xn = x - step
        if a <= xn <= c and abs(step) <= 0.5 * abs(older):
            if abs(step) <= _HANDOFF * abs(xn):
                x = xn
                break
            if a < xn < c:  # an end can be another root (a Sturm split point)
                x = xn
                continue
        xn = _mid(a, c)
        if not a < xn < c:
            break
        step = x - xn
        x = xn
    y = _newton_dd(b, ws, x, curv)
    return y if lo <= y <= hi else x


def _sturm_count(b, w0, x: float, pivmin: float) -> int:
    """Number of eigenvalues below x: negative pivots of the LDL^T of M - xI.

    ``w0`` is (0, w_0, ..., w_{n-2}); a pivot smaller than ``pivmin`` in
    magnitude is replaced by -pivmin, as in LAPACK's dstebz.
    """
    count = 0
    d = 1.0
    for bk, wk in zip(b, w0):
        d = (bk - x) - wk / d
        if d < pivmin:
            count += 1
            if d > -pivmin:
                d = -pivmin
    return count


def _pwk(b, w):
    """Every eigenvalue, roughly and sorted, by the root-free QL sweep of LAPACK's
    dsterf (Pal, Walker and Kahan) on the diagonal b and the squared off-diagonals
    w; None once 30 n sweeps have not deflated it."""
    n = len(b)
    d, e = list(b), list(w)
    if abs(d[-1]) < abs(d[0]):  # QL deflates at the top: the larger end goes last
        d.reverse()
        e.reverse()
    d.append(0.0)  # with e[n - 1] = 0, ends the scan for a negligible e[m]
    e.append(0.0)
    eps2 = _EPS * _EPS
    l, sweeps = 0, 30 * n
    while l < n:
        m = l
        while e[m] > eps2 * abs(d[m] * d[m + 1]):
            m += 1
        e[m] = 0.0
        if m == l:
            l += 1
            continue
        sweeps -= 1
        if sweeps < 0:
            return None
        # shift: the eigenvalue of the top 2 x 2 nearer d_l
        rte = math.sqrt(e[l])
        sg = (d[l + 1] - d[l]) / (2.0 * rte)
        sigma = d[l] - rte / (sg + math.copysign(math.hypot(sg, 1.0), sg))
        c, s = 1.0, 0.0
        gamma = d[m] - sigma
        p = gamma * gamma
        for i in range(m - 1, l - 1, -1):
            bb = e[i]
            r = p + bb
            if i != m - 1:
                e[i + 1] = s * r
            oldc, c, s = c, p / r, bb / r
            oldgam, alpha = gamma, d[i]
            gamma = c * (alpha - sigma) - s * oldgam
            d[i + 1] = oldgam + (alpha - gamma)
            p = gamma * gamma / c if c != 0.0 else oldc * bb
        e[l] = s * p
        d[l] = sigma + gamma
    return sorted(d[:n])


def _sturm_path(b, w, ws, lo: float, hi: float) -> list:
    """Every w_n > 0: each eigenvalue from its ``_pwk`` seed, or by bisection.

    The seeds cut [lo, hi] at their midpoints, and one Sturm count per cut
    certifies the intervals that hold one eigenvalue each.  One dd polish from
    the seed x gives that eigenvalue when the nearer cut is between |x| / _GAP
    and |x| * _GAP away (closer pairs, and roots near 0 beside their neighbours,
    have a last bit that depends on where the polish starts) and the polish
    moves x by at most 2^-10 of that distance (it started where Newton
    converges).  Every other eigenvalue (an interval holding none or several,
    a polish that fails, no seeds) is found as without seeds: bisection on
    Sturm counts from [lo, hi], skipping brackets that hold none of them, then
    ``_polish`` in the same bracket, so with the same bits.
    """
    n = len(b)
    w0 = [0.0] + w
    pivmin = 2.0**-1020 * max(1.0, max(w))
    roots, todo = [], [True] * n  # todo[j]: eigenvalue j is still to find
    seeds = _pwk(b, w)
    if seeds is not None and all(lo < x < hi for x in seeds):  # no NaN either
        cuts = [lo] + [0.5 * (x + y) for x, y in zip(seeds, seeds[1:])] + [hi]
        counts = [0] + [_sturm_count(b, w0, x, pivmin) for x in cuts[1:-1]] + [n]
        for i, x in enumerate(seeds):
            j = counts[i]
            g = min(x - cuts[i], cuts[i + 1] - x)  # to the nearer cut
            if counts[i + 1] - j == 1 and todo[j] and abs(x) / _GAP < g < abs(x) * _GAP:
                # |p''/p'| at the root is |2 sum_{k != i} 1 / (x_i - x_k)|
                curv = abs(2.0 * sum([1.0 / (x - y) for y in seeds[:i]])
                           + 2.0 * sum([1.0 / (x - y) for y in seeds[i + 1:]]))
                y = _newton_dd(b, ws, x, curv)
                if abs(y - x) <= 2.0**-10 * g:
                    roots.append(y)
                    todo[j] = False
    stack = [(lo, 0, hi, n)] if any(todo) else []
    while stack:
        a, na, c, nc = stack.pop()
        if nc - na == 1:
            roots.append(_polish(b, w, ws, a, c, (-1) ** (n - na), _mid(a, c)))
            continue
        m = _mid(a, c)
        if not a < m < c:
            # eigenvalues closer than float resolution: report the cluster
            roots.extend([m] * sum(todo[na:nc]))
            continue
        nm = _sturm_count(b, w0, m, pivmin)
        if any(todo[na:nm]):
            stack.append((a, na, m, nm))
        if any(todo[nm:nc]):
            stack.append((m, nm, c, nc))
    return sorted(roots)

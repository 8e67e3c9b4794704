"""Nelder-Mead simplex search on Python floats.

A step-for-step port of ``scipy.optimize.minimize(method="Nelder-Mead")``
(scipy 1.17.1, ``adaptive=False``) for the low-dimensional refinements of
the symbol scans, where scipy's per-iteration numpy work on 2-4 point
simplices costs more than the objective.  Same initial simplex, box
handling, update formulas, operation order, comparisons and stopping
rules, so on the same objective it returns the same ``x``, ``fun`` and
iteration count bit for bit.

Ties in the function values are ordered by Python's stable sort.  For
simplices of up to 3 points this matches numpy's ``argsort`` on every tie
pattern; for 4 points (d = 3) numpy's SIMD ``argsort`` may order exact ties
differently, so there scipy's own path depends on the CPU while this one
does not.  NaN objective values are not supported.

One addition: ``fstop`` ends the search at the first iteration whose best
value is below it.  The best value never rises, so a caller that knows every
point with a value below ``fstop`` is of no interest can stop there; the
default, ``-inf``, never stops and keeps scipy's behaviour.
"""

from __future__ import annotations

import math
from operator import itemgetter

_value = itemgetter(0)


def _clip(x, lo, hi):
    return [a if v < a else (b if v > b else v) for v, a, b in zip(x, lo, hi)]


def _vertex(xbar, w, p, q, lo, hi):
    # p xbar - q w clipped to the box; q = -0.5 gives 0.5 xbar + 0.5 w bit for bit
    return [a if (y := p * c - q * v) < a else (b if y > b else y)
            for c, v, a, b in zip(xbar, w, lo, hi)]


def nelder_mead(f, x0, lo=None, hi=None, *, xatol: float, fatol: float, maxiter: int,
                fstop: float = -math.inf):
    """Minimise ``f`` (a function of a list of floats) from ``x0``, clipping
    every vertex to the box ``[lo, hi]`` when bounds are given, until scipy's
    stopping rules fire or the best value falls below ``fstop``; returns
    (minimiser, its value, iterations)."""
    n = len(x0)
    if lo is None:  # clipping to infinite bounds changes no value
        lo, hi = (-math.inf,) * n, (math.inf,) * n
    x0 = _clip([float(v) for v in x0], lo, hi)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    # a start at the upper bound is reflected into the box, not flattened
    sim = [_clip([2 * b - v if v > b else v for v, b in zip(x, hi)], lo, hi) for x in sim]
    pts = sorted(((f(x), x) for x in sim), key=_value)

    it = 1
    while it < maxiter:
        f0, x0 = pts[0]
        fw, w = pts[-1]
        if f0 < fstop:
            break
        # scipy tests the x spread first; both tests are pure, so order is
        # free.  The values are sorted, so the worst one has the largest spread
        if (fw - f0 <= fatol
                and all(abs(v - v0) <= xatol for _, x in pts[1:] for v, v0 in zip(x, x0))):
            break
        xbar = x0
        for _, x in pts[1:-1]:
            xbar = [s + v for s, v in zip(xbar, x)]
        xbar = [s / n for s in xbar]
        xr = _vertex(xbar, w, 2, 1, lo, hi)
        fxr = f(xr)
        if fxr < f0:
            xe = _vertex(xbar, w, 3, 2, lo, hi)
            fxe = f(xe)
            pts[-1] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < pts[-2][0]:
            pts[-1] = (fxr, xr)
        else:
            if fxr < fw:  # outside contraction
                xc = _vertex(xbar, w, 1.5, 0.5, lo, hi)
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = _vertex(xbar, w, 0.5, -0.5, lo, hi)
                fxc = f(xc)
                accept = fxc < fw
            if accept:
                pts[-1] = (fxc, xc)
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    x = _clip([v0 + 0.5 * (v - v0) for v, v0 in zip(pts[j][1], x0)], lo, hi)
                    pts[j] = (f(x), x)
        it += 1
        pts.sort(key=_value)
    fun, x = pts[0]
    return x, fun, it


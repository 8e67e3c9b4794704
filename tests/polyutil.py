"""Independent oracles for tests: small multivariate polynomial arithmetic, a
brute-force weighted minimax fit, the neighbor form of the discrete Laplacian
and the probe sides after a joint rescale."""

from __future__ import annotations

import math

import numpy as np

from germcalc import ScaleMap, scale_germ, schauder_sides
from germcalc._minimax import weighted_lstsq
from germcalc.errors import ValidationError


class Poly:
    """Polynomial as a dict {exponent tuple: coefficient}, absolute coords."""

    def __init__(self, d, coeffs=None):
        self.d = d
        self.coeffs = {}
        for k, v in (coeffs or {}).items():
            if v != 0:
                self.coeffs[tuple(int(x) for x in k)] = self.coeffs.get(tuple(k), 0.0) + v

    @classmethod
    def const(cls, d, c):
        return cls(d, {(0,) * d: c})

    @classmethod
    def coordinate(cls, d, axis):
        e = tuple(1 if j == axis else 0 for j in range(d))
        return cls(d, {e: 1.0})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Poly(self.d, out)

    def __sub__(self, other):
        return self + other * (-1.0)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.d, {k: v * other for k, v in self.coeffs.items()})
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0.0) + v1 * v2
        return Poly(self.d, out)

    __rmul__ = __mul__

    def eval(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(pts.shape[0])
        for k, v in self.coeffs.items():
            term = np.full(pts.shape[0], v)
            for j, e in enumerate(k):
                if e:
                    term = term * pts[:, j] ** e
            out += term
        return out

    def derivative(self, axis):
        out = {}
        for k, v in self.coeffs.items():
            if k[axis] == 0:
                continue
            k2 = tuple(e - 1 if j == axis else e for j, e in enumerate(k))
            out[k2] = out.get(k2, 0.0) + v * k[axis]
        return Poly(self.d, out)

    def shifted(self, center):
        """Coefficients in powers of (z - center): substitute z = w + center."""
        out = Poly(self.d, {})
        for k, v in self.coeffs.items():
            term = Poly.const(self.d, v)
            for j, e in enumerate(k):
                axis_poly = Poly(self.d, {tuple(1 if i == j else 0 for i in range(self.d)): 1.0,
                                          (0,) * self.d: center[j]})
                for _ in range(e):
                    term = term * axis_poly
            out = out + term
        return out


def falling_factorial_poly(d, gamma, center, steps):
    """Product over axes of (z_j - center_j - m*h_j) for m < gamma_j."""
    out = Poly.const(d, 1.0)
    for j, g in enumerate(gamma):
        for m in range(g):
            out = out * Poly(d, {tuple(1 if i == j else 0 for i in range(d)): 1.0,
                                 (0,) * d: -(center[j] + m * steps[j])})
    return out


def forward_difference_at(u_eval, x, gamma, steps):
    """Iterated forward differences of a callable at a point (tiny stencils)."""
    d = len(x)

    def rec(g, base):
        j = next((ax for ax in range(d) if g[ax] > 0), None)
        if j is None:
            return u_eval(np.asarray(base, dtype=float))
        g2 = tuple(e - 1 if ax == j else e for ax, e in enumerate(g))
        up = list(base)
        up[j] += steps[j]
        return (rec(g2, tuple(up)) - rec(g2, tuple(base))) / steps[j]

    return rec(tuple(gamma), tuple(float(v) for v in x))


def jet_poly(u_poly, x, order, scaling, eps):
    """Discrete Taylor jet of a polynomial at x, as a polynomial."""
    from germcalc.geometry import multi_indices

    d = scaling.d
    steps = [eps ** s for s in scaling.s]
    out = Poly(d, {})
    for g in multi_indices(scaling, order):
        coef = forward_difference_at(lambda p: float(u_poly.eval(p[None, :])[0]),
                                     x, g, steps)
        fact = math.prod(math.factorial(e) for e in g)
        out = out + falling_factorial_poly(d, g, x, steps) * (coef / fact)
    return out


def grid_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray,
                 rounds: int = 7, pts: int = 9):
    """Brute-force coefficient-grid refinement (oracle for tests).

    The objective is convex in the coefficients, so refining around the grid
    argmin is sound; the box is widened whenever the argmin touches its
    boundary.  Returns (value, coefficients, final_step) where final_step is
    the last per-axis grid spacing.
    """
    n, p = Phi.shape
    if p == 0:
        return float(np.max(np.abs(r) / w)), np.zeros(0), 0.0
    center = weighted_lstsq(Phi, r, w)
    half = 4.0 * (np.max(np.abs(center)) + 1.0)
    best_v, best_c = np.inf, center.copy()
    step = 0.0
    for _ in range(rounds):
        axes = [np.linspace(-half, half, pts)] * p
        offs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        cand = center[None, :] + offs
        resid = np.abs(r[None, :] - cand @ Phi.T) / w[None, :]
        vals = resid.max(axis=1)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_v, best_c = float(vals[k]), cand[k].copy()
        on_edge = np.any(np.abs(offs[k]) >= half * (1 - 1e-12))
        step = 2 * half / (pts - 1)
        if on_edge:
            half *= 2.0
        else:
            center = cand[k]
            half = 1.5 * step
    return best_v, best_c, step


def laplacian_neighbor_form(f: np.ndarray, window):
    """Nearest-neighbor form of the discrete Laplacian (isotropic scaling):
    ``eps**-2`` times the sum of neighbor increments."""
    if set(window.scaling.s) != {1}:
        raise ValidationError("neighbor form is defined for isotropic scaling")
    f = np.asarray(f)
    inner = window.shrink(lo_margin=(1,) * window.d, hi_margin=(1,) * window.d)
    out = np.zeros(inner.shape, dtype=f.dtype if f.dtype.kind == "c" else float)
    core = tuple(slice(1, s - 1) for s in window.shape)
    h = window.eps
    for j in range(window.d):
        up = tuple(slice(2, s) if i == j else core[i] for i, s in enumerate(window.shape))
        dn = tuple(slice(0, s - 2) if i == j else core[i] for i, s in enumerate(window.shape))
        out = out + (f[up] - f[core]) + (f[dn] - f[core])
    if h != 1:
        out = out / (h * h)
    return out, inner


def rescaled_sides(U, L, eta: float, alpha: float, R: float) -> dict:
    """Both sides recomputed after jointly rescaling germ, window and grid.

    Under the joint rescale every component scales by ``R**eta``, so the
    ratio must be invariant; this is the computational core of the reduction
    to unit grid scale."""
    Us = scale_germ(U, ScaleMap(U.scaling, (0.0,) * U.scaling.d, R))
    return schauder_sides(Us, L, eta, alpha)

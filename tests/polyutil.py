"""Independent oracles for tests: small multivariate polynomial arithmetic, a
weighted least-squares fit, a brute-force weighted minimax fit, the neighbor
form of the discrete Laplacian, the probe sides after a joint rescale, the
centering check of a germ, scale maps applied to points and composed, window
membership, the falling-factorial difference rule, kernel elements evaluated
in floats, the centered rigidity matrix, the absorption weights built and
checked on ``Fraction``s, and the negative-order semi-norm summed one bump
member at a time."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

import numpy as np

from germcalc import (Germ, ScaleMap, Scaling, WeightSystem, lambda_grid, scale_germ,
                      schauder_sides)
from germcalc.coeff_bounds import first_differing_component
from germcalc.errors import DimensionError, ValidationError, VerificationError
from germcalc.geometry import MultiIndex, multi_indices
from germcalc.germs import (Window, difference_coefficients, falling_factorial,
                            forward_differences)
from germcalc.liouville import KernelBasis, _centered_rows
from germcalc.norms import _bump


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


def weighted_lstsq(Phi: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Least-squares fit of r by Phi with residuals divided by w."""
    if Phi.shape[1] == 0:
        return np.zeros(0, dtype=r.dtype)
    sol, *_ = np.linalg.lstsq(Phi / w[:, None], r / w, rcond=None)
    return sol


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


@dataclass(frozen=True)
class CenterReport:
    centered: bool
    worst: float
    witness_base: tuple[int, ...] | None
    witness_gamma: MultiIndex | None


def center_check(U: Germ, eta: float) -> CenterReport:
    """Check ``D^gamma U_x (x) = 0``, to 1e-10, for all weighted degrees <= eta.

    Only base points whose forward stencils stay inside the active window are
    tested.  Differences act on the active variable, per fixed base point.
    """
    act = U.active
    D = forward_differences(U.values.reshape((U.base.npoints,) + act.shape), act, 1)
    base_idx = U.base.indices()
    pos = base_idx - np.array(act.lo)  # table position of each base point
    worst = 0.0
    wit_x = None
    wit_g = None
    for g in multi_indices(U.scaling, eta):
        rows = np.nonzero(np.all((pos >= 0) & (base_idx + g <= act.hi), axis=1))[0]
        if rows.size == 0:
            continue
        viol = np.abs(D(g)[(rows,) + tuple(pos[rows].T)])
        i = int(np.argmax(viol))
        if viol[i] > worst:
            worst = float(viol[i])
            wit_x = tuple(base_idx[rows[i]])
            wit_g = g
    return CenterReport(worst <= 1e-10, worst, wit_x, wit_g)


def scale_point(m: ScaleMap, y) -> np.ndarray:
    """The recentering/dilation map ``y -> w + (R**s_1 y_1, ..., R**s_d y_d)``."""
    y = np.asarray(y, dtype=float)
    m.scaling.check_dim(y)
    return np.asarray(m.w) + y * np.array([m.R ** w for w in m.scaling.s])


def compose_scale(a: ScaleMap, b: ScaleMap) -> ScaleMap:
    """Composition a o b, i.e. first apply b, then a."""
    if a.scaling != b.scaling:
        raise DimensionError("scale maps live over different gradings")
    return ScaleMap(a.scaling, tuple(scale_point(a, b.w)), a.R * b.R)


def window_contains(win: Window, idx) -> bool:
    """Whether the lattice index lies in the window's index box."""
    return all(l <= int(i) <= h for i, l, h in zip(idx, win.lo, win.hi))


def discrete_monomial(scaling: Scaling, eps: float, gamma: MultiIndex, k) -> np.ndarray:
    """The falling factorial ``k^(gamma)`` at lattice points k, rows of
    physical coordinates, with steps ``eps**s_j``; exact in integers when the
    points and steps are integral."""
    scaling.check_dim(gamma)
    K = np.atleast_2d(k)
    steps = [eps ** s for s in scaling.s]
    if K.dtype.kind in "iu" and all(float(st).is_integer() for st in steps):
        steps = [np.int64(st) for st in steps]
    out = falling_factorial(K.T, steps, tuple(int(n) for n in gamma))
    return out[0] if np.ndim(k) == 1 else out


def monomial_diff_rule_check(scaling: Scaling, eps: float, gamma: MultiIndex,
                             delta: MultiIndex):
    """Verify by direct stencils that forward differences act diagonally on
    the falling factorials: D^gamma k^(delta) equals
    ``delta!/(delta-gamma)! k^(delta-gamma)`` when gamma <= delta, else 0, on
    the window of half-width 4.

    Returns (max abs deviation, exact flag); exact means integer-arithmetic
    equality (only possible when eps makes all steps integral).
    """
    win = Window(scaling, eps, (-4,) * scaling.d, (4,) * scaling.d)
    steps = np.array(win.steps)
    if all(h.is_integer() for h in steps):
        steps = steps.astype(np.int64)
    f = discrete_monomial(scaling, eps, delta, win.indices() * steps).reshape(win.shape)
    gamma = tuple(gamma)
    valid = win.shrink(hi_margin=gamma)
    got = difference_coefficients(f, win, [gamma], valid)[gamma]
    if all(g <= dl for g, dl in zip(gamma, delta)):
        fac = math.prod(math.perm(dl, g) for g, dl in zip(gamma, delta))
        lowered = tuple(dl - g for g, dl in zip(gamma, delta))
        expect = fac * discrete_monomial(scaling, eps, lowered, valid.indices() * steps)
    else:
        expect = 0
    err = float(np.max(np.abs(got - expect)))
    # integer differences arise only at integral points and unit steps
    return err, bool(got.dtype.kind in "iu" and err == 0)


def kernel_element(basis: KernelBasis, i: int, pts: np.ndarray) -> np.ndarray:
    """Kernel element i at physical lattice points, summed in floats."""
    offsets = np.atleast_2d(pts).T
    steps = [basis.eps ** s for s in basis.operator.scaling.s]
    out = np.zeros(offsets.shape[1], dtype=complex)
    for c, g in zip(basis.vectors[i], basis.gammas):
        if c != 0:
            out = out + c * falling_factorial(offsets, steps, g)
    return out


def in_kernel_span(basis: KernelBasis, coeffs) -> bool:
    """Whether a coefficient vector lies in the span of the basis, to a
    relative least-squares residual of 1e-8."""
    v = np.asarray(coeffs, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return True
    if basis.dimension == 0:
        return False
    sol, *_ = np.linalg.lstsq(basis.vectors.T, v, rcond=None)
    return bool(np.linalg.norm(basis.vectors.T @ sol - v) <= 1e-8 * nrm)


def rigidity_matrix(scaling: Scaling, eps: float, eta: float) -> np.ndarray:
    """Matrix of centered forward-difference values: entry (i, j) is
    D^gamma_i applied to the j-th falling-factorial monomial, at the origin.

    In lattice units that is ``gamma_j!/(gamma_j - gamma_i)! k^(gamma_j -
    gamma_i)`` at k = 0, times ``eps**(|gamma_j| - |gamma_i|)``: the matrix
    is ``diag(gamma!)`` at every eps."""
    gammas = multi_indices(scaling, eta)
    degrees = [scaling.degree(g) for g in gammas]
    T = np.zeros((len(gammas), len(gammas)))
    for i, row in enumerate(_centered_rows(scaling, gammas)):
        for j, v in row.items():
            T[i, j] = v * eps ** (degrees[j] - degrees[i])
    return T


def cross_term(system: WeightSystem, beta: MultiIndex, gamma: MultiIndex) -> Fraction:
    """The absorption term of ``beta`` against ``gamma``, a product of
    ``Fraction`` powers."""
    scaling = system.scaling
    term = (Fraction(system.kappa[beta]) * Fraction(system.eps_level[scaling.degree(beta)])
            ** (scaling.degree(gamma) - scaling.degree(beta)))
    for r, sj, g, b in zip(system.rho[beta], scaling.s, gamma, beta):
        term *= Fraction(r) ** (sj * (g - b))
    return term


def reference_verify(system: WeightSystem) -> tuple[bool, float]:
    """The absorption check by its definition, every term a product of
    ``Fraction`` powers and every sum a ``Fraction`` sum."""
    delta = Fraction(system.delta)
    worst = Fraction(0)
    ok = True
    for g in system.indices:
        total = sum((cross_term(system, b, g) for b in system.indices if b != g), Fraction(0))
        cap = delta * Fraction(system.kappa[g])
        if total > cap:
            ok = False
        if cap > 0:
            worst = max(worst, total / cap)
    return ok, float(worst)


def _pow2_at_least(bound: Fraction) -> int:
    k = 1
    while k < bound:
        k *= 2
    return k


def _int_root_at_least(bound: Fraction, q: int) -> int:
    """Least integer r >= 1 with r**q >= bound: doubling, then bisection."""
    n = math.ceil(bound)
    if n <= 1:
        return 1
    hi = 2
    while hi ** q < n:
        hi *= 2
    lo = hi // 2  # lo**q < n <= hi**q
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** q >= n:
            hi = mid
        else:
            lo = mid
    return hi


def reference_construct_weights(scaling: Scaling, eta: float, delta: float) -> WeightSystem:
    """``coeff_bounds.construct_weights`` as it was built on ``Fraction``s,
    checked by ``reference_verify``."""
    if not delta > 0:
        raise ValidationError("delta must be positive")
    A = multi_indices(scaling, eta)
    if not A:
        raise ValidationError("empty index set: eta is below every degree")
    d = scaling.d
    n = len(A)
    kappa: dict[MultiIndex, int] = {}
    eps_level: dict[int, int] = {}
    rho: dict[MultiIndex, tuple[int, ...]] = {}
    if n == 1:
        kappa[A[0]] = 1
        eps_level[scaling.degree(A[0])] = 1
        rho[A[0]] = (1,) * d
        return WeightSystem(scaling, eta, delta, tuple(A), kappa, eps_level, rho)

    share = Fraction(delta) / (n - 1)
    deg = {g: scaling.degree(g) for g in A}
    levels = sorted({deg[g] for g in A})

    def rho_pow(b: MultiIndex, expo: MultiIndex) -> Fraction:
        out = Fraction(1)
        for j in range(d):
            out *= Fraction(rho[b][j]) ** (scaling.s[j] * expo[j])
        return out

    for level in levels:
        level_indices = [g for g in A if deg[g] == level]
        for pos, g in enumerate(level_indices):
            earlier_same = level_indices[:pos]
            # scalar weight: absorb every earlier index's term against g
            bound = Fraction(1)
            for b in A:
                if deg[b] < level:
                    term = (Fraction(kappa[b])
                            * Fraction(eps_level[deg[b]]) ** (level - deg[b])
                            * rho_pow(b, tuple(g[j] - b[j] for j in range(d))))
                    bound = max(bound, term / share)
            for b in earlier_same:
                term = Fraction(kappa[b]) * rho_pow(b, tuple(g[j] - b[j] for j in range(d)))
                bound = max(bound, term / share)
            kappa[g] = _pow2_at_least(bound) if g != A[0] else 1

            # vector weight: shrink g's own terms against earlier same-degree
            rg = [1] * d
            if earlier_same:
                fdc = {b: first_differing_component(b, g) for b in earlier_same}
                for ell in sorted(set(fdc.values()), reverse=True):
                    for b, l0 in fdc.items():
                        if l0 != ell:
                            continue
                        tail = Fraction(1)
                        for j in range(ell + 1, d):
                            tail *= Fraction(rg[j]) ** (scaling.s[j] * (b[j] - g[j]))
                        q = scaling.s[ell] * (g[ell] - b[ell])
                        need = (Fraction(kappa[g]) * tail
                                / (share * Fraction(kappa[b])))
                        rg[ell] = max(rg[ell], _int_root_at_least(need, q))
            rho[g] = tuple(rg)

        # level scale: absorb the finished level against all lower degrees
        e = 1
        for mu in level_indices:
            for b in A:
                if deg[b] >= level:
                    continue
                q = level - deg[b]
                need = (Fraction(kappa[mu])
                        * rho_pow(mu, tuple(b[j] - mu[j] for j in range(d)))
                        / (share * Fraction(kappa[b])))
                e = max(e, _int_root_at_least(need, q))
        eps_level[level] = e

    system = WeightSystem(scaling, eta, delta, tuple(A), kappa, eps_level, rho)
    ok, worst = reference_verify(system)
    if not ok:
        raise VerificationError(f"constructed weights fail their own invariant (worst {worst})")
    return system


@dataclass(frozen=True)
class BumpMember:
    """Tensor bump (optionally odd-modulated along one axis).

    Supported in the box with half-width ``d**(-s_j)`` per axis, which sits
    inside the closed unit anisotropic ball.
    """

    scaling: Scaling
    axis: int | None
    norm_const: float = 1.0

    def raw(self, Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        d = self.scaling.d
        out = np.ones(Y.shape[0])
        for j, s in enumerate(self.scaling.s):
            t = Y[:, j] * float(d ** s)
            out = out * _bump(t)
            if self.axis == j:
                out = out * t
        return out

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        return self.raw(Y) * self.norm_const


def member_sup_estimate(member: BumpMember, k: int) -> float:
    """Largest sup of any derivative with weighted order <= k (grid estimate)."""
    scaling = member.scaling
    d = scaling.d
    n = {1: 801, 2: 161, 3: 61}.get(d, 41)
    axes = []
    spacings = []
    for s in scaling.s:
        b = float(d ** (-s))
        axes.append(np.linspace(-b, b, n))
        spacings.append(axes[-1][1] - axes[-1][0])
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    base_vals = member.raw(pts).reshape([n] * d)
    worst = 0.0
    for gamma in multi_indices(scaling, k):
        arr = base_vals
        for j, g in enumerate(gamma):
            for _ in range(g):
                arr = np.gradient(arr, spacings[j], axis=j)
        worst = max(worst, float(np.max(np.abs(arr))))
    return worst


@cache
def reference_family(s: tuple[int, ...], k: int) -> tuple[BumpMember, ...]:
    """The canonical bump and one odd modulation per axis, each normalised
    by its own C^k estimate times 1.02."""
    scaling = Scaling(s)
    members = []
    for axis in [None] + list(range(scaling.d)):
        cap = member_sup_estimate(BumpMember(scaling, axis), k)
        members.append(BumpMember(scaling, axis, 1.0 / (cap * 1.02)))
    return tuple(members)


def reference_G_gamma(V: Germ, gamma: float, R: float | None = None):
    """(value, witness) of the negative-order semi-norm, one member, base
    point and scale at a time; None when no placement fits."""
    scaling = V.scaling
    k = int(math.ceil(-gamma))
    members = reference_family(scaling.s, k)
    act = V.active
    lam_cap = act.diameter() / 2
    strict = False
    if R is not None:
        lam_cap = min(lam_cap, R)
        strict = True
    lams = lambda_grid(V.eps, lam_cap)
    if strict:
        lams = lams[lams < R]
    base_idx = V.base.indices()
    B = V.base.coords()
    A = act.coords()
    scale = V.eps ** scaling.homogeneity
    best = -1.0
    bw: dict = {}
    admissible = False
    for xf in range(V.base.npoints):
        for lam in lams:
            if not act.ball_fits(base_idx[xf], lam):
                continue
            admissible = True
            pos = act.ball(base_idx[xf], lam)
            pts = A[pos]
            vx = V.values[xf][pos]
            for mi, member in enumerate(members):
                T = (pts - B[xf][None, :]) / np.array([float(lam) ** s
                                                       for s in scaling.s])[None, :]
                phi = member(T) * float(lam) ** (-scaling.homogeneity)
                val = abs(scale * complex(np.sum(vx * phi))) * lam ** (-gamma)
                if val > best:
                    best = float(val)
                    bw = {"base": tuple(base_idx[xf]), "lam": float(lam), "member": mi}
    if not admissible:
        return None
    return max(best, 0.0), bw

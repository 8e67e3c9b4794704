"""Germ semi-norms on lattice windows.

Implements the positive-order germ norm (best vanishing constant at the base
point), the three-point semi-norm with polynomial recentering (a weighted
minimax fit per base pair), negative-order semi-norms against a fixed family
of rescaled bump functions, locally uniform versions of these norms, and the
inf-convolution (McShane) extension.

All values computed here are window-restricted: the suprema run over the
finite window only, and every report carries its window so comparisons
across windows stay explicit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._minimax import solve_minimax
from .errors import (DimensionError, DomainTooSmallError, InputNotHolderError,
                     UnderdeterminedFitError, ValidationError)
from .geometry import MultiIndex, Scaling, multi_indices
from .germs import Germ, Window

_JSON_SEP = (",", ":")


@dataclass(frozen=True)
class NormReport:
    """Value of a window-restricted norm plus the witness realizing it."""

    name: str
    value: float
    params: dict
    witness: dict
    window: dict

    def to_json(self) -> str:
        payload = {"name": self.name, "value": self.value, "params": self.params,
                   "witness": self.witness, "window": self.window}
        return json.dumps(payload, sort_keys=True, separators=_JSON_SEP, default=_coerce)


def _coerce(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj)}")


def window_descriptor(U: Germ) -> dict:
    return {
        "s": list(U.scaling.s), "eps": U.eps,
        "base_lo": list(U.base.lo), "base_hi": list(U.base.hi),
        "act_lo": list(U.active.lo), "act_hi": list(U.active.hi),
    }


# ---------------------------------------------------------------------------
# test-function family for negative-order norms


def _bump(t: np.ndarray) -> np.ndarray:
    u = 1.0 - t * t
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    return out


@dataclass(frozen=True)
class TestFunctionFamily:
    """Finite family of smooth bumps with unit-ball support and C^k norm <= 1.

    Member 0 is the tensor bump, member ``1 + j`` its odd modulation by
    ``t_j``; all are supported in the box with half-width ``d**(-s_j)`` per
    axis, which sits inside the closed unit anisotropic ball.
    ``norm_const`` holds one C^k constant per member.
    """

    scaling: Scaling
    k: int
    norm_const: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.norm_const)

    def raw(self, Y: np.ndarray) -> np.ndarray:
        """(size, n) unnormalised member values at the n points Y."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        d = self.scaling.d
        out = np.ones((1 + d, Y.shape[0]))
        for j, s in enumerate(self.scaling.s):
            t = Y[:, j] * float(d ** s)
            out *= _bump(t)
            out[1 + j] *= t
        return out

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        return self.raw(Y) * np.array(self.norm_const)[:, None]


def _derivative_sup_estimate(scaling: Scaling, k: int) -> np.ndarray:
    """Per member, the largest sup of any derivative with weighted order <= k
    (grid estimate)."""
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
    unit = TestFunctionFamily(scaling, k, (1.0,) * (1 + d))
    base_vals = unit.raw(pts).reshape([1 + d] + [n] * d)
    worst = np.zeros(1 + d)
    for gamma in multi_indices(scaling, k):
        arr = base_vals
        for j, g in enumerate(gamma):
            for _ in range(g):
                arr = np.gradient(arr, spacings[j], axis=1 + j)
        worst = np.maximum(worst, np.max(np.abs(arr).reshape(1 + d, -1), axis=1))
    return worst


_FAMILY_CACHE: dict[tuple, TestFunctionFamily] = {}


def build_default_family(scaling: Scaling, k: int) -> TestFunctionFamily:
    """Canonical bump plus one odd modulation per axis, C^k-normalized.

    This fixed family yields a reproducible lower bound of the supremum over
    the full unit C^k ball; enlarging the family can only increase the
    reported negative-order norms.
    """
    key = (scaling.s, int(k))
    if key not in _FAMILY_CACHE:
        caps = _derivative_sup_estimate(scaling, k)
        _FAMILY_CACHE[key] = TestFunctionFamily(
            scaling, int(k), tuple(float(c) for c in 1.0 / (caps * 1.02)))
    return _FAMILY_CACHE[key]


def verify_family(family: TestFunctionFamily) -> bool:
    """Re-estimate every member's C^k norm; true when all are <= 1 + 1e-4."""
    caps = _derivative_sup_estimate(family.scaling, family.k)
    return bool(np.all(caps * np.abs(family.norm_const) <= 1 + 1e-4))


def lambda_grid(eps: float, lam_max: float) -> np.ndarray:
    """Geometric grid of convolution scales, ratio sqrt(2), from eps up to lam_max."""
    if lam_max < eps * (1 - 1e-12):
        return np.zeros(0)
    ratio = math.sqrt(2.0)
    n = int(math.floor(math.log(lam_max / eps) / math.log(ratio) + 1e-9)) + 1
    return eps * ratio ** np.arange(max(n, 1))


def scaled_test_values(family: TestFunctionFamily, lam: float, xcoord: np.ndarray,
                       pts: np.ndarray) -> np.ndarray:
    """(members, points) values of the recentered, rescaled family."""
    scaling = family.scaling
    T = (pts - xcoord[None, :]) / np.array([lam ** s for s in scaling.s])[None, :]
    return family(T) * lam ** (-scaling.homogeneity)


def pairing(f: np.ndarray, g: np.ndarray, eps: float, scaling: Scaling):
    """Discrete pairing: eps**(sum s) times the plain sum of products over
    the axes of f; leading axes of g give one pairing per row."""
    f = np.asarray(f)
    g = np.asarray(g)
    axes = tuple(range(g.ndim - f.ndim, g.ndim))
    return (eps ** scaling.homogeneity) * np.sum(f * g, axis=axes)


# ---------------------------------------------------------------------------
# positive-order norms


def _pow_dist(D: np.ndarray, expo: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.power(D, expo)


def norm_G_eta(U: Germ, eta: float, R: float | None = None) -> NormReport:
    """Best constant M with ``|U_x(y)| <= M d(x, y)**eta`` over the window."""
    if not eta > 0:
        raise ValidationError("eta must be positive")
    D = U.distances
    mask = _within(D, R)
    name = "G_eta" if R is None else "G_eta_local"
    params = {"eta": eta} | ({} if R is None else {"R": R})
    return _masked_max(U, name, params, mask,
                       np.abs(U.values[mask]) / _pow_dist(D[mask], eta))


def sup_below(U: Germ, R: float) -> NormReport:
    """Plain sup of |U_x(y)| over pairs with d(x, y) < R."""
    mask = U.distances < R
    return _masked_max(U, "sup_below", {"R": R}, mask, np.abs(U.values[mask]))


def _masked_max(U: Germ, name: str, params: dict, mask: np.ndarray,
                masked: np.ndarray) -> NormReport:
    """Largest of the values ``masked`` given on the (base, active) pairs in
    ``mask``, witnessed by the first such pair; -inf elsewhere keeps the
    witness inside the mask."""
    if not mask.any():
        return NormReport(name, 0.0, params, {}, window_descriptor(U))
    vals = np.full(mask.shape, -np.inf)
    vals[mask] = masked
    b, a = np.unravel_index(int(np.argmax(vals)), vals.shape)
    wit = {"base": tuple(U.base.indices()[b]), "active": tuple(U.active.indices()[a])}
    return NormReport(name, float(vals[b, a]), params, wit, window_descriptor(U))


# ---------------------------------------------------------------------------
# three-point semi-norm (weighted minimax fit per base pair)


def _poly_columns(Z: np.ndarray, gammas: list[MultiIndex]) -> np.ndarray:
    """Ordinary centered monomial columns ``prod_j Z_j**g_j``."""
    cols = np.ones((Z.shape[0], len(gammas)))
    for i, g in enumerate(gammas):
        for j, e in enumerate(g):
            if e:
                cols[:, i] *= Z[:, j] ** e
    return cols


def _within(D: np.ndarray, R: float | None) -> np.ndarray:
    """Mask of the positive distances in D, below R when R is given."""
    return (D > 0) & (D < R) if R is not None else D > 0


def _base_columns(U: Germ) -> np.ndarray:
    """Active-window column of each base point; the base window must sit
    inside the active window."""
    for j in range(U.scaling.d):
        if U.base.lo[j] < U.active.lo[j] or U.base.hi[j] > U.active.hi[j]:
            raise DimensionError("base window must sit inside the active window")
    return np.ravel_multi_index(tuple((U.base.indices() - np.array(U.active.lo)).T),
                                U.active.shape)


def _weights(dxy, dyz, eta: float, alpha: float):
    """Three-point weight ``d(y,z)**alpha (d(x,y) + d(y,z))**(eta-alpha)``;
    it grows with d(y, z)."""
    return _pow_dist(dyz, alpha) * _pow_dist(dxy + dyz, eta - alpha)


def _pair_problem(U: Germ, xf: int, yf: int, eta: float, alpha: float,
                  R: float | None):
    """Assemble (Phi, r, w) for one base pair; constant term pinned at z = y."""
    act = U.active
    a_y = act.flat(U.base.indices()[yf])
    dyz = U.distances[yf]
    zs = np.nonzero(_within(dyz, R))[0]
    # rows x and y alone: the column take then copies two rows, not the table
    r = _increments(U.values[[xf, yf]], [0], 1, zs, a_y)[0]
    gammas = [g for g in multi_indices(U.scaling, math.floor(eta)) if any(g)]
    Phi = _poly_columns(act.coords()[zs] - U.base.coords()[yf][None, :], gammas)
    w = _weights(float(U.distances[xf, a_y]), dyz[zs], eta, alpha)
    return Phi, r, w


def pair_minimax(U: Germ, xf: int, yf: int, eta: float, alpha: float,
                 R: float | None = None):
    """Exact weighted minimax value and coefficients for one base pair (x, y)."""
    return solve_minimax(*_pair_problem(U, xf, yf, eta, alpha, R))


def seminorm_G_eta_alpha(U: Germ, eta: float, alpha: float,
                         R: float | None = None) -> NormReport:
    """Three-point semi-norm: per base pair (x, y), the minimax over
    polynomials of weighted degree <= floor(eta) of the recentered increment,
    weighted by ``d(y,z)**alpha (d(x,y) + d(y,z))**(eta-alpha)``; the value is
    the max over pairs.

    The weight vanishes at z = y, so the fit interpolates there exactly and
    z = y is excluded from the max.  A pair whose upper bound times a lower
    bound on its least weight sits at or below the noise level, 1e-12
    sup|U|, is rounding and is never solved.  A table of rank zero modulo
    polynomials (a jet germ) shows that for every pair at once from
    ``_factor_modulo_polynomials`` and reports 0 with an empty witness.
    Otherwise ``_screen_bounds`` gives a cheap upper bound per pair, fitting
    once per base point y and bucket of distances d(x, y) the common row of
    a rank-one table or each pair's increment.  The pairs above the noise
    level are solved exactly in descending bound order (then x, then y),
    sorting one block of the largest bounds at a time (``_descending``),
    until no bound can beat the best value so far; the reported value is
    exact up to a 1e-12 relative slack, and the first pair with the largest
    exact value is the witness.
    """
    if not (0 < alpha < eta):
        raise ValidationError("need 0 < alpha < eta")
    a_pos = _base_columns(U)
    scaling = U.scaling
    act = U.active
    base = U.base
    gammas = [g for g in multi_indices(scaling, math.floor(eta)) if any(g)]
    p = len(gammas)
    if act.npoints - 1 < p:
        raise UnderdeterminedFitError(
            f"{act.npoints - 1} sample points cannot determine {p + 1} coefficients")
    name = "G_eta_alpha" if R is None else "G_eta_alpha_local"
    params = {"eta": eta, "alpha": alpha} | ({} if R is None else {"R": R})

    Dxy = U.distances[:, a_pos]
    pairs = _within(Dxy, R)
    noise = 1e-12 * float(np.max(np.abs(U.values)))
    # cancelling only the polynomial part of an increment leaves
    # ``(coef_x - coef_y)(psi(z) - psi(y)) + (e_x - e_y)(z) - (e_x - e_y)(y)``,
    # at most ``2 (|coef_x - coef_y| sup|psi| + rho_x + rho_y)`` in modulus,
    # which bounds the pair's value times its least weight: at the noise
    # level for every pair, the table has rank 0 and nothing is solved
    coef, psi, rho = factor = _factor_modulo_polynomials(U, eta)
    xs, ys = np.nonzero(pairs)
    if np.all(2 * (np.abs(coef[xs] - coef[ys]) * float(np.max(np.abs(psi))) +
                   rho[xs] + rho[ys]) <= noise):
        return NormReport(name, 0.0, params, {}, window_descriptor(U))
    # frozen-coefficient germs have rank 1 modulo polynomials up to the
    # noise level; their bounds need no fit per pair
    if 4 * float(np.max(rho)) > noise:
        factor = None
    ub, wmin, xs, ys = _screen_bounds(U, Dxy, a_pos, pairs, eta, alpha, R, gammas, factor)
    # pairs at the noise level are never solved.  Complex data is solved
    # with real and imaginary parts apart, which may land up to sqrt(2)
    # above the least-squares fit, so its bound is widened by that
    cand = np.nonzero(ub * wmin > noise)[0]
    reach = ub * math.sqrt(2) if np.iscomplexobj(U.values) else ub

    base_idx = base.indices()
    best = -1.0
    bw: dict = {}
    for i in _descending(cand, ub, xs, ys):
        if best >= 0 and reach[i] <= best * (1 + 1e-12) + 1e-300:
            break
        val, coeffs = pair_minimax(U, int(xs[i]), int(ys[i]), eta, alpha, R)
        if val > best:
            best = val
            bw = {"base_x": tuple(base_idx[xs[i]]), "base_y": tuple(base_idx[ys[i]]),
                  "coeffs": np.asarray(coeffs)}
    return NormReport(name, max(best, 0.0), params, bw, window_descriptor(U))


def _descending(cand: np.ndarray, ub: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Yield ``cand`` in ``lexsort((ys, xs, -ub))`` order (descending bound,
    then x, then y; NaN bounds last), sorting one block at a time.

    A block is every remaining candidate at or above the 64th largest
    remaining bound, ties at the cut included, so the blocks come out in
    order; the ordered pass usually stops inside the first one.
    """
    block = 64
    rest = cand
    while rest.size:
        key = -ub[rest]
        cut = np.partition(key, block - 1)[block - 1] if rest.size > block else np.nan
        take = key <= cut if not np.isnan(cut) else np.ones(rest.size, dtype=bool)
        head, rest = rest[take], rest[~take]
        yield from head[np.lexsort((ys[head], xs[head], key[take]))]


def _factor_modulo_polynomials(U: Germ, eta: float):
    """Rank-one model of the germ table modulo polynomials.

    Writes ``U_x - U_0 = P_x + coef_x psi + e_x`` on the active window, with
    P_x a polynomial of weighted degree <= floor(eta), psi the largest row
    (first on ties) of the table after projecting the polynomials out, coef
    its projection coefficients and ``|e_x| <= rho_x`` pointwise; rho
    carries a rounding allowance of 1e-15 sup|U|.  Returns (coef, psi, rho).
    A jet germ ``u - P_x`` leaves every row at the noise level, a frozen
    coefficient germ ``u - a(x) v - P_x`` leaves ``coef_x psi = (a(0) - a(x)) v``
    modulo polynomials.
    """
    A = U.active.coords()
    lo, hi = A.min(axis=0), A.max(axis=0)
    half = np.where(hi > lo, (hi - lo) / 2, 1.0)
    P = _poly_columns((A - (hi + lo) / 2) / half, multi_indices(U.scaling, math.floor(eta)))
    E = np.asarray(U.values - U.values[0], dtype=np.result_type(U.values, float))
    E -= (E @ np.linalg.pinv(P).T) @ P.T
    psi = E[int(np.argmax(np.linalg.norm(E, axis=1)))].copy()
    pp = float(np.vdot(psi, psi).real)
    coef = E @ psi.conj() / pp if pp > 0 else np.zeros(E.shape[0], dtype=E.dtype)
    E -= coef[:, None] * psi[None, :]
    rho = np.max(np.abs(E), axis=1) + 1e-15 * float(np.max(np.abs(U.values)))
    return coef, psi, rho


#: Screen buckets per octave of d(x, y).  At 2 per octave the bounds loosen
#: enough to add exact solves on the benchmark's frozen 2D and (2,1) germs;
#: 8 per octave fits more rows for no fewer solves.
_BUCKETS_PER_OCTAVE = 4


def _screen_bounds(U: Germ, Dxy: np.ndarray, a_pos: np.ndarray, pairs: np.ndarray,
                   eta: float, alpha: float, R: float | None, gammas: list[MultiIndex],
                   factor):
    """Per-pair upper bounds and lower bounds on the smallest weight.

    Returns (ub, wmin, xs, ys), y-major; ``a_pos`` is the active column
    of each base point.  The distances d(x, y) fall into buckets a quarter
    octave wide, ``floor(4 log2(d / d_min))`` with d_min the smallest
    positive one.  Per y, each bucket in use gets one weight row, at the
    smallest distance of that bucket in use at y, and every pair of the
    bucket is fitted with it.  The weight grows with d(x, y) (eta > alpha),
    so that fit's achieved maximum bounds every pair of the bucket from
    above, and the row's smallest weight bounds theirs from below.

    A factored table (``factor`` from ``_factor_modulo_polynomials``) fits
    the recentered common row psi once per y and bucket: the polynomial part
    of an increment lies in the fit space, so ``|coef_x - coef_y|`` times
    that fit's bound plus the pointwise remainder bounds the pair.  Any
    other table fits every pair's increment.
    """
    base = U.base
    B = base.coords()
    A = U.active.coords()
    # the weights see x only through d(x, y), and grow with it: per y, one
    # weight row and one fit per bucket of distances in use, at the smallest
    # distance of the bucket in use there, gathered per x
    d_pair = Dxy[pairs]
    bucket = np.zeros(Dxy.shape, dtype=np.intp)
    if d_pair.size:
        bucket[pairs] = np.floor(_BUCKETS_PER_OCTAVE * np.log2(d_pair / np.min(d_pair)))
    rep = np.full((base.npoints, int(np.max(bucket)) + 1), np.inf)
    np.minimum.at(rep, (np.nonzero(pairs)[1], bucket[pairs]), d_pair)
    in_use = np.isfinite(rep)

    cand_ub, cand_wmin, cand_x, cand_y = [], [], [], []
    for yf in range(base.npoints):
        dyz = U.distances[yf]
        zmask = _within(dyz, R)
        xs = np.nonzero(pairs[:, yf])[0]
        if xs.size == 0 or not zmask.any():
            continue
        zs = np.nonzero(zmask)[0]
        of_x = (np.cumsum(in_use[yf]) - 1)[bucket[xs, yf]]   # row of Wc for each x
        Wc = _weights(rep[yf, in_use[yf]][:, None], dyz[zs][None, :], eta, alpha)
        wmin = np.min(Wc, axis=1)
        Phi = _poly_columns(A[zs] - B[yf][None, :], gammas)
        if factor is None:
            ub = _fit_bound(Phi, _increments(U.values, xs, yf, zs, a_pos[yf]), Wc, of_x)
        else:
            coef, psi, rho = factor
            fit = _fit_bound(Phi, (psi[zs] - psi[a_pos[yf]])[None, :], Wc, slice(None))
            ub = (np.abs(coef[xs] - coef[yf]) * fit[of_x] +
                  2 * (rho[xs] + rho[yf]) / wmin[of_x])
        cand_ub.append(ub)
        cand_wmin.append(wmin[of_x])
        cand_x.append(xs)
        cand_y.append(np.full(xs.size, yf))
    if not cand_ub:
        empty = np.zeros(0)
        return empty, empty, empty.astype(int), empty.astype(int)
    return tuple(np.concatenate(c) for c in (cand_ub, cand_wmin, cand_x, cand_y))


def _increments(V: np.ndarray, xs: np.ndarray, yf: int, cols: np.ndarray,
                a_y: int) -> np.ndarray:
    """Recentered increments ``(U_x - U_y)(z) - (U_x - U_y)(y)`` for the
    rows ``xs`` at the active columns ``cols``; ``a_y`` is y's column.  A
    column take then a row take copies faster than one ``np.ix_`` gather."""
    r = V.take(cols, axis=1)[xs]
    r -= V[yf, cols]
    r -= (V[xs, a_y] - V[yf, a_y])[:, None]
    return r


def _fit_bound(Phi: np.ndarray, data: np.ndarray, Wc: np.ndarray, of_row) -> np.ndarray:
    """Largest weighted residual of each row's weighted least-squares fit.

    Row i of ``data`` (one row is broadcast) is fitted with the weights in
    row ``of_row[i]`` of ``Wc`` (``slice(None)``: row i); the normal
    matrices are formed once per row of ``Wc``.
    """
    p = Phi.shape[1]
    if p == 0:
        return np.max(np.abs(data) / Wc[of_row], axis=1)
    PhiPhi = (Phi[:, :, None] * Phi[:, None, :]).reshape(Phi.shape[0], p * p)
    Winv2 = 1.0 / (Wc * Wc)
    Ac = (Winv2 @ PhiPhi).reshape(-1, p, p)
    ridge = 1e-13 * np.maximum(np.trace(Ac, axis1=1, axis2=2), 1e-300)
    Ac += ridge[:, None, None] * np.eye(p)[None, :, :]
    bvec = (data * Winv2[of_row]) @ Phi
    C = np.linalg.solve(Ac[of_row], bvec[..., None])[..., 0]
    res = data - C @ Phi.T
    return np.max(np.abs(res) / Wc[of_row], axis=1)


# ---------------------------------------------------------------------------
# negative-order semi-norm against the test family


def seminorm_G_gamma(V: Germ, gamma: float, R: float | None = None) -> NormReport:
    """Sup over family members, base points and admissible scales of
    ``lam**(-gamma) |<V_x, phi_x^lam>_eps|``.

    Scales run over a geometric grid from eps up to the window radius (below
    R when given); placements whose closed ball exits the active window are
    skipped.  Each placement pairs every member at once; the witness is the
    first (base, scale, member) in that order with the largest value.
    """
    if not gamma < 0:
        raise ValidationError("gamma must be negative")
    family = build_default_family(V.scaling, int(math.ceil(-gamma)))
    act = V.active
    lams = lambda_grid(V.eps, act.diameter() / 2)
    if R is not None:
        lams = lams[lams < R]
    name = "G_gamma" if R is None else "G_gamma_local"
    params = {"gamma": gamma, "k": family.k} | ({} if R is None else {"R": R})
    base_idx = V.base.indices()
    best = -1.0
    bw: dict = {}
    for xf in range(V.base.npoints):
        for lam in lams:
            if not act.ball_fits(base_idx[xf], lam):
                continue
            vals = _placement_pairings(V, family, xf, float(lam)) * lam ** (-gamma)
            mi = int(np.argmax(vals))
            if vals[mi] > best:
                best = float(vals[mi])
                bw = {"base": tuple(base_idx[xf]), "lam": float(lam), "member": mi}
    if best < 0:
        raise DomainTooSmallError("no test-function placement fits the window")
    return NormReport(name, best, params, bw, window_descriptor(V))


def _placement_pairings(V: Germ, family: TestFunctionFamily, xf: int,
                        lam: float) -> np.ndarray:
    """``|<V_x, phi_x^lam>_eps|`` of every family member phi, x the base
    point ``xf``.  The modulus is libm's hypot, as Python's complex abs;
    numpy's complex abs differs from it in the last bit."""
    pos = V.active.ball(V.base.indices()[xf], lam)
    phi = scaled_test_values(family, lam, V.base.coords()[xf], V.active.coords()[pos])
    p = pairing(V.values[xf][pos], phi, V.eps, V.scaling)
    return np.hypot(p.real, p.imag)


# ---------------------------------------------------------------------------
# McShane extension


def mcshane_extend(f: np.ndarray, mask: np.ndarray, window: Window, alpha: float,
                   M: float) -> np.ndarray:
    """Inf-convolution extension ``g(x) = min_y (f(y) + M d(x,y)**alpha)``.

    Extends from the masked subset to the whole window without increasing the
    Holder constant (alpha in (0, 1), so the powered distance is a metric).
    The input must satisfy the stated Holder bound on its domain.
    """
    if not (0 < alpha < 1):
        raise ValidationError("alpha must lie in (0, 1)")
    f = np.asarray(f, dtype=float).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if f.shape[0] != window.npoints or mask.shape[0] != window.npoints:
        raise DimensionError("field and mask must cover the window")
    if not mask.any():
        raise DomainTooSmallError("extension needs at least one defined point")
    pts = window.coords()
    sub = pts[mask]
    fsub = f[mask]
    Dsub = window.scaling.pairwise_distance(sub, sub)
    spread = np.abs(fsub[:, None] - fsub[None, :])
    bound = M * _pow_dist(Dsub, alpha)
    np.fill_diagonal(bound, np.inf)
    scale = max(1.0, float(np.max(np.abs(fsub))))
    if np.any(spread > bound * (1 + 1e-12) + 1e-12 * scale):
        raise InputNotHolderError(
            "input violates the stated Holder bound on its domain")
    D = window.scaling.pairwise_distance(pts, sub)
    caps = M * _pow_dist(D, alpha)
    g = np.min(fsub[None, :] + caps, axis=1)
    g[mask] = fsub
    return g


# ---------------------------------------------------------------------------
# witness replay


def reevaluate_report(report: NormReport, U: Germ) -> float:
    """Recompute the reported value from its witness alone."""
    w = report.witness
    if not w:
        return 0.0
    if report.name.startswith("G_eta_alpha"):
        xf = U.base.flat(w["base_x"])
        yf = U.base.flat(w["base_y"])
        val, _ = pair_minimax(U, xf, yf, report.params["eta"],
                                 report.params["alpha"], report.params.get("R"))
        return val
    if report.name.startswith("G_eta"):
        b, a = U.base.flat(w["base"]), U.active.flat(w["active"])
        return float(abs(U.values[b, a]) / U.distances[b, a] ** report.params["eta"])
    if report.name.startswith("G_gamma"):
        family = build_default_family(U.scaling, report.params["k"])
        vals = _placement_pairings(U, family, U.base.flat(w["base"]), w["lam"])
        return float(vals[w["member"]] * w["lam"] ** (-report.params["gamma"]))
    if report.name == "sup_below":
        return float(abs(U.values[U.base.flat(w["base"]), U.active.flat(w["active"])]))
    raise ValueError(f"unknown report kind {report.name}")

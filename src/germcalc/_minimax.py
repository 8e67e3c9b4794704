"""Weighted discrete Chebyshev (minimax) fitting.

Solves  min over c  of  max_i |r_i - (Phi c)_i| / w_i  on a finite point set
with strictly positive weights.  ``solve_minimax`` runs one route:

* ``exchange_minimax`` -- reference/exchange iteration (a dual-simplex walk
  on the classical reformulation).  Deterministic, fast, and
  self-certifying: it returns once the reference value (a weak-duality lower
  bound) matches the achieved maximum of its fit.
* ``lp_minimax`` -- scipy ``linprog`` (HiGHS) on the standard epigraph
  formulation; the exchange iteration falls back to it on stall, and tests
  use it as the reference.

Both report the *achieved* maximum ratio of the fit they return, so values
are reproducible by direct evaluation.
"""

from __future__ import annotations

import numpy as np

_CERT_RTOL = 1e-12
_MAX_EXCHANGE_ITERS = 120


def achieved_value(Phi: np.ndarray, r: np.ndarray, w: np.ndarray, c: np.ndarray) -> float:
    if Phi.shape[1]:
        res = r - Phi @ c
    else:
        res = r
    return float(np.max(np.abs(res) / w)) if r.size else 0.0


def weighted_lstsq(Phi: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    if Phi.shape[1] == 0:
        return np.zeros(0, dtype=r.dtype)
    sol, *_ = np.linalg.lstsq(Phi / w[:, None], r / w, rcond=None)
    return sol


def _reference_value(Phi_S, r_S, w_S):
    """Lower bound + tentative fit from a (p+1)-point reference set.

    Returns (t, c) where t is a weak-duality lower bound for the full
    problem restricted to S, or None when the reference is degenerate.
    """
    p = Phi_S.shape[1]
    if p == 0:
        i = int(np.argmax(np.abs(r_S) / w_S))
        return float(np.abs(r_S[i]) / w_S[i]), np.zeros(0)
    # null vector of Phi_S^T selects the equioscillation signs
    _, sv, Vh = np.linalg.svd(Phi_S.T, full_matrices=True)
    if sv.size < p or sv[-1] <= 1e-13 * max(sv[0], 1e-300):
        return None
    y = Vh[-1]
    den = float(np.sum(np.abs(y) * w_S))
    if den <= 1e-300:
        return None
    num = float(y @ r_S)
    t = abs(num) / den
    s0 = 1.0 if num >= 0 else -1.0
    sigma = np.where(y >= 0, s0, -s0)
    c, *_ = np.linalg.lstsq(Phi_S, r_S - t * sigma * w_S, rcond=None)
    return t, c


def _residual_order(Phi, r, w):
    """Point indices by decreasing weighted residual of the least-squares fit."""
    res = np.abs(r - Phi @ weighted_lstsq(Phi, r, w)) / w
    return np.argsort(-res, kind="stable")


def _rank_repaired_reference(Phi, order):
    """Pivoted-QR reference selection for rank-deficient starts."""
    p = Phi.shape[1]
    pool = order[:8 * (p + 1)]
    import scipy.linalg

    _, _, piv = scipy.linalg.qr(Phi[pool].T, pivoting=True)
    S = list(pool[piv[:p]])
    for j in order:
        if j not in S:
            S.append(j)
            break
    return np.array(sorted(S), dtype=np.intp)


def exchange_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Reference/exchange iteration; returns (value, coefficients).

    Certifies optimality by matching the reference lower bound against the
    achieved maximum; falls back to the LP route when a reference turns
    degenerate or the ascent stalls.
    """
    n, p = Phi.shape
    if n == 0:
        return 0.0, np.zeros(p)
    if n <= p:
        c, *_ = np.linalg.lstsq(Phi, r, rcond=None)
        return achieved_value(Phi, r, w, c), c
    order = _residual_order(Phi, r, w)
    S = np.sort(order[:p + 1])
    if _reference_value(Phi[S], r[S], w[S]) is None:
        S = _rank_repaired_reference(Phi, order)
    best = None
    for _ in range(_MAX_EXCHANGE_ITERS):
        ref = _reference_value(Phi[S], r[S], w[S])
        if ref is None:
            break
        t, c = ref
        res = np.abs(r - Phi @ c) / w if p else np.abs(r) / w
        j_star = int(np.argmax(res))
        if best is None or res[j_star] < best[0]:
            best = (float(res[j_star]), c)
        if res[j_star] <= t * (1 + _CERT_RTOL) + 1e-300:
            return float(res[j_star]), c
        if j_star in S:
            break
        # greedy single exchange: admit the worst point, drop to maximize t
        t_next, S_next = t, None
        for i in range(S.size):
            cand = S.copy()
            cand[i] = j_star
            ref_i = _reference_value(Phi[cand], r[cand], w[cand])
            if ref_i is not None and ref_i[0] > t_next * (1 + 1e-15):
                t_next, S_next = ref_i[0], np.sort(cand)
        if S_next is None:
            break
        S = S_next
    value, c = lp_minimax(Phi, r, w)
    if best is not None and best[0] < value:
        return best
    return value, c


def lp_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Epigraph LP via scipy linprog (HiGHS); returns (value, coefficients)."""
    from scipy.optimize import linprog

    n, p = Phi.shape
    if n == 0:
        return 0.0, np.zeros(p)
    if p == 0:
        return float(np.max(np.abs(r) / w)), np.zeros(0)
    A_ub = np.block([[Phi, -w[:, None]], [-Phi, -w[:, None]]])
    b_ub = np.concatenate([r, -r])
    cost = np.zeros(p + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * p + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"minimax LP failed: {res.message}")
    c = res.x[:p]
    return achieved_value(Phi, r, w, c), c


def solve_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Front end handling complex data by splitting into real and imaginary parts.

    For complex data the returned value is the achieved modulus ratio of the
    combined fit: an attainable upper bound within sqrt(2) of the modulus
    infimum, and exactly the minimax value for real data.
    """
    Phi = np.asarray(Phi, dtype=float)
    r = np.asarray(r)
    w = np.asarray(w, dtype=float)
    if np.iscomplexobj(r):
        if np.any(r.imag):
            _, cre = exchange_minimax(Phi, np.ascontiguousarray(r.real), w)
            _, cim = exchange_minimax(Phi, np.ascontiguousarray(r.imag), w)
            c = cre + 1j * cim
            return achieved_value(Phi, r, w, c), c
        r = np.ascontiguousarray(r.real)
    return exchange_minimax(Phi, r, w)

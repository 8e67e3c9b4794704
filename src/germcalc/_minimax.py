"""Weighted discrete Chebyshev (minimax) fitting.

Solves  min over c  of  max_i |r_i - (Phi c)_i| / w_i  on a finite point set
with strictly positive weights.  ``solve_minimax`` takes one exact route per
problem shape:

* p <= 2 free coefficients: constraint generation (``_vertex_minimax``),
  each working set solved by enumerating the vertices of its epigraph;
* p >= 3, Phi of rank below p, or a working set past ``_MAX_WORKING``:
  ``lp_minimax``, scipy ``linprog`` (HiGHS), also the tests' reference.

Both report the *achieved* maximum ratio of the fit they return, so values
are reproducible by direct evaluation.
"""

from __future__ import annotations

import itertools

import numpy as np

_CERT_RTOL = 1e-12
_MAX_VERTEX_P = 2
# C(n, p+1) 2^p vertices per round: a working set past this size is handed to
# the LP before the enumeration can exhaust memory
_MAX_WORKING = 32


def achieved_value(Phi: np.ndarray, r: np.ndarray, w: np.ndarray, c: np.ndarray) -> float:
    return float(np.max(np.abs(r - Phi @ c) / w)) if r.size else 0.0


def _start_set(Phi: np.ndarray, order: np.ndarray):
    """Shortest prefix of ``order`` with over p points and Phi of rank p, or None."""
    p = Phi.shape[1]
    basis: list[int] = []
    for k, i in enumerate(order):
        if len(basis) < p and np.linalg.matrix_rank(Phi[basis + [i]]) > len(basis):
            basis.append(i)
        if len(basis) == p and k >= p:
            return order[:k + 1]
    return None


def _best_vertex(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Exact minimax fit on a small point set: (coefficients, value), or None.

    Each vertex of the epigraph ``|r - Phi c| <= t w`` solves p+1 active
    constraints ``Phi_i c + s_i w_i t = r_i``: every (p+1)-point subset and
    sign pattern is solved in one batch, the first sign fixed since flipping
    all signs only flips t.  As Phi has rank p an optimum is a vertex: the
    vertex fit with the least achieved maximum.  Singular systems are skipped.
    """
    k, p = Phi.shape
    subsets = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(k), p + 1)), dtype=np.intp).reshape(-1, p + 1)
    signs = np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=p)])
    M = np.empty((subsets.shape[0], signs.shape[0], p + 1, p + 1))
    M[..., :p] = Phi[subsets][:, None]
    M[..., p] = w[subsets][:, None] * signs
    M = M.reshape(-1, p + 1, p + 1)
    b = np.repeat(r[subsets], signs.shape[0], axis=0)
    ok = np.abs(np.linalg.det(M)) > 1e-13 * np.prod(np.linalg.norm(M, axis=2), axis=1)
    if not ok.any():
        return None
    C = np.linalg.solve(M[ok], b[ok][..., None])[:, :p, 0]
    worst = np.max(np.abs(r[None, :] - C @ Phi.T) / w[None, :], axis=1)
    i = int(np.argmin(worst))
    return C[i], float(worst[i])


def _vertex_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Constraint generation; (value, coefficients), or None for the LP.

    The working set starts from the points with the largest ``|r|/w`` and
    gains the worst point each round.  Its optimum t bounds the whole
    problem below, so a fit whose maximum over all points is at most
    ``t (1 + 1e-12)`` plus 1e-14 max ``|r|/w`` for rounding is optimal.
    """
    ratio = np.abs(r) / w
    order = np.argsort(-ratio, kind="stable")
    S = _start_set(Phi, order)
    slack = 1e-14 * float(ratio[order[0]])
    while S is not None and S.size <= _MAX_WORKING:
        best = _best_vertex(Phi[S], r[S], w[S])
        if best is None:
            return None
        c, t = best
        res = np.abs(r - Phi @ c) / w
        j = int(np.argmax(res))
        if res[j] <= t * (1 + _CERT_RTOL) + slack:
            return float(res[j]), c
        S = np.append(S, j)
    return None


def lp_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Epigraph LP via scipy linprog (HiGHS); returns (value, coefficients)."""
    n, p = Phi.shape
    if n == 0:
        return 0.0, np.zeros(p)
    if p == 0:
        return float(np.max(np.abs(r) / w)), np.zeros(0)
    from scipy.optimize import linprog

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


def _real_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    if r.size and Phi.shape[1] <= _MAX_VERTEX_P:
        found = _vertex_minimax(Phi, r, w)
        if found is not None:
            return found
    return lp_minimax(Phi, r, w)


def solve_minimax(Phi: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Exact weighted minimax fit; returns (value, coefficients).

    Complex data is split into real and imaginary parts, each fitted
    exactly.  The returned value is then the achieved modulus ratio of the
    combined fit: an attainable upper bound within sqrt(2) of the modulus
    infimum, and exactly the minimax value for real data.
    """
    Phi = np.asarray(Phi, dtype=float)
    r = np.asarray(r)
    w = np.asarray(w, dtype=float)
    if np.iscomplexobj(r):
        if np.any(r.imag):
            _, cre = _real_minimax(Phi, np.ascontiguousarray(r.real), w)
            _, cim = _real_minimax(Phi, np.ascontiguousarray(r.imag), w)
            c = cre + 1j * cim
            return achieved_value(Phi, r, w, c), c
        r = np.ascontiguousarray(r.real)
    return _real_minimax(Phi, r, w)

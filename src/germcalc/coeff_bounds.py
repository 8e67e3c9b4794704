"""Constructive coefficient bounds: absorption weights and ray probing.

Builds, for the index set of multi-indices up to a degree cutoff, a system of
weights (one scalar per index, one integer per degree level, one integer
vector per index) whose cross terms are dominated by any prescribed fraction
of the diagonal -- the absorption inequality that lets the polynomial
coefficients of a recentered germ increment be bounded one by one.  The
companion routine extracts those coefficients numerically by probing the
increment along lattice rays and solving the resulting interpolation system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateProbeError, ValidationError, VerificationError, WindowTooSmallError
from .geometry import MultiIndex, Scaling, multi_indices
from .germs import Germ


def first_differing_component(beta: MultiIndex, gamma: MultiIndex) -> int:
    for j, (b, g) in enumerate(zip(beta, gamma)):
        if b != g:
            return j
    raise ValueError("indices are equal")


@dataclass(frozen=True)
class WeightSystem:
    """Weights satisfying the absorption inequality.

    For every index ``g`` in the set, the sum over the other indices ``b`` of
    ``kappa[b] * eps_level[|b|]**(|g|-|b|) * prod_j rho[b][j]**(s_j (g_j-b_j))``
    stays below ``delta * kappa[g]``.
    """

    scaling: Scaling
    eta: float
    delta: float
    indices: tuple[MultiIndex, ...]
    kappa: dict
    eps_level: dict
    rho: dict

    def cross_term(self, beta: MultiIndex, gamma: MultiIndex) -> Fraction:
        """The term of ``beta`` against ``gamma``; every weight is an
        integer, so each factor goes to the numerator or the denominator by
        the sign of its exponent and one ``Fraction`` is built at the end."""
        s = self.scaling.s
        expo = [sj * (g - b) for sj, g, b in zip(s, gamma, beta)]   # sums to |gamma| - |beta|
        level = sum(sj * b for sj, b in zip(s, beta))
        num, den = self.kappa[beta], 1
        for weight, e in zip((self.eps_level[level], *self.rho[beta]), (sum(expo), *expo)):
            if e >= 0:
                num *= weight ** e
            else:
                den *= weight ** -e
        return Fraction(num, den)

    def verify(self) -> tuple[bool, float]:
        """Exact (rational) check of the absorption inequality; returns the
        worst ratio of cross-term sum against delta times the diagonal.  The
        system is frozen, so the verdict is worked out once and then stored."""
        if "_verdict" in self.__dict__:
            return self._verdict
        delta = Fraction(self.delta)
        worst = Fraction(0)
        ok = True
        for g in self.indices:
            total = sum((self.cross_term(b, g) for b in self.indices if b != g),
                        Fraction(0))
            cap = delta * Fraction(self.kappa[g])
            if total > cap:
                ok = False
            if cap > 0:
                worst = max(worst, total / cap)
        object.__setattr__(self, "_verdict", (ok, float(worst)))
        return self._verdict

    def to_text(self) -> str:
        s = ",".join(str(x) for x in self.scaling.s)
        lines = ["# germcalc weights v1",
                 f"d={self.scaling.d} s={s} eta={self.eta!r} delta={self.delta!r}"]
        for b in self.indices:
            lines.append(
                f"beta={','.join(map(str, b))} kappa={self.kappa[b]} "
                f"eps={self.eps_level[self.scaling.degree(b)]} "
                f"rho={','.join(str(r) for r in self.rho[b])}")
        return "\n".join(lines) + "\n"


def _pow2_at_least(bound: Fraction) -> int:
    k = 1
    while k < bound:
        k *= 2
    return k


def _int_root_at_least(bound: Fraction, q: int) -> int:
    """Least integer r >= 1 with r**q >= bound, in exact integer arithmetic.

    Since r**q is an integer, r**q >= bound exactly when r**q >= ceil(bound);
    r is bracketed by doubling and then bisected (bounds reach 1e21 and more,
    beyond what a float root can resolve).
    """
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


def construct_weights(scaling: Scaling, eta: float, delta: float) -> WeightSystem:
    """Inductive construction of an absorbing weight system.

    Walks the index set in degree-lex order.  For each index: first the
    scalar weight grows (smallest power of two) until every earlier index's
    cross term is below its share of the target; then the integer vector is
    chosen descending over first-differing components so that this index's
    own cross terms against earlier same-degree indices shrink below their
    share; after a degree level completes, its integer scale is raised until
    the level's terms against all lower degrees are absorbed.  Each share is
    ``delta / (#indices - 1)``.  The result is verified exactly.

    In one dimension no two distinct indices share a degree, so the vector
    weights stay identically one.
    """
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
    ok, worst = system.verify()
    if not ok:
        raise VerificationError(f"constructed weights fail their own invariant (worst {worst})")
    return system


# ---------------------------------------------------------------------------
# coefficient extraction by ray probing


@dataclass(frozen=True)
class ProbeReport:
    coefficients: dict
    ratios: dict          # |nu_beta| / d(x,y)**(eta - |beta|)
    probes: list          # (beta, ideal point, lattice index, rounding offset)
    residual: float
    condition: float


def probe_coefficients(U: Germ, x_idx, y_idx, eta: float, alpha: float,
                       weights: WeightSystem | None = None) -> ProbeReport:
    """Extract the comparison-polynomial coefficients of ``U_x - U_y``.

    Probes the increment at one lattice ray point per index: by default
    ``z = y + sum_j ((beta_j + 1) d(x,y))**s_j e_j``, a unisolvent lower-set
    node family; with a weight system, the probe offsets use its level scale
    and vector weight instead (which may be degenerate).  Probe coordinates
    are rounded to the lattice and the offsets reported; the rounding is
    exact whenever d(x, y) is a whole multiple of the grid scale.
    """
    scaling = U.scaling
    act = U.active
    steps = act.steps
    x_idx = tuple(int(i) for i in x_idx)
    y_idx = tuple(int(i) for i in y_idx)
    if x_idx == y_idx:
        raise ValidationError("probe needs two distinct base points")
    xf = U.base.flat(x_idx)
    yf = U.base.flat(y_idx)
    xc = np.array(x_idx, dtype=float) * np.array(steps)
    yc = np.array(y_idx, dtype=float) * np.array(steps)
    dist = scaling.distance(xc, yc)
    A = multi_indices(scaling, eta)
    probes = []
    lattice_pts = []
    for beta in A:
        if weights is None:
            e_fac = 1
            rho_vec = tuple(b + 1 for b in beta)
        else:
            e_fac = weights.eps_level[scaling.degree(beta)]
            rho_vec = weights.rho[beta]
        ideal = yc + np.array([(e_fac * rho_vec[j] * dist) ** scaling.s[j]
                               for j in range(scaling.d)])
        idx = tuple(int(round(ideal[j] / steps[j])) for j in range(scaling.d))
        if not act.contains(idx):
            raise WindowTooSmallError(
                f"probe point {idx} for index {beta} exits the active window")
        actual = np.array(idx, dtype=float) * np.array(steps)
        probes.append((beta, tuple(ideal), idx, tuple(actual - ideal)))
        lattice_pts.append(idx)

    V = np.zeros((len(A), len(A)))
    g = np.zeros(len(A), dtype=complex)
    for i, idx in enumerate(lattice_pts):
        zc = np.array(idx, dtype=float) * np.array(steps)
        af = act.flat(idx)
        g[i] = U.values[xf, af] - U.values[yf, af]
        for jb, beta in enumerate(A):
            V[i, jb] = math.prod((zc[j] - yc[j]) ** beta[j] for j in range(scaling.d))
    sv = np.linalg.svd(V, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateProbeError(f"probe system is singular (condition {cond:.3g})")
    if np.all(g.imag == 0):
        g = g.real
    nu = np.linalg.solve(V, g)
    residual = float(np.max(np.abs(V @ nu - g)))
    coeffs = {beta: nu[i] for i, beta in enumerate(A)}
    ratios = {beta: float(abs(nu[i])) / dist ** (eta - scaling.degree(beta))
              for i, beta in enumerate(A)}
    return ProbeReport(coeffs, ratios, probes, residual, cond)

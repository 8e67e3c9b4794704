"""Constructive coefficient bounds: absorption weights.

Builds, for the index set of multi-indices up to a degree cutoff, a system of
weights (one scalar per index, one integer per degree level, one integer
vector per index) whose cross terms are dominated by any prescribed fraction
of the diagonal -- the absorption inequality that lets the polynomial
coefficients of a recentered germ increment be bounded one by one.

Every weight is an integer, so every term is a quotient of two integers and
the construction and its exact check compare integers only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ValidationError, VerificationError
from .geometry import MultiIndex, Scaling, count_multi_indices, multi_indices

# Cap on the predicted work of a weight system, checked before its index set
# is enumerated.  With n indices and degree levels 0, g, ..., L g (g the gcd
# of the grading), the largest weight has about L**2 log10(2 (n - 1) / delta)
# digits (in one dimension the weight of degree k is about share**(-k**2));
# the work counts those digits for every index plus five per exact cross
# term, of which there are n**2.
MAX_WEIGHT_WORK = 160_000


def first_differing_component(beta: MultiIndex, gamma: MultiIndex) -> int:
    for j, (b, g) in enumerate(zip(beta, gamma)):
        if b != g:
            return j
    raise ValueError("indices are equal")


def _split(num: int, factors) -> tuple[int, int]:
    """``num * prod w**e`` over the ``(w, e)`` pairs, for integer weights w,
    as an unreduced integer numerator and denominator: each factor goes to
    the numerator or the denominator by the sign of its exponent."""
    den = 1
    for w, e in factors:
        if e > 0:
            num *= w ** e
        elif e < 0:
            den *= w ** -e
    return num, den


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

    def verify(self) -> tuple[bool, float]:
        """Exact check of the absorption inequality; returns the worst ratio
        of cross-term sum against delta times the diagonal.  The system is
        frozen, so the verdict is worked out once and then stored.

        Each sum is kept over a common denominator that grows only by the
        part of a new term's denominator it does not already hold, and every
        comparison is a cross-multiplication of integers."""
        if "_verdict" in self.__dict__:
            return self._verdict
        s = self.scaling.s
        rows = []  # per index: its degree, weights, and the rho entries that are not one
        for b in self.indices:
            level = self.scaling.degree(b)
            rows.append((b, level, self.kappa[b], self.eps_level[level],
                         [(r, j) for j, r in enumerate(self.rho[b]) if r != 1]))
        dn, dd = self.delta.as_integer_ratio()
        worst_num, worst_den = 0, 1
        ok = True
        for g, level_g, kappa_g, _, _ in rows:
            num, den = 0, 1
            for b, level, kappa, eps, rho in rows:
                if b is g:
                    continue
                n, d = _split(kappa, [(eps, level_g - level),
                                      *((r, s[j] * (g[j] - b[j])) for r, j in rho)])
                if d == 1:
                    num += n * den
                    continue
                common = math.gcd(den, d)
                num = num * (d // common) + n * (den // common)
                den *= d // common
            # ratio num / den against delta * kappa[g] = dn * kappa[g] / dd
            num, den = num * dd, den * dn * kappa_g
            if num > den:
                ok = False
            if num * worst_den > worst_num * den:
                worst_num, worst_den = num, den
        object.__setattr__(self, "_verdict", (ok, worst_num / worst_den))
        return self._verdict

    def to_text(self) -> str:
        lines = ["# germcalc weights v1",
                 f"d={self.scaling.d} s={self.scaling.to_text()} eta={self.eta!r} "
                 f"delta={self.delta!r}"]
        for b in self.indices:
            lines.append(
                f"beta={','.join(map(str, b))} kappa={self.kappa[b]} "
                f"eps={self.eps_level[self.scaling.degree(b)]} "
                f"rho={','.join(str(r) for r in self.rho[b])}")
        return "\n".join(lines) + "\n"


def _pow2_at_least(k: int, num: int, den: int) -> int:
    """Least power of two, from ``k`` up, that is at least ``num / den``."""
    while k * den < num:
        k *= 2
    return k


def _int_root_at_least(bound, q: int) -> int:
    """Least integer r >= 1 with r**q >= bound, in exact integer arithmetic.

    Since r**q is an integer, r**q >= bound exactly when r**q >= ceil(bound).
    Newton's iteration on integers, started above the root, falls to the
    floor of the q-th root of that ceiling (bounds reach thousands of digits,
    beyond what a float root can resolve).
    """
    n = math.ceil(bound)
    if n <= 1:
        return 1
    r = 1 << -(-n.bit_length() // q)  # r**q >= 2**bit_length > n
    while True:
        nxt = ((q - 1) * r + n // r ** (q - 1)) // q
        if nxt >= r:
            break
        r = nxt
    return r if r ** q >= n else r + 1


def _root_at_least(r: int, num: int, den: int, q: int) -> int:
    """``max(r, least integer root with root**q >= num / den)``; the root is
    searched only when r itself falls short."""
    if r ** q * den >= num:
        return r
    return _int_root_at_least(-(-num // den), q)


def _weight_work(scaling: Scaling, n: int, eta: float, delta: float) -> float:
    """The predicted work of ``n`` indices up to degree ``eta``."""
    levels = eta // math.gcd(*scaling.s)
    return n * (5 * n + levels ** 2 * math.log10(max(2.0, 2 * (n - 1) / delta)))


def _check_work(scaling: Scaling, eta: float, delta: float) -> None:
    """Refuse a weight system whose predicted work passes ``MAX_WEIGHT_WORK``.
    The work of n indices is at least ``5 n**2``, so the count stops as soon
    as it must pass the cap, and a huge eta is refused before any index is
    counted."""
    n = count_multi_indices(scaling, eta, math.isqrt(MAX_WEIGHT_WORK // 5))
    if _weight_work(scaling, n, eta, delta) > MAX_WEIGHT_WORK:
        raise ValidationError(
            f"--eta {eta:g} is too large for grading {scaling.to_text()} at "
            f"delta {delta:g}: the weights' predicted work passes the cap {MAX_WEIGHT_WORK}")


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

    Every term and every bound is an integer numerator over an integer
    denominator, compared by cross-multiplication.

    In one dimension no two distinct indices share a degree, so the vector
    weights stay identically one.
    """
    if not delta > 0:
        raise ValidationError("delta must be positive")
    _check_work(scaling, eta, delta)
    A = multi_indices(scaling, eta)
    if not A:
        raise ValidationError("empty index set: eta is below every degree")
    d = scaling.d
    s = scaling.s
    n = len(A)
    kappa: dict[MultiIndex, int] = {}
    eps_level: dict[int, int] = {}
    rho: dict[MultiIndex, tuple[int, ...]] = {}
    if n == 1:
        kappa[A[0]] = 1
        eps_level[scaling.degree(A[0])] = 1
        rho[A[0]] = (1,) * d
        return WeightSystem(scaling, eta, delta, tuple(A), kappa, eps_level, rho)

    # share = delta / (n - 1) = share_num / share_den
    share_num, share_den = delta.as_integer_ratio()
    share_den *= n - 1
    deg = {g: scaling.degree(g) for g in A}

    def rho_pow(num: int, b: MultiIndex, g: MultiIndex) -> tuple[int, int]:
        """``num * prod_j rho[b][j]**(s_j (g_j - b_j))``."""
        return _split(num, zip(rho[b], [sj * (gj - bj) for sj, gj, bj in zip(s, g, b)]))

    lower: list[MultiIndex] = []  # the indices of the finished levels
    for level, group in itertools.groupby(A, key=deg.get):
        level_indices = list(group)
        for pos, g in enumerate(level_indices):
            earlier_same = level_indices[:pos]
            # scalar weight: absorb every earlier index's term against g
            k = 1
            for b in lower:
                num, den = rho_pow(kappa[b] * eps_level[deg[b]] ** (level - deg[b])
                                   * share_den, b, g)
                k = _pow2_at_least(k, num, den * share_num)
            for b in earlier_same:
                num, den = rho_pow(kappa[b] * share_den, b, g)
                k = _pow2_at_least(k, num, den * share_num)
            kappa[g] = k if g != A[0] else 1

            # vector weight: shrink g's own terms against earlier same-degree
            rg = [1] * d
            if earlier_same:
                fdc = {b: first_differing_component(b, g) for b in earlier_same}
                for ell in sorted(set(fdc.values()), reverse=True):
                    for b, l0 in fdc.items():
                        if l0 != ell:
                            continue
                        num, den = _split(kappa[g] * share_den,
                                          ((rg[j], s[j] * (b[j] - g[j]))
                                           for j in range(ell + 1, d)))
                        rg[ell] = _root_at_least(rg[ell], num, den * share_num * kappa[b],
                                                 s[ell] * (g[ell] - b[ell]))
            rho[g] = tuple(rg)

        # level scale: absorb the finished level against all lower degrees
        e = 1
        for mu in level_indices:
            for b in lower:
                num, den = rho_pow(kappa[mu] * share_den, mu, b)
                e = _root_at_least(e, num, den * share_num * kappa[b], level - deg[b])
        eps_level[level] = e
        lower += level_indices

    system = WeightSystem(scaling, eta, delta, tuple(A), kappa, eps_level, rho)
    ok, worst = system.verify()
    if not ok:
        raise VerificationError(f"constructed weights fail their own invariant (worst {worst})")
    return system

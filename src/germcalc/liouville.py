"""Brute-force rigidity checks behind the blow-up arguments.

Three computable shadows of the Liouville-type classification: the polynomial
kernel of a difference operator at a degree cutoff and nonsingularity of the
centered-derivative system on polynomials, both decided exactly by one
falling-factorial calculus in lattice units, and a search for nonzero
dual-torus symbol zeros, each certified by constructing the corresponding
bounded exponential solution.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .discrete_ops import DiffOperator, apply_to_field, lattice_symbol_zeros
from .errors import ValidationError
from .geometry import MultiIndex, Scaling, count_multi_indices, multi_indices
from .germs import Window

#: Cap on the monomials of a polynomial kernel, checked before they are listed;
#: every preset in one to five dimensions takes about 2 s or less at the cap.
MAX_KERNEL_MONOMIALS = 500


@dataclass(frozen=True)
class KernelBasis:
    """Null-space basis of an operator acting on polynomials up to a degree.

    Basis vectors are coefficient rows over the falling-factorial monomials
    listed in ``gammas`` (degree-lex order).
    """

    operator: DiffOperator
    eps: float
    eta: float
    gammas: tuple[MultiIndex, ...]
    vectors: np.ndarray  # (dim, len(gammas))

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]


class _GaussInt(NamedTuple):
    """A Gaussian integer, for the action rows of a complex operator; real
    operators use ``int``, which has the same ``real``, ``imag`` and
    ``conjugate``.  A ``_GaussInt`` is the left operand of every sum."""

    real: int
    imag: int

    def __mul__(self, o):
        return _GaussInt(self.real * o.real - self.imag * o.imag,
                         self.real * o.imag + self.imag * o.real)

    __rmul__ = __mul__

    def __add__(self, o):
        return _GaussInt(self.real + o.real, self.imag + o.imag)

    def __bool__(self):
        return bool(self.real or self.imag)

    def __floordiv__(self, k: int):
        return _GaussInt(self.real // k, self.imag // k)

    def conjugate(self):
        return _GaussInt(self.real, -self.imag)


def _integer_terms(L: DiffOperator):
    """The operator's terms with their coefficients over one common
    denominator: Gaussian integers, or plain integers when all are real."""
    parts = [(Fraction(a.real), Fraction(a.imag)) for _, _, a in L.terms]
    den = math.lcm(*(x.denominator for pair in parts for x in pair))
    real = all(im == 0 for _, im in parts)
    return [(g, b, int(re * den) if real else _GaussInt(int(re * den), int(im * den)))
            for (g, b, _), (re, im) in zip(L.terms, parts)]


def _axis_image(n: int, b: int, r: int) -> list[tuple[int, int]]:
    """``Delta^r k^(n)`` shifted down by b, on one axis, in falling factorials:
    ``n!/(n-r)! (k-b)^(q)`` with ``q = n - r`` and, by Vandermonde's identity,
    ``(k-b)^(q) = sum_i C(q, i) (-b)^(q-i) k^(i)``; (power, integer) pairs."""
    out, q, c = [], n - r, math.perm(n, r)
    for t in range(q + 1):  # c = n!/(n-r)! C(q, t) (-b)^(t), at power q - t
        if not c:
            break
        out.append((q - t, c))
        c = c * (q - t) * (-b - t) // (t + 1)
    return out


def _action_rows(terms, gammas) -> dict[MultiIndex, dict]:
    """The action of ``sum c D^g Dbar^b`` on the falling factorials
    ``k^(gamma)`` in lattice units, where ``D^g Dbar^b`` is ``Delta^(g+b)``
    shifted down by b: a sparse row ``{column: coefficient}`` per output."""
    rows: dict[MultiIndex, dict] = {}
    image = functools.cache(_axis_image)
    for col, n in enumerate(gammas):
        for g, b, c in terms:
            axes = [image(nj, bj, gj + bj) for nj, gj, bj in zip(n, g, b)]
            for parts in itertools.product(*axes):
                row = rows.setdefault(tuple(i for i, _ in parts), {})
                row[col] = c * math.prod(v for _, v in parts) + row.get(col, 0)
    return {k: {j: v for j, v in row.items() if v} for k, row in rows.items()}


def _reduce(row: dict, pivot: dict, col: int) -> dict:
    """``row`` with its entry at ``col`` eliminated by cross-multiplying with
    ``pivot``, divided by its integer content."""
    p, x = pivot[col], row[col] * -1
    out = {j: p * v for j, v in row.items()}
    for j, v in pivot.items():
        out[j] = x * v + out.get(j, 0)
    out = {j: v for j, v in out.items() if v}
    content = math.gcd(*[v.real for v in out.values()], *[v.imag for v in out.values()])
    return {j: v // content for j, v in out.items()} if content > 1 else out


def _eliminate(rows: list[dict], n: int) -> dict[int, dict]:
    """Gauss-Jordan elimination of integer (or Gaussian integer) rows over n
    columns, column by column; returns the pivot rows by pivot column, each
    zero at every other pivot column."""
    pivots: dict[int, dict] = {}
    for col in range(n):
        pick = next((i for i, r in enumerate(rows) if col in r), None)
        if pick is not None:
            pivot = rows[pick]
            rows = [_reduce(r, pivot, col) if col in r else r for r in rows if r is not pivot]
            pivots = {c: _reduce(r, pivot, col) if col in r else r for c, r in pivots.items()}
            pivots[col] = pivot
    return pivots


def polynomial_kernel(L: DiffOperator, eps: float, eta: float) -> KernelBasis:
    """Null space of the operator on polynomials of weighted degree <= eta.

    In lattice units ``x_j = k_j eps**s_j`` the monomial ``gamma`` is
    ``eps**|gamma|`` times the integer falling factorial ``k^(gamma)``, and the
    operator is ``eps**-m`` times an eps-free integer stencil.  So the null
    space is exact: one vector per free column f, with entry 1 at f and
    ``-row[f] / row[c]`` at the pivot column c of each row, then column
    ``gamma`` times ``eps**(|f| - |gamma|)``, which keeps the 1 at every eps.
    """
    if eta < 0:
        raise ValueError("degree cutoff must be >= 0")
    scaling = L.scaling
    count = count_multi_indices(scaling, eta, MAX_KERNEL_MONOMIALS)
    if count > MAX_KERNEL_MONOMIALS:
        raise ValidationError(
            f"degree cutoff --eta {eta:g} spans at least {count} monomials; "
            f"at most {MAX_KERNEL_MONOMIALS} are allowed")
    gammas = tuple(multi_indices(scaling, eta))
    degrees = [scaling.degree(g) for g in gammas]
    pivots = _eliminate(list(_action_rows(_integer_terms(L), gammas).values()), len(gammas))
    free = [f for f in range(len(gammas)) if f not in pivots]
    re = np.zeros((len(free), len(gammas)))
    im = np.zeros_like(re)
    for i, f in enumerate(free):
        re[i, f] = 1.0
        for c, r in pivots.items():
            if f in r:
                num, den = r[f] * r[c].conjugate(), (r[c] * r[c].conjugate()).real
                scale = eps ** (degrees[f] - degrees[c])
                re[i, c] = float(Fraction(-num.real, den)) * scale
                im[i, c] = float(Fraction(-num.imag, den)) * scale
    return KernelBasis(L, eps, eta, gammas, re + 1j * im if np.any(im) else re)


def _centered_rows(scaling: Scaling, gammas) -> list[dict]:
    # row i: D^gamma_i of each monomial at the origin, in lattice units
    zero = (0,) * scaling.d
    return [_action_rows([(g, zero, 1)], gammas).get(zero, {}) for g in gammas]


def centered_rigidity_check(scaling: Scaling, eps: float, eta: float) -> bool:
    """True when vanishing centered differences up to degree eta force a
    polynomial of that degree to vanish: every column is a pivot.  The
    lattice-unit rows do not depend on eps."""
    gammas = multi_indices(scaling, eta)
    return len(_eliminate(_centered_rows(scaling, gammas), len(gammas))) == len(gammas)


@dataclass(frozen=True)
class SymbolZero:
    theta: tuple[float, ...]
    symbol_abs: float
    residual_inf: float


def symbol_zero_search(L: DiffOperator, eps: float = 1.0,
                       resolution: int = 64) -> list[SymbolZero]:
    """Nonzero dual-torus points where the lattice symbol vanishes.

    Every zero of ``lattice_symbol_zeros``, one per grid cell of the unit
    torus (cells compared modulo 2 pi, so periodic images count once), at
    grid scale eps and certified by applying the operator to the
    corresponding complex exponential on a window of half-width 8 and
    recording the sup residual; sorted by theta.
    """
    period, cell = 2 * math.pi, 2 * math.pi / resolution
    seen, records = [], []
    for v, theta in lattice_symbol_zeros(L, resolution):
        gaps = (np.abs(np.subtract(theta, t)) for t in seen)
        if theta is None or any(np.all(np.minimum(g, period - g) <= cell) for g in gaps):
            continue
        seen.append(theta)
        theta = tuple(t * eps ** -s for t, s in zip(theta, L.scaling.s))
        records.append(SymbolZero(theta, v * eps ** -L.order, _exponential_residual(L, eps, theta)))
    records.sort(key=lambda z: z.theta)
    return records


def _exponential_residual(L: DiffOperator, eps: float, theta) -> float:
    win = Window(L.scaling, eps, (-8,) * L.d, (8,) * L.d)
    f = np.exp(1j * win.coords() @ np.asarray(theta, dtype=float)).reshape(win.shape)
    vals, _ = apply_to_field(L, f, win)
    return float(np.max(np.abs(vals)))


def kernel_basis_to_text(basis: KernelBasis) -> str:
    lines = ["# germcalc kernel-basis v1",
             f"d={basis.operator.d} s={basis.operator.scaling.to_text()} eps={basis.eps!r} "
             f"eta={basis.eta!r} dim={basis.dimension}",
             "# monomials: " + " | ".join(",".join(map(str, g)) for g in basis.gammas)]
    for row in basis.vectors:
        if np.iscomplexobj(row):  # operators with complex coefficients
            lines.append(",".join("%.17g%+.17gj" % (x.real, x.imag) for x in row))
        else:
            lines.append(",".join("%.17g" % float(x) for x in row))
    return "\n".join(lines) + "\n"

"""Brute-force rigidity checks behind the blow-up arguments.

Three computable shadows of the Liouville-type classification: the polynomial
kernel of a difference operator at a degree cutoff (null-space linear
algebra), nonsingularity of the centered-derivative system on polynomials
(triangular in the falling-factorial basis), and a search for nonzero
dual-torus symbol zeros, each certified by constructing the corresponding
bounded exponential solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete_ops import DiffOperator, apply_to_field, dual_torus_bounds, lattice_symbol_zeros
from .errors import ValidationError, VerificationError
from .geometry import MultiIndex, Scaling, multi_indices
from .germs import (MAX_POINTS_PER_AXIS, Window, difference_coefficients, falling_factorial,
                    jet_margins)

_SVD_CUTOFF = 1e-10


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

    def evaluate(self, vector_idx: int, pts: np.ndarray) -> np.ndarray:
        """Evaluate one kernel element at physical lattice points."""
        offsets = np.atleast_2d(pts).T
        steps = [self.eps ** s for s in self.operator.scaling.s]
        out = np.zeros(offsets.shape[1], dtype=complex)
        for c, g in zip(self.vectors[vector_idx], self.gammas):
            if c != 0:
                out = out + c * falling_factorial(offsets, steps, g)
        return out

    def contains(self, coeffs) -> bool:
        """Whether a coefficient vector lies in the span of the basis, to a
        relative residual of 1e-8."""
        v = np.asarray(coeffs, dtype=complex)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return True
        if self.dimension == 0:
            return False
        sol, *_ = np.linalg.lstsq(self.vectors.T, v, rcond=None)
        return bool(np.linalg.norm(self.vectors.T @ sol - v) <= 1e-8 * nrm)


def _determination_hi(L: DiffOperator, eta: float) -> tuple[int, ...]:
    # Upper corner of the determination window (the lower one is the origin).
    # A polynomial of weighted degree <= eta is pinned down by its jet stencil
    # plus one point per axis; the operator stencil consumes f_j + b_j points,
    # and the room left for it, at least m + 1, keeps them all.
    fwd, bwd = L.stencil_reach()
    return tuple(r + max(L.order + 1, f + b)
                 for r, f, b in zip(jet_margins(L.scaling, eta), fwd, bwd))


def _monomial_fields(gammas, win: Window) -> list[np.ndarray]:
    offsets = win.coords().T
    return [falling_factorial(offsets, win.steps, g).reshape(win.shape) for g in gammas]


def polynomial_kernel(L: DiffOperator, eps: float, eta: float) -> KernelBasis:
    """Null space of the operator on polynomials of weighted degree <= eta.

    The action of a homogeneous operator on a polynomial is again a
    polynomial, so vanishing on the determination window forces vanishing
    everywhere.  Singular values up to the round-off of the stencil sums,
    ``coeff_scale * eps**-m`` times the largest monomial value on the window,
    count as zero; the largest singular value is no scale for this, as it is
    itself round-off when every monomial is annihilated.
    """
    if eta < 0:
        raise ValueError("degree cutoff must be >= 0")
    scaling = L.scaling
    hi = _determination_hi(L, eta)
    # the annihilation check pads the determination window by one point a side
    points = max(hi) + 3
    if points > MAX_POINTS_PER_AXIS:
        raise ValidationError(
            f"degree cutoff --eta {eta:g} needs a determination window of {points} points "
            f"on an axis with its check margin; at most {MAX_POINTS_PER_AXIS} points are allowed")
    win = Window(scaling, eps, (0,) * scaling.d, hi)
    gammas = tuple(multi_indices(scaling, eta))
    fields = _monomial_fields(gammas, win)
    cols = []
    for f in fields:
        vals, _ = apply_to_field(L, f, win)
        cols.append(np.asarray(vals, dtype=complex).ravel())
    cutoff = (_SVD_CUTOFF * L.coeff_scale() * eps ** (-L.order)
              * max(float(np.max(np.abs(f))) for f in fields))
    A = np.stack(cols, axis=1)
    if np.iscomplexobj(A) and np.all(A.imag == 0):
        A = A.real
    # null vectors of A are the conjugated rows of Vh (A = U S Vh)
    U_, sv, Vh = np.linalg.svd(A, full_matrices=True)
    smax = sv[0] if sv.size else 0.0
    if smax == 0:
        vectors = np.eye(len(gammas))
    else:
        null_rows = [Vh[i].conj() for i in range(Vh.shape[0])
                     if i >= sv.size or sv[i] <= cutoff]
        vectors = (np.stack(null_rows) if null_rows
                   else np.zeros((0, len(gammas))))
    basis = KernelBasis(L, eps, eta, gammas, vectors)
    _verify_annihilated(basis)
    return basis


def _verify_annihilated(basis: KernelBasis, tol: float = 1e-10) -> None:
    L = basis.operator
    test = Window(L.scaling, basis.eps, (-1,) * L.d,
                  tuple(h + 1 for h in _determination_hi(L, basis.eta)))
    for i in range(basis.dimension):
        f = basis.evaluate(i, test.coords()).reshape(test.shape)
        if np.all(f.imag == 0):
            f = f.real
        vals, _ = apply_to_field(L, f, test)
        scale = max(1.0, float(np.max(np.abs(f))))
        resid = float(np.max(np.abs(vals)))
        if resid > tol * scale:
            raise VerificationError(f"kernel element {i} is not annihilated on the test window "
                                    f"(residual {resid / scale:.2g} of its scale > {tol:g})")


def rigidity_matrix(scaling: Scaling, eps: float, eta: float) -> np.ndarray:
    """Matrix of centered forward-difference values: entry (i, j) is
    D^gamma_i applied to the j-th falling-factorial monomial, at the origin."""
    gammas = multi_indices(scaling, eta)
    win = Window(scaling, eps, (0,) * scaling.d,
                 tuple(max(r, 0) for r in jet_margins(scaling, eta)))
    origin = Window(scaling, eps, (0,) * scaling.d, (0,) * scaling.d)
    T = np.zeros((len(gammas), len(gammas)))
    for j, f in enumerate(_monomial_fields(gammas, win)):
        coeffs = difference_coefficients(f, win, gammas, origin)
        T[:, j] = [coeffs[g][0] for g in gammas]
    return T


def centered_rigidity_check(scaling: Scaling, eps: float, eta: float) -> bool:
    """True when vanishing centered differences up to degree eta force a
    polynomial of that degree to vanish (the system is nonsingular)."""
    T = rigidity_matrix(scaling, eps, eta)
    sv = np.linalg.svd(T, compute_uv=False)
    return bool(sv.size and sv[-1] > _SVD_CUTOFF * sv[0])


@dataclass(frozen=True)
class SymbolZero:
    theta: tuple[float, ...]
    symbol_abs: float
    residual_inf: float


def symbol_zero_search(L: DiffOperator, eps: float = 1.0,
                       resolution: int = 64) -> list[SymbolZero]:
    """Nonzero dual-torus points where the lattice symbol vanishes.

    Every zero of ``lattice_symbol_zeros``, one per grid cell of the torus
    (cells compared modulo the resolution, so periodic images count once),
    each certified by applying the operator to the corresponding complex
    exponential on a window of half-width 8 and recording the sup residual;
    sorted by theta.
    """
    period = 2 * np.array(dual_torus_bounds(L.scaling, eps))
    cell = period / resolution
    records: list[SymbolZero] = []
    for v, theta in lattice_symbol_zeros(L, eps, resolution):
        gaps = (np.abs(np.subtract(theta, z.theta)) for z in records)
        if theta is None or any(np.all(np.minimum(g, period - g) <= cell) for g in gaps):
            continue
        records.append(SymbolZero(theta, v, _exponential_residual(L, eps, theta)))
    records.sort(key=lambda z: z.theta)
    return records


def _exponential_residual(L: DiffOperator, eps: float, theta) -> float:
    win = Window(L.scaling, eps, (-8,) * L.d, (8,) * L.d)
    f = np.exp(1j * win.coords() @ np.asarray(theta, dtype=float)).reshape(win.shape)
    vals, _ = apply_to_field(L, f, win)
    return float(np.max(np.abs(vals)))


def kernel_basis_to_text(basis: KernelBasis) -> str:
    s = ",".join(str(x) for x in basis.operator.scaling.s)
    lines = ["# germcalc kernel-basis v1",
             f"d={basis.operator.d} s={s} eps={basis.eps!r} eta={basis.eta!r} "
             f"dim={basis.dimension}",
             "# monomials: " + " | ".join(",".join(map(str, g)) for g in basis.gammas)]
    for row in basis.vectors:
        if np.iscomplexobj(row):  # operators with complex coefficients
            lines.append(",".join("%.17g%+.17gj" % (x.real, x.imag) for x in row))
        else:
            lines.append(",".join("%.17g" % float(x) for x in row))
    return "\n".join(lines) + "\n"

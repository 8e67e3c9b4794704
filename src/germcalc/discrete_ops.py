"""Constant-coefficient difference operators and their Fourier symbols.

Operators are finite sums ``a[gamma, delta] D^gamma Dbar^delta`` of forward
and backward differences, scaling-homogeneous of a fixed weighted order.
Alongside application to fields and germs, this module evaluates the lattice
(dual-torus) and continuum symbols and classifies ellipticity by symbol
scans, which run on the eps-1 lattice symbol over the unit torus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._nelder_mead import nelder_mead
from .errors import DimensionError, ValidationError
from .geometry import MultiIndex, Scaling
from .germs import (DistGerm, Germ, Window, _key_values, _line_errors, _number, _text_rows,
                    forward_differences)

Term = tuple[MultiIndex, MultiIndex, complex]


@dataclass(frozen=True)
class DiffOperator:
    """Sum of mixed forward/backward difference monomials, homogeneous of
    weighted order ``|gamma| + |delta| = m``."""

    scaling: Scaling
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("operator needs at least one term")
        canon: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        orders = set()
        for g, dl, a in self.terms:
            g = tuple(int(x) for x in g)
            dl = tuple(int(x) for x in dl)
            self.scaling.check_dim(g)
            self.scaling.check_dim(dl)
            orders.add(self.scaling.degree(g) + self.scaling.degree(dl))
            canon[(g, dl)] = canon.get((g, dl), 0j) + complex(a)
        if len(orders) != 1:
            raise ValidationError(f"terms are not scaling-homogeneous: orders {sorted(orders)}")
        canon = {k: v for k, v in canon.items() if v != 0}
        if not canon:
            raise ValidationError("operator has no nonzero coefficient")
        object.__setattr__(self, "terms",
                           tuple((g, dl, canon[(g, dl)]) for g, dl in sorted(canon)))
        object.__setattr__(self, "_order", orders.pop())

    @property
    def order(self) -> int:
        return self._order

    @property
    def d(self) -> int:
        return self.scaling.d

    def stencil_reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(forward, backward) reach per axis over all terms."""
        fwd = [0] * self.d
        bwd = [0] * self.d
        for g, dl, _ in self.terms:
            for j in range(self.d):
                fwd[j] = max(fwd[j], g[j])
                bwd[j] = max(bwd[j], dl[j])
        return tuple(fwd), tuple(bwd)

    def coeff_scale(self) -> float:
        return float(sum(abs(a) for _, _, a in self.terms))


def make_operator(scaling: Scaling, terms: dict) -> DiffOperator:
    return DiffOperator(scaling, tuple((g, dl, a) for (g, dl), a in terms.items()))


# ---------------------------------------------------------------------------
# application to fields and germs


def apply_to_field(L: DiffOperator, f: np.ndarray, window: Window):
    """Apply the operator to a field; returns (values, shrunk window).

    Forward differences consume points at the upper window edge, backward
    differences at the lower edge.
    """
    if window.scaling != L.scaling:
        raise DimensionError("operator and window disagree on scaling")
    f = np.asarray(f)
    if f.shape != window.shape:
        raise DimensionError(f"field shape {f.shape} != window shape {window.shape}")
    return _apply_stencils(L, f, window, 0)


def apply_to_germ(L: DiffOperator, U: Germ) -> DistGerm:
    """Apply the operator to the active variable, base point fixed."""
    vals = U.values.reshape((U.base.npoints,) + U.active.shape)
    out, out_win = _apply_stencils(L, vals, U.active, 1)
    return DistGerm(U.base, out_win, out.reshape(U.base.npoints, out_win.npoints))


def _apply_stencils(L: DiffOperator, arr: np.ndarray, window: Window, lead: int):
    """The operator along the window axes of ``arr``, which follow ``lead``
    untouched axes; returns (values, shrunk window)."""
    fwd, bwd = L.stencil_reach()
    out_win = window.shrink(lo_margin=bwd, hi_margin=fwd)
    out = np.zeros(arr.shape[:lead] + out_win.shape, dtype=complex)
    for g, dl, a in L.terms:
        # D^g Dbar^dl is D^(g + dl) shifted down by dl: entry i sits at lattice
        # index lo + dl + i.  One evaluator per term, since a shared one would
        # keep every term's chain of tables alive until the last term
        diff = forward_differences(arr, window, lead)(tuple(p + q for p, q in zip(g, dl)))
        sel = (slice(None),) * lead + tuple(
            slice(bwd[j] - dl[j], bwd[j] - dl[j] + out_win.shape[j]) for j in range(L.d))
        out += a * diff[sel]
    if np.all(out.imag == 0):
        out = out.real
    return out, out_win


# ---------------------------------------------------------------------------
# symbols


def _frequency_columns(L: DiffOperator, freq):
    """Per-axis components of the frequencies and a zero accumulator.

    A single point (1-D input) gives Python floats and ``0j``: the symbol
    loops then run on Python ``complex`` values, which for the one-point
    calls of the Nelder-Mead refinements costs a small fraction of numpy's
    per-call overhead on length-1 arrays.  A batch gives array columns and a
    zero array.
    """
    freq = np.asarray(freq, dtype=float)
    if freq.ndim == 1:
        if freq.shape[0] != L.d:
            raise DimensionError("frequency must have d components")
        return freq.tolist(), 0j
    F = np.atleast_2d(freq)
    if F.shape[-1] != L.d:
        raise DimensionError("frequency must have d components")
    return F.T, np.zeros(F.shape[0], dtype=complex)


def continuum_symbol(L: DiffOperator, xi) -> complex | np.ndarray:
    """Polynomial symbol ``sum a (i xi)**(gamma + delta)``."""
    X, out = _frequency_columns(L, xi)
    for g, dl, a in L.terms:
        term = complex(a)
        for j in range(L.d):
            n = g[j] + dl[j]
            if n:
                term = term * (1j * X[j]) ** n
        out += term
    return out


def discrete_symbol(L: DiffOperator, eps: float, theta) -> complex | np.ndarray:
    """Dual-torus symbol at grid scale eps: ``eps**-m sigma_1(theta_j eps**s_j)``,
    where the eps-1 symbol sigma_1 is built from the forward/backward
    difference factors ``exp(i theta_j) - 1`` and ``1 - exp(-i theta_j)``."""
    T, out = _frequency_columns(L, theta)
    T = [t * eps ** s for t, s in zip(T, L.scaling.s)]
    if isinstance(out, complex):
        return eps ** -L.order * _symbol_function(L)(T)
    return eps ** -L.order * _symbol_function(L, np.exp)(T, out)


def _symbol_function(L: DiffOperator, exp=cmath.exp):
    """The eps-1 lattice symbol as a function of the per-axis frequency
    components.

    Each term's exponents are worked out once per operator.  With
    ``cmath.exp`` the function takes d Python floats and returns a Python
    ``complex``, which the Nelder-Mead refinements call once per point; with
    ``np.exp`` it takes array columns and adds into the zero array ``out``.
    Both run the same complex operations in the same order.
    """
    terms = [(complex(a), [(j, g[j], dl[j]) for j in range(L.d) if g[j] or dl[j]])
             for g, dl, a in L.terms]

    def symbol(theta, out=0j):
        fwd = []
        bwd = []
        for t in theta:
            fwd.append(exp(1j * t) - 1.0)
            bwd.append(1.0 - exp(-1j * t))
        for term, powers in terms:
            for j, p, q in powers:
                if p:
                    term = term * fwd[j] ** p
                if q:
                    term = term * bwd[j] ** q
            out += term
        return out
    return symbol


def fft_symbol_grid(L: DiffOperator, eps: float, shape: tuple[int, ...]) -> np.ndarray:
    """Discrete symbol at grid scale eps on the FFT frequency grid of a
    periodized window: ``eps**-m sigma_1`` at ``2 pi fftfreq(N)`` per axis."""
    mesh = np.meshgrid(*(2 * math.pi * np.fft.fftfreq(N) for N in shape), indexing="ij")
    T = np.stack([m.ravel() for m in mesh], axis=1)
    return discrete_symbol(L, 1.0, T).reshape(shape) * eps ** -L.order


# ---------------------------------------------------------------------------
# ellipticity classification


@dataclass(frozen=True)
class EllipticityReport:
    """Scan-certified verdict; 'elliptic' claims hold up to the reported
    resolution, zeros found are certified by direct evaluation."""

    verdict: str                      # combined: elliptic | not-elliptic | inconclusive
    continuum_verdict: str
    discrete_verdict: str
    continuum_margin: float
    discrete_margin: float
    continuum_witness: tuple[float, ...] | None
    discrete_witness: tuple[float, ...] | None
    resolution: int
    notes: str = ""


def _sphere_samples(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = []
    golden = math.pi * (3 - math.sqrt(5))
    for i in range(n):
        z = 1 - 2 * (i + 0.5) / n
        r = math.sqrt(max(0.0, 1 - z * z))
        pts.append([r * math.cos(golden * i), r * math.sin(golden * i), z])
    return np.asarray(pts)


def continuum_symbol_scan(L: DiffOperator, samples: int = 1000):
    """(min |symbol| on the unit sphere, argmin direction); homogeneity makes
    sphere sampling exhaustive along anisotropic rays."""
    pts = _sphere_samples(L.d, samples)
    vals = np.abs(continuum_symbol(L, pts))
    i = int(np.argmin(vals))
    best, wit = float(vals[i]), pts[i]
    if L.d > 1:
        def norm(u):  # exactly summed squares, so no BLAS kernel sets the rounding
            return math.sqrt(math.fsum(x * x for x in u))

        def obj(u):
            nrm = norm(u)
            if nrm < 1e-12:
                return 1e300
            return abs(continuum_symbol(L, [x / nrm for x in u]))
        x, fun, _ = nelder_mead(obj, wit, xatol=1e-14, fatol=1e-28, maxiter=600)
        if fun < best:
            best = float(fun)
            wit = np.asarray(x) / norm(x)
    return best, tuple(float(x) for x in wit)


#: Largest dual-torus scan grid: four times the largest documented scan (3D at 64).
MAX_SCAN_POINTS = 2 ** 20


def _refined_minima(L: DiffOperator, starts, floor: float = -math.inf):
    """Nelder-Mead minimisations of |eps-1 lattice symbol|^2 inside the unit
    torus box ``[-pi, pi]^d``, one per start, run only as the caller asks
    for them; yields (|symbol| at the minimiser, minimiser).

    The search is the Python-float port of scipy's bounded Nelder-Mead in
    ``_nelder_mead`` on the one-point symbol of ``_symbol_function``, so it
    returns what ``scipy.optimize.minimize`` on ``discrete_symbol`` at eps 1
    returns, bit for bit, without numpy's per-step overhead on a 2-4 point
    simplex.  A positive ``floor`` stops a run at the first iteration whose
    best value is below ``floor**2``; the runs it does not stop are still
    scipy's, bit for bit.
    """
    symbol = _symbol_function(L)
    hi = (math.pi,) * L.d
    lo = (-math.pi,) * L.d
    fstop = floor * floor if floor > 0 else -math.inf
    for start in starts:
        x, fun, _ = nelder_mead(lambda t: abs(symbol(t)) ** 2, start, lo, hi,
                                xatol=1e-13, fatol=1e-300, maxiter=800, fstop=fstop)
        yield math.sqrt(max(fun, 0.0)), np.asarray(x)


def _symbol_floor(L: DiffOperator, axis, vals: np.ndarray, half, near) -> float:
    """A certified lower bound on the eps-1 lattice symbol's modulus over
    every grid cell that reaches outside the origin box of half-width
    ``near``; the cells are centred at the points of the grid with
    coordinates ``axis`` on every axis, where |symbol| is ``vals`` (``ij``
    order), and have half-width ``half``.

    Each difference factor, forward or backward, has modulus at most
    ``min(2, |theta|)`` and a theta-derivative of modulus 1.  So on a cell
    the partial derivative along axis j is at most ``G_j = sum_terms |a| n_j
    F_j^(n_j-1) prod_(k != j) F_k^n_k``, with ``n = gamma + delta`` and
    ``F_k = min(2, |theta_k| + half)``, and ``|symbol| >= |symbol(centre)| -
    sum_j G_j half`` there.  ``F_k`` depends on axis k only, so the bounds
    are built from per-axis factors.  The least bound, less a rounding
    allowance of ``2e-12 * max(1, sum |a| 2^|n|)``, is returned.
    """
    F = np.ix_(*[np.minimum(2.0, np.abs(axis) + half)] * L.d)
    # a cell reaches outside the box when it does so along some axis
    reach = reduce(np.maximum, np.ix_(*[np.abs(axis) + half - near] * L.d)) > 0
    slope, top = 0.0, 0.0
    for g, dl, a in L.terms:
        n = [p + q for p, q in zip(g, dl)]
        for j in range(L.d):
            if n[j]:
                slope = slope + abs(a) * n[j] * half * math.prod(
                    f ** (nk - (k == j)) for k, (f, nk) in enumerate(zip(F, n)))
        top += abs(a) * 2.0 ** sum(n)
    lower = vals.reshape(reach.shape) - slope
    return float(np.min(lower[reach])) - 2e-12 * max(1.0, top)


def lattice_symbol_zeros(L: DiffOperator, resolution: int):
    """Nonzero zeros of the eps-1 lattice symbol on the unit torus, refined
    one at a time as the caller asks for them.

    ``sigma_eps(theta) = eps**-m sigma_1(theta_j eps**s_j)``, so nothing
    here depends on eps: callers rescale.  The symbol always vanishes at the
    origin, so a box of ``max(1, resolution/16)`` cells per axis around it is
    left out of the grid.  The 16 lowest grid values outside the box, in
    ``np.argsort`` order, start the refinements; a minimiser in the box is
    the trivial zero and is dropped.  A refinement whose best value falls
    below the certified floor of ``_symbol_floor`` can only end in the box,
    so it is stopped there.  Yields ``(|symbol|, theta)`` for each minimiser
    with ``|symbol| <= 1e-12 * max(1, coeff_scale)``, in start order, with
    theta wrapped into ``[-pi, pi)``; then ``(least, None)``: the least
    |symbol| seen outside the box, on the grid or at a minimiser.
    """
    if resolution < 8:
        raise ValidationError("resolution must be at least 8 per axis")
    if resolution ** L.d > MAX_SCAN_POINTS:
        raise ValidationError(f"resolution {resolution} gives {resolution ** L.d} scan points "
                              f"in {L.d}D; at most {MAX_SCAN_POINTS} are allowed")
    axis = -math.pi + 2 * math.pi * np.arange(resolution) / resolution
    T = np.stack(np.meshgrid(*[axis] * L.d, indexing="ij"), axis=-1).reshape(-1, L.d)
    vals = np.abs(discrete_symbol(L, 1.0, T))
    # half-width of the box around the origin
    near = max(1.0, resolution / 16) * (2 * math.pi / resolution) + 1e-15
    floor = _symbol_floor(L, axis, vals, math.pi / resolution, near)
    outside = ~np.all(np.abs(T) <= near, axis=1)
    T, vals = T[outside], vals[outside]
    least = float(np.min(vals))
    tol = 1e-12 * max(1.0, L.coeff_scale())
    for v, x in _refined_minima(L, T[np.argsort(vals)[:16]], floor):
        # the minimiser lies in [-pi, pi]; +pi is the torus point -pi
        theta = tuple(float(t - 2 * math.pi if t >= math.pi else t) for t in x)
        if all(abs(t) <= near for t in theta):
            continue
        least = min(least, v)
        if v <= tol:
            yield v, theta
    yield least, None


def is_discretely_elliptic(L: DiffOperator, eps: float = 1.0,
                           resolution: int = 64) -> EllipticityReport:
    """Classify by scanning both symbols.

    The lattice verdict is "not-elliptic" at the first zero of
    ``lattice_symbol_zeros``, the witness; without one, the least |symbol|
    seen outside the origin box is the margin; both are rescaled to grid
    scale eps.  The continuum symbol is scanned on a direction sphere.  The
    combined verdict needs both clean.
    """
    d_min, d_wit = next(lattice_symbol_zeros(L, resolution))

    c_min, c_wit = continuum_symbol_scan(L, samples=max(1000, resolution ** 2 // 4))
    c_scale = L.coeff_scale()
    if c_min <= 1e-12 * max(1.0, c_scale):
        c_verdict = "not-elliptic"
    elif c_min > 1e-6 * max(1.0, c_scale):
        c_verdict = "elliptic"
    else:
        c_verdict = "inconclusive"

    if d_wit is not None:
        d_verdict = "not-elliptic"
        d_wit = tuple(t * eps ** -s for t, s in zip(d_wit, L.scaling.s))
    elif d_min > 1e-6 * max(1.0, c_scale):
        d_verdict = "elliptic"
    else:
        d_verdict = "inconclusive"

    if c_verdict == "not-elliptic" or d_verdict == "not-elliptic":
        verdict = "not-elliptic"
    elif c_verdict == "elliptic" and d_verdict == "elliptic":
        verdict = "elliptic"
    else:
        verdict = "inconclusive"
    notes = ""
    if c_verdict == "not-elliptic":
        notes = "continuum symbol (near-)vanishes away from the origin"
    elif d_verdict == "not-elliptic":
        notes = "lattice symbol vanishes at a nonzero dual point"
    return EllipticityReport(verdict, c_verdict, d_verdict,
                             float(c_min), d_min * eps ** -L.order,
                             c_wit if c_verdict == "not-elliptic" else None,
                             d_wit, resolution, notes)


# ---------------------------------------------------------------------------
# presets and the operator interchange format

PRESETS = ("laplacian", "heat", "cauchy-riemann", "eps-degenerate")


def preset_operator(name: str, d: int = 2) -> DiffOperator:
    """Named operators used throughout: the nearest-neighbor Laplacian, a
    backward-in-time heat discretization, the forward Cauchy-Riemann
    realization, and the first-order combination whose continuum symbol
    vanishes identically."""
    name = name.lower()
    if name == "laplacian":
        s = Scaling((1,) * d)
        terms = {( _e(j, d), _e(j, d)): 1.0 for j in range(d)}
        return make_operator(s, terms)
    if name == "heat":
        if d < 2:
            raise ValidationError("heat operator needs a time axis plus space")
        s = Scaling((2,) + (1,) * (d - 1))
        terms = {((0,) * d, _e(0, d)): 1.0}
        for j in range(1, d):
            terms[(_e(j, d), _e(j, d))] = -1.0
        return make_operator(s, terms)
    if name == "cauchy-riemann":
        if d != 2:
            raise ValidationError("cauchy-riemann preset is two-dimensional")
        s = Scaling((1, 1))
        return make_operator(s, {(_e(0, 2), (0, 0)): 0.5, (_e(1, 2), (0, 0)): 0.5j})
    if name == "eps-degenerate":
        s = Scaling((1,) * d)
        terms = {}
        for j in range(d):
            terms[(_e(j, d), (0,) * d)] = 1.0
            terms[((0,) * d, _e(j, d))] = -1.0
        return make_operator(s, terms)
    raise ValidationError(f"unknown preset {name!r}; choose from {PRESETS}")


def _e(j: int, d: int) -> MultiIndex:
    return tuple(1 if i == j else 0 for i in range(d))


def operator_to_text(L: DiffOperator) -> str:
    lines = [f"# germcalc operator v1",
             f"d={L.d} s={L.scaling.to_text()} m={L.order}"]
    for g, dl, a in L.terms:
        lines.append(f"gamma={','.join(map(str, g))} delta={','.join(map(str, dl))} "
                     f"re={a.real!r} im={a.imag!r}")
    return "\n".join(lines) + "\n"


def operator_from_text(text: str) -> DiffOperator:
    """Parse ``operator_to_text`` output; malformed text raises
    ValidationError naming the offending line."""
    rows = _text_rows(text, "operator")
    no, head = rows[0]
    with _line_errors(lambda: f"operator header (line {no})"):
        fields = _key_values(head)
        scaling = Scaling.from_text(fields["s"])
        m = int(fields["m"])
    terms = {}
    with _line_errors(lambda: f"operator line {no}"):
        for no, ln in rows[1:]:
            kv = _key_values(ln)
            g = tuple(int(x) for x in kv["gamma"].split(","))
            dl = tuple(int(x) for x in kv["delta"].split(","))
            scaling.degree(g)
            scaling.degree(dl)
            terms[(g, dl)] = terms.get((g, dl), 0j) + _number(kv["re"]) + 1j * _number(kv["im"])
    L = make_operator(scaling, terms)
    if m != L.order:
        raise ValidationError(f"header order m={m} does not match terms (m={L.order})")
    return L


def load_operator(path) -> DiffOperator:
    with open(path, encoding="utf-8") as fh:
        return operator_from_text(fh.read())


def resolve_operator(operator_file, preset, d: int) -> DiffOperator:
    """The operator in ``operator_file`` when one is named, else the preset in ``d`` dimensions."""
    if operator_file:
        return load_operator(operator_file)
    if preset:
        return preset_operator(preset, d=d)
    raise ValidationError("need --preset or --operator-file")

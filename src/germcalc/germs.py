"""Germs tabulated on lattice windows.

A germ is a family of functions, one per base point, evaluated at an active
point.  On a finite window it is stored densely as a (base x active) table.
Base points whose construction stencils would exit the window are excluded
from the base set rather than extrapolated.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryError,
    DimensionError,
    DomainTooSmallError,
    LatticeCompatibilityError,
    ValidationError,
)
from .geometry import MultiIndex, ScaleMap, Scaling, multi_indices

#: Soft cap on window points per axis; dense tables are O(N^2) in the number
#: of window points, so larger windows are refused by default.
MAX_POINTS_PER_AXIS = 33


@dataclass(frozen=True)
class Window:
    """Finite box of lattice indices.

    Index ``k`` sits at physical coordinates ``k[j] * eps**s[j]`` on axis j,
    so the underlying lattice is ``eps**s[1] Z x ... x eps**s[d] Z``.
    """

    scaling: Scaling
    eps: float
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "lo", tuple(int(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(int(x) for x in self.hi))
        self.scaling.check_dim(self.lo)
        self.scaling.check_dim(self.hi)
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"grid scale must be finite and positive, got {self.eps}")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty window: lo={self.lo} hi={self.hi}")
        if any(h - l + 1 > MAX_POINTS_PER_AXIS for l, h in zip(self.lo, self.hi)):
            raise ValidationError(
                f"window exceeds {MAX_POINTS_PER_AXIS} points on an axis; "
                "dense germ tables would be too large")

    @property
    def d(self) -> int:
        return self.scaling.d

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(self.eps ** s for s in self.scaling.s)

    def indices(self) -> np.ndarray:
        """(npoints, d) integer indices in C order; built once, read-only."""
        return self._tables[0]

    def coords(self) -> np.ndarray:
        """(npoints, d) physical coordinates in C order; built once, read-only."""
        return self._tables[1]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(self.lo, self.hi)],
                            indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)
        xyz = idx.astype(float) * np.array(self.steps)[None, :]
        idx.flags.writeable = False
        xyz.flags.writeable = False
        return idx, xyz

    def slice_in(self, outer: "Window") -> tuple[slice, ...]:
        """Slices that cut this window out of an array laid out on ``outer``."""
        return tuple(slice(l - o, h - o + 1) for l, h, o in zip(self.lo, self.hi, outer.lo))

    def flat(self, idx) -> int:
        """Flat position of an index tuple, C order."""
        off = tuple(int(i) - l for i, l in zip(idx, self.lo))
        return int(np.ravel_multi_index(off, self.shape))

    def shrink(self, lo_margin=None, hi_margin=None) -> "Window":
        lo_margin = lo_margin or (0,) * self.d
        hi_margin = hi_margin or (0,) * self.d
        lo = tuple(l + int(m) for l, m in zip(self.lo, lo_margin))
        hi = tuple(h - int(m) for h, m in zip(self.hi, hi_margin))
        if any(l > h for l, h in zip(lo, hi)):
            raise BoundaryError("window too small for the requested margins")
        return Window(self.scaling, self.eps, lo, hi)

    def physical(self, idx) -> np.ndarray:
        """Physical coordinates of one lattice index."""
        return np.asarray(idx, dtype=float) * np.array(self.steps)

    def diameter(self) -> float:
        """Largest anisotropic distance between two window points."""
        return self.scaling.distance(self.physical(self.lo), self.physical(self.hi))

    def ball(self, center_idx, r: float) -> np.ndarray:
        """Flat positions of window points within closed distance r of center."""
        dist = self.scaling.pairwise_distance(self.coords(), self.physical(center_idx))[:, 0]
        return np.nonzero(dist <= r * (1 + 1e-12))[0]

    def ball_fits(self, center_idx, r: float) -> bool:
        """Whether the closed ball's lattice bounding box stays in the window."""
        for j, (st, s) in enumerate(zip(self.steps, self.scaling.s)):
            reach = int(math.floor((r ** s) / st + 1e-12))
            if center_idx[j] - reach < self.lo[j] or center_idx[j] + reach > self.hi[j]:
                return False
        return True


@dataclass(frozen=True)
class Germ:
    """Dense germ table over a base window and an active window."""

    base: Window
    active: Window
    values: np.ndarray  # (base.npoints, active.npoints)

    def __post_init__(self):
        if self.base.scaling != self.active.scaling:
            raise DimensionError("base and active windows disagree on scaling")
        if self.base.eps != self.active.eps:
            raise LatticeCompatibilityError("base and active windows disagree on eps")
        v = np.asarray(self.values)
        if v.shape != (self.base.npoints, self.active.npoints):
            raise DimensionError(
                f"values shape {v.shape} does not match windows "
                f"({self.base.npoints}, {self.active.npoints})")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("germ values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def scaling(self) -> Scaling:
        return self.base.scaling

    @property
    def eps(self) -> float:
        return self.base.eps

    @cached_property
    def distances(self) -> np.ndarray:
        """(base, active) table of d(x, y); built once, read-only."""
        D = self.scaling.pairwise_distance(self.base.coords(), self.active.coords())
        D.flags.writeable = False
        return D

    def __add__(self, other: "Germ") -> "Germ":
        if self.base != other.base or self.active != other.active:
            raise DimensionError("germ windows do not match")
        return type(self)(self.base, self.active, self.values + other.values)

    def __mul__(self, c) -> "Germ":
        return type(self)(self.base, self.active, self.values * c)

    __rmul__ = __mul__


class DistGerm(Germ):
    """Germ read against the discrete pairing (a distribution per base point)."""


def jet_margins(scaling: Scaling, order: float) -> tuple[int, ...]:
    """Forward-stencil reach per axis for degree <= order differences."""
    return tuple(int(math.floor(order / s + 1e-12)) for s in scaling.s)


def forward_differences(arr: np.ndarray, window: Window, lead: int):
    """``D(gamma)``: the memoised table of ``D^gamma arr`` along the window
    axes that follow ``lead`` untouched axes of ``arr``.

    Each table is one forward difference of ``D(gamma - e_j)`` along the last
    axis j that gamma uses, so axis 0 is differenced first.  Entry i sits at
    lattice index ``window.lo + i``; integer arrays at unit steps stay integer.
    """
    tables = {(0,) * window.d: arr}
    steps = window.steps

    def D(gamma: MultiIndex) -> np.ndarray:
        # a loop, not recursion: a self-calling closure is a reference cycle
        # that keeps every table alive until the cycle collector runs
        chain = []
        while gamma not in tables:
            j = max(ax for ax, n in enumerate(gamma) if n)
            chain.append((gamma, j))
            gamma = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]
        out = tables[gamma]
        for gamma, j in reversed(chain):
            out = np.diff(out, axis=lead + j)
            if steps[j] != 1:
                out = out / steps[j]
            tables[gamma] = out
        return out
    return D


def difference_coefficients(u: np.ndarray, window: Window, gammas, at: Window) -> dict:
    """``D^gamma u`` at the points of the sub-window ``at``, flattened, per gamma."""
    u = np.asarray(u)
    if u.shape != window.shape:
        raise DimensionError(f"field shape {u.shape} != window shape {window.shape}")
    D = forward_differences(u, window, 0)
    sel = at.slice_in(window)
    coeffs = {}
    for g in gammas:
        if any(h + n > wh for h, n, wh in zip(at.hi, g, window.hi)):
            raise BoundaryError("difference stencil exits the window; shrink the base set")
        coeffs[g] = D(g)[sel].reshape(-1)
    return coeffs


def falling_factorial(offsets, steps, gamma: MultiIndex) -> np.ndarray:
    """Anisotropic falling factorial: the product over axes j and m < gamma_j
    of ``offsets[j] - m * steps[j]``; the offsets of unused axes only shape
    the all-ones result of gamma = 0.

    These monomials diagonalise the forward differences, which makes jet
    centering exact on the lattice; the product stays in integers when the
    offsets and steps are integers.
    """
    out = None
    for t, h, n in zip(offsets, steps, gamma):
        for m in range(n):
            out = t - m * h if out is None else out * (t - m * h)
    if out is None:
        shape = np.broadcast_shapes(*(np.shape(t) for t in offsets))
        out = np.ones(shape, dtype=np.result_type(*offsets, *steps))
    return out


def jet_germ(u: np.ndarray, window: Window, order: int) -> Germ:
    """Germ ``U_x = u - Q_x`` with Q_x the discrete Taylor jet of u at x.

    The jet uses falling-factorial monomials, so ``D^gamma U_x (x) = 0`` holds
    exactly for every weighted degree ``|gamma| <= order``.
    """
    scaling = window.scaling
    if order < 0:
        raise ValueError("jet order must be >= 0")
    base = window.shrink(hi_margin=jet_margins(scaling, order))
    coeffs = difference_coefficients(u, window, multi_indices(scaling, order), base)
    u = np.asarray(u, dtype=np.result_type(u, float))
    vals = np.repeat(u.reshape(1, -1), base.npoints, axis=0)
    return _minus_jets(vals, coeffs, base, window)


def frozen_coefficient_germ(u: np.ndarray, v: np.ndarray, a: np.ndarray,
                            window: Window, order: int) -> Germ:
    """Germ ``U_x = u - a(x) v - P_x`` with P_x the jet of ``u - a(x) v`` at x."""
    scaling = window.scaling
    base = window.shrink(hi_margin=jet_margins(scaling, order))
    gammas = multi_indices(scaling, order)
    cu = difference_coefficients(u, window, gammas, base)
    cv = difference_coefficients(v, window, gammas, base)
    a = np.asarray(a)
    if a.shape != window.shape:
        raise DimensionError("coefficient field shape does not match window")
    a_base = a[base.slice_in(window)].reshape(-1)
    dtype = np.result_type(u, v, a, float)
    uf, vf = (np.asarray(f, dtype=dtype).reshape(1, -1) for f in (u, v))
    vals = uf - a_base[:, None] * vf
    return _minus_jets(vals, {g: cu[g] - a_base * cv[g] for g in gammas}, base, window)


def _minus_jets(vals: np.ndarray, coeffs: dict, base: Window, window: Window) -> Germ:
    """Germ ``vals - Q_x``: Q_x is the falling-factorial polynomial with
    ``coeffs[gamma][x] / gamma!`` in front of the monomial gamma, centred
    at x: entry (x, y) of its table is the falling factorial of y - x."""
    X, Y = base.coords(), window.coords()
    for g, c in coeffs.items():
        fact = math.prod(math.factorial(k) for k in g)
        # a contiguous (base, active) plane of y_j - x_j for each axis g uses,
        # made per monomial so that one monomial's planes are alive at a time
        offsets = [Y[None, :, j] - X[:, None, j] if n else 0.0 for j, n in enumerate(g)]
        vals -= (c / fact)[:, None] * falling_factorial(offsets, base.steps, g)
    return Germ(base, window, vals)


def scale_germ(U: Germ, m: ScaleMap) -> Germ:
    """Pull a germ back through the recentering/dilation map.

    The result lives on the lattice with grid scale ``eps / R``; its table is
    the original one with the index boxes shifted by the recentering offset.
    The recentering point must lie on the source lattice.
    """
    if m.scaling != U.scaling:
        raise DimensionError("scale map and germ disagree on scaling")
    steps = U.base.steps
    w_idx = []
    for j, (wj, st) in enumerate(zip(m.w, steps)):
        k = wj / st
        ki = round(k)
        if abs(k - ki) > 1e-9:
            raise LatticeCompatibilityError(
                f"recentering coordinate {wj} on axis {j} is off-lattice (step {st})")
        w_idx.append(int(ki))
    eps_new = U.eps / m.R
    base = Window(U.scaling, eps_new, *_shifted_bounds(U.base, w_idx))
    active = Window(U.scaling, eps_new, *_shifted_bounds(U.active, w_idx))
    cls = type(U)
    return cls(base, active, U.values)


def _shifted_bounds(win: Window, w_idx):
    lo = tuple(l - o for l, o in zip(win.lo, w_idx))
    hi = tuple(h - o for h, o in zip(win.hi, w_idx))
    return lo, hi


def restrict_initial(U: Germ) -> Germ:
    """Restrict to the time-zero slice: base (0, x'), active (0, y')."""
    if U.scaling.d < 2:
        raise DimensionError("initial-slice restriction needs at least two axes")
    for win, name in ((U.base, "base"), (U.active, "active")):
        if not (win.lo[0] <= 0 <= win.hi[0]):
            raise DomainTooSmallError(f"{name} window has no time-zero slice")
    sub = Scaling(U.scaling.s[1:])
    base = Window(sub, U.eps, U.base.lo[1:], U.base.hi[1:])
    active = Window(sub, U.eps, U.active.lo[1:], U.active.hi[1:])
    v = U.values.reshape(U.base.shape + U.active.shape)
    v = np.take(v, -U.base.lo[0], axis=0)
    v = np.take(v, -U.active.lo[0], axis=U.base.d - 1)
    return type(U)(base, active, v.reshape(base.npoints, active.npoints))


# ---------------------------------------------------------------------------
# plain-text germ interchange format

_FMT = "%.17g"


def germ_to_text(U: Germ) -> str:
    head = (f"# germcalc germ v1\n"
            f"d={U.scaling.d} s={U.scaling.to_text()} eps={_FMT % U.eps} "
            f"base_lo={_ints(U.base.lo)} base_hi={_ints(U.base.hi)} "
            f"act_lo={_ints(U.active.lo)} act_hi={_ints(U.active.hi)} "
            f"kind={'dist' if isinstance(U, DistGerm) else 'germ'}\n")
    bi = U.base.indices()
    ai = U.active.indices()
    lines = []
    for b in range(bi.shape[0]):
        for a in range(ai.shape[0]):
            z = complex(U.values[b, a])
            lines.append(",".join(
                [_ints(bi[b]), _ints(ai[a]), _FMT % z.real, _FMT % z.imag]))
    return head + "\n".join(lines) + "\n"


def _ints(t) -> str:
    return ";".join(str(int(x)) for x in t)


def _parse_ints(t) -> tuple[int, ...]:
    return tuple(int(x) for x in t.split(";"))


def _text_rows(text: str, kind: str) -> list[tuple[int, str]]:
    """Non-blank, non-comment lines with their 1-based line numbers; the
    first one is the header."""
    rows = [(no, ln) for no, ln in enumerate(text.splitlines(), 1)
            if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ValidationError(f"{kind} file has no header line")
    return rows


@contextmanager
def _line_errors(where):
    """Re-raise a parse failure (a missing ``key=`` field or a malformed
    value) as a one-line ValidationError naming ``where()``.  ``where`` is
    called only on failure, so one context can wrap a loop and name the
    line it stopped at."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{where()} has no {exc.args[0]}= field") from None
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"{where()}: {exc}") from None


def _key_values(line: str) -> dict[str, str]:
    return dict(kv.split("=", 1) for kv in line.split())


def _number(text: str) -> float:
    """A finite float; nan and inf are malformed numbers in every text format."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


def _split_fields(line: str, n: int) -> list[str]:
    parts = line.split(",")
    if len(parts) != n:
        raise ValidationError(f"expected {n} comma-separated fields, got {len(parts)}")
    return parts


def germ_from_text(text: str) -> Germ:
    """Parse ``germ_to_text`` output; malformed text raises ValidationError
    naming the offending line."""
    rows = _text_rows(text, "germ")
    no, head = rows[0]
    with _line_errors(lambda: f"germ header (line {no})"):
        fields = _key_values(head)
        scaling = Scaling.from_text(fields["s"])
        eps = _number(fields["eps"])
        base = Window(scaling, eps, _parse_ints(fields["base_lo"]), _parse_ints(fields["base_hi"]))
        active = Window(scaling, eps, _parse_ints(fields["act_lo"]), _parse_ints(fields["act_hi"]))
    vals = np.zeros((base.npoints, active.npoints), dtype=complex)
    seen = np.zeros(vals.shape, dtype=bool)
    with _line_errors(lambda: f"germ line {no}"):
        for no, ln in rows[1:]:
            bidx, aidx, re, im = _split_fields(ln, 4)
            b = base.flat(_parse_ints(bidx))
            a = active.flat(_parse_ints(aidx))
            vals[b, a] = _number(re) + 1j * _number(im)
            seen[b, a] = True
    if not seen.all():
        raise ValidationError("germ file is missing base/active pairs")
    if np.all(vals.imag == 0):
        vals = vals.real
    cls = DistGerm if fields.get("kind") == "dist" else Germ
    return cls(base, active, vals)


def save_germ(U: Germ, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(germ_to_text(U))


def load_germ(path) -> Germ:
    with open(path, encoding="utf-8") as fh:
        return germ_from_text(fh.read())


def field_to_text(values: np.ndarray, mask, window: Window) -> str:
    """Scalar field on a window, one row per point: index tuple, value,
    defined flag (0 marks points outside the field's domain)."""
    values = np.asarray(values, dtype=float).reshape(-1)
    mask = (np.ones(window.npoints, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool).reshape(-1))
    head = (f"# germcalc field v1\n"
            f"d={window.scaling.d} s={window.scaling.to_text()} eps={_FMT % window.eps} "
            f"lo={_ints(window.lo)} hi={_ints(window.hi)}\n")
    idx = window.indices()
    lines = [",".join([_ints(idx[i]), _FMT % values[i], str(int(mask[i]))])
             for i in range(window.npoints)]
    return head + "\n".join(lines) + "\n"


def field_from_text(text: str):
    """Parse ``field_to_text`` output into (values, mask, window); malformed
    text raises ValidationError naming the offending line."""
    rows = _text_rows(text, "field")
    no, head = rows[0]
    with _line_errors(lambda: f"field header (line {no})"):
        fields = _key_values(head)
        scaling = Scaling.from_text(fields["s"])
        window = Window(scaling, _number(fields["eps"]),
                        _parse_ints(fields["lo"]), _parse_ints(fields["hi"]))
    values = np.zeros(window.npoints)
    mask = np.zeros(window.npoints, dtype=bool)
    with _line_errors(lambda: f"field line {no}"):
        for no, ln in rows[1:]:
            iidx, val, flag = _split_fields(ln, 3)
            p = window.flat(_parse_ints(iidx))
            values[p] = _number(val)
            mask[p] = bool(int(flag))
    return values, mask, window

"""Ensemble experiments: manufactured germs and two-sided norm ratios.

Runs seed-deterministic ensembles that manufacture germs from solutions of
lattice Poisson problems with random compactly supported sources, evaluate
both sides of the germ norm inequalities on the window, and report the
LHS/RHS ratios across grid-scale sweeps.  All norms are window-restricted;
the reports are surrogates that track ratio stability, not claims about the
inequalities' universal constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .discrete_ops import (PRESETS, DiffOperator, apply_to_germ, fft_symbol_grid,
                           resolve_operator)
from .errors import IllPosedSourceError, ValidationError
from .geometry import Scaling
from .germs import (MAX_POINTS_PER_AXIS, Germ, Window, frozen_coefficient_germ, jet_germ,
                    load_germ, restrict_initial)
from .norms import norm_G_eta, seminorm_G_eta_alpha, seminorm_G_gamma, sup_below

_FMT = "%.17g"


MODES = ("schauder", "ivp", "local")


def parse_scaling(text) -> Scaling:
    """Grading from comma-separated axis weights, such as ``"2,1"``."""
    try:
        return Scaling.from_text(text)
    except ValueError as exc:
        raise ValidationError(f"invalid scaling {text!r}: {exc}") from None


def parse_bool(text) -> bool:
    """1/true/yes or 0/false/no, in any case."""
    word = str(text).lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected one of 1, true, yes, 0, false, no")
    return word in ("1", "true", "yes")


def _show(value):
    return "" if value is None else value


@dataclass(frozen=True)
class Setting:
    """One probe setting's text forms: its config key, the parser of its
    text value, its command-line flag (None: config files only) with the
    flag's choices and help, and its ``config_to_dict`` value."""

    key: str
    parse: Callable
    flag: str | None = None
    choices: tuple[str, ...] | None = None
    help: str | None = None
    show: Callable = _show


def _setting(default, *args, **kwargs):
    return field(default=default, metadata={"setting": Setting(*args, **kwargs)})


@dataclass(frozen=True)
class ExperimentConfig:
    """The probe's only input, one field per setting with its default and
    text forms; radii and extents are in lattice index units.  An unset
    ``eps_list`` is ``(1.0,)``, or empty with ``germ=file`` (the file's own
    eps); an unset ``time_extent`` is ``2 * radius`` in mode ivp."""

    scaling: Scaling = _setting(Scaling((1, 1)), "scaling", parse_scaling, "--scaling",
                                show=Scaling.to_text)
    operator: str = _setting("laplacian", "operator", str, "--preset", PRESETS)
    operator_file: str | None = _setting(None, "operator_file", str, "--operator-file")
    eta: float = _setting(1.5, "eta", float, "--eta")
    alpha: float = _setting(0.5, "alpha", float, "--alpha")
    radius: int = _setting(8, "radius", int, "--window", help="window radius in index units")
    eps_list: tuple[float, ...] | None = _setting(
        None, "eps", lambda v: tuple(float(x) for x in str(v).split(",")), "--eps",
        help="comma separated grid scales", show=lambda e: ",".join(_FMT % x for x in e))
    ensemble: int = _setting(1, "ensemble", int, "--ensemble")
    seed: int = _setting(0, "seed", int, "--seed")
    germ: str = _setting("jet", "germ", str, "--germ", ("jet", "frozen", "file"))
    germ_file: str | None = _setting(None, "germ_file", str, "--germ-file")
    time_extent: int | None = _setting(None, "time_extent", int, "--time-extent")
    allow_integer_orders: bool = _setting(False, "allow_integer_orders", parse_bool)
    mode: str = _setting("schauder", "mode", str, "--mode", MODES)
    rho: float | None = _setting(None, "rho", float, "--rho",
                                 help="locality radius for --mode local")
    zero_initial: bool = _setting(
        False, "zero_initial", parse_bool, "--zero-initial",
        help="subtract the initial slice before building germs (--mode ivp)")

    def __post_init__(self):
        if self.eps_list is None:
            object.__setattr__(self, "eps_list", () if self.germ == "file" else (1.0,))
        if self.time_extent is None and self.mode == "ivp":
            object.__setattr__(self, "time_extent", 2 * self.radius)

    def validate(self) -> DiffOperator:
        for name, s in SETTINGS:
            if s.choices and getattr(self, name) not in s.choices:
                raise ValidationError(f"unknown {s.key} {getattr(self, name)!r}")
        if self.rho is not None and self.mode != "local":
            raise ValidationError("rho applies to mode local only")
        if self.zero_initial and self.mode != "ivp":
            raise ValidationError("zero_initial applies to mode ivp only")
        if self.mode == "local" and not (self.rho is not None and self.rho > 0):
            raise ValidationError("mode local requires a positive rho")
        if self.mode == "ivp":
            if self.germ != "jet":
                raise ValidationError(f"mode ivp builds jet germs; germ={self.germ} "
                                      "is not supported")
            if self.scaling.s[0] != 2 or any(s != 1 for s in self.scaling.s[1:]):
                raise ValidationError("initial-value probe expects scaling (2, 1, ..., 1)")
        L = resolve_operator(self.operator_file, self.operator, self.scaling.d)
        if L.scaling != self.scaling:
            raise ValidationError(
                f"operator scaling {L.scaling.s} does not match config scaling {self.scaling.s}")
        if not (0 < self.alpha < self.eta < L.order):
            raise ValidationError(
                f"need 0 < alpha < eta < m, got alpha={self.alpha} eta={self.eta} m={L.order}")
        if not self.allow_integer_orders:
            for name, v in (("alpha", self.alpha), ("eta", self.eta)):
                if float(v).is_integer():
                    raise ValidationError(
                        f"{name}={v} is an integer order; pass allow_integer_orders to override")
        if self.ensemble < 1:
            raise ValidationError("ensemble size must be >= 1")
        if self.germ != "file":  # a germ file brings its own window
            if self.radius < 1:
                raise ValidationError("window radius must be >= 1")
            if self.time_extent is not None and self.time_extent < 1:
                raise ValidationError("time extent must be >= 1")
            points = max(2 * self.radius, self.time_extent or 0) + 1
            if points > MAX_POINTS_PER_AXIS:
                extent = ("" if self.time_extent is None
                          else f" and time extent {self.time_extent}")
                raise ValidationError(
                    f"a window of radius {self.radius}{extent} has {points} points on an "
                    f"axis; at most {MAX_POINTS_PER_AXIS} are allowed")
        if not all(math.isfinite(e) and e > 0 for e in self.eps_list):
            raise ValidationError("grid scales must be finite and positive")
        if self.germ == "file" and not self.germ_file:
            raise ValidationError("germ=file requires germ_file")
        if self.germ == "file" and (self.ensemble > 1 or len(self.eps_list) > 1):
            raise ValidationError("germ=file evaluates one germ at its own grid scale; "
                                  "it takes ensemble 1 and at most one eps")
        return L


@dataclass(frozen=True)
class RatioReport:
    member: int
    eps: float
    lhs: float
    rhs_operator: float
    rhs_eta_alpha: float
    rhs_initial: float
    rhs_local_sup: float

    @property
    def rhs(self) -> float:
        return self.rhs_operator + self.rhs_eta_alpha + self.rhs_initial + self.rhs_local_sup

    @property
    def ratio(self) -> float:
        return _ratio(self.lhs, self.rhs)[0]

    @property
    def flags(self) -> str:
        return "rhs-zero" if _ratio(self.lhs, self.rhs)[1] else ""


def _ratio(lhs: float, rhs: float) -> tuple[float, bool]:
    if rhs > 0:
        return lhs / rhs, False
    return (0.0, False) if lhs == 0 else (math.inf, True)


CSV_COLUMNS = ("member", "eps", "lhs", "rhs_operator", "rhs_eta_alpha",
               "rhs_initial", "rhs_local_sup", "rhs", "ratio", "flags")


def member_rng(seed: int, member: int) -> np.random.Generator:
    """Counter-based stream: one Philox key per (seed, member)."""
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed % 2 ** 64, member % 2 ** 64], dtype=np.uint64)))


def solve_poisson(L: DiffOperator, f: np.ndarray, window: Window) -> np.ndarray:
    """Solve ``L u = f`` on the periodized window by dual division.

    The zero mode is dropped, so the solve is exact for sources summing to
    zero.
    """
    f = np.asarray(f)
    if f.shape != window.shape:
        raise ValidationError("source shape does not match window")
    sym = fft_symbol_grid(L, window.eps, window.shape)
    scale = L.coeff_scale() * window.eps ** (-L.order)
    flat = np.abs(sym).ravel()
    if np.any(flat[1:] <= 1e-12 * max(scale, 1e-300)):
        raise IllPosedSourceError(
            "operator symbol (near-)vanishes on the discrete frequency grid")
    fhat = np.fft.fftn(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        uhat = fhat / sym
    uhat.ravel()[0] = 0.0
    u = np.fft.ifftn(uhat)
    if np.all(np.abs(u.imag) <= 1e-12 * np.max(np.abs(u.real), initial=1e-300)):
        u = u.real.copy()
    return u


def draw_source(rng: np.random.Generator, window: Window) -> np.ndarray:
    """Gaussian source on the inner half of the window, mean-zero over its
    support (the outer margin suppresses periodization artifacts)."""
    margins = tuple(max(1, (h - l) // 4) for l, h in zip(window.lo, window.hi))
    support = window.shrink(lo_margin=margins, hi_margin=margins)
    f = np.zeros(window.shape)
    block = rng.standard_normal(support.shape)
    block -= block.mean()
    f[support.slice_in(window)] = block
    return f


def _build_germ(cfg: ExperimentConfig, L: DiffOperator, window: Window,
                rng: np.random.Generator) -> Germ:
    """Manufactured jet or frozen-coefficient germ from Poisson solutions;
    ``zero_initial`` subtracts the initial time slice first."""
    order = math.floor(cfg.eta)
    u = solve_poisson(L, draw_source(rng, window), window)
    if cfg.zero_initial:
        u = u - u[0][None, ...]
    if cfg.germ == "jet":
        return jet_germ(u, window, order)
    v = solve_poisson(L, draw_source(rng, window), window)
    a = solve_poisson(L, draw_source(rng, window), window)
    a = a / max(1.0, float(np.max(np.abs(a))))
    return frozen_coefficient_germ(u, v, a, window, order)


def _probe_window(cfg: ExperimentConfig, eps: float) -> Window:
    if cfg.time_extent is not None:
        lo = (0,) + (-cfg.radius,) * (cfg.scaling.d - 1)
        hi = (cfg.time_extent,) + (cfg.radius,) * (cfg.scaling.d - 1)
        return Window(cfg.scaling, eps, lo, hi)
    return Window(cfg.scaling, eps, (-cfg.radius,) * cfg.scaling.d,
                  (cfg.radius,) * cfg.scaling.d)


def schauder_sides(U: Germ, L: DiffOperator, eta: float, alpha: float,
                   R: float | None = None) -> dict:
    """Both sides of the whole-window inequality for one germ; with ``R``,
    every norm is restricted to distances and scales below R."""
    LU = apply_to_germ(L, U)
    lhs = norm_G_eta(U, eta, R=R).value
    rhs_op = seminorm_G_gamma(LU, eta - L.order, R=R).value
    rhs_ea = seminorm_G_eta_alpha(U, eta, alpha, R=R).value
    return {"lhs": lhs, "rhs_operator": rhs_op, "rhs_eta_alpha": rhs_ea}


def run_probe(cfg: ExperimentConfig) -> list[RatioReport]:
    """Ensemble of germs; one report per (grid scale, member), in that order.

    Every mode evaluates ``||U||_eta <= C (||LU||_(eta-m) + [U]_(eta,alpha))``
    and adds one term to the right-hand side:

    * ``schauder``: none;
    * ``ivp``: the initial-slice norm, on a parabolic time slab (jet germs
      only; ``zero_initial`` subtracts the initial slice from each solution);
    * ``local``: every norm restricted below ``rho``, plus the
      ``rho**(-eta)``-weighted sup below rho.

    ``germ=file`` evaluates the file's germ once, at the file's grid scale;
    an eps given with it must be that scale.
    """
    L = cfg.validate()
    if cfg.germ == "file":
        U = load_germ(cfg.germ_file)
        if U.scaling != L.scaling:
            raise ValidationError(f"germ file scaling {U.scaling.s} does not match "
                                  f"operator scaling {L.scaling.s}")
        if cfg.eps_list and cfg.eps_list[0] != U.eps:
            raise ValidationError(f"germ=file: the file's eps is {_FMT % U.eps}, "
                                  f"not {_FMT % cfg.eps_list[0]}")
        germs = [(0, U)]
    else:
        windows = {eps: _probe_window(cfg, eps) for eps in cfg.eps_list}
        germs = ((member, _build_germ(cfg, L, windows[eps],
                                      member_rng(cfg.seed, member)))
                 for eps in cfg.eps_list for member in range(cfg.ensemble))
    reports = []
    for member, U in germs:
        sides = schauder_sides(U, L, cfg.eta, cfg.alpha, R=cfg.rho)
        rhs_initial = (norm_G_eta(restrict_initial(U), cfg.eta).value
                       if cfg.mode == "ivp" else 0.0)
        rhs_local_sup = (cfg.rho ** (-cfg.eta) * sup_below(U, cfg.rho).value
                         if cfg.mode == "local" else 0.0)
        reports.append(RatioReport(member, U.eps, sides["lhs"], sides["rhs_operator"],
                                   sides["rhs_eta_alpha"], rhs_initial, rhs_local_sup))
    return reports


# ---------------------------------------------------------------------------
# report serialization


def reports_to_csv(reports: list[RatioReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        row = [str(r.member), _FMT % r.eps, _FMT % r.lhs, _FMT % r.rhs_operator,
               _FMT % r.rhs_eta_alpha, _FMT % r.rhs_initial, _FMT % r.rhs_local_sup,
               _FMT % r.rhs, _FMT % r.ratio, r.flags]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summarize(reports: list[RatioReport]) -> dict:
    """Per grid-scale max/median/percentile ratio summary."""
    out: dict = {"eps": {}}
    for eps in sorted({r.eps for r in reports}):
        ratios = np.array([r.ratio for r in reports if r.eps == eps])
        finite = ratios[np.isfinite(ratios)]
        entry = {
            "count": int(ratios.size),
            "infinite": int(np.sum(~np.isfinite(ratios))),
            "max": float(np.max(finite)) if finite.size else 0.0,
            "median": float(np.median(finite)) if finite.size else 0.0,
            "p90": float(np.percentile(finite, 90)) if finite.size else 0.0,
        }
        out["eps"][_FMT % eps] = entry
    return out


def summary_to_json(reports: list[RatioReport], cfg: ExperimentConfig) -> str:
    payload = summarize(reports)
    payload["config"] = config_to_dict(cfg)
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# flat key=value config files


SETTINGS = tuple((f.name, f.metadata["setting"]) for f in fields(ExperimentConfig))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {s.key: s.show(getattr(cfg, name)) for name, s in SETTINGS}


def parse_config_text(text: str) -> dict:
    out = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValidationError(f"config line is not key=value: {ln!r}")
        k, v = ln.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def config_from_mapping(kv: dict) -> ExperimentConfig:
    """Config from its settings' text values, keyed as in config files; an
    empty or missing value takes the default, a value that does not parse
    or a key no setting reads is invalid input."""
    unknown = sorted(set(kv) - {s.key for _, s in SETTINGS})
    if unknown:
        raise ValidationError(f"unknown config key {', '.join(map(repr, unknown))}")
    values = {}
    for name, s in SETTINGS:
        v = kv.get(s.key)
        if v in ("", None):
            continue
        try:
            values[name] = s.parse(v)
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"invalid {s.key} {v!r}: {exc}") from None
    return ExperimentConfig(**values)

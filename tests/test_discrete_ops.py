import cmath
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from germcalc import (Scaling, apply_to_field, apply_to_germ, continuum_symbol,
                      discrete_symbol, is_discretely_elliptic, make_operator, multi_indices,
                      operator_from_text, operator_to_text, preset_operator,
                      symbol_zero_search)
from germcalc import discrete_ops
from germcalc._nelder_mead import nelder_mead
from germcalc.discrete_ops import (_refined_minima, _sphere_samples, _symbol_function,
                                   continuum_symbol_scan, fft_symbol_grid, lattice_symbol_zeros)
from germcalc.errors import ValidationError
from germcalc.germs import Window
from germcalc.norms import pairing

from conftest import WIDE_LAPLACIAN, box, first_order, l_t, random_germ
from polyutil import discrete_monomial, laplacian_neighbor_form, monomial_diff_rule_check


def test_constant_killed():
    for name, d in (("laplacian", 2), ("heat", 2), ("cauchy-riemann", 2)):
        L = preset_operator(name, d)
        w = box(L.scaling, 1.0, 3)
        out, _ = apply_to_field(L, np.full(w.shape, 4.2), w)
        assert np.max(np.abs(out)) == 0.0


def test_discrete_harmonic_monomial():
    L = preset_operator("laplacian", 2)
    w = box(L.scaling, 1.0, 4)
    k = w.indices()
    f = (k[:, 0].astype(float) ** 2 - k[:, 1] ** 2).reshape(w.shape)
    out, _ = apply_to_field(L, f, w)
    assert np.max(np.abs(out)) == 0.0


def test_laplacian_equals_neighbor_form(rng):
    # exact on integer-representable inputs; last-ulp summation-order slack
    # on generic floats
    for d in (1, 2, 3):
        L = preset_operator("laplacian", d)
        for eps in (1.0, 0.5):
            w = Window(L.scaling, eps, (-3,) * d, (3,) * d)
            fi = rng.integers(-50, 50, w.shape).astype(float)
            a, wa = apply_to_field(L, fi, w)
            b, wb = laplacian_neighbor_form(fi, w)
            assert wa == wb
            assert np.array_equal(a, b)
            f = rng.standard_normal(w.shape)
            a, _ = apply_to_field(L, f, w)
            b, _ = laplacian_neighbor_form(f, w)
            assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, float(np.max(np.abs(b))))


def test_symbols_trivial_values():
    L1 = preset_operator("laplacian", 1)
    assert discrete_symbol(L1, 1.0, (math.pi,)) == pytest.approx(-4.0)
    for name in ("laplacian", "heat", "cauchy-riemann", "eps-degenerate"):
        L = preset_operator(name, 2)
        assert abs(discrete_symbol(L, 1.0, (0.0, 0.0))) == 0.0
    Lh = preset_operator("heat", 3)
    assert continuum_symbol(Lh, (1.0, 0.0, 0.0)) == pytest.approx(1j)
    assert continuum_symbol(preset_operator("laplacian", 2), (1.0, 1.0)) == pytest.approx(-2.0)


@st.composite
def homogeneous_operators(draw):
    """Random homogeneous operators: d = 1..3, grading weights 1 or 2, weighted
    order up to 4, one to four terms with complex coefficients."""
    d = draw(st.integers(1, 3))
    scaling = Scaling(tuple(draw(st.lists(st.sampled_from([1, 2]), min_size=d, max_size=d))))
    m = draw(st.integers(1, 4))
    pairs = [(g, dl) for g in multi_indices(scaling, m) for dl in multi_indices(scaling, m)
             if scaling.degree(g) + scaling.degree(dl) == m]
    assume(pairs)
    picks = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    coeff = st.floats(-2, 2).filter(lambda x: abs(x) > 1e-3)
    terms = {p: complex(draw(coeff), draw(st.floats(-2, 2))) for p in picks}
    return make_operator(scaling, terms)


@given(homogeneous_operators(), st.sampled_from([1.0, 0.5, 0.37]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_single_point_symbols_match_array_path(L, eps, seed):
    # one-point calls run on Python complex values, batches on numpy arrays
    bounds = np.array([math.pi * eps ** -s for s in L.scaling.s])
    T = np.random.default_rng(seed).uniform(-1, 1, size=(8, L.d)) * bounds
    batch = discrete_symbol(L, eps, T)
    assert np.array_equal(batch, _per_term_loop(L, eps, T.T, np.exp,
                                                np.zeros(len(T), dtype=complex)))
    tol = 1e-13 * L.coeff_scale() * eps ** (-L.order)
    for t, v in zip(T, batch):
        one = discrete_symbol(L, eps, t)
        assert isinstance(one, complex)
        assert abs(one - v) <= tol
        assert repr(one) == repr(_per_term_loop(L, eps, t.tolist(), cmath.exp, 0j))
    X = T / bounds * 3.0
    batch = continuum_symbol(L, X)
    assert [continuum_symbol(L, x) for x in X] == list(batch)


def _per_term_loop(L, eps, T, exp, out):
    """The lattice symbol at grid scale eps as an unhoisted per-term loop:
    ``eps**-m`` times the eps-1 symbol at the columns ``T_j eps**s_j``."""
    fwd, bwd = [], []
    for t, s in zip(T, L.scaling.s):
        fwd.append(exp(1j * (t * eps ** s)) - 1.0)
        bwd.append(1.0 - exp(-1j * (t * eps ** s)))
    for g, dl, a in L.terms:
        term = complex(a)
        for j in range(L.d):
            if g[j]:
                term = term * fwd[j] ** g[j]
            if dl[j]:
                term = term * bwd[j] ** dl[j]
        out += term
    return eps ** -L.order * out


class _StableArgsortNumpy:
    """numpy, except that argsort is stable."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def argsort(a):
        return np.argsort(a, kind="stable")


def _scipy_nelder_mead(f, x0, lo=None, hi=None, stable_ties=False, **options):
    """scipy's Nelder-Mead on a function of a list of floats, as (x, fun, nit).

    With ``stable_ties`` on a 4-point simplex (d = 3) the oracle is patched
    scipy: numpy's argsort inside ``scipy.optimize._optimize`` is swapped for
    a stable one, the tie rule the port documents, since numpy may order
    exact ties otherwise (by CPU) and ties come up near a nonzero minimum.
    Such a case is skipped when scipy's private layout has no ``np`` to swap.
    Simplices of up to 3 points, and tie-free functions, run scipy as shipped.
    """
    from scipy.optimize import _optimize, minimize

    box = None if lo is None else list(zip(lo, hi))
    run = lambda: minimize(lambda t: f(t.tolist()), x0, method="Nelder-Mead",  # noqa: E731
                           bounds=box, options=options)
    if stable_ties and len(x0) > 2:
        assume(isinstance(getattr(_optimize, "np", None), type(np)))
        with mock.patch.object(_optimize, "np", _StableArgsortNumpy()):
            res = run()
    else:
        res = run()
    return res.x.tolist(), float(res.fun), int(res.nit)


@given(homogeneous_operators(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_nelder_mead_matches_scipy_on_lattice_symbols(L, seed):
    # the eps-1 symbol on the unit torus, where the refinements run
    symbol = _symbol_function(L)
    f = lambda t: abs(symbol(t)) ** 2  # noqa: E731
    hi = (math.pi,) * L.d
    lo = (-math.pi,) * L.d
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, L.d) * hi
    # inside, on the upper edge (reflected), on the lower edge (clipped), just
    # below the upper edge, and with zero coordinates
    starts = [u, np.array(hi), np.array(lo), (1 - 1e-3 * rng.uniform(0, 1, L.d)) * hi,
              np.where(rng.uniform(0, 1, L.d) < 0.5, 0.0, u)]
    opts = dict(xatol=1e-13, fatol=1e-300, maxiter=800)
    for x0 in starts:
        assert (nelder_mead(f, x0, lo, hi, **opts)
                == _scipy_nelder_mead(f, x0, lo, hi, stable_ties=True, **opts))


def _norm(u):
    """The Euclidean norm of continuum_symbol_scan: exactly summed squares."""
    return math.sqrt(math.fsum(x * x for x in u))


@given(homogeneous_operators(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_nelder_mead_matches_scipy_on_the_continuum_objective(L, seed):
    def obj(u):
        nrm = _norm(u)
        return 1e300 if nrm < 1e-12 else abs(continuum_symbol(L, np.asarray(u) / nrm))

    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(L.d)
    opts = dict(xatol=1e-14, fatol=1e-28, maxiter=600)
    for start in (x0, np.where(rng.uniform(0, 1, L.d) < 0.5, 0.0, x0)):
        assert (nelder_mead(obj, start, **opts)
                == _scipy_nelder_mead(obj, start, stable_ties=True, **opts))


@given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_nelder_mead_matches_scipy_on_smooth_functions(d, bounded, seed):
    # minimum value 0 at an interior point: no exact ties even near convergence,
    # so scipy as shipped is the oracle on 4-point simplices too
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10, d).tolist()
    c = rng.uniform(-2, 2, d).tolist()
    r = rng.uniform(-0.5, 0.5) * min(w)

    def f(x):
        q = sum(wi * (xi - ci) ** 2 for wi, xi, ci in zip(w, x, c))
        q += r * (x[0] - c[0]) * (x[-1] - c[-1])
        return q + math.sin(q) ** 2

    lo = hi = None
    if bounded:
        hi = tuple((np.abs(c) + rng.uniform(0.5, 2, d)).tolist())
        lo = tuple(-b for b in hi)
    x0 = rng.uniform(-1, 1, d) * (hi if bounded else 3)
    for opts in (dict(xatol=1e-8, fatol=1e-12, maxiter=200 * d),
                 dict(xatol=1e-14, fatol=1e-300, maxiter=40)):
        assert nelder_mead(f, x0, lo, hi, **opts) == _scipy_nelder_mead(f, x0, lo, hi, **opts)


def _scipy_refinements(L, starts):
    """The lattice refinements as scipy's Nelder-Mead on discrete_symbol at
    eps 1, inside the unit torus box."""
    from scipy.optimize import minimize

    box = [(-math.pi, math.pi)] * L.d
    for start in starts:
        res = minimize(lambda t: float(abs(discrete_symbol(L, 1.0, t)) ** 2),
                       start, method="Nelder-Mead", bounds=box,
                       options={"xatol": 1e-13, "fatol": 1e-300, "maxiter": 800})
        yield math.sqrt(max(res.fun, 0.0)), res.x.tolist()


def _scipy_continuum_scan(L, samples):
    """continuum_symbol_scan with scipy's Nelder-Mead on numpy arrays."""
    from scipy.optimize import minimize

    pts = _sphere_samples(L.d, samples)
    vals = np.abs(continuum_symbol(L, pts))
    i = int(np.argmin(vals))
    best, wit = float(vals[i]), pts[i]

    def obj(u):
        nrm = _norm(u)
        return 1e300 if nrm < 1e-12 else float(abs(continuum_symbol(L, u / nrm)))
    res = minimize(obj, wit, method="Nelder-Mead",
                   options={"xatol": 1e-14, "fatol": 1e-28, "maxiter": 600})
    if res.fun < best:
        best, wit = float(res.fun), res.x / _norm(res.x)
    return best, tuple(float(x) for x in wit)


@pytest.mark.parametrize("name, d, eps", [
    ("laplacian", 1, 1.0), ("laplacian", 2, 0.37), ("heat", 2, 0.5),
    ("cauchy-riemann", 2, 1.0), ("eps-degenerate", 2, 0.25), ("laplacian", 3, 1.0),
    ("heat", 3, 0.37)])
def test_symbol_refinements_match_scipy(name, d, eps):
    # the starts are dual-torus points at grid scale eps taken to the unit
    # torus, where the refinements run whatever the grid scale
    L = preset_operator(name, d)
    theta = np.random.default_rng(d).uniform(-1, 1, (4, d)) * math.pi
    starts = theta * [eps ** -s for s in L.scaling.s] * [eps ** s for s in L.scaling.s]
    got = [(v, x.tolist()) for v, x in _refined_minima(L, starts)]
    assert got == list(_scipy_refinements(L, starts))
    if d > 1:
        for samples in (40, 1000):
            assert continuum_symbol_scan(L, samples) == _scipy_continuum_scan(L, samples)


def test_symbol_analysis_does_not_import_the_optimizer():
    # the symbol refinements run on the float Nelder-Mead, so ellipticity and
    # the zero search leave scipy's optimizer (and its memory) out of the process
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from germcalc.cli import main; "
            "assert main(['ellipticity', '--preset', 'cauchy-riemann', '--json']) == 0; "
            "assert main(['liouville', '--preset', 'cauchy-riemann', '--eta', '0.5', "
            "'--zero-search', '--json']) == 0; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"


@given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1), st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_nelder_mead_fstop_ends_at_the_first_iteration_below_it(d, bounded, seed, u):
    # with maxiter=k the search returns the simplex at the top of iteration k,
    # so fstop=t must return exactly that for the first k whose best is below t
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10, d).tolist()
    c = rng.uniform(-2, 2, d).tolist()
    f = lambda x: 0.5 + sum(wi * (xi - ci) ** 2 for wi, xi, ci in zip(w, x, c))  # noqa: E731
    lo = hi = None
    if bounded:
        hi = tuple((np.abs(c) + rng.uniform(0.5, 2, d)).tolist())
        lo = tuple(-b for b in hi)
    x0 = rng.uniform(-1, 1, d) * (hi if bounded else 3)
    opts = dict(xatol=1e-14, fatol=1e-300)
    best = [nelder_mead(f, x0, lo, hi, maxiter=k, **opts)[1] for k in range(1, 41)]
    t = best[0] + u * (best[-1] - best[0])
    first = next((k for k, b in enumerate(best, 1) if b < t), None)
    assume(first is not None)
    assert (nelder_mead(f, x0, lo, hi, maxiter=400, fstop=t, **opts)
            == nelder_mead(f, x0, lo, hi, maxiter=first, **opts))
    assert (nelder_mead(f, x0, lo, hi, maxiter=400, fstop=math.inf, **opts)
            == nelder_mead(f, x0, lo, hi, maxiter=1, **opts))


@st.composite
def integer_operators(draw):
    """Random order-2 operators on the gradings (1,1) and (2,1) with small
    integer coefficients: the Laplacian's (1,1) or the heat operator's (2,1)
    terms, each weighted 0-4, plus one to three terms weighted -1 or 1, the
    last of them imaginary."""
    scaling = Scaling(draw(st.sampled_from([(1, 1), (2, 1)])))
    pairs = [(g, dl) for g in multi_indices(scaling, 2) for dl in multi_indices(scaling, 2)
             if scaling.degree(g) + scaling.degree(dl) == 2]
    base = preset_operator("laplacian" if scaling.s == (1, 1) else "heat", 2)
    terms = {(g, dl): draw(st.integers(0, 4)) * a for g, dl, a in base.terms}
    extra = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    for i, p in enumerate(extra):
        c = draw(st.sampled_from([-1, 1]))
        terms[p] = terms.get(p, 0) + (1j * c if i == len(extra) - 1 else c)
    return make_operator(scaling, terms)


def _floor_and_box(L, resolution):
    """The certified floor and the origin box half-width that
    ``lattice_symbol_zeros`` works with."""
    seen = []
    real = discrete_ops._symbol_floor

    def spy(*args):
        seen.append((real(*args), args[-1]))
        return seen[-1][0]
    with mock.patch.object(discrete_ops, "_symbol_floor", spy):
        next(lattice_symbol_zeros(L, resolution))
    return seen[0]


def _check_floor(L, resolution, seed):
    """|eps-1 symbol| at random unit-torus points outside the origin box is
    at least the floor; returns the floor.  The points are drawn uniformly on
    the torus and on the boxes two cells and half a cell wider than the
    origin box, where the floor is tightest."""
    floor, near = _floor_and_box(L, resolution)
    rng = np.random.default_rng(seed)
    T = np.concatenate([rng.uniform(-1, 1, (1500, L.d)) * half
                        for half in (math.pi, near + 4 * math.pi / resolution,
                                     near + math.pi / resolution)])
    T = T[~np.all(np.abs(T) <= near, axis=1)]
    assert len(T) >= 2000
    assert np.min(np.abs(discrete_symbol(L, 1.0, T))) >= floor
    return floor


def _without_floor():
    return mock.patch.object(discrete_ops, "_symbol_floor", lambda *args: -math.inf)


def _zeros_without_floor(L, resolution):
    with _without_floor():
        return list(lattice_symbol_zeros(L, resolution))


@given(integer_operators(), st.sampled_from([16, 32, 64]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_symbol_floor_is_sound(L, resolution, seed):
    _check_floor(L, resolution, seed)


def test_symbol_floor_of_the_presets():
    # the elliptic presets get a positive floor at the default resolution;
    # cauchy-riemann's lattice symbol vanishes outside the box, and the
    # term-wise bounds of eps-degenerate add where its terms cancel
    for name, positive in (("laplacian", True), ("heat", True),
                           ("cauchy-riemann", False), ("eps-degenerate", False)):
        assert (_check_floor(preset_operator(name, 2), 64, 0) > 0) == positive


@given(integer_operators(), st.sampled_from([16, 32, 64]))
@settings(max_examples=25, deadline=None)
def test_symbol_floor_changes_no_zero(L, resolution):
    assert list(lattice_symbol_zeros(L, resolution)) == _zeros_without_floor(L, resolution)


@pytest.mark.parametrize("name, d", [
    ("laplacian", 1), ("laplacian", 2), ("laplacian", 3), ("heat", 2), ("heat", 3),
    ("cauchy-riemann", 2), ("eps-degenerate", 1), ("eps-degenerate", 2), ("eps-degenerate", 3)])
@pytest.mark.parametrize("eps", [1.0, 0.37])
def test_symbol_floor_changes_no_preset_zero(name, d, eps):
    # nor the zeros reported at grid scale eps, which rescale the eps-1 list
    L = preset_operator(name, d)
    assert list(lattice_symbol_zeros(L, 64)) == _zeros_without_floor(L, 64)
    zeros = symbol_zero_search(L, eps, 64)
    with _without_floor():
        assert symbol_zero_search(L, eps, 64) == zeros


def test_eps_degenerate_continuum_vanishes(rng):
    L = preset_operator("eps-degenerate", 2)
    xi = rng.standard_normal((100, 2)) * 3
    vals = continuum_symbol(L, xi)
    assert np.max(np.abs(vals)) <= 1e-12
    # but its lattice symbol is epsilon times the Laplacian's
    theta = rng.uniform(-math.pi, math.pi, (50, 2))
    lhs = discrete_symbol(L, 1.0, theta)
    rhs = discrete_symbol(preset_operator("laplacian", 2), 1.0, theta)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_symbol_scale_covariance(rng):
    for name in ("laplacian", "heat", "cauchy-riemann"):
        L = preset_operator(name, 2)
        m = L.order
        for eps in (0.5, 0.25):
            caps = np.array([math.pi * eps ** (-s) for s in L.scaling.s])
            theta = rng.uniform(-1, 1, (100, 2)) * caps
            phi = theta * np.array([eps ** s for s in L.scaling.s])
            lhs = discrete_symbol(L, 1.0, phi)
            rhs = (1.0 / eps) ** (-m) * discrete_symbol(L, eps, theta)
            scale = np.maximum(1.0, np.abs(rhs))
            assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12


def test_discrete_to_continuum_convergence():
    L = preset_operator("laplacian", 2)
    xi = np.array([0.7, -1.3])
    errs = []
    for eps in (0.1, 0.05, 0.025):
        errs.append(abs(discrete_symbol(L, eps, xi) - continuum_symbol(L, xi)))
    rates = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(r > 1.8 for r in rates)  # first order in the grid scale


def test_plancherel_consistency(rng):
    for name in ("laplacian", "heat"):
        L = preset_operator(name, 2)
        eps = 0.5
        w = Window(L.scaling, eps, (-8, -8), (7, 7))
        f = np.zeros(w.shape, dtype=complex)
        f[4:-4, 4:-4] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        Lf, wf = apply_to_field(L, f, w)
        sel = tuple(slice(wf.lo[j] - w.lo[j], wf.hi[j] - w.lo[j] + 1) for j in range(2))
        lhs = pairing(Lf, np.conj(f[sel]), eps, L.scaling)
        sym = fft_symbol_grid(L, eps, w.shape)
        fhat = np.fft.fftn(f)
        rhs = (eps ** L.scaling.homogeneity / f.size) * np.sum(sym * np.abs(fhat) ** 2)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_ellipticity_verdicts():
    rep = is_discretely_elliptic(preset_operator("laplacian", 2), 1.0, 64)
    assert rep.verdict == "elliptic"
    rep = is_discretely_elliptic(preset_operator("heat", 2), 1.0, 64)
    assert rep.verdict == "elliptic"
    rep = is_discretely_elliptic(preset_operator("eps-degenerate", 2), 1.0, 64)
    assert rep.verdict == "not-elliptic"
    assert rep.continuum_verdict == "not-elliptic"
    rep = is_discretely_elliptic(preset_operator("cauchy-riemann", 2), 1.0, 64)
    assert rep.continuum_verdict == "elliptic"
    assert rep.discrete_verdict == "not-elliptic"
    got = np.abs(np.asarray(rep.discrete_witness)) / math.pi
    assert np.allclose(sorted(got), [0.5, 0.5], atol=1e-6)


# the presets in one to three dimensions, L_t = D_1 - e^(it) Dbar_1 + i D_2 for
# t = 0.25 and 0.5, the wide Laplacian and D_1 - D_2
_SWEEP = ([preset_operator(name, d) for name, d in (
    ("laplacian", 1), ("laplacian", 2), ("laplacian", 3), ("eps-degenerate", 1),
    ("eps-degenerate", 2), ("eps-degenerate", 3), ("heat", 2), ("heat", 3),
    ("cauchy-riemann", 2))]
    + [l_t(0.25), l_t(0.5), WIDE_LAPLACIAN, first_order(1.0, -1.0, 0.0, 0.0)])


def _same(x, y):
    return math.isclose(x, y, rel_tol=1e-15, abs_tol=0.0)


def test_ellipticity_verdict_eps_invariant():
    # sigma_eps(theta) = eps^-m sigma_1(theta_j eps^s_j): verdicts and zero
    # lists are the eps-1 ones, with theta times eps^-s_j and |symbol| and the
    # margin times eps^-m
    for L, resolution in itertools.product(_SWEEP, (16, 32)):
        rep = is_discretely_elliptic(L, 1.0, resolution)
        zeros = symbol_zero_search(L, 1.0, resolution)
        for eps in (0.5, 0.37, 0.1):
            scale = [eps ** -s for s in L.scaling.s]
            got = is_discretely_elliptic(L, eps, resolution)
            assert (got.verdict, got.discrete_verdict) == (rep.verdict, rep.discrete_verdict)
            assert _same(got.discrete_margin, rep.discrete_margin * eps ** -L.order)
            assert (got.discrete_witness is None) == (rep.discrete_witness is None)
            if rep.discrete_witness is not None:
                assert all(map(_same, got.discrete_witness,
                               np.multiply(rep.discrete_witness, scale)))
            found = symbol_zero_search(L, eps, resolution)
            assert len(found) == len(zeros)
            for z, w in zip(found, zeros):
                assert all(map(_same, z.theta, np.multiply(w.theta, scale)))
                assert _same(z.symbol_abs, w.symbol_abs * eps ** -L.order)


def test_monomial_trivials():
    s = Scaling((1,))
    pts = np.arange(-4, 5)[:, None]
    assert np.array_equal(discrete_monomial(s, 1.0, (0,), pts), np.ones(9, dtype=np.int64))
    k2 = discrete_monomial(s, 1.0, (2,), pts)
    assert np.array_equal(k2, pts[:, 0] * (pts[:, 0] - 1))
    err, exact = monomial_diff_rule_check(s, 1.0, (1,), (2,))
    assert exact and err == 0


def test_monomial_rule_small_sweep():
    for s in (Scaling((2, 1)), Scaling((1, 1))):
        for gamma in ((0, 0), (1, 0), (0, 2), (1, 1)):
            for delta in ((0, 0), (1, 1), (0, 3), (2, 0)):
                err, exact = monomial_diff_rule_check(s, 1.0, gamma, delta)
                assert exact and err == 0
                err, _ = monomial_diff_rule_check(s, 0.5, gamma, delta)
                assert err <= 1e-12


def test_operator_io_round_trip():
    L = make_operator(Scaling((2, 1)), {((0, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0 + 0.5j})
    text = operator_to_text(L)
    M = operator_from_text(text)
    assert M.terms == L.terms and M.scaling == L.scaling and M.order == L.order


def test_operator_validation():
    s = Scaling((1, 1))
    with pytest.raises(ValidationError):
        make_operator(s, {((1, 0), (0, 0)): 1.0, ((2, 0), (0, 0)): 1.0})
    with pytest.raises(ValidationError):
        make_operator(s, {((1, 0), (0, 0)): 0.0})
    with pytest.raises(ValidationError):
        preset_operator("unknown-thing")
    with pytest.raises(ValidationError):
        preset_operator("cauchy-riemann", 3)


def test_apply_to_germ_matches_rows(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=3)
    L = preset_operator("laplacian", 2)
    LU = apply_to_germ(L, U)
    for i in (0, 5, 17):
        row = U.values[i].reshape(U.active.shape)
        out, wout = apply_to_field(L, row, U.active)
        assert wout == LU.active
        assert np.allclose(LU.values[i].reshape(wout.shape), out, atol=1e-13)

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from germcalc import (Scaling, centered_rigidity_check, is_discretely_elliptic, make_operator,
                      multi_indices, polynomial_kernel, preset_operator, symbol_zero_search)
from germcalc import discrete_ops
from germcalc.discrete_ops import apply_to_field
from germcalc.germs import Window
from germcalc.liouville import kernel_basis_to_text

from conftest import WIDE_LAPLACIAN, first_order, l_t
from polyutil import Poly, in_kernel_span, kernel_element, rigidity_matrix


def test_kernel_affine_dimensions():
    for d in (1, 2):
        L = preset_operator("laplacian", d)
        basis = polynomial_kernel(L, 1.0, 1.5)
        assert basis.dimension == d + 1


def test_kernel_degree_zero_constants():
    for name, d in (("laplacian", 2), ("heat", 2)):
        L = preset_operator(name, d)
        basis = polynomial_kernel(L, 1.0, 0.0)
        assert basis.dimension == 1


def test_kernel_harmonic_quadratics():
    L = preset_operator("laplacian", 2)
    basis = polynomial_kernel(L, 1.0, 2.0)
    assert basis.dimension == 5
    gammas = list(basis.gammas)
    v_cross = np.zeros(len(gammas))
    v_cross[gammas.index((1, 1))] = 1.0
    assert in_kernel_span(basis, v_cross)
    v_diff = np.zeros(len(gammas))
    v_diff[gammas.index((2, 0))] = 1.0
    v_diff[gammas.index((0, 2))] = -1.0
    assert in_kernel_span(basis, v_diff)
    v_bad = np.zeros(len(gammas))
    v_bad[gammas.index((2, 0))] = 1.0
    assert not in_kernel_span(basis, v_bad)


def test_kernel_heat_caloric_polynomial():
    L = preset_operator("heat", 2)  # scaling (2, 1): time weight two
    basis = polynomial_kernel(L, 1.0, 2.0)
    assert basis.dimension == 3
    gammas = list(basis.gammas)
    # 2 t + x (x - 1) solves the backward-time discretization
    v = np.zeros(len(gammas))
    v[gammas.index((1, 0))] = 2.0
    v[gammas.index((0, 2))] = 1.0
    assert in_kernel_span(basis, v)


def _continuum_kernel_dim(L, eta):
    """Independent: null space of the continuum operator acting on ordinary
    monomials, by symbolic differentiation."""
    scaling = L.scaling
    gammas = multi_indices(scaling, eta)
    cols = []
    out_idx = {}
    for g in gammas:
        p = Poly(scaling.d, {g: 1.0})
        img = Poly(scaling.d, {})
        for gam, dl, a in L.terms:
            q = p
            for ax, n in enumerate(tuple(x + y for x, y in zip(gam, dl))):
                for _ in range(n):
                    q = q.derivative(ax)
            img = img + q * complex(a).real  # presets here have real coefficients
        cols.append(img)
        for k in img.coeffs:
            out_idx.setdefault(k, len(out_idx))
    A = np.zeros((max(len(out_idx), 1), len(gammas)))
    for j, img in enumerate(cols):
        for k, v in img.coeffs.items():
            A[out_idx[k], j] = v
    sv = np.linalg.svd(A, compute_uv=False)
    smax = sv[0] if sv.size else 0.0
    if smax == 0:
        return len(gammas)
    return int(np.sum(sv <= 1e-10 * smax)) + len(gammas) - sv.size


def test_kernel_dimension_matches_continuum_action():
    # non-dyadic grid scales included: there the stencil sums of annihilated
    # monomials are round-off rather than exact zeros
    eps_sweep = (1.0, 0.5, 0.37, 0.1, 0.05)
    for name, d, eta in (("laplacian", 1, 1.5), ("laplacian", 2, 1.5), ("laplacian", 2, 2.0),
                         ("laplacian", 2, 3.0), ("heat", 2, 2.0), ("heat", 2, 3.5)):
        L = preset_operator(name, d)
        expect = _continuum_kernel_dim(L, eta)
        for eps in eps_sweep:
            assert polynomial_kernel(L, eps, eta).dimension == expect, (name, d, eta, eps)
    # no continuum count here (complex coefficients; eps-degenerate differs from
    # its continuum operator above degree 1): the dimension must not depend on eps
    for name, eta in (("eps-degenerate", 1.5), ("eps-degenerate", 3.5),
                      ("cauchy-riemann", 1.5), ("cauchy-riemann", 3.5)):
        L = preset_operator(name, 2)
        expect = polynomial_kernel(L, 1.0, eta).dimension
        for eps in eps_sweep[1:]:
            assert polynomial_kernel(L, eps, eta).dimension == expect, (name, eta, eps)


_EPS_SWEEP = (1.0, 0.5, 0.37, 0.1, 0.05)
_PRESET_DIMS = (("laplacian", 1), ("laplacian", 2), ("laplacian", 3), ("heat", 2), ("heat", 3),
                ("cauchy-riemann", 2), ("eps-degenerate", 1), ("eps-degenerate", 2),
                ("eps-degenerate", 3))


def test_kernel_dimension_does_not_depend_on_eps():
    for name, d in _PRESET_DIMS:
        L = preset_operator(name, d)
        for eta in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5):
            dims = {polynomial_kernel(L, eps, eta).dimension for eps in _EPS_SWEEP}
            assert len(dims) == 1, (name, d, eta, dims)


def _homogeneous_terms(scaling, order, draw_pair, coefficient):
    """Terms ``c D^g Dbar^b`` over every split of weighted order ``order``."""
    terms = {}
    for g in multi_indices(scaling, order):
        for b in multi_indices(scaling, order - scaling.degree(g)):
            if scaling.degree(g) + scaling.degree(b) == order and draw_pair(g, b):
                terms[(g, b)] = coefficient()
    return terms


@st.composite
def _forward_operators(draw):
    scaling = Scaling(draw(st.sampled_from([(1, 1), (2, 1)])))
    order = draw(st.integers(1, 3))
    terms = _homogeneous_terms(scaling, order, lambda g, b: not any(b),
                               lambda: draw(st.integers(-3, 3)))
    assume(any(terms.values()))
    return make_operator(scaling, terms), draw(st.sampled_from([2.5, 3.5, 4.5, 5.5]))


@given(_forward_operators())
@settings(max_examples=40, deadline=None)
def test_forward_kernel_dimension_matches_continuum(case):
    # forward differences act on k^(n) in lattice units as derivatives act on
    # x^n, so the kernel dimension is the continuum operator's
    L, eta = case
    assert polynomial_kernel(L, 0.37, eta).dimension == _continuum_kernel_dim(L, eta)


@st.composite
def _mixed_operators(draw):
    scaling = Scaling(draw(st.sampled_from([(1,), (1, 1), (2, 1)])))
    order = draw(st.integers(1, 2))
    part = st.builds(lambda k, q: k / q, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    terms = _homogeneous_terms(scaling, order, lambda g, b: draw(st.booleans()),
                               lambda: complex(draw(part), draw(part)))
    assume(any(terms.values()))
    return make_operator(scaling, terms), draw(st.sampled_from([1.5, 2.5, 3.5]))


@given(_mixed_operators())
@settings(max_examples=40, deadline=None)
def test_kernel_of_mixed_operators_is_annihilated(case):
    # the exact kernel needs no self-check; the stencils confirm it here
    L, eta = case
    eps = 0.37
    basis = polynomial_kernel(L, eps, eta)
    fwd, bwd = L.stencil_reach()
    win = Window(L.scaling, eps, tuple(-b - 2 for b in bwd), tuple(f + 2 for f in fwd))
    for i in range(basis.dimension):
        f = kernel_element(basis, i, win.coords()).reshape(win.shape)
        vals, _ = apply_to_field(L, f, win)
        assert np.max(np.abs(vals)) <= 1e-9 * max(1.0, float(np.max(np.abs(f))))


def test_kernel_rescaled_elements_stay_in_kernel():
    L = preset_operator("laplacian", 2)
    basis = polynomial_kernel(L, 1.0, 2.0)
    R = 2.0
    w = Window(L.scaling, 1.0 / R, (-4, -4), (4, 4))
    pts_src = w.coords() * R  # dilation image on the source lattice
    for i in range(basis.dimension):
        f = kernel_element(basis, i, pts_src).real.reshape(w.shape)
        vals, _ = apply_to_field(L, f, w)
        assert np.max(np.abs(vals)) <= 1e-9 * max(1.0, np.max(np.abs(f)))


def test_rigidity_matrix_diagonal():
    s = Scaling((2, 1))
    T = rigidity_matrix(s, 1.0, 3.5)
    gammas = multi_indices(s, 3.5)
    expect = np.diag([math.prod(math.factorial(g) for g in gamma) for gamma in gammas])
    assert np.allclose(T, expect, atol=1e-12)


def test_rigidity_check_examples():
    assert centered_rigidity_check(Scaling((1,)), 1.0, 3.0)
    assert centered_rigidity_check(Scaling((2, 1)), 1.0, 3.5)
    assert centered_rigidity_check(Scaling((2, 1)), 0.5, 3.5)
    assert centered_rigidity_check(Scaling((1, 1)), 1.0, 0.0)


def test_zero_search_laplacian_empty():
    for d in (1, 2):
        L = preset_operator("laplacian", d)
        assert symbol_zero_search(L, 1.0, 64) == []


def _refinement_calls(monkeypatch, run) -> int:
    """The symbol evaluations of the Nelder-Mead refinements in ``run()``."""
    calls = 0
    real = discrete_ops.nelder_mead

    def counted(f, *args, **kwargs):
        def g(x):
            nonlocal calls
            calls += 1
            return f(x)
        return real(g, *args, **kwargs)
    monkeypatch.setattr(discrete_ops, "nelder_mead", counted)
    run()
    monkeypatch.setattr(discrete_ops, "nelder_mead", real)
    return calls


@pytest.mark.parametrize("name", ["laplacian", "heat"])
def test_zero_search_refinements_stop_at_the_floor(name, monkeypatch):
    # each of the 16 refinements stops once its best value is below the
    # certified floor: 168 (laplacian) and 312 (heat) symbol evaluations,
    # where running them to convergence takes 17,564 and 23,964
    def run():
        assert symbol_zero_search(preset_operator(name, 2), 1.0, 64) == []
    assert 0 < _refinement_calls(monkeypatch, run) <= 1000


def test_zero_search_work_does_not_depend_on_eps(monkeypatch):
    # the refinements run on the unit torus at every grid scale; in the box
    # [-pi, pi] eps^-s_j, 14 of the 16 cauchy-riemann runs at eps 0.37 went to
    # the 800-iteration cap (42,086 evaluations against 3,491 at eps 1)
    L = preset_operator("cauchy-riemann", 2)
    work = {eps: _refinement_calls(monkeypatch, lambda: symbol_zero_search(L, eps, 64))
            for eps in (1.0, 0.5, 0.37, 0.1)}
    assert len(set(work.values())) == 1 and work[1.0] < 5000


def test_zero_search_finds_cauchy_riemann_zeros():
    L = preset_operator("cauchy-riemann", 2)
    zeros = symbol_zero_search(L, 1.0, 64)
    assert zeros, "expected nonzero lattice symbol zeros"
    for z in zeros:
        assert z.symbol_abs <= 1e-10
        assert z.residual_inf <= 1e-8
    mags = {tuple(np.round(np.abs(np.asarray(z.theta)) / math.pi, 6)) for z in zeros}
    assert (0.5, 0.5) in mags


def test_kernel_of_a_stencil_wider_than_its_order():
    # the stencil reaches across 5 points per axis at order 2; the kernel is
    # the harmonic polynomials, as for the Laplacian
    for eta, dim in ((0.5, 1), (1.5, 3), (2.5, 5), (3.5, 7)):
        assert polynomial_kernel(WIDE_LAPLACIAN, 1.0, eta).dimension == dim


def _check_zero_finders_agree(L, resolution):
    """The lattice verdict of ``ellipticity`` and the zero search's list
    agree; every zero lies in [-pi, pi)^2 outside the origin box and is
    certified, and no two zeros are one torus point."""
    rep = is_discretely_elliptic(L, 1.0, resolution)
    zeros = symbol_zero_search(L, 1.0, resolution)
    assert (rep.discrete_verdict == "not-elliptic") == bool(zeros)
    if zeros:
        assert rep.discrete_witness in [z.theta for z in zeros]
    half = max(1, resolution / 16) * 2 * math.pi / resolution
    for z in zeros:
        assert all(-math.pi <= t < math.pi for t in z.theta)
        assert max(abs(t) for t in z.theta) > half
        assert z.residual_inf <= 1e-8
    for i, z in enumerate(zeros):
        for w in zeros[:i]:
            gap = np.abs(np.subtract(z.theta, w.theta))
            assert np.any(np.minimum(gap, 2 * math.pi - gap) > 1e-9), (z.theta, w.theta)
    return rep, {tuple(np.round(z.theta, 9) + 0.0) for z in zeros}


_coefficients = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2))


@given(_coefficients, _coefficients, _coefficients, _coefficients, st.sampled_from([16, 32]))
@settings(max_examples=20, deadline=None)
def test_zero_finders_agree_on_first_order_operators(a1, a2, b1, b2, resolution):
    assume(any(abs(c) > 1e-3 for c in (a1, a2, b1, b2)))
    _check_zero_finders_agree(first_order(a1, a2, b1, b2), resolution)


@pytest.mark.parametrize("resolution", [16, 32, 64])
def test_zero_finders_agree_on_fixed_operators(resolution):
    # the zero of L_0.5 lies outside the origin box of half-width pi/8 and
    # both commands report it; the zero of L_0.25 lies inside, and neither does
    rep, zeros = _check_zero_finders_agree(l_t(0.5), resolution)
    assert zeros == {(0.5, 0.0)}
    assert np.allclose(rep.discrete_witness, (0.5, 0.0), atol=1e-9)
    rep, zeros = _check_zero_finders_agree(l_t(0.25), resolution)
    assert zeros == set() and rep.discrete_witness is None
    # (0, pi), (pi, 0) and (pi, pi) are three torus points; their periodic
    # images at -pi are not listed again
    _, zeros = _check_zero_finders_agree(WIDE_LAPLACIAN, resolution)
    pi = round(math.pi, 9)
    assert zeros == {(-pi, 0.0), (0.0, -pi), (-pi, -pi)}


def test_kernel_basis_text():
    L = preset_operator("laplacian", 1)
    basis = polynomial_kernel(L, 1.0, 1.5)
    text = kernel_basis_to_text(basis)
    assert "kernel-basis" in text
    assert text.count("\n") == basis.dimension + 3  # banner, meta, monomial list


def test_kernel_complex_operator_cauchy_riemann():
    # the exact elimination runs on Gaussian integers, so the null vectors of
    # a complex operator come out complex
    L = preset_operator("cauchy-riemann", 2)
    basis = polynomial_kernel(L, 1.0, 1.5)
    assert basis.dimension == 2
    gammas = list(basis.gammas)
    z = np.zeros(len(gammas), dtype=complex)
    z[gammas.index((1, 0))] = 1.0
    z[gammas.index((0, 1))] = 1j
    assert in_kernel_span(basis, z)
    assert not in_kernel_span(basis, z.conj())
    # one vector per free column, entry 1 there: 1 and x + iy
    assert gammas == [(0, 0), (0, 1), (1, 0)]
    assert np.array_equal(basis.vectors, [[1, 0, 0], [0, 1j, 1]])
    assert polynomial_kernel(L, 1.0, 2.5).dimension == 3  # 1, z, z^2

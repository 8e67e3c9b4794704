import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germcalc import (DistGerm, Germ, ScaleMap, Scaling, frozen_coefficient_germ,
                      germ_from_text, germ_to_text, jet_germ, multi_indices, restrict_initial,
                      scale_germ)
from germcalc.errors import (BoundaryError, DimensionError, DomainTooSmallError,
                             LatticeCompatibilityError)
from germcalc.germs import (Window, difference_coefficients, falling_factorial,
                            field_from_text, field_to_text)

from conftest import box, random_germ
from polyutil import center_check, compose_scale, window_contains


def test_window_basics():
    s = Scaling((2, 1))
    w = Window(s, 0.5, (-2, -3), (2, 3))
    assert w.shape == (5, 7)
    assert w.npoints == 35
    assert w.steps == (0.25, 0.5)
    assert w.flat((-2, -3)) == 0
    assert w.flat((2, 3)) == 34
    assert window_contains(w, (0, 0)) and not window_contains(w, (3, 0))
    idx = w.indices()
    assert tuple(idx[0]) == (-2, -3)
    coords = w.coords()
    assert coords[0, 0] == -2 * 0.25


def test_window_cap_and_empty():
    s = Scaling((1,))
    with pytest.raises(ValueError):
        Window(s, 1.0, (0,), (40,))
    with pytest.raises(ValueError):
        Window(s, 1.0, (1,), (0,))


def test_window_ball_matches_brute_force(rng):
    s = Scaling((2, 1))
    w = box(s, 1.0, 4)
    idx = w.indices()
    for r in (0.5, 1.0, 2.3, 5.0):
        got = set(w.ball((1, -1), r))
        expect = set()
        for i in range(w.npoints):
            d = s.distance(idx[i] * np.array(w.steps), np.array((1, -1)) * np.array(w.steps))
            if d <= r * (1 + 1e-12):
                expect.add(i)
        assert got == expect


def test_window_diameter():
    s = Scaling((2, 1))
    w = Window(s, 1.0, (-4, -4), (4, 4))
    assert w.diameter() == pytest.approx(np.sqrt(8.0) + 8.0)


def test_jet_constant_is_zero():
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    U = jet_germ(np.full(w.shape, 3.7), w, 0)
    assert np.max(np.abs(U.values)) == 0.0


def test_jet_square_example():
    s = Scaling((1,))
    w = Window(s, 1.0, (-4,), (4,))
    u = (w.indices()[:, 0].astype(float) ** 2).reshape(w.shape)
    U = jet_germ(u, w, 1)
    xs = U.base.indices()[:, 0]
    ys = U.active.indices()[:, 0]
    t = ys[None, :] - xs[:, None]
    assert np.array_equal(U.values, t * (t - 1.0))


def test_jet_centering_property(rng):
    s = Scaling((2, 1))
    w = box(s, 1.0, 4)
    u = rng.standard_normal(w.shape)
    for order in (0, 1, 2, 3):
        U = jet_germ(u, w, order)
        rep = center_check(U, order + 0.9)
        assert rep.centered, rep
        if order + 1 <= 3:
            assert not center_check(U, order + 1.0).centered


def test_frozen_coefficient_degenerate_cases(rng):
    s = Scaling((1, 1))
    w = box(s, 1.0, 4)
    u = rng.standard_normal(w.shape)
    v = rng.standard_normal(w.shape)
    zero = np.zeros(w.shape)
    F = frozen_coefficient_germ(u, v, zero, w, 1)
    J = jet_germ(u, w, 1)
    assert np.max(np.abs(F.values - J.values)) == 0.0
    # exact cancellation when the coefficient is one and the fields agree
    E = frozen_coefficient_germ(u, u, np.ones(w.shape), w, 1)
    assert np.max(np.abs(E.values)) < 1e-14


def test_frozen_coefficient_centering(rng):
    s = Scaling((1, 1))
    w = box(s, 1.0, 4)  # 9 x 9
    u = rng.standard_normal(w.shape)
    v = rng.standard_normal(w.shape)
    a = rng.standard_normal(w.shape)
    F = frozen_coefficient_germ(u, v, a, w, 1)
    assert center_check(F, 1.5).centered
    const = np.full(w.shape, 0.7)
    F2 = frozen_coefficient_germ(u, v, const, w, 1)
    J2 = jet_germ(u - 0.7 * v, w, 1)
    assert np.max(np.abs(F2.values - J2.values)) < 1e-12


def test_scale_germ_identity_and_round_trip(rng):
    s = Scaling((2, 1))
    U = random_germ(rng, s, half=3)
    ident = scale_germ(U, ScaleMap(s, (0.0, 0.0), 1.0))
    assert ident.base == U.base and np.array_equal(ident.values, U.values)
    down = scale_germ(U, ScaleMap(s, (0.0, 0.0), 2.0))
    back = scale_germ(down, ScaleMap(s, (0.0, 0.0), 0.5))
    assert back.base == U.base and back.active == U.active
    assert np.array_equal(back.values, U.values)


def test_scale_germ_group_action(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=4)
    a = ScaleMap(s, (1.0, 0.0), 2.0)
    b = ScaleMap(s, (1.0, 1.0), 2.0)
    # recentering of the second map must land on the first map's finer lattice
    b_fine = ScaleMap(s, (0.5, 0.5), 2.0)
    one = scale_germ(scale_germ(U, a), b_fine)
    two = scale_germ(U, compose_scale(a, b_fine))
    assert one.base == two.base and one.active == two.active
    assert np.array_equal(one.values, two.values)
    with pytest.raises(LatticeCompatibilityError):
        scale_germ(U, ScaleMap(s, (0.3, 0.0), 2.0))


def test_restrict_initial():
    s = Scaling((2, 1))
    w = Window(s, 1.0, (0, -3), (4, 3))
    rng = np.random.default_rng(3)
    spatial = rng.standard_normal((7, 7))
    vals = np.tile(spatial, (5 * 7 // 7, 1))
    # constant-in-time germ: value depends only on spatial indices
    full = np.zeros((w.npoints, w.npoints))
    bi = w.indices()
    for ib in range(w.npoints):
        for ia in range(w.npoints):
            full[ib, ia] = spatial[bi[ib][1] + 3, bi[ia][1] + 3]
    U = Germ(w, w, full)
    R = restrict_initial(U)
    assert R.scaling.s == (1,)
    assert np.array_equal(R.values, spatial)
    Z = Germ(w, w, np.zeros((w.npoints, w.npoints)))
    assert np.max(np.abs(restrict_initial(Z).values)) == 0.0
    w_nozero = Window(s, 1.0, (1, -3), (4, 3))
    U2 = Germ(w_nozero, w_nozero, np.zeros((w_nozero.npoints,) * 2))
    with pytest.raises(DomainTooSmallError):
        restrict_initial(U2)


def test_center_check_violation():
    s = Scaling((1, 1))
    w = box(s, 1.0, 2)
    U = Germ(w, w, np.ones((w.npoints, w.npoints)))
    rep = center_check(U, 1.5)
    assert not rep.centered
    assert rep.worst == 1.0
    assert rep.witness_gamma == (0, 0)


def test_center_check_order_one_window():
    # vanishing value and first differences at the base point is exactly
    # centering for orders in [1, 2)
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    X = w.coords()
    vals = np.zeros((w.npoints, w.npoints))
    for ib in range(w.npoints):
        dx = X[:, 0] - X[ib, 0]
        dy = X[:, 1] - X[ib, 1]
        vals[ib] = dx * dx - dx + 3 * (dy * dy - dy)  # centered falling factorials
    U = Germ(w, w, vals)
    assert center_check(U, 1.0).centered
    assert center_check(U, 1.9).centered
    assert not center_check(U, 2.0).centered


_gradings = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda w: Scaling(tuple(w)))
_grid_scales = st.sampled_from((1.0, 0.5, 0.37))


@settings(max_examples=80, deadline=None)
@given(s=_gradings, eps=_grid_scales, data=st.data())
def test_forward_differences_lower_falling_factorials(s, eps, data):
    # D^gamma k^(delta) = delta!/(delta-gamma)! k^(delta-gamma), and 0 unless
    # gamma <= delta: in integers at eps 1, to 1e-12 relative otherwise
    idx = multi_indices(s, 4)
    gamma, delta = data.draw(st.sampled_from(idx)), data.draw(st.sampled_from(idx))
    w = box(s, eps, 4)
    at = w.shrink(hi_margin=gamma)
    exact = eps == 1.0
    steps = (1,) * s.d if exact else w.steps
    points = (lambda win: win.indices().T) if exact else (lambda win: win.coords().T)
    f = falling_factorial(points(w), steps, delta).reshape(w.shape)
    got = difference_coefficients(f, w, [gamma], at)[gamma]
    if all(g <= dl for g, dl in zip(gamma, delta)):
        fac = math.prod(math.perm(dl, g) for g, dl in zip(gamma, delta))
        expect = fac * falling_factorial(points(at), steps,
                                         tuple(dl - g for g, dl in zip(gamma, delta)))
        scale = np.max(np.abs(expect))
    else:
        expect = np.zeros(at.npoints, dtype=f.dtype)
        scale = np.max(np.abs(f)) / math.prod(h ** g for h, g in zip(w.steps, gamma))
    if exact:
        assert got.dtype.kind == "i" and np.array_equal(got, expect)
    else:
        assert np.max(np.abs(got - expect)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(s=_gradings, eps=_grid_scales, order=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_jet_of_falling_factorial_polynomial_vanishes(s, eps, order, seed):
    w = box(s, eps, 4)
    gammas = multi_indices(s, order)
    coef = dict(zip(gammas, np.random.default_rng(seed).standard_normal(len(gammas))))
    u = sum(c * falling_factorial(w.coords().T, w.steps, g) for g, c in coef.items())
    U = jet_germ(u.reshape(w.shape), w, order)
    # the scale is the size of the Taylor terms at each base point x, not the
    # sup of u: for a polynomial the coefficient of (y - x)^(gamma) is the sum
    # over delta of coef * C(delta, gamma) x^(delta - gamma), and a degree-4
    # expansion across the window exceeds sup |u| by up to about 1e3
    X = U.base.coords()
    offsets = [w.coords()[None, :, j] - X[:, None, j] for j in range(s.d)]
    size = 0.0
    for g in gammas:
        a = sum(c * math.prod(math.comb(p, q) for p, q in zip(dl, g))
                * falling_factorial(X.T, w.steps, tuple(p - q for p, q in zip(dl, g)))
                for dl, c in coef.items() if all(q <= p for p, q in zip(dl, g)))
        size = size + np.abs(a)[:, None] * np.abs(falling_factorial(offsets, w.steps, g))
    assert np.max(np.abs(U.values)) <= 1e-12 * np.max(size)


def test_jet_boundary_error():
    s = Scaling((1,))
    w = Window(s, 1.0, (0,), (1,))
    with pytest.raises(BoundaryError):
        jet_germ(np.zeros(w.shape), w, 3)


def test_germ_io_round_trip(rng):
    s = Scaling((2, 1))
    U = random_germ(rng, s, eps=0.5, half=2, complex_values=True)
    text = germ_to_text(U)
    V = germ_from_text(text)
    assert V.base == U.base and V.active == U.active
    assert np.array_equal(V.values, U.values)
    assert germ_to_text(V) == text
    W = germ_from_text(germ_to_text(DistGerm(U.base, U.active, U.values.real)))
    assert isinstance(W, DistGerm)


def test_field_io_round_trip(rng):
    s = Scaling((1, 1))
    w = box(s, 1.0, 2)
    vals = rng.standard_normal(w.npoints)
    mask = rng.random(w.npoints) < 0.5
    mask[0] = True
    v2, m2, w2 = field_from_text(field_to_text(vals, mask, w))
    assert w2 == w
    assert np.array_equal(m2, mask)
    assert np.array_equal(v2[mask], vals[mask])


def test_germ_addition_window_mismatch(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=2)
    V = random_germ(rng, s, half=3)
    with pytest.raises(DimensionError):
        _ = U + V
    W = U + U
    assert np.array_equal(W.values, 2 * U.values)


def test_restrict_initial_norm_matches_direct_slice():
    # germ manufactured from a parabolic solve: the restriction's norm equals
    # the norm of the slice germ tabulated directly
    from germcalc import norm_G_eta, preset_operator, solve_poisson
    from germcalc.harness import draw_source, member_rng

    s = Scaling((2, 1))
    L = preset_operator("heat", 2)
    w = Window(s, 1.0, (0, -6), (8, 6))
    u = solve_poisson(L, draw_source(member_rng(17, 0), w), w)
    U = jet_germ(u, w, 1)
    Rg = restrict_initial(U)

    sub = Scaling((1,))
    bwin = Window(sub, 1.0, U.base.lo[1:], U.base.hi[1:])
    awin = Window(sub, 1.0, U.active.lo[1:], U.active.hi[1:])
    vals = np.zeros((bwin.npoints, awin.npoints))
    for i, bidx in enumerate(U.base.indices()):
        if bidx[0] != 0:
            continue
        for j, aidx in enumerate(U.active.indices()):
            if aidx[0] != 0:
                continue
            vals[bwin.flat(bidx[1:]), awin.flat(aidx[1:])] = U.values[i, j].real
    direct = Germ(bwin, awin, vals)
    assert np.array_equal(Rg.values, direct.values)
    a = norm_G_eta(Rg, 1.5)
    b = norm_G_eta(direct, 1.5)
    assert a.value == b.value

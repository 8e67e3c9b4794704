import math
from fractions import Fraction

import numpy as np
import pytest

from germcalc import (Germ, ScaleMap, Scaling, construct_weights, jet_germ,
                      multi_indices, probe_coefficients, scale_germ)
from germcalc import coeff_bounds
from germcalc.coeff_bounds import _int_root_at_least, first_differing_component
from germcalc.errors import DegenerateProbeError, ValidationError, WindowTooSmallError
from germcalc.germs import Window

from conftest import box
from polyutil import Poly, jet_poly


def test_index_set_ordering():
    s = Scaling((2, 1))
    assert multi_indices(s, 3.5) == [(0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1)]
    assert first_differing_component((0, 2), (1, 0)) == 0
    assert first_differing_component((1, 1), (1, 3)) == 1


def test_weights_singleton():
    s = Scaling((1,))
    system = construct_weights(s, 0.5, 0.2)
    assert system.kappa == {(0,): 1}
    assert system.rho == {(0,): (1,)}
    ok, worst = system.verify()
    assert ok and worst == 0.0


def test_weights_one_dimensional_rho_trivial():
    s = Scaling((1,))
    system = construct_weights(s, 2.5, 0.1)
    ok, _ = system.verify()
    assert ok
    assert all(r == (1,) for r in system.rho.values())


def test_weights_two_dimensional_verify():
    s = Scaling((2, 1))
    system = construct_weights(s, 3.5, 0.1)
    ok, worst = system.verify()
    assert ok and worst <= 1.0
    # direct summation, independently of the verify method
    delta = Fraction(0.1)
    for g in system.indices:
        total = sum((system.cross_term(b, g) for b in system.indices if b != g),
                    Fraction(0))
        assert total <= delta * system.kappa[g]


def test_weights_monotone_in_delta():
    s = Scaling((2, 1))
    big = construct_weights(s, 3.5, 0.1)
    small = construct_weights(s, 3.5, 0.05)
    for g in big.indices:
        assert small.kappa[g] >= big.kappa[g]


def test_weights_deterministic():
    s = Scaling((1, 1, 2))
    a = construct_weights(s, 2.5, 0.2)
    b = construct_weights(s, 2.5, 0.2)
    assert a == b


def test_weights_validation():
    with pytest.raises(ValidationError):
        construct_weights(Scaling((1,)), 1.0, 0.0)


def test_probe_zero_germ():
    s = Scaling((1, 1))
    w = box(s, 1.0, 4)
    U = Germ(w, w, np.zeros((w.npoints, w.npoints)))
    rep = probe_coefficients(U, (0, 0), (1, 0), 1.5, 0.5)
    assert all(abs(v) <= 1e-12 for v in rep.coefficients.values())
    assert rep.residual <= 1e-12


def test_probe_recovers_jet_difference():
    s = Scaling((1, 1))
    w = box(s, 1.0, 8)
    pts = w.coords()
    u_poly = Poly(2, {(0, 0): 0.7, (1, 0): -1.2, (0, 1): 2.0, (1, 1): 0.5,
                      (2, 0): -0.3, (0, 2): 1.1})
    u = u_poly.eval(pts).reshape(w.shape)
    eta, alpha = 2.5, 0.5
    U = jet_germ(u, w, math.floor(eta))
    x_idx, y_idx = (1, 0), (0, 1)
    rep = probe_coefficients(U, x_idx, y_idx, eta, alpha)
    # independent oracle: the comparison polynomial is the jet difference
    qx = jet_poly(u_poly, np.array([1.0, 0.0]), 2, s, 1.0)
    qy = jet_poly(u_poly, np.array([0.0, 1.0]), 2, s, 1.0)
    expect = (qy - qx).shifted(np.array([0.0, 1.0]))
    for beta, nu in rep.coefficients.items():
        want = expect.coeffs.get(beta, 0.0)
        assert abs(nu - want) <= 1e-8 * max(1.0, abs(want))
    assert rep.residual <= 1e-8
    assert rep.condition < 1e9


def test_probe_scaling_relation():
    s = Scaling((1, 1))
    w = box(s, 1.0, 8)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(w.shape)
    eta, alpha = 1.5, 0.5
    U = jet_germ(u, w, 1)
    x_idx, y_idx = (1, 0), (0, 0)
    rep = probe_coefficients(U, x_idx, y_idx, eta, alpha)
    # blow-up normalization: coefficients scale by R**(eta - |beta|) and the
    # reported ratios are invariant
    R = 2.0
    # same index table on the coarser lattice, blown up by R**eta
    V = scale_germ(U, ScaleMap(s, (0.0, 0.0), 1.0 / R)) * (R ** eta)
    rep2 = probe_coefficients(V, x_idx, y_idx, eta, alpha)
    for beta in rep.coefficients:
        want = R ** (eta - s.degree(beta)) * rep.coefficients[beta]
        assert abs(rep2.coefficients[beta] - want) <= 1e-9 * max(1.0, abs(want))
        assert rep2.ratios[beta] == pytest.approx(rep.ratios[beta], rel=1e-9, abs=1e-12)


def test_probe_window_too_small():
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    U = Germ(w, w, np.zeros((w.npoints, w.npoints)))
    with pytest.raises(WindowTooSmallError):
        probe_coefficients(U, (3, 3), (-3, -3), 1.5, 0.5)


def test_probe_degenerate_weight_system():
    s = Scaling((1,))
    w = Window(s, 1.0, (-8,), (8,))
    U = Germ(w, w, np.zeros((17, 17)))
    system = construct_weights(s, 1.5, 10.0)  # loose target keeps all weights one
    assert all(v == 1 for v in system.kappa.values())
    with pytest.raises(DegenerateProbeError):
        probe_coefficients(U, (1,), (0,), 1.5, 0.5, weights=system)


from hypothesis import given, settings, strategies as st


@given(st.sampled_from([(1,), (2,), (1, 1), (2, 1), (1, 2)]),
       st.floats(0.5, 3.5), st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_weights_invariant_property(s, eta, delta):
    system = construct_weights(Scaling(s), eta, delta)
    ok, worst = system.verify()
    assert ok and worst <= 1.0


@given(st.one_of(st.fractions(min_value=0, max_value=10**30, max_denominator=10**6),
                 st.integers(1, 10**30).map(Fraction)),
       st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_int_root_at_least(bound, q):
    r = _int_root_at_least(bound, q)
    assert r >= 1 and r ** q >= bound
    assert r == 1 or (r - 1) ** q < bound


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_int_root_at_least_perfect_powers(q):
    for r in (2, 3, 10**5 + 7, 31622776601):
        n = r ** q
        assert _int_root_at_least(Fraction(n), q) == r
        assert _int_root_at_least(Fraction(n + 1), q) == r + 1
        assert _int_root_at_least(Fraction(n) - Fraction(1, 10**9), q) == r


def _int_root_linear(bound: Fraction, q: int) -> int:
    """Reference: a float guess, then unit steps with exact Fraction powers."""
    if bound <= 1:
        return 1
    r = max(1, int(round(float(bound) ** (1.0 / q))))
    while Fraction(r) ** q < bound:
        r += 1
    while r > 1 and Fraction(r - 1) ** q >= bound:
        r -= 1
    return r


@pytest.mark.parametrize("s, eta", [((2, 1), 5.5), ((1, 1, 1), 4.5), ((2, 1, 1), 4.5)])
def test_weights_match_linear_root_search(monkeypatch, s, eta):
    fast = construct_weights(Scaling(s), eta, 0.1).to_text()
    monkeypatch.setattr(coeff_bounds, "_int_root_at_least", _int_root_linear)
    assert construct_weights(Scaling(s), eta, 0.1).to_text() == fast

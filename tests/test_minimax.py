import numpy as np
import pytest

from germcalc._minimax import (achieved_value, exchange_minimax, lp_minimax, solve_minimax,
                               weighted_lstsq)

from polyutil import grid_minimax


def random_instance(rng, n=None, p=None):
    n = n or int(rng.integers(8, 41))
    p = p if p is not None else int(rng.integers(1, 6))
    Phi = rng.standard_normal((n, p))
    r = rng.standard_normal(n)
    w = rng.uniform(0.1, 2.0, n)
    return Phi, r, w


def test_exchange_matches_lp(rng):
    for _ in range(60):
        Phi, r, w = random_instance(rng)
        v1, c1 = exchange_minimax(Phi, r, w)
        v2, c2 = lp_minimax(Phi, r, w)
        assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-11)
        # both certificates are achieved values of their own fits
        assert v1 == pytest.approx(achieved_value(Phi, r, w, c1), rel=1e-12)
        assert v2 == pytest.approx(achieved_value(Phi, r, w, c2), rel=1e-12)


def test_least_squares_is_upper_bound(rng):
    for _ in range(30):
        Phi, r, w = random_instance(rng)
        c0 = weighted_lstsq(Phi, r, w)
        v, _ = exchange_minimax(Phi, r, w)
        assert achieved_value(Phi, r, w, c0) >= v - 1e-12


def test_grid_oracle_brackets_optimum(rng):
    for _ in range(10):
        Phi, r, w = random_instance(rng, n=25, p=2)
        v_ex, _ = exchange_minimax(Phi, r, w)
        v_grid, _, step = grid_minimax(Phi, r, w)
        lip = float(np.max(np.sum(np.abs(Phi), axis=1) / w))
        assert v_ex <= v_grid + 1e-9
        assert v_grid - v_ex <= lip * step * np.sqrt(Phi.shape[1]) + 1e-9


def test_no_free_coefficients():
    r = np.array([1.0, -3.0, 2.0])
    w = np.array([1.0, 2.0, 1.0])
    Phi = np.zeros((3, 0))
    for solver in (exchange_minimax, lp_minimax):
        v, c = solver(Phi, r, w)
        assert v == pytest.approx(2.0)
        assert c.size == 0


def test_interpolation_when_underdetermined(rng):
    Phi = rng.standard_normal((3, 5))
    r = rng.standard_normal(3)
    w = np.ones(3)
    v, c = exchange_minimax(Phi, r, w)
    assert v < 1e-10


def test_complex_split_semantics(rng):
    Phi, r, w = random_instance(rng, n=20, p=3)
    z = r + 1j * rng.standard_normal(20)
    v, c = solve_minimax(Phi, z, w)
    # achieved modulus ratio of the combined fit, at least both split optima
    assert v == pytest.approx(float(np.max(np.abs(z - Phi @ c) / w)), rel=1e-12)
    v_re, _ = exchange_minimax(Phi, z.real.copy(), w)
    v_im, _ = exchange_minimax(Phi, z.imag.copy(), w)
    assert v >= max(v_re, v_im) - 1e-12
    assert v <= np.hypot(v_re, v_im) + 1e-12


def test_exact_fit_value_zero(rng):
    # data generated by a polynomial in the column span: optimum is zero
    Phi = rng.standard_normal((30, 3))
    c_true = rng.standard_normal(3)
    r = Phi @ c_true
    w = rng.uniform(0.5, 1.5, 30)
    v, c = exchange_minimax(Phi, r, w)
    assert v < 1e-12
    assert np.allclose(c, c_true, atol=1e-9)

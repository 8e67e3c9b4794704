import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germcalc._minimax import achieved_value, lp_minimax, solve_minimax

from polyutil import grid_minimax, weighted_lstsq


def random_instance(rng, n=None, p=None):
    n = n or int(rng.integers(8, 41))
    p = p if p is not None else int(rng.integers(1, 6))
    Phi = rng.standard_normal((n, p))
    r = rng.standard_normal(n)
    w = rng.uniform(0.1, 2.0, n)
    return Phi, r, w


def test_solve_matches_lp(rng):
    for _ in range(60):
        Phi, r, w = random_instance(rng)
        v1, c1 = solve_minimax(Phi, r, w)
        v2, c2 = lp_minimax(Phi, r, w)
        assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-11)
        # both certificates are achieved values of their own fits
        assert v1 == pytest.approx(achieved_value(Phi, r, w, c1), rel=1e-12)
        assert v2 == pytest.approx(achieved_value(Phi, r, w, c2), rel=1e-12)


def test_least_squares_is_upper_bound(rng):
    for _ in range(30):
        Phi, r, w = random_instance(rng)
        c0 = weighted_lstsq(Phi, r, w)
        v, _ = solve_minimax(Phi, r, w)
        assert achieved_value(Phi, r, w, c0) >= v - 1e-12


def test_grid_oracle_brackets_optimum(rng):
    for _ in range(10):
        Phi, r, w = random_instance(rng, n=25, p=2)
        v_sol, _ = solve_minimax(Phi, r, w)
        v_grid, _, step = grid_minimax(Phi, r, w)
        lip = float(np.max(np.sum(np.abs(Phi), axis=1) / w))
        assert v_sol <= v_grid + 1e-9
        assert v_grid - v_sol <= lip * step * np.sqrt(Phi.shape[1]) + 1e-9


def test_no_free_coefficients():
    r = np.array([1.0, -3.0, 2.0])
    w = np.array([1.0, 2.0, 1.0])
    Phi = np.zeros((3, 0))
    for solver in (solve_minimax, lp_minimax):
        v, c = solver(Phi, r, w)
        assert v == pytest.approx(2.0)
        assert c.size == 0


def test_interpolation_when_underdetermined(rng):
    Phi = rng.standard_normal((3, 5))
    r = rng.standard_normal(3)
    w = np.ones(3)
    v, c = solve_minimax(Phi, r, w)
    assert v < 1e-10


def test_complex_split_semantics(rng):
    Phi, r, w = random_instance(rng, n=20, p=3)
    z = r + 1j * rng.standard_normal(20)
    v, c = solve_minimax(Phi, z, w)
    # achieved modulus ratio of the combined fit, at least both split optima
    assert v == pytest.approx(float(np.max(np.abs(z - Phi @ c) / w)), rel=1e-12)
    v_re, _ = solve_minimax(Phi, z.real.copy(), w)
    v_im, _ = solve_minimax(Phi, z.imag.copy(), w)
    assert v >= max(v_re, v_im) - 1e-12
    assert v <= np.hypot(v_re, v_im) + 1e-12


def test_exact_fit_value_zero(rng):
    # data generated by a polynomial in the column span: optimum is zero
    Phi = rng.standard_normal((30, 3))
    c_true = rng.standard_normal(3)
    r = Phi @ c_true
    w = rng.uniform(0.5, 1.5, 30)
    v, c = solve_minimax(Phi, r, w)
    assert v < 1e-12
    assert np.allclose(c, c_true, atol=1e-9)


def test_fewer_points_than_coefficients_is_solved_exactly():
    # least squares gives 0.8 here; the optimum is 2/3 at c = (1/3, anything)
    Phi = np.array([[1.0, 0.0], [2.0, 0.0]])
    r = np.array([1.0, 0.0])
    w = np.ones(2)
    v, c = solve_minimax(Phi, r, w)
    assert v == pytest.approx(2 / 3, rel=1e-12)
    assert v == pytest.approx(lp_minimax(Phi, r, w)[0], rel=1e-12)
    assert v == achieved_value(Phi, r, w, c)


def _shaped_instance(kind, n, p, rng):
    """One p <= 2 problem of a shape the vertex enumeration must survive."""
    if kind == "lattice":
        # integer offsets on few lines: many collinear points, exact ties
        Phi = rng.integers(-3, 4, (n, p)).astype(float)
        if p == 2:
            Phi[: n // 2, 1] = 2 * Phi[: n // 2, 0]
    elif kind == "rank-deficient":
        Phi = np.outer(rng.standard_normal(n), rng.standard_normal(p))
    elif kind == "duplicated":
        rows = rng.integers(0, max(1, n // 3), n)
        Phi = rng.integers(-2, 3, (max(1, n // 3), p)).astype(float)[rows]
    else:
        Phi = rng.standard_normal((n, p))
    if kind == "lattice" or kind == "duplicated":
        w = rng.integers(1, 4, n).astype(float)
    else:
        w = rng.uniform(0.1, 3.0, n)
    if kind == "exact":
        r = Phi @ rng.standard_normal(p)
    elif kind in ("lattice", "duplicated"):
        r = rng.integers(-3, 4, n).astype(float)
    else:
        r = rng.standard_normal(n)
    return Phi, r, w


@given(st.sampled_from(["gaussian", "lattice", "rank-deficient", "duplicated", "exact"]),
       st.integers(1, 300), st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_solve_matches_lp_on_p_up_to_two(kind, n, p, seed):
    Phi, r, w = _shaped_instance(kind, n, p, np.random.default_rng(seed))
    v, c = solve_minimax(Phi, r, w)
    v_lp, _ = lp_minimax(Phi, r, w)
    assert v == pytest.approx(achieved_value(Phi, r, w, c), rel=1e-12, abs=0)
    assert v <= v_lp * (1 + 1e-12) + 1e-13 * float(np.max(np.abs(r) / w))
    assert v == pytest.approx(v_lp, rel=1e-9, abs=1e-9)


def test_frozen_probe_does_not_import_the_lp():
    # p <= 2 fits never reach HiGHS, so a 2D frozen probe leaves scipy's
    # optimizer (and its memory) out of the process
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from germcalc.cli import main; "
            "assert main(['probe', '--scaling', '1,1', '--preset', 'laplacian', "
            "'--germ', 'frozen', '--window', '5', '--json']) == 0; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"

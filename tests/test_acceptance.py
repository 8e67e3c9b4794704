"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from germcalc import (DistGerm, Germ, ScaleMap, Scaling,
                      centered_rigidity_check, construct_weights, continuum_symbol,
                      discrete_symbol, is_discretely_elliptic, jet_germ,
                      mcshane_extend, multi_indices,
                      norm_G_eta, polynomial_kernel, preset_operator,
                      run_probe, scale_germ, seminorm_G_eta_alpha,
                      seminorm_G_gamma, symbol_zero_search)
from germcalc.discrete_ops import apply_to_germ
from germcalc.germs import Window
from germcalc.harness import ExperimentConfig, member_rng, schauder_sides
from germcalc.norms import _pair_problem
from germcalc._minimax import lp_minimax, solve_minimax

from polyutil import (Poly, cross_term, grid_minimax, monomial_diff_rule_check,
                      rescaled_sides)


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {desc}")
        raise
    elapsed = time.monotonic() - t0
    note = f" [{elapsed:.1f}s]"
    print(f"ACCEPTANCE {num:02d} PASS - {desc}{note}")
    if budget is not None:
        assert elapsed <= budget, f"criterion {num} exceeded its {budget}s budget"


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_01_scaling_identities():
    with criterion(1, "scaling identities under joint rescaling", budget=30.0):
        eta, alpha = 1.5, 0.5
        gamma = -0.5
        rng = np.random.default_rng(101)
        cases = [(Scaling((1, 1)), preset_operator("laplacian", 2)),
                 (Scaling((2, 1)), preset_operator("heat", 2))]
        for scaling, L in cases:
            m = L.order
            for _ in range(10):
                w = Window(scaling, 1.0, (-4, -4), (4, 4))
                vals = rng.standard_normal((81, 81))
                U = Germ(w, w, vals)
                V = DistGerm(w, w, vals)
                n_eta = norm_G_eta(U, eta).value
                n_ea = seminorm_G_eta_alpha(U, eta, alpha).value
                n_g = seminorm_G_gamma(V, gamma).value
                LU = apply_to_germ(L, U)
                n_op = seminorm_G_gamma(LU, gamma).value
                for R in (2.0, 4.0):
                    S0 = ScaleMap(scaling, (0.0, 0.0), R)
                    Sw = ScaleMap(scaling, (1.0, 1.0), R)
                    Us, Uw = scale_germ(U, S0), scale_germ(U, Sw)
                    Vs = scale_germ(V, S0)
                    assert rel_err(norm_G_eta(Us, eta).value, R ** eta * n_eta) <= 1e-10
                    assert rel_err(seminorm_G_eta_alpha(Us, eta, alpha).value,
                                   R ** eta * n_ea) <= 1e-10
                    assert rel_err(seminorm_G_gamma(Vs, gamma).value,
                                   R ** gamma * n_g) <= 1e-10
                    # operator covariance on the rescaled lattice
                    assert rel_err(seminorm_G_gamma(apply_to_germ(L, Us), gamma).value,
                                   R ** (gamma + m) * n_op) <= 1e-10
                    # locally uniform family, with recentering
                    assert rel_err(norm_G_eta(Uw, eta, R=1.0).value,
                                   R ** eta * norm_G_eta(U, eta, R=R).value) <= 1e-10
                    assert rel_err(seminorm_G_eta_alpha(Uw, eta, alpha, R=1.0).value,
                                   R ** eta * seminorm_G_eta_alpha(U, eta, alpha,
                                                                   R=R).value) <= 1e-10
                    assert rel_err(
                        seminorm_G_gamma(apply_to_germ(L, Uw), gamma, R=1.0).value,
                        R ** eta * seminorm_G_gamma(LU, gamma, R=R).value) <= 1e-10


def test_criterion_02_ellipticity_verdicts():
    with criterion(2, "ellipticity verdicts for the named operators", budget=5.0):
        rep = is_discretely_elliptic(preset_operator("laplacian", 2), 1.0, 64)
        assert rep.verdict == "elliptic"
        rep = is_discretely_elliptic(preset_operator("heat", 2), 1.0, 64)
        assert rep.verdict == "elliptic"
        # the first-order complex-direction operator: elliptic in the
        # continuum-symbol sense the examples assert (no lattice realization
        # of it can clear the dual-torus scan; see the discrete_ops tests)
        rep = is_discretely_elliptic(preset_operator("cauchy-riemann", 2), 1.0, 64)
        assert rep.continuum_verdict == "elliptic"
        assert rep.continuum_margin > 1e-6
        rep = is_discretely_elliptic(preset_operator("eps-degenerate", 2), 1.0, 64)
        assert rep.verdict == "not-elliptic"
        assert rep.continuum_verdict == "not-elliptic"
        rng = np.random.default_rng(7)
        xi = rng.standard_normal((1000, 2)) * 5
        vals = continuum_symbol(preset_operator("eps-degenerate", 2), xi)
        assert np.max(np.abs(vals)) <= 1e-12


def test_criterion_03_symbol_scale_covariance():
    with criterion(3, "lattice symbol scale covariance"):
        rng = np.random.default_rng(23)
        for name in ("laplacian", "heat", "cauchy-riemann"):
            L = preset_operator(name, 2)
            m = L.order
            for eps0, eps in ((1.0, 0.5), (1.0, 0.25)):
                caps = np.array([math.pi * eps ** (-s) for s in L.scaling.s])
                theta = rng.uniform(-1, 1, (100, 2)) * caps
                phi = theta * np.array([(eps / eps0) ** s for s in L.scaling.s])
                lhs = discrete_symbol(L, eps0, phi)
                rhs = (eps0 / eps) ** (-m) * discrete_symbol(L, eps, theta)
                err = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
                assert np.max(err) <= 1e-12


def test_criterion_04_monomial_calculus():
    with criterion(4, "falling-factorial difference rule, degrees up to 4"):
        scalings = [Scaling(s) for s in
                    ((1,), (2,), (3,), (1, 1), (2, 1), (3, 2),
                     (1, 1, 1), (2, 1, 1), (3, 2, 1))]
        for scaling in scalings:
            idx = multi_indices(scaling, 4)
            for gamma in idx:
                for delta in idx:
                    err, exact = monomial_diff_rule_check(scaling, 1.0, gamma, delta)
                    assert exact and err == 0, (scaling.s, gamma, delta)
                    err, _ = monomial_diff_rule_check(scaling, 0.5, gamma, delta)
                    assert err <= 1e-12, (scaling.s, gamma, delta, err)


def test_criterion_05_liouville_structure():
    with criterion(5, "polynomial kernels, rigidity, symbol zero search"):
        for d in (1, 2):
            L = preset_operator("laplacian", d)
            assert polynomial_kernel(L, 1.0, 1.5).dimension == d + 1
            assert symbol_zero_search(L, 1.0, 64) == []
        scalings = [Scaling(s) for s in
                    ((1,), (2,), (3,), (1, 1), (2, 1), (3, 2), (3, 3),
                     (1, 1, 1), (2, 1, 1), (3, 2, 1))]
        for scaling in scalings:
            for eta in (0.0, 1.0, 1.5, 2.5, 3.0, 4.0):
                for eps in (1.0, 0.5):
                    assert centered_rigidity_check(scaling, eps, eta), \
                        (scaling.s, eta, eps)


def test_criterion_06_jet_germ_nullity():
    with criterion(6, "three-point semi-norm vanishes on polynomial jets"):
        rng = np.random.default_rng(61)
        s = Scaling((1, 1))
        w = Window(s, 1.0, (-4, -4), (4, 4))
        pts = w.coords()
        for eta, alpha in ((1.5, 0.5), (2.5, 1.5)):
            deg = math.floor(eta)
            for _ in range(5):
                poly = Poly(2, {g: rng.standard_normal()
                                for g in multi_indices(s, deg)})
                u = poly.eval(pts).reshape(w.shape)
                U = jet_germ(u, w, deg)
                assert seminorm_G_eta_alpha(U, eta, alpha).value <= 1e-8


def test_criterion_07_minimax_oracle_equivalence():
    with criterion(7, "minimax fit: LP vs grid oracle vs solve_minimax"):
        rng = np.random.default_rng(77)
        cases = []
        s1, s2 = Scaling((1,)), Scaling((1, 1))
        for k in range(50):
            if k % 2 == 0:
                w = Window(s1, 1.0, (-8,), (8,))   # 16 sample points, 2 coeffs
                U = Germ(w, w, rng.standard_normal((17, 17)))
                eta, alpha = (1.5, 0.5) if k % 4 == 0 else (2.5, 0.8)
            else:
                w = Window(s2, 1.0, (-2, -2), (2, 2))  # 24 sample points
                U = Germ(w, w, rng.standard_normal((25, 25)))
                eta, alpha = (1.5, 0.5) if k % 4 == 1 else (2.5, 1.2)  # 3 or 6 coeffs
            xf, yf = rng.choice(U.base.npoints, size=2, replace=False)
            Phi, r, wts = _pair_problem(U, int(xf), int(yf), eta, alpha, None)
            assert Phi.shape[0] <= 40 and Phi.shape[1] + 1 <= 6
            cases.append((Phi, np.real(r), wts))
        for Phi, r, wts in cases:
            v_lp, _ = lp_minimax(Phi, r, wts)
            v_sol, _ = solve_minimax(Phi, r, wts)
            v_grid, _, step = grid_minimax(Phi, r, wts)
            lip = (float(np.max(np.sum(np.abs(Phi), axis=1) / wts))
                   if Phi.shape[1] else 0.0)
            assert abs(v_lp - v_sol) <= 1e-6 * max(1.0, v_lp)
            assert v_lp <= v_grid + 1e-9
            assert v_grid - v_lp <= lip * step * math.sqrt(max(Phi.shape[1], 1)) + 1e-9


def test_criterion_08_weight_construction():
    with criterion(8, "absorption weight system construction"):
        system = construct_weights(Scaling((2, 1)), 3.5, 0.1)
        delta = Fraction(0.1)
        for g in system.indices:
            total = sum((cross_term(system, b, g) for b in system.indices if b != g),
                        Fraction(0))
            assert total <= delta * system.kappa[g]
        one_d = construct_weights(Scaling((1,)), 2.5, 0.1)
        ok, _ = one_d.verify()
        assert ok
        assert all(r == (1,) for r in one_d.rho.values())


def test_criterion_09_mcshane_extension():
    with criterion(9, "inf-convolution extension keeps the Holder constant"):
        rng = np.random.default_rng(99)
        for k in range(50):
            if k % 2 == 0:
                scaling = Scaling((1,))
                w = Window(scaling, 1.0, (-8,), (8,))
            else:
                scaling = Scaling((1, 1))
                w = Window(scaling, 1.0, (-4, -4), (4, 4))
            alpha = float(rng.uniform(0.3, 0.9))
            f = rng.standard_normal(w.npoints)
            mask = rng.random(w.npoints) < 0.4
            mask[int(rng.integers(w.npoints))] = True
            pts = w.coords()
            D = scaling.pairwise_distance(pts, pts)
            sub = np.nonzero(mask)[0]
            M = max((abs(f[i] - f[j]) / D[i, j] ** alpha
                     for i in sub for j in sub if i != j), default=1.0)
            g = mcshane_extend(f, mask, w, alpha, M)
            assert np.array_equal(g[mask], f[mask])
            spread = np.abs(g[:, None] - g[None, :])
            bound = M * D ** alpha
            np.fill_diagonal(bound, np.inf)
            assert np.max(spread - bound) <= 1e-9


def test_criterion_10_schauder_ratio_stability():
    with criterion(10, "window-restricted norm ratio stability across grids",
                   budget=600.0):
        cfg = ExperimentConfig(Scaling((1,)), operator="laplacian", eta=1.5,
                               alpha=0.5, radius=16, eps_list=(1.0, 0.5, 0.25),
                               ensemble=50, seed=1234)
        reports = run_probe(cfg)
        assert len(reports) == 150
        max_ratio = {}
        for eps in cfg.eps_list:
            ratios = [r.ratio for r in reports if r.eps == eps]
            assert len(ratios) == 50
            assert all(math.isfinite(x) and x > 0 for x in ratios)
            max_ratio[eps] = max(ratios)
        spread = max(max_ratio.values()) / min(max_ratio.values())
        assert spread < 3.0, max_ratio
        # joint-rescale invariance of individual ratios
        L = cfg.validate()
        w = Window(cfg.scaling, 1.0, (-16,), (16,))
        from germcalc.harness import draw_source, solve_poisson
        for member in range(5):
            u = solve_poisson(L, draw_source(member_rng(cfg.seed, member), w), w)
            U = jet_germ(u, w, 1)
            sides = schauder_sides(U, L, cfg.eta, cfg.alpha)
            r0 = sides["lhs"] / (sides["rhs_operator"] + sides["rhs_eta_alpha"])
            for R in (2.0, 4.0):
                sc = rescaled_sides(U, L, cfg.eta, cfg.alpha, R)
                r1 = sc["lhs"] / (sc["rhs_operator"] + sc["rhs_eta_alpha"])
                assert abs(r1 - r0) <= 1e-9 * r0


def test_criterion_11_ivp_probe():
    with criterion(11, "initial-value probe with vanishing initial slice"):
        for T in (8, 16):
            cfg = ExperimentConfig(Scaling((2, 1)), operator="heat", eta=1.5,
                                   alpha=0.5, radius=8, ensemble=5, seed=7,
                                   time_extent=T, mode="ivp", zero_initial=True)
            reports = run_probe(cfg)
            assert len(reports) == 5
            for rep in reports:
                assert rep.rhs_initial <= 1e-10
                assert math.isfinite(rep.ratio) and rep.ratio > 0

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from germcalc import (DistGerm, ExperimentConfig, Germ, ScaleMap, Scaling,
                      build_default_family, frozen_coefficient_germ, jet_germ, lambda_grid,
                      mcshane_extend, norm_G_eta, norms, reevaluate_report, run_probe,
                      scale_germ, seminorm_G_eta_alpha, seminorm_G_gamma, sup_below)
from germcalc.errors import (DomainTooSmallError, InputNotHolderError,
                             UnderdeterminedFitError)
from germcalc.germs import Window
from germcalc.norms import pair_minimax, scaled_test_values, verify_family
from germcalc.geometry import multi_indices
from germcalc.norms import (_base_columns, _descending, _factor_modulo_polynomials,
                            _pair_problem, _poly_columns, _screen_bounds, _within)
from germcalc._minimax import lp_minimax

from conftest import box, germ_restricted, random_germ
from polyutil import BumpMember, grid_minimax, reference_family, reference_G_gamma


def dist_power_germ(scaling, eps, half, eta):
    w = box(scaling, eps, half)
    D = scaling.pairwise_distance(w.coords(), w.coords())
    return Germ(w, w, D ** eta)


# ---------------------------------------------------------------------------
# positive-order norm


def test_G_eta_zero_and_exact_ratio():
    s = Scaling((2, 1))
    w = box(s, 1.0, 3)
    Z = Germ(w, w, np.zeros((w.npoints, w.npoints)))
    assert norm_G_eta(Z, 1.5).value == 0.0
    U = dist_power_germ(s, 1.0, 3, 1.5)
    rep = norm_G_eta(U, 1.5)
    assert rep.value == pytest.approx(1.0, abs=1e-13)


def test_zero_germ_witness_inside_mask():
    s = Scaling((1, 1))
    w = box(s, 1.0, 2)
    Z = Germ(w, w, np.zeros((w.npoints, w.npoints)))
    for R in (None, 1.5):
        reports = [norm_G_eta(Z, 1.5, R=R)] + ([] if R is None else [sup_below(Z, R)])
        for rep in reports:
            assert rep.value == 0.0
            b, a = Z.base.flat(rep.witness["base"]), Z.active.flat(rep.witness["active"])
            d = Z.distances[b, a]
            assert (0 < d or rep.name == "sup_below") and (R is None or d < R)
            assert reevaluate_report(rep, Z) == 0.0


def test_G_eta_local_restriction_inactive(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=3)
    full = norm_G_eta(U, 1.2)
    loc = norm_G_eta(U, 1.2, R=U.active.diameter() + 1)
    assert loc.value == full.value


def test_G_eta_witness_replay(rng):
    s = Scaling((2, 1))
    U = random_germ(rng, s, half=3)
    rep = norm_G_eta(U, 1.5)
    assert abs(reevaluate_report(rep, U) - rep.value) <= 1e-12 * rep.value


# ---------------------------------------------------------------------------
# three-point semi-norm


def test_eta_alpha_zero_germ():
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    Z = Germ(w, w, np.zeros((w.npoints, w.npoints)))
    assert seminorm_G_eta_alpha(Z, 1.5, 0.5).value == 0.0


def test_eta_alpha_jet_nullity(rng):
    s = Scaling((1, 1))
    w = box(s, 1.0, 4)
    pts = w.coords()
    u = (0.3 + 2 * pts[:, 0] - pts[:, 1]).reshape(w.shape)
    U = jet_germ(u, w, 1)
    assert seminorm_G_eta_alpha(U, 1.5, 0.5).value <= 1e-8


def test_eta_alpha_single_pair_grid_oracle(rng):
    s = Scaling((1,))
    w = Window(s, 1.0, (-3,), (3,))
    U = Germ(w, w, rng.standard_normal((7, 7)))
    xf, yf = 1, 4
    val, coeffs = pair_minimax(U, xf, yf, 1.5, 0.5)
    Phi, r, wts = _pair_problem(U, xf, yf, 1.5, 0.5, None)
    v_grid, _, step = grid_minimax(Phi, np.real(r), wts)
    lip = float(np.max(np.sum(np.abs(Phi), axis=1) / wts)) if Phi.size else 0.0
    assert val <= v_grid + 1e-9
    assert v_grid - val <= lip * step + 1e-9


def test_eta_alpha_methods_agree(rng):
    # the semi-norm (screen plus exact solves) against the LP reference
    # on every base pair
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=2)
    a = seminorm_G_eta_alpha(U, 1.5, 0.5)
    D = s.pairwise_distance(U.base.coords(), U.base.coords())
    b = max(lp_minimax(*_pair_problem(U, int(xf), int(yf), 1.5, 0.5, None))[0]
            for xf, yf in zip(*np.nonzero(D > 0)))
    assert a.value == pytest.approx(b, rel=1e-8)


def test_eta_alpha_witness_replay(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=3)
    rep = seminorm_G_eta_alpha(U, 1.5, 0.5)
    assert abs(reevaluate_report(rep, U) - rep.value) <= 1e-12 * rep.value


def test_eta_alpha_upper_bound_by_explicit_jets(rng):
    # plugging the jet polynomial family gives an upper bound the solver
    # must not exceed
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    u = rng.standard_normal(w.shape)
    U = jet_germ(u, w, 1)
    rep = seminorm_G_eta_alpha(U, 1.8, 0.7)
    # jets cancel exactly, so the explicit family value is zero
    assert rep.value <= 1e-10


def test_eta_alpha_underdetermined():
    s = Scaling((1, 1))
    w = Window(s, 1.0, (0, 0), (1, 0))
    U = Germ(w, w, np.zeros((2, 2)))
    with pytest.raises(UnderdeterminedFitError):
        seminorm_G_eta_alpha(U, 2.5, 0.5)


def test_eta_alpha_validation():
    s = Scaling((1,))
    w = Window(s, 1.0, (-2,), (2,))
    U = Germ(w, w, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        seminorm_G_eta_alpha(U, 1.5, 1.5)


# ---------------------------------------------------------------------------
# negative-order semi-norm


def test_family_support_and_norm():
    s = Scaling((2, 1))
    fam = build_default_family(s, 2)
    assert fam.size == 3
    assert verify_family(fam)
    inside = fam(np.array([[0.0, 0.0]]))
    assert inside.shape == (3, 1)
    assert inside[0, 0] > 0
    # outside the unit anisotropic ball the members vanish
    outside = fam(np.array([[0.3, 0.9], [1.1, 0.0], [0.0, -1.2]]))
    assert np.max(np.abs(outside)) == 0.0


@pytest.mark.parametrize("grading,k", [((1,), 1), ((1,), 2), ((1,), 3), ((1, 1), 1),
                                       ((1, 1), 2), ((1, 1), 3), ((2, 1), 1), ((2, 1), 2),
                                       ((2, 1), 3), ((1, 2), 1), ((1, 2), 2), ((1, 1, 1), 1)])
def test_family_rows_match_members(grading, k):
    """Each row of the family evaluation, and each C^k constant, is bit for
    bit the one its member gets on its own."""
    s = Scaling(grading)
    fam = build_default_family(s, k)
    members = reference_family(grading, k)
    assert fam.norm_const == tuple(m.norm_const for m in members)
    Y = np.random.default_rng(3).uniform(-1, 1, (50, s.d))
    rows = fam.raw(Y)
    for i, axis in enumerate([None] + list(range(s.d))):
        assert np.array_equal(rows[i], BumpMember(s, axis).raw(Y))


def test_lambda_grid():
    g = lambda_grid(1.0, 8.0)
    assert g[0] == 1.0
    assert np.all(np.diff(np.log(g)) > 0)
    assert g[-1] <= 8.0 * (1 + 1e-12)
    assert lambda_grid(2.0, 1.0).size == 0


def test_G_gamma_zero_and_constant_oracle():
    s = Scaling((1, 1))
    w = box(s, 1.0, 4)
    Z = DistGerm(w, w, np.zeros((w.npoints, w.npoints)))
    assert seminorm_G_gamma(Z, -0.5).value == 0.0

    V = DistGerm(w, w, np.ones((w.npoints, w.npoints)))
    fam = build_default_family(s, 1)
    rep = seminorm_G_gamma(V, -0.5)
    # direct-summation oracle over all admissible placements
    best = 0.0
    idx = w.indices()
    A = w.coords()
    for xf in range(w.npoints):
        for lam in lambda_grid(1.0, w.diameter() / 2):
            if not w.ball_fits(idx[xf], lam):
                continue
            totals = np.zeros(fam.size)
            for af in w.ball(idx[xf], lam):
                totals += scaled_test_values(fam, float(lam), A[xf], A[af][None, :])[:, 0]
            best = max(best, lam ** 0.5 * float(np.max(np.abs(totals))))
    assert rep.value == pytest.approx(best, rel=1e-12)


@given(st.sampled_from([(1,), (1, 1), (2, 1)]), st.sampled_from([1.0, 0.37]),
       st.sampled_from([None, 0.9, 2.0]), st.sampled_from([-0.5, -1.5]),
       st.sampled_from(["real", "complex", "ones", "zeros"]), st.integers(0, 2 ** 32 - 1))
@example((1, 1), 1.0, None, -0.5, "ones", 0)
@example((2, 1), 0.37, 0.9, -1.5, "complex", 1)
@settings(max_examples=60, deadline=None)
def test_G_gamma_matches_per_member_oracle(grading, eps, R, gamma, values, seed):
    """One evaluation per placement gives the per-member loop's value and
    witness (base, scale, member), ties included."""
    s = Scaling(grading)
    V = random_germ(np.random.default_rng(seed), s, eps=eps, half=5 if s.d == 1 else 3,
                    cls=DistGerm, complex_values=values == "complex")
    if values in ("ones", "zeros"):
        V = DistGerm(V.base, V.active, np.full(V.values.shape, float(values == "ones")))
    ref = reference_G_gamma(V, gamma, R)
    if ref is None:
        with pytest.raises(DomainTooSmallError):
            seminorm_G_gamma(V, gamma, R)
        return
    rep = seminorm_G_gamma(V, gamma, R)
    assert (rep.value, rep.witness) == ref
    assert reevaluate_report(rep, V) == rep.value


def test_G_gamma_domain_too_small():
    s = Scaling((1, 1))
    w = Window(s, 1.0, (0, 0), (1, 1))
    V = DistGerm(w, w, np.ones((4, 4)))
    with pytest.raises(DomainTooSmallError):
        seminorm_G_gamma(V, -0.5)


def test_G_gamma_witness_replay(rng):
    s = Scaling((1, 1))
    V = random_germ(rng, s, half=4, cls=DistGerm)
    rep = seminorm_G_gamma(V, -0.5)
    assert abs(reevaluate_report(rep, V) - rep.value) <= 1e-12 * rep.value


# ---------------------------------------------------------------------------
# locally uniform norms and scaling


def test_local_norm_triples(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=4)
    R = 2.0
    # joint rescale sends radius-R restriction to radius-1 restriction
    Us = scale_germ(U, ScaleMap(s, (1.0, 0.0), R))
    for kind in ("eta", "gamma", "sup"):
        if kind == "eta":
            lhs = norm_G_eta(Us, 1.5, R=1.0).value
            rhs = R ** 1.5 * norm_G_eta(U, 1.5, R=R).value
        elif kind == "gamma":
            lhs = seminorm_G_gamma(Us, -0.5, R=1.0).value
            rhs = R ** 1.5 * seminorm_G_gamma(scale_germ(U, ScaleMap(s, (1.0, 0.0), 1.0)),
                                              -0.5, R=R).value * R ** (-2.0)
            # for a plain germ (no operator), the negative norm scales by R^gamma
            rhs = R ** (-0.5) * seminorm_G_gamma(U, -0.5, R=R).value
        else:
            lhs = sup_below(Us, 1.0).value
            rhs = sup_below(U, R).value
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_local_eta_alpha_scaling(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=4)
    R = 2.0
    Us = scale_germ(U, ScaleMap(s, (0.0, 0.0), R))
    lhs = seminorm_G_eta_alpha(Us, 1.5, 0.5, R=1.0).value
    rhs = R ** 1.5 * seminorm_G_eta_alpha(U, 1.5, 0.5, R=R).value
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_monotone_in_window(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=4)
    V = germ_restricted(U, 2)
    assert norm_G_eta(V, 1.5).value <= norm_G_eta(U, 1.5).value + 1e-12
    assert (seminorm_G_eta_alpha(V, 1.5, 0.5).value
            <= seminorm_G_eta_alpha(U, 1.5, 0.5).value + 1e-10)
    g_small = seminorm_G_gamma(DistGerm(V.base, V.active, V.values), -0.5).value
    g_big = seminorm_G_gamma(DistGerm(U.base, U.active, U.values), -0.5).value
    assert g_small <= g_big + 1e-12


def test_subadditive(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=3)
    V = random_germ(rng, s, half=3)
    W = U + V
    assert (norm_G_eta(W, 1.5).value
            <= norm_G_eta(U, 1.5).value + norm_G_eta(V, 1.5).value + 1e-12)
    assert (seminorm_G_eta_alpha(W, 1.5, 0.5).value
            <= seminorm_G_eta_alpha(U, 1.5, 0.5).value
            + seminorm_G_eta_alpha(V, 1.5, 0.5).value + 1e-9)


# ---------------------------------------------------------------------------
# McShane extension


def test_mcshane_full_domain_and_constant(rng):
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    f = rng.standard_normal(w.npoints)
    mask = np.ones(w.npoints, dtype=bool)
    M = 10 * float(np.max(np.abs(f)))
    g = mcshane_extend(f, mask, w, 0.5, M)
    assert np.array_equal(g, f)
    # constants preserved on the domain, off-domain values capped by the
    # distance envelope
    const = np.full(w.npoints, 1.25)
    half = np.zeros(w.npoints, dtype=bool)
    half[::2] = True
    g2 = mcshane_extend(const, half, w, 0.5, 1.0)
    assert np.array_equal(g2[half], const[half])
    D = s.pairwise_distance(w.coords(), w.coords()[half])
    envelope = np.min(D, axis=1) ** 0.5
    assert np.all(g2 >= 1.25 - 1e-12) and np.all(g2 <= 1.25 + envelope + 1e-12)


def test_mcshane_random_instances(rng):
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    pts = w.coords()
    D = s.pairwise_distance(pts, pts)
    alpha = 0.6
    for _ in range(10):
        f = rng.standard_normal(w.npoints)
        mask = rng.random(w.npoints) < 0.4
        mask[int(rng.integers(w.npoints))] = True
        sub = np.nonzero(mask)[0]
        ratios = [abs(f[i] - f[j]) / D[i, j] ** alpha
                  for i in sub for j in sub if i != j]
        M = max(ratios) if ratios else 1.0
        g = mcshane_extend(f, mask, w, alpha, M)
        assert np.array_equal(g[mask], f[mask])
        G = np.abs(g[:, None] - g[None, :])
        bound = M * D ** alpha
        np.fill_diagonal(bound, np.inf)
        assert np.max(G - bound) <= 1e-9


def test_mcshane_rejects_non_holder():
    s = Scaling((1,))
    w = Window(s, 1.0, (0,), (4,))
    f = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
    mask = np.ones(5, dtype=bool)
    with pytest.raises(InputNotHolderError):
        mcshane_extend(f, mask, w, 0.5, 1.0)


def test_sup_below_witness_replay(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=3)
    rep = sup_below(U, 3.5)
    assert reevaluate_report(rep, U) == rep.value


def test_eta_alpha_complex_germ(rng):
    s = Scaling((1, 1))
    U = random_germ(rng, s, half=2, complex_values=True)
    rep = seminorm_G_eta_alpha(U, 1.5, 0.5)
    re_only = seminorm_G_eta_alpha(Germ(U.base, U.active, U.values.real), 1.5, 0.5)
    im_only = seminorm_G_eta_alpha(Germ(U.base, U.active, U.values.imag), 1.5, 0.5)
    # achieved modulus ratio of the combined fit: between the split optima
    # and their quadrature sum
    assert rep.value >= max(re_only.value, im_only.value) * (1 - 1e-9)
    assert rep.value <= np.hypot(re_only.value, im_only.value) * (1 + 1e-9)
    assert abs(reevaluate_report(rep, U) - rep.value) <= 1e-12 * rep.value


def test_eta_alpha_full_brute_force_oracle(rng):
    # end-to-end check of the pair pruning and max logic: plain loops over
    # every ordered base pair with the grid oracle as the inner solver
    for s, half in ((Scaling((1,)), 2), (Scaling((1, 1)), 1)):
        w = box(s, 1.0, half)
        U = random_germ(rng, s, half=half)
        eta, alpha = 1.5, 0.5
        rep = seminorm_G_eta_alpha(U, eta, alpha)
        pts = w.coords()
        D = s.pairwise_distance(pts, pts)
        worst = 0.0
        slack = 0.0
        for xf in range(w.npoints):
            for yf in range(w.npoints):
                if xf == yf:
                    continue
                Phi, r, wts = _pair_problem(U, xf, yf, eta, alpha, None)
                v, _, step = grid_minimax(Phi, np.real(r), wts)
                if v > worst:
                    worst = v
                    lip = (float(np.max(np.sum(np.abs(Phi), axis=1) / wts))
                           if Phi.shape[1] else 0.0)
                    slack = lip * step * np.sqrt(max(Phi.shape[1], 1))
        assert rep.value <= worst + 1e-9
        assert worst - rep.value <= slack + 1e-9


def _screen_oracle(U, eta, alpha, R):
    """Brute force: the max of pair_minimax over every admissible base pair."""
    B = U.base.coords()
    D = U.scaling.pairwise_distance(B, B)
    Dz = U.scaling.pairwise_distance(B, U.active.coords())
    best = 0.0
    for xf, yf in zip(*np.nonzero(D > 0)):
        if R is not None and not (D[xf, yf] < R and np.any((Dz[yf] > 0) & (Dz[yf] < R))):
            continue
        best = max(best, pair_minimax(U, int(xf), int(yf), eta, alpha, R)[0])
    return best


def _oracle_germ(kind, active, eta, complex_values, inner_base, rng):
    """A random table on the active window, or one whose rows modulo
    polynomials of weighted degree <= floor(eta) have rank 0 (jet germ),
    rank 1 (frozen coefficient germ; ``coef (x) psi`` plus polynomial rows)
    or rank 2."""
    s = active.scaling
    order = math.floor(eta)

    def field(shape=active.shape):
        f = rng.standard_normal(shape)
        return f + 1j * rng.standard_normal(shape) if complex_values else f

    if kind == "jet":
        return jet_germ(field(), active, order)
    if kind == "frozen":
        return frozen_coefficient_germ(field(), field(), field(), active, order)
    base = active.shrink(hi_margin=(1,) * s.d) if inner_base else active
    if kind == "random":
        return Germ(base, active, field((base.npoints, active.npoints)))
    A = active.coords()
    columns = [field(active.npoints) for _ in range({"rank1": 1, "rank2": 2}[kind])]
    columns += [np.prod(A ** np.array(g)[None, :], axis=1) for g in multi_indices(s, order)]
    return Germ(base, active, sum(np.outer(field(base.npoints), c) for c in columns))


# (grading, eta, window half-width): p = 0, 1 or 2 free coefficients
@given(st.sampled_from([((1,), 0.7, 3), ((1,), 1.5, 2), ((1,), 1.5, 3), ((1,), 2.5, 3),
                        ((1, 1), 0.7, 1), ((1, 1), 1.5, 1), ((2, 1), 0.7, 1),
                        ((2, 1), 1.5, 1)]),
       st.sampled_from(["random", "jet", "frozen", "rank1", "rank2"]),
       st.booleans(), st.booleans(), st.sampled_from([None, 1.5, 2.5]),
       st.integers(0, 2 ** 32 - 1))
# a complex germ whose split real/imaginary solve lands above the
# least-squares bound of a pair that bound alone would prune
@example(((1, 1), 1.5, 1), "random", True, False, None, 7)
@settings(max_examples=80, deadline=None)
def test_eta_alpha_screen_matches_pair_oracle(case, kind, complex_values, inner_base, R, seed):
    s, eta, half = Scaling(case[0]), case[1], case[2]
    alpha = eta / 3
    U = _oracle_germ(kind, box(s, 1.0, half), eta, complex_values, inner_base,
                     np.random.default_rng(seed))
    # jets, frozen germs and rank-one tables take the factored screen,
    # random and rank-two tables the per-pair fits
    noise = 1e-12 * float(np.max(np.abs(U.values)))
    _, _, rho = _factor_modulo_polynomials(U, eta)
    assert (4 * float(np.max(rho)) <= noise) == (kind in ("jet", "frozen", "rank1"))
    rep = seminorm_G_eta_alpha(U, eta, alpha, R=R)
    if kind == "jet":  # rank 0 modulo polynomials: certified, nothing solved
        assert rep.value == 0.0 and rep.witness == {}
    oracle = _screen_oracle(U, eta, alpha, R)
    # pairs whose bound times least weight sits at the noise level
    # (1e-12 sup|U|; all weights are >= 1 at eps = 1) are never solved, so
    # the two agree up to that level
    assert abs(rep.value - oracle) <= 1e-12 * oracle + noise
    assert reevaluate_report(rep, U) == rep.value


# exact solves (pair_minimax calls) per member at sub-seeds 0-3 of the
# benchmark's 2D and (2,1) frozen probes, counted at commit 4afd682, where
# certified lower bounds still filtered the pairs ahead of the ordered pass
@pytest.mark.parametrize("scaling, operator, counted", [((1, 1), "laplacian", (6, 11, 92, 4)),
                                                        ((2, 1), "heat", (1, 1, 1, 1))])
def test_exact_solve_count_pinned(monkeypatch, scaling, operator, counted):
    calls = []
    solve = norms.pair_minimax
    monkeypatch.setattr(norms, "pair_minimax", lambda *a, **k: calls.append(a) or solve(*a, **k))
    for seed, bound in enumerate(counted):
        calls.clear()
        run_probe(ExperimentConfig(Scaling(scaling), operator=operator, germ="frozen", seed=seed))
        assert len(calls) <= bound, seed


# windows wide enough that some distance buckets hold two distances:
# 8 and 9 in 1D and on (1,1), 1 + sqrt(2) and 1 + sqrt(3) on (2,1)
@given(st.sampled_from([((1,), (-5,), (5,), 1.5), ((1,), (-5,), (5,), 2.5),
                        ((1, 1), (-4, -1), (4, 1), 1.5), ((2, 1), (-2, -2), (2, 2), 0.7),
                        ((2, 1), (-2, -2), (2, 2), 1.5)]),
       st.sampled_from(["frozen", "rank1", "random"]), st.sampled_from([None, 1.5, 2.5]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_screen_bounds_dominate_pairs(case, kind, R, seed):
    # every screen bound, fitted at the smallest distance of its bucket,
    # reaches the pair's own exact value, and its smallest weight is at most
    # the pair's; below noise / (smallest weight) a value is rounding, which
    # the semi-norm never solves, so the bound need not reach it there
    s, eta = Scaling(case[0]), case[3]
    alpha = eta / 3
    U = _oracle_germ(kind, Window(s, 1.0, case[1], case[2]), eta, False, False,
                     np.random.default_rng(seed))
    noise = 1e-12 * float(np.max(np.abs(U.values)))
    factor = _factor_modulo_polynomials(U, eta)
    if 4 * float(np.max(factor[2])) > noise:
        factor = None
    assert (factor is None) == (kind == "random")
    a_pos = _base_columns(U)
    Dxy = U.distances[:, a_pos]
    gammas = [g for g in multi_indices(s, math.floor(eta)) if any(g)]
    ub, wmin, xs, ys = _screen_bounds(U, Dxy, a_pos, _within(Dxy, R), eta, alpha, R,
                                      gammas, factor)
    assert xs.size > 0
    for bound, w, xf, yf in zip(ub, wmin, xs, ys):
        value = pair_minimax(U, int(xf), int(yf), eta, alpha, R)[0]
        least = float(np.min(_pair_problem(U, int(xf), int(yf), eta, alpha, R)[2]))
        assert w <= least
        assert bound >= value * (1 - 1e-9) - noise / least


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 400),
       st.sampled_from(["ties", "spread"]), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
@example(7, 40, "spread", 0, 0)      # fewer candidates than one block
@example(7, 300, "ties", 0, 0)       # many ties at every block cut
@example(7, 300, "spread", 2, 0)     # infinite bounds
@example(7, 300, "spread", 0, 3)     # NaN bounds
@example(7, 100, "ties", 1, 80)      # fewer numbers than one block, then NaN
def test_descending_is_the_lexsort_order(seed, n, kind, infs, nans):
    # the block-wise pass visits the candidates in lexsort((ys, xs, -ub))
    # order: descending bound, then x, then y, NaN bounds last
    rng = np.random.default_rng(seed)
    size = n + 20
    ub = (rng.integers(0, 5, size).astype(float) if kind == "ties"
          else rng.standard_normal(size))
    ub[rng.choice(size, size=min(infs, size), replace=False)] = np.inf
    ub[rng.choice(size, size=min(nans, size), replace=False)] = np.nan
    xs, ys = rng.integers(0, 6, size), rng.integers(0, 6, size)
    cand = rng.permutation(size)[:n]
    want = cand[np.lexsort((ys[cand], xs[cand], -ub[cand]))]
    got = np.array(list(_descending(cand, ub, xs, ys)), dtype=int)
    assert got.tolist() == want.tolist()
    n_nan = int(np.count_nonzero(np.isnan(ub[cand])))
    assert np.all(np.isnan(ub[got[got.size - n_nan:]]))


@pytest.mark.parametrize("case", [((1,), (-6,), (6,), 1.5, None),
                                  ((1,), (-6,), (6,), 2.5, 4.5),
                                  ((1, 1), (-2, -1), (2, 1), 1.5, None),
                                  ((2, 1), (-2, -2), (2, 2), 1.5, 2.5)])
def test_quiet_bounds_dominate_exact_values(monkeypatch, case):
    # rank-0 certificate: integer polynomial rows plus a perturbation that
    # puts the largest bound on a pair's spread just under the noise level.
    # The semi-norm reports 0 with an empty witness, which is sound when
    # every pair's exact value, which the polynomial rows do not change, is
    # at most noise / (that pair's least weight); HiGHS solves the
    # perturbation alone, normalized.  At 1.2 times the threshold the table
    # is not certified, so the screen runs
    s, lo, hi, eta, R = Scaling(case[0]), case[1], case[2], case[3], case[4]
    alpha = eta / 3
    rng = np.random.default_rng(11)
    w = Window(s, 1.0, lo, hi)
    P = _poly_columns(w.coords(), multi_indices(s, math.floor(eta)))
    poly = rng.integers(-3, 4, size=(w.npoints, P.shape[1])) @ P.T
    Dxy = s.pairwise_distance(w.coords(), w.coords())
    xs, ys = np.nonzero((Dxy > 0) & (Dxy < (R or np.inf)))
    assert xs.size
    pert = rng.standard_normal(poly.shape)
    spread = None
    for _ in range(2):  # the spread is linear in the perturbation size
        pert *= 0.95 * 1e-12 * np.max(np.abs(poly)) / (spread or 1.0)
        U = Germ(w, w, poly + pert)
        coef, psi, rho = _factor_modulo_polynomials(U, eta)
        spread = 2 * float(np.max(np.abs(coef[xs] - coef[ys]) * np.max(np.abs(psi)) +
                                  rho[xs] + rho[ys]))
    noise = 1e-12 * float(np.max(np.abs(U.values)))
    assert 0.9 * noise <= spread <= noise
    screens = []
    screen = norms._screen_bounds
    monkeypatch.setattr(norms, "_screen_bounds",
                        lambda *a, **k: screens.append(a) or screen(*a, **k))
    rep = seminorm_G_eta_alpha(U, eta, alpha, R)
    assert (rep.value, rep.witness, screens) == (0.0, {}, [])
    exact_pert = Germ(w, w, U.values - poly)  # exact: Sterbenz
    for xf, yf in zip(xs, ys):
        Phi, r, wts = _pair_problem(exact_pert, int(xf), int(yf), eta, alpha, R)
        scale = float(np.max(np.abs(r)))
        assert lp_minimax(Phi, r / scale, wts)[0] * scale <= noise / float(np.min(wts))
    seminorm_G_eta_alpha(Germ(w, w, poly + pert * (1.2 * noise / spread)), eta, alpha, R)
    assert len(screens) == 1

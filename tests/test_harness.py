import json
import math
from dataclasses import replace

import numpy as np
import pytest

from germcalc import (ExperimentConfig, RatioReport, Scaling, apply_to_field, preset_operator,
                      run_probe, schauder_sides, solve_poisson, summarize)
from germcalc.errors import IllPosedSourceError, ValidationError
from germcalc.germs import Window, jet_germ
from germcalc.harness import (config_from_mapping, config_to_dict, draw_source,
                              member_rng, parse_config_text, reports_to_csv,
                              summary_to_json)

from polyutil import rescaled_sides


def _residual(L, u, f, w):
    """Sup of ``L u - f`` on the window's inner part, where L applies."""
    applied, inner = apply_to_field(L, u, w)
    return float(np.max(np.abs(applied - f[inner.slice_in(w)])))


def test_poisson_zero_source():
    L = preset_operator("laplacian", 1)
    w = Window(L.scaling, 1.0, (-8,), (8,))
    f = np.zeros(w.shape)
    u = solve_poisson(L, f, w)
    assert np.max(np.abs(u)) == 0.0
    assert _residual(L, u, f, w) == 0.0


def test_poisson_double_cumsum_oracle():
    L = preset_operator("laplacian", 1)
    w = Window(L.scaling, 1.0, (-16,), (16,))
    f = draw_source(member_rng(3, 0), w)
    u = solve_poisson(L, f, w)
    assert _residual(L, u, f, w) <= 1e-10
    # double cumulative sum solves the second difference up to an affine part
    g = np.cumsum(np.cumsum(f))
    v = np.zeros_like(f)
    v[1:] = g[:-1]
    diff = u - v
    second = diff[2:] - 2 * diff[1:-1] + diff[:-2]
    assert np.max(np.abs(second)) <= 1e-10


def test_poisson_eps_sweep_residual():
    L = preset_operator("laplacian", 2)
    for eps in (1.0, 0.5, 0.25):
        w = Window(L.scaling, eps, (-8, -8), (8, 8))
        f = draw_source(member_rng(9, 1), w)
        u = solve_poisson(L, f, w)
        assert _residual(L, u, f, w) <= 1e-8 * max(1.0, float(np.max(np.abs(f))))


def test_poisson_ill_posed_symbol():
    # the forward Cauchy-Riemann realization has lattice symbol zeros that
    # land exactly on small power-of-two frequency grids
    L = preset_operator("cauchy-riemann", 2)
    w = Window(L.scaling, 1.0, (0, 0), (7, 7))
    with pytest.raises(IllPosedSourceError):
        solve_poisson(L, np.zeros(w.shape), w)


def test_probe_determinism():
    cfg = ExperimentConfig(Scaling((1,)), operator="laplacian", eta=1.5, alpha=0.5,
                           radius=8, eps_list=(1.0,), ensemble=3, seed=42)
    a = run_probe(cfg)
    b = run_probe(cfg)
    assert a == b
    assert {r.member for r in a} == {0, 1, 2}


def test_probe_zero_source():
    # a zero germ gives 0/0, reported as ratio 0 and unflagged
    rep = RatioReport(0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert rep.lhs == rep.rhs == 0.0 and rep.ratio == 0.0 and rep.flags == ""


def test_probe_jet_rhs_dominated_by_operator_term():
    cfg = ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, radius=8,
                           ensemble=2, seed=5)
    for rep in run_probe(cfg):
        assert rep.rhs_eta_alpha <= 1e-8 * max(1.0, rep.lhs)
        assert rep.rhs_operator > 0
        assert math.isfinite(rep.ratio)


def test_probe_rescale_invariance():
    cfg = ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, radius=8,
                           ensemble=1, seed=7)
    L = cfg.validate()
    w = Window(cfg.scaling, 1.0, (-8,), (8,))
    u = solve_poisson(L, draw_source(member_rng(7, 0), w), w)
    U = jet_germ(u, w, 1)
    base = schauder_sides(U, L, cfg.eta, cfg.alpha)
    for R in (2.0, 4.0):
        scaled = rescaled_sides(U, L, cfg.eta, cfg.alpha, R)
        r0 = base["lhs"] / (base["rhs_operator"] + base["rhs_eta_alpha"])
        r1 = scaled["lhs"] / (scaled["rhs_operator"] + scaled["rhs_eta_alpha"])
        assert abs(r1 - r0) <= 1e-9 * r0


def test_ivp_probe_zero_initial_and_time_constant():
    cfg = ExperimentConfig(Scaling((2, 1)), operator="heat", eta=1.5, alpha=0.5,
                           radius=6, ensemble=2, seed=3, time_extent=8)
    reports = run_probe(replace(cfg, mode="ivp", zero_initial=True))
    for rep in reports:
        assert rep.rhs_initial <= 1e-10
        assert math.isfinite(rep.ratio)
    reports = run_probe(replace(cfg, mode="ivp"))
    assert any(r.rhs_initial > 0 for r in reports)


def test_ivp_probe_validation():
    cfg = ExperimentConfig(Scaling((1, 1)), operator="laplacian", eta=1.5,
                           alpha=0.5, radius=4, ensemble=1, seed=0)
    with pytest.raises(ValidationError):
        run_probe(replace(cfg, mode="ivp"))


def test_local_probe_matches_global_for_huge_radius():
    cfg = ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, radius=8,
                           ensemble=1, seed=11)
    glob = run_probe(cfg)[0]
    loc = run_probe(replace(cfg, mode="local", rho=1e6))[0]
    assert loc.lhs == pytest.approx(glob.lhs, rel=1e-12)
    assert loc.rhs_operator == pytest.approx(glob.rhs_operator, rel=1e-12)
    # the extra rho**-eta sup term is negligible at this radius
    assert loc.rhs_local_sup <= 1e-7


def test_local_probe_rho_sweep_bounded():
    cfg = ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, radius=8,
                           ensemble=2, seed=13)
    ratios = []
    for rho in (2.0, 4.0, 8.0):
        reps = run_probe(replace(cfg, mode="local", rho=rho))
        ratios.extend(r.ratio for r in reps)
    assert all(math.isfinite(r) for r in ratios)


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        ExperimentConfig(Scaling((1,)), eta=2.0, alpha=0.5).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(Scaling((1,)), eta=1.5, alpha=1.0).validate()
    cfg = ExperimentConfig(Scaling((1,)), eta=1.5, alpha=1.0, allow_integer_orders=True)
    with pytest.raises(ValidationError):
        ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, ensemble=0).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, germ="file").validate()
    with pytest.raises(ValidationError):  # 81 points per axis, above the window cap
        ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, radius=40).validate()
    for extent in (0, -3):
        with pytest.raises(ValidationError, match="time extent must be >= 1"):
            ExperimentConfig(Scaling((2, 1)), operator="heat", mode="ivp",
                             time_extent=extent).validate()
    assert cfg.validate().order == 2


def test_config_round_trip(tmp_path):
    ivp = ExperimentConfig(Scaling((2, 1)), operator="heat", eta=1.7, alpha=0.3,
                           radius=5, eps_list=(1.0, 0.5), ensemble=4, seed=99,
                           germ="jet", time_extent=10, allow_integer_orders=True,
                           mode="ivp", zero_initial=True)
    local = ExperimentConfig(Scaling((1,)), mode="local", rho=2.5)
    for cfg in (ivp, local):
        assert config_from_mapping(config_to_dict(cfg)) == cfg
        assert config_from_mapping(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
        text = "\n".join(f"{k}={v}" for k, v in config_to_dict(cfg).items())
        path = tmp_path / "probe.cfg"
        path.write_text(text + "\n# comment line\n")
        cfg2 = config_from_mapping(parse_config_text(path.read_text()))
        assert cfg2 == cfg
    # an unset ivp time extent is the one the run uses, twice the radius
    assert config_to_dict(replace(ivp, time_extent=None))["time_extent"] == 10


def test_csv_and_summary():
    cfg = ExperimentConfig(Scaling((1,)), eta=1.5, alpha=0.5, radius=6,
                           ensemble=2, seed=1, eps_list=(1.0, 0.5))
    reports = run_probe(cfg)
    csv = reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("member,eps,lhs")
    assert len(lines) == 1 + len(reports)
    summary = json.loads(summary_to_json(reports, cfg))
    assert set(summary["eps"].keys()) == {"1", "0.5"}
    for entry in summary["eps"].values():
        assert entry["count"] == 2
        assert entry["max"] >= entry["median"]
    stats = summarize(reports)
    assert stats["eps"]["1"]["infinite"] == 0

import json
import re
import sys

import numpy as np
import pytest

from germcalc import (Germ, Scaling, WeightSystem, jet_germ, load_germ, preset_operator,
                      save_germ)
from germcalc.cli import _HANDLERS, main
from germcalc.coeff_bounds import MAX_WEIGHT_WORK
from germcalc.liouville import MAX_KERNEL_MONOMIALS
from germcalc.germs import Window, field_from_text, field_to_text

from conftest import box


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def zero_germ_file(tmp_path):
    s = Scaling((1, 1))
    w = box(s, 1.0, 3)
    U = Germ(w, w, np.zeros((w.npoints, w.npoints)))
    path = tmp_path / "zero.germ"
    save_germ(U, path)
    return path


def partial_field_file(tmp_path):
    w = Window(Scaling((1,)), 1.0, (0,), (8,))
    vals = np.zeros(9)
    mask = np.zeros(9, dtype=bool)
    mask[[0, 4, 8]] = True
    vals[[0, 4, 8]] = [0.0, 1.0, 0.5]
    path = tmp_path / "partial.field"
    path.write_text(field_to_text(vals, mask, w))
    return path


def test_help_for_every_subcommand(capsys):
    for cmd in ("norm", "symbol", "ellipticity", "liouville", "weights",
                "probe", "extend"):
        assert main([cmd, "--help"]) == 0
        assert capsys.readouterr().out


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "ellipticity", "--nonsense")
    assert code == 1


def test_norm_zero_germ(tmp_path, capsys):
    path = zero_germ_file(tmp_path)
    code, out, _ = run_cli(capsys, "norm", "--kind", "G-eta", "--eta", "1.5",
                           "--germ", str(path))
    assert code == 0
    assert "G_eta = 0" in out
    code, out, _ = run_cli(capsys, "norm", "--kind", "G-eta", "--eta", "1.5",
                           "--germ", str(path), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 0.0 and rec["name"] == "G_eta"


def test_norm_text_witness_is_json(tmp_path, capsys):
    # the text witness is the object --json carries, with no numpy reprs
    rng = np.random.default_rng(8)
    w = box(Scaling((1, 1)), 1.0, 2)
    path = tmp_path / "random.germ"
    save_germ(Germ(w, w, rng.standard_normal((w.npoints, w.npoints))), path)
    kinds = {"G-eta": ("--eta", "1.5"), "G-eta-alpha": ("--eta", "1.5", "--alpha", "0.5"),
             "G-gamma": ("--gamma", "-0.5"), "sup-below": ("--R", "1.5")}
    for kind, extra in kinds.items():
        argv = ("norm", "--kind", kind, "--germ", str(path)) + extra
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "np." not in out and "array(" not in out, kind
        witness = out.splitlines()[1].removeprefix("witness: ")
        assert json.loads(witness) == json.loads(run_cli(capsys, *argv, "--json")[1])["witness"]


def test_norm_jet_germ_eta_alpha_is_zero(tmp_path, capsys):
    # a jet germ is rank 0 modulo polynomials: its three-point semi-norm is
    # certified zero, with nothing solved and nothing to witness
    code, out, _ = run_cli(capsys, "norm", "--kind", "G-eta-alpha", "--eta", "1.5",
                           "--alpha", "0.5", "--germ", str(_jet_germ_file(tmp_path)), "--json")
    assert code == 0
    rec = json.loads(out)
    assert (rec["name"], rec["value"], rec["witness"]) == ("G_eta_alpha", 0.0, {})


def test_norm_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "norm", "--kind", "G-eta", "--eta", "1.5",
                           "--germ", str(tmp_path / "missing.germ"))
    assert code == 2


def test_norm_missing_parameter_exits_one(tmp_path, capsys):
    path = zero_germ_file(tmp_path)
    code, _, err = run_cli(capsys, "norm", "--kind", "G-eta", "--germ", str(path))
    assert code == 1
    assert "eta" in err


def test_ellipticity_presets(capsys):
    code, out, _ = run_cli(capsys, "ellipticity", "--preset", "laplacian",
                           "--eps", "1")
    assert code == 0 and "verdict: elliptic" in out
    code, out, _ = run_cli(capsys, "ellipticity", "--preset", "eps-degenerate",
                           "--eps", "1")
    assert code == 0 and "verdict: not-elliptic" in out
    assert "continuum symbol" in out
    code, out, _ = run_cli(capsys, "ellipticity", "--preset", "heat", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "elliptic"


def test_symbol_command(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--preset", "laplacian", "--dim", "1",
                           "--theta", "3.141592653589793", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["discrete"][0] == pytest.approx(-4.0)
    code, out, _ = run_cli(capsys, "symbol", "--preset", "heat", "--xi", "1,0")
    assert code == 0 and "continuum" in out
    code, _, err = run_cli(capsys, "symbol", "--preset", "heat")
    assert code == 1


def test_liouville_command(capsys):
    code, out, _ = run_cli(capsys, "liouville", "--preset", "laplacian",
                           "--dim", "1", "--eta", "1.5", "--json",
                           "--zero-search", "--resolution", "32")
    assert code == 0
    rec = json.loads(out)
    assert rec["dimension"] == 2
    assert rec["zeros"] == []


def test_liouville_high_degree_in_one_dimension(capsys):
    # the 1D Laplacian's kernel is span{1, x} at every degree cutoff
    for eta in ("9.5", "30.5"):
        code, out, _ = run_cli(capsys, "liouville", "--preset", "laplacian", "--dim", "1",
                               "--eta", eta, "--eps", "0.37", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["dimension"] == 2
        top = int(float(eta))
        assert rec["vectors"] == [[1.0] + [0.0] * top, [0.0, 1.0] + [0.0] * (top - 1)]


def test_weights_command(capsys):
    code, out, _ = run_cli(capsys, "weights", "--scaling", "2,1", "--eta", "3.5",
                           "--delta", "0.1")
    assert code == 0
    assert "verified: True" in out


def test_probe_command_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("scaling=1\noperator=laplacian\neta=1.5\nalpha=0.5\n"
                   "radius=6\neps=1\nensemble=2\nseed=3\ngerm=jet\n")
    out_csv = tmp_path / "reports.csv"
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg), "--json",
                           "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["eps"]["1"]["count"] == 2
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 3
    # flags win over the config file
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg), "--json",
                           "--ensemble", "1")
    assert json.loads(out)["eps"]["1"]["count"] == 1


def test_probe_invalid_orders_exit_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "probe", "--scaling", "1", "--eta", "2.5",
                           "--alpha", "0.5", "--window", "4")
    assert code == 1
    assert "eta" in err or "alpha" in err


def test_probe_window_too_large_exits_one(capsys):
    code, _, err = run_cli(capsys, "probe", "--scaling", "1", "--window", "40")
    assert code == 1
    assert err.startswith("germcalc: invalid input:") and err.count("\n") == 1
    assert "33" in err


@pytest.mark.parametrize("argv, what", [
    (("symbol", "--preset", "laplacian", "--theta", "1,x"), "'1,x'"),
    (("symbol", "--preset", "laplacian", "--theta", "1"), "--theta needs 2 components"),
    (("symbol", "--preset", "laplacian", "--eps", "-1", "--theta", "1,0"), "--eps"),
    (("ellipticity", "--preset", "laplacian", "--eps", "-1"), "--eps"),
    (("liouville", "--preset", "laplacian", "--eta", "-1"), "--eta"),
    (("liouville", "--preset", "laplacian", "--eta", "1.5", "--eps", "0"), "--eps"),
    (("liouville", "--preset", "laplacian", "--dim", "0", "--eta", "1"), "--dim"),
    (("symbol", "--preset", "laplacian", "--dim", "0", "--theta", "1"), "--dim"),
    (("ellipticity", "--preset", "laplacian", "--dim", "-1"), "--dim"),
    (("liouville", "--preset", "cauchy-riemann", "--eta", "0.5", "--zero-search",
      "--resolution", "4"), "resolution must be at least 8"),
    (("liouville", "--preset", "cauchy-riemann", "--eta", "0.5", "--zero-search",
      "--resolution", "2"), "resolution must be at least 8"),
    (("norm", "--kind", "G-eta", "--germ", "GERM", "--eta", "-1"), "--eta"),
    (("norm", "--kind", "G-eta", "--germ", "GERM", "--eta", "nan"), "--eta"),
    (("norm", "--kind", "G-eta-alpha", "--germ", "GERM", "--eta", "1.5", "--alpha", "2"),
     "need 0 < alpha < eta"),
    (("norm", "--kind", "G-gamma", "--germ", "GERM", "--gamma", "0.5"),
     "gamma must be negative"),
    (("norm", "--kind", "sup-below", "--germ", "GERM", "--R", "-1"), "--R"),
    (("weights", "--scaling", "1", "--eta", "nan", "--delta", "0.1"), "--eta"),
    (("weights", "--scaling", "1", "--eta", "inf", "--delta", "0.1"), "--eta"),
    (("extend", "--field", "FIELD", "--alpha", "1.5", "--holder-const", "1"),
     "alpha must lie in (0, 1)"),
    (("extend", "--field", "FIELD", "--alpha", "0.5", "--holder-const", "-1"),
     "--holder-const"),
    (("extend", "--field", "FIELD", "--alpha", "0.5", "--holder-const", "nan"),
     "--holder-const"),
    (("probe", "--scaling", "1", "--window", "4", "--eps", "inf"), "grid scales"),
    (("probe", "--scaling", "1", "--window", "4", "--eps", "nan"), "grid scales"),
    (("liouville", "--preset", "laplacian", "--eta", "40"), "monomials"),
    (("liouville", "--preset", "laplacian", "--eta", "1e9"), "monomials"),
    # rejected before the scan grid is allocated
    (("ellipticity", "--preset", "laplacian", "--resolution", "100000000"), "scan points"),
    (("liouville", "--preset", "laplacian", "--eta", "1", "--zero-search",
      "--resolution", "100000000"), "scan points"),    (("probe", "--mode", "ivp", "--scaling", "2,1", "--preset", "heat", "--eta", "1.5",
      "--alpha", "0.5", "--time-extent", "-3"), "time extent must be >= 1"),
    (("probe", "--mode", "ivp", "--scaling", "2,1", "--preset", "heat", "--eta", "1.5",
      "--alpha", "0.5", "--time-extent", "0"), "time extent must be >= 1"),
])
def test_malformed_number_flags_exit_one(tmp_path, capsys, argv, what):
    files = {"GERM": str(zero_germ_file(tmp_path)), "FIELD": str(partial_field_file(tmp_path))}
    code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("germcalc") and err.count("\n") == 1 and what in err


@pytest.mark.parametrize("argv", [
    ("ellipticity", "--preset", "laplacian", "--eps", "1e-200"),
    ("symbol", "--preset", "laplacian", "--theta", "1,1", "--eps", "1e-200"),
    ("probe", "--scaling", "1", "--window", "4", "--eta", "1.5", "--alpha", "0.5",
     "--eps", "1e-200"),
])
def test_overflow_exits_two(capsys, argv):
    # eps ** -m overflows a float: a computation error, reported in one line
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("germcalc: OverflowError: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_kernel_window_cap_names_eta(capsys):
    # a monomial count over the cap is blamed on the degree cutoff, and the
    # cap is named; 1e9 is refused before any monomial is counted
    for eta in ("40", "1e9"):
        code, _, err = run_cli(capsys, "liouville", "--preset", "laplacian", "--eta", eta)
        assert code == 1 and f"degree cutoff --eta {float(eta):g} " in err
        assert f"at most {MAX_KERNEL_MONOMIALS} are allowed" in err


@pytest.mark.parametrize("argv", [
    ("--scaling", "1", "--eta", "40.5", "--delta", "0.1"),
    ("--scaling", "1", "--eta", "40.5", "--delta", "0.1", "--json"),
    ("--scaling", "1,1,1", "--eta", "12.5", "--delta", "0.1"),
    ("--scaling", "1", "--eta", "1e9", "--delta", "0.1"),
])
def test_weights_work_cap_names_eta(capsys, argv):
    # refused before any weight is built, with the cutoff and the cap named
    code, out, err = run_cli(capsys, "weights", *argv)
    assert code == 1 and out == ""
    assert err.startswith("germcalc: invalid input: --eta ") and err.count("\n") == 1
    assert str(MAX_WEIGHT_WORK) in err


def test_weights_print_past_the_integer_digit_limit(capsys):
    # a tiny delta gives weights of more than 4,300 digits inside the cap;
    # the interpreter's limit is lifted while they print, then put back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for flag in ((), ("--json",)):
            code, out, _ = run_cli(capsys, "weights", "--scaling", "1", "--eta", "5.5",
                                   "--delta", "1e-300", *flag)
            assert code == 0 and max(len(w) for w in re.split(r"\D+", out)) > 4300
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_failed_self_check_exits_two(capsys, monkeypatch):
    # weights that fail their own invariant are a computation error,
    # reported in one line
    monkeypatch.setattr(WeightSystem, "verify", lambda self: (False, 2.0))
    code, out, err = run_cli(capsys, "weights", "--scaling", "2,1", "--eta", "3.5",
                             "--delta", "0.1")
    assert code == 2 and out == ""
    assert err.startswith("germcalc: VerificationError: constructed weights")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_memory_error_exits_two(capsys, monkeypatch):
    # running out of memory is a computation error, reported in one line

    def exhausted(args):
        raise MemoryError("Unable to allocate 2.1 GiB for an array")

    monkeypatch.setitem(_HANDLERS, "weights", exhausted)
    code, out, err = run_cli(capsys, "weights", "--scaling", "2,1", "--eta", "3.5",
                             "--delta", "0.1")
    assert code == 2 and out == ""
    assert err == "germcalc: MemoryError: Unable to allocate 2.1 GiB for an array\n"


def test_malformed_scaling_exits_one(capsys):
    for argv in (("probe", "--scaling", "1,x", "--window", "4"),
                 ("probe", "--scaling", "0", "--window", "4"),
                 ("weights", "--scaling", "2,x", "--eta", "3.5", "--delta", "0.1")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("germcalc: invalid input: invalid scaling")
        assert err.count("\n") == 1


def test_malformed_config_number_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scaling=1\nradius=4\nseed=x\n")
    for argv, key in ((("probe", "--scaling", "1", "--window", "4", "--eps", "1,x"), "eps"),
                      (("probe", "--config", str(cfg)), "seed")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith(f"germcalc: invalid input: invalid {key} ")
        assert err.count("\n") == 1


def test_malformed_config_bool_exits_one(tmp_path, capsys):
    for key, value in (("zero_initial", "maybe"), ("allow_integer_orders", "nope")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scaling=1\nradius=4\n{key}={value}\n")
        code, _, err = run_cli(capsys, "probe", "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"germcalc: invalid input: invalid {key} {value!r}")
        assert err.count("\n") == 1


def _assert_one_line_exit_one(code, err, where, what, name):
    assert code == 1, name
    assert err.startswith("germcalc: invalid input:") and err.count("\n") == 1, name
    assert where in err and what in err, name


def test_probe_mode_flags_validated(tmp_path, capsys):
    germ = zero_germ_file(tmp_path)
    heat = ("probe", "--scaling", "2,1", "--preset", "heat", "--window", "4", "--mode", "ivp")
    cases = {
        "ivp frozen": (heat + ("--germ", "frozen"), "germ=frozen"),
        "ivp file": (heat + ("--germ", "file", "--germ-file", str(germ)), "germ=file"),
        "rho schauder": (("probe", "--scaling", "1", "--window", "4", "--rho", "2"), "rho"),
        "rho ivp": (heat + ("--rho", "2"), "rho"),
        "zero-initial schauder": (("probe", "--scaling", "1", "--window", "4",
                                   "--zero-initial"), "zero_initial"),
        "local without rho": (("probe", "--scaling", "1", "--window", "4", "--mode",
                               "local"), "rho"),
    }
    for name, (argv, what) in cases.items():
        code, _, err = run_cli(capsys, *argv)
        _assert_one_line_exit_one(code, err, "", what, name)


def test_probe_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("scaling=1\nradius=4\nensembel=50\nseeed=4\nthreads=2\n")
    code, _, err = run_cli(capsys, "probe", "--config", str(cfg))
    _assert_one_line_exit_one(code, err, "unknown config key", "'ensembel'", "typo")
    assert "'seeed'" in err and "'threads'" in err


def _jet_germ_file(tmp_path):
    """A 1D Laplacian jet germ at eps 0.5, saved to a file."""
    from germcalc import harness

    L = preset_operator("laplacian", 1)
    w = Window(L.scaling, 0.5, (-6,), (6,))
    U = jet_germ(harness.solve_poisson(L, harness.draw_source(harness.member_rng(5, 0), w),
                                       w), w, 1)
    path = tmp_path / "jet.germ"
    save_germ(U, path)
    return path


@pytest.mark.parametrize("flags", [
    ("--scaling", "1", "--window", "6", "--eps", "1,0.5", "--ensemble", "2", "--seed", "3"),
    ("--scaling", "1,1", "--germ", "frozen", "--window", "3", "--seed", "1"),
    ("--mode", "ivp", "--zero-initial", "--scaling", "2,1", "--preset", "heat",
     "--window", "4", "--ensemble", "2", "--seed", "3"),
    ("--mode", "local", "--rho", "2", "--scaling", "1", "--window", "6", "--ensemble", "2",
     "--seed", "4"),
    ("--scaling", "1", "--germ", "file", "--germ-file", "GERM"),
], ids=["jet", "frozen", "ivp", "local", "file"])
def test_probe_summary_config_replays_the_run(tmp_path, capsys, flags):
    # the summary's config, written as a config file, reproduces the CSV
    files = {"GERM": str(_jet_germ_file(tmp_path))}
    flags = tuple(files.get(a, a) for a in flags)
    a_csv, b_csv, cfg = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "replay.cfg"
    code, out, _ = run_cli(capsys, "probe", *flags, "--json", "--out", str(a_csv))
    assert code == 0
    config = json.loads(out)["config"]
    cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
    code, out, _ = run_cli(capsys, "probe", "--config", str(cfg), "--json",
                           "--out", str(b_csv))
    assert code == 0
    assert json.loads(out)["config"] == config
    assert b_csv.read_bytes() == a_csv.read_bytes()


def test_probe_germ_file_evaluated_once(tmp_path, capsys, monkeypatch):
    from germcalc import harness

    L = preset_operator("laplacian", 1)
    path = _jet_germ_file(tmp_path)
    loads = []
    monkeypatch.setattr(harness, "load_germ", lambda p: loads.append(p) or load_germ(p))
    out_csv = tmp_path / "file.csv"
    argv = ("probe", "--scaling", "1", "--preset", "laplacian", "--germ", "file",
            "--germ-file", str(path), "--out", str(out_csv))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(loads) == 1
    (row,) = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
    sides = harness.schauder_sides(load_germ(path), L, 1.5, 0.5)
    assert float(row[1]) == 0.5
    assert [float(x) for x in row[2:5]] == [sides["lhs"], sides["rhs_operator"],
                                            sides["rhs_eta_alpha"]]
    for extra, what in ((("--ensemble", "3"), "ensemble"), (("--eps", "1,0.25"), "eps"),
                        (("--eps", "0.25"), "eps")):
        code, _, err = run_cli(capsys, *argv, *extra)
        _assert_one_line_exit_one(code, err, "germ=file", what, extra[0])
    # the file's own eps, and a radius past the cap on windows the probe
    # builds, give the same row: a file germ brings its own window and scale
    first = out_csv.read_text()
    for extra in (("--eps", "0.5"), ("--window", "40")):
        out_csv.unlink()
        code, _, err = run_cli(capsys, *argv, *extra)
        assert code == 0 and err == "", extra
        assert out_csv.read_text() == first, extra


def test_malformed_germ_file_exits_one(tmp_path, capsys):
    head = "d=1 s=1 eps=1 base_lo=0 base_hi=0 act_lo=0 act_hi=0\n"
    cases = {
        "no-s.germ": ("# germcalc germ v1\n" + head.replace("s=1 ", "") + "0,0,1,0\n",
                      "line 2", "s="),
        "empty.germ": ("", "no header line", ""),
        "short-row.germ": ("# germcalc germ v1\n" + head + "0,0,1\n", "line 3", "got 3"),
        "nan.germ": ("# germcalc germ v1\n" + head + "0,0,nan,0\n", "line 3", "'nan'"),
        "inf-eps.germ": ("# germcalc germ v1\n" + head.replace("eps=1", "eps=inf") + "0,0,1,0\n",
                         "line 2", "'inf'"),
    }
    for name, (text, where, what) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run_cli(capsys, "norm", "--kind", "G-eta", "--eta", "1.5",
                               "--germ", str(path))
        _assert_one_line_exit_one(code, err, where, what, name)


def test_malformed_operator_file_exits_one(tmp_path, capsys):
    head = "# germcalc operator v1\nd=2 s=1,1 m=2\n"
    term = "gamma=2,0 delta=0,0 re=1.0 im=0.0\n"
    cases = {
        "empty.op": ("", "no header line", ""),
        "no-s.op": (head.replace("s=1,1 ", "") + term, "line 2", "s="),
        "no-m.op": (head.replace(" m=2", "") + term, "line 2", "m="),
        "no-gamma.op": (head + term.replace("gamma=2,0 ", ""), "line 3", "gamma="),
        "bad-number.op": (head + term.replace("re=1.0", "re=x"), "line 3", "x"),
        "short-gamma.op": (head + term.replace("gamma=2,0", "gamma=2"), "line 3", ""),
        "nan.op": (head + term.replace("re=1.0", "re=nan"), "line 3", "'nan'"),
        "inf.op": (head + term.replace("re=1.0", "re=inf"), "line 3", "'inf'"),
    }
    for name, (text, where, what) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run_cli(capsys, "ellipticity", "--operator-file", str(path))
        _assert_one_line_exit_one(code, err, where, what, name)


def test_malformed_field_file_exits_one(tmp_path, capsys):
    head = "# germcalc field v1\nd=1 s=1 eps=1 lo=0 hi=1\n"
    cases = {
        "empty.field": ("", "no header line", ""),
        "no-s.field": (head.replace("s=1 ", "") + "0,1.0,1\n1,2.0,1\n", "line 2", "s="),
        "short-row.field": (head + "0,1.0,1\n1,2.0\n", "line 4", "got 2"),
        "bad-index.field": (head + "0,1.0,1\n7,2.0,1\n", "line 4", ""),
        "nan.field": (head + "0,nan,1\n1,2.0,1\n", "line 3", "'nan'"),
        "inf-eps.field": (head.replace("eps=1", "eps=inf") + "0,1.0,1\n1,2.0,1\n",
                          "line 2", "'inf'"),
    }
    for name, (text, where, what) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run_cli(capsys, "extend", "--field", str(path), "--alpha", "0.5",
                               "--holder-const", "1")
        _assert_one_line_exit_one(code, err, where, what, name)


def test_liouville_complex_operator(capsys):
    # the Cauchy-Riemann kernel up to degree 1.5 is span{1, x + iy}
    code, out, _ = run_cli(capsys, "liouville", "--preset", "cauchy-riemann",
                           "--eta", "1.5", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["dimension"] == 2
    vecs = np.array(rec["vectors"]) + 1j * np.array(rec["vectors_imag"])
    monomials = [tuple(g) for g in rec["monomials"]]
    z = np.zeros(len(monomials), dtype=complex)
    z[monomials.index((1, 0))] = 1.0
    z[monomials.index((0, 1))] = 1j
    sol, *_ = np.linalg.lstsq(vecs.T, z, rcond=None)
    assert np.linalg.norm(vecs.T @ sol - z) <= 1e-8
    code, out, _ = run_cli(capsys, "liouville", "--preset", "cauchy-riemann",
                           "--eta", "1.5")
    assert code == 0 and "dimension at cutoff 1.5: 2" in out
    assert out.strip().splitlines()[-1].endswith("j")
    # real operators keep real-only output
    code, out, _ = run_cli(capsys, "liouville", "--preset", "laplacian",
                           "--eta", "1.5", "--json")
    assert "vectors_imag" not in json.loads(out)


def test_extend_command(tmp_path, capsys):
    w = Window(Scaling((1,)), 1.0, (0,), (8,))
    field = partial_field_file(tmp_path)
    out_path = tmp_path / "full.field"
    code, out, _ = run_cli(capsys, "extend", "--field", str(field), "--alpha", "0.5",
                           "--holder-const", "1.0", "--out", str(out_path), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["defined_points"] == 3
    g, gm, gw = field_from_text(out_path.read_text())
    assert gw == w and gm.all()
    assert g[0] == 0.0 and g[4] == 1.0 and g[8] == 0.5
    # violating the stated constant is a computation error
    code, _, err = run_cli(capsys, "extend", "--field", str(field), "--alpha", "0.5",
                           "--holder-const", "0.01")
    assert code == 2

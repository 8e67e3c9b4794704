"""Command-line interface.

Exit codes: 0 success, 1 invalid input or flags, 2 computation error.
Every subcommand supports ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import harness
from .coeff_bounds import construct_weights
from .discrete_ops import (PRESETS, continuum_symbol, discrete_symbol,
                           is_discretely_elliptic, resolve_operator)
from .errors import GermCalcError, ValidationError
from .germs import field_from_text, field_to_text, load_germ
from .liouville import kernel_basis_to_text, polynomial_kernel, symbol_zero_search
from .norms import (mcshane_extend, norm_G_eta, seminorm_G_eta_alpha,
                    seminorm_G_gamma, sup_below)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_operator_flags(p):
    p.add_argument("--preset", choices=PRESETS, help="named operator")
    p.add_argument("--operator-file", help="operator in the text interchange format")
    p.add_argument("--dim", type=_positive_int, default=2, help="dimension for presets")


def _positive_int(text):
    """argparse type: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _float_list(text):
    """argparse type: comma-separated finite numbers."""
    try:
        vals = tuple(float(x) for x in text.split(","))
    except ValueError:
        vals = ()
    if not vals or not all(map(math.isfinite, vals)):
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    return vals


def _finite_float(lo: float, strict: bool):
    """argparse type: a finite number above ``lo`` (or equal to it unless strict)."""
    bound = "" if lo == -math.inf else f" {'>' if strict else '>='} {lo:g}"

    def parse(text):
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and (x > lo if strict else x >= lo)):
            raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")
        return x
    return parse


_positive = _finite_float(0.0, strict=True)
_non_negative = _finite_float(0.0, strict=False)


# one parser per process: parsing does not change it, and a build costs about 3 ms
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="germcalc",
                 description="anisotropic germ calculus on lattice windows")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="evaluate a germ norm")
    p.add_argument("--kind", required=True,
                   choices=["G-eta", "G-eta-alpha", "G-gamma", "sup-below"])
    p.add_argument("--germ", required=True, help="germ file")
    p.add_argument("--eta", type=_positive)
    p.add_argument("--alpha", type=_positive)
    p.add_argument("--gamma", type=_finite_float(-math.inf, strict=True))
    p.add_argument("--R", type=_positive, help="restrict distances/scales below R")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("symbol", help="evaluate operator symbols")
    _add_operator_flags(p)
    p.add_argument("--eps", type=_positive, default=1.0)
    p.add_argument("--theta", type=_float_list, help="dual-torus frequency, comma separated")
    p.add_argument("--xi", type=_float_list, help="continuum frequency, comma separated")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ellipticity",
                       help="classify an operator by symbol scans")
    _add_operator_flags(p)
    p.add_argument("--eps", type=_positive, default=1.0)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("liouville",
                       help="polynomial kernel and symbol zero search")
    _add_operator_flags(p)
    p.add_argument("--eps", type=_positive, default=1.0)
    p.add_argument("--eta", type=_non_negative, required=True)
    p.add_argument("--zero-search", action="store_true")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("weights",
                       help="construct and verify an absorption weight system")
    p.add_argument("--scaling", required=True, help="grading, comma separated")
    p.add_argument("--eta", type=_non_negative, required=True)
    p.add_argument("--delta", type=_positive, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("probe",
                       help="run a norm-ratio ensemble probe")
    p.add_argument("--config", help="flat key=value config file; flags win on conflict")
    # one flag per probe setting; an unset flag stays None, so the config
    # file's value (or the setting's default) stands
    for _, s in harness.SETTINGS:
        if s.flag is None:
            continue
        kind = ({"action": "store_const", "const": "true"} if s.parse is harness.parse_bool
                else {"choices": s.choices})
        p.add_argument(s.flag, dest=s.key, help=s.help, **kind)
    p.add_argument("--out", help="write per-member CSV here")
    p.add_argument("--json", action="store_true", help="print the JSON summary")

    p = sub.add_parser("extend",
                       help="extend a partial field without raising its Holder constant")
    p.add_argument("--field", required=True, help="field file with defined-point flags")
    p.add_argument("--alpha", type=_positive, required=True)
    p.add_argument("--holder-const", type=_non_negative, required=True)
    p.add_argument("--out", help="write the extended field here")
    p.add_argument("--json", action="store_true")
    return ap


def _cmd_norm(args) -> int:
    U = load_germ(args.germ)
    if args.kind == "G-eta":
        if args.eta is None:
            raise ValidationError("--kind G-eta requires --eta")
        rep = norm_G_eta(U, args.eta, R=args.R)
    elif args.kind == "G-eta-alpha":
        if args.eta is None or args.alpha is None:
            raise ValidationError("--kind G-eta-alpha requires --eta and --alpha")
        rep = seminorm_G_eta_alpha(U, args.eta, args.alpha, R=args.R)
    elif args.kind == "G-gamma":
        if args.gamma is None:
            raise ValidationError("--kind G-gamma requires --gamma")
        rep = seminorm_G_gamma(U, args.gamma, R=args.R)
    else:
        if args.R is None:
            raise ValidationError("--kind sup-below requires --R")
        rep = sup_below(U, args.R)
    if args.json:
        print(rep.to_json())
    else:
        print(f"{rep.name} = {rep.value:.17g}")
        if rep.witness:  # the witness object that --json carries
            print(f"witness: {json.dumps(json.loads(rep.to_json())['witness'])}")
    return 0


def _cmd_symbol(args) -> int:
    L = resolve_operator(args.operator_file, args.preset, args.dim)
    out = {}
    if args.theta is None and args.xi is None:
        raise ValidationError("need --theta (lattice) and/or --xi (continuum)")
    for flag, freq in (("--theta", args.theta), ("--xi", args.xi)):
        if freq is not None and len(freq) != L.d:
            raise ValidationError(f"{flag} needs {L.d} components, got {len(freq)}")
    if args.theta is not None:
        val = discrete_symbol(L, args.eps, args.theta)
        out["discrete"] = [val.real, val.imag]
    if args.xi is not None:
        val = continuum_symbol(L, args.xi)
        out["continuum"] = [val.real, val.imag]
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for k, (re, im) in out.items():
            print(f"{k} symbol = {re:.17g} {im:+.17g}i")
    return 0


def _cmd_ellipticity(args) -> int:
    L = resolve_operator(args.operator_file, args.preset, args.dim)
    rep = is_discretely_elliptic(L, eps=args.eps, resolution=args.resolution)
    if args.json:
        print(json.dumps({
            "verdict": rep.verdict, "continuum": rep.continuum_verdict,
            "discrete": rep.discrete_verdict,
            "continuum_margin": rep.continuum_margin,
            "discrete_margin": rep.discrete_margin,
            "continuum_witness": rep.continuum_witness,
            "discrete_witness": rep.discrete_witness,
            "resolution": rep.resolution, "notes": rep.notes}, sort_keys=True))
    else:
        print(f"verdict: {rep.verdict}")
        print(f"  continuum symbol: {rep.continuum_verdict} (margin {rep.continuum_margin:.3g})")
        print(f"  lattice symbol:   {rep.discrete_verdict} (margin {rep.discrete_margin:.3g})")
        if rep.notes:
            print(f"  note: {rep.notes}")
        if rep.discrete_witness:
            print(f"  lattice zero near theta = {rep.discrete_witness}")
    return 0


def _cmd_liouville(args) -> int:
    L = resolve_operator(args.operator_file, args.preset, args.dim)
    basis = polynomial_kernel(L, args.eps, args.eta)
    zeros = (symbol_zero_search(L, args.eps, args.resolution)
             if args.zero_search else None)
    if args.json:
        payload = {"dimension": basis.dimension,
                   "monomials": [list(g) for g in basis.gammas],
                   "vectors": basis.vectors.real.tolist()}
        if np.iscomplexobj(basis.vectors):
            payload["vectors_imag"] = basis.vectors.imag.tolist()
        if zeros is not None:
            payload["zeros"] = [{"theta": list(z.theta), "symbol_abs": z.symbol_abs,
                                 "residual": z.residual_inf} for z in zeros]
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"polynomial kernel dimension at cutoff {args.eta}: {basis.dimension}")
        print(kernel_basis_to_text(basis), end="")
        if zeros is not None:
            if zeros:
                for z in zeros:
                    print(f"nonzero symbol zero: theta={z.theta} |symbol|={z.symbol_abs:.3g} "
                          f"residual={z.residual_inf:.3g}")
            else:
                print("no nonzero symbol zeros found")
    return 0


def _cmd_weights(args) -> int:
    scaling = harness.parse_scaling(args.scaling)
    system = construct_weights(scaling, args.eta, args.delta)
    ok, worst = system.verify()
    # the work cap bounds the weights' size; past 4,300 digits Python refuses
    # to print an integer unless told otherwise
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(json.dumps({
                "ok": ok, "worst_ratio": worst,
                "kappa": {str(k): v for k, v in system.kappa.items()},
                "eps_level": {str(k): v for k, v in system.eps_level.items()},
                "rho": {str(k): list(v) for k, v in system.rho.items()}}, sort_keys=True))
        else:
            print(system.to_text(), end="")
            print(f"absorption inequality verified: {ok} (worst ratio {worst:.6g})")
    finally:
        sys.set_int_max_str_digits(digits)
    return 0


def _cmd_probe(args) -> int:
    kv = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            kv = harness.parse_config_text(fh.read())
    kv.update((s.key, vars(args)[s.key]) for _, s in harness.SETTINGS
              if vars(args).get(s.key) is not None)
    cfg = harness.config_from_mapping(kv)
    reports = harness.run_probe(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(harness.reports_to_csv(reports))
    summary = harness.summary_to_json(reports, cfg)
    if args.json:
        print(summary)
    else:
        for eps_key, entry in json.loads(summary)["eps"].items():
            print(f"eps={eps_key}: max={entry['max']:.6g} median={entry['median']:.6g} "
                  f"(n={entry['count']}, infinite={entry['infinite']})")
    return 0


def _cmd_extend(args) -> int:
    with open(args.field, encoding="utf-8") as fh:
        values, mask, window = field_from_text(fh.read())
    g = mcshane_extend(values, mask, window, args.alpha, args.holder_const)
    text = field_to_text(g, None, window)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        print(json.dumps({"min": float(np.min(g)), "max": float(np.max(g)),
                          "defined_points": int(mask.sum()),
                          "window_points": int(window.npoints)}, sort_keys=True))
    elif not args.out:
        print(text, end="")
    return 0


_HANDLERS = {
    "norm": _cmd_norm, "symbol": _cmd_symbol, "ellipticity": _cmd_ellipticity,
    "liouville": _cmd_liouville, "weights": _cmd_weights, "probe": _cmd_probe,
    "extend": _cmd_extend,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValidationError,) as exc:
        print(f"germcalc: invalid input: {exc}", file=sys.stderr)
        return 1
    except (GermCalcError, OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"germcalc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""germcalc benchmark: four CLI workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload probe-1d-jet --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics.

Load model: a closed loop with one client.  A pass is the workload's fixed
list of ``germcalc`` commands, issued back to back through
``germcalc.cli.main`` in this process.  No command passes ``--threads``, so
the default single worker is measured; OpenBLAS keeps its default thread
count.  Each pass of ``probe-2d-frozen`` and ``probe-parabolic`` draws its
sources from one of ``inputs`` sub-seeds (``seed * inputs + pass % inputs``),
so one run times many distinct members.  ``probe-1d-jet``, whose members
all cost about the same, repeats one input set; ``analysis`` has no
randomness.

End-to-end metrics (``--trace 0``):

* ``wall_s``: median wall time of one timed pass.  One untimed warm-up pass
  runs first, so the lazy ``scipy.optimize`` import and the bump-family
  cache are paid before timing starts.  The record in ``perfbench/out/``
  keeps every command's time in every pass.
* ``members_per_s``: ensemble members completed over the time spent in
  timed passes.  ``analysis`` has no ensemble; there each command counts
  as one.
* ``setup_s``: median over fresh interpreters of the wall time to start
  Python, ``import germcalc``, import ``scipy.optimize`` and build the bump
  family for the workload's grading.  CLI users pay this on every call.
* ``peak_rss_mb``: peak resident memory of this process.
* ``ops_ok_frac``: commands that returned 0 and passed their output checks,
  over commands attempted in timed passes (``1 - failed / attempted``).

On a shared 2-vCPU Xeon VM the host's speed drifted by up to a third over
spans of 5-15 s, so the timings of one run spread by up to about a fifth
across seeds; ``BENCHMARK.json`` bounds them at 0.25.

Output checks: with the default seed, every probe CSV and every analysis
JSON is compared with the outputs recorded in ``reference.json``, each
number within 1e-12 of the largest magnitude in its CSV row or JSON
document.  With every seed the invariants listed in ``WORKLOADS`` hold, and
a repeated input set reproduces its output byte for byte.  ``liouville --preset
cauchy-riemann --eta 1.5`` fails at the commit the reference was recorded
at (``polynomial_kernel`` rejects its own basis); it stays in ``analysis``
and counts as failed.

The traced run (``--trace 1``) alternates untraced and traced passes on the
same inputs.  It reports, as medians over traced passes, busy time and calls
of the public functions in ``tracer.py`` and each layer's share of the
traced pass (self time: busy time minus child spans); the ratios of exact
solves to base pairs and of LP fallbacks to solves; the set-up phases; and
the tracing overhead, traced minus untraced pass time.  Spans are written to
``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import BASE_PAIRS, ROOT_SPAN, Tracer, TraceError, layer_of, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
RTOL = 1e-12
SETUP_REPEATS = 3
# A traced pass whose layer spans leave more than this share of its wall
# time unattributed (root self time) is reported as a broken trace.
UNATTRIBUTED_MAX = 0.05
MAX_PRINTED = 10


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    members: int = 0                 # ensemble members; 0 outside the probes
    invariant: tuple | None = None   # (predicate on the parsed JSON, description)

    @property
    def probe(self) -> bool:
        return self.argv[0] == "probe"


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    inputs: int = 1                  # distinct input sets cycled over passes
    family: tuple | None = None      # (grading, k) that set-up builds

    @property
    def work(self) -> int:
        return sum(c.members for c in self.commands) or len(self.commands)


def _probe(*args: str, members: int) -> Command:
    return Command(("probe", "--eta", "1.5", "--alpha", "0.5") + args, members)


def _analysis(text: str, predicate=None, description: str = "") -> Command:
    return Command(tuple(text.split()) + ("--json",),
                   invariant=None if predicate is None else (predicate, description))


def _has_certified_zero(out) -> bool:
    return any(z["residual"] <= 1e-10 for z in out.get("zeros", []))


WORKLOADS = {
    # The README probe: many light members.  G_gamma dominates and the
    # minimax engine does no exact solve, so a _minimax change must not move it.
    "probe-1d-jet": Workload(
        (_probe("--scaling", "1", "--preset", "laplacian", "--window", "16",
                "--eps", "1,0.5,0.25", "--ensemble", "10", "--json", members=30),),
        family=((1,), 1)),
    # Heaviest members and largest tables (289 x 289): the G_eta_alpha screen
    # dominates, and p=2 fits in two dimensions fall back to LP often.
    "probe-2d-frozen": Workload(
        (_probe("--scaling", "1,1", "--preset", "laplacian", "--germ", "frozen",
                "--window", "8", "--eps", "1", "--ensemble", "1", members=1),),
        inputs=16, family=((1, 1), 1)),
    # Parabolic grading: square-root distances, p=1 fits and the IVP path.
    "probe-parabolic": Workload(
        (_probe("--mode", "ivp", "--scaling", "2,1", "--preset", "heat", "--window", "8",
                "--time-extent", "16", "--ensemble", "1", members=1),
         _probe("--scaling", "2,1", "--preset", "heat", "--germ", "frozen",
                "--window", "8", "--ensemble", "1", members=1)),
        inputs=16, family=((2, 1), 1)),
    # Symbol scans, zero search and exact weights; touches no probe layer.
    "analysis": Workload((
        _analysis("ellipticity --preset laplacian",
                  lambda o: o["verdict"] == "elliptic", "laplacian is elliptic"),
        _analysis("ellipticity --preset heat",
                  lambda o: o["verdict"] == "elliptic", "heat is elliptic"),
        _analysis("ellipticity --preset cauchy-riemann",
                  lambda o: o["continuum"] == "elliptic" and o["continuum_margin"] > 1e-6,
                  "cauchy-riemann continuum symbol is elliptic with margin > 1e-6"),
        _analysis("ellipticity --preset eps-degenerate",
                  lambda o: o["verdict"] == o["continuum"] == "not-elliptic",
                  "eps-degenerate is not elliptic"),
        _analysis("liouville --preset laplacian --eta 1.5 --zero-search",
                  lambda o: o["dimension"] == 3 and o["zeros"] == [],
                  "laplacian kernel has dimension 3 and no zeros"),
        _analysis("liouville --preset heat --eta 1.5 --zero-search"),
        _analysis("liouville --preset eps-degenerate --eta 1.5 --zero-search"),
        _analysis("liouville --preset cauchy-riemann --eta 0.5 --zero-search",
                  _has_certified_zero, "cauchy-riemann has a zero with residual <= 1e-10"),
        _analysis("liouville --preset cauchy-riemann --eta 1.5"),
        _analysis("weights --scaling 2,1 --eta 5.5 --delta 0.1",
                  lambda o: o["ok"] is True, "weights verify"),
        _analysis("weights --scaling 1,1,1 --eta 4.5 --delta 0.1",
                  lambda o: o["ok"] is True, "weights verify"),
        _analysis("weights --scaling 2,1,1 --eta 4.5 --delta 0.1",
                  lambda o: o["ok"] is True, "weights verify"),
    )),
}

LAYERS = ("harness", "germs", "discrete_ops", "norms", "minimax", "liouville",
          "coeff_bounds", "cli")
# per-layer metrics read from each traced pass: "<span or counter>.<kind>" -> kind,
# where kind is busy time (s), self time (self_s) or calls
PASS_METRICS = {
    "harness.solve_poisson.s": "s", "harness.solve_poisson.calls": "calls",
    "germs.jet_germ.s": "s", "germs.frozen_coefficient_germ.s": "s",
    "germs.Window.ball.calls": "calls",
    "geometry.Scaling.pairwise_distance.calls": "calls",
    "discrete_ops.apply_to_germ.s": "s", "discrete_ops.is_discretely_elliptic.s": "s",
    "discrete_ops.discrete_symbol.calls": "calls",
    "norms.norm_G_eta.s": "s", "norms.seminorm_G_gamma.s": "s",
    "norms.pairing.calls": "calls",
    "norms.seminorm_G_eta_alpha.s": "s", "norms.seminorm_G_eta_alpha.self_s": "self_s",
    "norms.pair_minimax.calls": "calls",
    "minimax.solve_minimax.s": "s", "minimax.solve_minimax.calls": "calls",
    "minimax.lp_minimax.s": "s", "minimax.lp_minimax.calls": "calls",
    "liouville.polynomial_kernel.s": "s", "liouville.symbol_zero_search.s": "s",
    "coeff_bounds.construct_weights.s": "s", "coeff_bounds.WeightSystem.verify.s": "s",
}
UNITS = {"s": "s", "self_s": "s", "calls": "count"}

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import germcalc
t1 = time.perf_counter()
import scipy.optimize
t2 = time.perf_counter()
family = json.loads(sys.argv[2])
if family:
    from germcalc.geometry import Scaling
    from germcalc.norms import build_default_family
    build_default_family(Scaling(tuple(family[0])), family[1])
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Pass:
    index: int
    times: list           # per command: wall time
    errors: list          # per command: None or a one-line failure message
    outputs: list         # per command: raw output text (CSV or stdout) or None

    @property
    def wall(self) -> float:
        return sum(self.times)


def invoke(cli, argv):
    """Run one command in-process; returns (error or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a command that raises is counted, not fatal
        return f"{type(exc).__name__}: {exc}", None
    if rc != 0:
        return f"exit code {rc}: {err.getvalue().strip()}", None
    return None, out.getvalue()


def command_argv(cmd: Command, index: int, sub_seed: int) -> tuple[str, ...]:
    if not cmd.probe:
        return cmd.argv
    return cmd.argv + ("--seed", str(sub_seed), "--out", str(OUT / f"cmd{index}.csv"))


def run_pass(cli, wl: Workload, seed: int, index: int, tracer=None) -> Pass:
    sub_seed = seed * wl.inputs + index % wl.inputs
    times, errors, outputs = [], [], []
    for ci, cmd in enumerate(wl.commands):
        argv = command_argv(cmd, ci, sub_seed)
        if tracer is not None:
            tracer.command = [index, ci]
        t0 = time.perf_counter()
        error, stdout = invoke(cli, argv)
        times.append(time.perf_counter() - t0)
        if error is None and cmd.probe:
            stdout = (OUT / f"cmd{ci}.csv").read_text(encoding="utf-8")
        errors.append(error)
        outputs.append(stdout)
    return Pass(index, times, errors, outputs)


# ---------------------------------------------------------------------------
# output checks


def parse_output(cmd: Command, text: str):
    if not cmd.probe:
        return json.loads(text)
    lines = text.strip().splitlines()
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        rows.append([int(f[0])] + [float(x) for x in f[1:-1]] + [f[-1]])
    return rows


def _float_scale(obj) -> float:
    if isinstance(obj, float):
        return abs(obj) if math.isfinite(obj) else 0.0
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return max((_float_scale(x) for x in obj), default=0.0)
    return 0.0


def compare(ref, got, scale: float, where: str = "") -> list[str]:
    """Recorded value against new output; floats within RTOL * scale."""
    if isinstance(ref, float):
        if (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - ref) <= RTOL * max(abs(ref), abs(got), scale)):
            return []
    elif isinstance(ref, dict):
        if isinstance(got, dict):
            return [p for k in ref for p in
                    (compare(ref[k], got[k], scale, f"{where}.{k}") if k in got
                     else [f"{where}.{k}: missing"])]
    elif isinstance(ref, list):
        if isinstance(got, list) and len(got) == len(ref):
            return [p for i, (r, g) in enumerate(zip(ref, got))
                    for p in compare(r, g, scale, f"{where}[{i}]")]
    elif got == ref:
        return []
    return [f"{where}: got {got!r}, recorded {ref!r}"]


def check_output(cmd: Command, parsed, recorded) -> list[str]:
    problems = []
    if cmd.probe:
        if len(parsed) != cmd.members:
            problems.append(f"{len(parsed)} CSV rows, expected {cmd.members}")
        bad = [r[0] for r in parsed if not (math.isfinite(r[-2]) and r[-2] > 0)]
        if bad:
            problems.append(f"ratio not finite and positive for members {bad}")
        if recorded is not None:
            if len(recorded) != len(parsed):
                problems.append("row count differs from the recorded output")
            for i, (r, g) in enumerate(zip(recorded, parsed)):
                problems += compare(r, g, _float_scale(r), f"row {i}")
    else:
        if cmd.invariant is not None and not cmd.invariant[0](parsed):
            problems.append(f"invariant failed: {cmd.invariant[1]}")
        if recorded is not None:
            problems += compare(recorded, parsed, _float_scale(recorded), "json")
    return problems


class Checker:
    def __init__(self, name: str, wl: Workload, seed: int):
        self.wl = wl
        self.recorded = None
        if seed == DEFAULT_SEED:
            self.recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][name]
        self.first_output: dict = {}
        self.errors: list[str] = []       # commands that raised or exited nonzero
        self.mismatches: list[str] = []   # outputs that failed a check

    def check(self, p: Pass) -> list[bool]:
        """Check one pass; returns per command whether it failed."""
        failed = []
        j = p.index % self.wl.inputs
        for ci, (cmd, error, text) in enumerate(zip(self.wl.commands, p.errors, p.outputs)):
            label = f"command {ci} ({' '.join(cmd.argv[:4])})"
            if error is not None:
                self.errors.append(f"{label}: {error.splitlines()[0]}")
                failed.append(True)
                continue
            recorded = None if self.recorded is None else self.recorded[j][ci]
            try:
                problems = check_output(cmd, parse_output(cmd, text), recorded)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            first = self.first_output.setdefault((j, ci), text)
            if text != first:
                problems.append("same inputs gave a different output")
            self.mismatches += [f"pass {p.index} {label}: {msg}" for msg in problems]
            failed.append(bool(problems))
        return failed


# ---------------------------------------------------------------------------
# set-up, provenance


def measure_setup(wl: Workload) -> list[tuple[float, list[float]]]:
    """(wall, [import germcalc, import scipy.optimize, build family]) per
    fresh interpreter."""
    family = json.dumps(wl.family)
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), family],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        runs.append((wall, json.loads(proc.stdout)))
    return runs


def provenance() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
    sources = sorted((SRC / "germcalc").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_cli():
    if not (SRC / "germcalc" / "__init__.py").is_file():
        raise BenchError(f"no germcalc sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import germcalc
    import germcalc.cli as cli

    if Path(germcalc.__file__).resolve().parent != SRC / "germcalc":
        raise BenchError(f"imported germcalc from {germcalc.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# the two kinds of run


def _keep_going(start: float, walls: list[float], seconds: float) -> bool:
    """Start another pass only if a median pass still fits in the budget."""
    return not walls or time.perf_counter() - start + statistics.median(walls) <= seconds


def end_to_end(cli, name, wl, seed, seconds, checker):
    setup = measure_setup(wl)
    checker.check(run_pass(cli, wl, seed, 0))  # warm-up
    passes, failed = [], []
    start = time.perf_counter()
    while _keep_going(start, [p.wall for p in passes], seconds):
        p = run_pass(cli, wl, seed, len(passes))
        passes.append(p)
        failed += checker.check(p)
    walls = [p.wall for p in passes]
    attempted = len(failed)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "members_per_s": (wl.work * len(walls) / sum(walls), "1/s"),
        "setup_s": (statistics.median(w for w, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok_frac": ((attempted - sum(failed)) / attempted, "ratio"),
    }
    return metrics, attempted, sum(failed), {"pass_times": [p.times for p in passes]}


def traced(cli, name, wl, seed, seconds, checker):
    setup = measure_setup(wl)
    checker.check(run_pass(cli, wl, seed, 0))  # warm-up
    tracer = Tracer()
    plain, rows, failed, pair_walls = [], [], [], []
    start = time.perf_counter()
    while _keep_going(start, pair_walls, seconds):
        k = len(plain)
        p = run_pass(cli, wl, seed, k)
        failed += checker.check(p)
        before, first = tracer.counts.copy(), len(tracer.spans)
        tracer.install()
        try:
            t = run_pass(cli, wl, seed, k, tracer)
        finally:
            tracer.uninstall()
        pass_failed = checker.check(t)
        failed += pass_failed
        plain.append(p.wall)
        pair_walls.append(p.wall + t.wall)
        spans = tracer.spans[first:]
        counts = tracer.counts - before
        rows.append(_pass_layers(t, spans, self_times(spans, first), counts, wl,
                                 any(pass_failed)))

    def med(key):
        return statistics.median(r[key] for r in rows)

    metrics = {
        "setup.import_germcalc.s": (statistics.median(ph[0] for _, ph in setup), "s"),
        "setup.import_scipy_optimize.s": (statistics.median(ph[1] for _, ph in setup), "s"),
        "norms.build_default_family.s": (statistics.median(ph[2] for _, ph in setup), "s"),
    }
    for key, kind in PASS_METRICS.items():
        metrics[key] = (med(key), UNITS[kind])
    solves = sum(r["minimax.solve_minimax.calls"] for r in rows)
    pairs = sum(r[BASE_PAIRS] for r in rows)
    lp = sum(r["minimax.lp_minimax.calls"] for r in rows)
    metrics["norms.exact_solve_frac"] = (solves / pairs if pairs else 0.0, "ratio")
    metrics["minimax.exchange_certified_frac"] = (1 - lp / solves if solves else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (med(f"{layer}.share"), "ratio")
    metrics["trace.wall_s"] = (med("wall"), "s")
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] - w for r, w in zip(rows, plain)), "s")

    OUT.mkdir(exist_ok=True)
    names = sorted({s[0] for s in tracer.spans})
    (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "names": names,
        "fields": ["name", "start", "end", "parent", "command"],
        "spans": [[names.index(s[0])] + s[1:] for s in tracer.spans]}), encoding="utf-8")
    return metrics, len(failed), sum(failed), {"untraced_walls": plain,
                                               "traced_walls": [r["wall"] for r in rows]}


def _pass_layers(p: Pass, spans, selfs, counts, wl: Workload, pass_failed: bool) -> dict:
    """Per-layer numbers of one traced pass, after the trace self-checks."""
    busy, calls, self_by_name = {}, {}, {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
    if calls.get(ROOT_SPAN, 0) != len(wl.commands):
        raise TraceError(f"{calls.get(ROOT_SPAN, 0)} {ROOT_SPAN} spans "
                         f"for {len(wl.commands)} commands")
    members = sum(c.members for c in wl.commands)
    if not pass_failed:
        for fn in ("norms.seminorm_G_eta_alpha", "norms.seminorm_G_gamma",
                   "discrete_ops.apply_to_germ"):
            if calls.get(fn, 0) != members:
                raise TraceError(f"{calls.get(fn, 0)} {fn} calls for {members} members")
    if calls.get("minimax.solve_minimax", 0) > counts[BASE_PAIRS]:
        raise TraceError("more exact solves than base pairs screened")
    unattributed = self_by_name.get(ROOT_SPAN, 0.0) / p.wall
    if unattributed > UNATTRIBUTED_MAX:
        raise TraceError(f"layer spans leave {unattributed:.1%} of the traced wall time "
                         f"unattributed (limit {UNATTRIBUTED_MAX:.0%})")
    row = {"wall": p.wall, BASE_PAIRS: counts[BASE_PAIRS]}
    for key, kind in PASS_METRICS.items():
        fn = key.rsplit(".", 1)[0]
        row[key] = {"s": busy.get(fn, 0.0), "self_s": self_by_name.get(fn, 0.0),
                    "calls": calls.get(fn, counts[fn])}[kind]
    for layer in LAYERS:
        row[f"{layer}.share"] = sum(v for n, v in self_by_name.items()
                                    if layer_of(n) == layer) / p.wall
    return row


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        cli = import_cli()
        OUT.mkdir(exist_ok=True)
        checker = Checker(args.workload, wl, args.seed)
        run = traced if args.trace else end_to_end
        metrics, attempted, failed, detail = run(cli, args.workload, wl, args.seed,
                                                 args.seconds, checker)
        if sorted(metrics) != sorted(declared_metrics(bool(args.trace))):
            raise BenchError("reported metrics differ from those BENCHMARK.json declares")
        prov = provenance()
    except Exception as exc:  # no result line: the run is void
        traceback.print_exc()
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "errors": checker.errors,
              "mismatches": checker.mismatches, **detail,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for msg in dict.fromkeys(checker.errors):
        print(f"failed: {msg}")
    for msg in checker.mismatches[:MAX_PRINTED]:
        print(f"incorrect: {msg}")
    if len(checker.mismatches) > MAX_PRINTED:
        print(f"incorrect: ... {len(checker.mismatches) - MAX_PRINTED} more in {record_path}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": not checker.mismatches,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded from outside germcalc by rebinding its functions.

Nothing in the program is changed on disk. ``Tracer.install`` replaces each
target function with a wrapper, in its defining module and in every germcalc
module that imported it by name (``harness`` and ``cli`` import
``seminorm_G_gamma``, ``liouville`` imports ``discrete_symbol``, and so on).
Methods are replaced on their class. ``Tracer.uninstall`` puts the originals
back, so untraced and traced passes can alternate in one process.

Heavy calls get one span each: name, start, end, parent span and command id.
Hot small calls only bump a counter.  A reference this rebinding cannot
reach (a function kept in a container, say) leaves calls untraced; the
traced run in ``run.py`` checks call counts per member to catch that.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, qualified name); metric names drop the "germcalc." prefix and the
# leading underscore of "_minimax", since a metric name starts with a letter.
SPAN_TARGETS = (
    ("germcalc.cli", "main"),
    ("germcalc.harness", "solve_poisson"),
    ("germcalc.germs", "jet_germ"),
    ("germcalc.germs", "frozen_coefficient_germ"),
    ("germcalc.discrete_ops", "apply_to_germ"),
    ("germcalc.discrete_ops", "is_discretely_elliptic"),
    ("germcalc.norms", "build_default_family"),
    ("germcalc.norms", "norm_G_eta"),
    ("germcalc.norms", "seminorm_G_gamma"),
    ("germcalc.norms", "seminorm_G_eta_alpha"),
    ("germcalc.norms", "pair_minimax"),
    ("germcalc._minimax", "solve_minimax"),
    ("germcalc._minimax", "lp_minimax"),
    ("germcalc.liouville", "polynomial_kernel"),
    ("germcalc.liouville", "symbol_zero_search"),
    ("germcalc.coeff_bounds", "construct_weights"),
    ("germcalc.coeff_bounds", "WeightSystem.verify"),
)
COUNT_TARGETS = (
    ("germcalc.norms", "pairing"),
    ("germcalc.discrete_ops", "discrete_symbol"),
    ("germcalc.germs", "Window.ball"),
    ("germcalc.geometry", "Scaling.pairwise_distance"),
)
ROOT_SPAN = "cli.main"
BASE_PAIRS = "norms.base_pairs"


class TraceError(RuntimeError):
    """The trace cannot be trusted: a rebinding was missed or spans disagree."""


def metric_name(module: str, qualname: str) -> str:
    return f"{module.split('.')[-1].lstrip('_')}.{qualname}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _base_pairs(U, eta, alpha, R=None, *args, **kwargs) -> int:
    """Base pairs the three-point screen examines: every ordered pair of
    distinct base points (all have positive distance) when R is None."""
    if R is not None:
        raise TraceError("base-pair count assumes an unrestricted semi-norm (R=None)")
    n = U.base.npoints
    return n * (n - 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, command id]
        self.counts: Counter = Counter()
        self.command = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        on_call = _base_pairs if name == "norms.seminorm_G_eta_alpha" else None
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                counts[BASE_PAIRS] += on_call(*args, **kwargs)
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.command])
            stack.append(i)
            spans[i][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise TraceError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "germcalc" or k.startswith("germcalc.")]
        for targets, make in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._count)):
            for module, qualname in targets:
                owner = sys.modules[module]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if path else getattr(owner, attr)
                wrapper = make(metric_name(module, qualname), fn)
                if path:  # a method: rebinding on the class reaches every instance
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def self_times(spans, first: int = 0) -> list[float]:
    """Each span's duration minus the time its child spans cover; ``spans``
    is ``Tracer.spans[first:]``, a slice that holds whole call trees."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent - first] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]

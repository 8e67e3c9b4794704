import cmath
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from germcalc import DistGerm, Germ, Scaling, make_operator
from germcalc.germs import Window

from polyutil import window_contains


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def box(scaling, eps, half, d=None):
    d = d or scaling.d
    return Window(scaling, eps, (-half,) * d, (half,) * d)


def random_germ(rng, scaling, eps=1.0, half=4, cls=Germ, complex_values=False):
    w = box(scaling, eps, half)
    vals = rng.standard_normal((w.npoints, w.npoints))
    if complex_values:
        vals = vals + 1j * rng.standard_normal(vals.shape)
    return cls(w, w, vals)


def germ_restricted(U, half):
    """Sub-germ over the concentric window of the given half-width."""
    scaling = U.scaling
    small = Window(scaling, U.eps, (-half,) * scaling.d, (half,) * scaling.d)
    bsel = [i for i, idx in enumerate(U.base.indices()) if window_contains(small, idx)]
    asel = [i for i, idx in enumerate(U.active.indices()) if window_contains(small, idx)]
    vals = U.values[np.ix_(bsel, asel)]
    return type(U)(small, small, vals)


_E = ((1, 0), (0, 1))


def first_order(a1, a2, b1, b2):
    """a_1 D_1 + a_2 D_2 + b_1 Dbar_1 + b_2 Dbar_2 in 2D."""
    return make_operator(Scaling((1, 1)), {(_E[0], (0, 0)): a1, (_E[1], (0, 0)): a2,
                                           ((0, 0), _E[0]): b1, ((0, 0), _E[1]): b2})


def l_t(t):
    """D_1 - e^(it) Dbar_1 + i D_2: its lattice symbol vanishes at (t, 0)."""
    return first_order(1.0, 1j, -cmath.exp(1j * t), 0.0)


# sum_j (D_j + Dbar_j)^2, symbol -4 sum_j sin^2(theta_j): zero where each theta_j is 0 or +-pi
WIDE_LAPLACIAN = make_operator(Scaling((1, 1)), {
    term: c for j in range(2) for term, c in (((tuple(2 * x for x in _E[j]), (0, 0)), 1.0),
                                              ((_E[j], _E[j]), 2.0),
                                              (((0, 0), tuple(2 * x for x in _E[j])), 1.0))})

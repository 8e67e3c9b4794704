"""Anisotropic grading, distance, balls, and the rescaling/recentering group.

The grading assigns a positive integer weight to each coordinate axis.  It
induces the degree of a multi-index (weighted sum of its entries), a
quasi-distance (sum of per-axis root-distances), and a one-parameter family
of dilations that stretch axis ``j`` by ``R**s[j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Scaling:
    """Grading of the coordinate axes.

    Parameters
    ----------
    s : tuple of int
        One weight >= 1 per axis.  ``(1, ..., 1)`` is the isotropic case,
        ``(2, 1, ..., 1)`` the parabolic (time-space) case.
    """

    s: tuple[int, ...]

    def __post_init__(self):
        s = tuple(int(x) for x in self.s)
        if len(s) < 1:
            raise DimensionError("scaling needs at least one axis")
        if any(x < 1 for x in s):
            raise DimensionError(f"scaling entries must be >= 1, got {s}")
        object.__setattr__(self, "s", s)

    @classmethod
    def from_text(cls, text) -> Scaling:
        """Grading from comma-separated axis weights, such as ``"2,1"``; a
        weight that is not an integer raises ValueError."""
        return cls(tuple(int(x) for x in str(text).split(",")))

    def to_text(self) -> str:
        """The weights comma-separated, as ``from_text`` reads them."""
        return ",".join(map(str, self.s))

    @property
    def d(self) -> int:
        return len(self.s)

    @property
    def homogeneity(self) -> int:
        """Sum of the weights; the volume exponent of dilations."""
        return sum(self.s)

    def check_dim(self, v) -> None:
        if len(v) != self.d:
            raise DimensionError(f"expected length {self.d}, got {len(v)}")

    def degree(self, gamma: MultiIndex) -> int:
        """Weighted degree of a multi-index."""
        self.check_dim(gamma)
        if any(g < 0 for g in gamma):
            raise ValueError(f"multi-index entries must be >= 0, got {gamma}")
        return sum(w * int(g) for w, g in zip(self.s, gamma))

    def distance(self, x, y) -> float:
        """Anisotropic distance: sum over axes of ``|x_j - y_j|**(1/s[j])``."""
        return float(self.pairwise_distance(x, y)[0, 0])

    def pairwise_distance(self, X, Y) -> np.ndarray:
        """Distance matrix between point sets X (n, d) and Y (m, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[1] != self.d or Y.shape[1] != self.d:
            raise DimensionError("point arrays must have d columns")
        out = np.zeros((X.shape[0], Y.shape[0]))
        for j, w in enumerate(self.s):
            t = np.abs(X[:, j, None] - Y[None, :, j])
            out += t if w == 1 else np.sqrt(t) if w == 2 else t ** (1.0 / w)
        return out


def multi_indices(scaling: Scaling, max_degree: float) -> list[MultiIndex]:
    """All multi-indices with weighted degree <= max_degree, in degree-lex order.

    Ordering: lower degree first; within a degree level, lexicographic with
    the first differing component deciding.
    """
    if max_degree < 0:
        return []
    out: list[MultiIndex] = []

    def rec(prefix, remaining_axes, budget):
        if not remaining_axes:
            out.append(tuple(prefix))
            return
        w = remaining_axes[0]
        for g in range(int(budget // w) + 1):
            rec(prefix + [g], remaining_axes[1:], budget - w * g)

    rec([], list(scaling.s), float(max_degree))
    out.sort(key=lambda g: (scaling.degree(g), g))
    return out


def count_multi_indices(scaling: Scaling, max_degree: float, limit: float = math.inf) -> int:
    """The number of multi-indices with weighted degree <= max_degree.

    The indices along the lightest axis bound it from below; when that bound
    passes ``limit`` it is returned instead, so a huge degree costs nothing.
    """
    if max_degree < 0:
        return 0
    low = int(max_degree // min(scaling.s)) + 1
    if low > limit:
        return low
    top = math.floor(max_degree)
    ways = [1] + [0] * top  # ways[k]: the indices of weighted degree k
    for w in scaling.s:
        for k in range(w, top + 1):
            ways[k] += ways[k - w]
    return sum(ways)


@dataclass(frozen=True)
class ScaleMap:
    """Recentering/dilation map ``y -> w + (R**s[1] y_1, ..., R**s[d] y_d)``."""

    scaling: Scaling
    w: tuple[float, ...]
    R: float

    def __post_init__(self):
        self.scaling.check_dim(self.w)
        if not self.R > 0:
            raise ValueError(f"scale must be positive, got {self.R}")
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        object.__setattr__(self, "R", float(self.R))

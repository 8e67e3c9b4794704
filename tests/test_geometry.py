import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germcalc import ScaleMap, Scaling, multi_indices
from germcalc.geometry import count_multi_indices
from germcalc.errors import DimensionError

from polyutil import scale_point


def test_degree_examples():
    assert Scaling((2, 1, 1)).degree((1, 0, 2)) == 4
    assert Scaling((1, 1)).degree((0, 0)) == 0
    assert Scaling((3, 2)).degree((2, 1)) == 8


def test_degree_dimension_mismatch():
    with pytest.raises(DimensionError):
        Scaling((1, 1)).degree((1, 0, 2))


def test_distance_examples():
    s = Scaling((2, 1))
    assert s.distance((0, 0), (4, 3)) == pytest.approx(5.0, abs=0)
    assert s.distance((1.5, -2.0), (1.5, -2.0)) == 0.0
    assert Scaling((1, 1)).distance((0, 0), (1, 1)) == 2.0
    with pytest.raises(DimensionError):
        s.distance((0, 0, 0), (1, 1, 1))


def test_scale_point_examples():
    s = Scaling((2, 1))
    ident = ScaleMap(s, (0.0, 0.0), 1.0)
    y = np.array([3.0, -2.0])
    assert np.allclose(scale_point(ident, y), y)
    m = ScaleMap(s, (1.0, 1.0), 2.0)
    assert np.allclose(scale_point(m, (1.0, 1.0)), (5.0, 3.0))


def test_distance_covariance(rng):
    for s in (Scaling((1, 1)), Scaling((2, 1)), Scaling((3, 1, 2))):
        for _ in range(50):
            m = ScaleMap(s, tuple(rng.standard_normal(s.d)), float(rng.uniform(0.3, 4)))
            x = rng.standard_normal(s.d)
            y = rng.standard_normal(s.d)
            lhs = s.distance(scale_point(m, x), scale_point(m, y))
            rhs = m.R * s.distance(x, y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(st.lists(st.integers(0, 6), min_size=2, max_size=2),
       st.lists(st.integers(0, 6), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_degree_additive(g1, g2):
    s = Scaling((2, 1))
    total = tuple(a + b for a, b in zip(g1, g2))
    assert s.degree(total) == s.degree(tuple(g1)) + s.degree(tuple(g2))


def test_multi_indices_order_and_content():
    s = Scaling((2, 1))
    got = multi_indices(s, 3.5)
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1)]
    assert multi_indices(Scaling((1,)), 2.5) == [(0,), (1,), (2,)]
    assert multi_indices(s, -1) == []


def test_scaling_validation():
    with pytest.raises(DimensionError):
        Scaling(())
    with pytest.raises(DimensionError):
        Scaling((1, 0))
    with pytest.raises(ValueError):
        ScaleMap(Scaling((1,)), (0.0,), 0.0)


@pytest.mark.parametrize("weights", [(1,), (1, 1), (2, 1), (2, 1, 1), (12, 3)])
def test_grading_text_round_trip(weights):
    s = Scaling(weights)
    assert s.to_text() == ",".join(map(str, weights))
    assert Scaling.from_text(s.to_text()) == s


def test_grading_text_rejects_malformed():
    for text in ("2,x", "", "1;2", "2,,1"):
        with pytest.raises(ValueError, match="invalid literal for int"):
            Scaling.from_text(text)
    with pytest.raises(DimensionError, match="must be >= 1"):
        Scaling.from_text("0,1")


def test_pairwise_distance_matches_scalar(rng):
    s = Scaling((2, 1))
    X = rng.standard_normal((6, 2))
    Y = rng.standard_normal((5, 2))
    D = s.pairwise_distance(X, Y)
    for i in range(6):
        for j in range(5):
            assert D[i, j] == pytest.approx(s.distance(X[i], Y[j]), abs=1e-14)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.floats(0, 12, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_count_multi_indices(weights, max_degree):
    s = Scaling(tuple(weights))
    n = len(multi_indices(s, max_degree))
    assert count_multi_indices(s, max_degree) == n
    # past the limit, the lightest axis's indices stand in for the count
    low = int(max_degree // min(weights)) + 1
    assert count_multi_indices(s, max_degree, limit=low - 1) == low
    assert count_multi_indices(s, 1e300, limit=10) > 10

from fractions import Fraction

import pytest

from germcalc import Scaling, construct_weights, multi_indices
from germcalc import coeff_bounds
from germcalc.coeff_bounds import (MAX_WEIGHT_WORK, _check_work, _int_root_at_least,
                                   _weight_work, first_differing_component)
from germcalc.errors import ValidationError

from polyutil import cross_term, reference_construct_weights, reference_verify


def test_index_set_ordering():
    s = Scaling((2, 1))
    assert multi_indices(s, 3.5) == [(0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1)]
    assert first_differing_component((0, 2), (1, 0)) == 0
    assert first_differing_component((1, 1), (1, 3)) == 1


def test_weights_singleton():
    s = Scaling((1,))
    system = construct_weights(s, 0.5, 0.2)
    assert system.kappa == {(0,): 1}
    assert system.rho == {(0,): (1,)}
    ok, worst = system.verify()
    assert ok and worst == 0.0


def test_weights_one_dimensional_rho_trivial():
    s = Scaling((1,))
    system = construct_weights(s, 2.5, 0.1)
    ok, _ = system.verify()
    assert ok
    assert all(r == (1,) for r in system.rho.values())


def test_weights_two_dimensional_verify():
    s = Scaling((2, 1))
    system = construct_weights(s, 3.5, 0.1)
    ok, worst = system.verify()
    assert ok and worst <= 1.0
    # direct summation, independently of the verify method
    delta = Fraction(0.1)
    for g in system.indices:
        total = sum((cross_term(system, b, g) for b in system.indices if b != g),
                    Fraction(0))
        assert total <= delta * system.kappa[g]


def test_weights_monotone_in_delta():
    s = Scaling((2, 1))
    big = construct_weights(s, 3.5, 0.1)
    small = construct_weights(s, 3.5, 0.05)
    for g in big.indices:
        assert small.kappa[g] >= big.kappa[g]


def test_weights_deterministic():
    s = Scaling((1, 1, 2))
    a = construct_weights(s, 2.5, 0.2)
    b = construct_weights(s, 2.5, 0.2)
    assert a == b


def test_weights_validation():
    with pytest.raises(ValidationError):
        construct_weights(Scaling((1,)), 1.0, 0.0)


from hypothesis import given, settings, strategies as st


@given(st.sampled_from([(1,), (2,), (1, 1), (2, 1), (1, 2)]),
       st.floats(0.5, 3.5), st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_weights_invariant_property(s, eta, delta):
    system = construct_weights(Scaling(s), eta, delta)
    ok, worst = system.verify()
    assert ok and worst <= 1.0


@given(st.one_of(st.fractions(min_value=0, max_value=10**30, max_denominator=10**6),
                 st.integers(1, 10**30).map(Fraction)),
       st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_int_root_at_least(bound, q):
    r = _int_root_at_least(bound, q)
    assert r >= 1 and r ** q >= bound
    assert r == 1 or (r - 1) ** q < bound


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_int_root_at_least_perfect_powers(q):
    for r in (2, 3, 10**5 + 7, 31622776601):
        n = r ** q
        assert _int_root_at_least(Fraction(n), q) == r
        assert _int_root_at_least(Fraction(n + 1), q) == r + 1
        assert _int_root_at_least(Fraction(n) - Fraction(1, 10**9), q) == r


def _int_root_linear(bound: Fraction, q: int) -> int:
    """Reference: a float guess, then unit steps with exact Fraction powers."""
    if bound <= 1:
        return 1
    r = max(1, int(round(float(bound) ** (1.0 / q))))
    while Fraction(r) ** q < bound:
        r += 1
    while r > 1 and Fraction(r - 1) ** q >= bound:
        r -= 1
    return r


@pytest.mark.parametrize("s, eta", [((2, 1), 5.5), ((1, 1, 1), 4.5), ((2, 1, 1), 4.5)])
def test_weights_match_linear_root_search(monkeypatch, s, eta):
    fast = construct_weights(Scaling(s), eta, 0.1).to_text()
    monkeypatch.setattr(coeff_bounds, "_int_root_at_least", _int_root_linear)
    assert construct_weights(Scaling(s), eta, 0.1).to_text() == fast


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.one_of(st.integers(0, 12).map(lambda k: k / 2), st.floats(0.0, 6.0)),
       st.sampled_from([1e-3, 0.1, 0.5, 10.0]))
@settings(max_examples=40, deadline=None)
def test_weights_match_fraction_reference(s, eta, delta):
    scaling = Scaling(tuple(s))
    if _weight_work(scaling, len(multi_indices(scaling, eta)), eta, delta) > MAX_WEIGHT_WORK:
        # past the work cap the construction is refused, not attempted
        with pytest.raises(ValidationError):
            construct_weights(scaling, eta, delta)
        return
    system = construct_weights(scaling, eta, delta)
    reference = reference_construct_weights(scaling, eta, delta)
    assert system.to_text() == reference.to_text()
    assert system.verify() == reference_verify(reference)


SWEEP = ([(s, eta) for s in [(1,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (3, 1),
                             (1, 1, 1, 1)]
          for eta in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)]
         + [((1, 1), 12.5), ((2, 1), 16.5), ((1,), 30.5)])


@pytest.mark.parametrize("delta", [1e-3, 0.1, 0.5, 10.0])
def test_work_cap_admits_the_sweep(delta):
    for s, eta in SWEEP:
        _check_work(Scaling(s), eta, delta)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.floats(-1.0, 45.0),
       st.sampled_from([1e-300, 1e-3, 0.1, 10.0, 1e9]))
@settings(max_examples=150, deadline=None)
def test_work_cap_counts_the_indices(s, eta, delta):
    # the count the cap uses is the size of the index set, counted without
    # enumerating it; enumerate only what the cap admits or nearly admits
    scaling = Scaling(tuple(s))
    try:
        _check_work(scaling, eta, delta)
        admitted = True
    except ValidationError:
        admitted = False
    if admitted or eta < 16:
        n = len(multi_indices(scaling, eta))
        assert admitted == (_weight_work(scaling, n, eta, delta) <= MAX_WEIGHT_WORK)

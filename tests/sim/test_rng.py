"""Tests for deterministic named RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(42).stream("jobs").random(10)
    b = RngRegistry(42).stream("jobs").random(10)
    assert np.array_equal(a, b)


def test_different_names_differ():
    reg = RngRegistry(42)
    a = reg.stream("jobs").random(10)
    b = reg.stream("failures").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(1).stream("jobs").random(10)
    b = RngRegistry(2).stream("jobs").random(10)
    assert not np.array_equal(a, b)


def test_stream_independent_of_creation_order():
    """Adding a new component must not perturb existing streams."""
    reg1 = RngRegistry(7)
    reg1.stream("alpha")
    reg1.stream("beta")
    v1 = reg1.stream("gamma").random(5)

    reg2 = RngRegistry(7)
    v2 = reg2.stream("gamma").random(5)
    assert np.array_equal(v1, v2)


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")


def test_names_listing():
    reg = RngRegistry(0)
    reg.stream("b")
    reg.stream("a")
    assert reg.names() == ["a", "b"]


def test_exponential_nonpositive_mean():
    assert RngRegistry(0).exponential("x", 0.0) == 0.0
    assert RngRegistry(0).exponential("x", -5.0) == 0.0


def test_exponential_mean_roughly_correct():
    reg = RngRegistry(3)
    draws = [reg.exponential("e", 10.0) for _ in range(4000)]
    assert 9.0 < np.mean(draws) < 11.0


def test_lognormal_mean_parameterisation():
    reg = RngRegistry(5)
    draws = [reg.lognormal_from_mean("ln", 100.0, 0.5) for _ in range(6000)]
    assert 95.0 < np.mean(draws) < 105.0


def test_uniform_bounds():
    reg = RngRegistry(1)
    for _ in range(100):
        v = reg.uniform("u", 2.0, 3.0)
        assert 2.0 <= v < 3.0
    assert reg.uniform("u", 5.0, 5.0) == 5.0


def test_bernoulli_extremes():
    reg = RngRegistry(1)
    assert not any(reg.bernoulli("b", 0.0) for _ in range(50))
    assert all(reg.bernoulli("b", 1.0) for _ in range(50))


def test_choice_uniform_and_weighted():
    reg = RngRegistry(9)
    opts = ["a", "b", "c"]
    assert all(reg.choice("c", opts) in opts for _ in range(50))
    # Degenerate weight vector favours one option entirely.
    assert all(
        reg.choice("cw", opts, weights=[0, 1, 0]) == "b" for _ in range(50)
    )


def test_choice_empty_raises():
    with pytest.raises(ValueError):
        RngRegistry(0).choice("c", [])


def test_choice_weight_length_mismatch():
    with pytest.raises(ValueError):
        RngRegistry(0).choice("c", ["a", "b"], weights=[1.0])


def test_choice_zero_weights_falls_back_to_uniform():
    reg = RngRegistry(2)
    opts = ["a", "b"]
    seen = {reg.choice("z", opts, weights=[0, 0]) for _ in range(100)}
    assert seen == {"a", "b"}


def test_shuffled_is_permutation():
    reg = RngRegistry(4)
    items = list(range(20))
    out = reg.shuffled("s", items)
    assert sorted(out) == items
    assert items == list(range(20))  # original untouched


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=20))
def test_streams_reproducible_property(seed, name):
    """Property: (seed, name) fully determines the stream."""
    a = RngRegistry(seed).stream(name).random(4)
    b = RngRegistry(seed).stream(name).random(4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
@pytest.mark.parametrize("low, high", [(0.0, 1.0), (2.0, 3.5), (-1.0, 0.25)])
def test_uniforms_equals_successive_uniform_calls(n, low, high):
    """One vector draw gives the values, and leaves the stream state,
    of ``n`` scalar draws."""
    vec, one = RngRegistry(17), RngRegistry(17)
    drawn = vec.uniforms("u", low, high, n)
    assert drawn == [one.uniform("u", low, high) for _ in range(n)]
    assert all(type(v) is float for v in drawn)
    assert vec.stream("u").bit_generator.state == one.stream("u").bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("low, high", [(1.0, 1.0), (2.0, 1.0)])
def test_uniforms_degenerate_range_draws_nothing(n, low, high):
    reg = RngRegistry(17)
    before = reg.stream("u").bit_generator.state
    assert reg.uniforms("u", low, high, n) == [low] * n
    assert reg.stream("u").bit_generator.state == before

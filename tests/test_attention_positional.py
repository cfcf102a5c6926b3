"""Positional attention prior tests."""

import math

import pytest

from repro.attention import (
    PositionPrior,
    inverted_v_weights,
    position_weights,
    primacy_weights,
    recency_weights,
    uniform_weights,
    v_shaped_weights,
)
from repro.errors import ConfigError


@pytest.mark.parametrize("prior", list(PositionPrior))
@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 25])
def test_weights_normalized(prior, k):
    weights = position_weights(prior, k)
    assert len(weights) == k
    assert math.isclose(sum(weights), 1.0, rel_tol=1e-12)
    assert all(w > 0 for w in weights)


@pytest.mark.parametrize(
    "prior,k", [(PositionPrior.V_SHAPED, 1), (PositionPrior.INVERTED_V, 2)]
)
def test_full_depth_shape_that_zeroes_every_position_is_uniform(prior, k):
    assert position_weights(prior, k, depth=1.0) == [1.0 / k] * k


def test_v_shape_ends_high_middle_low():
    weights = v_shaped_weights(7, depth=0.8)
    middle = weights[3]
    assert weights[0] > middle
    assert weights[-1] > middle
    assert weights[0] == pytest.approx(weights[-1])


def test_v_shape_symmetric():
    weights = v_shaped_weights(6, depth=0.5)
    assert weights == pytest.approx(list(reversed(weights)))


def test_v_shape_monotone_towards_middle():
    weights = v_shaped_weights(9, depth=0.7)
    half = weights[: 9 // 2 + 1]
    assert all(half[i] >= half[i + 1] for i in range(len(half) - 1))


def test_v_depth_zero_is_uniform():
    assert v_shaped_weights(5, depth=0.0) == pytest.approx(uniform_weights(5))


def test_v_deeper_means_lower_middle():
    shallow = v_shaped_weights(7, depth=0.3)
    deep = v_shaped_weights(7, depth=0.9)
    assert deep[3] < shallow[3]


def test_inverted_v_middle_high():
    weights = inverted_v_weights(7, depth=0.8)
    assert weights[3] > weights[0]
    assert weights[3] > weights[-1]


def test_primacy_decreasing():
    weights = primacy_weights(6, decay=0.6)
    assert all(weights[i] > weights[i + 1] for i in range(5))


def test_recency_is_reversed_primacy():
    assert recency_weights(6, decay=0.6) == list(reversed(primacy_weights(6, decay=0.6)))


def test_single_position():
    for prior in PositionPrior:
        assert position_weights(prior, 1) == [1.0]


def test_string_prior_accepted():
    assert position_weights("uniform", 4) == uniform_weights(4)


def test_invalid_inputs():
    with pytest.raises(ConfigError):
        position_weights(PositionPrior.UNIFORM, 0)
    with pytest.raises(ConfigError):
        v_shaped_weights(5, depth=1.5)
    with pytest.raises(ConfigError):
        primacy_weights(5, decay=0.0)
    with pytest.raises(ValueError):
        position_weights("not-a-prior", 4)


def test_depth_parameter_passthrough():
    assert position_weights(PositionPrior.V_SHAPED, 5, depth=0.9) == pytest.approx(
        v_shaped_weights(5, depth=0.9)
    )

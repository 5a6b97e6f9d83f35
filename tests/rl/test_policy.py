"""Tests for the categorical policy."""

import numpy as np
import pytest

from repro.rl import CategoricalPolicy, PolicyValueNet
from repro.rl.policy import sample_categorical, softmax


@pytest.fixture
def policy():
    net = PolicyValueNet(4, 3, (8,), rng=np.random.default_rng(0))
    return CategoricalPolicy(net)


def test_act_returns_valid_tuple(policy):
    rng = np.random.default_rng(1)
    action, logp, value = policy.act(np.zeros(4), rng)
    assert 0 <= action < 3
    assert logp <= 0.0
    assert isinstance(value, float)


def test_act_logp_consistent_with_distribution(policy):
    rng = np.random.default_rng(1)
    state = np.ones(4)
    probs = policy.action_distribution(state)
    action, logp, _ = policy.act(state, rng)
    assert logp == pytest.approx(np.log(probs[action]), rel=1e-9)


def test_sampling_follows_distribution(policy):
    rng = np.random.default_rng(2)
    state = np.ones(4) * 0.5
    probs = policy.action_distribution(state)
    counts = np.zeros(3)
    for _ in range(3000):
        action, _, _ = policy.act(state, rng)
        counts[action] += 1
    assert np.allclose(counts / 3000, probs, atol=0.04)


def test_act_deterministic_is_argmax(policy):
    state = np.ones(4)
    probs = policy.action_distribution(state)
    assert policy.act_deterministic(state) == int(np.argmax(probs))


def test_act_greedy_returns_logp_and_value(policy):
    state = np.ones(4)
    action, logp, value = policy.act_greedy(state)
    assert action == policy.act_deterministic(state)
    probs = policy.action_distribution(state)
    assert logp == pytest.approx(np.log(probs[action]), rel=1e-9)
    assert value == pytest.approx(policy.value(state))


def test_distribution_sums_to_one(policy):
    probs = policy.action_distribution(np.random.default_rng(3).standard_normal(4))
    assert probs.sum() == pytest.approx(1.0)
    assert (probs >= 0).all()


def test_softmax_stability():
    probs = softmax(np.array([[1e4, 1e4 + 1.0]]))
    assert np.isfinite(probs).all()


# -- sample_categorical vs Generator.choice -------------------------------

_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _draw(sampler, probs, seed):
    """A sampler's outcome (index or ValueError) and the RNG end state."""
    rng = np.random.default_rng(seed)
    try:
        outcome = sampler(probs.copy(), rng)
    except ValueError:
        outcome = ValueError
    return outcome, rng.bit_generator.state


def _choice(probs, rng):
    return int(rng.choice(len(probs), p=probs))


def _distributions():
    gen = np.random.default_rng(2024)
    for _ in range(1000):
        yield softmax(gen.standard_normal(18) * gen.uniform(0.0, 30.0))
    for hot in (0, 7, 17):
        yield np.eye(18)[hot]
    yield softmax(np.r_[800.0, np.zeros(17)])  # exp underflows to 0
    yield softmax(np.r_[40.0, np.zeros(17)])  # near-zero tail, no zeros
    yield np.r_[1.0 - 17e-300, np.full(17, 1e-300)]
    base = softmax(gen.standard_normal(18))
    for factor in (0.4, 0.99, 1.01, 1.5, 4.0):  # sum off 1 by ~factor * atol
        yield base * (1.0 + factor * _ATOL)
        yield base * (1.0 - factor * _ATOL)
    # The running sum lands exactly on the tolerance while the Kahan sum
    # choice checks lies past it: only the compensated check raises.
    yield np.r_[1.0 + 2.0**-26, np.full(17, 1e-17)]
    for bad in (np.nan, np.inf, -1.0):
        probs = base.copy()
        probs[5] = bad
        yield probs
    for negative in (-1e-12, -0.5, -0.0):  # mass moved, so the sum stays 1
        probs = base.copy()
        probs[6] += probs[5] - negative
        probs[5] = negative
        yield probs


def test_sample_categorical_matches_generator_choice():
    """Same index, same RNG end state, and ValueError exactly where
    ``Generator.choice`` raises one."""
    raised = drawn = 0
    for seed, probs in enumerate(_distributions()):
        fast = _draw(sample_categorical, probs, seed)
        ref = _draw(_choice, probs, seed)
        assert fast == ref, (seed, probs)
        if fast[0] is ValueError:
            raised += 1
        else:
            drawn += 1
    # Both sides of every check were exercised.
    assert raised >= 10
    assert drawn >= 1000


def test_act_samples_with_sample_categorical(policy):
    state = np.ones(4)
    probs = policy.action_distribution(state)
    for seed in range(50):
        rng_act, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        action, _logp, _value = policy.act(state, rng_act)
        assert action == _choice(probs, rng_ref)
        assert rng_act.bit_generator.state == rng_ref.bit_generator.state

"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.rl import Adam


def test_minimizes_quadratic():
    params = {"x": np.array([5.0])}
    adam = Adam(learning_rate=0.1)
    for _ in range(300):
        grads = {"x": 2 * params["x"]}
        adam.step(params, grads, max_grad_norm=None)
    assert abs(params["x"][0]) < 0.05


def test_gradient_clipping():
    params = {"x": np.array([0.0])}
    adam = Adam(learning_rate=1.0)
    adam.step(params, {"x": np.array([1e9])}, max_grad_norm=0.5)
    # Clipped: the first Adam step magnitude is ~lr regardless, but the
    # internal moments must reflect the clipped gradient.
    assert abs(adam._m["x"][0]) <= 0.5 * 0.1 + 1e-9


def test_steps_counter():
    adam = Adam()
    params = {"x": np.zeros(2)}
    adam.step(params, {"x": np.ones(2)})
    adam.step(params, {"x": np.ones(2)})
    assert adam.steps == 2


def test_reset():
    adam = Adam()
    params = {"x": np.zeros(2)}
    adam.step(params, {"x": np.ones(2)})
    adam.reset()
    assert adam.steps == 0
    assert adam._m == {}
    assert adam._v == {}


def test_invalid_lr_rejected():
    with pytest.raises(ValueError):
        Adam(learning_rate=0.0)


def test_bias_correction_first_step():
    """With bias correction the first step is ~lr in the gradient
    direction, not lr * (1 - beta1)."""
    params = {"x": np.array([0.0])}
    adam = Adam(learning_rate=0.01)
    adam.step(params, {"x": np.array([1.0])}, max_grad_norm=None)
    assert params["x"][0] == pytest.approx(-0.01, rel=1e-3)


def test_changed_gradient_layout_rejected_until_reset():
    adam = Adam()
    params = {"x": np.zeros(2), "y": np.zeros(3)}
    adam.step(params, {"x": np.ones(2), "y": np.ones(3)})
    with pytest.raises(ValueError):
        adam.step(params, {"y": np.ones(3), "x": np.ones(2)})
    with pytest.raises(ValueError):
        adam.step(params, {"x": np.ones(2)})
    adam.reset()
    adam.step(params, {"x": np.ones(2)})
    assert adam.steps == 1


def test_moments_are_views_of_one_buffer():
    adam = Adam()
    params = {"W": np.zeros((2, 3)), "b": np.zeros(3)}
    adam.step(params, {"W": np.ones((2, 3)), "b": np.ones(3)})
    m = adam._m
    assert m["W"].shape == (2, 3) and m["b"].shape == (3,)
    assert not np.shares_memory(m["W"], m["b"])
    assert m["W"].base is not None and m["W"].base is m["b"].base


# -- one flat buffer vs the per-key update ---------------------------------

class _PerKeyAdam:
    """The per-key Adam the flat-buffer optimizer replaced, verbatim."""

    def __init__(self, learning_rate=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict = {}
        self._v: dict = {}
        self._t = 0

    def step(self, params, grads, max_grad_norm=0.5):
        if max_grad_norm is not None:
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if total > max_grad_norm and total > 0:
                scale = max_grad_norm / total
                grads = {k: g * scale for k, g in grads.items()}
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for key, grad in grads.items():
            if key not in self._m:
                self._m[key] = np.zeros_like(grad)
                self._v[key] = np.zeros_like(grad)
            self._m[key] = self.beta1 * self._m[key] + (1 - self.beta1) * grad
            self._v[key] = self.beta2 * self._v[key] + (1 - self.beta2) * grad * grad
            m_hat = self._m[key] / bias1
            v_hat = self._v[key] / bias2
            params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self):
        self._m.clear()
        self._v.clear()
        self._t = 0


def _bits(arrays: dict) -> dict:
    return {key: (value.shape, value.tobytes()) for key, value in arrays.items()}


@pytest.mark.parametrize("max_grad_norm", [0.5, None])
def test_flat_adam_matches_per_key_adam_bit_for_bit(max_grad_norm):
    """50 steps on the policy net's parameter shapes, a reset() halfway:
    parameters and both moments byte-equal to the per-key update."""
    from repro.rl import PolicyValueNet

    net = PolicyValueNet(33, 18, (50, 50), rng=np.random.default_rng(1))
    fast_params = {k: v.copy() for k, v in net.params.items()}
    ref_params = {k: v.copy() for k, v in net.params.items()}
    fast, ref = Adam(learning_rate=5e-4), _PerKeyAdam(learning_rate=5e-4)
    rng = np.random.default_rng(7)
    clipped = unclipped = 0
    for step in range(50):
        if step == 25:
            fast.reset()
            ref.reset()
        # Gradient norms straddle the clip threshold (0.5).
        scale = 10.0 ** rng.uniform(-4.0, 0.0)
        grads = {k: rng.standard_normal(v.shape) * scale for k, v in net.params.items()}
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if max_grad_norm is not None and norm > max_grad_norm:
            clipped += 1
        else:
            unclipped += 1
        fast.step(fast_params, grads, max_grad_norm=max_grad_norm)
        ref.step(ref_params, grads, max_grad_norm=max_grad_norm)
        assert _bits(fast_params) == _bits(ref_params), step
        assert _bits(fast._m) == _bits(ref._m), step
        assert _bits(fast._v) == _bits(ref._v), step
        assert fast.steps == ref._t
    assert unclipped > 0
    if max_grad_norm is not None:
        assert clipped > 0

"""Categorical action sampling over the network's logits."""

from __future__ import annotations

import numpy as np

from repro.rl.nets import PolicyValueNet


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    return np.exp(log_softmax(logits))


#: ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _kahan_sum(values: list) -> float:
    """The compensated sum ``Generator.choice`` checks ``p`` against."""
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw index ``i`` with probability ``probs[i]``.

    Bit-identical to ``int(rng.choice(len(probs), p=probs))``: the same
    draw (one ``rng.random()`` searched in the normalized cumulative
    sum) and the same ``ValueError`` wherever ``choice`` raises one (NaN,
    a negative entry, or a sum off 1 by more than sqrt(eps)), minus
    ``choice``'s per-call argument handling.  ``choice`` checks a Kahan
    sum; the plain running sum ``cumsum`` already holds differs from it
    by far less than half the tolerance for any realistic ``len(probs)``,
    so the Kahan sum runs only when the running sum is near the bound
    (or NaN).
    """
    cdf = probs.cumsum()
    total = float(cdf[-1])
    if not abs(total - 1.0) <= 0.5 * _SUM_ATOL:
        total = _kahan_sum(probs.tolist())
        if total != total:
            raise ValueError("probabilities contain NaN")
    if probs.min() < 0.0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class CategoricalPolicy:
    """Samples discrete actions and reports log-probabilities/values."""

    def __init__(self, net: PolicyValueNet) -> None:
        self.net = net

    @property
    def num_actions(self) -> int:
        """Size of the discrete action set."""
        return self.net.num_actions

    def act(self, state: np.ndarray, rng: np.random.Generator) -> tuple:
        """Sample an action for one state.

        Returns ``(action, log_prob, value)``.
        """
        logits, values, _ = self.net.forward(state)
        probs = softmax(logits)[0]
        action = sample_categorical(probs, rng)
        logp = float(np.log(max(probs[action], 1e-12)))
        return action, logp, float(values[0])

    def act_from_logits(
        self, logits_row: np.ndarray, value: float, rng: np.random.Generator
    ) -> tuple:
        """Sample from a precomputed logits row (batched inference path).

        Bit-identical to :meth:`act`: log-softmax on a 1-D row reduces
        along the same contiguous axis as row 0 of a (1, A) matrix, and
        the action draw consumes this agent's RNG stream exactly as the
        unbatched call would.
        """
        probs = softmax(logits_row)
        action = sample_categorical(probs, rng)
        logp = float(np.log(max(probs[action], 1e-12)))
        return action, logp, float(value)

    def act_greedy_from_logits(self, logits_row: np.ndarray, value: float) -> tuple:
        """Greedy pick from a precomputed logits row (batched path).

        Bit-identical to :meth:`act_greedy` given the same logits row.
        """
        logp_all = log_softmax(logits_row)
        action = int(np.argmax(logits_row))
        return action, float(logp_all[action]), float(value)

    def act_deterministic(self, state: np.ndarray) -> int:
        """Greedy action (used at deployment when exploration is off)."""
        logits, _values, _ = self.net.forward(state)
        return int(np.argmax(logits[0]))

    def act_greedy(self, state: np.ndarray) -> tuple:
        """Greedy action with its log-probability and the state value.

        Deployment follows the paper — "an agent will select the RL
        action that earns the highest predicted reward" — while the
        log-probability still feeds the periodic PPO fine-tuning.
        """
        logits, values, _ = self.net.forward(state)
        logp_all = log_softmax(logits)[0]
        action = int(np.argmax(logits[0]))
        return action, float(logp_all[action]), float(values[0])

    def action_distribution(self, state: np.ndarray) -> np.ndarray:
        """Action probabilities for one state."""
        logits, _values, _ = self.net.forward(state)
        return softmax(logits)[0]

    def value(self, state: np.ndarray) -> float:
        """The value head's estimate for one state."""
        _logits, values, _ = self.net.forward(state)
        return float(values[0])

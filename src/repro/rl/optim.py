"""Adam optimizer (Kingma & Ba, 2015) over parameter dictionaries."""

from __future__ import annotations

from typing import Optional

import numpy as np


class Adam:
    """Adam with the standard bias-corrected moment estimates.

    Both moment estimates of all parameters live in one flat buffer each,
    laid out in the gradient dict's key order, so every step of the
    update is one elementwise numpy op over all parameters rather than
    one per key.  Each op has the per-key formula's operands in its
    order, so the result is bit-identical to updating key by key.
    """

    def __init__(
        self,
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        #: ``(key, start, stop, shape)`` per parameter; fixed by the first
        #: step after construction or :meth:`reset`.
        self._layout: list = []
        self._m_flat: Optional[np.ndarray] = None
        self._v_flat: Optional[np.ndarray] = None
        self._t = 0

    @property
    def steps(self) -> int:
        """Number of optimizer steps taken."""
        return self._t

    @property
    def _m(self) -> dict:
        """First-moment estimates per key (views into the flat buffer)."""
        return self._views(self._m_flat)

    @property
    def _v(self) -> dict:
        """Second-moment estimates per key (views into the flat buffer)."""
        return self._views(self._v_flat)

    def _views(self, flat: Optional[np.ndarray]) -> dict:
        return {
            key: flat[start:stop].reshape(shape)
            for key, start, stop, shape in self._layout
        }

    def step(self, params: dict, grads: dict, max_grad_norm: float = 0.5) -> None:
        """Apply one update in place; gradients are globally norm-clipped.

        ``grads`` must keep the keys, key order and shapes of the first
        step since construction or :meth:`reset`.
        """
        shapes = [(key, grad.shape) for key, grad in grads.items()]
        if not self._layout:
            self._allocate(shapes)
        elif shapes != [(key, shape) for key, _a, _b, shape in self._layout]:
            raise ValueError("gradient keys or shapes changed; call reset() first")
        g = np.concatenate([grad.ravel() for grad in grads.values()])
        if max_grad_norm is not None:
            # Per-key sums, added in key order: the per-key formula's norm.
            sq = g * g
            total = np.sqrt(
                sum(float(sq[start:stop].sum()) for _k, start, stop, _s in self._layout)
            )
            if total > max_grad_norm and total > 0:
                g *= max_grad_norm / total
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v = self._m_flat, self._v_flat
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        m += (1 - self.beta1) * g
        # v = beta2 * v + (1 - beta2) * g * g
        v *= self.beta2
        g_sq = (1 - self.beta2) * g
        g_sq *= g
        v += g_sq
        # update = lr * (m / bias1) / (sqrt(v / bias2) + epsilon)
        update = m / bias1
        update *= self.learning_rate
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        update /= denom
        for key, start, stop, shape in self._layout:
            params[key] -= update[start:stop].reshape(shape)

    def _allocate(self, shapes: list) -> None:
        offset = 0
        for key, shape in shapes:
            size = int(np.prod(shape))
            self._layout.append((key, offset, offset + size, shape))
            offset += size
        self._m_flat = np.zeros(offset)
        self._v_flat = np.zeros(offset)

    def reset(self) -> None:
        """Drop all moment estimates and the step counter."""
        self._layout = []
        self._m_flat = None
        self._v_flat = None
        self._t = 0

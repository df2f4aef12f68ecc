"""Adam optimizer with bias correction; fully deterministic given its state."""

from __future__ import annotations

import numpy as np

from .tensor import NumericsError, Parameter, UsageError


def adam_step(
    params,
    grads,
    m_state,
    v_state,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    t: int = 1,
) -> None:
    """One Adam update over aligned lists of parameters, gradients and moments.

    ``t`` is the 1-based step count used for bias correction. Parameters with
    an all-zero gradient and zero moments are left exactly unchanged.
    """
    if t < 1:
        raise UsageError("adam_step requires t >= 1")
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, m_state, v_state):
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for parameter {p.name!r}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (lr / bc1) * m / (np.sqrt(v / bc2) + eps)
        p.value.data[...] -= update


class Adam:
    """Stateful wrapper owning first/second moments for a parameter list."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros(p.shape, dtype=np.float64) for p in self.params]
        self._v = [np.zeros(p.shape, dtype=np.float64) for p in self.params]

    def step(self) -> None:
        self.t += 1
        adam_step(
            self.params,
            [p.grad for p in self.params],
            self._m,
            self._v,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.t,
        )

    def zero_grads(self) -> None:
        for p in self.params:
            p.zero_grad()

"""Adam optimizer with bias correction; fully deterministic given its state.

β1, β2 and ε are fixed at the usual 0.9, 0.999 and 1e-8; only the learning
rate is a knob, and it must be a positive finite number. A step is all or
nothing: every gradient is screened before any parameter, moment or the step
count changes.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ConfigError, NumericsError, Parameter

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def check_lr(lr: float) -> None:
    """Adam's learning-rate rule: ConfigError unless a positive finite number."""
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"learning rate must be a positive finite number, got {lr!r}")


class Adam:
    """First and second moments for a parameter list, updated in place.

    Building one makes the training state of its parameters in one place:
    each parameter's gradient buffer (which :class:`~tdt.tensor.Parameter`
    makes on first read), then the moments.
    """

    def __init__(self, params, lr: float):
        check_lr(lr)
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.t = 0
        for p in self.params:
            p.grad  # noqa: B018 -- the read makes the buffer, before any backward
        self._m = [np.zeros(p.shape, dtype=np.float64) for p in self.params]
        self._v = [np.zeros(p.shape, dtype=np.float64) for p in self.params]

    def step(self) -> None:
        """One update. Parameters with an all-zero gradient and zero moments
        are left exactly unchanged."""
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericsError(f"non-finite gradient for parameter {p.name!r}")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.value.data[...] -= (self.lr / bc1) * m / (np.sqrt(v / bc2) + EPS)

    def zero_grads(self) -> None:
        for p in self.params:
            p.zero_grad()

"""Adam over a ParamSet, the one optimizer training uses."""

from __future__ import annotations

import numpy as np

from .core import ParamSet

# Adam's moment decay rates and denominator offset (Kingma and Ba's defaults).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: ParamSet, lr: float = 0.01):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(t.values) for name, t in params.items()}
        self._v = {name: np.zeros_like(t.values) for name, t in params.items()}

    def step(self):
        self.t += 1
        correction1 = 1.0 - _BETA1 ** self.t
        correction2 = 1.0 - _BETA2 ** self.t
        for name, tensor in self.params.items():
            m = self._m[name]
            v = self._v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * tensor.grad
            v *= _BETA2
            v += (1.0 - _BETA2) * tensor.grad ** 2
            tensor.values -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + _EPS)

    def zero_grad(self):
        self.params.zero_grad()

"""Dense and recurrent layers built on the autodiff primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParamSet, Tensor, _result, add, matmul, sigmoid_values


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias with bias broadcast over rows."""
    return add(matmul(x, weight), bias)


def glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


@dataclass
class GruParams:
    """The nine tensors of one GRU cell, in update/reset/candidate order."""

    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    def tensors(self):
        return (self.w_update, self.u_update, self.b_update,
                self.w_reset, self.u_reset, self.b_reset,
                self.w_cand, self.u_cand, self.b_cand)


def init_gru(params: ParamSet, prefix: str, in_dim: int, hidden_dim: int, rng) -> GruParams:
    """Register a GRU cell's parameters under ``prefix`` and return them."""
    def gate(name):
        w = params.register(f"{prefix}/w_{name}", glorot(rng, in_dim, hidden_dim))
        u = params.register(f"{prefix}/u_{name}", glorot(rng, hidden_dim, hidden_dim))
        b = params.register(f"{prefix}/b_{name}", np.zeros(hidden_dim))
        return w, u, b

    return GruParams(*gate("update"), *gate("reset"), *gate("cand"))


def gru_cell(x: Tensor, z_prev: Tensor, p: GruParams) -> Tensor:
    """One GRU step, recorded as a single tape op with an analytic backward.

    u = sigmoid(x Wu + z Uu + bu), r = sigmoid(x Wr + z Ur + br),
    candidate = tanh(x Wc + (r * z) Uc + bc),
    z_new = (1 - u) * z + u * candidate.
    """
    weights = p.tensors()
    wu, uu, bu, wr, ur, br, wc, uc, bc = (t.values for t in weights)
    xv, z = x.values, z_prev.values
    u = sigmoid_values(xv @ wu + z @ uu + bu)
    r = sigmoid_values(xv @ wr + z @ ur + br)
    rz = r * z
    c = np.tanh(xv @ wc + rz @ uc + bc)

    def backward(g):
        du = g * c - g * z
        dau = du * u * (1.0 - u)
        dac = g * u * (1.0 - c ** 2)
        drz = dac @ uc.T
        dar = drz * z * r * (1.0 - r)
        # Sums in the order the composed tape accumulated them, so one
        # cell's gradients match it bit for bit.
        return (dau @ wu.T + dac @ wc.T + dar @ wr.T,
                g * (1.0 - u) + dau @ uu.T + drz * r + dar @ ur.T,
                xv.T @ dau, z.T @ dau, dau.sum(axis=0),
                xv.T @ dar, z.T @ dar, dar.sum(axis=0),
                xv.T @ dac, rz.T @ dac, dac.sum(axis=0))

    return _result((1.0 - u) * z + u * c, (x, z_prev, *weights), backward)

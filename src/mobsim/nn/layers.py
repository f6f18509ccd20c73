"""Dense and recurrent layers built on the autodiff primitives."""

from __future__ import annotations

import numpy as np

from .core import ParamSet, Tensor, _as_tensor, _result, _unbroadcast, sigmoid_values


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias with bias broadcast over rows, as one tape op: the
    bias is added into the product's array, so a (rows, out) head holds one
    output array and one output gradient."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    out = x.values @ weight.values
    out += bias.values

    def backward(g):
        return g @ weight.values.T, x.values.T @ g, _unbroadcast(g, bias.shape)

    return _result(out, (x, weight, bias), backward)


def glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


def init_gru(params: ParamSet, prefix: str, in_dim: int, hidden_dim: int, rng) -> tuple:
    """Register a GRU cell's parameters under ``prefix`` and return its nine
    tensors, (W, U, b) per gate in update/reset/candidate order."""
    def gate(name):
        w = params.register(f"{prefix}/w_{name}", glorot(rng, in_dim, hidden_dim))
        u = params.register(f"{prefix}/u_{name}", glorot(rng, hidden_dim, hidden_dim))
        b = params.register(f"{prefix}/b_{name}", np.zeros(hidden_dim))
        return w, u, b

    return (*gate("update"), *gate("reset"), *gate("cand"))


def _gru_gates(xv: np.ndarray, z: np.ndarray, weights):
    """One GRU step on arrays: the update gate u, the reset gate r, r * z,
    the candidate c and the new state (1 - u) * z + u * c."""
    wu, uu, bu, wr, ur, br, wc, uc, bc = weights
    u = sigmoid_values(xv @ wu + z @ uu + bu)
    r = sigmoid_values(xv @ wr + z @ ur + br)
    rz = r * z
    c = np.tanh(xv @ wc + rz @ uc + bc)
    return u, r, rz, c, (1.0 - u) * z + u * c


def gru_cell(x: np.ndarray, z_prev: np.ndarray, p: tuple) -> np.ndarray:
    """One GRU step on arrays, recording nothing: the rollouts'
    discriminator step.  The sampler calls ``_gru_gates`` on plain arrays.

    u = sigmoid(x Wu + z Uu + bu), r = sigmoid(x Wr + z Ur + br),
    candidate = tanh(x Wc + (r * z) Uc + bc),
    z_new = (1 - u) * z + u * candidate.
    """
    return _gru_gates(x, z_prev, [t.values for t in p])[-1]


def gru_unroll(x: Tensor, h0: Tensor, p: tuple) -> Tensor:
    """A GRU over (L, B, E) inputs from the (B, H) state ``h0``, recorded as
    one tape op: the (L, B, H) states, entry l after input l.

    Each step runs ``gru_cell``'s expressions on one (B, E) slice, so every
    state equals that of a chain of cells bit for bit.  The backward runs
    backpropagation through time step by step for the gate gradients, then
    forms ``dx`` and each weight gradient as one product over all L * B rows.
    """
    if x.ndim != 3 or x.shape[0] == 0:
        raise ValueError(f"gru_unroll needs (L, B, E) inputs with L >= 1, got shape {x.shape}")
    weights = [t.values for t in p]
    wu, uu, bu, wr, ur, br, wc, uc, bc = weights
    xv = x.values
    steps, batch = xv.shape[:2]
    hidden = h0.shape[1]
    # states[0] is h0 and states[l + 1] the state after input l; the output
    # is the view states[1:], and states[:-1] holds each step's input state.
    states = np.empty((steps + 1, batch, hidden))
    states[0] = h0.values
    u, r, rz, c = (np.empty((steps, batch, hidden)) for _ in range(4))
    for l in range(steps):
        u[l], r[l], rz[l], c[l], states[l + 1] = _gru_gates(xv[l], states[l], weights)

    def backward(g):
        # Step l's gate gradients follow from the gradient gl of its output
        # state as dau = gl * ku, dac = gl * kc and dar = (dac Uc^T) * kr;
        # d[l] holds them side by side, [dau | dar | dac].
        z = states[:-1]
        ku = (c - z) * (u * (1.0 - u))
        kc = u * (1.0 - c * c)
        kr = z * r * (1.0 - r)
        keep = 1.0 - u
        update, reset, cand = slice(0, hidden), slice(hidden, 2 * hidden), slice(2 * hidden, None)
        gates = slice(0, 2 * hidden)
        u_gates = np.concatenate([uu, ur], axis=1).T       # [dau | dar] @ u_gates
        d = np.empty((steps, batch, 3 * hidden))
        dz = 0.0
        for l in reversed(range(steps)):
            gl = g[l] + dz
            dl = d[l]
            np.multiply(gl, ku[l], out=dl[:, update])
            np.multiply(gl, kc[l], out=dl[:, cand])
            drz = dl[:, cand] @ uc.T
            np.multiply(drz, kr[l], out=dl[:, reset])
            dz = gl * keep[l] + drz * r[l] + dl[:, gates] @ u_gates
        rows = steps * batch
        d = d.reshape(rows, 3 * hidden)
        dw = xv.reshape(rows, -1).T @ d
        du = z.reshape(rows, hidden).T @ d[:, gates]
        db = d.sum(axis=0)
        dx = d @ np.concatenate([wu, wr, wc], axis=1).T
        return (dx.reshape(xv.shape), dz,
                dw[:, update], du[:, update], db[update],
                dw[:, reset], du[:, reset], db[reset],
                dw[:, cand], rz.reshape(rows, hidden).T @ d[:, cand], db[cand])

    return _result(states[1:], (x, h0, *p), backward)

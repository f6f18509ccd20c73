"""Central finite-difference gradient checking of the tape ops."""

from __future__ import annotations

import numpy as np

from mobsim.nn import constant, mul, no_grad
from oracles import tsum


def grad_check(op, inputs, step: float = 1e-5, projection_seed: int = 0) -> float:
    """Max relative error between analytic and finite-difference gradients.

    ``op`` maps the input tensors to a tensor of any shape; a fixed random
    projection reduces it to a scalar.  Every input with ``requires_grad`` is
    checked coordinate by coordinate with central differences of size
    ``step``.  The relative error of a coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    inputs = list(inputs)
    projection_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(projection_seed)))
    probe = projection_rng.standard_normal(op(*inputs).shape)

    def scalar() -> float:
        with no_grad():
            return float((op(*inputs).values * probe).sum())

    for tensor in inputs:
        if tensor.requires_grad:
            tensor.zero_grad()
    loss = tsum(mul(op(*inputs), constant(probe)))
    loss.backward()

    worst = 0.0
    for tensor in inputs:
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad
        flat = tensor.values.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            upper = scalar()
            flat[i] = original - step
            lower = scalar()
            flat[i] = original
            numeric = (upper - lower) / (2.0 * step)
            reference = analytic.reshape(-1)[i]
            scale = max(1.0, abs(reference), abs(numeric))
            worst = max(worst, abs(reference - numeric) / scale)
    return worst

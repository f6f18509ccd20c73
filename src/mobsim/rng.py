"""Deterministic random streams derived from a single master seed.

Every stochastic component draws from its own named stream so that reordering
one component (or running it on a different batch layout) never perturbs the
draws seen by another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(master_seed: int, name: str) -> np.random.Generator:
    """Return the generator for a named sub-stream of ``master_seed``.

    The same (seed, name) pair always yields an identical stream; distinct
    names yield statistically independent streams.
    """
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, key])))


def categorical(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row of a (B, N) cumulative-probability matrix (or
    one (N,) row shared by all B draws): draw b takes the first index whose
    cumulative mass exceeds ``uniforms[b]``.  A shared row, which never
    decreases, is binary-searched, so it builds no (B, N) comparison."""
    if cdf.ndim == 1:
        return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)
    return np.clip((uniforms[:, None] >= cdf).sum(axis=-1), 0, cdf.shape[-1] - 1)

"""Deterministic random streams derived from a single master seed.

Every stochastic component draws from its own named stream so that reordering
one component (or running it on a different batch layout) never perturbs the
draws seen by another.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Bytes of each (draws, blocks + block width) array of a shared-row draw.
_SHARED_BYTES = 1 << 20


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


def block_totals(masses: np.ndarray) -> np.ndarray:
    """The cumulative block totals of each row of (..., N) non-negative
    masses: blocks of ``isqrt(N)`` columns, the last one possibly narrower,
    and a leading 0, so (..., blocks + 1) values.  The first level of
    :func:`categorical`."""
    n = masses.shape[-1]
    sums = np.add.reduceat(masses, np.arange(0, n, math.isqrt(n)), axis=-1)
    totals = np.zeros(sums.shape[:-1] + (sums.shape[-1] + 1,))
    np.cumsum(sums, axis=-1, out=totals[..., 1:])
    return totals


def categorical(masses: np.ndarray, uniforms: np.ndarray, rows: np.ndarray = None,
                totals: np.ndarray = None) -> np.ndarray:
    """Inverse-CDF draw from rows of (R, N) non-negative masses with positive
    totals, not necessarily normalised, or from one shared (N,) row: draw b
    reads row ``rows[b]`` (default: row b) and takes the first index whose
    cumulative mass exceeds ``uniforms[b]`` times the row's total, never an
    index of zero mass.

    An indexed search on two levels (Chen and Asau 1974): the block of
    ``isqrt(N)`` columns, from the :func:`block_totals` that a caller drawing
    often from fixed masses passes as ``totals``, then a cumsum of that block
    alone.  A shared row draws as that row repeated, ``_SHARED_BYTES`` of
    per-draw arrays at a time.
    """
    if masses.ndim == 1:
        masses = masses[None]
        totals = block_totals(masses)
        step = max(1, _SHARED_BYTES // (8 * (totals.shape[-1] + math.isqrt(masses.shape[-1]))))
        rows = np.zeros(min(step, len(uniforms)), dtype=np.int64)
        return np.concatenate([categorical(masses, part, rows[:len(part)], totals)
                               for part in np.split(uniforms, range(step, len(uniforms), step))])
    n = masses.shape[-1]
    width = math.isqrt(n)
    if totals is None:
        totals = block_totals(masses)
    if rows is None:
        rows = np.arange(len(uniforms))
    else:
        totals = totals[rows]
    # A uniform below 1 puts the target below its row's total, so the block
    # found is one whose total rises, one of positive mass.
    target = uniforms * totals[:, -1]
    block = (totals[:, 1:] <= target[:, None]).sum(axis=1)
    start = block * width
    # The block's columns run down axis 0, so each reduction adds whole rows.
    # They are gathered by indexing the raveled masses, which releases the
    # GIL; np.take holds it, and the other thread of a two-thread sampling
    # pass waits for it.
    cols = np.arange(width)[:, None] + start
    if n % width:                                  # a narrower last block
        cum = masses.ravel()[np.minimum(cols, n - 1) + rows * n]
        cum[cols >= n] = 0.0
    else:
        cum = masses.ravel()[cols + rows * n]
    np.cumsum(cum, axis=0, out=cum)
    # The block's cumsum, summed in another order than its total, can end
    # below a target the total exceeds: such a draw takes the first column
    # that reaches the block's cumulative end, the last of positive mass.
    last = (cum < cum[-1]).sum(axis=0)
    cum += totals[np.arange(len(block)), block]
    return start + np.minimum((cum <= target).sum(axis=0), last)

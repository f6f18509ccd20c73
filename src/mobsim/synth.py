"""Synthetic check-in datasets with planted Markov dynamics.

Each user-day is an independent chain: the first slot is uniform over the
locations, and every later slot either repeats the previous location (with
probability ``stay_prob``) or draws from the transition kernel row of the
previous location.  The config fixes the chain: :func:`make_kernel` rebuilds
the ground truth from its ``kernel``, ``n_locations`` and ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .records import Dataset, Trajectories
from .rng import block_totals, categorical, stream

_FIRST_DAY = np.datetime64("2012-01-02")
_ORIGIN = (40.0, -74.0)             # south-west corner of the location grid


@dataclass
class SynthConfig:
    n_locations: int = 100
    users: int = 50
    days: int = 10
    stay_prob: float = 0.0
    kernel: str = "uniform"          # uniform | uniform_offdiag | random
    seed: int = 0
    slots: int = 24                  # trajectory length
    grid_step: float = 0.01          # spacing of the location grid, in degrees
    ratios: str = "7:1:2"            # train:valid:test sizes of the written split

    def __post_init__(self):
        if self.n_locations < 2:
            raise ValueError("need at least 2 locations")
        if not 0.0 <= self.stay_prob <= 1.0:
            raise ValueError(f"stay_prob {self.stay_prob} outside [0, 1]")
        if self.users < 1 or self.days < 1:
            raise ValueError("users and days must be positive")
        if self.kernel not in ("uniform", "uniform_offdiag", "random"):
            raise ValueError(f"unknown kernel kind {self.kernel!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.slots < 2:
            raise ValueError(f"slots must be at least 2, got {self.slots}")
        coords = grid_coordinates(self.n_locations, self.grid_step, _ORIGIN)
        if not (np.abs(coords) <= (90.0, 180.0)).all():
            raise ValueError(f"grid_step {self.grid_step}: a grid of {self.n_locations} "
                             "locations leaves [-90, 90] x [-180, 180]")


def make_kernel(kind: str, n: int, rng) -> np.ndarray:
    """Build a row-stochastic transition kernel of the requested kind; the
    ``uniform`` kind is the one (N,) row that every location shares."""
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind == "uniform_offdiag":
        kernel = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(kernel, 0.0)
        return kernel
    if kind == "random":
        # Blend with uniform so every entry stays comfortably positive.
        raw = rng.random((n, n))
        raw /= raw.sum(axis=1, keepdims=True)
        return 0.5 * raw + 0.5 / n
    raise ValueError(f"unknown kernel kind {kind!r}")


def grid_coordinates(n: int, step_deg: float, origin) -> np.ndarray:
    side = math.ceil(math.sqrt(n))
    ids = np.arange(n)
    lat = origin[0] + (ids // side) * step_deg
    lon = origin[1] + (ids % side) * step_deg
    return np.column_stack([lat, lon]).astype(np.float64)


def synth_generate(config: SynthConfig) -> Dataset:
    """Generate a dataset from the planted chain; reproducible from the seed."""
    n = config.n_locations
    rng = stream(config.seed, "synth")
    kernel = make_kernel(config.kernel, n, rng)
    m = config.users * config.days
    t_slots = config.slots
    totals = block_totals(kernel)
    states = np.empty((m, t_slots), dtype=np.int64)
    states[:, 0] = rng.integers(0, n, size=m)
    for t in range(1, t_slots):
        stay = rng.random(m) < config.stay_prob
        drawn = categorical(kernel, rng.random(m), rows=states[:, t - 1], totals=totals)
        states[:, t] = np.where(stay, states[:, t - 1], drawn)
    # Row u * days + d is user u on day d; every slot is an observation.
    trajectories = Trajectories(
        users=np.repeat([f"u{u:04d}" for u in range(config.users)], config.days),
        days=np.tile(_FIRST_DAY + np.arange(config.days), config.users),
        ids=states,
        row=np.repeat(np.arange(m, dtype=np.int64), t_slots),
        slot=np.tile(np.arange(t_slots, dtype=np.int64), m),
        loc=states.ravel(),
    )
    return Dataset(trajectories, grid_coordinates(n, config.grid_step, _ORIGIN))

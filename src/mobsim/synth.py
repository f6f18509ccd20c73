"""Synthetic check-in datasets with planted Markov dynamics.

Each user-day is an independent chain: the first slot is uniform over the
locations, and every later slot either repeats the previous location (with
probability ``stay_prob``) or draws from the transition kernel row of the
previous location.  The ground truth used to generate a dataset is kept next
to it so estimators can be checked against it.
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


@dataclass
class SynthDataset:
    """A generated dataset together with the dynamics that produced it."""

    dataset: Dataset
    kernel: np.ndarray
    stay_prob: float


def make_kernel(kind: str, n: int, rng) -> np.ndarray:
    """Build a row-stochastic transition kernel of the requested kind."""
    if kind == "uniform":
        return np.full((n, n), 1.0 / n)
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


def synth_generate(config: SynthConfig) -> SynthDataset:
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
    coords = grid_coordinates(n, config.grid_step, _ORIGIN)
    dataset = Dataset(trajectories, coords)
    return SynthDataset(dataset, kernel, config.stay_prob)


def write_kernel(path, kernel: np.ndarray):
    # Each distinct value is formatted once: a token table over the values'
    # bit patterns, so that -0.0 and 0.0 keep their own repr.
    bits = np.ascontiguousarray(kernel, dtype=np.float64).view(np.int64)
    keys, index = np.unique(bits, return_inverse=True)
    tokens = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    lines = [",".join(row) + "\n" for row in tokens[index.reshape(bits.shape)].tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))

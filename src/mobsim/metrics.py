"""Distributional fidelity metrics between real and generated trajectories.

Six histogram families are compared with the Jensen-Shannon divergence
(natural log, so values lie in [0, ln 2]):

* Distance: great-circle length of every consecutive step, pooled over all
  trajectories (zero-length stays included);
* Radius:   per-trajectory RMS great-circle distance from the arithmetic
  mean of the visited coordinates;
* Duration: lengths of maximal runs of identical consecutive locations;
* DailyLoc: distinct locations per trajectory;
* G-rank:   visit share of the dataset's top-100 locations (aligned by
  location id across datasets);
* I-rank:   per-trajectory rank-frequency profile, averaged and renormalized.

Continuous families use 100 equal-width bins whose range is fixed by the
real dataset and shared with the generated one; out-of-range generated
values fall into the edge bins.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .graphs import haversine_km
from .records import Dataset, Trajectory, trajectory_matrix
from .rng import categorical, stream

LN2 = float(np.log(2.0))


@dataclass
class Histogram:
    """Masses over either categorical labels or equal-width bins."""

    masses: np.ndarray
    support: np.ndarray | None = None   # categorical labels, in order
    edges: np.ndarray | None = None     # bin edges for continuous families

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if (self.masses < 0).any():
            raise ValueError("histogram masses must be non-negative")
        total = self.masses.sum()
        if total > 0 and abs(total - 1.0) > 1e-9:
            raise ValueError("histogram masses must sum to 1")
        if (self.support is None) == (self.edges is None):
            raise ValueError("exactly one of support and edges must be given")


def continuous_histogram(values, edges: np.ndarray) -> Histogram:
    """Bin values into the given equal-width edges, clamping outliers."""
    values = np.asarray(values, dtype=np.float64)
    n_bins = len(edges) - 1
    if values.size == 0:
        return Histogram(np.zeros(n_bins), edges=edges)
    clipped = np.clip(values, edges[0], edges[-1])
    idx = np.minimum(np.searchsorted(edges, clipped, side="right") - 1, n_bins - 1)
    idx = np.maximum(idx, 0)
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    return Histogram(counts / counts.sum(), edges=edges)


def equal_width_edges(values, bins: int = 100) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot derive bin edges from no values")
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        hi = lo + 1.0  # degenerate range: one occupied bin, still valid edges
    return np.linspace(lo, hi, bins + 1)


def categorical_histogram(counts: np.ndarray, support: np.ndarray) -> Histogram:
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("no observations for categorical histogram")
    return Histogram(counts / total, support=np.asarray(support))


def jsd(p: Histogram, q: Histogram) -> float:
    """Jensen-Shannon divergence with the natural log.

    Requires the two histograms to share their support or bin edges exactly;
    ``align_categorical`` can reconcile categorical supports first.
    """
    if (p.edges is None) != (q.edges is None):
        raise ValueError("cannot compare categorical and continuous histograms")
    if p.edges is not None:
        if p.edges.shape != q.edges.shape or not np.array_equal(p.edges, q.edges):
            raise ValueError("bin edges differ")
    elif p.support.shape != q.support.shape or not np.array_equal(p.support, q.support):
        raise ValueError("supports differ")

    def entropy(masses):
        positive = masses[masses > 0]
        return float(-(positive * np.log(positive)).sum())

    mid = 0.5 * (p.masses + q.masses)
    return entropy(mid) - 0.5 * (entropy(p.masses) + entropy(q.masses))


def align_categorical(p: Histogram, q: Histogram):
    """Rebuild two categorical histograms over the union of their supports."""
    union = np.union1d(p.support, q.support)

    def expand(h):
        masses = np.zeros(len(union))
        masses[np.searchsorted(union, h.support)] = h.masses
        return Histogram(masses, support=union)

    return expand(p), expand(q)


def step_distances(trajectories, coords: np.ndarray) -> np.ndarray:
    """Pooled consecutive-step great-circle distances, stays included."""
    chunks = []
    for traj in trajectories:
        a = coords[traj.slots[:-1]]
        b = coords[traj.slots[1:]]
        chunks.append(haversine_km(a[:, 0], a[:, 1], b[:, 0], b[:, 1]))
    return np.concatenate(chunks) if chunks else np.empty(0)


def gyration_radii(trajectories, coords: np.ndarray) -> np.ndarray:
    """Per-trajectory RMS distance from the mean visited coordinate."""
    radii = np.empty(len(trajectories))
    for i, traj in enumerate(trajectories):
        points = coords[traj.slots]
        center = points.mean(axis=0)
        d = haversine_km(points[:, 0], points[:, 1], center[0], center[1])
        radii[i] = np.sqrt((d ** 2).mean())
    return radii


def run_lengths(slots: np.ndarray) -> np.ndarray:
    """Lengths of maximal runs of identical consecutive values."""
    slots = np.asarray(slots)
    boundaries = np.flatnonzero(slots[1:] != slots[:-1]) + 1
    splits = np.concatenate([[0], boundaries, [len(slots)]])
    return np.diff(splits)


def duration_histogram(trajectories, slots_per_day: int) -> Histogram:
    counts = np.zeros(slots_per_day, dtype=np.float64)
    for traj in trajectories:
        for length in run_lengths(traj.slots):
            counts[length - 1] += 1
    return categorical_histogram(counts, np.arange(1, slots_per_day + 1))


def daily_locations_histogram(trajectories, slots_per_day: int) -> Histogram:
    counts = np.zeros(slots_per_day, dtype=np.float64)
    for traj in trajectories:
        counts[len(np.unique(traj.slots)) - 1] += 1
    return categorical_histogram(counts, np.arange(1, slots_per_day + 1))


def global_rank_histogram(trajectories, n_locations: int, top: int = 100) -> Histogram:
    """Visit share of the top-`top` locations, keyed by location id."""
    visits = np.zeros(n_locations, dtype=np.int64)
    for traj in trajectories:
        visits += np.bincount(traj.slots, minlength=n_locations)
    order = np.lexsort((np.arange(n_locations), -visits))
    chosen = order[:min(top, int((visits > 0).sum()))]
    return categorical_histogram(visits[chosen].astype(np.float64), chosen)


def individual_rank_histogram(trajectories, top: int = 100) -> Histogram:
    """Average per-trajectory rank-frequency profile, renormalized."""
    profiles = []
    width = 0
    for traj in trajectories:
        counts = np.sort(np.bincount(traj.slots))[::-1]
        counts = counts[counts > 0][:top].astype(np.float64)
        profiles.append(counts / counts.sum())
        width = max(width, len(counts))
    stacked = np.zeros((len(profiles), width))
    for i, profile in enumerate(profiles):
        stacked[i, :len(profile)] = profile
    mean = stacked.mean(axis=0)
    return categorical_histogram(mean, np.arange(1, width + 1))


def align_rank(p: Histogram, q: Histogram):
    """Pad the shorter of two rank-indexed histograms with zero mass."""
    width = max(len(p.masses), len(q.masses))

    def pad(h):
        masses = np.zeros(width)
        masses[:len(h.masses)] = h.masses
        return Histogram(masses, support=np.arange(1, width + 1))

    return pad(p), pad(q)


METRIC_NAMES = ("distance", "radius", "duration", "daily_loc", "g_rank", "i_rank")


@dataclass
class MetricReport:
    """Per-metric JSD scores and the aligned histogram pairs behind them."""

    scores: dict
    histograms: dict

    @property
    def mean_jsd(self) -> float:
        return float(np.mean([self.scores[name] for name in METRIC_NAMES]))


def evaluate(real: Dataset, generated, coords: np.ndarray | None = None,
             bins: int = 100, top: int = 100,
             include_zero_steps: bool = True) -> MetricReport:
    """Score generated trajectories against a real dataset.

    ``generated`` is a list of trajectories or a Dataset sharing the real
    coordinate table.  Continuous bin ranges come from the real data only.
    """
    real_trajs = real.trajectories
    gen_trajs = generated.trajectories if isinstance(generated, Dataset) else generated
    if not real_trajs or not gen_trajs:
        raise ValueError("both datasets must be non-empty")
    coords = real.locations if coords is None else coords
    slots_per_day = real.slots_per_day
    n = len(coords)

    real_steps = step_distances(real_trajs, coords)
    gen_steps = step_distances(gen_trajs, coords)
    if not include_zero_steps:
        real_steps = real_steps[real_steps > 0]
        gen_steps = gen_steps[gen_steps > 0]
    dist_edges = equal_width_edges(real_steps, bins)
    radius_real = gyration_radii(real_trajs, coords)
    radius_edges = equal_width_edges(radius_real, bins)

    pairs = {
        "distance": (continuous_histogram(real_steps, dist_edges),
                     continuous_histogram(gen_steps, dist_edges)),
        "radius": (continuous_histogram(radius_real, radius_edges),
                   continuous_histogram(gyration_radii(gen_trajs, coords), radius_edges)),
        "duration": (duration_histogram(real_trajs, slots_per_day),
                     duration_histogram(gen_trajs, slots_per_day)),
        "daily_loc": (daily_locations_histogram(real_trajs, slots_per_day),
                      daily_locations_histogram(gen_trajs, slots_per_day)),
        "g_rank": align_categorical(global_rank_histogram(real_trajs, n, top),
                                    global_rank_histogram(gen_trajs, n, top)),
        "i_rank": align_rank(individual_rank_histogram(real_trajs, top),
                             individual_rank_histogram(gen_trajs, top)),
    }
    scores = {name: jsd(p, q) for name, (p, q) in pairs.items()}
    return MetricReport(scores, pairs)


class MarkovBaseline:
    """First-order Markov baseline fitted on training trajectories.

    Transition counts include self-transitions; rows of unseen locations
    fall back to uniform.  The first slot is drawn from the empirical
    distribution of training first slots.
    """

    def __init__(self, trajectories, n_locations: int):
        ids = trajectory_matrix(trajectories)
        counts = np.zeros((n_locations, n_locations), dtype=np.float64)
        for row in ids:
            np.add.at(counts, (row[:-1], row[1:]), 1.0)
        totals = counts.sum(axis=1, keepdims=True)
        self.transitions = np.divide(counts, totals,
                                     out=np.full_like(counts, 1.0 / n_locations),
                                     where=totals > 0)
        first = np.bincount(ids[:, 0], minlength=n_locations).astype(np.float64)
        self.initial = first / first.sum()
        self.n_locations = n_locations
        self.slots_per_day = ids.shape[1]

    def generate(self, count: int, seed: int = 0):
        """Sample trajectories; deterministic in (fitted model, count, seed)."""
        rng = stream(seed, "markov")
        length = self.slots_per_day
        cdf = np.cumsum(self.transitions, axis=1)
        states = np.empty((count, length), dtype=np.int64)
        states[:, 0] = categorical(np.cumsum(self.initial), rng.random(count))
        for t in range(1, length):
            states[:, t] = categorical(cdf[states[:, t - 1]], rng.random(count))
        return matrix_to_trajectories(states, prefix="markov")


def matrix_to_trajectories(ids: np.ndarray, prefix: str = "gen"):
    """Wrap a (B, T) id matrix into Trajectory records with synthetic labels."""
    day = dt.date(2000, 1, 1)
    return [Trajectory(f"{prefix}{i:05d}", day, row) for i, row in enumerate(ids)]


def visit_grid(trajectories, coords: np.ndarray, cell_deg: float = 0.01):
    """Visit counts per (lat, lon) grid cell, sorted by cell."""
    visits = np.zeros(len(coords), dtype=np.int64)
    for traj in trajectories:
        visits += np.bincount(traj.slots, minlength=len(coords))
    cells: dict[tuple, int] = {}
    for loc, count in enumerate(visits):
        if count:
            key = (int(np.floor(coords[loc, 0] / cell_deg)),
                   int(np.floor(coords[loc, 1] / cell_deg)))
            cells[key] = cells.get(key, 0) + int(count)
    return [(lat_idx * cell_deg, lon_idx * cell_deg, count)
            for (lat_idx, lon_idx), count in sorted(cells.items())]


def write_report(path, report: MetricReport):
    """key=value lines for each score plus the aligned histogram masses."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in METRIC_NAMES:
            fh.write(f"jsd.{name}={report.scores[name]!r}\n")
        fh.write(f"jsd.mean={report.mean_jsd!r}\n")
        for name in METRIC_NAMES:
            p, q = report.histograms[name]
            fh.write(f"hist.{name}.real={' '.join(repr(float(v)) for v in p.masses)}\n")
            fh.write(f"hist.{name}.generated={' '.join(repr(float(v)) for v in q.masses)}\n")


def write_grid(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for lat, lon, count in rows:
            fh.write(f"{lat!r},{lon!r},{count}\n")

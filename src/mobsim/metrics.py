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
values fall into the edge bins.  Each family takes a (B, T) int64 id
matrix, one row per trajectory, and ``evaluate`` scores a generated id
matrix against a real :class:`~mobsim.records.Dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import haversine_km
from .records import Dataset
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


def step_distances(ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Great-circle length of every consecutive step, row by row, stays included."""
    a = coords[ids[:, :-1]]
    b = coords[ids[:, 1:]]
    return haversine_km(a[..., 0], a[..., 1], b[..., 0], b[..., 1]).ravel()


def gyration_radii(ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Per-row RMS distance from the row's mean visited coordinate."""
    points = coords[ids]
    center = points.mean(axis=1)
    d = haversine_km(points[..., 0], points[..., 1], center[:, :1], center[:, 1:])
    return np.sqrt((d ** 2).mean(axis=1))


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """(B, T) mask of the positions that open a run of equal consecutive ids."""
    starts = np.ones(ids.shape, dtype=bool)
    starts[:, 1:] = ids[:, 1:] != ids[:, :-1]
    return starts


def _run_lengths(starts: np.ndarray) -> np.ndarray:
    """Run lengths in row-major order; every row opens a run, so none spans two."""
    return np.diff(np.flatnonzero(starts), append=starts.size)


def _slot_count_histogram(values: np.ndarray, slots_per_day: int) -> Histogram:
    counts = np.bincount(values - 1, minlength=slots_per_day)
    return categorical_histogram(counts, np.arange(1, len(counts) + 1))


def duration_histogram(ids: np.ndarray, slots_per_day: int) -> Histogram:
    """Lengths of the maximal runs of identical consecutive ids."""
    return _slot_count_histogram(_run_lengths(_run_starts(ids)), slots_per_day)


def daily_locations_histogram(ids: np.ndarray, slots_per_day: int) -> Histogram:
    """Distinct ids per row: the runs of the sorted row."""
    distinct = _run_starts(np.sort(ids, axis=1)).sum(axis=1)
    return _slot_count_histogram(distinct, slots_per_day)


def global_rank_histogram(ids: np.ndarray, n_locations: int, top: int = 100) -> Histogram:
    """Visit share of the top-`top` locations, keyed by location id."""
    visits = np.bincount(ids.ravel(), minlength=n_locations)
    order = np.lexsort((np.arange(n_locations), -visits))
    chosen = order[:min(top, int((visits > 0).sum()))]
    return categorical_histogram(visits[chosen].astype(np.float64), chosen)


def individual_rank_histogram(ids: np.ndarray, top: int = 100) -> Histogram:
    """Average per-row rank-frequency profile, renormalized.

    A row's visit counts are the runs of the sorted row, placed at each
    run's start, so the work stays O(B·T) whatever the number of locations.
    """
    starts = _run_starts(np.sort(ids, axis=1))
    counts = np.zeros(ids.shape, dtype=np.int64)
    counts[starts] = _run_lengths(starts)
    ranked = -np.sort(-counts, axis=1)[:, :top]
    width = min(top, int(starts.sum(axis=1).max()))
    profiles = ranked[:, :width] / ranked.sum(axis=1, keepdims=True)
    return categorical_histogram(profiles.mean(axis=0), np.arange(1, width + 1))


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


def evaluate(real: Dataset, generated: np.ndarray, bins: int = 100, top: int = 100,
             include_zero_steps: bool = True) -> MetricReport:
    """Score a generated (B, T) id matrix against a real dataset.

    The generated ids index the real coordinate table, and their length T
    must equal the real one, which also sizes the duration and daily-location
    histograms.  Continuous bin ranges come from the real data only.
    Scoring costs O(B·T) time and memory.
    """
    real_ids = real.trajectories.ids
    gen_ids = np.asarray(generated, dtype=np.int64)
    if not len(real_ids) or not len(gen_ids):
        raise ValueError("both datasets must be non-empty")
    if gen_ids.ndim != 2:
        raise ValueError(f"generated must be a (B, T) id matrix, got shape {gen_ids.shape}")
    if gen_ids.shape[1] != real_ids.shape[1]:
        raise ValueError(f"generated trajectories hold {gen_ids.shape[1]} ids, "
                         f"real ones {real_ids.shape[1]}")
    coords = real.locations
    slots_per_day = real_ids.shape[1]
    n = len(coords)

    real_steps = step_distances(real_ids, coords)
    gen_steps = step_distances(gen_ids, coords)
    if not include_zero_steps:
        real_steps = real_steps[real_steps > 0]
        gen_steps = gen_steps[gen_steps > 0]
    dist_edges = equal_width_edges(real_steps, bins)
    radius_real = gyration_radii(real_ids, coords)
    radius_edges = equal_width_edges(radius_real, bins)

    pairs = {
        "distance": (continuous_histogram(real_steps, dist_edges),
                     continuous_histogram(gen_steps, dist_edges)),
        "radius": (continuous_histogram(radius_real, radius_edges),
                   continuous_histogram(gyration_radii(gen_ids, coords), radius_edges)),
        "duration": (duration_histogram(real_ids, slots_per_day),
                     duration_histogram(gen_ids, slots_per_day)),
        "daily_loc": (daily_locations_histogram(real_ids, slots_per_day),
                      daily_locations_histogram(gen_ids, slots_per_day)),
        "g_rank": align_categorical(global_rank_histogram(real_ids, n, top),
                                    global_rank_histogram(gen_ids, n, top)),
        "i_rank": align_rank(individual_rank_histogram(real_ids, top),
                             individual_rank_histogram(gen_ids, top)),
    }
    scores = {name: jsd(p, q) for name, (p, q) in pairs.items()}
    return MetricReport(scores, pairs)


class MarkovBaseline:
    """First-order Markov baseline fitted on a (B, T) training id matrix.

    Transition counts include self-transitions; rows of unseen locations
    fall back to uniform.  The first slot is drawn from the empirical
    distribution of training first slots.
    """

    def __init__(self, ids: np.ndarray, n_locations: int):
        counts = np.zeros((n_locations, n_locations), dtype=np.float64)
        np.add.at(counts, (ids[:, :-1], ids[:, 1:]), 1.0)
        totals = counts.sum(axis=1, keepdims=True)
        self.transitions = np.divide(counts, totals,
                                     out=np.full_like(counts, 1.0 / n_locations),
                                     where=totals > 0)
        first = np.bincount(ids[:, 0], minlength=n_locations).astype(np.float64)
        self.initial = first / first.sum()
        self.n_locations = n_locations
        self.slots_per_day = ids.shape[1]

    def generate(self, count: int, seed: int = 0) -> np.ndarray:
        """Sample a (count, T) id matrix; deterministic in (fitted model, count, seed)."""
        rng = stream(seed, "markov")
        length = self.slots_per_day
        cdf = np.cumsum(self.transitions, axis=1)
        states = np.empty((count, length), dtype=np.int64)
        states[:, 0] = categorical(np.cumsum(self.initial), rng.random(count))
        for t in range(1, length):
            states[:, t] = categorical(cdf[states[:, t - 1]], rng.random(count))
        return states


def visit_grid(ids: np.ndarray, coords: np.ndarray, cell_deg: float = 0.01):
    """Visit counts of a (B, T) id matrix per (lat, lon) grid cell, sorted by cell."""
    visits = np.bincount(ids.ravel(), minlength=len(coords))
    visited = np.flatnonzero(visits)
    cells, cell_of = np.unique(np.floor(coords[visited] / cell_deg).astype(np.int64),
                               axis=0, return_inverse=True)
    counts = np.zeros(len(cells), dtype=np.int64)
    np.add.at(counts, cell_of.ravel(), visits[visited])
    return [(lat_idx * cell_deg, lon_idx * cell_deg, count)
            for (lat_idx, lon_idx), count in zip(cells.tolist(), counts.tolist())]


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

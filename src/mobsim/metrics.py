"""Distributional fidelity metrics between real and generated trajectories.

Six families of masses are compared with the Jensen-Shannon divergence
(natural log, so values lie in [0, ln 2]):

* Distance: great-circle length of every consecutive step, pooled over all
  trajectories (zero-length stays included);
* Radius:   per-trajectory RMS great-circle distance from the arithmetic
  mean of the visited coordinates;
* Duration: lengths of maximal runs of identical consecutive locations;
* DailyLoc: distinct locations per trajectory;
* G-rank:   visit share of the dataset's top-100 locations, keyed by
  location id;
* I-rank:   per-trajectory rank-frequency profile, averaged and renormalized.

Each family scores the real and generated sides on one support, so the two
mass vectors line up entry by entry: the continuous families use 100
equal-width bins whose range the real values fix (out-of-range generated
values fall into the edge bins); duration and daily-loc count 1..T; G-rank
keeps the ids either side ranks in its top, in ascending order; I-rank pads
the shorter profile with zeros.  Each family takes a (B, T) int64 id
matrix, one row per trajectory, except daily-loc and I-rank, which take its
:func:`sorted_run_starts` mask; ``evaluate`` scores a generated id matrix
against a real :class:`~mobsim.records.Dataset`.

Scoring costs O(B·T) time and memory.  Where a side's V visited locations
give V² ≤ B·(T−1), ``evaluate`` measures each visited location pair that a
step joins once and weights it by its step count, instead of measuring
every step; the masses are the same to the bit.  The other families run
their rows in blocks of ``_BLOCK_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import haversine_km
from .records import Dataset, check_ids

# Bytes of one (rows, T) float64 array: the row families run their rows in
# blocks of this size, each holding a few coordinate or count arrays.
_BLOCK_BYTES = 1 << 19


def binned_masses(real, generated, bins: int = 100, counts=(None, None)):
    """Masses of the real and generated values over ``bins`` equal-width bins
    spanning the real values (``lo + 1`` tops a degenerate range).  Generated
    outliers fall into the edge bins, and no generated values give all-zero
    masses.  ``counts`` holds, per side, how many times each value occurs
    (None: once each); the counts are integers, so the masses equal those of
    the values repeated."""
    real = np.asarray(real, dtype=np.float64)
    if real.size == 0:
        raise ValueError("cannot derive bin edges from no values")
    lo, hi = float(real.min()), float(real.max())
    edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)

    def masses(values, weights):
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return np.zeros(bins)
        clipped = np.clip(values, edges[0], edges[-1])
        idx = np.minimum(np.searchsorted(edges, clipped, side="right") - 1, bins - 1)
        binned = np.bincount(idx, weights, minlength=bins)
        return binned / binned.sum()

    return masses(real, counts[0]), masses(generated, counts[1])


def jsd(p, q) -> float:
    """Jensen-Shannon divergence with the natural log of two mass vectors
    over one support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"mass vectors differ in shape: {p.shape} and {q.shape}")

    def entropy(masses):
        positive = masses[masses > 0]
        return float(-(positive * np.log(positive)).sum())

    return entropy(0.5 * (p + q)) - 0.5 * (entropy(p) + entropy(q))


def _row_blocks(ids: np.ndarray):
    """Consecutive row blocks of a (B, T) id matrix, each within
    ``_BLOCK_BYTES`` of (rows, T) float64, so that the temporaries of a
    family stay a few blocks whatever B is."""
    rows = max(1, _BLOCK_BYTES // (8 * ids.shape[1]))
    return (ids[lo:lo + rows] for lo in range(0, len(ids), rows))


def step_distances(ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Great-circle length of every consecutive step, row by row, stays included."""
    def block_steps(block):
        a = coords[block[:, :-1]]
        b = coords[block[:, 1:]]
        return haversine_km(a[..., 0], a[..., 1], b[..., 0], b[..., 1]).ravel()

    return np.concatenate([block_steps(block) for block in _row_blocks(ids)])


def step_lengths(ids: np.ndarray, coords: np.ndarray, include_zero_steps: bool = True):
    """Great-circle step lengths of a (B, T) id matrix and how many steps
    have each: ``(lengths, counts)``, zero lengths left out unless
    ``include_zero_steps``.

    With V visited locations and V² ≤ B·(T−1), each ordered pair of visited
    locations that some step joins is measured once, with its step count
    from one ``bincount`` of dense pair keys per row block.  Otherwise
    ``lengths`` is :func:`step_distances` and ``counts`` None (one each).
    Either way no array outgrows the B·(T−1) steps.
    """
    visited = np.flatnonzero(np.bincount(ids.ravel(), minlength=len(coords)))
    v = len(visited)
    if v * v > len(ids) * (ids.shape[1] - 1):
        lengths, counts = step_distances(ids, coords), None
    else:
        dense = np.zeros(len(coords), dtype=np.int64)
        dense[visited] = np.arange(v)
        pair_counts = np.zeros(v * v, dtype=np.int64)
        for block in _row_blocks(ids):
            d = dense[block]
            pair_counts += np.bincount((d[:, :-1] * v + d[:, 1:]).ravel(), minlength=v * v)
        pairs = np.flatnonzero(pair_counts)
        a, b = coords[visited[pairs // v]], coords[visited[pairs % v]]
        lengths = haversine_km(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        counts = pair_counts[pairs]
    if include_zero_steps:
        return lengths, counts
    moving = lengths > 0
    return lengths[moving], None if counts is None else counts[moving]


def gyration_radii(ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Per-row RMS distance from the row's mean visited coordinate."""
    def block_radii(block):
        points = coords[block]
        center = points.mean(axis=1)
        d = haversine_km(points[..., 0], points[..., 1], center[:, :1], center[:, 1:])
        return np.sqrt((d ** 2).mean(axis=1))

    return np.concatenate([block_radii(block) for block in _row_blocks(ids)])


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """(B, T) mask of the positions that open a run of equal consecutive ids."""
    starts = np.ones(ids.shape, dtype=bool)
    starts[:, 1:] = ids[:, 1:] != ids[:, :-1]
    return starts


def _run_lengths(starts: np.ndarray) -> np.ndarray:
    """Run lengths in row-major order; every row opens a run, so none spans two."""
    return np.diff(np.flatnonzero(starts), append=starts.size)


def duration_histogram(ids: np.ndarray) -> np.ndarray:
    """Masses of the lengths of the maximal runs of identical consecutive ids
    of a (B, T) id matrix, over 1..T.  Every row opens a run, so row blocks
    add up their integer counts."""
    slots = ids.shape[1]
    counts = sum(np.bincount(_run_lengths(_run_starts(block)) - 1, minlength=slots)
                 for block in _row_blocks(ids))
    return counts / counts.sum()


def sorted_run_starts(ids: np.ndarray) -> np.ndarray:
    """(B, T) mask of the run starts of each row of a (B, T) id matrix once
    sorted, one per distinct id; the rows are sorted in row blocks.  The
    daily-location and I-rank families both read it, so ``evaluate`` sorts
    each row once."""
    return np.concatenate([_run_starts(np.sort(block, axis=1)) for block in _row_blocks(ids)])


def daily_locations_histogram(starts: np.ndarray) -> np.ndarray:
    """Masses of the distinct ids per row over 1..T, from the (B, T) mask
    ``starts`` of :func:`sorted_run_starts`: one run per distinct id."""
    counts = np.bincount(starts.sum(axis=1) - 1, minlength=starts.shape[1])
    return counts / counts.sum()


def global_rank_histogram(ids: np.ndarray, n_locations: int, top: int = 100) -> np.ndarray:
    """(N,) visit shares of the top-`top` locations by visits, ties going to
    the lower id; 0 for every other location."""
    visits = np.bincount(ids.ravel(), minlength=n_locations)
    chosen = np.lexsort((np.arange(n_locations), -visits))[:top]
    shares = np.zeros(n_locations)
    shares[chosen] = visits[chosen]
    return shares / shares.sum()


def individual_rank_histogram(starts: np.ndarray, top: int = 100) -> np.ndarray:
    """Average per-row rank-frequency profile, renormalized, from the (B, T)
    mask ``starts`` of :func:`sorted_run_starts`: entry ``r`` for rank
    ``r + 1``, as many entries as the most distinct ids in a row, up to
    ``top``.

    A row's visit counts are the runs of the sorted row, placed at each
    run's start, so the work stays O(B·T) whatever the number of locations.
    Each row block's rank shares go into one (B, min(top, T)) array whose
    mean is taken once.
    """
    shares = np.empty((len(starts), min(top, starts.shape[1])))
    lo = 0
    for block in _row_blocks(starts):
        counts = np.zeros(block.shape, dtype=np.int64)
        counts[block] = _run_lengths(block)
        ranked = -np.sort(-counts, axis=1)[:, :top]
        np.divide(ranked, ranked.sum(axis=1, keepdims=True), out=shares[lo:lo + len(block)])
        lo += len(block)
    # Ranks past a row's distinct count hold 0, so the columns past the
    # widest row are 0 everywhere and drop out.
    profile = shares[:, :min(top, int(starts.sum(axis=1).max()))].mean(axis=0)
    return profile / profile.sum()


METRIC_NAMES = ("distance", "radius", "duration", "daily_loc", "g_rank", "i_rank")


@dataclass
class MetricReport:
    """Per-metric JSD scores and the (real, generated) mass vectors behind
    them, each pair on one support."""

    scores: dict
    histograms: dict

    @property
    def mean_jsd(self) -> float:
        return float(np.mean([self.scores[name] for name in METRIC_NAMES]))


def evaluate(real: Dataset, generated: np.ndarray, bins: int = 100, top: int = 100,
             include_zero_steps: bool = True) -> MetricReport:
    """Score a generated (B, T) id matrix against a real dataset.

    Both id matrices must pass :func:`~mobsim.records.check_ids` against the
    real coordinate table, and the generated length T must equal the real
    one, which also sizes the duration and daily-location masses.
    Continuous bin ranges come from the real data only.  Scoring costs
    O(B·T) time and memory: the step family measures each visited pair of
    locations once where that is cheaper than measuring each step (see
    :func:`step_lengths`), and the row families run in row blocks.
    """
    coords = real.locations
    real_ids, gen_ids = (check_ids(ids, len(coords)) for ids in (real.trajectories.ids, generated))
    if gen_ids.shape[1] != real_ids.shape[1]:
        raise ValueError(f"generated trajectories hold {gen_ids.shape[1]} ids, "
                         f"real ones {real_ids.shape[1]}")

    (real_steps, real_counts), (gen_steps, gen_counts) = (
        step_lengths(ids, coords, include_zero_steps) for ids in (real_ids, gen_ids))
    real_rank = global_rank_histogram(real_ids, len(coords), top)
    gen_rank = global_rank_histogram(gen_ids, len(coords), top)
    ranked = (real_rank > 0) | (gen_rank > 0)
    starts = sorted_run_starts(real_ids), sorted_run_starts(gen_ids)
    profiles = tuple(individual_rank_histogram(side, top) for side in starts)
    width = max(len(profile) for profile in profiles)

    pairs = {
        "distance": binned_masses(real_steps, gen_steps, bins, (real_counts, gen_counts)),
        "radius": binned_masses(gyration_radii(real_ids, coords),
                                gyration_radii(gen_ids, coords), bins),
        "duration": (duration_histogram(real_ids), duration_histogram(gen_ids)),
        "daily_loc": tuple(daily_locations_histogram(side) for side in starts),
        "g_rank": (real_rank[ranked], gen_rank[ranked]),
        "i_rank": tuple(np.pad(profile, (0, width - len(profile))) for profile in profiles),
    }
    scores = {name: jsd(p, q) for name, (p, q) in pairs.items()}
    return MetricReport(scores, pairs)


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
    """key=value lines for each score plus each family's two mass vectors."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in METRIC_NAMES:
            fh.write(f"jsd.{name}={report.scores[name]!r}\n")
        fh.write(f"jsd.mean={report.mean_jsd!r}\n")
        for name in METRIC_NAMES:
            p, q = report.histograms[name]
            fh.write(f"hist.{name}.real={' '.join(repr(float(v)) for v in p)}\n")
            fh.write(f"hist.{name}.generated={' '.join(repr(float(v)) for v in q)}\n")


def write_grid(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for lat, lon, count in rows:
            fh.write(f"{lat!r},{lon!r},{count}\n")

"""Location graphs built from training trajectories and coordinates.

Three directed channels share one container type:

* ``sdg``: each location points at its k nearest neighbours by great-circle
  distance, weight 1 / (1 + d);
* ``ttg``: an edge per observed consecutive transition between distinct
  locations, weight = transition count over the training split;
* ``stg``: each location points at the k locations with the most similar
  hour-of-day visit profile, weight = 1 - W1(profile_i, profile_j) in [0, 1].

``binarize`` maps any channel to its vanilla variant (all weights 1).  No
channel stores a self-edge or the same edge twice; the attention layer adds a
self-loop to every node.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from .records import (CheckinFormatError, Trajectories, _fields, _float_field, _int_field,
                      _parse_ints)

EARTH_RADIUS_KM = 6371.0
# Rows of the kNN score matrix held at a time by the kNN builders.
_ROW_BLOCK = 256
# Bytes of the (rows, N, T) CDF differences that build_stg holds at a time.
_CDF_BLOCK_BYTES = 1 << 20
# One edge line of a graph file.
_EDGE = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between coordinate pairs in degrees."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=np.float64))
                              for x in (lat1, lon1, lat2, lon2))
    return _haversine_radians(lat1, lon1, np.cos(lat1), lat2, lon2, np.cos(lat2))


def _haversine_radians(lat1, lon1, cos_lat1, lat2, lon2, cos_lat2):
    """:func:`haversine_km` of coordinates in radians, given the cosines of
    their latitudes."""
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + cos_lat1 * cos_lat2 * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass
class GraphConfig:
    """The options of a graph build: the neighbour budget ``k`` of the kNN
    channels (its range depends on N, so the builders check it) and the
    ``edge_mode`` the channels are used in."""

    k: int = 20
    edge_mode: str = "weighted"      # weighted | vanilla

    def __post_init__(self):
        if self.edge_mode not in ("weighted", "vanilla"):
            raise ValueError(f"unknown edge_mode {self.edge_mode!r}")


@dataclass
class LocationGraph:
    """A directed weighted graph over dense location ids.

    Edges are stored as parallel arrays.  ``k`` is the neighbour budget for
    the kNN channels (0 when not applicable).
    """

    channel: str
    mode: str
    n_locations: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    k: int = 0

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if not (len(self.src) == len(self.dst) == len(self.weight)):
            raise ValueError("edge arrays must have equal length")
        if (self.src == self.dst).any():
            raise ValueError("self-edges are not stored; attention adds the self-loop")
        ids = np.concatenate([self.src, self.dst])
        if ids.min(initial=0) < 0 or ids.max(initial=-1) >= self.n_locations:
            raise ValueError(f"edge ids outside [0, {self.n_locations})")
        keys = np.sort(self.src * self.n_locations + self.dst)
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate (src, dst) edge")
        if self.mode not in ("weighted", "vanilla"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _top_k_rows(score: np.ndarray, k: int, largest: bool):
    """Per-row top-k column indices; ties break toward the lower column id.

    A partition finds each row's k-th key.  Every column below it is kept,
    and the lowest columns tied at it fill the row to k; only those k are
    sorted, stably by key, so ties stay in column order."""
    key = -score if largest else score
    kth = np.partition(key, k - 1, axis=1)[:, k - 1:k]
    keep = key < kth
    rows, cols = np.nonzero(key == kth)
    counts = np.bincount(rows, minlength=len(key))
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    fill = rank < k - keep.sum(axis=1)[rows]
    keep[rows[fill], cols[fill]] = True
    picks = np.nonzero(keep)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(key, picks, axis=1), axis=1, kind="stable")
    return np.take_along_axis(picks, order, axis=1)


def _top_k_peers(score_rows, n: int, k: int, largest: bool):
    """Each location's k best-scoring other locations, ``_ROW_BLOCK`` rows at
    a time so that no (N, N) array is held.  ``score_rows(start, stop)`` gives
    those rows' scores against every location.  Returns src, dst and the
    picked scores, sorted by src."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    src_all, dst_all, score_all = [], [], []
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        score = score_rows(start, stop)
        score[np.arange(stop - start), np.arange(start, stop)] = -np.inf if largest else np.inf
        picks = _top_k_rows(score, k, largest)
        src_all.append(np.repeat(np.arange(start, stop, dtype=np.int64), k))
        dst_all.append(picks.reshape(-1))
        score_all.append(np.take_along_axis(score, picks, axis=1).reshape(-1))
    return np.concatenate(src_all), np.concatenate(dst_all), np.concatenate(score_all)


def build_sdg(coords: np.ndarray, k: int = 20) -> LocationGraph:
    """Spatial kNN graph: each location points at its k nearest others by
    great-circle distance d in km, with edge weight 1 / (1 + d)."""
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if n < 2:
        raise ValueError("need at least 2 locations")

    def distances(start, stop):
        return haversine_km(coords[start:stop, 0:1], coords[start:stop, 1:2],
                            coords[None, :, 0], coords[None, :, 1])

    src, dst, dist = _top_k_peers(distances, n, k, largest=False)
    return LocationGraph("sdg", "weighted", n, src, dst, 1.0 / (1.0 + dist), k=k)


def build_ttg(ids: np.ndarray, n_locations: int) -> LocationGraph:
    """Transition-count graph over consecutive slots of a (B, T) id matrix,
    edges sorted by (src, dst)."""
    a, b = ids[:, :-1].ravel(), ids[:, 1:].ravel()
    keys, weight = np.unique((a * n_locations + b)[a != b], return_counts=True)
    src, dst = np.divmod(keys, n_locations)
    return LocationGraph("ttg", "weighted", n_locations, src, dst, weight.astype(np.float64))


def visit_profile_matrix(trajectories: Trajectories, n_locations: int) -> np.ndarray:
    """(N, T) matrix of visit profiles, one hour-of-day distribution per location.

    Counts the raw pre-fill observations of the rows that have any and the
    filled slots of the rows that have none; unvisited locations get a
    uniform row.
    """
    ids = trajectories.ids
    slots = ids.shape[1]
    unobserved = ids[np.bincount(trajectories.row, minlength=len(ids)) == 0]
    cells = np.concatenate([trajectories.loc * slots + trajectories.slot,
                            (unobserved * slots + np.arange(slots)).ravel()])
    counts = np.bincount(cells, minlength=n_locations * slots).reshape(n_locations, slots)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.full(counts.shape, 1.0 / slots), where=totals > 0)


def build_stg(profiles: np.ndarray, k: int = 20) -> LocationGraph:
    """Visit-profile similarity graph.

    Pairwise score is 1 - W1 between slot profiles, so it lies in [0, 1];
    each location keeps its k highest-scoring peers (ties to the lower id).
    Both profiles live on the equispaced support (t + 0.5) / T, so W1 is the
    mean absolute difference of their CDFs, which are taken once.
    """
    cdf = np.cumsum(np.asarray(profiles, dtype=np.float64), axis=-1)
    n, slots = cdf.shape
    step = max(1, _CDF_BLOCK_BYTES // cdf.nbytes)   # one row of gaps is (N, T), as cdf is

    def similarity(start, stop):
        score = np.empty((stop - start, n))
        for lo in range(start, stop, step):
            gap = cdf[lo:min(lo + step, stop), None, :] - cdf[None, :, :]
            score[lo - start:lo - start + len(gap)] = np.abs(gap, out=gap).sum(axis=-1)
        return np.subtract(1.0, np.divide(score, slots, out=score), out=score)

    src, dst, score = _top_k_peers(similarity, n, k, largest=True)
    return LocationGraph("stg", "weighted", n, src, dst, np.clip(score, 0.0, 1.0), k=k)


def binarize(graph: LocationGraph) -> LocationGraph:
    """Vanilla variant: identical edge set, every weight 1."""
    return replace(graph, mode="vanilla", weight=np.ones_like(graph.weight))


def save_graph(path, graph: LocationGraph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.channel},{graph.mode},{graph.k}\n")
        fh.write("".join(f"{s},{d},{w!r}\n" for s, d, w in
                         zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist())))


def _parse_edges(lines):
    """The src, dst and weight columns of the non-blank lines, parsed in one
    NumPy call; None if there are none, or one is not ASCII ``int,int,float``
    or has a weight that is not finite."""
    texts = [line for line in lines if not line.isspace()]
    text = "".join(texts)
    # NumPy strips any space around a field, int() and float() only ASCII
    # ones other than \x1c-\x1f.
    ascii_spaced = text.isascii() and not any(c in text for c in "\x1c\x1d\x1e\x1f")
    edges = _parse_ints(texts, ",", _EDGE, 1) if texts and ascii_spaced else None
    if edges is None or len(edges) != len(texts) or not np.isfinite(edges["weight"]).all():
        return None
    return [np.ascontiguousarray(edges[name]) for name in _EDGE.names]


def load_graph(path, n_locations: int, channel: str) -> LocationGraph:
    """Read a ``channel`` graph written by :func:`save_graph`.

    The header is ``channel,mode,k`` with this channel, a known mode and an
    integer k; every other line is ``src,dst,weight`` with distinct ASCII
    integer ids in [0, ``n_locations``), a pair no earlier line holds, and a
    finite ASCII weight.  The edges are parsed in one NumPy call and checked
    at once; a file that fails is parsed again line by line, and its first
    bad line raises :class:`CheckinFormatError` naming the line and field.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 3 or header[0] != channel or header[1] not in ("weighted", "vanilla"):
            raise CheckinFormatError(1, "header", f"expected '{channel},mode,k' with mode "
                                     "weighted or vanilla")
        k = _int_field(1, "k", header[2])
        lines = fh.readlines()
    edges = _parse_edges(lines)
    with contextlib.suppress(ValueError):   # LocationGraph checks ids, self-edges, repeats
        if edges is not None:
            return LocationGraph(channel, header[1], n_locations, *edges, k=k)
    src, dst, weight = [], [], []
    seen = set()
    for line_no, (src_text, dst_text, weight_text) in _fields(lines, "src,dst,weight", start=2):
        s = _int_field(line_no, "src", src_text, n_locations)
        d = _int_field(line_no, "dst", dst_text, n_locations)
        if s == d:
            raise CheckinFormatError(line_no, "dst",
                                     f"self-edge on {s}; attention adds the self-loop")
        w = _float_field(line_no, "weight", weight_text)
        key = s * n_locations + d
        if key in seen:
            raise CheckinFormatError(line_no, "dst", f"duplicate edge {s} -> {d}")
        seen.add(key)
        src.append(s)
        dst.append(d)
        weight.append(w)
    return LocationGraph(channel, header[1], n_locations, np.array(src, dtype=np.int64),
                         np.array(dst, dtype=np.int64), np.array(weight), k=k)

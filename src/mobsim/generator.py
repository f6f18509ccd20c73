"""The trajectory generator.

Location embeddings are refined by per-graph attention stacks whose per-layer
outputs are summed across channels; a GRU consumes the embedding of each
visited location; two heads read the hidden state: an exploration softmax
over all locations and a dwell head whose stay probability is

    sigmoid(h . w + b) * exp(-beta * C)

with C the number of times the current location already appears in the
prefix (itself included).  Sampling draws the dwell Bernoulli first (only
once the prefix is longer than one) and falls back to the exploration
softmax when it does not fire; ``Generator.sequence_log_prob`` scores what
it drew, with the same count C.  The exploration draw never normalises a
row: it passes the exponentials of the logits less their row maximum to
``rng.categorical``, which scales each uniform by the row's total and
cumsums only the block of columns that holds it.

A teacher-forced pass runs the GRU over the whole id matrix as one tape op,
``nn.gru_unroll``, and the heads score the stacked states of every step at
once, so its tape has the same few nodes whatever the sequence length.  The
sampler takes one GRU step per position on plain arrays, recording nothing.
A large sampling pass runs its row chunks on two threads; a chunk calls only
this package's private array helpers and ``rng``'s draw, so no public
function a tracer wraps (and no span of it) ever runs off the calling thread.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas, nn
from .nn import Tensor, no_grad
from .nn.core import sigmoid_values
from .nn.layers import _gru_gates
from .records import check_ids
from .rng import categorical, stream

_ALLOWED_LAYERS = (1, 2)
_ALLOWED_HEADS = (1, 2, 4)
# Bytes of one (rows, N) float64 array: complete_batch runs its rows in
# chunks of chunk_rows(N) rows, each chunk taking every step before the next,
# and holds one such (chunk, N) logits buffer per call; a pass of more than
# one chunk runs on two threads, each with a buffer of half as many rows.
# compute_rewards stacks as many rollout blocks into one sampling pass as fit
# in block_rows(N) rows, so every rollout pass (and every training batch) is
# a single chunk and runs on one thread.
_CHUNK_BYTES = 1 << 21
_BLOCK_BYTES = 1 << 19


def chunk_rows(n_locations: int) -> int:
    """Rows of a (rows, n_locations) float64 array within ``_CHUNK_BYTES``,
    at least one."""
    return max(1, _CHUNK_BYTES // (8 * n_locations))


def block_rows(n_locations: int) -> int:
    """Rows of a (rows, n_locations) float64 array within ``_BLOCK_BYTES``,
    at least one."""
    return max(1, _BLOCK_BYTES // (8 * n_locations))


class ConfigError(ValueError):
    """A config value that builds no generator; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass
class GeneratorConfig:
    n_locations: int
    embed_dim: int = 32
    hidden_dim: int = 32
    layers: int = 1
    heads: int = 1
    channels: tuple = ("sdg", "ttg", "stg")
    dropout: float = 0.6
    beta: float = 1.0
    dwell: bool = True

    def __post_init__(self):
        self.channels = tuple(self.channels)
        if self.n_locations < 2:
            raise ConfigError("n_locations", "need at least 2 locations")
        if self.embed_dim < 1:
            raise ConfigError("embed_dim", "embed_dim must be positive")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim", "hidden_dim must be positive")
        if not self.channels:
            raise ConfigError("channels", "at least one graph channel is required")
        if len(set(self.channels)) < len(self.channels):
            raise ConfigError("channels", f"channels must be distinct, got {self.channels}")
        if self.layers not in _ALLOWED_LAYERS:
            raise ConfigError("layers", f"layers must be one of {_ALLOWED_LAYERS}")
        if self.heads not in _ALLOWED_HEADS:
            raise ConfigError("heads", f"heads must be one of {_ALLOWED_HEADS}")
        if self.embed_dim % self.heads != 0:
            raise ConfigError("heads", "heads must divide embed_dim")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout", "dropout must lie in [0, 1)")
        if self.beta < 0.0:
            raise ConfigError("beta", "beta must be non-negative")


class Generator:
    """Holds the parameter set and the per-channel attention edges."""

    def __init__(self, config: GeneratorConfig, graphs: dict, seed: int = 0):
        missing = [c for c in config.channels if c not in graphs]
        if missing:
            raise ConfigError("channels", f"no graph supplied for channels {missing}")
        for name in config.channels:
            if graphs[name].n_locations != config.n_locations:
                raise ConfigError("n_locations",
                                  f"graph {name!r} is over {graphs[name].n_locations} "
                                  f"locations, config says {config.n_locations}")
        self.config = config
        self.edges = {name: nn.graph_edges(graphs[name]) for name in config.channels}
        rng = stream(seed, "init/generator")
        params = nn.ParamSet()
        params.register("embed", rng.normal(0.0, 0.1, size=(config.n_locations, config.embed_dim)))
        head_dim = config.embed_dim // config.heads
        self.attn = {}
        for name in config.channels:
            self.attn[name] = [
                nn.init_heads(params, f"attn/{name}/l{layer}", config.heads,
                              config.embed_dim, head_dim, rng)
                for layer in range(config.layers)
            ]
        self.gru = nn.init_gru(params, "gru", config.embed_dim, config.hidden_dim, rng)
        params.register("explore/weight",
                        rng.normal(0.0, 1.0 / math.sqrt(config.hidden_dim),
                                   size=(config.hidden_dim, config.n_locations)))
        params.register("explore/bias", np.zeros(config.n_locations))
        params.register("dwell/weight",
                        rng.normal(0.0, 1.0 / math.sqrt(config.hidden_dim),
                                   size=(config.hidden_dim, 1)))
        params.register("dwell/bias", np.zeros(1))
        self.params = params

    def embed_locations(self, rng=None) -> Tensor:
        """The fused (N, embed_dim) location table after the attention stacks.

        Given a dropout stream ``rng``, the attention weights and the table
        are dropped at the config's rate (training); without one, nothing is
        dropped (evaluation and sampling)."""
        table = self.params["embed"]
        for layer in range(self.config.layers):
            fused = None
            for name in self.config.channels:
                out = nn.graph_attention(table, self.edges[name], self.attn[name][layer],
                                         dropout_rate=self.config.dropout, rng=rng)
                fused = out if fused is None else nn.add(fused, out)
            table = fused
        if rng is not None:
            table = nn.dropout(table, self.config.dropout, rng)
        return table

    def explore_logits(self, hidden: Tensor) -> Tensor:
        return nn.linear(hidden, self.params["explore/weight"], self.params["explore/bias"])

    def dwell_sigmoid(self, hidden: Tensor) -> Tensor:
        out = nn.linear(hidden, self.params["dwell/weight"], self.params["dwell/bias"])
        return nn.reshape(nn.sigmoid(out), (hidden.shape[0],))

    def stay_probs(self, hidden: Tensor, visits: np.ndarray) -> Tensor:
        """Damped stay probability sigmoid(h . w + b) * exp(-beta * C) per row,
        with C the row's entry of ``visits``, counted by ``_visit_counts``."""
        return nn.mul(self.dwell_sigmoid(hidden), nn.constant(np.exp(-self.config.beta * visits)))

    def zero_hidden(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.config.hidden_dim))

    def unroll(self, table: Tensor, batch_ids: np.ndarray) -> Tensor:
        """Teacher-forced GRU pass over a (B, L) id matrix from the zero
        state, one tape op: the (L, B, H) states, entry l after the first
        l + 1 columns."""
        x = nn.gather_rows(table, batch_ids.T)
        return nn.gru_unroll(x, nn.constant(self.zero_hidden(len(batch_ids))), self.gru)

    def _teacher_forced(self, table: Tensor, batch_ids: np.ndarray):
        """The shared start of a teacher-forced pass over a (B, L) id matrix,
        L >= 2: the checked ids, the (L - 1) * B stacked states, step-major,
        and the exploration cross-entropy of each next location."""
        batch_ids = check_ids(batch_ids, self.config.n_locations)
        hidden = nn.reshape(self.unroll(table, batch_ids[:, :-1]), (-1, self.config.hidden_dim))
        return batch_ids, hidden, nn.cross_entropy(self.explore_logits(hidden),
                                                   batch_ids[:, 1:].T.ravel())

    def sequence_nll(self, table: Tensor, batch_ids: np.ndarray):
        """Teacher-forced losses over a (B, L) id matrix, L >= 2, against the
        location ``table`` of :meth:`embed_locations`.

        Returns ``(nll, dwell_bce)``: the mean (over trajectories) summed
        negative log likelihood of each next location under the exploration
        softmax, and the mean summed binary cross-entropy of the dwell
        sigmoid against the stay indicator of each step.  The heads score
        the (L - 1) * B stacked states, step-major, at once.
        """
        batch_ids, hidden, nll = self._teacher_forced(table, batch_ids)
        nxt, cur = batch_ids[:, 1:].T.ravel(), batch_ids[:, :-1].T.ravel()
        bce = nn.binary_cross_entropy(self.dwell_sigmoid(hidden), (nxt == cur).astype(np.float64))
        # The batch mean of per-trajectory sums over L - 1 steps.
        steps = batch_ids.shape[1] - 1
        return nn.mul(nn.tmean(nll), steps), nn.mul(nn.tmean(bce), steps)

    def sequence_log_prob(self, table: Tensor, batch_ids: np.ndarray, fired: np.ndarray,
                          weights: np.ndarray):
        """Weighted sum of per-step log probabilities of the realized branches
        of a (B, L) id matrix, against the location ``table`` of
        :meth:`embed_locations`: the log-probability REINFORCE differentiates,
        so it counts the dwell damping's C as :func:`complete_batch` does.

        For the step that produced position l+1: log of the dwell stay
        probability when the dwell Bernoulli fired, log of the exploration
        softmax entry of the chosen location otherwise.  ``fired`` and
        ``weights`` are (B, L-1), one flag and one coefficient per step; returns
        the batch-mean weighted sum.  The heads score the (L - 1) * B stacked
        states, step-major, at once.
        """
        batch_ids, hidden, explore_nll = self._teacher_forced(table, batch_ids)
        b, length = batch_ids.shape
        for name, array in (("fired", fired), ("weights", weights)):
            if np.shape(array) != (b, length - 1):
                raise ValueError(f"{name} must be (B, L-1) = {(b, length - 1)}, "
                                 f"got {np.shape(array)}")
        explore_lp = nn.neg(explore_nll)
        visits = np.concatenate([_visit_counts(batch_ids[:, :l + 1]) for l in range(length - 1)])
        dwell_lp = nn.neg(nn.binary_cross_entropy(self.stay_probs(hidden, visits),
                                                  np.ones(len(visits))))
        mask = np.asarray(fired, dtype=np.float64).T.ravel()
        step_lp = nn.add(nn.mul(dwell_lp, mask), nn.mul(explore_lp, 1.0 - mask))
        terms = nn.mul(step_lp, np.asarray(weights, dtype=np.float64).T.ravel())
        # The batch mean of per-trajectory sums over L - 1 steps.
        return nn.mul(nn.tmean(terms), length - 1)


def _visit_counts(prefix: np.ndarray) -> np.ndarray:
    """The C of the dwell damping exp(-beta * C) for each row of a (B, l)
    prefix: how often its current location, the last column, appears in it."""
    return (prefix == prefix[:, -1:]).sum(axis=1)


def _stay_values(gen: Generator, hidden: np.ndarray, visits: np.ndarray) -> np.ndarray:
    """``gen.stay_probs`` on arrays, recording nothing: the same expressions,
    so the same values bit for bit."""
    dwell = hidden @ gen.params["dwell/weight"].values + gen.params["dwell/bias"].values
    return sigmoid_values(dwell[:, 0]) * np.exp(-gen.config.beta * visits)


def _explore_draw(gen: Generator, hidden: np.ndarray, rows: np.ndarray, uniforms: np.ndarray,
                  logits: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the exploration softmax for ``rows`` of
    ``hidden`` (a boolean mask or indices), one uniform per row.

    The logits, the values of ``gen.explore_logits(hidden)``, are written
    into the (len(hidden), N) buffer ``logits``, which ``complete_batch``
    allocates once per thread of a pass rather than at every step.  The draw
    reads the unnormalised exponentials ``exp(logit - row max)``: the
    softmax's divide by the row total moves into the draw's target, and
    :func:`rng.categorical` cumsums only the block of columns that holds it.
    The matmul stays over every row of ``hidden``: a row-subset matmul is
    not always bit-identical to the full one, while the row-wise max, exp,
    block sums and search are.
    """
    np.matmul(hidden, gen.params["explore/weight"].values, out=logits)
    logits += gen.params["explore/bias"].values
    masses = logits[rows]
    masses -= masses.max(axis=-1, keepdims=True)
    return categorical(np.exp(masses, out=masses), uniforms)


def complete_batch(gen: Generator, table: Tensor, prefix_ids: np.ndarray, length: int,
                   master_seed: int, tags: list, hidden: np.ndarray, starts: np.ndarray,
                   record: bool = False):
    """Extend each row of a (B, w) prefix batch, B >= 1, to ``length`` slots
    by sampling from the location ``table`` of :meth:`Generator.embed_locations`.

    Rows may join the pass at their own position.  ``starts`` gives each
    row's prefix length, non-decreasing down the batch; the columns of
    ``prefix_ids`` past a row's start are ignored but must hold valid ids.
    The rows sharing a start form a block, and ``tags`` holds one stream
    tag per block in order.  At step ``pos`` the active rows are the leading
    blocks whose start is at most ``pos``.  A block joins with its rows of
    ``hidden``, the (B, H) GRU state after all but the last column of each
    row's prefix (zeros for a one-slot prefix).  A joined pass samples what
    one call per block would, draw for draw.

    A block tagged ``t`` draws from the streams ``t/explore`` and ``t/dwell``
    of ``master_seed``.  It consumes its dwell stream only at steps where the
    dwell branch is active; its exploration stream gives one uniform to every
    row at every step, so disabling the dwell branch leaves the exploration
    draws untouched.  Each block draws all its uniforms before the first
    step, one ``random((steps, rows))`` call per stream, which gives the
    values that one call per step would.  The rows then run in chunks of
    ``chunk_rows(N)``, each chunk taking every step before the next starts,
    so that sampling holds one (chunk, N) logits buffer and no (B, N) array.
    A pass of more than one such chunk, given more than one CPU, runs chunks
    of half as many rows on two threads, the caller's and a helper that
    lives for the pass, with OpenBLAS on one thread: every chunk's result is
    fixed by its rows and their uniforms, and the two threads write disjoint
    rows of the output, so the samples are those of one thread.  A chunk
    runs on plain arrays through private helpers and ``rng``'s draw only.
    Only the rows whose dwell gate did not fire run the exploration draw.  With
    ``record`` the (B, length - first start) matrix of dwell-fired flags is
    returned as well, False before each row's start.
    """
    prefix_ids = check_ids(prefix_ids, gen.config.n_locations, min_slots=1)
    b, width = prefix_ids.shape
    if not 1 <= width <= length:
        raise ValueError(f"prefix length {width} outside [1, {length}]")
    starts = np.asarray(starts, dtype=np.int64)
    if (starts.shape != (b,) or np.any(np.diff(starts) < 0)
            or np.any((starts < 1) | (starts > width))):
        raise ValueError(f"starts must give each row a prefix length in [1, {width}], "
                         "non-decreasing down the batch")
    block_starts, block_lo = np.unique(starts, return_index=True)
    block_hi = np.append(block_lo[1:], b)
    if len(tags) != len(block_starts):
        raise ValueError(f"{len(block_starts)} blocks of rows need as many stream tags, "
                         f"got {len(tags)}")
    out = np.empty((b, length), dtype=np.int64)
    out[:, :width] = prefix_ids
    first = starts[0]
    fired = np.zeros((b, length - first), dtype=bool)
    # Row r's uniforms for the step that fills position pos sit at [pos, r].
    explore_u, dwell_u = np.empty((length, b)), np.empty((length, b))
    for start, lo, hi, tag in zip(block_starts, block_lo, block_hi, tags):
        explore_u[start:, lo:hi] = stream(master_seed, f"{tag}/explore").random(
            (length - start, hi - lo))
        if gen.config.dwell:
            gated = max(start, 2)
            dwell_u[gated:, lo:hi] = stream(master_seed, f"{tag}/dwell").random(
                (length - gated, hi - lo))
    n_locations = gen.config.n_locations
    rows = chunk_rows(n_locations)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    threads = 2 if b > rows and cpus > 1 else 1
    rows = max(1, rows // threads)
    embed = table.values
    weights = [t.values for t in gen.gru]

    def sample_chunks(chunk_starts):
        """Sample the chunks of ``rows`` rows from each of ``chunk_starts``,
        one after another, into ``out`` and ``fired``."""
        logits = np.empty((min(b, rows), n_locations))
        for lo in chunk_starts:
            span = slice(lo, lo + rows)
            ids, rows_starts, rows_hidden = out[span], starts[span], hidden[span]
            state, joined = rows_hidden[:0], 0
            for pos in range(rows_starts[0], length):
                n = np.searchsorted(rows_starts, pos, side="right")
                if n > joined:
                    state = np.concatenate([state, rows_hidden[joined:n]])
                    joined = n
                state = _gru_gates(embed[ids[:n, pos - 1]], state, weights)[-1]
                stay = np.zeros(n, dtype=bool)
                if gen.config.dwell and pos > 1:
                    stay_y = _stay_values(gen, state, _visit_counts(ids[:n, :pos]))
                    stay = dwell_u[pos, lo:lo + n] < stay_y
                # A boolean mask gathers the exploring rows without holding
                # the GIL, which the other thread of a pass is waiting for.
                explore = ~stay
                drawn = ids[:n, pos]
                drawn[:] = ids[:n, pos - 1]              # where the gate fired, the row stays
                drawn[explore] = _explore_draw(gen, state, explore,
                                               explore_u[pos, lo:lo + n][explore], logits[:n])
                fired[lo:lo + n, pos - first] = stay

    chunk_starts = range(0, b, rows)
    if threads == 1:
        sample_chunks(chunk_starts)
    else:
        with blas.one_thread(), ThreadPoolExecutor(max_workers=1) as helper:
            other = helper.submit(sample_chunks, chunk_starts[1::2])
            sample_chunks(chunk_starts[::2])
            other.result()
    if record:
        return out, fired
    return out


def seed_distribution(batch_ids: np.ndarray, n_locations: int) -> np.ndarray:
    """Empirical distribution of first-slot locations in a (B, T) training
    id matrix."""
    first = check_ids(batch_ids, n_locations)[:, 0]
    return np.bincount(first, minlength=n_locations) / len(first)


def generate_batch(gen: Generator, count: int, length: int, seed_dist: np.ndarray,
                   master_seed: int, tag: str, record: bool = False):
    """Sample ``count`` trajectories from scratch, seeding the first slot from
    the given distribution with the stream ``tag/seed`` of ``master_seed``:
    one block of one-slot prefixes with tag ``tag``, each joining the pass
    from the zero state."""
    with no_grad():
        table = gen.embed_locations()
    seeds = categorical(seed_dist, stream(master_seed, f"{tag}/seed").random(count))
    return complete_batch(gen, table, seeds[:, None], length, master_seed, [tag],
                          gen.zero_hidden(count), np.ones(count, dtype=np.int64), record=record)

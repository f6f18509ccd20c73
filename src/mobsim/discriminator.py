"""A recurrent discriminator over location id sequences.

Embeds each location (its own table, not shared with the generator), runs a
GRU across the full sequence as one tape op (``nn.gru_unroll``), and maps the
final hidden state through a sigmoid to the probability that the sequence is
real.  A sequence can also be stepped on plain arrays from the GRU state of a
shared prefix and scored at its end, so Monte Carlo completions of one prefix
run the prefix once.
"""

from __future__ import annotations

import math

import numpy as np

from . import nn
from .nn import Tensor
from .records import check_ids
from .rng import stream


class Discriminator:
    """Sized by the generator it judges: its ``n_locations``, ``embed_dim``
    and ``hidden_dim``."""

    def __init__(self, n_locations: int, embed_dim: int, hidden_dim: int, seed: int = 0):
        self.n_locations, self.embed_dim, self.hidden_dim = n_locations, embed_dim, hidden_dim
        rng = stream(seed, "init/discriminator")
        params = nn.ParamSet()
        params.register("embed", rng.normal(0.0, 0.1, size=(n_locations, embed_dim)))
        self.gru = nn.init_gru(params, "gru", embed_dim, hidden_dim, rng)
        params.register("head/weight",
                        rng.normal(0.0, 1.0 / math.sqrt(hidden_dim), size=(hidden_dim, 1)))
        params.register("head/bias", np.zeros(1))
        self.params = params

    def unroll(self, batch_ids: np.ndarray) -> Tensor:
        """GRU pass over a (B, L) id matrix from the zero state, one tape op:
        the (L, B, H) states, entry l after the first l + 1 columns."""
        batch_ids = check_ids(batch_ids, self.n_locations)
        hidden = nn.constant(np.zeros((len(batch_ids), self.hidden_dim)))
        return nn.gru_unroll(nn.gather_rows(self.params["embed"], batch_ids.T), hidden, self.gru)

    def step(self, ids: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """One GRU step on arrays, recording nothing: the state after feeding
        the locations ``ids`` to the (B, H) state ``hidden``."""
        return nn.gru_cell(self.params["embed"].values[ids], hidden, self.gru)

    def score(self, hidden: Tensor) -> Tensor:
        """Probability of being real for each row of a final GRU state."""
        out = nn.linear(hidden, self.params["head/weight"], self.params["head/bias"])
        return nn.reshape(nn.sigmoid(out), (hidden.shape[0],))

    def classify(self, batch_ids: np.ndarray) -> Tensor:
        """Probability that each row of a (B, L) id matrix is a real trajectory."""
        states = self.unroll(batch_ids)
        return self.score(nn.gather_rows(states, states.shape[0] - 1))


CLAMP = 1e-7


def d_loss(disc: Discriminator, real_ids: np.ndarray, fake_ids: np.ndarray) -> Tensor:
    """mean log D(real) + mean log(1 - D(fake)), the objective the
    discriminator ascends.  Probabilities are clamped to [1e-7, 1 - 1e-7]
    inside the logs, so the value is at most 0 up to the clamp."""
    real_term = nn.binary_cross_entropy(disc.classify(real_ids),
                                        np.ones(len(real_ids)), eps=CLAMP)
    fake_term = nn.binary_cross_entropy(disc.classify(fake_ids),
                                        np.zeros(len(fake_ids)), eps=CLAMP)
    return nn.neg(nn.add(nn.tmean(real_term), nn.tmean(fake_term)))

"""Every entry that takes an in-memory (B, T) id matrix rejects ids outside
[0, N), whichever column holds them, and a matrix of non-integer ids, through
``records.check_ids``."""

import numpy as np
import pytest

from mobsim import graphs
from mobsim.discriminator import Discriminator
from mobsim.generator import Generator, GeneratorConfig, complete_batch, seed_distribution
from mobsim.metrics import evaluate
from mobsim.records import Dataset, check_ids
from mobsim.training import compute_rewards
from tables import table

N = 8


def _models():
    src = np.arange(N)
    cycle = graphs.LocationGraph("sdg", "weighted", N, src, (src + 1) % N, np.full(N, 0.5))
    gen = Generator(GeneratorConfig(n_locations=N, embed_dim=4, hidden_dim=4,
                                    channels=("sdg",), dropout=0.0), {"sdg": cycle}, seed=0)
    return gen, Discriminator(N, 4, 4, seed=0)


def _complete(gen, disc, ids):
    return complete_batch(gen, gen.embed_locations(), ids, ids.shape[1] + 2,
                          0, ["c"], gen.zero_hidden(len(ids)),
                          np.full(len(ids), ids.shape[1]))


def _evaluate(gen, disc, ids):
    coords = np.column_stack([np.linspace(40.0, 40.1, N), np.linspace(-74.0, -73.9, N)])
    real = Dataset(table(np.arange(2 * ids.shape[1]).reshape(2, -1) % N), coords)
    return evaluate(real, ids)


ENTRIES = {
    "sequence_nll": lambda gen, disc, ids: gen.sequence_nll(gen.embed_locations(), ids),
    "sequence_log_prob": lambda gen, disc, ids: gen.sequence_log_prob(
        gen.embed_locations(), ids, np.zeros((len(ids), ids.shape[1] - 1), dtype=bool),
        np.ones((len(ids), ids.shape[1] - 1))),
    "complete_batch": _complete,
    "classify": lambda gen, disc, ids: disc.classify(ids),
    "compute_rewards": lambda gen, disc, ids: compute_rewards(gen, disc, ids, 2, 0, "r"),
    "evaluate": _evaluate,
    "seed_distribution": lambda gen, disc, ids: seed_distribution(ids, N),
}


@pytest.mark.parametrize("column", [0, -1], ids=["first_column", "last_column"])
@pytest.mark.parametrize("bad", [-1, N], ids=["minus_one", "n"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_id_matrix_entry_rejects_ids_outside_the_locations(entry, bad, column):
    gen, disc = _models()
    ids = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
    ENTRIES[entry](gen, disc, ids)          # the valid matrix passes
    ids[1, column] = bad
    with pytest.raises(ValueError, match=rf"location ids outside \[0, {N}\)"):
        ENTRIES[entry](gen, disc, ids)


@pytest.mark.parametrize("ids, min_slots", [
    (np.zeros((0, 4)), 2),
    (np.zeros((3, 1)), 2),
    (np.zeros((3, 0)), 1),
    (np.zeros(4), 1),
    (np.zeros((2, 2, 2)), 1),
], ids=["no_rows", "one_slot", "no_slot", "one_dimension", "three_dimensions"])
def test_check_ids_names_a_bad_shape(ids, min_slots):
    with pytest.raises(ValueError, match=rf"T >= {min_slots}\) id matrix, got shape"):
        check_ids(ids, N, min_slots)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_id_matrix_entry_rejects_float_ids(entry):
    # 0.9 and 7.6 used to pass as ids 0 and 7.
    gen, disc = _models()
    ids = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.6]])
    ids[0, 0] = 0.9
    with pytest.raises(ValueError, match="location ids must be integers, got dtype float64"):
        ENTRIES[entry](gen, disc, ids)


@pytest.mark.parametrize("ids, dtype", [
    ([[0.9, 1.7]], "float64"),
    ([[True, False]], "bool"),
    (np.array([[1, 2]], dtype=np.float32), "float32"),
], ids=["float", "bool", "float32"])
def test_check_ids_rejects_a_non_integer_matrix(ids, dtype):
    with pytest.raises(ValueError, match=f"got dtype {dtype}"):
        check_ids(ids, N)


def test_check_ids_takes_any_integer_matrix():
    for dtype in (np.int32, np.uint8, np.int64):
        got = check_ids(np.array([[0, 7]], dtype=dtype), N)
        assert got.dtype == np.int64 and got.tolist() == [[0, 7]]

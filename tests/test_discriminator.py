import math

import numpy as np
import pytest

from mobsim import nn
from mobsim.discriminator import Discriminator, d_loss
from gradcheck import grad_check


def _disc(n=8, seed=0):
    return Discriminator(n_locations=n, embed_dim=4, hidden_dim=4, seed=seed)


def test_classify_shapes_and_range():
    disc = _disc()
    ids = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [0, 0, 0, 0]])
    with nn.no_grad():
        scores = disc.classify(ids).values
    assert scores.shape == (3,)
    assert np.all((scores > 0) & (scores < 1))


def test_classify_validates_ids():
    disc = _disc()
    with pytest.raises(ValueError, match=r"location ids outside \[0, 8\)"):
        disc.classify(np.array([[0, 99]]))
    with pytest.raises(ValueError, match=r"got shape \(2, 0\)"):
        disc.classify(np.zeros((2, 0), dtype=np.int64))


def test_classify_scores_the_state_the_array_steps_reach():
    # The teacher-forced pass and the rollouts' array steps reach the same
    # final state bit for bit, so a rollout is scored as classify scores it.
    disc = _disc(seed=3)
    ids = np.random.default_rng(4).integers(0, 8, size=(5, 7))
    state = np.zeros((5, 4))
    for column in ids.T:
        state = disc.step(column, state)
    with nn.no_grad():
        np.testing.assert_array_equal(disc.score(state).values, disc.classify(ids).values)
        np.testing.assert_array_equal(disc.unroll(ids).values[-1], state)


def test_zero_params_score_half_and_loss_is_two_ln_two():
    disc = _disc()
    for _, tensor in disc.params.items():
        tensor.values[:] = 0.0
    real = np.array([[0, 1, 2], [3, 4, 5]])
    fake = np.array([[5, 4, 3], [2, 1, 0]])
    with nn.no_grad():
        assert np.allclose(disc.classify(real).values, 0.5)
        objective = d_loss(disc, real, fake)
    # mean log D(real) + mean log(1 - D(fake)) at D = 1/2.
    assert objective.item() == pytest.approx(-2 * math.log(2), abs=1e-12)


def test_d_loss_gradient():
    disc = _disc(seed=2)
    real = np.array([[0, 1, 2, 3], [1, 1, 4, 5]])
    fake = np.array([[7, 6, 5, 4], [2, 2, 2, 2]])

    def op(*tensors):
        return d_loss(disc, real, fake)

    assert grad_check(op, [t for _, t in disc.params.items()]) < 1e-6


def test_d_loss_improves_separation():
    disc = _disc(seed=3)
    rng = np.random.default_rng(0)
    real = np.zeros((32, 12), dtype=np.int64)            # constant sequences
    fake = rng.integers(0, 8, size=(32, 12))             # noise
    opt = nn.Adam(disc.params, lr=0.01)
    with nn.no_grad():
        start = d_loss(disc, real, fake).item()
    for _ in range(60):
        opt.zero_grad()
        nn.neg(d_loss(disc, real, fake)).backward()
        opt.step()
    with nn.no_grad():
        end = d_loss(disc, real, fake).item()
        scores_real = disc.classify(real).values
        scores_fake = disc.classify(fake).values
    assert end > start
    assert scores_real.mean() > scores_fake.mean()


def test_seeding_is_reproducible():
    a, b = _disc(seed=7), _disc(seed=7)
    for name, tensor in a.params.items():
        assert np.array_equal(tensor.values, b.params[name].values)
    assert not np.array_equal(a.params["embed"].values,
                              _disc(seed=8).params["embed"].values)

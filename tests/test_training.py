import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from mobsim import generator, graphs, nn, synth, training
from mobsim.discriminator import Discriminator, d_loss
from mobsim.generator import Generator, GeneratorConfig, generate_batch
from mobsim.training import (
    TrainConfig,
    TrainingDiverged,
    adversarial_train,
    compute_rewards,
    mean_nll,
    policy_gradient_step,
    pretrain_discriminator,
    pretrain_generator,
)
from oracles import compute_rewards_replayed


def _cycle_graph(n):
    src = np.arange(n)
    return graphs.LocationGraph("sdg", "weighted", n, src, (src + 1) % n,
                                np.full(n, 0.5))


def _gen(n=8, seed=0, **overrides):
    defaults = dict(n_locations=n, embed_dim=4, hidden_dim=4, channels=("sdg",),
                    dropout=0.0)
    defaults.update(overrides)
    config = GeneratorConfig(**defaults)
    return Generator(config, {"sdg": _cycle_graph(n)}, seed=seed)


def _disc(n=8, seed=0):
    return Discriminator(n_locations=n, embed_dim=4, hidden_dim=4, seed=seed)


def _sticky_ids(n_locations=8, rows=48, length=24, stay=0.8, seed=0):
    return synth.synth_generate(synth.SynthConfig(
        n_locations=n_locations, users=rows // 4, days=4, stay_prob=stay,
        seed=seed, slots=length)).trajectories.ids


# ---------------------------------------------------------------------------
# configuration and helpers


@pytest.mark.parametrize("kwargs", [
    dict(epochs=-1),
    dict(batch_size=0),
    dict(lr=-0.1),
    dict(rollouts=0),
    dict(baseline_decay=1.0),
    dict(eval_count=-1),
    dict(steps_per_epoch=-1),
])
def test_train_config_rejects(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_check_finite_names_parameter():
    gen = _gen()
    gen.params["explore/bias"].values[0] = np.inf
    with pytest.raises(TrainingDiverged, match="explore/bias"):
        training._check_finite(gen.params, "unit test")


def test_mean_nll_matches_direct_evaluation():
    gen = _gen()
    ids = np.array([[0, 1, 2, 3], [4, 4, 4, 4], [7, 6, 5, 4]])
    with nn.no_grad():
        direct, _ = gen.sequence_nll(gen.embed_locations(), ids)
    assert mean_nll(gen, ids, batch_size=2) == pytest.approx(direct.item(), rel=1e-12)


# ---------------------------------------------------------------------------
# pretraining


def test_pretrain_generator_reduces_nll():
    gen = _gen(seed=1)
    ids = _sticky_ids()
    before = mean_nll(gen, ids, 16)
    log = pretrain_generator(gen, ids, TrainConfig(pretrain_epochs=8, lr=0.05,
                                                   batch_size=16, seed=0))
    after = mean_nll(gen, ids, 16)
    assert after < before * 0.8
    assert log[0].startswith("phase=pretrain_g epoch=0 nll=")
    assert len(log) == 9


def test_pretrain_generator_without_dwell_drops_bce_term():
    ids = _sticky_ids()
    for dwell in (True, False):
        gen = _gen(seed=2, dwell=dwell)
        pretrain_generator(gen, ids, TrainConfig(pretrain_epochs=2, lr=0.05, seed=0))
        # The dwell head only trains when the branch is enabled.
        moved = not np.allclose(gen.params["dwell/weight"].values,
                                _gen(seed=2, dwell=dwell).params["dwell/weight"].values)
        assert moved == dwell


def test_pretrain_discriminator_improves_objective():
    ids = _sticky_ids()
    gen = _gen(seed=3)
    disc = _disc(seed=3)
    log = pretrain_discriminator(disc, gen, ids,
                                 TrainConfig(d_pretrain_epochs=3, lr=0.02, seed=1))
    first = float(log[0].split("d_loss=")[1])
    last = float(log[-1].split("d_loss=")[1])
    assert last > first
    assert len(log) == 3


def _watch_losses(loss_fn):
    """Wrap a loss function.  Each call first records how many loss tensors
    of the earlier calls are still alive, then keeps a weak reference to its
    own (the first element when it returns a tuple)."""
    refs, alive = [], []

    def watched(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        out = loss_fn(*args, **kwargs)
        refs.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
        return out

    return watched, alive


@pytest.mark.parametrize("loop", ["pretrain_g", "pretrain_d", "adversarial_d"])
def test_previous_step_tape_is_freed_before_the_next_forward(monkeypatch, loop):
    # With the cyclic collector off, only reference counting can free a tape:
    # a step's loss tensor must be gone before the next step's forward pass.
    gen, disc = _gen(seed=5), _disc(seed=5)
    if loop == "pretrain_g":
        monkeypatch.setattr(training, "mean_nll", lambda *args, **kwargs: 0.0)
        watched, alive = _watch_losses(gen.sequence_nll)
        monkeypatch.setattr(gen, "sequence_nll", watched)
    else:
        watched, alive = _watch_losses(training.d_loss)
        monkeypatch.setattr(training, "d_loss", watched)
    gc.disable()
    try:
        if loop == "pretrain_g":
            pretrain_generator(gen, _sticky_ids(), TrainConfig(pretrain_epochs=1, batch_size=16))
        elif loop == "pretrain_d":
            pretrain_discriminator(disc, gen, _sticky_ids(),
                                   TrainConfig(d_pretrain_epochs=1, batch_size=16))
        else:
            train, valid, _ = _tiny_datasets()
            # No discriminator pretraining, so the three watched calls are
            # the adversarial steps'.
            adversarial_train(gen, train, valid,
                              TrainConfig(epochs=1, d_pretrain_epochs=0, batch_size=8,
                                          rollouts=2, eval_count=4, steps_per_epoch=3))
    finally:
        gc.enable()
    assert len(alive) == 3
    assert alive == [0, 0, 0]


# ---------------------------------------------------------------------------
# rewards


class _CountingDisc:
    """Stands in for the discriminator: score = share of zeros in the row.

    Its state after l columns is (zeros so far, l) per row, so a tail scored
    from the state of its head gets the share over the whole row."""

    def step(self, ids, hidden):
        return hidden + np.column_stack([ids == 0, np.ones(len(ids))])

    def unroll(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        state, states = np.zeros((len(ids), 2)), []
        for column in ids.T:
            state = self.step(column, state)
            states.append(state)
        return nn.constant(np.stack(states))

    def score(self, hidden):
        hidden = np.asarray(getattr(hidden, "values", hidden))
        return nn.constant(hidden[:, 0] / hidden[:, 1])


def test_compute_rewards_shape_range_and_final_column():
    gen = _gen(seed=4)
    disc = _disc(seed=4)
    batch = generate_batch(gen, 6, 10, np.full(8, 1 / 8), 0, "s")
    rewards = compute_rewards(gen, disc, batch, n_rollouts=3, master_seed=0, tag="r")
    assert rewards.shape == (6, 10)
    assert np.all((rewards >= 0.0) & (rewards <= 1.0))
    with nn.no_grad():
        full = disc.classify(batch).values
    assert np.allclose(rewards[:, -1], full)


def test_compute_rewards_is_deterministic():
    gen = _gen(seed=5)
    disc = _disc(seed=5)
    batch = generate_batch(gen, 4, 8, np.full(8, 1 / 8), 1, "s")
    a = compute_rewards(gen, disc, batch, 4, master_seed=2, tag="r")
    b = compute_rewards(gen, disc, batch, 4, master_seed=2, tag="r")
    c = compute_rewards(gen, disc, batch, 4, master_seed=3, tag="r")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_compute_rewards_prefix_column_alignment():
    # With a deterministic scoring stub, column l-1 is the mean stub score of
    # completions that all share the length-l prefix.
    gen = _gen(seed=6)
    batch = np.array([[0, 0, 0, 0], [1, 2, 3, 4]])
    rewards = compute_rewards(gen, _CountingDisc(), batch, n_rollouts=16,
                              master_seed=0, tag="r")
    # Row 0 starts with zeros: every completion of its length-l prefix keeps
    # at least l/L zeros, so the reward grows with the prefix of zeros.
    assert rewards[0, -1] == 1.0
    assert rewards[1, -1] == 0.0
    assert np.all(rewards[0, :-1] >= rewards[1, :-1])
    assert rewards[0, 2] >= 3 / 4 - 1e-12


@pytest.mark.parametrize("dwell", [True, False], ids=["dwell", "no_dwell"])
@pytest.mark.parametrize("length", [2, 24])
@pytest.mark.parametrize("rollouts", [1, 4, 16])
def test_compute_rewards_matches_replayed_rollouts(small_graphs, dwell, length, rollouts):
    # Starting each completion from the cached prefix states must give the
    # same rewards, bit for bit, as replaying every prefix from slot 0.
    gen = Generator(GeneratorConfig(n_locations=16, embed_dim=8, hidden_dim=8,
                                    dwell=dwell), small_graphs, seed=3)
    disc = Discriminator(n_locations=16, embed_dim=8, hidden_dim=8, seed=3)
    batch = generate_batch(gen, 5, length, np.full(16, 1 / 16), 0, "s")
    cached = compute_rewards(gen, disc, batch, rollouts, master_seed=1, tag="r")
    replayed = compute_rewards_replayed(gen, disc, batch, rollouts, 1, "r")
    np.testing.assert_array_equal(cached, replayed)


@pytest.mark.parametrize("blocks_per_pass", [1, 3, 7])
def test_compute_rewards_does_not_depend_on_the_pass_size(small_graphs, monkeypatch,
                                                          blocks_per_pass):
    # One pass per prefix length or several stacked in one pass: the same
    # rewards, bit for bit.
    gen = Generator(GeneratorConfig(n_locations=16, embed_dim=8, hidden_dim=8), small_graphs,
                    seed=3)
    disc = _disc(n=16)
    batch = generate_batch(gen, 5, 24, np.full(16, 1 / 16), 0, "s")
    stacked = compute_rewards(gen, disc, batch, 4, master_seed=1, tag="r")
    monkeypatch.setattr(generator, "_BLOCK_BYTES", 8 * 16 * 5 * 4 * blocks_per_pass)
    assert generator.block_rows(16) // 20 == blocks_per_pass
    np.testing.assert_array_equal(compute_rewards(gen, disc, batch, 4, master_seed=1, tag="r"),
                                  stacked)


def test_compute_rewards_holds_a_bounded_pass():
    # Stacking the rollouts of all 23 prefix lengths in one pass peaks near
    # 8 MB here; passes capped at block_rows(N) rows stay under 3 MB.
    gen = _gen(n=100)
    disc = _disc(n=100)
    batch = generate_batch(gen, 32, 24, np.full(100, 1 / 100), 0, "s")
    tracemalloc.start()
    try:
        compute_rewards(gen, disc, batch, 4, master_seed=0, tag="r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


# ---------------------------------------------------------------------------
# the REINFORCE estimator on a two-armed bandit


def _bandit_generator():
    """Length-2 sequences over 2 locations; the policy is softmax(explore bias).

    Zeroing every other parameter keeps the hidden state at zero, so the
    exploration distribution is exactly softmax(b) whatever the input.
    """
    gen = _gen(n=2, seed=7)
    for name, tensor in gen.params.items():
        tensor.values[:] = 0.0
    gen.params["explore/bias"].values[:] = [0.3, -0.2]
    return gen


def test_bandit_gradient_matches_per_sample_formula():
    # The tape gradient of the weighted log-likelihood must equal the closed
    # form mean((1{a=k} - pi_k) * w) computed outside the library.
    gen = _bandit_generator()
    bias = gen.params["explore/bias"].values
    pi = np.exp(bias) / np.exp(bias).sum()

    actions = np.array([0, 1, 1, 0, 1])
    batch = np.column_stack([np.zeros(5, dtype=np.int64), actions])
    fired = np.zeros((5, 1), dtype=bool)
    reward_of = np.array([0.9, 0.1])
    baseline = 0.37
    weights = (reward_of[actions] - baseline)[:, None]

    objective = gen.sequence_log_prob(gen.embed_locations(), batch, fired, weights)
    gen.params.zero_grad()
    objective.backward()
    got = gen.params["explore/bias"].grad

    indicator = np.column_stack([actions == 0, actions == 1]).astype(float)
    expected = ((indicator - pi) * weights).mean(axis=0)
    assert np.allclose(got, expected, atol=1e-12)


def test_bandit_estimator_is_unbiased_within_three_se():
    # Draw many actions from the policy itself; the mean estimated gradient
    # must land within 3 standard errors of the analytic policy gradient
    # pi_0 * pi_1 * (R_0 - R_1), independently of the baseline.
    gen = _bandit_generator()
    bias = gen.params["explore/bias"].values
    pi = np.exp(bias) / np.exp(bias).sum()
    reward_of = np.array([0.9, 0.1])
    baseline = 0.4
    analytic = pi[0] * pi[1] * (reward_of[0] - reward_of[1])

    total = 40000
    chunk = 8000
    grad_sum = np.zeros(2)
    sq_sum = np.zeros(2)
    for i in range(total // chunk):
        batch = generate_batch(gen, chunk, 2, np.array([1.0, 0.0]), i, "bandit")
        actions = batch[:, 1]
        weights = (reward_of[actions] - baseline)[:, None]
        fired = np.zeros((chunk, 1), dtype=bool)
        objective = gen.sequence_log_prob(gen.embed_locations(), batch, fired, weights)
        gen.params.zero_grad()
        objective.backward()
        grad_sum += gen.params["explore/bias"].grad * chunk
        # Per-sample spread for the standard error, via the closed form.
        indicator = np.column_stack([actions == 0, actions == 1]).astype(float)
        per_sample = (indicator - pi) * weights
        sq_sum += (per_sample ** 2).sum(axis=0)

    mean = grad_sum / total
    var = sq_sum / total - mean ** 2
    se = np.sqrt(var / total)
    assert abs(mean[0] - analytic) < 3 * se[0]
    assert abs(mean[1] + analytic) < 3 * se[1]


def test_policy_step_with_equal_rewards_and_matching_baseline_is_noop():
    gen = _gen(seed=8)
    before = gen.params.copy()
    batch = generate_batch(gen, 6, 6, np.full(8, 1 / 8), 0, "s", record=True)
    ids, fired = batch
    rewards = np.full((6, 6), 0.5)
    opt = nn.Adam(gen.params, lr=0.5)
    policy_gradient_step(gen, opt, ids, fired, rewards, 0.5, np.random.default_rng(0))
    for name, tensor in gen.params.items():
        assert np.allclose(tensor.values, before[name].values, atol=1e-15)


def test_policy_step_zero_lr_is_noop():
    gen = _gen(seed=9)
    before = gen.params.copy()
    ids, fired = generate_batch(gen, 4, 6, np.full(8, 1 / 8), 1, "s", record=True)
    rewards = np.random.default_rng(0).random((4, 6))
    opt = nn.Adam(gen.params, lr=0.0)
    policy_gradient_step(gen, opt, ids, fired, rewards, 0.0, np.random.default_rng(0))
    for name, tensor in gen.params.items():
        assert np.array_equal(tensor.values, before[name].values)


def test_dwell_credit_goes_to_dwell_branch():
    # A step where the dwell gate fired must propagate its weight into the
    # dwell head, not the exploration head, and vice versa.
    gen = _gen(seed=10)
    batch = np.array([[3, 3, 3]])
    weights = np.array([[1.0, 1.0]])

    fired_dwell = np.array([[False, True]])
    objective = gen.sequence_log_prob(gen.embed_locations(), batch, fired_dwell, weights)
    gen.params.zero_grad()
    objective.backward()
    dwell_grad = np.abs(gen.params["dwell/weight"].grad).sum()
    assert dwell_grad > 0.0

    fired_none = np.array([[False, False]])
    objective = gen.sequence_log_prob(gen.embed_locations(), batch, fired_none, weights)
    gen.params.zero_grad()
    objective.backward()
    assert np.abs(gen.params["dwell/weight"].grad).sum() == 0.0
    assert np.abs(gen.params["explore/weight"].grad).sum() > 0.0


def test_log_prob_without_dwell_equals_negative_nll():
    # With no dwell step fired and unit weights the policy objective is the
    # teacher-forced explore log-likelihood: both losses share one unroll.
    gen = _gen(seed=13)
    ids, _ = generate_batch(gen, 5, 7, np.full(8, 1 / 8), 3, "a", record=True)
    fired = np.zeros((5, 6), dtype=bool)
    table = gen.embed_locations()
    objective = gen.sequence_log_prob(table, ids, fired, np.ones((5, 6)))
    nll, _ = gen.sequence_nll(table, ids)
    np.testing.assert_array_equal(-objective.values, nll.values)


def test_log_prob_damping_counts_every_prefix_slot(monkeypatch):
    # Step l is damped by the count of its current location over slots 0..l,
    # counted by the function the sampler uses.
    gen = _gen(seed=14)
    ids = np.array([[2, 2, 5, 2]])
    seen = []
    count = generator._visit_counts

    def spy(prefix):
        counts = count(prefix)
        seen.extend(counts.tolist())
        return counts

    monkeypatch.setattr(generator, "_visit_counts", spy)
    gen.sequence_log_prob(gen.embed_locations(), ids, np.zeros((1, 3), dtype=bool),
                          np.ones((1, 3)))
    assert seen == [1, 2, 1]


@pytest.mark.parametrize("name", ["fired", "weights"])
@pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3, 3), (6,)])
def test_log_prob_rejects_a_per_step_matrix_of_the_wrong_shape(name, shape):
    # Both are (B, L-1); a (B, L) matrix used to pass, its last column unread.
    gen = _gen(seed=15)
    ids = np.array([[0, 1, 2, 3], [4, 4, 5, 6]])
    args = {"fired": np.zeros((2, 3), dtype=bool), "weights": np.ones((2, 3))}
    args[name] = np.ones(shape, dtype=args[name].dtype)
    with pytest.raises(ValueError, match=name):
        gen.sequence_log_prob(gen.embed_locations(), ids, **args)


def _tape_nodes(root):
    """Distinct tensors reachable from ``root`` through ``_parents``."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_teacher_forced_tapes_do_not_grow_with_the_length():
    # One GRU op per unroll and one head pass over the stacked states: the
    # same tape at 4 slots as at 24.
    gen, disc = _gen(seed=16), _disc(seed=16)
    rng = np.random.default_rng(16)
    nodes = {}
    for length in (4, 24):
        ids = rng.integers(0, 8, size=(6, length))
        table = gen.embed_locations()
        nll, bce = gen.sequence_nll(table, ids)
        log_prob = gen.sequence_log_prob(table, ids, rng.random((6, length - 1)) < 0.5,
                                         np.ones((6, length - 1)))
        nodes[length] = (_tape_nodes(nn.add(nll, bce)), _tape_nodes(log_prob),
                         _tape_nodes(d_loss(disc, ids, ids[::-1])))
    assert nodes[4] == nodes[24]


# ---------------------------------------------------------------------------
# adversarial loop


def _tiny_datasets(seed=12):
    planted = synth.synth_generate(synth.SynthConfig(
        n_locations=8, users=6, days=4, stay_prob=0.6, seed=seed))
    from mobsim.records import split
    return split(planted, seed=seed)


def _spy_discriminators(monkeypatch):
    """The list that collects every discriminator ``adversarial_train``
    builds; it returns none."""
    built = []

    class Spy(Discriminator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(training, "Discriminator", Spy)
    return built


def test_adversarial_zero_epochs_returns_current_params(monkeypatch):
    train, valid, _ = _tiny_datasets()
    gen = _gen(seed=13)
    start = gen.params.copy()
    config = TrainConfig(epochs=0, d_pretrain_epochs=2, seed=0)
    built = _spy_discriminators(monkeypatch)
    log = adversarial_train(gen, train, valid, config)
    assert [line.split()[:2] for line in log] == [["phase=pretrain_d", "epoch=1"],
                                                  ["phase=pretrain_d", "epoch=2"]]
    for name, tensor in gen.params.items():
        assert np.array_equal(start[name].values, tensor.values)
    # One discriminator, sized by the generator it judges.
    [disc] = built
    assert (disc.n_locations, disc.embed_dim, disc.hidden_dim) == (8, 4, 4)


def test_adversarial_epoch_runs_and_logs(monkeypatch):
    train, valid, _ = _tiny_datasets()
    gen = _gen(seed=14)
    config = TrainConfig(epochs=2, d_pretrain_epochs=1, batch_size=8, rollouts=2,
                         eval_count=4, steps_per_epoch=2, lr=0.005, seed=3)
    built = _spy_discriminators(monkeypatch)
    log = adversarial_train(gen, train, valid, config)
    assert len(log) == 3
    assert log[0].startswith("phase=pretrain_d epoch=1 ")
    for line in log[1:]:
        assert "jsd_mean=" in line and "reward=" in line and "best=" in line
    assert "best=1" in log[1]                     # first epoch always improves on inf
    assert gen.params.first_nonfinite() is None
    [disc] = built
    assert disc.params.first_nonfinite() is None


def test_adversarial_is_deterministic():
    results = []
    for _ in range(2):
        train, valid, _ = _tiny_datasets(seed=20)
        gen = _gen(seed=21)
        config = TrainConfig(epochs=1, d_pretrain_epochs=1, batch_size=8, rollouts=2,
                             eval_count=4, steps_per_epoch=2, lr=0.005, seed=4)
        log = adversarial_train(gen, train, valid, config)
        results.append((log, {name: t.values.copy() for name, t in gen.params.items()}))
    # The pretrain_d line and the one epoch's line.
    assert [len(log) for log, _ in results] == [2, 2]
    assert results[0][0] == results[1][0]
    for name in results[0][1]:
        assert np.array_equal(results[0][1][name], results[1][1][name])

"""MLE pretraining and adversarial policy-gradient training.

The generator is pretrained by teacher forcing (sequence NLL plus the dwell
head's binary cross-entropy against the stay indicator) and then refined
with REINFORCE: per-step rewards are the discriminator's scores of Monte
Carlo completions of each prefix, an exponential moving average serves as
the baseline, and each step's realized branch (dwell Bernoulli when it
fired, exploration softmax entry otherwise) receives the credit through
``Generator.sequence_log_prob``.  The completions of several prefix lengths
are sampled and scored in one pass, each length's rows joining at its own
position, so a reward table takes a few large passes instead of one small
pass per prefix length.  The discriminator lives only in ``adversarial_train``,
which sizes it by the generator, fits it and drops it; it ascends
mean log D(real) + mean log(1 - D(fake)).  Every phase steps with Adam.

Each teacher-forced pass (the pretraining losses, the policy-gradient
log-probability and the discriminator's scores) runs its GRU over the whole
batch as one tape op and scores the stacked states of every step at once, so
a step's tape has the same few nodes for any trajectory length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .discriminator import Discriminator, d_loss
from .generator import Generator, block_rows, complete_batch, generate_batch, seed_distribution
from .metrics import evaluate
from .records import Dataset, check_ids
from .rng import stream


class TrainingDiverged(RuntimeError):
    """A parameter went non-finite; the message names the offending step."""


@dataclass
class TrainConfig:
    epochs: int = 50               # adversarial epochs
    pretrain_epochs: int = 10
    d_pretrain_epochs: int = 3
    batch_size: int = 32
    lr: float = 0.01
    rollouts: int = 16
    seed: int = 0
    baseline_decay: float = 0.9
    eval_count: int = 0            # trajectories generated per validation pass; 0 = |valid|
    steps_per_epoch: int = 0       # adversarial iterations per epoch; 0 = ceil(|train| / batch)

    def __post_init__(self):
        if self.epochs < 0 or self.pretrain_epochs < 0 or self.d_pretrain_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        if self.rollouts < 1:
            raise ValueError("rollouts must be positive")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must lie in [0, 1)")
        if self.eval_count < 0:
            raise ValueError("eval_count must be non-negative (0 means |valid|)")
        if self.steps_per_epoch < 0:
            raise ValueError("steps_per_epoch must be non-negative (0 means |train| / batch)")


def _check_finite(params: nn.ParamSet, where: str):
    name = params.first_nonfinite()
    if name is not None:
        raise TrainingDiverged(f"parameter {name!r} went non-finite during {where}")


def _minibatches(n: int, batch_size: int, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def mean_nll(gen: Generator, ids: np.ndarray, batch_size: int) -> float:
    """Teacher-forced mean NLL per trajectory, evaluation mode: the
    locations are embedded once and scored ``batch_size`` rows at a time."""
    total = 0.0
    with nn.no_grad():
        table = gen.embed_locations()
        for start in range(0, len(ids), batch_size):
            chunk = ids[start:start + batch_size]
            nll, _ = gen.sequence_nll(table, chunk)
            total += nll.item() * len(chunk)
    return total / len(ids)


def _discriminator_step(disc: Discriminator, optimizer, real_ids: np.ndarray,
                        fake_ids: np.ndarray) -> float:
    """One ascent step on the discriminator objective; its tape dies on return."""
    optimizer.zero_grad()
    objective = d_loss(disc, real_ids, fake_ids)
    nn.neg(objective).backward()
    optimizer.step()
    return objective.item()


def pretrain_generator(gen: Generator, train_ids: np.ndarray, config: TrainConfig):
    """Teacher-forced pretraining; returns per-epoch log lines.

    Epoch 0 logs the starting NLL before any update.  The dwell BCE term is
    dropped when the generator's dwell branch is disabled.
    """
    optimizer = nn.Adam(gen.params, config.lr)
    shuffle_rng = stream(config.seed, "pretrain_g/shuffle")
    dropout_rng = stream(config.seed, "pretrain_g/dropout")
    log = [f"phase=pretrain_g epoch=0 nll={mean_nll(gen, train_ids, config.batch_size)!r}"]
    for epoch in range(1, config.pretrain_epochs + 1):
        nll_sum = bce_sum = 0.0
        batches = 0
        for batch_index in _minibatches(len(train_ids), config.batch_size, shuffle_rng):
            optimizer.zero_grad()
            nll, bce = gen.sequence_nll(gen.embed_locations(dropout_rng), train_ids[batch_index])
            loss = nn.add(nll, bce) if gen.config.dwell else nll
            loss.backward()
            optimizer.step()
            _check_finite(gen.params, f"generator pretraining epoch {epoch}")
            nll_sum += nll.item()
            bce_sum += bce.item()
            del nll, bce, loss      # free this step's tape before the next forward pass
            batches += 1
        log.append(f"phase=pretrain_g epoch={epoch} nll={nll_sum / batches!r} "
                   f"dwell_bce={bce_sum / batches!r}")
    return log


def pretrain_discriminator(disc: Discriminator, gen: Generator, train_ids: np.ndarray,
                           config: TrainConfig):
    """Fit the discriminator on real batches against freshly sampled fakes."""
    optimizer = nn.Adam(disc.params, config.lr)
    shuffle_rng = stream(config.seed, "pretrain_d/shuffle")
    seed_dist = seed_distribution(train_ids, gen.config.n_locations)
    length = train_ids.shape[1]
    log = []
    for epoch in range(1, config.d_pretrain_epochs + 1):
        loss_sum = 0.0
        batches = 0
        for batch_index in _minibatches(len(train_ids), config.batch_size, shuffle_rng):
            fake = generate_batch(gen, len(batch_index), length, seed_dist, config.seed,
                                  f"pretrain_d/e{epoch}/b{batches}")
            loss_sum += _discriminator_step(disc, optimizer, train_ids[batch_index], fake)
            _check_finite(disc.params, f"discriminator pretraining epoch {epoch}")
            batches += 1
        log.append(f"phase=pretrain_d epoch={epoch} d_loss={loss_sum / batches!r}")
    return log


def compute_rewards(gen: Generator, disc: Discriminator, batch_ids: np.ndarray,
                    n_rollouts: int, master_seed: int, tag: str) -> np.ndarray:
    """Monte Carlo reward table for a generated batch.

    Column l-1 holds the reward of the length-l prefix: the mean
    discriminator score of ``n_rollouts`` completions for l < L, and the
    score of the full sequence for l = L.  Each prefix length uses its own
    derived random stream.  The generator and the discriminator run over the
    batch once; the completions of a prefix start from its cached states.
    The completions of several prefix lengths share one sampling pass, one
    block of rows per length joining at its own position, with as many
    blocks per pass as fit in ``block_rows(N)`` rows; the discriminator steps
    over the same joined rows.

    Column 0 is read only through the mean reward that ``adversarial_train``
    folds into its baseline: ``policy_gradient_step`` credits columns 1 to
    L-1.  Yet its rollouts, of the length-1 prefix, are the longest block:
    L-1 of the L(L-1)/2 positions each rollout row samples (23 of 276 at
    L=24).
    """
    batch_ids = check_ids(batch_ids, gen.config.n_locations)
    b, length = batch_ids.shape
    rows = b * n_rollouts
    per_pass = max(1, block_rows(gen.config.n_locations) // rows)
    rewards = np.empty((b, length))

    def tiled(state):
        return np.repeat(state, n_rollouts, axis=0)

    with nn.no_grad():
        table = gen.embed_locations()
        # Rollouts of the length-l prefix start from the generator state after
        # l - 1 columns, l < L, so the last two columns are never fed.
        gen_states = [gen.zero_hidden(b)]
        if length > 2:
            gen_states.extend(gen.unroll(table, batch_ids[:, :-2]).values)
        # Entry l - 1 is the discriminator state after l columns.
        disc_states = disc.unroll(batch_ids).values
        for first in range(1, length, per_pass):
            lengths = range(first, min(first + per_pass, length))
            prefix = np.tile(np.repeat(batch_ids[:, :lengths[-1]], n_rollouts, axis=0),
                             (len(lengths), 1))
            completed = complete_batch(
                gen, table, prefix, length, master_seed, [f"{tag}/l{l}" for l in lengths],
                hidden=np.concatenate([tiled(gen_states[l - 1]) for l in lengths]),
                starts=np.repeat(lengths, rows))
            # The block of length l joins the discriminator after l columns.
            state = np.zeros((0, disc_states.shape[2]))
            for pos in range(first, length):
                if pos in lengths:
                    state = np.concatenate([state, tiled(disc_states[pos - 1])])
                state = disc.step(completed[:len(state), pos], state)
            scores = disc.score(state).values.reshape(len(lengths), b, n_rollouts)
            rewards[:, first - 1:lengths[-1]] = scores.mean(axis=2).T
        rewards[:, length - 1] = disc.score(disc_states[-1]).values
    return rewards


def policy_gradient_step(gen: Generator, optimizer, batch_ids: np.ndarray,
                         fired: np.ndarray, rewards: np.ndarray, baseline: float,
                         rng) -> float:
    """One REINFORCE ascent step, with the generator's dropout drawn from
    the stream ``rng``.

    The step that produced position l+1 is credited with the reward of the
    prefix that includes its outcome (column l of the reward table), minus
    the baseline, so column 0 credits no step; it enters only the mean
    reward behind ``baseline``.  Returns the mean weighted log-probability
    objective.
    """
    weights = rewards[:, 1:] - baseline
    objective = gen.sequence_log_prob(gen.embed_locations(rng), batch_ids, fired, weights)
    optimizer.zero_grad()
    nn.neg(objective).backward()
    optimizer.step()
    return objective.item()


def adversarial_train(gen: Generator, train: Dataset, valid: Dataset, config: TrainConfig):
    """Fit a discriminator sized by ``gen``, then alternate one policy-gradient
    step and one discriminator step per iteration.  ``gen`` ends with the
    parameters of the epoch of best validation mean JSD (unchanged after
    zero epochs); the discriminator is dropped.  Returns the log lines."""
    disc = Discriminator(gen.config.n_locations, gen.config.embed_dim, gen.config.hidden_dim,
                         seed=config.seed)
    train_ids = train.trajectories.ids
    log = pretrain_discriminator(disc, gen, train_ids, config)
    length = train_ids.shape[1]
    seed_dist = seed_distribution(train_ids, gen.config.n_locations)
    eval_count = config.eval_count or len(valid)
    per_epoch = config.steps_per_epoch or math.ceil(len(train_ids) / config.batch_size)
    g_opt = nn.Adam(gen.params, config.lr)
    d_opt = nn.Adam(disc.params, config.lr)
    shuffle_rng = stream(config.seed, "adv/shuffle")
    dropout_rng = stream(config.seed, "adv/dropout")

    best_gen = gen.params.copy()
    best_score = math.inf
    baseline = None                 # the EMA of the mean reward, from the first batch on

    real_pool = iter(())
    for epoch in range(1, config.epochs + 1):
        g_objective = d_objective = 0.0
        reward_mean = 0.0
        for step in range(per_epoch):
            # Each iteration takes one generator step (stream segment g0) and
            # one discriminator step (d0).
            tag = f"adv/e{epoch}/s{step}"
            batch, fired = generate_batch(gen, config.batch_size, length, seed_dist,
                                          config.seed, f"{tag}/g0/sample", record=True)
            rewards = compute_rewards(gen, disc, batch, config.rollouts,
                                      config.seed, f"{tag}/g0/reward")
            mean_r = float(rewards.mean())
            baseline = (mean_r if baseline is None
                        else config.baseline_decay * baseline
                        + (1.0 - config.baseline_decay) * mean_r)
            g_objective += policy_gradient_step(gen, g_opt, batch, fired, rewards,
                                                baseline, rng=dropout_rng)
            _check_finite(gen.params, f"policy gradient epoch {epoch} step {step}")
            reward_mean += float(rewards[:, -1].mean())

            fake = generate_batch(gen, config.batch_size, length, seed_dist, config.seed,
                                  f"{tag}/d0/sample")
            try:
                real = next(real_pool)
            except StopIteration:
                real_pool = _minibatches(len(train_ids), config.batch_size, shuffle_rng)
                real = next(real_pool)
            d_objective += _discriminator_step(disc, d_opt, train_ids[real], fake)
            _check_finite(disc.params, f"discriminator epoch {epoch} step {step}")

        generated = generate_batch(gen, eval_count, length, seed_dist, config.seed,
                                   f"adv/eval/e{epoch}")
        report = evaluate(valid, generated)
        score = report.mean_jsd
        marker = 0
        if score < best_score:
            best_score = score
            best_gen = gen.params.copy()
            marker = 1
        per_metric = " ".join(f"jsd_{k}={v!r}" for k, v in report.scores.items())
        log.append(
            f"phase=adv epoch={epoch} g_objective={g_objective / per_epoch!r} "
            f"d_loss={d_objective / per_epoch!r} "
            f"reward={reward_mean / per_epoch!r} "
            f"baseline={baseline!r} jsd_mean={score!r} {per_metric} best={marker}"
        )
    gen.params.load_values(best_gen)
    return log

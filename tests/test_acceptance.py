"""Release acceptance gate.

Nine checks, one test per criterion, each printing a single PASS/FAIL line
with its runtime (visible under ``pytest -rA`` or ``-s``).  Stated runtime
budgets are part of the criterion and are asserted.  Training-based checks
run at desk scale on a planted synthetic dataset; they verify directions
and oracle agreement, not absolute benchmark scores.
"""

import contextlib
import dataclasses
import math
import os
import time

import numpy as np
import pytest

from mobsim import nn
from mobsim.cli import main
from mobsim.discriminator import Discriminator, d_loss
from mobsim.generator import Generator, GeneratorConfig, generate_batch, seed_distribution
from mobsim.graphs import (LocationGraph, binarize, build_sdg, build_stg,
                           build_ttg, visit_profile_matrix)
from mobsim.metrics import evaluate, jsd
from mobsim.records import split, write_locations, write_observed, write_trajectories
from mobsim.synth import SynthConfig, make_kernel, synth_generate
from mobsim.training import TrainConfig, adversarial_train, mean_nll, pretrain_generator
from oracles import exp, leakyrelu, log, relu, softmax, tanh

from gradcheck import grad_check
from oracles import (MarkovBaseline, jsd_naive, transport_cost_greedy, transport_cost_linprog,
                     wasserstein_1d)


@contextlib.contextmanager
def criterion(number, name, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}/9 {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    on_time = budget_s is None or elapsed < budget_s
    print(f"ACCEPTANCE {number}/9 {name}: {'PASS' if on_time else 'FAIL'} ({elapsed:.1f}s)")
    assert on_time, f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _tensor(rng, shape, scale=1.0):
    return nn.Tensor(scale * rng.standard_normal(shape), requires_grad=True)


def _random_graph(rng, n, k, channel="sdg"):
    src, dst, weight = [], [], []
    for i in range(n):
        others = np.array([j for j in range(n) if j != i])
        for j in rng.choice(others, size=k, replace=False):
            src.append(i)
            dst.append(int(j))
            weight.append(float(rng.uniform(0.2, 2.0)))
    return LocationGraph(channel, "weighted", n, np.array(src), np.array(dst),
                         np.array(weight), k=k)


def _check_op(build, instances=100, tol=1e-6, step=1e-5):
    """Worst grad_check error of ``build(rng, i) -> (op, inputs)`` instances."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for i in range(instances):
        op, inputs = build(rng, i)
        worst = max(worst, grad_check(op, inputs, step=step, projection_seed=i))
    assert worst < tol, f"max relative error {worst:.3e} >= {tol}"
    return worst


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient-correctness", budget_s=120):
        _check_op(lambda rng, i: (nn.linear,
                                  [_tensor(rng, (2, 3)), _tensor(rng, (3, 4)),
                                   _tensor(rng, (4,))]),
                  tol=1e-8)

        def away_from_kink(rng):
            x = rng.standard_normal((3, 4))
            return nn.Tensor(x + np.where(x >= 0, 0.05, -0.05), requires_grad=True)

        for op in (tanh, nn.sigmoid, exp, softmax):
            _check_op(lambda rng, i, op=op: (op, [_tensor(rng, (3, 4))]))
        _check_op(lambda rng, i: (relu, [away_from_kink(rng)]))
        _check_op(lambda rng, i: (lambda a: leakyrelu(a, 0.2), [away_from_kink(rng)]))
        _check_op(lambda rng, i: (log,
                                  [nn.Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)]))

        def gru_instance(rng, i):
            ps = nn.ParamSet()
            gru = nn.init_gru(ps, "gru", 3, 4, rng)
            x, z = _tensor(rng, (3, 2, 3)), _tensor(rng, (2, 4))
            return (lambda *_: nn.gru_unroll(x, z, gru),
                    [x, z] + [ps[name] for name in ps.names()])

        _check_op(gru_instance)

        def attention_instance(rng, i):
            ps = nn.ParamSet()
            heads = nn.init_heads(ps, "attn", 2, 4, 2, rng)
            edges = nn.graph_edges(_random_graph(rng, n=5, k=2))
            h = _tensor(rng, (5, 4), scale=0.5)
            return (lambda *_: nn.graph_attention(h, edges, heads),
                    [h] + [ps[name] for name in ps.names()])

        _check_op(attention_instance)

        def nll_instance(rng, i):
            graphs = {"sdg": _random_graph(rng, n=6, k=2)}
            cfg = GeneratorConfig(n_locations=6, embed_dim=4, hidden_dim=3,
                                  channels=("sdg",), dropout=0.0, beta=0.7)
            gen = Generator(cfg, graphs, seed=i)
            ids = rng.integers(0, 6, size=(2, 4))
            ids[0, 2] = ids[0, 1]        # at least one dwell event
            return (lambda *_: nn.add(*gen.sequence_nll(gen.embed_locations(), ids)),
                    [gen.params[name] for name in gen.params.names()])

        _check_op(nll_instance)

        def dwell_instance(rng, i):
            h, w, b = _tensor(rng, (1, 3), 0.5), _tensor(rng, (3, 1), 0.5), _tensor(rng, (1,), 0.5)
            decay = math.exp(-rng.uniform(0.1, 1.0) * rng.integers(1, 5))
            target = np.array([[float(rng.integers(0, 2))]])
            return (lambda *_: nn.binary_cross_entropy(
                        nn.mul(nn.sigmoid(nn.linear(h, w, b)), nn.constant(decay)), target),
                    [h, w, b])

        _check_op(dwell_instance)

        def d_loss_instance(rng, i):
            disc = Discriminator(6, embed_dim=3, hidden_dim=3, seed=i)
            real = rng.integers(0, 6, size=(2, 4))
            fake = rng.integers(0, 6, size=(2, 4))
            return (lambda *_: d_loss(disc, real, fake),
                    [disc.params[name] for name in disc.params.names()])

        _check_op(d_loss_instance)


# ---------------------------------------------------------------------------
# 2. Wasserstein closed form vs transport oracle


def _random_masses(rng, size):
    m = rng.random(size)
    m[rng.random(size) < 0.3] = 0.0
    if m.sum() == 0.0:
        m[int(rng.integers(size))] = 1.0
    return m / m.sum()


def test_criterion_2_wasserstein_oracle():
    with criterion(2, "wasserstein-oracle", budget_s=60):
        rng = np.random.default_rng(7)
        worst = 0.0
        pairs = []
        for _ in range(1000):
            t = int(rng.integers(2, 9))
            a, b = _random_masses(rng, t), _random_masses(rng, t)
            pairs.append((a, b))
            positions = (np.arange(t) + 0.5) / t
            worst = max(worst, abs(wasserstein_1d(a, b) - transport_cost_greedy(a, b, positions)))
        assert worst < 1e-9, f"greedy transport disagrees by {worst:.3e}"

        worst_lp = max(
            abs(wasserstein_1d(a, b)
                - transport_cost_linprog(a, b, (np.arange(len(a)) + 0.5) / len(a)))
            for a, b in pairs[:100])
        assert worst_lp < 1e-9, f"LP transport disagrees by {worst_lp:.3e}"

        for _ in range(1000):
            t = int(rng.integers(2, 9))
            a, b, c = (_random_masses(rng, t) for _ in range(3))
            assert abs(wasserstein_1d(a, b) - wasserstein_1d(b, a)) < 1e-12
            assert wasserstein_1d(a, c) <= wasserstein_1d(a, b) + wasserstein_1d(b, c) + 1e-12

        # The program scores the STG from CDFs of its own: every edge weight
        # is 1 - W1 of its two profiles.
        profiles = np.stack([_random_masses(rng, 24) for _ in range(30)])
        stg = build_stg(profiles, k=29)
        positions = (np.arange(24) + 0.5) / 24
        worst_stg = max(abs(1.0 - w - transport_cost_greedy(profiles[s], profiles[d], positions))
                        for s, d, w in zip(stg.src, stg.dst, stg.weight))
        assert worst_stg < 1e-9, f"STG weights disagree with 1 - W1 by {worst_stg:.3e}"


# ---------------------------------------------------------------------------
# 3. Jensen-Shannon divergence suite


def test_criterion_3_jsd_suite():
    with criterion(3, "jsd-suite"):
        rng = np.random.default_rng(3)
        bound = math.log(2.0)
        for _ in range(1000):
            size = int(rng.integers(2, 51))
            p = _random_masses(rng, size)
            q = _random_masses(rng, size)
            forward, backward = jsd(p, q), jsd(q, p)
            assert abs(forward - backward) < 1e-12
            assert jsd(p, p) <= 1e-15
            assert forward <= bound + 1e-12
            assert abs(forward - jsd_naive(p, q)) < 1e-12
        hand = jsd(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(hand - 0.215762) < 1e-6


# ---------------------------------------------------------------------------
# 4. graph invariants at N = 200


def test_criterion_4_graph_invariants():
    with criterion(4, "graph-invariants"):
        dataset = synth_generate(SynthConfig(n_locations=200, users=30, days=8,
                                             stay_prob=0.3, kernel="random", seed=77))
        trajectories = dataset.trajectories
        k = 10

        sdg = build_sdg(dataset.locations, k=k)
        stg = build_stg(visit_profile_matrix(trajectories, 200), k=k)
        for graph in (sdg, stg):
            assert np.all(np.bincount(graph.src, minlength=200) == min(k, 199))
        assert stg.weight.min() >= 0.0 and stg.weight.max() <= 1.0

        ttg = build_ttg(trajectories.ids, 200)
        recount = {}
        for traj in trajectories.ids:
            for a, b in zip(traj[:-1], traj[1:]):
                if a != b:
                    recount[(int(a), int(b))] = recount.get((int(a), int(b)), 0) + 1
        stored = {(int(s), int(d)): w for s, d, w in zip(ttg.src, ttg.dst, ttg.weight)}
        assert stored == recount

        for graph in (sdg, ttg, stg):
            once = binarize(graph)
            twice = binarize(once)
            assert once.mode == "vanilla"
            assert np.array_equal(once.src, graph.src)
            assert np.array_equal(once.dst, graph.dst)
            assert np.all(once.weight == 1.0)
            assert np.array_equal(twice.src, once.src)
            assert np.array_equal(twice.dst, once.dst)
            assert np.array_equal(twice.weight, once.weight)


# ---------------------------------------------------------------------------
# 5. Markov baseline recovers a known kernel


def test_criterion_5_markov_oracle():
    with criterion(5, "markov-oracle"):
        n = 10
        config = SynthConfig(n_locations=n, users=120, days=40, stay_prob=0.5,
                             kernel="uniform_offdiag", seed=909)
        ids = synth_generate(config).trajectories.ids
        counts = np.zeros((n, n))
        np.add.at(counts, (ids[:, :-1].ravel(), ids[:, 1:].ravel()), 1.0)
        assert counts.sum(axis=1).min() >= 1e4, "not enough transitions per source"

        # The config fixes the planted kernel; this kind draws nothing from a stream.
        kernel = make_kernel(config.kernel, n, None)
        effective = config.stay_prob * np.eye(n) + (1 - config.stay_prob) * kernel
        baseline = MarkovBaseline(ids, n)
        error = np.abs(baseline.transitions - effective).max()
        assert error < 0.02, f"max transition error {error:.4f}"


# ---------------------------------------------------------------------------
# planted dataset shared by the training-based criteria


@pytest.fixture(scope="module")
def planted():
    dataset = synth_generate(SynthConfig(n_locations=100, users=25, days=20,
                                         stay_prob=0.7, kernel="random", seed=424))
    train, valid, test = split(dataset, seed=424)
    graphs = {
        "sdg": build_sdg(dataset.locations, k=10),
        "ttg": build_ttg(train.trajectories.ids, 100),
        "stg": build_stg(visit_profile_matrix(train.trajectories, 100), k=10),
    }
    train_ids = train.trajectories.ids
    return {
        "dataset": dataset, "train": train, "valid": valid, "test": test,
        "graphs": graphs, "train_ids": train_ids,
        "seed_dist": seed_distribution(train_ids, 100),
    }


def _planted_generator(planted_data, seed, dwell=True):
    cfg = GeneratorConfig(n_locations=100, embed_dim=16, hidden_dim=16, heads=2,
                          dropout=0.0, beta=0.1, dwell=dwell)
    return Generator(cfg, planted_data["graphs"], seed=seed)


def _planted_report(planted_data, gen, seed, tag, count=400):
    ids = generate_batch(gen, count, 24, planted_data["seed_dist"], seed, tag)
    return evaluate(planted_data["test"], ids)


# ---------------------------------------------------------------------------
# 6. the dwell branch improves the duration statistic


def test_criterion_6_dwell_effect(planted):
    with criterion(6, "dwell-effect", budget_s=600):
        wins = 0
        for seed in range(5):
            scores = {}
            for dwell in (True, False):
                gen = _planted_generator(planted, seed, dwell=dwell)
                config = TrainConfig(pretrain_epochs=6, batch_size=32, lr=0.01, seed=seed)
                pretrain_generator(gen, planted["train_ids"], config)
                report = _planted_report(planted, gen, seed, "accept/dwell-effect")
                scores[dwell] = report.scores["duration"]
            wins += scores[True] < scores[False]
        assert wins >= 4, f"dwell branch won only {wins}/5 seeds"


# ---------------------------------------------------------------------------
# 7. adversarial training beats random initialization


def test_criterion_7_learning_signal(planted):
    with criterion(7, "learning-signal", budget_s=1200):
        wins = 0
        for seed in range(5):
            gen = _planted_generator(planted, seed)
            jsd_init = _planted_report(planted, gen, seed, "accept/init", count=300).mean_jsd

            config = TrainConfig(epochs=3, pretrain_epochs=6, d_pretrain_epochs=1,
                                 batch_size=32, lr=0.01, rollouts=4, seed=seed,
                                 eval_count=100, steps_per_epoch=4)
            nll_start = mean_nll(gen, planted["train_ids"], config.batch_size)
            pretrain_generator(gen, planted["train_ids"], config)
            nll_end = mean_nll(gen, planted["train_ids"], config.batch_size)
            assert nll_end <= 0.8 * nll_start, (
                f"seed {seed}: pretraining cut NLL only "
                f"{(nll_start - nll_end) / nll_start:.1%}")

            adversarial_train(gen, planted["train"], planted["valid"], config)
            jsd_best = _planted_report(planted, gen, seed, "accept/adv", count=300).mean_jsd
            wins += jsd_best < jsd_init
        assert wins >= 4, f"adversarial checkpoint won only {wins}/5 seeds"


# ---------------------------------------------------------------------------
# 8. byte-identical reruns of the pipeline commands


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "determinism"):
        checkins = tmp_path / "checkins.csv"
        checkins.write_text("\n".join(
            f"user{u},venue{(u * 7 + h * 3) % 5},40.{u},-74.0,2012-04-0{d}T{h:02d}:10:00Z"
            for u in range(4) for d in (3, 4) for h in range(0, 24, 2)) + "\n")
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"prep_{tag}"
            assert main(["preprocess", "--input", str(checkins),
                         "--out-dir", str(out), "--seed", "9"]) == 0
            runs.append(_tree_bytes(out))
        assert runs[0] == runs[1]

        data, gdir, model = (tmp_path / name for name in ("data", "graphs", "model"))
        assert main(["synth", "--out-dir", str(data), "--n-locations", "12",
                     "--users", "6", "--days", "5", "--stay-prob", "0.5",
                     "--seed", "2"]) == 0
        assert main(["build-graphs", "--train", str(data / "train.txt"),
                     "--locations", str(data / "locations.csv"),
                     "--observed", str(data / "observed_train.txt"),
                     "--out-dir", str(gdir), "--k", "4"]) == 0
        assert main(["pretrain", "--train", str(data / "train.txt"),
                     "--locations", str(data / "locations.csv"),
                     "--graphs-dir", str(gdir), "--out-dir", str(model),
                     "--embed-dim", "6", "--hidden-dim", "6", "--dropout", "0.0",
                     "--pretrain-epochs", "1", "--d-pretrain-epochs", "0",
                     "--seed", "2"]) == 0

        gen_runs, eval_runs = [], []
        for tag in ("a", "b"):
            gen_out = tmp_path / f"gen_{tag}"
            assert main(["generate", "--model", str(model / "gen"),
                         "--graphs-dir", str(gdir),
                         "--locations", str(data / "locations.csv"),
                         "--count", "20", "--seed", "6",
                         "--out-dir", str(gen_out)]) == 0
            gen_runs.append(_tree_bytes(gen_out))
            eval_out = tmp_path / f"eval_{tag}"
            assert main(["evaluate", "--real", str(data / "test.txt"),
                         "--generated", str(tmp_path / "gen_a" / "generated.txt"),
                         "--locations", str(data / "locations.csv"),
                         "--out-dir", str(eval_out)]) == 0
            eval_runs.append(_tree_bytes(eval_out))
        assert gen_runs[0] == gen_runs[1]
        assert eval_runs[0] == eval_runs[1]


# ---------------------------------------------------------------------------
# 9. ablation harness runs all variants; vanilla == weighted on unit weights


def test_criterion_9_ablation_parity(planted, tmp_path):
    with criterion(9, "ablation-parity"):
        data = tmp_path / "planted"
        data.mkdir()
        for name, part in (("train", "train"), ("valid", "valid"), ("test", "test")):
            write_trajectories(data / f"{name}.txt", planted[part].trajectories)
        write_locations(data / "locations.csv", planted["dataset"].locations)
        write_observed(data / "observed_train.txt", planted["train"].trajectories)

        out = tmp_path / "ablation"
        assert main(["ablation", "--train", str(data / "train.txt"),
                     "--valid", str(data / "valid.txt"),
                     "--test", str(data / "test.txt"),
                     "--locations", str(data / "locations.csv"),
                     "--observed", str(data / "observed_train.txt"),
                     "--out-dir", str(out), "--k", "8",
                     "--embed-dim", "8", "--hidden-dim", "8", "--dropout", "0.0",
                     "--pretrain-epochs", "1", "--d-pretrain-epochs", "1",
                     "--epochs", "1", "--steps-per-epoch", "2", "--rollouts", "2",
                     "--eval-count", "50", "--seed", "5"]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        names = [row.split(",")[0] for row in rows[1:]]
        assert names == ["base", "no_sdg", "no_ttg", "no_stg",
                         "vanilla_edges", "no_dwell"]
        table = (out / "ablation.txt").read_text()
        assert all(name in table for name in names)
        for name in names:
            scores = dict(
                line.split("=") for line in
                (out / f"report_{name}.txt").read_text().splitlines() if "=" in line)
            assert 0.0 <= float(scores["jsd.mean"]) <= math.log(2.0)

        # unit-weight graphs: weighted and vanilla modes must coincide exactly
        ones = {name: LocationGraph(g.channel, "weighted", g.n_locations, g.src,
                                    g.dst, np.ones(len(g.src)), k=g.k)
                for name, g in planted["graphs"].items()}
        plain = {name: binarize(g) for name, g in planted["graphs"].items()}
        cfg = GeneratorConfig(n_locations=100, embed_dim=8, hidden_dim=8, dropout=0.0)
        gen_w, gen_v = Generator(cfg, ones, seed=3), Generator(cfg, plain, seed=3)
        for name in cfg.channels:
            for field in dataclasses.fields(nn.GraphEdges):
                assert np.array_equal(getattr(gen_w.edges[name], field.name),
                                      getattr(gen_v.edges[name], field.name))
        config = TrainConfig(pretrain_epochs=1, batch_size=32, lr=0.01, seed=3)
        for gen in (gen_w, gen_v):
            pretrain_generator(gen, planted["train_ids"], config)
        for name in gen_w.params.names():
            assert gen_w.params[name].values.tobytes() == gen_v.params[name].values.tobytes()
        ids_w, ids_v = (generate_batch(gen, 50, 24, planted["seed_dist"], 11, "accept/parity")
                        for gen in (gen_w, gen_v))
        assert np.array_equal(ids_w, ids_v)

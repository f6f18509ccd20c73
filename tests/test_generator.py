import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mobsim import blas, generator, graphs, nn
from mobsim.generator import (
    Generator,
    GeneratorConfig,
    complete_batch,
    generate_batch,
    seed_distribution,
)
from mobsim.rng import stream
from gradcheck import grad_check
import oracles
from oracles import complete_batch_full_explore, teacher_forced_start, tsum


def _cycle_graph(n):
    src = np.arange(n)
    return graphs.LocationGraph("sdg", "weighted", n, src, (src + 1) % n,
                                np.full(n, 0.5))


def _gen(n=8, seed=0, **overrides):
    defaults = dict(n_locations=n, embed_dim=4, hidden_dim=4, channels=("sdg",),
                    dropout=0.0)
    defaults.update(overrides)
    config = GeneratorConfig(**defaults)
    gs = {name: _cycle_graph(n) for name in config.channels}
    return Generator(config, gs, seed=seed)


def _zeroed(gen):
    for _, tensor in gen.params.items():
        tensor.values[:] = 0.0
    return gen


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("kwargs", [
    dict(layers=3),
    dict(heads=3),
    dict(heads=4, embed_dim=6),
    dict(channels=()),
    dict(dropout=1.0),
    dict(beta=-0.5),
    dict(n_locations=1),
    dict(embed_dim=0),
    dict(hidden_dim=0),
    dict(channels=("sdg", "ttg", "sdg")),
])
def test_config_rejects(kwargs):
    base = dict(n_locations=8, embed_dim=4, hidden_dim=4)
    base.update(kwargs)
    with pytest.raises(ValueError):
        GeneratorConfig(**base)


def test_generator_requires_matching_graphs():
    config = GeneratorConfig(n_locations=8, embed_dim=4, channels=("sdg", "ttg"))
    with pytest.raises(ValueError):
        Generator(config, {"sdg": _cycle_graph(8)})
    with pytest.raises(ValueError):
        Generator(config, {"sdg": _cycle_graph(8), "ttg": _cycle_graph(9)})


def test_same_seed_same_params():
    a, b = _gen(seed=4), _gen(seed=4)
    for name, tensor in a.params.items():
        assert np.array_equal(tensor.values, b.params[name].values)
    c = _gen(seed=5)
    assert not np.array_equal(a.params["embed"].values, c.params["embed"].values)


# ---------------------------------------------------------------------------
# embedding fusion


def test_identical_channels_sum():
    gen = _gen(channels=("sdg", "ttg", "stg"))
    # Make the three channel stacks share weights, so fusion must triple the
    # single-channel output.
    for channel in ("ttg", "stg"):
        for layer, heads in enumerate(gen.attn[channel]):
            for k, head in enumerate(heads):
                head.weight.values[:] = gen.attn["sdg"][layer][k].weight.values
                head.score.values[:] = gen.attn["sdg"][layer][k].score.values
    with nn.no_grad():
        fused = gen.embed_locations().values
        single = nn.graph_attention(gen.params["embed"], gen.edges["sdg"],
                                    gen.attn["sdg"][0]).values
    assert np.allclose(fused, 3.0 * single, atol=1e-12)


def test_two_layer_stack_runs_and_differs():
    one = _gen(layers=1, seed=2)
    two = _gen(layers=2, seed=2)
    with nn.no_grad():
        t1 = one.embed_locations().values
        t2 = two.embed_locations().values
    assert t1.shape == t2.shape == (8, 4)
    assert not np.allclose(t1, t2)


def test_eval_embedding_is_deterministic():
    gen = _gen(dropout=0.6)
    with nn.no_grad():
        a = gen.embed_locations().values
        b = gen.embed_locations().values
    assert np.array_equal(a, b)


def test_embedding_pass_holds_no_location_square():
    # One training-mode forward and backward at N=2000 must peak below the
    # 32 MB of a single (N, N) float64 array.
    n = 2000
    rng = np.random.default_rng(0)
    gs = {name: graphs.build_sdg(rng.random((n, 2)), k=10) for name in ("sdg", "ttg", "stg")}
    gen = Generator(GeneratorConfig(n_locations=n, embed_dim=16, hidden_dim=4, heads=2,
                                    dropout=0.5), gs)
    tracemalloc.start()
    try:
        tsum(gen.embed_locations(np.random.default_rng(1))).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gen.params["embed"].grad.any()
    assert peak < n * n * 8


# ---------------------------------------------------------------------------
# heads


def test_explore_softmax_rows_sum_to_one():
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
        hidden = nn.gru_cell(table.values[[0, 3, 5]], gen.zero_hidden(3), gen.gru)
        probs = oracles.softmax_values(gen.explore_logits(hidden).values)
    assert probs.shape == (3, 8)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs > 0)


def _logit_rows(kind, rows, n, rng):
    if kind == "random":
        return rng.normal(0.0, rng.choice([0.1, 1.0, 5.0, 30.0], (rows, 1)), (rows, n))
    if kind == "tied":
        return rng.integers(-2, 1, (rows, n)) * np.where(rng.random((rows, 1)) < 0.5, 0.0, 1.0)
    if kind == "underflow":           # gaps beyond 745: exp(gap) is 0 in float64
        return rng.normal(0.0, 1.0, (rows, n)) - 800.0 * (rng.random((rows, n)) < 0.6)
    hot = rng.integers(0, n, rows)    # one-hot
    logits = np.full((rows, n), -1e4)
    logits[np.arange(rows), hot] = 0.0
    return logits


@pytest.mark.parametrize("kind", ["random", "tied", "underflow", "one-hot"])
@pytest.mark.parametrize("n", [3, 100, 400, 5000])
def test_explore_draw_matches_the_counted_draw(n, kind):
    # The two-level draw over unnormalised exponentials against the softmax,
    # full cumsum and count it replaced.  An identity hidden state puts each
    # row of logits into the draw exactly; at N=5,000 the last of the
    # 70-column blocks is narrower.
    rng = np.random.default_rng(n)
    rows = 1000 if n <= 400 else 300
    logits = _logit_rows(kind, rows, n, rng)
    gen = type("Explore", (), {"params": {"explore/weight": nn.Tensor(logits),
                                          "explore/bias": nn.Tensor(np.zeros(n))}})
    picked = np.flatnonzero(rng.random(rows) < 0.8)
    u = rng.random(len(picked))
    u[:2] = 0.0, np.nextafter(1.0, 0.0)
    drawn = generator._explore_draw(gen, np.eye(rows), picked, u, np.empty((rows, n)))
    want = oracles.explore_draw_counted(logits[picked], u)
    # Where the counted draw clips to N - 1 and that entry has no mass, the
    # new draw takes the row's last entry of positive mass.
    positive = oracles.softmax_values(logits[picked]) > 0
    clipped = ~positive[np.arange(len(picked)), want]
    want[clipped] = n - 1 - np.argmax(positive[clipped, ::-1], axis=1)
    assert np.array_equal(drawn, want)


def _stay_probs(gen, counts):
    """Stay probabilities from a zero hidden state, one row per damping count."""
    with nn.no_grad():
        return gen.stay_probs(gen.zero_hidden(len(counts)), np.array(counts)).values


def test_dwell_prob_decays_with_visit_count():
    values = _stay_probs(_gen(beta=1.0), [1, 2, 3])
    # sigma(b) * exp(-C): each extra visit divides the stay chance by e.
    assert values[0] == pytest.approx(0.5 * math.exp(-1))
    assert values[1] == pytest.approx(values[0] / math.e)
    assert values[2] == pytest.approx(values[1] / math.e)


def test_beta_zero_removes_damping():
    assert np.allclose(_stay_probs(_gen(beta=0.0), [1, 3, 7]), 0.5)


# ---------------------------------------------------------------------------
# teacher forcing


def test_sequence_nll_uniform_start():
    # All-zero parameters give a uniform softmax and a 0.5 dwell sigmoid, so
    # the per-trajectory losses are exactly (L-1) ln N and (L-1) ln 2.
    gen = _zeroed(_gen(n=8))
    ids = np.array([[0, 1, 2, 3, 4], [3, 3, 3, 3, 3]])
    nll, bce = gen.sequence_nll(gen.embed_locations(), ids)
    assert nll.item() == pytest.approx(4 * math.log(8), abs=1e-12)
    assert bce.item() == pytest.approx(4 * math.log(2), abs=1e-12)


def test_sequence_nll_validates_input():
    gen = _gen()
    table = gen.embed_locations()
    with pytest.raises(ValueError, match=r"got shape \(1, 1\)"):
        gen.sequence_nll(table, np.array([[0]]))
    with pytest.raises(ValueError, match=r"location ids outside \[0, 8\)"):
        gen.sequence_nll(table, np.array([[0, 99]]))


def test_sequence_nll_gradients():
    gen = _gen(n=6)
    ids = np.array([[0, 1, 2, 0], [5, 5, 4, 3]])

    def op(*tensors):
        nll, bce = gen.sequence_nll(gen.embed_locations(), ids)
        return nn.add(nll, bce)

    err = grad_check(op, [t for _, t in gen.params.items()])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# batch completion


def _complete(gen, table, prefix, length, master_seed, tag, record=False):
    """``complete_batch`` of one block, from every column of ``prefix``."""
    return complete_batch(gen, table, prefix, length, master_seed, [tag],
                          *teacher_forced_start(gen, table, prefix), record=record)


def test_complete_batch_preserves_prefix():
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
    prefix = np.array([[1, 2, 3], [4, 5, 6]])
    out = _complete(gen, table, prefix, 10, 0, "t")
    assert out.shape == (2, 10)
    assert np.array_equal(out[:, :3], prefix)
    assert out.min() >= 0 and out.max() < 8


def test_complete_batch_deterministic():
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
    prefix = np.array([[0], [7]])
    a = _complete(gen, table, prefix, 24, 5, "t")
    b = _complete(gen, table, prefix, 24, 5, "t")
    c = _complete(gen, table, prefix, 24, 6, "t")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fired_flags_mark_repeats():
    gen = _gen(seed=3)
    gen.params["dwell/bias"].values[:] = 4.0     # eager dwell head
    with nn.no_grad():
        table = gen.embed_locations()
    prefix = np.zeros((64, 1), dtype=np.int64)
    out, fired = _complete(gen, table, prefix, 24, 9, "t", record=True)
    assert fired.shape == (64, 23)
    assert fired.any()
    stays = out[:, 1:] == out[:, :-1]
    assert np.all(stays[fired])                  # fired implies repeat
    assert not fired[:, 0].any()                 # no dwell from a length-1 prefix


def test_disabling_dwell_keeps_exploration_draws():
    # A dwell head that can never fire must reproduce the no-dwell outputs
    # bit for bit, because the two branches use separate streams.
    active = _gen(seed=11, dwell=True)
    active.params["dwell/bias"].values[:] = -1e9     # sigmoid underflows to 0
    inert = _gen(seed=11, dwell=False)
    inert.params.load_values(active.params)
    with nn.no_grad():
        t_active = active.embed_locations()
        t_inert = inert.embed_locations()
    prefix = np.array([[2], [6], [1]])
    a = _complete(active, t_active, prefix, 24, 1, "x")
    b = _complete(inert, t_inert, prefix, 24, 1, "x")
    assert np.array_equal(a, b)


def test_rollout_returns_prefix_copy_at_full_length():
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
    prefix = np.array([[3, 1, 4]])
    out = _complete(gen, table, prefix, 3, 0, "r")
    assert np.array_equal(out, prefix)
    out[0, 0] = 7
    assert prefix[0, 0] == 3                     # caller's array untouched


def test_rollout_extends():
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
    out = _complete(gen, table, [[3, 1]], 8, 0, "r")
    assert out.shape == (1, 8)
    assert out[0, 0] == 3 and out[0, 1] == 1


def test_complete_batch_is_pure():
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
    prefix = np.array([[1, 4], [6, 6]])
    before = prefix.copy()
    table_before = table.values.copy()
    a = _complete(gen, table, prefix, 9, 2, "p")
    b = _complete(gen, table, prefix, 9, 2, "p")
    assert np.array_equal(prefix, before)
    assert np.array_equal(table.values, table_before)
    assert np.array_equal(a, b)


def test_state_from_prefix_counts_everything(monkeypatch):
    # The damping count C of the first sampled step covers every prefix slot,
    # the newest one included.
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
    seen = []
    count = generator._visit_counts

    def spy(prefix):
        seen.append(prefix.copy())
        return count(prefix)

    monkeypatch.setattr(generator, "_visit_counts", spy)
    _complete(gen, table, np.array([[2, 2, 5]]), 4, 0, "c")
    assert_array_equal(seen[0], [[2, 2, 5]])
    assert count(seen[0]).tolist() == [1]
    assert count(np.array([[5, 2, 2]])).tolist() == [2]


def test_next_location_gate():
    gen = _gen(beta=0.0)
    gen.params["dwell/bias"].values[:] = 1e9     # certain dwell: the sigmoid is exactly 1
    with nn.no_grad():
        table = gen.embed_locations()
    out, fired = _complete(gen, table, np.arange(8)[:, None], 6, 0, "gate", record=True)
    # A length-1 prefix keeps the gate closed: the first step explores.
    assert not fired[:, 0].any()
    # Once the prefix is longer, a certain dwell stays at every step.
    assert fired[:, 1:].all()
    assert np.all(out[:, 2:] == out[:, 1:2])
    out, fired = _complete(gen, table, np.array([[3, 5]]), 5, 0, "gate", record=True)
    assert fired.all() and np.all(out[0, 2:] == 5)


_GATES = {
    # name: (config overrides, dwell bias, which live gates fire)
    "dwell": (dict(), 0.0, "some"),
    "no_dwell": (dict(dwell=False), 0.0, "none"),
    "beta_zero": (dict(beta=0.0), 0.0, "some"),
    "always_fires": (dict(beta=0.0), 1e9, "all"),    # no damping, so the gate is exactly 1
    "never_fires": (dict(), -1e9, "none"),
}


@pytest.mark.parametrize("given_hidden", [False, True], ids=["unrolled", "given_hidden"])
@pytest.mark.parametrize("start", [1, 2, 10])
@pytest.mark.parametrize("gate", list(_GATES))
def test_complete_batch_matches_full_explore_oracle(gate, start, given_hidden):
    # Drawing only for the rows whose gate stays closed must reproduce the
    # sampler that draws for every row, samples and fired flags alike.
    overrides, bias, fires = _GATES[gate]
    gen = _gen(seed=4, **overrides)
    gen.params["dwell/bias"].values[:] = bias
    with nn.no_grad():
        table = gen.embed_locations()
    rng = np.random.default_rng(start)
    prefix = rng.integers(0, 8, size=(64, start))
    hidden, starts = teacher_forced_start(gen, table, prefix)
    if given_hidden:
        hidden = rng.normal(size=(64, 4))
    out, fired = complete_batch(gen, table, prefix, 10, 7, ["o"], hidden, starts, record=True)
    want, want_fired = complete_batch_full_explore(gen, table, prefix, 10, 7, "o", hidden,
                                                   record=True)
    assert_array_equal(out, want)
    assert_array_equal(fired, want_fired)
    live = fired[:, max(0, 2 - start):]          # the gate is live from position 2
    if live.size:
        assert {"none": not live.any(), "all": live.all(),
                "some": 0 < live.mean() < 1}[fires]


def _record_streams(monkeypatch, module):
    """The streams ``module`` builds from now on, by name: the sampler builds
    its own, so a test reads where a pass left them from here."""
    built = {}

    def build(master_seed, name):
        built[name] = stream(master_seed, name)
        return built[name]

    monkeypatch.setattr(module, "stream", build)
    return built


def _assert_next_draws_equal(got, expected):
    # Every stream ``got`` holds is left where ``expected`` leaves it.
    assert got and set(got) <= set(expected)
    for name, rng in got.items():
        assert rng.random() == expected[name].random(), name


@pytest.mark.parametrize("given_hidden", [False, True], ids=["unrolled", "given_hidden"])
@pytest.mark.parametrize("start", [1, 3])
@pytest.mark.parametrize("gate", list(_GATES))
def test_chunked_pass_matches_full_explore_oracle(monkeypatch, gate, start, given_hidden):
    # 40 rows in chunks of 7, the last one short, each chunk taking every
    # step before the next: the samples, the fired flags and the position of
    # every stream afterwards are those of the one-pass oracle.
    overrides, bias, fires = _GATES[gate]
    gen = _gen(seed=4, **overrides)
    gen.params["dwell/bias"].values[:] = bias
    with nn.no_grad():
        table = gen.embed_locations()
    rng = np.random.default_rng(start)
    prefix = rng.integers(0, 8, size=(40, start))
    hidden, starts = teacher_forced_start(gen, table, prefix)
    if given_hidden:
        hidden = rng.normal(size=(40, 4))
    want_streams = _record_streams(monkeypatch, oracles)
    want, want_fired = complete_batch_full_explore(gen, table, prefix, 10, 7, "c", hidden,
                                                   record=True)
    monkeypatch.setattr(generator, "chunk_rows", lambda n: 7)
    streams = _record_streams(monkeypatch, generator)
    out, fired = complete_batch(gen, table, prefix, 10, 7, ["c"], hidden, starts, record=True)
    assert_array_equal(out, want)
    assert_array_equal(fired, want_fired)
    _assert_next_draws_equal(streams, want_streams)
    live = fired[:, max(0, 2 - start):]          # the gate is live from position 2
    assert {"none": not live.any(), "all": live.all(),
            "some": 0 < live.mean() < 1}[fires]


@pytest.mark.parametrize("draw_rows", [None, 7], ids=["one_draw", "draws_of_7_rows"])
@pytest.mark.parametrize("given_hidden", [False, True], ids=["unrolled", "given_hidden"])
@pytest.mark.parametrize("gate", list(_GATES))
def test_joined_pass_matches_one_call_per_block(monkeypatch, gate, given_hidden, draw_rows):
    # Blocks of unequal size joining at their own position must sample what
    # one call per block samples, samples and fired flags alike, and so must
    # a pass run in chunks of 7 rows, whose edges straddle the blocks, and
    # every stream must be left where one call per block leaves it.
    overrides, bias, fires = _GATES[gate]
    gen = _gen(seed=4, **overrides)
    gen.params["dwell/bias"].values[:] = bias
    with nn.no_grad():
        table = gen.embed_locations()
    sizes, starts, length = (5, 17, 3, 40), (1, 2, 4, 9), 12
    edges = np.cumsum((0,) + sizes)
    rng = np.random.default_rng(3)
    prefix = rng.integers(0, 8, size=(edges[-1], max(starts)))
    hidden = rng.normal(size=(edges[-1], 4))

    blocks = list(zip(edges, edges[1:], starts))

    def given(lo, hi, start):
        if given_hidden:
            return hidden[lo:hi]
        return teacher_forced_start(gen, table, prefix[lo:hi, :start])[0]

    want_streams = _record_streams(monkeypatch, generator)
    want = [complete_batch(gen, table, prefix[lo:hi, :start], length, 7, [f"o/l{start}"],
                           given(lo, hi, start), np.full(hi - lo, start), record=True)
            for lo, hi, start in blocks]
    if draw_rows:
        monkeypatch.setattr(generator, "chunk_rows", lambda n: draw_rows)
    joined_streams = _record_streams(monkeypatch, generator)
    out, fired = complete_batch(gen, table, prefix, length, 7,
                                [f"o/l{start}" for start in starts],
                                np.concatenate([given(*b) for b in blocks]),
                                np.repeat(starts, sizes), record=True)
    _assert_next_draws_equal(joined_streams, want_streams)
    assert fired.shape == (edges[-1], length - 1)
    for (block_out, block_fired), lo, hi, start in zip(want, edges, edges[1:], starts):
        assert_array_equal(out[lo:hi], block_out)
        assert_array_equal(fired[lo:hi, start - 1:], block_fired)
        assert not fired[lo:hi, :start - 1].any()
    live = fired[:, 1:]                          # the gate is live from position 2
    assert {"none": not live.any(), "all": live[np.repeat(starts, sizes) <= 2].all(),
            "some": 0 < live.mean() < 1}[fires]


@pytest.mark.parametrize("gate", list(_GATES))
def test_two_thread_pass_matches_one_thread_pass(monkeypatch, gate):
    # Given two CPUs, a pass of more than one chunk runs chunks of half as
    # many rows on two threads.  With chunks of 7 rows, and so of 3 on two
    # threads, whose edges straddle the joined blocks, the samples, the fired
    # flags and every stream's next draw equal those of the one-thread pass,
    # with the threads trading the interpreter lock as often as they can.
    overrides, bias, _ = _GATES[gate]
    gen = _gen(seed=4, **overrides)
    gen.params["dwell/bias"].values[:] = bias
    with nn.no_grad():
        table = gen.embed_locations()
    sizes, starts, length = (5, 17, 3, 40), (1, 2, 4, 9), 12
    rng = np.random.default_rng(5)
    prefix = rng.integers(0, 8, size=(sum(sizes), max(starts)))
    hidden = rng.normal(size=(sum(sizes), 4))
    monkeypatch.setattr(generator, "chunk_rows", lambda n: 7)
    draw = generator._explore_draw
    drawing_threads = set()

    def spy(*args):
        drawing_threads.add(threading.get_ident())
        return draw(*args)

    monkeypatch.setattr(generator, "_explore_draw", spy)
    passes = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            drawing_threads.clear()
            streams = _record_streams(monkeypatch, generator)
            out, fired = complete_batch(gen, table, prefix, length, 7,
                                        [f"t/l{start}" for start in starts], hidden,
                                        np.repeat(starts, sizes), record=True)
            passes[cpus] = out, fired, streams
            assert len(drawing_threads) == cpus
    finally:
        sys.setswitchinterval(interval)
    (want, want_fired, want_streams), (out, fired, streams) = passes[1], passes[2]
    assert_array_equal(out, want)
    assert_array_equal(fired, want_fired)
    _assert_next_draws_equal(streams, want_streams)


def test_two_thread_pass_runs_blas_on_one_thread(monkeypatch):
    # Each thread of a two-thread pass makes its own BLAS calls, so OpenBLAS
    # runs on one thread for the pass and gets its thread count back after.
    calls = blas._thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS loaded in this process")
    get, put = calls
    gen = _gen()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(generator, "chunk_rows", lambda n: 8)
    draw = generator._explore_draw
    seen = set()

    def spy(*args):
        seen.add(get())
        return draw(*args)

    monkeypatch.setattr(generator, "_explore_draw", spy)
    before = get()
    put(2)
    try:
        threads = get()
        generate_batch(gen, 40, 6, np.full(8, 1 / 8), 0, "blas")
        assert seen == {1}
        assert get() == threads
    finally:
        put(before)


@pytest.mark.parametrize("starts, n_tags", [
    ([2, 1, 1], 2),                              # not non-decreasing
    ([1, 1, 4], 2),                              # a start past the prefix width
    ([0, 1, 1], 2),                              # an empty prefix
    ([1, 1], 1),                                 # not one start per row
    ([1, 2, 2], 1),                              # two blocks, one stream tag
])
def test_complete_batch_rejects_bad_starts(starts, n_tags):
    gen = _gen()
    with nn.no_grad():
        table = gen.embed_locations()
    with pytest.raises(ValueError):
        complete_batch(gen, table, np.zeros((3, 3), dtype=np.int64), 6,
                       0, [f"s{i}" for i in range(n_tags)],
                       gen.zero_hidden(3), np.array(starts))


def _sampling_peak(b, n, length, **overrides):
    """tracemalloc peak of ``generate_batch`` of b rows at N=n: the seed draw
    and complete_batch from prefix length 1."""
    gen = _gen(n=n, **overrides)
    tracemalloc.start()
    try:
        generate_batch(gen, b, length, np.full(n, 1 / n), 0, "m")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complete_batch_draws_in_bounded_memory():
    # The rows run in chunks of chunk_rows(N), so the (rows, N) arrays are
    # the chunk's logits buffer and the draw's exponentials of it; the rest
    # is per row (ids, uniforms, flags, hidden state).  Sampling 4,096 rows
    # at N=400 peaks under four chunk budgets and 64 bytes per slot.
    b, n, length = 4096, 400, 4
    assert generator.chunk_rows(n) < b
    assert _sampling_peak(b, n, length) < 4 * generator._CHUNK_BYTES + 64 * b * length


def test_population_at_large_n_samples_in_bounded_memory():
    # 30,000 rows at N=5,000: one (B, N) float64 array alone would take
    # 1.2 GB, and one (B, N) bool comparison 150 MB.
    assert _sampling_peak(30000, 5000, 4) < 64 * 2**20


def test_sampling_from_scratch_holds_one_start_state():
    # A pass holds per row its two uniform tables and ``out`` (24 bytes a
    # slot), its fired flags (1 byte a slot) and one (B, H) start state, and
    # per chunk the logits buffer, the draw's exponentials of it and the GRU's
    # (chunk, 3H) products, within four chunk budgets at H=32 and N=100.
    b, n, length, h = 30000, 100, 24, 32
    per_row = b * length * (24 + 1) + 8 * b * h
    assert _sampling_peak(b, n, length, hidden_dim=h) < per_row + 4 * generator._CHUNK_BYTES


# ---------------------------------------------------------------------------
# whole trajectories


def test_seed_distribution_counts_first_slots():
    ids = np.array([[0, 1], [0, 2], [3, 0], [0, 0]])
    dist = seed_distribution(ids, 5)
    assert np.allclose(dist, [0.75, 0, 0, 0.25, 0])


def test_generate_batch_seeds_follow_distribution():
    gen = _zeroed(_gen())                        # uniform dynamics
    seed_dist = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])
    out = generate_batch(gen, 4000, 4, seed_dist, 2, "g")
    counts = np.bincount(out[:, 0], minlength=8)
    assert counts[2:].sum() == 0
    assert abs(counts[0] / 4000 - 0.5) < 0.03


def test_generate_batch_deterministic():
    gen = _gen(seed=8)
    seed_dist = np.full(8, 1 / 8)
    a = generate_batch(gen, 10, 24, seed_dist, 4, "g")
    b = generate_batch(gen, 10, 24, seed_dist, 4, "g")
    assert np.array_equal(a, b)

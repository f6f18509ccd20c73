import gc
import importlib
import inspect
import os
import pkgutil
import sys
import threading
import zlib

import numpy as np
import pytest

import mobsim
from mobsim import cli, generator, nn
from mobsim.cli import main
from mobsim.graphs import LocationGraph
from mobsim.nn import Tensor
from gradcheck import grad_check
from oracles import (exp, gru_cell, leakyrelu, linear_composed, log, matmul, narrow, relu,
                     sigmoid_masked, softmax, softmax_values, sub, tanh, tsum)
from test_cli import CHECKINS


def _t(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_accumulates_through_shared_node():
    x = _t([2.0])
    y = nn.add(nn.mul(x, x), x)       # x^2 + x, dy/dx = 2x + 1 = 5
    tsum(y).backward()
    assert x.grad[0] == pytest.approx(5.0)


def test_gradient_handed_to_two_parents_is_not_written_in_place():
    x = _t([1.0, -2.0, 0.5])
    w = _t([3.0, 0.25, -7.0], requires_grad=False)
    doubled = nn.add(x, x)            # its backward hands one array to both parents
    handed = []
    add_backward = doubled._backward

    def spy(g):
        handed.append((g, g.copy()))
        return add_backward(g)

    doubled._backward = spy
    weighted = nn.mul(doubled, w)
    root = tsum(weighted)
    root.backward()
    (g, before), = handed
    np.testing.assert_array_equal(g, before)
    np.testing.assert_array_equal(x.grad, 2.0 * w.values)
    assert doubled.grad is None and weighted.grad is None      # interior nodes
    assert root.grad == 1.0


def test_grads_accumulate_until_zeroed():
    x = _t([1.0])
    tsum(nn.mul(x, _t([3.0], requires_grad=False))).backward()
    tsum(nn.mul(x, _t([4.0], requires_grad=False))).backward()
    assert x.grad[0] == pytest.approx(7.0)


def test_a_second_backward_from_one_root_adds_the_same_gradient():
    # The root's gradient from the first walk used to seed the second, so
    # the leaves got 2x the gradient: 1.5 then 4.5 instead of 3.0.
    x = _t([1.0, 2.0])
    root = nn.tmean(nn.mul(x, 3.0))
    root.backward()
    np.testing.assert_array_equal(x.grad, [1.5, 1.5])
    root.backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    assert root.grad == 1.0


def test_backward_requires_scalar():
    x = _t([1.0, 2.0])
    with pytest.raises(ValueError):
        nn.mul(x, x).backward()


def test_no_grad_blocks_taping():
    x = _t([1.0])
    with nn.no_grad():
        y = nn.mul(x, x)
    assert not y.requires_grad
    z = nn.mul(x, x)
    assert z.requires_grad


def test_constant_requires_no_grad():
    assert not nn.constant(np.ones(3)).requires_grad


_GRU = nn.init_gru(nn.ParamSet(), "g", 3, 4, np.random.default_rng(20))
_HEADS = nn.init_heads(nn.ParamSet(), "a", 2, 3, 2, np.random.default_rng(21))
# Every ordered pair of 5 distinct locations, unit weights.
_EDGES = nn.graph_edges(LocationGraph("sdg", "vanilla", 5, *np.nonzero(~np.eye(5, dtype=bool)),
                                      np.ones(20)))

# Every tape op with the input shapes it is built on.
_TAPE_OPS = {
    "add": (nn.add, [(3, 4), (4,)]),
    "sub": (sub, [(3, 4), (3, 4)]),
    "mul": (nn.mul, [(3, 4), (3, 4)]),
    "neg": (nn.neg, [(3, 4)]),
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "linear": (nn.linear, [(3, 4), (4, 2), (2,)]),
    "exp": (exp, [(3, 4)]),
    "log": (log, [(3, 4)]),
    "tanh": (tanh, [(3, 4)]),
    "sigmoid": (nn.sigmoid, [(3, 4)]),
    "relu": (relu, [(3, 4)]),
    "leakyrelu": (leakyrelu, [(3, 4)]),
    "softmax": (softmax, [(3, 4)]),
    "concat": (lambda a, b: nn.concat([a, b], axis=1), [(3, 2), (3, 3)]),
    "gather_rows": (lambda a: nn.gather_rows(a, [2, 0, 2]), [(3, 4)]),
    "narrow": (lambda a: narrow(a, 1, 1, 2), [(3, 4)]),
    "reshape": (lambda a: nn.reshape(a, (4, 3)), [(3, 4)]),
    "tsum": (lambda a: tsum(a, axis=0), [(3, 4)]),
    "tmean": (nn.tmean, [(3, 4)]),
    "dropout": (lambda a: nn.dropout(a, 0.5, np.random.default_rng(0)), [(3, 4)]),
    "cross_entropy": (lambda a: nn.cross_entropy(a, [0, 3, 1]), [(3, 4)]),
    "binary_cross_entropy": (lambda a: nn.binary_cross_entropy(a, [1.0, 0.0, 1.0]), [(3,)]),
    "gru_cell": (lambda x, z: gru_cell(x, z, _GRU), [(2, 3), (2, 4)]),
    "gru_unroll": (lambda x, z: nn.gru_unroll(x, z, _GRU), [(3, 2, 3), (2, 4)]),
    "graph_attention": (lambda h: nn.graph_attention(h, _EDGES, _HEADS), [(5, 3)]),
}


@pytest.mark.parametrize("name", list(_TAPE_OPS))
def test_tape_is_freed_without_the_cycle_collector(name):
    # A backward function that refers to its op's output tensor makes a
    # reference cycle, which only the cyclic collector frees.
    op, shapes = _TAPE_OPS[name]
    rng = np.random.default_rng(22)
    gc.collect()
    gc.disable()
    try:
        inputs = [_t(rng.random(s) * 0.8 + 0.1) for s in shapes]
        tsum(op(*inputs)).backward()
        assert all(x.grad is not None for x in inputs)
        del inputs
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive


@pytest.mark.parametrize("name,op,shapes", [
    ("add", lambda a, b: nn.add(a, b), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda a, b: nn.add(a, b), [(3, 4), (4,)]),
    ("sub", lambda a, b: sub(a, b), [(3, 4), (3, 4)]),
    ("mul", lambda a, b: nn.mul(a, b), [(3, 4), (3, 4)]),
    ("mul_broadcast", lambda a, b: nn.mul(a, b), [(5,), (1,)]),
    ("matmul", lambda a, b: matmul(a, b), [(3, 4), (4, 2)]),
    ("neg", nn.neg, [(3, 4)]),
    ("exp", exp, [(3, 4)]),
    ("tanh", tanh, [(3, 4)]),
    ("sigmoid", nn.sigmoid, [(3, 4)]),
    ("softmax", softmax, [(3, 6)]),
    ("reshape", lambda a: nn.reshape(a, (4, 3)), [(3, 4)]),
    ("narrow", lambda a: narrow(a, 1, 1, 2), [(3, 4)]),
    ("concat", lambda a, b: nn.concat([a, b], axis=1), [(3, 2), (3, 3)]),
    ("sum_all", tsum, [(3, 4)]),
    ("sum_axis", lambda a: tsum(a, axis=0), [(3, 4)]),
])
def test_primitive_gradients(name, op, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    inputs = [_t(rng.standard_normal(s)) for s in shapes]
    assert grad_check(op, inputs) < 1e-6


def test_log_gradient_away_from_zero():
    rng = np.random.default_rng(11)
    x = _t(rng.random((3, 4)) + 0.5)
    assert grad_check(log, [x]) < 1e-6


def test_relu_leakyrelu_gradients_away_from_kink():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((4, 5))
    vals[np.abs(vals) < 0.1] = 0.5        # keep clear of the kink
    assert grad_check(relu, [_t(vals.copy())]) < 1e-6
    assert grad_check(lambda a: leakyrelu(a, 0.2), [_t(vals.copy())]) < 1e-6


def test_linear_gradient():
    rng = np.random.default_rng(13)
    x, w, b = _t(rng.standard_normal((4, 3))), _t(rng.standard_normal((3, 2))), \
        _t(rng.standard_normal(2))
    assert grad_check(lambda *args: nn.linear(*args), [x, w, b]) < 1e-6


@pytest.mark.parametrize("rows, out_dim", [(4, 2), (7, 1), (1, 5)])
def test_linear_matches_matmul_then_add(rows, out_dim):
    rng = np.random.default_rng(rows * 10 + out_dim)
    x, w, b = (_t(rng.standard_normal(s)) for s in ((rows, 3), (3, out_dim), (out_dim,)))
    probe = rng.standard_normal((rows, out_dim))
    results = []
    for op in (nn.linear, linear_composed):
        for tensor in (x, w, b):
            tensor.grad = None
        out = op(x, w, b)
        tsum(nn.mul(out, probe)).backward()
        results.append((out.values, x.grad, w.grad, b.grad))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_gather_rows_gradient_scatters():
    table = _t(np.arange(12, dtype=np.float64).reshape(4, 3))
    ids = np.array([1, 1, 3])
    out = nn.gather_rows(table, ids)
    assert np.array_equal(out.values, table.values[ids])
    tsum(out).backward()
    # Row 1 was gathered twice, so its gradient is 2.
    assert np.array_equal(table.grad, np.array([[0.0] * 3, [2.0] * 3,
                                                [0.0] * 3, [1.0] * 3]))


def test_gather_rows_range_check():
    with pytest.raises(ValueError):
        nn.gather_rows(_t(np.zeros((2, 3))), np.array([2]))


def test_cross_entropy_values_and_gradient():
    logits = _t(np.random.default_rng(14).standard_normal((5, 7)))
    targets = np.array([0, 3, 6, 2, 2])
    ce = nn.cross_entropy(logits, targets)
    assert ce.values.shape == (5,)
    probs = softmax_values(logits.values)
    assert np.allclose(ce.values, -np.log(probs[np.arange(5), targets]))
    tsum(ce).backward()
    assert np.allclose(logits.grad, probs - np.eye(7)[targets])


def test_cross_entropy_through_softmax_gradient():
    rng = np.random.default_rng(15)
    logits = _t(rng.standard_normal((4, 6)))
    targets = np.array([1, 5, 0, 3])
    op = lambda a: nn.cross_entropy(a, targets)
    assert grad_check(op, [logits]) < 1e-6


def test_cross_entropy_survives_a_large_logit_gap():
    # The softmax of (0, 800) underflows to (0, 1); the loss and gradient
    # of the target's log-softmax must not.
    logits = _t([[0.0, 800.0]])
    ce = nn.cross_entropy(logits, [0])
    assert ce.values[0] == 800.0
    tsum(ce).backward()
    assert np.array_equal(logits.grad, [[-1.0, 1.0]])


def test_binary_cross_entropy_clamps():
    probs = _t([0.0, 1.0], requires_grad=False)
    loss = nn.binary_cross_entropy(probs, np.array([1.0, 0.0]))
    assert np.all(np.isfinite(loss.values))
    # Clamped at 1e-12 by default: -log(1e-12).
    assert loss.values[0] == pytest.approx(-np.log(1e-12))


def test_binary_cross_entropy_gradient():
    rng = np.random.default_rng(16)
    probs = _t(rng.random(8) * 0.8 + 0.1)
    targets = (rng.random(8) > 0.5).astype(np.float64)
    op = lambda p: nn.binary_cross_entropy(p, targets)
    assert grad_check(op, [probs]) < 1e-6


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((6, 9))
    y = softmax_values(x)
    assert np.allclose(y.sum(axis=1), 1.0)
    y2 = softmax_values(x + 1000.0)
    assert np.allclose(y, y2)
    assert np.all(np.isfinite(softmax_values(np.array([[1e30, -1e30]]))))


def test_sigmoid_extreme_inputs_stable():
    y = nn.sigmoid(_t(np.array([-1e4, 0.0, 1e4]), requires_grad=False)).values
    assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0


@pytest.mark.parametrize("shape", [(128, 16), (32, 16), (30000, 16), (128, 1)])
def test_sigmoid_bit_identical_to_masked_form(shape):
    x = np.random.default_rng(sum(shape)).normal(0.0, 8.0, size=shape)
    edges = np.array([0.0, -0.0, 800.0, -800.0, np.nan, np.inf, -np.inf])
    x.reshape(-1)[:len(edges)] = edges
    # Whole rows of one edge value each, so that they fill vector lanes too.
    x[-len(edges):] = edges[:, None]
    y = nn.sigmoid(_t(x, requires_grad=False)).values
    assert y.tobytes() == sigmoid_masked(x).tobytes()


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_is_identity():
    x = _t(np.ones((4, 4)))
    assert nn.dropout(x, 0.0, None) is x


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        nn.dropout(_t(np.ones(3)), 1.0, np.random.default_rng(0))


def test_dropout_zeroes_and_rescales():
    rng = np.random.default_rng(18)
    x = _t(np.ones((200, 200)), requires_grad=False)
    y = nn.dropout(x, 0.6, rng)
    kept = y.values != 0.0
    assert abs(kept.mean() - 0.4) < 0.02
    assert np.allclose(y.values[kept], 1.0 / 0.4)   # inverted scaling


def test_dropout_gradient_masks():
    rng = np.random.default_rng(19)
    x = _t(np.ones(1000))
    y = nn.dropout(x, 0.3, rng)
    tsum(y).backward()
    kept = y.values != 0.0
    assert np.allclose(x.grad[kept], 1.0 / 0.7)
    assert np.allclose(x.grad[~kept], 0.0)


# ---------------------------------------------------------------------------
# parameters, optimizers, checkpoints


def _param_set(rng):
    params = nn.ParamSet()
    params.register("a", rng.standard_normal((3, 4)))
    params.register("b", rng.standard_normal(4))
    return params


def test_param_set_register_and_lookup(rng):
    params = _param_set(rng)
    assert params["a"].values.shape == (3, 4)
    assert [name for name, _ in params.items()] == ["a", "b"]
    with pytest.raises(KeyError):
        params["missing"]
    with pytest.raises(ValueError):
        params.register("a", np.zeros(2))   # duplicate name


def test_param_set_copy_and_load(rng):
    params = _param_set(rng)
    snapshot = params.copy()
    params["a"].values += 1.0
    assert not np.array_equal(snapshot["a"].values, params["a"].values)
    params.load_values(snapshot)
    assert np.array_equal(snapshot["a"].values, params["a"].values)


def test_param_set_load_shape_mismatch(rng):
    params = _param_set(rng)
    bad = nn.ParamSet()
    bad.register("a", np.zeros((9, 9)))
    bad.register("b", np.zeros(4))
    with pytest.raises(ValueError):
        params.load_values(bad)
    renamed = nn.ParamSet()
    renamed.register("x", np.zeros((3, 4)))
    with pytest.raises(ValueError):
        params.load_values(renamed)


def test_adam_first_step_size_is_lr():
    # Bias correction makes the first update exactly lr * sign(grad).
    params = nn.ParamSet()
    params.register("w", np.zeros(3))
    opt = nn.Adam(params, lr=0.01)
    params["w"].grad[:] = [5.0, -0.3, 1e-4]
    opt.step()
    assert np.allclose(params["w"].values,
                       [-0.01, 0.01, -0.01 * 1e-4 / (1e-4 + 1e-8)], atol=1e-9)


def test_adam_converges_on_quadratic():
    params = nn.ParamSet()
    params.register("w", np.array([5.0, -3.0]))
    opt = nn.Adam(params, lr=0.05)
    for _ in range(600):
        opt.zero_grad()
        w = params["w"]
        loss = tsum(nn.mul(w, w))
        loss.backward()
        opt.step()
    assert np.all(np.abs(params["w"].values) < 1e-3)


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    params = nn.ParamSet()
    params.register("layer/weight", rng.standard_normal((7, 5)))
    params.register("layer/bias", rng.standard_normal(5))
    params.register("oddéname", np.array([np.pi, -0.0, 1e-300]))
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, params)
    loaded = nn.load_checkpoint(path)
    assert loaded.names() == ["layer/weight", "layer/bias", "oddéname"]
    for name, tensor in params.items():
        assert loaded[name].values.dtype == np.float64
        assert loaded[name].values.tobytes() == tensor.values.tobytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        nn.load_checkpoint(path)


def test_first_nonfinite_reports_name(rng):
    params = _param_set(rng)
    assert params.first_nonfinite() is None
    params["b"].values[2] = np.nan
    assert params.first_nonfinite() == "b"


# ---------------------------------------------------------------------------
# no test-only code


def _public_functions():
    """``code -> name`` of each public function and public method (property
    getters included) defined in the modules of ``mobsim``."""
    found = {}
    names = [m.name for m in pkgutil.walk_packages(mobsim.__path__, "mobsim.")]
    for module in map(importlib.import_module, names):
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = ([(f"{attr}.{m}", fn) for m, fn in vars(value).items()
                        if not m.startswith("_")] if inspect.isclass(value) else [(attr, value)])
            for qualified, fn in members:
                fn = inspect.unwrap(fn.fget if isinstance(fn, property) else fn)
                if inspect.isfunction(fn):
                    found[fn.__code__] = f"{module.__name__[len('mobsim.'):]}.{qualified}"
    return found


def test_every_nn_function_runs_in_a_command(tmp_path):
    # mobsim ships only what a command runs; code only tests use belongs in
    # tests/oracles.py.  These commands are the traffic: the README pipeline
    # with both edge modes, multi-head attention with dropout and adversarial
    # training, both evaluate modes, preprocess and the ablation suite.
    data, graphs, model = tmp_path / "data", tmp_path / "graphs", tmp_path / "model"
    locations = ["--locations", str(data / "locations.csv")]
    split = ["--train", str(data / "train.txt"), *locations]
    fit = [*split, "--graphs-dir", str(graphs), "--embed-dim", "4", "--hidden-dim", "3",
           "--pretrain-epochs", "1", "--d-pretrain-epochs", "1"]
    adversarial = ["--valid", str(data / "valid.txt"), "--epochs", "1", "--rollouts", "2",
                   "--steps-per-epoch", "1"]
    evaluate = ["evaluate", "--real", str(data / "test.txt"),
                "--generated", str(tmp_path / "gen" / "generated.txt"), *locations]
    checkins = tmp_path / "checkins.csv"
    checkins.write_text(CHECKINS)
    commands = [
        ["synth", "--out-dir", str(data), "--n-locations", "8", "--users", "4", "--days", "3"],
        ["build-graphs", *split, "--out-dir", str(graphs), "--k", "3",
         "--observed", str(data / "observed_train.txt")],
        ["build-graphs", *split, "--out-dir", str(tmp_path / "vanilla"), "--k", "3",
         "--edge-mode", "vanilla"],
        ["train", *fit, *adversarial, "--out-dir", str(model), "--heads", "2",
         "--dropout", "0.1"],
        ["pretrain", *fit, "--out-dir", str(tmp_path / "pretrained")],
        ["generate", "--model", str(model / "gen"), "--graphs-dir", str(graphs), *locations,
         "--out-dir", str(tmp_path / "gen"), "--count", "5"],
        [*evaluate, "--out-dir", str(tmp_path / "eval")],
        [*evaluate, "--out-dir", str(tmp_path / "moves"), "--exclude-zero-steps"],
        ["preprocess", "--input", str(checkins), "--out-dir", str(tmp_path / "prep")],
        ["ablation", *split, *adversarial, "--test", str(data / "test.txt"),
         "--out-dir", str(tmp_path / "ablation"), "--k", "3", "--embed-dim", "4",
         "--hidden-dim", "3", "--pretrain-epochs", "1", "--d-pretrain-epochs", "1"],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # As in a fresh process, where the first command builds the parser.
    cli._parser.cache_clear()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(commands)
    public = _public_functions()
    assert len(public) > 100
    assert sorted(name for code, name in public.items() if code not in entered) == []


def test_sampling_helper_thread_enters_no_public_function(monkeypatch):
    # A tracer that wraps every public function and method with one span
    # stack and plain counters (perfbench/tracer.py) is not thread-aware, so
    # the helper thread of a two-thread sampling pass must enter only private
    # helpers and the array functions of nn.core and rng, which no tracer
    # wraps.  threading.setprofile profiles the threads started after it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(generator, "chunk_rows", lambda n: 16)
    n = 8
    src = np.arange(n)
    edges = LocationGraph("sdg", "weighted", n, src, (src + 1) % n, np.full(n, 0.5))
    gen = generator.Generator(generator.GeneratorConfig(n_locations=n, embed_dim=4, hidden_dim=4,
                                                        channels=("sdg",)), {"sdg": edges})
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(profile)
    try:
        generator.generate_batch(gen, 100, 6, np.full(n, 1 / n), 0, "helper")
    finally:
        threading.setprofile(None)
    assert generator._explore_draw.__code__ in entered          # the helper sampled
    public = _public_functions()
    assert sorted(name for code, name in public.items()
                  if code in entered and not name.startswith(("nn.core.", "rng."))) == []

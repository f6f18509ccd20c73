import numpy as np
import pytest

from mobsim import graphs, nn
from mobsim.nn import ParamSet, Tensor, gru_unroll, init_gru, init_heads
from mobsim.nn.attention import graph_attention, graph_edges
from gradcheck import grad_check
from oracles import (MASKED, attention_bias, graph_attention_dense, gru_cell, gru_cell_composed,
                     tsum)


def _chain_graph(n, weights=None):
    """0 -> 1 -> ... -> n-1 -> 0, one out-edge per node."""
    src = np.arange(n)
    dst = (src + 1) % n
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return graphs.LocationGraph("ttg", "weighted", n, src, dst, w)


def _heads(n_heads, in_dim, head_dim, seed=0):
    params = ParamSet()
    heads = init_heads(params, "t", n_heads, in_dim, head_dim,
                       np.random.default_rng(seed))
    return params, heads


def _random_graph(rng, n, mode="weighted", isolated=2):
    """Random directed graph whose first ``isolated`` nodes have neither out-
    nor in-edges, with one zero weight."""
    keep = rng.random((n, n)) < 0.3
    keep[:isolated] = keep[:, :isolated] = False
    np.fill_diagonal(keep, False)
    src, dst = np.nonzero(keep)
    perm = rng.permutation(len(src))           # edge order need not be sorted
    weight = rng.uniform(0.1, 3.0, len(src))
    weight[0] = 0.0
    g = graphs.LocationGraph("ttg", "weighted", n, src[perm], dst[perm], weight)
    return g if mode == "weighted" else graphs.binarize(g)


# ---------------------------------------------------------------------------
# edge construction


def test_edges_are_sorted_by_src_with_the_self_loop_last():
    g = graphs.LocationGraph("ttg", "weighted", 4, np.array([2, 0, 0, 3]),
                             np.array([1, 3, 1, 0]), np.array([1.0, 0.5, 2.0, 1.0]))
    e = graph_edges(g)
    assert e.src.tolist() == [0, 0, 0, 1, 2, 2, 3, 3]
    assert e.dst.tolist() == [3, 1, 0, 1, 1, 2, 0, 3]
    assert np.array_equal(e.log_weight, [np.log(0.5), np.log(2.0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert e.starts.tolist() == [0, 3, 4, 6]
    assert e.dst[e.dst_order].tolist() == [0, 0, 1, 1, 1, 2, 3, 3]
    assert e.dst_starts.tolist() == [0, 2, 5, 6]


def _bias_of(edges):
    """The per-edge log weights keyed by (src, dst); absent pairs are masked."""
    return dict(zip(zip(edges.src.tolist(), edges.dst.tolist()), edges.log_weight.tolist()))


def test_bias_masks_non_edges_and_keeps_diagonal():
    bias = _bias_of(graph_edges(_chain_graph(4, weights=[1.0, 0.5, 2.0, 1.0])))
    assert bias[(0, 1)] == 0.0                    # ln 1
    assert bias[(1, 2)] == pytest.approx(np.log(0.5))
    assert all(bias[(i, i)] == 0.0 for i in range(4))   # uniform self-loop
    assert (0, 2) not in bias and (0, 3) not in bias
    assert len(bias) == 8


def test_bias_vanilla_mode_is_indicator():
    edges = graph_edges(graphs.binarize(_chain_graph(4, weights=[0.3, 0.5, 0.2, 0.9])))
    bias = _bias_of(edges)
    assert bias[(0, 1)] == 0.0 and bias[(1, 2)] == 0.0
    assert (0, 2) not in bias
    assert np.array_equal(edges.log_weight, np.zeros(8))


def test_bias_zero_weight_is_floored():
    bias = _bias_of(graph_edges(_chain_graph(3, weights=[0.0, 1.0, 1.0])))
    assert np.isfinite(bias[(0, 1)]) and bias[(0, 1)] < -60.0


def test_edges_match_the_dense_bias():
    g = _random_graph(np.random.default_rng(0), 9)
    e = graph_edges(g)
    bias = np.full((9, 9), MASKED)
    bias[e.src, e.dst] = e.log_weight
    assert np.array_equal(bias, attention_bias(g))


# ---------------------------------------------------------------------------
# attention forward


def test_self_loop_only_reduces_to_relu_projection():
    # A graph with no stored edges: every row attends only to itself.
    g = graphs.LocationGraph("ttg", "weighted", 5, np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64), np.array([]))
    params, heads = _heads(1, 6, 4)
    h = Tensor(np.random.default_rng(1).standard_normal((5, 6)))
    out = graph_attention(h, graph_edges(g), heads)
    expected = np.maximum(h.values @ heads[0].weight.values, 0.0)
    assert np.allclose(out.values, expected, atol=1e-12)


def test_masked_nodes_get_exactly_zero_attention():
    # Row 0 attends to itself and to node 1 only: the other rows of h get
    # exactly zero attention, so they cannot change its output at all.
    edges = graph_edges(_chain_graph(6))
    params, heads = _heads(1, 4, 4)
    h = np.random.default_rng(2).standard_normal((6, 4))
    out = graph_attention(Tensor(h), edges, heads).values
    h[2:] = np.random.default_rng(3).standard_normal((4, 4))
    moved = graph_attention(Tensor(h), edges, heads).values
    assert np.array_equal(out[0], moved[0])
    assert not np.array_equal(out[2:], moved[2:])


def test_higher_edge_weight_draws_more_attention():
    # Node 0 has two out-edges with very different weights and symmetric
    # scores (zero score vector), so attention follows the log weights alone.
    src = np.array([0, 0])
    dst = np.array([1, 2])
    g = graphs.LocationGraph("ttg", "weighted", 3, src, dst, np.array([0.9, 0.1]))
    params, heads = _heads(1, 3, 2)
    heads[0].score.values[:] = 0.0
    h = Tensor(np.eye(3), requires_grad=False)
    # alpha row 0 over {0 (self, w=1), 1 (0.9), 2 (0.1)} = softmax(ln w)= w/sum.
    wh = h.values @ heads[0].weight.values
    out = graph_attention(h, graph_edges(g), heads)
    expected_row0 = np.maximum((wh[0] + 0.9 * wh[1] + 0.1 * wh[2]) / 2.0, 0.0)
    assert np.allclose(out.values[0], expected_row0, atol=1e-12)


def test_multi_head_concatenates():
    edges = graph_edges(_chain_graph(5))
    params, heads = _heads(2, 6, 3)
    h = Tensor(np.random.default_rng(3).standard_normal((5, 6)))
    out = graph_attention(h, edges, heads)
    assert out.shape == (5, 6)
    single = graph_attention(h, edges, heads[:1])
    assert np.allclose(out.values[:, :3], single.values)


def test_permutation_equivariance():
    # Relabeling the nodes permutes the output rows the same way.
    n = 7
    rng = np.random.default_rng(4)
    src = np.array([i for i in range(n) for _ in range(2)])
    dst = np.array([(i + d) % n for i in range(n) for d in (1, 3)])
    w = rng.random(2 * n) * 0.9 + 0.1
    g = graphs.LocationGraph("ttg", "weighted", n, src, dst, w)
    params, heads = _heads(1, 5, 4)
    h = rng.standard_normal((n, 5))

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    g_perm = graphs.LocationGraph("ttg", "weighted", n, perm[src], perm[dst], w)

    out = graph_attention(Tensor(h), graph_edges(g), heads).values
    out_perm = graph_attention(Tensor(h[inv]), graph_edges(g_perm), heads).values
    assert np.allclose(out_perm[perm], out, atol=1e-10)


def test_attention_gradients():
    edges = graph_edges(_chain_graph(5, weights=[0.5, 1.0, 0.25, 0.8, 1.0]))
    params, heads = _heads(2, 4, 2)
    h = Tensor(np.random.default_rng(5).standard_normal((5, 4)))

    def op(hin, w0, s0, w1, s1):
        return graph_attention(hin, edges, heads)

    tensors = [h, heads[0].weight, heads[0].score, heads[1].weight, heads[1].score]
    assert grad_check(op, tensors) < 1e-6


def test_attention_dropout_only_with_a_stream():
    # Dropout runs exactly when a stream is given and the rate is positive.
    edges = graph_edges(_chain_graph(5))
    params, heads = _heads(1, 4, 4)
    h = Tensor(np.random.default_rng(6).standard_normal((5, 4)), requires_grad=False)
    plain = graph_attention(h, edges, heads)
    no_stream = graph_attention(h, edges, heads, dropout_rate=0.5)
    assert np.array_equal(plain.values, no_stream.values)
    zero_rate = graph_attention(h, edges, heads, dropout_rate=0.0, rng=np.random.default_rng(7))
    assert np.array_equal(plain.values, zero_rate.values)
    dropped = graph_attention(h, edges, heads, dropout_rate=0.5, rng=np.random.default_rng(7))
    assert not np.array_equal(plain.values, dropped.values)


def test_each_head_is_one_tape_node():
    edges = graph_edges(_chain_graph(5))
    params, heads = _heads(1, 4, 4)
    out = graph_attention(Tensor(np.ones((5, 4)), requires_grad=True), edges, heads)
    # h, the projection and the score vector, with no node in between.
    assert len(out._parents) == 3
    assert all(not parent._parents for parent in out._parents)


# ---------------------------------------------------------------------------
# the edge-list op against the dense oracle


def _max_rel_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _forward_and_grads(attend, h, layer_heads, probe):
    tensors = [h] + [t for heads in layer_heads for head in heads
                     for t in (head.weight, head.score)]
    for tensor in tensors:
        tensor.grad = None
    out = h
    for heads in layer_heads:
        out = attend(out, heads)
    tsum(nn.mul(out, Tensor(probe))).backward()
    return out.values, [t.grad for t in tensors]


@pytest.mark.parametrize("mode", ["weighted", "vanilla"])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("layers", [1, 2])
def test_edge_attention_matches_the_dense_oracle(mode, n_heads, layers):
    rng = np.random.default_rng(100 * n_heads + 10 * layers + (mode == "vanilla"))
    n, dim = 11, 8
    g = _random_graph(rng, n, mode)
    edges, bias = graph_edges(g), attention_bias(g)
    params = ParamSet()
    layer_heads = [init_heads(params, f"l{i}", n_heads, dim, dim // n_heads, rng)
                   for i in range(layers)]
    h = Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    probe = rng.standard_normal((n, dim))
    sparse = _forward_and_grads(
        lambda x, heads: graph_attention(x, edges, heads), h, layer_heads, probe)
    dense = _forward_and_grads(
        lambda x, heads: graph_attention_dense(x, bias, heads), h, layer_heads, probe)
    assert _max_rel_error(sparse[0], dense[0]) <= 1e-12
    for got, want in zip(sparse[1], dense[1]):
        assert _max_rel_error(got, want) <= 1e-12


def test_edge_dropout_matches_the_dense_oracle():
    # One uniform per edge, in CSR order, per head: scattered into (N, N)
    # scales, the same draws drive the dense reference.
    rng = np.random.default_rng(9)
    n, dim, rate = 10, 6, 0.4
    g = _random_graph(rng, n)
    edges = graph_edges(g)
    params = ParamSet()
    layer_heads = [init_heads(params, "l0", 2, dim, dim // 2, rng)]
    h = Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    probe = rng.standard_normal((n, dim))
    draws = np.random.default_rng(10).random((2, len(edges.src)))
    keep = np.zeros((2, n, n))
    keep[:, edges.src, edges.dst] = (draws >= rate) / (1.0 - rate)
    sparse = _forward_and_grads(
        lambda x, heads: graph_attention(x, edges, heads, dropout_rate=rate,
                                         rng=np.random.default_rng(10)),
        h, layer_heads, probe)
    dense = _forward_and_grads(
        lambda x, heads: graph_attention_dense(x, attention_bias(g), heads, keep=keep),
        h, layer_heads, probe)
    assert _max_rel_error(sparse[0], dense[0]) <= 1e-12
    for got, want in zip(sparse[1], dense[1]):
        assert _max_rel_error(got, want) <= 1e-12


# ---------------------------------------------------------------------------
# GRU: the sampler's array step, the fused unroll and the one-cell reference


def test_gru_zero_params_halves_hidden():
    params = ParamSet()
    gru = init_gru(params, "g", 3, 4, np.random.default_rng(8))
    for tensor in gru:
        tensor.values[:] = 0.0
    z = np.random.default_rng(9).standard_normal((2, 4))
    out = nn.gru_cell(np.zeros((2, 3)), z, gru)
    # u = r = 0.5 and candidate = 0, so the state simply halves.
    assert np.allclose(out, 0.5 * z, atol=1e-15)


def test_gru_gradients():
    params = ParamSet()
    gru = init_gru(params, "g", 3, 4, np.random.default_rng(10))
    x = Tensor(np.random.default_rng(11).standard_normal((3, 5, 3)), requires_grad=True)
    z = Tensor(np.random.default_rng(12).standard_normal((5, 4)), requires_grad=True)

    def op(*tensors):
        return gru_unroll(tensors[0], tensors[1], gru)

    assert grad_check(op, [x, z, *gru]) < 1e-6


def test_gru_state_stays_bounded():
    params = ParamSet()
    gru = init_gru(params, "g", 2, 6, np.random.default_rng(13))
    x = np.random.default_rng(14).standard_normal((1, 2))
    states = gru_unroll(Tensor(np.repeat(x[None], 200, axis=0)), Tensor(np.zeros((1, 6))), gru)
    # Convex mixing of a tanh candidate keeps every coordinate in (-1, 1).
    assert np.all(np.abs(states.values) < 1.0)


@pytest.mark.parametrize("batch, in_dim, hidden, x_grad", [
    (1, 3, 4, True), (5, 3, 4, False), (7, 6, 2, True), (32, 32, 32, True),
    (1, 1, 1, False),
])
def test_fused_gru_matches_composed_cell(batch, in_dim, hidden, x_grad):
    rng = np.random.default_rng(batch * 100 + in_dim * 10 + hidden)
    params = ParamSet()
    gru = init_gru(params, "g", in_dim, hidden, rng)
    for tensor in gru:
        tensor.values[:] = rng.standard_normal(tensor.shape)
    x = Tensor(rng.standard_normal((batch, in_dim)), requires_grad=x_grad)
    z = Tensor(rng.standard_normal((batch, hidden)), requires_grad=True)
    probe = Tensor(rng.standard_normal((batch, hidden)))
    results = []
    for cell in (gru_cell, gru_cell_composed):
        for tensor in (x, z, *gru):
            tensor.grad = None
        out = cell(x, z, gru)
        tsum(nn.mul(out, probe)).backward()
        results.append((out.values, [t.grad for t in (x, z, *gru)]))
    (fused, fused_grads), (composed, composed_grads) = results
    np.testing.assert_array_equal(fused, composed)
    for got, want in zip(fused_grads, composed_grads):
        if want is None:
            assert got is None
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fused_gru_is_one_tape_node():
    params = ParamSet()
    gru = init_gru(params, "g", 3, 4, np.random.default_rng(15))
    x = Tensor(np.ones((5, 2, 3)), requires_grad=True)
    out = gru_unroll(x, Tensor(np.zeros((2, 4))), gru)
    # x, h0 and the nine weights, with no intermediate node in between,
    # however many steps the unroll takes.
    assert out.shape == (5, 2, 4)
    assert len(out._parents) == 11
    assert all(not parent._parents for parent in out._parents)


@pytest.mark.parametrize("steps, batch, in_dim, hidden", [
    (1, 3, 4, 5), (3, 5, 3, 4), (24, 32, 16, 16), (7, 1, 1, 1),
])
def test_gru_unroll_matches_a_chain_of_cells(steps, batch, in_dim, hidden):
    # The same states, bit for bit, as one reference cell per step fed by its
    # own row gather, and the same gradients to 1e-12, with every location
    # id repeated across steps and rows and a non-zero starting state.
    rng = np.random.default_rng(steps * 1000 + batch)
    params = ParamSet()
    gru = init_gru(params, "g", in_dim, hidden, rng)
    for tensor in gru:
        tensor.values[:] = rng.standard_normal(tensor.shape)
    table = Tensor(rng.standard_normal((3, in_dim)), requires_grad=True)
    h0 = Tensor(rng.standard_normal((batch, hidden)), requires_grad=True)
    ids = rng.integers(0, 3, size=(batch, steps))
    probe = rng.standard_normal((steps, batch, hidden))
    leaves = (table, h0, *gru)

    def grads(loss):
        for tensor in leaves:
            tensor.grad = None
        loss.backward()
        return [t.grad for t in leaves]

    fused = gru_unroll(nn.gather_rows(table, ids.T), h0, gru)
    fused_grads = grads(tsum(nn.mul(fused, probe)))
    chain, z, loss = [], h0, None
    for l in range(steps):
        z = gru_cell(nn.gather_rows(table, ids[:, l]), z, gru)
        chain.append(z.values)
        term = tsum(nn.mul(z, probe[l]))
        loss = term if loss is None else nn.add(loss, term)
    chain_grads = grads(loss)

    np.testing.assert_array_equal(fused.values, np.stack(chain))
    state = h0.values
    for l in range(steps):      # the sampler's array step gives the same states
        state = nn.gru_cell(table.values[ids[:, l]], state, gru)
        np.testing.assert_array_equal(state, chain[l])
    for got, want in zip(fused_grads, chain_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(0, 2, 3), (2, 3)])
def test_gru_unroll_rejects_inputs_without_steps(shape):
    gru = init_gru(ParamSet(), "g", 3, 4, np.random.default_rng(16))
    with pytest.raises(ValueError, match="L >= 1"):
        gru_unroll(Tensor(np.zeros(shape)), Tensor(np.zeros((2, 4))), gru)

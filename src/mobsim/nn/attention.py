"""Multi-head attention over a location graph, on its edge list.

A graph's edges are stored once, in CSR order (sorted by source, each row
ending in the uniformly added self-loop), each edge with an additive logit
bias: log(edge weight) in weighted mode (zero weights floored), 0 in vanilla
mode and on the self-loop.  Every node owns at least its self-loop as an out-
and an in-edge, so every segment of the per-row softmax and of the per-node
gradient sums is non-empty.  Nothing is ever N x N: a head costs O(E d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParamSet, Tensor, _result, concat, dropout_mask

_LOG_FLOOR = 1e-30
# The leaky-ReLU slope of the attention logits, as in GAT (arXiv:1710.10903).
_SLOPE = 0.2


@dataclass
class HeadParams:
    """One attention head: a projection and a 2*d_head scoring vector."""

    weight: Tensor
    score: Tensor


def init_heads(params: ParamSet, prefix: str, n_heads: int, in_dim: int,
               head_dim: int, rng) -> list:
    heads = []
    for k in range(n_heads):
        w = params.register(f"{prefix}/h{k}/weight",
                            rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(in_dim, head_dim)))
        a = params.register(f"{prefix}/h{k}/score",
                            rng.normal(0.0, 1.0 / np.sqrt(2 * head_dim), size=(2 * head_dim, 1)))
        heads.append(HeadParams(w, a))
    return heads


@dataclass(frozen=True)
class GraphEdges:
    """A graph's attention edges, self-loops included, sorted by ``src``.

    ``starts`` holds each node's first out-edge; ``dst_order`` lists the
    edges sorted by ``dst`` (stable) and ``dst_starts`` each node's first
    in-edge within that order.
    """

    src: np.ndarray
    dst: np.ndarray
    log_weight: np.ndarray
    starts: np.ndarray
    dst_order: np.ndarray
    dst_starts: np.ndarray


def _segment_starts(ids: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=n))[:-1]))


def graph_edges(graph) -> GraphEdges:
    """The attention edges of a ``LocationGraph`` (unique, in-range edges)."""
    n = graph.n_locations
    loops = np.arange(n, dtype=np.int64)
    if graph.mode == "weighted":
        log_weight = np.log(np.maximum(graph.weight, _LOG_FLOOR))
    else:
        log_weight = np.zeros(len(graph.src))
    src = np.concatenate([graph.src, loops])
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = np.concatenate([graph.dst, loops])[order]
    return GraphEdges(src, dst, np.concatenate([log_weight, np.zeros(n)])[order],
                      _segment_starts(src, n), np.argsort(dst, kind="stable"),
                      _segment_starts(dst, n))


def _attention_head(h: Tensor, edges: GraphEdges, head: HeadParams, keep) -> Tensor:
    """One head as a single tape op: relu of the per-row softmax-weighted sum
    of the projected neighbours.  ``keep`` is the per-edge inverted-dropout
    scale of the attention weights, or None."""
    src, dst, starts = edges.src, edges.dst, edges.starts
    hv, w, a = h.values, head.weight.values, head.score.values
    head_dim = w.shape[1]
    wh = hv @ w
    a_src, a_dst = a[:head_dim, 0], a[head_dim:, 0]
    z = (wh @ a_src)[src] + (wh @ a_dst)[dst]
    dlrelu = np.where(z >= 0, 1.0, _SLOPE)
    logits = z * dlrelu + edges.log_weight
    ex = np.exp(logits - np.maximum.reduceat(logits, starts)[src])
    alpha = ex / np.add.reduceat(ex, starts)[src]
    used = alpha if keep is None else alpha * keep
    wh_dst = wh[dst]
    agg = np.add.reduceat(used[:, None] * wh_dst, starts)

    def backward(g):
        g_src = (g * (agg > 0))[src]
        d_used = (g_src * wh_dst).sum(axis=1)
        d_alpha = d_used if keep is None else d_used * keep
        d_z = alpha * (d_alpha - np.add.reduceat(alpha * d_alpha, starts)[src]) * dlrelu
        d_s = np.add.reduceat(d_z, starts)
        d_t = np.add.reduceat(d_z[edges.dst_order], edges.dst_starts)
        d_wh = (np.add.reduceat((used[:, None] * g_src)[edges.dst_order], edges.dst_starts)
                + np.outer(d_s, a_src) + np.outer(d_t, a_dst))
        d_a = np.concatenate([wh.T @ d_s, wh.T @ d_t])[:, None]
        return d_wh @ w.T, hv.T @ d_wh, d_a

    return _result(np.maximum(agg, 0.0), (h, head.weight, head.score), backward)


def graph_attention(h: Tensor, edges: GraphEdges, heads, dropout_rate: float = 0.0,
                    rng=None) -> Tensor:
    """Multi-head attention step; returns the concatenation over heads.

    Per head and edge i -> j: logit e_ij = leakyrelu(score . [W h_i || W h_j])
    + log w_ij, the leaky ReLU of slope 0.2; attention = softmax of the
    logits over i's out-edges; output_i = relu(sum_j attention_ij (h W)_j).
    Given a dropout stream ``rng`` and a positive ``dropout_rate``, attention
    weights are dropped per edge (inverted dropout, one draw per edge).
    """
    outputs = []
    for head in heads:
        keep = None
        if rng is not None and dropout_rate > 0.0:
            keep = dropout_mask(len(edges.src), dropout_rate, rng)
        outputs.append(_attention_head(h, edges, head, keep))
    return outputs[0] if len(outputs) == 1 else concat(outputs, axis=1)

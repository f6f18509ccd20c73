"""Multi-head attention over a location graph.

Works on a dense (N, N) additive bias built once per graph: 0 for an edge in
vanilla mode, log(edge weight) in weighted mode, 0 on the diagonal for the
uniformly added self-loop, and a large negative constant elsewhere so that
non-neighbours receive exactly zero attention after the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParamSet, Tensor, add, concat, constant, dropout, leakyrelu, matmul, narrow, relu, reshape, softmax

MASKED = -1e30
_LOG_FLOOR = 1e-30


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


def attention_bias(graph) -> np.ndarray:
    """Dense additive attention bias for a location graph."""
    n = graph.n_locations
    bias = np.full((n, n), MASKED)
    if graph.mode == "weighted":
        bias[graph.src, graph.dst] = np.log(np.maximum(graph.weight, _LOG_FLOOR))
    else:
        bias[graph.src, graph.dst] = 0.0
    np.fill_diagonal(bias, 0.0)  # self-loop weight 1 in either mode
    return bias


def graph_attention(h: Tensor, bias: np.ndarray, heads, slope: float = 0.2,
                    dropout_rate: float = 0.0, rng=None, training: bool = False) -> Tensor:
    """Multi-head attention step; returns the concatenation over heads.

    Per head: logits e_ij = leakyrelu(score . [W h_i || W h_j]) + bias_ij,
    attention = row softmax of the logits, output = relu(attention @ (h W)).
    """
    n = h.shape[0]
    bias_t = constant(bias)
    outputs = []
    for head in heads:
        head_dim = head.weight.shape[1]
        wh = matmul(h, head.weight)
        src_score = matmul(wh, narrow(head.score, 0, 0, head_dim))
        dst_score = matmul(wh, narrow(head.score, 0, head_dim, head_dim))
        logits = add(leakyrelu(add(src_score, reshape(dst_score, (1, n))), slope), bias_t)
        alpha = softmax(logits)
        if training and dropout_rate > 0.0:
            alpha = dropout(alpha, dropout_rate, rng)
        outputs.append(relu(matmul(alpha, wh)))
    return outputs[0] if len(outputs) == 1 else concat(outputs, axis=1)

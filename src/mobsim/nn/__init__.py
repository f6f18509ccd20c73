"""Minimal reverse-mode autodiff over float64 numpy arrays, plus the layers,
the Adam optimizer, and the checkpoint format built on it."""

from .core import (
    Tensor,
    ParamSet,
    no_grad,
    constant,
    add,
    mul,
    neg,
    sigmoid,
    concat,
    gather_rows,
    reshape,
    tmean,
    dropout,
    cross_entropy,
    binary_cross_entropy,
)
from .layers import linear, gru_cell, gru_unroll, init_gru
from .attention import GraphEdges, HeadParams, graph_attention, graph_edges, init_heads
from .optim import Adam
from .checkpoint import save_checkpoint, load_checkpoint

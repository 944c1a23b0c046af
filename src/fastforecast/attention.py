"""Softmax attention: the exact window function and the multi-head stage.

  * ``softmax_window`` — softmax(Q Kᵀ / √d_k) V over one window, or a stack
    of them, on numpy arrays, with its hand-derived backward pass (a window
    function, as ``favor.favor_bidirectional`` and
    ``favor.favor_unidirectional`` are); the scores are scaled, max-shifted,
    exponentiated and normalised in one L×L buffer per window.  It is
    ``transformer_mh``'s kernel and the exact side of ``bench``; the composed
    softmax oracles it is checked against, and the helper that records any
    window function as a tape node of its own, are in ``tests/reference.py``;
  * ``multi_head`` — self-attention over windows in numpy, all heads per call.

The per-row max subtraction leaves the result unchanged (softmax shift
invariance) while keeping exp() in range.  The max is treated as a constant
in the backward pass; the shift invariance makes that exact, not an
approximation.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError


def softmax_window(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray):
    """softmax(Q Kᵀ / √d_k) V over windows shaped (..., L, d): returns the output
    and its backward pass, which maps the output gradient to those of Q, K and V.

    Besides the output, which the caller's tape node checks, only the scaled
    scores are checked: with the max shift the attention matrix lies in
    [0, 1], and an unscaled product that overflows overflows after scaling
    too (1/√d_k <= 1)."""
    scale = 1.0 / math.sqrt(qd.shape[-1])
    attn = qd @ kd.swapaxes(-1, -2)
    attn *= scale
    T.check_finite(attn)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    T.note_buffers(attn)

    def backward(g):
        g_scores = g @ vd.swapaxes(-1, -2)  # softmax adjoint: A ⊙ (g_A - rowsum(g_A ⊙ A))
        g_scores -= (g_scores * attn).sum(axis=-1, keepdims=True)
        g_scores *= attn
        g_scores *= scale
        return (g_scores @ kd,
                (qd.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2),  # Kᵀ's gradient, transposed
                attn.swapaxes(-1, -2) @ g)

    return attn @ vd, backward


def multi_head(x: np.ndarray, w_qkv, w_o, window, heads: int, length: int):
    """Self-attention over the (B·L, d_model) rows of B windows of ``length``
    rows each, in numpy: returns the output, unchecked, and its backward pass.

    ``w_qkv`` holds each head's query, key and value projections, head by
    head: columns [3j·d_k, 3(j+1)·d_k) hold head j's q, k and v.  The model
    stores each block's matrix in this layout, so nothing is joined per
    call.  ``window`` (``softmax_window``, or ``favor.favor_bidirectional`` or
    ``favor.favor_unidirectional`` with its Ω bound) runs once per window on
    all heads, as (heads, L, d_k) views, and the output matrix mixes them.
    The backward pass maps the output gradient g to x's gradient and to one
    (left, right) pair of row arrays per weight, whose leftᵀ·right is its
    gradient: (x, QKV gradient) for ``w_qkv``, (heads' output, g) for ``w_o``.
    A caller running rows in chunks forms each over all rows at once."""
    if heads < 1 or w_qkv.shape[1] % (3 * heads):
        raise ConfigError("head count does not match weights")
    if x.shape[0] % length:
        raise ShapeError(f"{x.shape[0]} rows are not whole windows of length {length}")
    d_k = w_qkv.shape[1] // (3 * heads)
    qkv = x @ w_qkv
    att = np.empty((x.shape[0], heads * d_k))
    T.note_buffers(qkv, att)
    backwards = []

    def by_head(a, parts):  # (B·L, heads·parts·d_k) rows -> (B, parts, heads, L, d_k) view
        return a.reshape(-1, length, heads, parts, d_k).transpose(0, 3, 2, 1, 4)

    for qkv_b, att_b in zip(by_head(qkv, 3), by_head(att, 1)):
        att_b[0], o_backward = window(*qkv_b)
        backwards.append(o_backward)

    def backward(g):
        g_qkv = np.empty_like(qkv)
        for g_b, g_qkv_b, o_backward in zip(by_head(g @ w_o.T, 1), by_head(g_qkv, 3), backwards):
            g_qkv_b[...] = o_backward(g_b[0])
        return g_qkv @ w_qkv.T, [(x, g_qkv), (att, g)]

    return att @ w_o, backward

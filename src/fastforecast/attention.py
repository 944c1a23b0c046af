"""Softmax attention kernels and the multi-head node.

  * ``softmax_window`` — softmax(Q Kᵀ / √d_k) V over one window, on numpy
    arrays, with its hand-derived backward pass (a window function, as
    ``favor.favor_window`` is); the scores are scaled, max-shifted,
    exponentiated and normalised in one L×L buffer;
  * ``exact_bidirectional`` — the same map composed from tensor primitives,
    through A = exp(Q Kᵀ / √d_k) and its row-sum normaliser: the oracle the
    linear-attention kernel is checked against;
  * ``exact_unidirectional`` — the causal oracle: A is masked to its lower
    triangle before normalising, so row i attends only to positions <= i;
  * ``multi_head`` — self-attention over a batch of windows.

All stabilise with a per-row max subtraction, which leaves the result
unchanged (softmax shift invariance) while keeping exp() in range.  The max
is treated as a constant in the backward pass; the shift invariance makes
that exact, not an approximation.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> None:
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("attention expects rank-2 Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query width {q.shape[1]} != key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key count {k.shape[0]} != value count {v.shape[0]}")
    if q.shape[0] != k.shape[0]:
        raise ShapeError("self-attention requires equal sequence lengths")


def softmax_window(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray):
    """softmax(Q Kᵀ / √d_k) V over one window: returns the output and its
    backward pass, which maps the output gradient to those of Q, K and V.

    Besides the output, which the caller's tape node checks, only the scaled
    scores are checked: with the max shift the attention matrix lies in
    [0, 1], and an unscaled product that overflows overflows after scaling
    too (1/√d_k <= 1)."""
    scale = 1.0 / math.sqrt(qd.shape[1])
    attn = qd @ kd.T
    attn *= scale
    T.check_finite(attn)
    attn -= attn.max(axis=1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=1, keepdims=True)
    T.note_buffers(attn)

    def backward(g):
        g_scores = g @ vd.T  # softmax adjoint: A ⊙ (g_A - rowsum(g_A ⊙ A))
        g_scores -= (g_scores * attn).sum(axis=1, keepdims=True)
        g_scores *= attn
        g_scores *= scale
        return (g_scores @ kd,
                (qd.T @ g_scores).T,  # Kᵀ's gradient, transposed
                attn.T @ g)

    return attn @ vd, backward


def exact_bidirectional(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """D⁻¹ A V with A = exp(Q Kᵀ / √d_k), D = diag(A·1)."""
    _check_qkv(q, k, v)
    d_k = q.shape[1]
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d_k))
    row_max = Tensor(scores.data.max(axis=1, keepdims=True))  # constant shift
    a = T.exp(T.sub(scores, row_max))
    return T.mul(T.matmul(a, v), T.recip(T.tsum(a, axis=1)))


def exact_unidirectional(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Causal form: A is masked below the diagonal (inclusive) before normalising."""
    _check_qkv(q, k, v)
    length, d_k = q.shape
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d_k))
    mask = np.tril(np.ones((length, length)))
    # stabilise with the max over the *visible* entries of each row; masked
    # entries are pushed to exp(-800) = 0 exactly, so they never overflow
    # and contribute nothing to the row sums
    visible = np.where(mask > 0, scores.data, -np.inf)
    row_max = Tensor(visible.max(axis=1, keepdims=True))
    shifted = T.sub(scores, row_max)
    a = T.exp(T.sub(T.mul(shifted, Tensor(mask)), Tensor((1.0 - mask) * 800.0)))
    return T.mul(T.matmul(a, v), T.recip(T.tsum(a, axis=1)))


def multi_head(x: Tensor, w_qkv: Tensor, w_o: Tensor, kernels, length: int) -> Tensor:
    """Self-attention over the (B·L, d_model) rows of B windows of ``length``
    rows each, as three tape nodes.

    ``w_qkv`` joins each head's query, key and value projections, head by
    head: columns [3j·d_k, 3(j+1)·d_k) hold head j's q, k and v.  Head j
    applies the window function ``kernels[j]`` (``softmax_window`` or a
    ``favor.favor_window``) to each window's projections, and the output
    matrix mixes the heads.  Each window's backward pass is kept only while
    a tape records, so a forward pass without one holds a single window's
    buffers at a time."""
    heads = len(kernels)
    if not heads or w_qkv.shape[1] % (3 * heads):
        raise ConfigError("head count does not match weights")
    d_k = w_qkv.shape[1] // (3 * heads)
    qkv = T.matmul(x, w_qkv)
    qd = qkv.data
    out = np.empty((qd.shape[0], heads * d_k))
    keep = qkv.requires_grad and T._active_tape() is not None
    backwards = []
    for lo in range(0, len(qd), length):
        rows = slice(lo, lo + length)
        for j, kernel in enumerate(kernels):
            o, o_backward = kernel(*np.split(qd[rows, 3 * j * d_k:3 * (j + 1) * d_k], 3, axis=1))
            out[rows, j * d_k:(j + 1) * d_k] = o
            if keep:
                backwards.append((rows, j, o_backward))

    def backward(g):
        g_qkv = np.empty_like(qd)
        for rows, j, o_backward in backwards:
            g_qkv[rows, 3 * j * d_k:3 * (j + 1) * d_k] = np.hstack(
                o_backward(g[rows, j * d_k:(j + 1) * d_k]))
        return (g_qkv,)

    return T.matmul(T._make((qkv,), out, backward), w_o)

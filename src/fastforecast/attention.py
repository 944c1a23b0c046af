"""Exact softmax attention: the reference kernels and the multi-head wrapper.

Three equivalent-or-related forms are provided:
  * ``scaled_dot_attention`` — softmax(Q Kᵀ / √d_k) V, one fused tape node
    with the same arithmetic as the composition of tensor primitives, so the
    two agree bit for bit;
  * ``exact_bidirectional``  — the same map through the explicit attention
    matrix A = exp(Q Kᵀ / √d_k) and its row-sum normaliser, kept as a second,
    independently coded route (it is the oracle the linear-attention kernel
    is checked against);
  * ``exact_unidirectional`` — the causal variant: A is masked to its lower
    triangle before normalising, so row i attends only to positions <= i.

All three stabilise with a per-row max subtraction, which leaves the result
unchanged (softmax shift invariance) while keeping exp() in range.  The max
is treated as a constant in the backward pass; the shift invariance makes
that exact, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass
class AttentionWeights:
    """Per-head projections plus the output matrix."""

    w_q: list  # h tensors, each (d_model, d_k)
    w_k: list  # h tensors, each (d_model, d_k)
    w_v: list  # h tensors, each (d_model, d_v)
    w_o: Tensor  # (h*d_v, d_model)

    def check(self, heads: int) -> None:
        """The weights fit each other and ``heads`` heads."""
        if not heads or not (len(self.w_q) == len(self.w_k) == len(self.w_v) == heads):
            raise ConfigError("head count does not match weights")
        d_model, d_k, d_v = self.w_o.shape[1], self.w_q[0].shape[1], self.w_v[0].shape[1]
        for w, d in ((self.w_q, d_k), (self.w_k, d_k), (self.w_v, d_v)):
            for t in w:
                if t.shape != (d_model, d):
                    raise ConfigError(f"projection shape {t.shape} != {(d_model, d)}")
        if self.w_o.shape[0] != heads * d_v:
            raise ConfigError("output projection shape mismatch")


def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> None:
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("attention expects rank-2 Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query width {q.shape[1]} != key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key count {k.shape[0]} != value count {v.shape[0]}")
    if q.shape[0] != k.shape[0]:
        raise ShapeError("self-attention requires equal sequence lengths")


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q Kᵀ / √d_k) V as one tape node.

    The scores are scaled, max-shifted, exponentiated and normalised in one
    L×L buffer.  Besides the output, only the scaled scores are checked: with
    the max shift the attention matrix lies in [0, 1], and an unscaled
    product that overflows overflows after scaling too (1/√d_k <= 1)."""
    _check_qkv(q, k, v)
    scale = 1.0 / math.sqrt(q.shape[1])
    qd, kd, vd = q.data, k.data, v.data
    attn = qd @ kd.T
    attn *= scale
    T.check_finite(attn)
    attn -= attn.max(axis=1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=1, keepdims=True)
    T.note_buffers(attn)

    def backward(g):
        g_scores = None
        if q.requires_grad or k.requires_grad:
            g_scores = g @ vd.T  # softmax adjoint: A ⊙ (g_A - rowsum(g_A ⊙ A))
            g_scores -= (g_scores * attn).sum(axis=1, keepdims=True)
            g_scores *= attn
            g_scores *= scale
        return (g_scores @ kd if q.requires_grad else None,
                (qd.T @ g_scores).T if k.requires_grad else None,  # Kᵀ's gradient, transposed
                attn.T @ g if v.requires_grad else None)

    return T._make((q, k, v), attn @ vd, backward)


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


def multi_head(x: Tensor, w: AttentionWeights, kernels) -> Tensor:
    """Self-attention over one (L, d_model) window: head j applies
    ``kernels[j]`` to its projections of x, and the output matrix mixes the
    concatenated heads."""
    w.check(len(kernels))  # T.matmul rejects an x of the wrong shape
    heads = [kernel(T.matmul(x, wq), T.matmul(x, wk), T.matmul(x, wv))
             for kernel, wq, wk, wv in zip(kernels, w.w_q, w.w_k, w.w_v)]
    return T.matmul(T.concat(heads, axis=1), w.w_o)

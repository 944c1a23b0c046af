"""Softmax attention: the exact window function and the multi-head stage.

  * ``softmax_window`` — softmax(Q Kᵀ / √d_k) V over one window, or a stack
    of them, on numpy arrays, with its hand-derived backward pass (a window
    function, as ``favor.favor_bidirectional`` and
    ``favor.favor_unidirectional`` are).  It computes D⁻¹(E·V), E =
    exp(Q Kᵀ / √d_k − rowmax) and D = diag(E·1): the scores are scaled,
    max-shifted and exponentiated in place into E, and the L×L matrix is
    never divided; only the (L, d_v) product E·V is scaled by 1/rowsum(E).
    Above ``TILE_ROWS`` rows it runs head by head, and its passes over E run
    a tile of ``TILE_ROWS`` rows at a time, so each tile stays in cache
    through all of them.  It is ``transformer_mh``'s kernel and the exact
    side of ``bench``; the composed softmax oracles it is checked against,
    and the helper that records any window function as a tape node of its
    own, are in ``tests/reference.py``;
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

# rows of E each pass over it runs at a time: 1 MB of scores at L = 512
TILE_ROWS = 256


def softmax_window(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray):
    """softmax(Q Kᵀ / √d_k) V over windows shaped (..., L, d): returns the output
    and its backward pass, which maps the output gradient to those of Q, K and V.

    It does the floating-point operations of ``exact_bidirectional`` in
    ``tests/reference.py`` in the same order, and its backward pass sums each
    gradient in the order that composition's tape sums it.  Q·Kᵀ and E·V are
    one gemm per head, the calls the composition makes: a gemm over a subset
    of rows may round differently.  Up to ``TILE_ROWS`` rows the whole stack
    of heads runs as one tile; longer windows run head by head, and scale,
    check, shift, exponentiate and sum E in tiles of ``TILE_ROWS`` rows, each
    in cache through all five passes.  The output is E·V scaled in place, and
    the backward pass, which needs E·V, forms it again with the same gemm, so
    a window keeps only E and 1/rowsum(E).

    Besides the output, which the caller's tape node checks, only the scaled
    scores are checked: with the max shift E lies in [0, 1] with a 1 in every
    row, so its row sums lie in [1, L] and the output is finite exactly when
    E·V is; an unscaled product that overflows overflows after scaling too
    (1/√d_k <= 1)."""
    length = qd.shape[-2]
    scale = 1.0 / math.sqrt(qd.shape[-1])
    e = np.empty(qd.shape[:-1] + (length,))
    out = np.empty(qd.shape[:-1] + vd.shape[-1:])
    row_sum = np.empty(qd.shape[:-1] + (1,))
    T.note_buffers(e)
    kt = kd.swapaxes(-1, -2)
    for h in [()] if length <= TILE_ROWS else np.ndindex(*qd.shape[:-2]):
        np.matmul(qd[h], kt[h], out=e[h])
        for start in range(0, length, TILE_ROWS):
            rows = slice(start, start + TILE_ROWS)
            tile = e[h][..., rows, :]
            tile *= scale
            T.check_finite(tile)
            tile -= tile.max(axis=-1, keepdims=True)
            np.exp(tile, out=tile)
            np.sum(tile, axis=-1, keepdims=True, out=row_sum[h][..., rows, :])
        np.matmul(e[h], vd[h], out=out[h])
    recip = 1.0 / row_sum
    out *= recip

    def backward(g):
        g_ev = g * recip
        g_sum = -(g * (e @ vd)).sum(axis=-1, keepdims=True) * recip * recip
        g_scores = g_ev @ vd.swapaxes(-1, -2)
        g_scores += g_sum
        g_scores *= e
        g_scores *= scale
        return (g_scores @ kd,
                (qd.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2),  # Kᵀ's gradient, transposed
                e.swapaxes(-1, -2) @ g_ev)

    return out, backward


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

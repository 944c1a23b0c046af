"""Reference primitives, composed oracles and helpers that only the tests run.

Each primitive is one tape node built with ``T._make``, as the package's own
primitives are, and passes the same finite-difference checks
(``test_tensor.PRIMITIVE_CASES``).  The compositions built from them are the
oracles the fused kernels are held to:

  * ``softmax_rows`` composes exact attention in ``test_fused_kernels.py``,
    and ``sqrt`` the layer norm (``composed_layer_norm``);
  * ``exp`` and ``recip`` compose φ and the FAVOR+ division in
    ``test_favor.py``, and the layer norm's inverse standard deviation;
  * ``sigmoid``, ``tanh``, ``transpose`` and ``concat`` compose
    ``composed_lstm_cell``, one LSTM step on tensors: the cell
    ``test_lstm.py`` folds over as the reference for each direction of
    ``fastforecast.lstm.bilstm_forward_steps``; ``concat`` also joins the
    folds' steps and directions, the rows of the causal FAVOR+ reference in
    ``test_favor.py`` and the per-head weights of a gradient check in
    ``test_attention_exact.py``; ``sigmoid`` is ½·tanh(x·½) + ½, the form
    ``lstm_cell`` computes, held within 2^-52 of ``_stable_sigmoid``, the
    two-branch form 1/(1+e^-x), e^x/(1+e^x), in ``test_lstm.py``;
  * ``exact_bidirectional`` and ``exact_unidirectional`` are softmax attention
    composed through A = exp(Q Kᵀ / √d_k) and its row-sum normaliser: the
    oracles FAVOR+ is measured against, and the model's
    ``attention.softmax_window`` checked against.

Both oracles stabilise with a per-row max subtraction, treated as a constant
in the backward pass (softmax shift invariance makes that exact).

``window_node`` records any numpy function of three arrays that returns
``(out, backward)`` as one tape node on three tensors: the model's window
functions (``softmax_window``, ``favor_bidirectional``,
``favor_unidirectional``) on rank-2 Q, K and V, and the LSTM direction
``lstm_sequence`` on a time-major (L, batch, input) sequence and a (W, b)
pair.  ``stage_node`` does the same for the encoder block's numpy stages
(``multi_head``, ``layer_norm`` and ``feed_forward``), which return each
weight's gradient as a pair of row arrays.

``composed_encoder_block`` is the encoder block as the model composed it
before the block became one tape node: ``composed_multi_head`` (the QKV
product, one node running the window function on every window, the output
product), a ``mul`` per dropout mask, an ``add`` per residual, and the
layer norm and feed-forward sublayer composed from primitives
(``composed_layer_norm``, ``composed_feed_forward``).  It is the oracle the
model's block node is held to, bit for bit.
"""

import math

import numpy as np

import fastforecast.tensor as T
from fastforecast.errors import ConfigError, ShapeError
from fastforecast.lstm import _sizes
from fastforecast.model import LAYER_NORM_EPS
from fastforecast.tensor import Tensor


def check_qkv(q, k, v):
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("attention expects rank-2 Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query width {q.shape[1]} != key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key count {k.shape[0]} != value count {v.shape[0]}")
    if q.shape[0] != k.shape[0]:
        raise ShapeError("self-attention requires equal sequence lengths")


def window_node(window, check=check_qkv):
    """``window(ad, bd, cd, *args)``, which returns ``(out, backward)``, as a
    function of tensors a, b and c (and the same trailing arguments) that
    records one tape node; ``check``, unless None, checks the three tensors
    first."""
    def node(a, b, c, *args):
        if check is not None:
            check(a, b, c)
        return T._make((a, b, c), *window(a.data, b.data, c.data, *args))
    return node


def stage_node(stage):
    """``stage(xd, *weights, *args)``, a numpy stage of the encoder block whose
    backward pass returns x's gradient and one (left, right) pair per weight,
    as a function of the tensor x, the weight tensors and the same trailing
    arguments that records one tape node: each weight's gradient is leftᵀ·right,
    or right summed to the weight's shape when left is None."""
    def node(x, *args):
        weights = [a for a in args if isinstance(a, Tensor)]
        out, backward = stage(x.data, *(w.data for w in weights), *args[len(weights):])

        def node_backward(g):
            g_x, pairs = backward(g)
            return (g_x, *(T._sum_to(w, right) if left is None else left.T @ right
                           for w, (left, right) in zip(weights, pairs, strict=True)))

        return T._make((x, *weights), out, node_backward)
    return node


def softmax_rows(x):
    """Row-wise softmax with per-row max subtraction, as one primitive."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return T._make((x,), out, backward)


def sqrt(x):
    """Elementwise square root, as one primitive."""
    r = np.sqrt(x.data)
    return T._make((x,), r, lambda g: (g * (0.5 / r),))


def exp(x):
    """Elementwise exponential, as one primitive; an overflow raises FiniteError."""
    with np.errstate(over="ignore"):
        e = np.exp(x.data)
    return T._make((x,), e, lambda g: (g * e,))


def recip(x):
    """Elementwise reciprocal, as one primitive."""
    r = 1.0 / x.data
    return T._make((x,), r, lambda g: (-g * r * r,))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; exp never overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(x):
    """σ(x) = ½·tanh(x·½) + ½, in the order ``lstm_cell`` computes it on the
    pre-activations it halves, as one primitive."""
    s = np.tanh(x.data * 0.5) * 0.5 + 0.5
    return T._make((x,), s, lambda g: (g * s * (1.0 - s),))


def tanh(x):
    t = np.tanh(x.data)
    return T._make((x,), t, lambda g: (g * (1.0 - t * t),))


def transpose(x):
    T._require_2d("transpose", x)
    return T._make((x,), x.data.T, lambda g: (g.T,), check=False)


def concat(parts, axis):
    if axis not in (0, 1):
        raise ShapeError("concat supports axis 0 or 1")
    parts = tuple(parts)
    T._require_2d("concat", *parts)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def backward(g):
        return np.split(g, splits, axis=axis)

    return T._make(parts, np.concatenate([p.data for p in parts], axis=axis),
                   backward, check=False)


def composed_lstm_cell(x, h, c, w, b):
    """One step of the recurrence for a (batch, input) slice, from the
    (batch, hidden) previous states h and c; returns the new (h, c)."""
    hidden, input_size = _sizes(w.data, b.data)
    if x.data.ndim != 2 or x.shape[1] != input_size:
        raise ShapeError(f"cell input width {x.shape} != {input_size}")
    if h.shape != (x.shape[0], hidden):
        raise ShapeError("previous state does not match batch/hidden sizes")
    z = concat([h, x], axis=1)  # (batch, hidden+input)
    b_rows = transpose(b)

    def gate(k, squash):
        rows = np.arange(k * hidden, (k + 1) * hidden)
        return squash(T.add(T.matmul(z, transpose(T.take_rows(w, rows))),
                            transpose(T.take_rows(b_rows, rows))))

    f = gate(0, sigmoid)
    i = gate(1, sigmoid)
    c_tilde = gate(2, tanh)
    o = gate(3, sigmoid)
    c = T.add(T.mul(f, c), T.mul(i, c_tilde))
    return T.mul(o, tanh(c)), c


def exact_bidirectional(q, k, v):
    """D⁻¹ A V with A = exp(Q Kᵀ / √d_k), D = diag(A·1)."""
    check_qkv(q, k, v)
    d_k = q.shape[1]
    scores = T.mul(T.matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    row_max = Tensor(scores.data.max(axis=1, keepdims=True))  # constant shift
    a = exp(T.sub(scores, row_max))
    return T.mul(T.matmul(a, v), recip(T.tsum(a, axis=1)))


def exact_unidirectional(q, k, v):
    """Causal form: A is masked below the diagonal (inclusive) before normalising."""
    check_qkv(q, k, v)
    length, d_k = q.shape
    scores = T.mul(T.matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    mask = np.tril(np.ones((length, length)))
    # stabilise with the max over the *visible* entries of each row; masked
    # entries are pushed to exp(-800) = 0 exactly, so they never overflow
    # and contribute nothing to the row sums
    visible = np.where(mask > 0, scores.data, -np.inf)
    row_max = Tensor(visible.max(axis=1, keepdims=True))
    shifted = T.sub(scores, row_max)
    a = exp(T.sub(T.mul(shifted, Tensor(mask)), Tensor((1.0 - mask) * 800.0)))
    return T.mul(T.matmul(a, v), recip(T.tsum(a, axis=1)))


def composed_multi_head(x, w_qkv, w_o, window, heads, length):
    """Self-attention over the rows of B windows of ``length`` rows each, as
    three tape nodes: x·W_qkv, one node that runs ``window`` once per window
    on all heads, and the product with W_o."""
    if heads < 1 or w_qkv.shape[1] % (3 * heads):
        raise ConfigError("head count does not match weights")
    if x.shape[0] % length:
        raise ShapeError(f"{x.shape[0]} rows are not whole windows of length {length}")
    d_k = w_qkv.shape[1] // (3 * heads)
    qkv = T.matmul(x, w_qkv)
    qd = qkv.data
    out = np.empty((qd.shape[0], heads * d_k))
    keep = qkv.requires_grad and T._active_tape() is not None
    backwards = []

    def by_head(a, parts):  # (B·L, heads·parts·d_k) rows -> (B, parts, heads, L, d_k) view
        return a.reshape(-1, length, heads, parts, d_k).transpose(0, 3, 2, 1, 4)

    for qkv_b, out_b in zip(by_head(qd, 3), by_head(out, 1)):
        o, o_backward = window(*qkv_b)
        out_b[0] = o
        if keep:
            backwards.append(o_backward)

    def backward(g):
        g_qkv = np.empty_like(qd)
        for g_b, g_qkv_b, o_backward in zip(by_head(g, 1), by_head(g_qkv, 3), backwards):
            g_qkv_b[...] = o_backward(g_b[0])
        return (g_qkv,)

    return T.matmul(T._make((qkv,), out, backward), w_o)


def composed_layer_norm(x, gain, bias):
    n = x.shape[1]
    mean = T.mul(T.tsum(x, axis=1), 1.0 / n)
    centered = T.sub(x, mean)
    var = T.mul(T.tsum(T.mul(centered, centered), axis=1), 1.0 / n)
    inv = recip(sqrt(T.add(var, LAYER_NORM_EPS)))
    return T.add(T.mul(T.mul(centered, inv), gain), bias)


def composed_feed_forward(x, w1, b1, w2, b2):
    hidden = T.relu(T.add(T.matmul(x, w1), b1))
    return T.add(T.matmul(hidden, w2), b2)


def composed_encoder_block(x, w_qkv, w_o, g1, b1, w1, c1, w2, c2, g2, b2, window, heads,
                           length, masks):
    """The encoder block on tensors, node by node: attention, dropout, residual
    and layer norm, then feed-forward, dropout, residual and layer norm.  The
    weights come in ``model.BLOCK_PARAMS`` order; ``masks`` holds the
    attention's and the feed-forward sublayer's dropout masks, each None when
    dropout is off."""
    def dropout(a, mask):
        return a if mask is None else T.mul(a, Tensor(mask))

    a = dropout(composed_multi_head(x, w_qkv, w_o, window, heads, length), masks[0])
    y = composed_layer_norm(T.add(x, a), g1, b1)
    f = dropout(composed_feed_forward(y, w1, c1, w2, c2), masks[1])
    return composed_layer_norm(T.add(y, f), g2, b2)

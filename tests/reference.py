"""Reference primitives, composed oracles and helpers that only the tests run.

Each primitive is one tape node built with ``T._make``, as the package's own
primitives are, and passes the same finite-difference checks
(``test_tensor.PRIMITIVE_CASES``).  The compositions built from them are the
oracles the fused kernels are held to:

  * ``softmax_rows`` and ``sqrt`` compose exact attention and the layer norm
    in ``test_fused_kernels.py``;
  * ``exp`` and ``recip`` compose φ and the FAVOR+ division in
    ``test_favor.py``, and the layer norm's inverse standard deviation;
  * ``sigmoid``, ``tanh``, ``transpose`` and ``concat`` compose
    ``composed_lstm_cell``, one LSTM step on tensors: the cell
    ``test_lstm.py`` folds over as the reference for each direction of
    ``fastforecast.lstm.bilstm_forward_steps``; ``concat`` also joins the
    folds' steps and directions, the rows of the causal FAVOR+ reference in
    ``test_favor.py`` and the per-head weights of a gradient check in
    ``test_attention_exact.py``;
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
pair.
"""

import math

import numpy as np

import fastforecast.tensor as T
from fastforecast.errors import ShapeError
from fastforecast.lstm import _sizes, _stable_sigmoid
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


def sigmoid(x):
    s = _stable_sigmoid(x.data)
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

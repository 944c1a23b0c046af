"""Reference primitives and composed oracles that only the tests run.

Each primitive is one tape node built with ``T._make``, as the package's own
primitives are, and passes the same finite-difference checks
(``test_tensor.PRIMITIVE_CASES``).  The compositions built from them are the
oracles the fused kernels are held to:

  * ``softmax_rows`` and ``sqrt`` compose exact attention and the layer norm
    in ``test_fused_kernels.py``;
  * ``exp`` and ``recip`` compose φ and the FAVOR+ division in
    ``test_favor.py``, and the layer norm's inverse standard deviation;
  * ``exact_bidirectional`` and ``exact_unidirectional`` are softmax attention
    composed through A = exp(Q Kᵀ / √d_k) and its row-sum normaliser: the
    oracles FAVOR+ is measured against, and the model's
    ``attention.softmax_window`` checked against.

Both oracles stabilise with a per-row max subtraction, treated as a constant
in the backward pass (softmax shift invariance makes that exact).
"""

import math

import numpy as np

import fastforecast.tensor as T
from fastforecast.attention import _check_qkv
from fastforecast.tensor import Tensor


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


def exact_bidirectional(q, k, v):
    """D⁻¹ A V with A = exp(Q Kᵀ / √d_k), D = diag(A·1)."""
    _check_qkv(q, k, v)
    d_k = q.shape[1]
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d_k))
    row_max = Tensor(scores.data.max(axis=1, keepdims=True))  # constant shift
    a = exp(T.sub(scores, row_max))
    return T.mul(T.matmul(a, v), recip(T.tsum(a, axis=1)))


def exact_unidirectional(q, k, v):
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
    a = exp(T.sub(T.mul(shifted, Tensor(mask)), Tensor((1.0 - mask) * 800.0)))
    return T.mul(T.matmul(a, v), recip(T.tsum(a, axis=1)))

"""The encoder block's fused kernels against their compositions of primitives.

Exact attention (``attention.softmax_window``, one tape node as
``conftest.scaled_dot_attention``), ``Model._layer_norm`` and
``Model._feed_forward`` each record one tape node.  They do the
floating-point operations of the compositions below in the same order, and
their backward passes sum each gradient in the order the tape sums it, so
forward values and every input gradient agree bit for bit.  Each node checks
fewer intermediates than its composition, yet raises FiniteError on exactly
the inputs the composition rejects: the ``TestFiniteChecks`` cases are
inputs on which only one kept check can fire.  ``attention.multi_head``
over B windows returns the rows of B single-window calls bit for bit.
"""

import functools
import math

import numpy as np
import pytest

import fastforecast.tensor as T
from fastforecast.attention import multi_head, softmax_window
from fastforecast.errors import FiniteError
from fastforecast.favor import FavorConfig, draw_features, favor_window
from fastforecast.model import LAYER_NORM_EPS, ModelSpec, build
from fastforecast.tensor import GradTape, Tensor

from conftest import scaled_dot_attention

FFN_NAMES = ("w1", "b1", "w2", "b2")


# ---------------------------------------------------------------------------
# reference primitives and compositions
# ---------------------------------------------------------------------------

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


def composed_scaled_dot_attention(q, k, v):
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    return T.matmul(softmax_rows(scores), v)


def composed_layer_norm(x, gain, bias):
    n = x.shape[1]
    mean = T.mul(T.tsum(x, axis=1), 1.0 / n)
    centered = T.sub(x, mean)
    var = T.mul(T.tsum(T.mul(centered, centered), axis=1), 1.0 / n)
    inv = T.recip(sqrt(T.add(var, LAYER_NORM_EPS)))
    return T.add(T.mul(T.mul(centered, inv), gain), bias)


def composed_feed_forward(x, w1, b1, w2, b2):
    hidden = T.relu(T.add(T.matmul(x, w1), b1))
    return T.add(T.matmul(hidden, w2), b2)


def _model():
    return build(ModelSpec(variant="transformer_mh", window=1, n_features=1,
                           d_model=1, heads=1, blocks=1, dropout=0.0))


def fused_layer_norm(x, gain, bias):
    return _model()._layer_norm(x, gain, bias)


def fused_feed_forward(x, w1, b1, w2, b2):
    model = _model()
    model.params.update((f"block0.ffn.{name}", t)
                        for name, t in zip(FFN_NAMES, (w1, b1, w2, b2)))
    return model._feed_forward(x, 0)


# ---------------------------------------------------------------------------
# bitwise agreement
# ---------------------------------------------------------------------------

def run(fn, arrays, needs_grad, weights):
    """Output, input gradients and tape length of sum(fn(*inputs) ⊙ weights)."""
    leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)]
    with GradTape() as tape:
        out = fn(*leaves)
    nodes = len(tape)
    with GradTape() as tape:
        out = fn(*leaves)
        loss = T.tsum(T.mul(out, Tensor(weights)))
    tape.backward(loss)
    return out.data, [t.grad for t in leaves if t.requires_grad], nodes


def assert_bitwise(fused, composed, arrays, needs_grad, seed, weights=None):
    """Forward values and every input gradient are equal byte for byte; the
    output gradient is ``weights``, random from ``seed`` if not given."""
    if weights is None:
        out_shape = composed(*[Tensor(a) for a in arrays]).shape
        weights = np.random.default_rng(seed).standard_normal(out_shape)
    out_f, grads_f, nodes = run(fused, arrays, needs_grad, weights)
    out_c, grads_c, _ = run(composed, arrays, needs_grad, weights)
    assert nodes == 1
    assert out_f.tobytes() == out_c.tobytes()
    assert len(grads_f) == len(grads_c) == sum(needs_grad)
    for g_f, g_c in zip(grads_f, grads_c):
        assert g_f.shape == g_c.shape
        assert np.ascontiguousarray(g_f).tobytes() == np.ascontiguousarray(g_c).tobytes()


ATTENTION_SHAPES = [(1, 1, 1), (1, 3, 2), (2, 1, 1), (5, 3, 3), (7, 4, 2), (64, 16, 16)]
LAYER_NORM_SHAPES = [(1, 1), (1, 4), (4, 1), (5, 8), (2048, 64)]
FEED_FORWARD_SHAPES = [(1, 1, 1), (1, 4, 16), (5, 3, 7), (512, 64, 256)]
# every input, then each input alone, then all but the first
GRAD_PATTERNS = {
    "all": lambda n: [True] * n,
    "first": lambda n: [True] + [False] * (n - 1),
    "last": lambda n: [False] * (n - 1) + [True],
    "not_first": lambda n: [False] + [True] * (n - 1),
}


def shape_id(shape):
    return "x".join(map(str, shape))


@pytest.mark.parametrize("pattern", GRAD_PATTERNS)
@pytest.mark.parametrize("shape", ATTENTION_SHAPES, ids=shape_id)
def test_attention_matches_composition_bitwise(shape, pattern):
    length, d_k, d_v = shape
    rng = np.random.default_rng(length * 100 + d_k)
    arrays = [rng.standard_normal((length, d_k)) * 2, rng.standard_normal((length, d_k)) * 2,
              rng.standard_normal((length, d_v))]
    assert_bitwise(scaled_dot_attention, composed_scaled_dot_attention, arrays,
                   GRAD_PATTERNS[pattern](3), seed=1)


@pytest.mark.parametrize("pattern", GRAD_PATTERNS)
@pytest.mark.parametrize("shape", LAYER_NORM_SHAPES, ids=shape_id)
def test_layer_norm_matches_composition_bitwise(shape, pattern):
    rows, width = shape
    rng = np.random.default_rng(rows * 100 + width)
    arrays = [rng.standard_normal((rows, width)) * 3 + 1, 1 + rng.standard_normal((1, width)),
              rng.standard_normal((1, width))]
    assert_bitwise(fused_layer_norm, composed_layer_norm, arrays,
                   GRAD_PATTERNS[pattern](3), seed=2)


@pytest.mark.parametrize("pattern", GRAD_PATTERNS)
@pytest.mark.parametrize("shape", FEED_FORWARD_SHAPES, ids=shape_id)
def test_feed_forward_matches_composition_bitwise(shape, pattern):
    rows, width, hidden = shape
    rng = np.random.default_rng(rows * 100 + width)
    arrays = [rng.standard_normal((rows, width)), rng.standard_normal((width, hidden)) * 0.5,
              rng.standard_normal((1, hidden)) * 0.5, rng.standard_normal((hidden, width)) * 0.5,
              rng.standard_normal((1, width))]
    assert_bitwise(fused_feed_forward, composed_feed_forward, arrays,
                   GRAD_PATTERNS[pattern](5), seed=3)


def test_layer_norm_constant_rows_match_composition_bitwise():
    """Constant rows centre to exact zeros, so signed zeros reach the gradients."""
    x = np.array([[2.0, 2.0, 2.0], [-1.5, -1.5, -1.5], [0.0, 1.0, -1.0]])
    arrays = [x, np.array([[1.0, -2.0, 0.5]]), np.array([[0.0, 1.0, -1.0]])]
    assert_bitwise(fused_layer_norm, composed_layer_norm, arrays, [True] * 3, seed=4)


def test_layer_norm_width_one_signed_zeros_match_composition_bitwise():
    """At width 1 every row centres to zero, and an output gradient of -0.0
    must come back as the composition's signed zeros: the tape sums a
    broadcast (N, 1) operand's gradient only when it has more than one
    column."""
    arrays = [np.array([[2.0], [-1.0], [0.5]]), np.array([[1.5]]), np.array([[0.25]])]
    weights = np.array([[-0.0], [0.0], [-1.0]])
    assert_bitwise(fused_layer_norm, composed_layer_norm, arrays, [True] * 3, None, weights)


def test_feed_forward_dead_units_match_composition_bitwise():
    """Pre-activations at and below zero pass no gradient through the relu."""
    x = np.array([[1.0, -1.0], [0.0, 0.0], [2.0, 1.0]])
    w1 = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
    arrays = [x, w1, np.array([[0.0, 0.0, -1.0]]), np.ones((3, 2)), np.zeros((1, 2))]
    assert_bitwise(fused_feed_forward, composed_feed_forward, arrays, [True] * 5, seed=5)


# (length, d_model, heads, windows): a small case and the README widths at L=64
MULTI_HEAD_SHAPES = [(8, 8, 2, 3), (64, 64, 4, 32)]


def window_kernels(name, heads, d_k):
    if name == "softmax":
        return [softmax_window] * heads
    return [functools.partial(favor_window, causal=name == "favor_causal",
                              omega=draw_features(FavorConfig(r=32, d_k=d_k, seed=j)))
            for j in range(heads)]


@pytest.mark.parametrize("kernel", ["softmax", "favor", "favor_causal"])
@pytest.mark.parametrize("shape", MULTI_HEAD_SHAPES, ids=shape_id)
def test_multi_head_over_windows_matches_single_windows_bitwise(shape, kernel):
    """One call over B windows returns the rows of B single-window calls byte
    for byte, with a tape and without one.  The input gradients agree within
    1e-12: the weight gradients sum over all B·L rows in one gemm."""
    length, d_model, heads, windows = shape
    rng = np.random.default_rng(length + heads)
    kernels = window_kernels(kernel, heads, d_model // heads)
    x = rng.standard_normal((windows * length, d_model))
    w_qkv = rng.standard_normal((d_model, 3 * d_model)) / math.sqrt(d_model)
    w_o = rng.standard_normal((d_model, d_model)) / math.sqrt(d_model)
    weights = rng.standard_normal((windows * length, d_model))

    def run(rows):
        leaves = [Tensor(x[rows], requires_grad=True), Tensor(w_qkv, requires_grad=True),
                  Tensor(w_o, requires_grad=True)]
        no_tape = multi_head(*leaves, kernels, length).data
        with GradTape() as tape:
            out = multi_head(*leaves, kernels, length)
            loss = T.tsum(T.mul(out, Tensor(weights[rows])))
        tape.backward(loss)
        assert no_tape.tobytes() == out.data.tobytes()
        return out.data, [t.grad for t in leaves]

    out, grads = run(slice(None))
    singles = [run(slice(s * length, (s + 1) * length)) for s in range(windows)]
    assert out.tobytes() == np.concatenate([o for o, _ in singles]).tobytes()
    expected = [np.concatenate([g[0] for _, g in singles]),
                sum(g[1] for _, g in singles), sum(g[2] for _, g in singles)]
    for got, want in zip(grads, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# finiteness: the node rejects what the composition rejects
# ---------------------------------------------------------------------------

BIG = np.finfo(np.float64).max


def raises_in_both(fused, composed, *arrays):
    for fn in (composed, fused):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FiniteError):
                fn(*[Tensor(a) for a in arrays])


class TestFiniteChecks:
    def test_attention_scores_overflow(self):
        """q·kᵀ reaches -inf while each row's max stays finite, so the
        attention matrix and the output would be finite."""
        q, k = np.array([[1e200], [1.0]]), np.array([[1.0], [-1e200]])
        raises_in_both(scaled_dot_attention, composed_scaled_dot_attention,
                       q, k, np.ones((2, 3)))

    def test_attention_output_overflow(self):
        """Weights that round to a sum above one carry the largest values past
        the float64 range."""
        raises_in_both(scaled_dot_attention, composed_scaled_dot_attention,
                       np.ones((2, 1)), np.array([[0.0], [3.0]]), np.full((2, 1), BIG))

    def test_layer_norm_variance_overflow(self):
        """c·c overflows, but 1/√inf = 0 would make the output the bias."""
        x = np.array([[1e160, -1e160, 0.0, 1.0]])
        raises_in_both(fused_layer_norm, composed_layer_norm,
                       x, np.ones((1, 4)), np.zeros((1, 4)))

    def test_layer_norm_output_overflow(self):
        raises_in_both(fused_layer_norm, composed_layer_norm,
                       np.array([[0.0, 0.0, 0.0, 4.0]]), np.full((1, 4), BIG),
                       np.zeros((1, 4)))

    def test_feed_forward_pre_activation_overflow(self):
        """x·W1 reaches -inf, which the relu would map to a finite zero."""
        raises_in_both(fused_feed_forward, composed_feed_forward,
                       np.array([[1e200]]), np.array([[-1e200, 1.0]]), np.zeros((1, 2)),
                       np.ones((2, 1)), np.zeros((1, 1)))

    def test_feed_forward_output_overflow(self):
        raises_in_both(fused_feed_forward, composed_feed_forward,
                       np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)),
                       np.full((1, 1), 1e308), np.full((1, 1), 1e308))

"""The model's fused nodes against their compositions of primitives.

Exact attention (``attention.softmax_window``, one tape node as
``conftest.scaled_dot_attention``), and the numpy stages ``model.layer_norm``
and ``model.feed_forward`` (one tape node each through
``reference.stage_node``) do the floating-point operations of their
compositions in the same order (for attention
``reference.exact_bidirectional``, D⁻¹(E·V), per head, also at the lengths
whose passes over E run in tiles), and their backward passes sum each
gradient in the order the tape sums it, so forward values and every input
gradient agree bit for bit.  The whole block (``Model._encoder_block``), one
tape node that runs a chunk of windows at a time, agrees bit for bit with
``reference.composed_encoder_block``, at every chunking.  Each node checks
fewer intermediates than its composition, yet raises FiniteError on exactly
the inputs the composition rejects: the ``TestFiniteChecks`` cases are
inputs on which only one kept check can fire, or on which a check the
block dropped would have fired.  ``attention.multi_head`` over B windows
returns the rows of B single-window calls bit for bit, and one
window-function call over all heads returns what one call per head does.
The whole forward pass and loss, one node per stage (``Model.forward_batch``
and ``model._batch_loss``), agree bit for bit with the composition they
replaced (``reference.composed_forward`` and ``composed_batch_loss``).
"""

import functools
import math

import numpy as np
import pytest

import fastforecast.model as ff_model
from fastforecast.attention import TILE_ROWS, multi_head, softmax_window
from fastforecast.errors import FiniteError, ShapeError
from fastforecast.favor import (FavorConfig, draw_features, favor_bidirectional,
                                favor_unidirectional)
from fastforecast.model import (BLOCK_PARAMS, VARIANTS, ModelSpec, _batch_loss, build,
                                feed_forward, layer_norm)
from fastforecast.tensor import GradTape, Tensor

from conftest import scaled_dot_attention
from reference import (composed_batch_loss, composed_encoder_block, composed_feed_forward,
                       composed_forward, composed_layer_norm, exact_bidirectional, mul,
                       stage_node, tsum)


# ---------------------------------------------------------------------------
# compositions of primitives, and the nodes held to them
# ---------------------------------------------------------------------------

fused_layer_norm = stage_node(layer_norm)
fused_feed_forward = stage_node(feed_forward)
multi_head_node = stage_node(multi_head)


def window_function(name, omega):
    """``softmax_window``, or either FAVOR+ window function over ``omega``."""
    if name == "softmax":
        return softmax_window
    kernel = favor_unidirectional if name == "favor_causal" else favor_bidirectional
    return functools.partial(kernel, omega=omega)


DROPOUT_SEED = 11


def block_model(kernel, length, d_model, heads, dropout):
    """A one-block model whose blocks run ``kernel``; r=8 for FAVOR+."""
    favor = None
    if kernel != "softmax":
        favor = FavorConfig(r=8, d_k=d_model // heads, seed=3, causal=kernel == "favor_causal")
    return build(ModelSpec(variant="transformer_mh" if favor is None else "performer",
                           window=length, n_features=1, d_model=d_model, heads=heads, blocks=1,
                           favor=favor, dropout=dropout))


def block_pair(kernel, length, heads, dropout):
    """The model's encoder block node and ``reference.composed_encoder_block``
    as functions of the input rows and the ten weights in ``BLOCK_PARAMS``
    order; both draw their dropout masks from one seed."""
    def fused(x, *weights):
        model = block_model(kernel, length, x.shape[1], heads, dropout)
        model.params.update((f"block0.{name}", w) for name, w in zip(BLOCK_PARAMS, weights))
        return model._encoder_block(x, 0, np.random.default_rng(DROPOUT_SEED))

    def composed(x, *weights):
        omega = block_model(kernel, length, x.shape[1], heads, dropout).feature_maps
        window = window_function(kernel, omega[0] if omega else None)
        rng = np.random.default_rng(DROPOUT_SEED)
        masks = [(rng.random(x.shape) >= dropout) / (1.0 - dropout) if dropout else None
                 for _ in range(2)]
        return composed_encoder_block(x, *weights, window, heads, length, masks)

    return fused, composed


def block_arrays(rng, rows, d_model):
    """Input rows and the ten block weights, in ``BLOCK_PARAMS`` order."""
    d_ff = 4 * d_model

    def scaled(*shape):
        return rng.standard_normal(shape) / math.sqrt(shape[0])

    return [rng.standard_normal((rows, d_model)), scaled(d_model, 3 * d_model),
            scaled(d_model, d_model), 1 + 0.3 * rng.standard_normal((1, d_model)),
            0.3 * rng.standard_normal((1, d_model)), scaled(d_model, d_ff),
            0.3 * rng.standard_normal((1, d_ff)), scaled(d_ff, d_model),
            0.3 * rng.standard_normal((1, d_model)), 1 + 0.3 * rng.standard_normal((1, d_model)),
            0.3 * rng.standard_normal((1, d_model))]


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
        loss = tsum(mul(out, Tensor(weights)))
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
    assert_bitwise(scaled_dot_attention, exact_bidirectional, arrays,
                   GRAD_PATTERNS[pattern](3), seed=1)


@pytest.mark.parametrize("d_k", [3, 16, 32])
@pytest.mark.parametrize("heads", [1, 2, 3, 4])
@pytest.mark.parametrize("length", [257, 300, 384, 512, 640])
def test_tiled_attention_matches_composition_bitwise(length, heads, d_k):
    """Above ``TILE_ROWS`` rows, one call on the strided (heads, L, d_k) views
    that ``multi_head`` passes returns, byte for byte, the output and the Q, K
    and V gradients of ``exact_bidirectional`` on each head's columns."""
    assert length > TILE_ROWS
    rng = np.random.default_rng(length * 10 + heads)
    qkv = rng.standard_normal((length, 3 * heads * d_k)) * 2
    g = rng.standard_normal((length, heads * d_k))
    out, backward = softmax_window(*qkv.reshape(length, heads, 3, d_k).transpose(2, 1, 0, 3))
    grads = backward(g.reshape(length, heads, d_k).transpose(1, 0, 2))
    for j in range(heads):
        leaves = [Tensor(a, requires_grad=True)
                  for a in np.split(qkv[:, 3 * j * d_k:3 * (j + 1) * d_k], 3, axis=1)]
        with GradTape() as tape:
            out_j = exact_bidirectional(*leaves)
            loss = tsum(mul(out_j, Tensor(g[:, j * d_k:(j + 1) * d_k])))
        tape.backward(loss)
        assert out[j].tobytes() == out_j.data.tobytes()
        for got, leaf in zip(grads, leaves, strict=True):
            assert np.ascontiguousarray(got[j]).tobytes() == leaf.grad.tobytes()


@pytest.mark.parametrize("pattern", GRAD_PATTERNS)
@pytest.mark.parametrize("shape", LAYER_NORM_SHAPES, ids=shape_id)
def test_layer_norm_matches_composition_bitwise(shape, pattern):
    rows, width = shape
    rng = np.random.default_rng(rows * 100 + width)
    arrays = [rng.standard_normal((rows, width)) * 3 + 1, 1 + rng.standard_normal((1, width)),
              rng.standard_normal((1, width))]
    assert_bitwise(fused_layer_norm, composed_layer_norm, arrays,
                   GRAD_PATTERNS[pattern](3), seed=2)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("pattern", GRAD_PATTERNS)
@pytest.mark.parametrize("shape", FEED_FORWARD_SHAPES, ids=shape_id)
def test_feed_forward_matches_composition_bitwise(shape, pattern, layers):
    """(rows, width, hidden): ``layers`` affine layers from width to width,
    each hidden one ``hidden`` wide."""
    rows, width, hidden = shape
    widths = [width, *[hidden] * (layers - 1), width]
    rng = np.random.default_rng(rows * 100 + width)
    arrays = [rng.standard_normal((rows, width))]
    for k, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), 1):
        arrays += [rng.standard_normal((fan_in, fan_out)) * 0.5,
                   rng.standard_normal((1, fan_out)) * (1.0 if k == layers else 0.5)]
    assert_bitwise(fused_feed_forward, composed_feed_forward, arrays,
                   GRAD_PATTERNS[pattern](len(arrays)), seed=3)


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


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_feed_forward_dead_units_match_composition_bitwise(layers):
    """Pre-activations at and below zero pass no gradient through the relu."""
    x = np.array([[1.0, -1.0], [0.0, 0.0], [2.0, 1.0]])
    first = [np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]), np.array([[0.0, 0.0, -1.0]])]
    middle = [np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]]), np.zeros((1, 3))]
    last = [np.ones((3, 2)), np.zeros((1, 2))]
    arrays = [x, *{1: first, 2: first + last, 3: first + middle + last}[layers]]
    assert_bitwise(fused_feed_forward, composed_feed_forward, arrays, [True] * len(arrays),
                   seed=5)


# (length, d_model, heads, windows): a small case and the README widths at L=64
MULTI_HEAD_SHAPES = [(8, 8, 2, 3), (64, 64, 4, 32)]


def feature_stack(heads, d_k, r):
    """One Ω per head, stacked (heads, r, d_k) as the model stacks a block's draws."""
    return draw_features(r, d_k, range(heads))


@pytest.mark.parametrize("kernel", ["softmax", "favor", "favor_causal"])
@pytest.mark.parametrize("shape", MULTI_HEAD_SHAPES, ids=shape_id)
def test_multi_head_over_windows_matches_single_windows_bitwise(shape, kernel):
    """One call over B windows returns the rows of B single-window calls byte
    for byte, with a tape and without one.  The input gradients agree within
    1e-12: the weight gradients sum over all B·L rows in one gemm."""
    length, d_model, heads, windows = shape
    rng = np.random.default_rng(length + heads)
    window = window_function(kernel, feature_stack(heads, d_model // heads, 32))
    x = rng.standard_normal((windows * length, d_model))
    w_qkv = rng.standard_normal((d_model, 3 * d_model)) / math.sqrt(d_model)
    w_o = rng.standard_normal((d_model, d_model)) / math.sqrt(d_model)
    weights = rng.standard_normal((windows * length, d_model))

    def run(rows):
        leaves = [Tensor(x[rows], requires_grad=True), Tensor(w_qkv, requires_grad=True),
                  Tensor(w_o, requires_grad=True)]
        no_tape = multi_head_node(*leaves, window, heads, length).data
        with GradTape() as tape:
            out = multi_head_node(*leaves, window, heads, length)
            loss = tsum(mul(out, Tensor(weights[rows])))
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


# (length, d_k, heads, r): a small case and the README widths at L=64
STACK_SHAPES = [(8, 2, 2, 8), (64, 16, 4, 128)]


@pytest.mark.parametrize("kernel", ["softmax", "favor", "favor_causal"])
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=shape_id)
def test_window_over_stacked_heads_matches_single_heads_bitwise(shape, kernel):
    """One window-function call on the strided (heads, L, d_k) views that
    ``multi_head`` passes returns, byte for byte, the output and the Q, K and
    V gradients of one 2D call per head on that head's column slices."""
    length, d_k, heads, r = shape
    rng = np.random.default_rng(length + heads)
    qkv = rng.standard_normal((length, 3 * heads * d_k))
    g = rng.standard_normal((length, heads * d_k))
    omega = feature_stack(heads, d_k, r)
    out, backward = window_function(kernel, omega)(
        *qkv.reshape(length, heads, 3, d_k).transpose(2, 1, 0, 3))
    grads = backward(g.reshape(length, heads, d_k).transpose(1, 0, 2))
    for j in range(heads):
        out_j, backward_j = window_function(kernel, omega[j])(
            *np.split(qkv[:, 3 * j * d_k:3 * (j + 1) * d_k], 3, axis=1))
        assert out[j].tobytes() == out_j.tobytes()
        grads_j = backward_j(g[:, j * d_k:(j + 1) * d_k])
        for got, want in zip(grads, grads_j, strict=True):
            assert got[j].tobytes() == want.tobytes()


# (length, windows, chunk rows): several windows to a chunk with a short last
# chunk, a window longer than a chunk, one-row windows, one chunk, and the
# module's own chunk size at the README window with a chunk of four windows
# and one of five
BLOCK_CASES = [(4, 5, 8), (12, 3, 8), (1, 9, 4), (3, 2, 512), (64, 9, None)]


@pytest.mark.parametrize("dropout", [0.0, 0.25], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("kernel", ["softmax", "favor", "favor_causal"])
@pytest.mark.parametrize("case", BLOCK_CASES, ids=shape_id)
def test_encoder_block_matches_composition_bitwise(case, kernel, dropout, monkeypatch):
    """The block node's output and the gradients of its input and of all ten
    weights equal the composed block's byte for byte, with the rows run in
    chunks; without a tape its output is the same bytes."""
    length, windows, chunk_rows = case
    if chunk_rows is not None:
        monkeypatch.setattr(ff_model, "CHUNK_ROWS", chunk_rows)
    fused, composed = block_pair(kernel, length, heads=2, dropout=dropout)
    arrays = block_arrays(np.random.default_rng(length + windows), windows * length, 8)
    assert_bitwise(fused, composed, arrays, [True] * len(arrays), seed=6)
    with GradTape() as tape:
        taped = fused(*[Tensor(a, requires_grad=True) for a in arrays])
    assert fused(*[Tensor(a) for a in arrays]).data.tobytes() == taped.data.tobytes()


def test_encoder_block_chunks_are_whole_windows_of_at_most_chunk_rows(monkeypatch):
    """At 512 rows a chunk, B=33 windows of 64 rows run as five chunks of six
    or seven windows, none longer than 512 rows, and none a lone window."""
    calls = []

    def recording(x, *args):
        calls.append(x.shape[0])
        return multi_head(x, *args)

    monkeypatch.setattr(ff_model, "multi_head", recording)
    fused, _ = block_pair("softmax", 64, heads=2, dropout=0.0)
    fused(*[Tensor(a) for a in block_arrays(np.random.default_rng(0), 33 * 64, 8)])
    assert calls == [384, 448, 384, 448, 448]


# the five variants and causal performer
CONFIGS = [*((v, False) for v in VARIANTS), ("performer", True)]
CONFIG_IDS = [*VARIANTS, "performer_causal"]


def stage_model(variant, causal, length, dropout=0.0, fc_widths=(4, 1)):
    """A two-block model of ``variant`` on three features; r=8 for FAVOR+."""
    favor = None
    if VARIANTS[variant].attention == "favor":
        favor = FavorConfig(r=8, d_k=4, seed=3, causal=causal)
    return build(ModelSpec(variant=variant, window=length, n_features=3, d_model=8, heads=2,
                           favor=favor, bilstm_hidden=3, fc_widths=fc_widths,
                           dropout=dropout, seed=4))


def forward_and_loss(forward, loss_fn, model, windows, targets):
    """The no-tape forward output, and the loss and every parameter's gradient
    of one training step, whose dropout masks come from one seed."""
    arrays = [forward(model, windows).data]
    with GradTape() as tape:
        for p in model.params.values():
            tape.watch(p)
        loss = loss_fn(model, windows, targets, np.random.default_rng(DROPOUT_SEED))
    tape.backward(loss)
    return arrays + [np.asarray(loss.data), *(p.grad for p in model.params.values())]


@pytest.mark.parametrize("fc_widths", [(1,), (4, 1), (4, 3, 1)], ids=shape_id)
@pytest.mark.parametrize("shape", [(8, 4), (1, 1)], ids=shape_id)
@pytest.mark.parametrize("dropout", [0.0, 0.25], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("variant, causal", CONFIGS, ids=CONFIG_IDS)
def test_forward_and_loss_match_composition_bitwise(variant, causal, dropout, shape,
                                                    fc_widths):
    """With one node per stage, the no-tape forward output, a training step's
    loss and every parameter gradient equal the composition's byte for byte."""
    length, batch = shape
    model = stage_model(variant, causal, length, dropout, fc_widths)
    rng = np.random.default_rng(length + batch)
    windows = rng.standard_normal((batch, length, 3))
    targets = rng.standard_normal(batch)
    fused = forward_and_loss(ff_model.Model.forward_batch, _batch_loss, model, windows, targets)
    composed = forward_and_loss(composed_forward, composed_batch_loss, model, windows, targets)
    assert len(fused) == len(composed) == len(model.params) + 2
    for got, want in zip(fused, composed):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant, causal", CONFIGS, ids=CONFIG_IDS)
def test_forward_on_no_windows_matches_composition_bitwise(variant, causal):
    """B=0: every variant predicts nothing, as (0, 1), with dropout and
    without; where the composition is defined, without a BiLSTM, it predicts
    the same nothing.  Its time-major BiLSTM layer rejects zero rows."""
    model = stage_model(variant, causal, 8, dropout=0.25)
    windows = np.zeros((0, 8, 3))
    out = model.forward_batch(windows).data
    assert out.shape == model.forward_batch(windows, np.random.default_rng(0)).shape == (0, 1)
    if VARIANTS[variant].bilstm:
        with pytest.raises(ShapeError):
            composed_forward(model, windows)
    else:
        assert out.tobytes() == composed_forward(model, windows).data.tobytes()


@pytest.mark.parametrize("variant, causal", CONFIGS, ids=CONFIG_IDS)
def test_a_training_step_tapes_one_node_per_stage(variant, causal):
    """The embedding, each of the two blocks, each BiLSTM layer with its
    dropout, the head and the loss: 7 nodes for performer_bilstm and 5 for
    every other variant."""
    model = stage_model(variant, causal, 8, dropout=0.1)
    rng = np.random.default_rng(0)
    with GradTape() as tape:
        loss = _batch_loss(model, rng.standard_normal((4, 8, 3)), rng.standard_normal(4), rng)
    tape.backward(loss)
    assert len(tape) == (7 if variant == "performer_bilstm" else 5)


# ---------------------------------------------------------------------------
# finiteness: the node rejects what the composition rejects
# ---------------------------------------------------------------------------

BIG = np.finfo(np.float64).max


def raises_in_both(fused, composed, *arrays):
    for fn in (composed, fused):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FiniteError):
                fn(*[Tensor(a) for a in arrays])


# Q and K are zero and V is x, so each attention row is its window's mean row
PASS_THROUGH = {1: np.hstack([np.zeros((2, 4)), np.eye(2)]), 2: np.eye(2)}


class TestFiniteChecks:
    def test_attention_scores_overflow(self):
        """q·kᵀ reaches -inf while each row's max stays finite, so the
        attention matrix and the output would be finite."""
        q, k = np.array([[1e200], [1.0]]), np.array([[1.0], [-1e200]])
        raises_in_both(scaled_dot_attention, exact_bidirectional,
                       q, k, np.ones((2, 3)))

    def test_attention_scores_overflow_in_a_later_tile(self):
        """Only the last query row's scores reach -inf, so only the check of
        the last tile of rows can fire."""
        length = TILE_ROWS + 44
        q, k = np.ones((length, 1)), np.ones((length, 1))
        q[-1], k[0] = 1e200, -1e200
        raises_in_both(scaled_dot_attention, exact_bidirectional, q, k, np.ones((length, 3)))

    def test_attention_output_overflow(self):
        """Weights that round to a sum above one carry the largest values past
        the float64 range."""
        raises_in_both(scaled_dot_attention, exact_bidirectional,
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

    @pytest.mark.parametrize("changes", [
        {0: np.full((4, 2), 1e308), 1: np.full((2, 6), 2.0)},
        {**PASS_THROUGH, 0: np.full((4, 2), 2.0), 2: np.full((2, 2), BIG)},
        {**PASS_THROUGH, 0: np.full((4, 2), 1e308)},
        {3: np.full((1, 2), BIG), 4: np.full((1, 2), BIG)},
        {7: np.full((8, 2), BIG), 8: np.full((1, 2), BIG)},
        {9: np.full((1, 2), BIG), 10: np.full((1, 2), BIG)},
    ], ids=["qkv", "attention_output", "residual", "layer_norm_1_output",
            "feed_forward_output", "block_output"])
    def test_block_rejects_what_the_composition_rejects(self, changes):
        """The block node keeps the window function's checks, both variances',
        the pre-activation's and the output's.  Each case overflows one stage
        of the block: on all but the last only a check the node dropped fires
        in the composition, so a kept check downstream must catch it; on the
        last only the node's own output check can fire."""
        fused, composed = block_pair("softmax", 2, heads=1, dropout=0.0)
        arrays = block_arrays(np.random.default_rng(5), 4, 2)
        fused(*[Tensor(a) for a in arrays])  # the unchanged draw is finite
        for index, value in changes.items():
            arrays[index] = value
        raises_in_both(fused, composed, *arrays)


    @pytest.mark.parametrize("changes, windows, target", [
        ({"embed.w": 1e200}, 1e200, 0.0),
        ({"embed.w": 1.0, "embed.b": 0.0, "bilstm1.fwd.w": 1e308}, 1.0, 0.0),
        ({"fc0.w": 0.0, "fc0.b": 1.0, "fc1.w": -1e308, "fc1.b": 0.0}, 1.0, 0.0),
        ({}, 1.0, 1e200),
    ], ids=["embedding", "bilstm_layer", "head_relu_input", "loss"])
    def test_stage_nodes_reject_what_the_composition_rejects(self, changes, windows, target):
        """One overflow per stage node of a training step with dropout: x·W of
        the embedding; the first BiLSTM layer's gate pre-activations; the
        head's second layer, whose -inf pre-activations its relu would map to
        zero; and the loss's squared error.  The first, third and fourth each
        overflow an intermediate whose check the node dropped."""
        model = stage_model("performer_bilstm", False, 4, dropout=0.25, fc_widths=(4, 3, 1))
        x, y = np.ones((2, 4, 3)), np.zeros(2)
        _batch_loss(model, x, y, np.random.default_rng(0))  # the unchanged draw is finite
        for name, value in changes.items():
            model.params[name].data[...] = value
        for loss_fn in (composed_batch_loss, _batch_loss):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FiniteError):
                    loss_fn(model, x * windows, y + target, np.random.default_rng(0))

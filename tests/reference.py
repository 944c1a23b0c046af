"""Reference primitives, composed oracles and helpers that only the tests run.

Each primitive is one tape node built with ``T._make``, as each of the
model's stages is, and passes the finite-difference checks of
``test_tensor.PRIMITIVE_CASES``.  The compositions built from them are the
oracles the fused kernels are held to:

  * ``add``, ``sub``, ``mul``, ``relu``, ``matmul``, ``tsum`` and
    ``take_rows`` (with their helpers ``_broadcast``, ``_sum_to``,
    ``_require_2d`` and ``_as_tensor``) were the package's own primitives
    until every stage of the model became one node.  ``add``, ``sub`` and
    ``mul`` broadcast as numpy does, but only where the result has the shape
    of one operand (a (3, 1) with a (1, 4) raises ShapeError); a Python
    number is a constant with no gradient, and each backward pass sums the
    gradient over the broadcast axes (``_sum_to``).  They compose every
    reference below;
  * ``softmax_rows`` composes ``softmax_attention``, softmax(Q Kᵀ / √d_k)·V
    with each row of weights normalised before the product with V, the
    form acceptance criterion 4 holds ``exact_bidirectional`` to; ``sqrt``
    composes the layer norm (``composed_layer_norm``);
  * ``exp`` and ``recip`` compose φ and the FAVOR+ division in
    ``test_favor.py``, and the layer norm's inverse standard deviation;
  * ``sigmoid``, ``tanh``, ``transpose`` and ``concat`` compose
    ``composed_lstm_cell``, one LSTM step on tensors: the cell
    ``test_lstm.py`` folds over as the reference for each direction of
    ``fastforecast.model.bilstm_forward_steps``; ``concat`` also joins the
    folds' steps and directions, the rows of the causal FAVOR+ reference in
    ``test_favor.py`` and the per-head weights of a gradient check in
    ``test_attention_exact.py``; ``sigmoid`` is ½·tanh(x·½) + ½, the form
    ``lstm_cell`` computes, held within 2^-52 of ``_stable_sigmoid``, the
    two-branch form 1/(1+e^-x), e^x/(1+e^x), in ``test_lstm.py``;
  * ``exact_bidirectional`` and ``exact_unidirectional`` are softmax attention
    composed through A = exp(Q Kᵀ / √d_k) and its row-sum normaliser, as
    D⁻¹(A·V): the oracles FAVOR+ is measured against; the model's
    ``attention.softmax_window`` is held to ``exact_bidirectional``, head by
    head, bit for bit.

Both oracles stabilise with a per-row max subtraction, treated as a constant
in the backward pass (softmax shift invariance makes that exact).

``window_node`` records any numpy function of three arrays that returns
``(out, backward)`` as one tape node on three tensors: the model's window
functions (``softmax_window``, ``favor_bidirectional``,
``favor_unidirectional``) on rank-2 Q, K and V.  ``stage_node`` does the
same for the numpy stages that return each weight's gradient as a pair of
row arrays: the encoder block's (``multi_head``, ``layer_norm`` and
``feed_forward``) and the LSTM direction ``lstm_sequence``, on a time-major
(L, batch, input) sequence and a (W, b) pair.

``composed_encoder_block`` is the encoder block as the model composed it
before the block became one tape node: ``composed_multi_head`` (the QKV
product, one node running the window function on every window, the output
product), a ``mul`` per dropout mask, an ``add`` per residual, and the
layer norm and feed-forward sublayer composed from primitives
(``composed_layer_norm``, ``composed_feed_forward``, which takes any number
of affine layers and also composes the head).  It is the oracle the
model's block node is held to, bit for bit.

``composed_forward`` and ``composed_batch_loss`` are ``Model.forward_batch``
and ``model._batch_loss`` as the model composed them before the embedding,
each BiLSTM layer with its dropout, the head and the loss became one tape
node each.  They gather the rows time-major for ``time_major_bilstm``, the
BiLSTM layer as it ran on time-major rows, and run the model's own encoder
block nodes.  They are the oracle the model's forward pass and loss are held
to, bit for bit.

``draw_features_per_seed`` is the FAVOR+ feature draw as the package made it
before one call drew the Ω of every seed: one seed at a time, one square block
at a time, each orthonormalised row by row (``gram_schmidt_block``).
``favor.draw_features`` and ``Model.feature_maps`` are held to it byte for
byte.
"""

import math

import numpy as np

import fastforecast.tensor as T
from fastforecast.errors import ConfigError, ShapeError
from fastforecast.favor import FavorConfig
from fastforecast.lstm import _sizes, lstm_sequence
from fastforecast.model import LAYER_NORM_EPS, _weight_grad
from fastforecast.tensor import Tensor


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _require_2d(name: str, *ts: Tensor) -> None:
    for t in ts:
        if t.data.ndim != 2:
            raise ShapeError(f"{name} expects rank-2 tensors, got shape {t.shape}")


# ---------------------------------------------------------------------------
# binary elementwise (broadcast to the shape of one operand)
# ---------------------------------------------------------------------------

def _broadcast(name: str, a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; their broadcast shape must be one of theirs."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        shape = np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        shape = None
    if shape not in (a.data.shape, b.data.shape):
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast "
                         f"to the shape of either")
    return a, b


def _sum_to(t: Tensor, g: np.ndarray) -> np.ndarray:
    """``g`` summed over the axes that broadcasting stretched ``t`` along."""
    shape = t.data.shape
    if g.shape == shape:
        return g
    padded = (1,) * (g.ndim - len(shape)) + shape
    axes = tuple(i for i, (m, n) in enumerate(zip(g.shape, padded)) if m != n)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _broadcast("add", a, b)
    return T._make((a, b), a.data + b.data, lambda g: (_sum_to(a, g), _sum_to(b, g)))


def sub(a, b) -> Tensor:
    a, b = _broadcast("sub", a, b)
    return T._make((a, b), a.data - b.data, lambda g: (_sum_to(a, g), -_sum_to(b, g)))


def mul(a, b) -> Tensor:
    a, b = _broadcast("mul", a, b)
    ad, bd = a.data, b.data

    def backward(g):
        return (_sum_to(a, g * bd) if a.requires_grad else None,
                _sum_to(b, g * ad) if b.requires_grad else None)

    return T._make((a, b), ad * bd, backward)


# ---------------------------------------------------------------------------
# unary elementwise
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return T._make((x,), np.maximum(x.data, 0.0), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# matrix ops and reductions
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_2d("matmul", a, b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner extents {a.shape} x {b.shape} disagree")
    ad, bd = a.data, b.data

    def backward(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return T._make((a, b), ad @ bd, backward)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum over ``axis`` of a rank-2 tensor, kept with extent 1 (0 gives
    (1, n), 1 gives (m, 1)), or over everything to shape () for ``None``."""
    if axis is not None:
        _require_2d("tsum", x)
    shape = x.data.shape
    return T._make((x,), np.asarray(x.data.sum(axis=axis, keepdims=axis is not None)),
                 lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# shape movement
# ---------------------------------------------------------------------------

def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows by index; gradient scatter-adds (handles repeats)."""
    _require_2d("take_rows", x)
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.data.shape

    def backward(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return T._make((x,), x.data[idx], backward, check=False)


def check_qkv(q, k, v):
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("attention expects rank-2 Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query width {q.shape[1]} != key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key count {k.shape[0]} != value count {v.shape[0]}")
    if q.shape[0] != k.shape[0]:
        raise ShapeError("self-attention requires equal sequence lengths")


def window_node(window):
    """``window(qd, kd, vd, *args)``, which returns ``(out, backward)``, as a
    function of tensors q, k and v (and the same trailing arguments) that
    checks their shapes (``check_qkv``) and records one tape node."""
    def node(q, k, v, *args):
        check_qkv(q, k, v)
        return T._make((q, k, v), *window(q.data, k.data, v.data, *args))
    return node


def stage_node(stage):
    """``stage(xd, *weights, *args)``, a numpy stage whose backward pass
    returns x's gradient and one (left, right) pair per weight,
    as a function of the tensor x, the weight tensors and the same trailing
    arguments that records one tape node: each weight's gradient comes from its
    pair through the model's own rule, ``model._weight_grad``."""
    def node(x, *args):
        weights = [a for a in args if isinstance(a, Tensor)]
        out, backward = stage(x.data, *(w.data for w in weights), *args[len(weights):])

        def node_backward(g):
            g_x, pairs = backward(g)
            return (g_x, *(_weight_grad([pair]) for _, pair in zip(weights, pairs, strict=True)))

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
    _require_2d("transpose", x)
    return T._make((x,), x.data.T, lambda g: (g.T,), check=False)


def concat(parts, axis):
    if axis not in (0, 1):
        raise ShapeError("concat supports axis 0 or 1")
    parts = tuple(parts)
    _require_2d("concat", *parts)
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
        return squash(add(matmul(z, transpose(take_rows(w, rows))),
                            transpose(take_rows(b_rows, rows))))

    f = gate(0, sigmoid)
    i = gate(1, sigmoid)
    c_tilde = gate(2, tanh)
    o = gate(3, sigmoid)
    c = add(mul(f, c), mul(i, c_tilde))
    return mul(o, tanh(c)), c


def softmax_attention(q, k, v):
    """softmax(Q Kᵀ / √d_k) V, each row of weights normalised before the
    product with V."""
    check_qkv(q, k, v)
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    return matmul(softmax_rows(scores), v)


def exact_bidirectional(q, k, v):
    """D⁻¹ A V with A = exp(Q Kᵀ / √d_k), D = diag(A·1)."""
    check_qkv(q, k, v)
    d_k = q.shape[1]
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    row_max = Tensor(scores.data.max(axis=1, keepdims=True))  # constant shift
    a = exp(sub(scores, row_max))
    return mul(matmul(a, v), recip(tsum(a, axis=1)))


def exact_unidirectional(q, k, v):
    """Causal form: A is masked below the diagonal (inclusive) before normalising."""
    check_qkv(q, k, v)
    length, d_k = q.shape
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    mask = np.tril(np.ones((length, length)))
    # stabilise with the max over the *visible* entries of each row; masked
    # entries are pushed to exp(-800) = 0 exactly, so they never overflow
    # and contribute nothing to the row sums
    visible = np.where(mask > 0, scores.data, -np.inf)
    row_max = Tensor(visible.max(axis=1, keepdims=True))
    shifted = sub(scores, row_max)
    a = exp(sub(mul(shifted, Tensor(mask)), Tensor((1.0 - mask) * 800.0)))
    return mul(matmul(a, v), recip(tsum(a, axis=1)))


def composed_multi_head(x, w_qkv, w_o, window, heads, length):
    """Self-attention over the rows of B windows of ``length`` rows each, as
    three tape nodes: x·W_qkv, one node that runs ``window`` once per window
    on all heads, and the product with W_o."""
    if heads < 1 or w_qkv.shape[1] % (3 * heads):
        raise ConfigError("head count does not match weights")
    if x.shape[0] % length:
        raise ShapeError(f"{x.shape[0]} rows are not whole windows of length {length}")
    d_k = w_qkv.shape[1] // (3 * heads)
    qkv = matmul(x, w_qkv)
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

    return matmul(T._make((qkv,), out, backward), w_o)


def composed_layer_norm(x, gain, bias):
    n = x.shape[1]
    mean = mul(tsum(x, axis=1), 1.0 / n)
    centered = sub(x, mean)
    var = mul(tsum(mul(centered, centered), axis=1), 1.0 / n)
    inv = recip(sqrt(add(var, LAYER_NORM_EPS)))
    return add(mul(mul(centered, inv), gain), bias)


def composed_feed_forward(x, *weights):
    """x through each affine layer (W, b) that ``weights`` lists in turn, with
    a relu between each two."""
    layers = len(weights) // 2
    for k in range(layers):
        x = add(matmul(x, weights[2 * k]), weights[2 * k + 1])
        if k < layers - 1:
            x = relu(x)
    return x


def composed_encoder_block(x, w_qkv, w_o, g1, b1, w1, c1, w2, c2, g2, b2, window, heads,
                           length, masks):
    """The encoder block on tensors, node by node: attention, dropout, residual
    and layer norm, then feed-forward, dropout, residual and layer norm.  The
    weights come in ``model.BLOCK_PARAMS`` order; ``masks`` holds the
    attention's and the feed-forward sublayer's dropout masks, each None when
    dropout is off."""
    def dropout(a, mask):
        return a if mask is None else mul(a, Tensor(mask))

    a = dropout(composed_multi_head(x, w_qkv, w_o, window, heads, length), masks[0])
    y = composed_layer_norm(add(x, a), g1, b1)
    f = dropout(composed_feed_forward(y, w1, c1, w2, c2), masks[1])
    return composed_layer_norm(add(y, f), g2, b2)


def time_major_bilstm(xs, batch, fwd, bwd):
    """The BiLSTM layer on time-major (L·batch, input) rows, whose rows
    t·batch .. t·batch + batch - 1 are step t, as one tape node: the
    (L·batch, 2·hidden) states, the forward half first, time-aligned.  The
    layer as the model ran it before its rows became batch-major."""
    _require_2d("bilstm_forward_steps", xs)
    rows = xs.shape[0]
    if batch < 1 or rows == 0 or rows % batch:
        raise ShapeError(f"{rows} rows are not whole steps of batch {batch}")
    if fwd[0].shape[0] != bwd[0].shape[0]:
        raise ShapeError("forward/backward hidden sizes differ")
    x = xs.data.reshape(rows // batch, batch, -1)
    h_f, back_f = lstm_sequence(x, fwd[0].data, fwd[1].data)
    h_b, back_b = lstm_sequence(x[::-1], bwd[0].data, bwd[1].data)  # last step first
    hid = h_f.shape[2]

    def backward(g):
        g = g.reshape(rows // batch, batch, 2 * hid)
        dx_f, pairs_f = back_f(g[:, :, :hid])
        dx_b, pairs_b = back_b(g[::-1, :, hid:])
        return ((dx_f + dx_b[::-1]).reshape(rows, -1),
                *(_weight_grad([pair]) for pair in pairs_f + pairs_b))

    return T._make((xs, *fwd, *bwd), np.concatenate([h_f, h_b[::-1]], axis=2).reshape(rows, -1),
                   backward, check=False)


def composed_forward(model, windows, rng=None):
    """``Model.forward_batch`` as the model composed it from primitives before
    the embedding, each BiLSTM layer with its dropout, and the head became one
    tape node each: the embedding a matmul and an add, a time-major gather
    into ``time_major_bilstm`` and a ``mul`` per dropout mask, and the head a
    ``take_rows`` pick, then ``composed_feed_forward``.  The
    encoder blocks are the model's own nodes."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ConfigError(f"expected (B, L, F) windows, got shape {windows.shape}")
    batch, length, n_feat = windows.shape
    spec = model.spec
    if length != spec.window or n_feat != spec.n_features:
        raise ConfigError(
            f"window shape ({length}, {n_feat}) != spec ({spec.window}, {spec.n_features})")

    x = Tensor(windows.reshape(batch * length, n_feat))
    x = add(matmul(x, model.params["embed.w"]), model.params["embed.b"])
    if spec.uses_attention:
        # in place, window by window: the embedding's add node never reads its output
        rows = x.data.reshape(batch, length, spec.d_model)
        rows += model.positional
        for i in range(spec.blocks):
            x = model._encoder_block(x, i, rng)

    if spec.uses_bilstm:
        # time-major rows: row t·B + b is window b at step t
        seq = take_rows(x, (np.arange(length)[:, None]
                            + np.arange(batch) * length).reshape(-1))
        p = model.params
        for layer in (1, 2):
            fwd, bwd = ((p[f"bilstm{layer}.{d}.w"], p[f"bilstm{layer}.{d}.b"])
                        for d in ("fwd", "bwd"))
            seq = time_major_bilstm(seq, batch, fwd, bwd)
            mask = model._dropout_mask(seq.shape, rng)
            seq = seq if mask is None else mul(seq, Tensor(mask))
        rep = take_rows(seq, np.arange((length - 1) * batch, length * batch))
    else:
        rep = take_rows(x, np.arange(batch) * length + (length - 1))

    return composed_feed_forward(rep, *(model.params[f"fc{k}.{leaf}"]
                                        for k in range(len(spec.fc_widths)) for leaf in "wb"))


def gram_schmidt_block(block: np.ndarray) -> np.ndarray:
    """Orthonormalise the rows of one square block (modified Gram–Schmidt)."""
    q = block.copy()
    n = q.shape[0]
    for i in range(n):
        for j in range(i):
            q[i] -= (q[i] @ q[j]) * q[j]
        norm = np.linalg.norm(q[i])
        if norm < 1e-12:
            raise ConfigError("degenerate Gaussian block during orthogonalisation")
        q[i] /= norm
    return q


def draw_features_per_seed(cfg: FavorConfig) -> np.ndarray:
    """The (r, d_k) projection Ω of ``cfg.seed``, drawn one square block at a
    time: blockwise-orthogonal Gaussian directions with χ-resampled norms."""
    rng = np.random.default_rng(cfg.seed)
    blocks = []
    remaining = cfg.r
    while remaining > 0:
        g = rng.standard_normal((cfg.d_k, cfg.d_k))
        q = gram_schmidt_block(g)
        take = min(remaining, cfg.d_k)
        blocks.append(q[:take])
        remaining -= take
    directions = np.vstack(blocks)
    norms = np.linalg.norm(rng.standard_normal((cfg.r, cfg.d_k)), axis=1)
    return directions * norms[:, None]


def composed_batch_loss(model, windows, targets, rng):
    """``model._batch_loss`` composed from primitives on ``composed_forward``."""
    preds = composed_forward(model, windows, rng)
    target_t = Tensor(np.asarray(targets, dtype=np.float64).reshape(-1, 1))
    diff = sub(preds, target_t)
    return mul(tsum(mul(diff, diff)), 1.0 / len(targets))

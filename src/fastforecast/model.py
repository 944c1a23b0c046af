"""Model assembly, training and prediction.

The full architecture: affine input embedding, sinusoidal positional
encoding, a stack of encoder blocks (self-attention, then a position-wise
feed-forward sublayer, each with a residual and a layer norm; run a chunk of
windows at a time), two bidirectional LSTM layers, and a fully-connected
head (``feed_forward``, the relu MLP the feed-forward sublayer also is) that
reads the last timestep's representation: the normalized next-close prediction.

Each stage is one tape node, made here, with a hand-written backward pass:
the embedding, each block, each BiLSTM layer with its dropout, the head and
the MSE loss.  Every node takes and returns batch-major rows (row b·L + t is
window b at step t), and forms each weight's gradient from the (left, right)
row pairs of its numpy stages (``attention``, ``favor``, ``lstm`` and the
block's here) with ``_weight_grad``.  Each does the floating-point
operations of the composition of one node per operation that it replaced,
in the same order, so its outputs and gradients are that composition's bit
for bit (``tests/reference.py`` keeps it as the oracle).

Five variants share this code path and differ only in which stages are
active and which attention kernel the blocks use:

  bilstm_only                  embed -> BiLSTM x2 -> head
  transformer_mh               embed+pos -> exact-attention blocks -> head
  transformer_mh_no_indicators same network, OHLCV-only features
  performer                    embed+pos -> FAVOR+ blocks -> head
  performer_bilstm             embed+pos -> FAVOR+ blocks -> BiLSTM x2 -> head

Training is mini-batch gradient descent with Adam moments and global-norm
gradient clipping, minimizing MSE in normalized space.  Everything is
deterministic given (spec, seed, dataset, hyperparameters).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .attention import multi_head, softmax_window
from .data import ColumnStats, Dataset, MetricSet, atomic_write, evaluate_metrics
from .errors import (MAX_EXTENT, ConfigError, DataError, DivergenceError, FiniteError,
                     ShapeError, check_array, check_field, check_keys)
from .favor import FavorConfig, draw_features, favor_bidirectional, favor_unidirectional
from .lstm import init_lstm_weights, lstm_sequence
from .tensor import GradTape, Tensor


class Stages(NamedTuple):
    """The stages a variant runs; every other stage is skipped."""

    attention: str | None  # encoder-block kernel: "exact", "favor" or None (no blocks)
    bilstm: bool
    indicators: bool = True  # else the raw OHLCV columns


VARIANTS = {
    "bilstm_only": Stages(None, bilstm=True),
    "transformer_mh": Stages("exact", bilstm=False),
    "transformer_mh_no_indicators": Stages("exact", bilstm=False, indicators=False),
    "performer": Stages("favor", bilstm=False),
    "performer_bilstm": Stages("favor", bilstm=True),
}
FAVOR_VARIANTS = tuple(name for name, s in VARIANTS.items() if s.attention == "favor")

LAYER_NORM_EPS = 1e-5
CHUNK_ROWS = 512  # rows an encoder block runs at a time: one window at L >= 512
BLOCK_PARAMS = "attn.qkv attn.o ln1.g ln1.b ffn.w1 ffn.b1 ffn.w2 ffn.b2 ln2.g ln2.b".split()


def stages_of(variant) -> Stages:
    """The stages ``variant`` runs; a name outside VARIANTS raises ConfigError."""
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {', '.join(VARIANTS)}, got {variant!r}")
    return VARIANTS[variant]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus every knob needed to rebuild it bit-identically."""

    variant: str
    window: int
    n_features: int
    d_model: int = 64
    blocks: int = 2
    heads: int = 4
    favor: FavorConfig | None = None
    bilstm_hidden: int = 64
    fc_widths: tuple = (64, 1)
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        stages_of(self.variant)
        for name in ("window", "blocks", "heads"):
            check_field(name, getattr(self, name), int, 1)
        for name in ("n_features", "d_model", "bilstm_hidden"):
            check_field(name, getattr(self, name), int, 1, below=MAX_EXTENT)
        if not isinstance(self.fc_widths, (list, tuple)) or not self.fc_widths:
            raise ConfigError(f"fc_widths must be a non-empty list, got {self.fc_widths!r}")
        object.__setattr__(self, "fc_widths", tuple(self.fc_widths))
        for i, width in enumerate(self.fc_widths):
            check_field(f"fc_widths[{i}]", width, int, 1, below=MAX_EXTENT)
        if self.fc_widths[-1] != 1:
            raise ConfigError("fc_widths must end in 1 (scalar close output)")
        check_field("dropout", self.dropout, float, 0, below=1)
        check_field("seed", self.seed, int, 0)
        if not isinstance(self.favor, (FavorConfig, type(None))):
            raise ConfigError(f"favor must be a FavorConfig or None, got {self.favor!r}")
        if self.uses_attention and self.d_model % self.heads:
            raise ConfigError(f"d_model = {self.d_model} not divisible by h = {self.heads}")
        if self.uses_favor:
            if self.favor is None:
                raise ConfigError(f"variant '{self.variant}' requires a favor config")
            if self.favor.d_k != self.d_model // self.heads:
                raise ConfigError(
                    f"favor d_k = {self.favor.d_k} != d_model/heads = "
                    f"{self.d_model // self.heads}")
        elif self.favor is not None:
            raise ConfigError(f"variant '{self.variant}' does not take a favor config")
        # the largest array the model makes from each field, before it is made
        d, hid = self.d_model, self.bilstm_hidden
        arrays = [("d_model", self.n_features, d)]
        if self.uses_attention:
            arrays += [("window", self.window, d), ("d_model", d, 4 * d)]
        if self.uses_favor:  # the Gaussian draw of every block's and head's Ω
            f = self.favor
            arrays.append(("favor.r", self.blocks * self.heads, -(-f.r // f.d_k), f.d_k, f.d_k))
        if self.uses_bilstm:
            arrays.append(("bilstm_hidden", 4 * hid, hid + max(d, 2 * hid)))
        widths = [2 * hid if self.uses_bilstm else d, *self.fc_widths]
        arrays += [(f"fc_widths[{k}]", *pair) for k, pair in enumerate(zip(widths, widths[1:]))]
        for name, *shape in arrays:
            check_array(name, *shape)

    @property
    def uses_attention(self) -> bool:
        return VARIANTS[self.variant].attention is not None

    @property
    def uses_favor(self) -> bool:
        return VARIANTS[self.variant].attention == "favor"

    @property
    def uses_bilstm(self) -> bool:
        return VARIANTS[self.variant].bilstm

    def to_dict(self) -> dict:
        """Every field by name; ``favor`` is left out when unset."""
        d = dataclasses.asdict(self)
        if d["favor"] is None:
            del d["favor"]
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        """Inverse of :meth:`to_dict`: every field must be given (``favor``
        only for a FAVOR+ variant), and a missing or unknown one raises
        ConfigError."""
        names = [f.name for f in dataclasses.fields(ModelSpec)]
        d = dict(check_keys("spec", d, names, [name for name in names if name != "favor"]))
        if d.get("favor") is not None:
            names = [f.name for f in dataclasses.fields(FavorConfig)]
            d["favor"] = FavorConfig(**check_keys("spec.favor", d["favor"], names, names))
        return ModelSpec(**d)


def sinusoidal_encoding(length: int, d_model: int) -> np.ndarray:
    """Fixed position signal: interleaved sin/cos at geometric frequencies."""
    pe = np.zeros((length, d_model))
    pos = np.arange(length, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, d_model, 2, dtype=np.float64) * (-math.log(10000.0) / d_model))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: (d_model // 2)])
    return pe


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 1, kept with extent 1, as a composition sums the gradient
    of a broadcast (N, 1) operand: a single column is returned as it is."""
    return a if a.shape[1] == 1 else a.sum(axis=1, keepdims=True)


def _masked(a: np.ndarray, mask: np.ndarray | None, rows: slice) -> np.ndarray:
    """``a`` times the ``rows`` of a dropout mask, or ``a`` itself with no mask."""
    return a if mask is None else a * mask[rows]


def _weight_grad(pairs) -> np.ndarray:
    """A weight's gradient from each chunk's (left, right) rows, formed over all
    rows at once as the tape forms it: leftᵀ·right, or right's column sum, where
    a single row is returned as it is (as ``_row_sum`` returns a single column)."""
    left, right = (p[0] if len(p) == 1 or p[0] is None else np.concatenate(p)
                   for p in zip(*pairs))
    if left is not None:
        return left.T @ right
    return right if len(right) == 1 else right.sum(axis=0, keepdims=True)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """(x - mean) / √(var + eps) · gain + bias over each row, in numpy, with
    the arithmetic of the composed primitives: the output, unchecked, and a
    backward pass to x's gradient and the gain's and bias's (None, rows) pairs
    (see ``multi_head``).  Only the variance is checked: a non-finite mean makes
    every centered entry, and so the variance, non-finite; a finite one bounds
    the normalised rows."""
    n = x.shape[1]
    mean = x.sum(axis=1, keepdims=True)
    mean *= 1.0 / n
    centered = x - mean
    out = centered * centered  # the squares' buffer becomes the output
    var = out.sum(axis=1, keepdims=True)
    var *= 1.0 / n
    T.check_finite(var)
    std = var + LAYER_NORM_EPS
    np.sqrt(std, out=std)
    inv = 1.0 / std
    np.multiply(centered, inv, out=out)
    out *= gain
    out += bias
    T.note_buffers(centered)

    def backward(g):
        g_normed = g * gain
        g_inv = _row_sum(g_normed * centered)
        g_var = -g_inv * inv * inv * (0.5 / std) * (1.0 / n)
        # the tape sums the gradient of ``centered`` over the output path,
        # then both operands of centered·centered; ``x`` takes the sub
        # path before the mean path
        via_var = g_var * centered
        g_centered = g_normed * inv
        g_centered += via_var
        g_centered += via_var
        return (g_centered + (-_row_sum(g_centered)) * (1.0 / n),
                [(None, g * (centered * inv)), (None, g)])

    return out, backward


def feed_forward(x: np.ndarray, *weights):
    """x through each affine layer (W, b) that ``weights`` lists, with a relu
    between each two, in numpy, as ``layer_norm`` is: the output, unchecked, and
    a backward pass to x's gradient and one pair per weight, in weight order.
    Only each relu's input is checked; the backward pass keeps the relu outputs."""
    ins, out = [], x  # each layer's input: x, then each relu's output
    for k in range(0, len(weights), 2):
        if k:
            T.check_finite(out)  # the relu would map -inf to 0
            np.maximum(out, 0.0, out=out)
        ins.append(out)
        out = out @ weights[k]
        out += weights[k + 1]
    T.note_buffers(*ins[1:])

    def backward(g):
        pairs = []
        for k in reversed(range(len(ins))):
            pairs[:0] = [(ins[k], g), (None, g)]
            g = g @ weights[2 * k].T
            if k:
                g *= ins[k] > 0
        return g, pairs

    return out, backward


def bilstm_forward_steps(xs: Tensor, length: int, fwd: tuple[Tensor, Tensor],
                         bwd: tuple[Tensor, Tensor], mask: np.ndarray | None = None) -> Tensor:
    """One BiLSTM layer: both directions, each a (W, b) pair, over sequences of
    ``length`` steps given as batch-major (batch·L, input) rows, whose rows
    s·L .. s·L + L - 1 are sequence s.  Returns the (batch·L, 2·hidden) states
    in the same rows, the forward half first, time-aligned, times the
    (L, batch, 2·hidden) dropout ``mask`` unless it is None: entry [t, s]
    scales sequence s at step t.  No rows give no states.  One tape node."""
    if xs.data.ndim != 2:
        raise ShapeError(f"bilstm_forward_steps expects rank-2 rows, got shape {xs.shape}")
    rows = xs.shape[0]
    if length < 1 or rows % length:
        raise ShapeError(f"{rows} rows are not whole sequences of length {length}")
    if fwd[0].shape[0] != bwd[0].shape[0]:
        raise ShapeError("forward/backward hidden sizes differ")
    batch = rows // length
    x = xs.data.reshape(batch, length, xs.shape[1]).transpose(1, 0, 2)  # time-major view
    h_f, back_f = lstm_sequence(x, fwd[0].data, fwd[1].data)
    h_b, back_b = lstm_sequence(x[::-1], bwd[0].data, bwd[1].data)  # last step first
    hid = h_f.shape[2]
    out = np.empty((batch, length, 2 * hid))
    steps = out.transpose(1, 0, 2)  # time-major view of the output rows
    steps[:, :, :hid] = h_f
    steps[:, :, hid:] = h_b[::-1]
    if mask is not None:
        steps *= mask

    def backward(g):
        g = g.reshape(batch, length, 2 * hid).transpose(1, 0, 2)
        if mask is not None:
            g = g * mask

        def run(back, g_half):  # a direction's weight gradients, its pairs freed on return
            dx_half, pairs = back(g_half)
            return dx_half, [_weight_grad([pair]) for pair in pairs]

        dx_f, grads_f = run(back_f, g[:, :, :hid])
        dx_b, grads_b = run(back_b, g[::-1, :, hid:])
        dx = np.empty((batch, length, dx_f.shape[2]))
        np.add(dx_f, dx_b[::-1], out=dx.transpose(1, 0, 2))
        return dx.reshape(xs.shape), *grads_f, *grads_b

    return T._make((xs, *fwd, *bwd), out.reshape(rows, 2 * hid), backward, check=False)


def _glorot(rng, fan_in, fan_out, parts=1):
    """``parts`` Glorot-uniform (fan_in, fan_out) draws, side by side."""
    lim = math.sqrt(6.0 / (fan_in + fan_out))
    return np.hstack([rng.uniform(-lim, lim, size=(fan_in, fan_out)) for _ in range(parts)])


class Model:
    """Built network: ordered parameter dict plus the fixed wiring."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.feature_maps: list[np.ndarray] = []  # per block, each head's Ω: (heads, r, d_k)
        self.favor_generation: int | None = None  # no Ω drawn yet
        rng = np.random.default_rng(spec.seed)
        d = spec.d_model

        params = {"embed.w": _glorot(rng, spec.n_features, d), "embed.b": np.zeros((1, d))}
        self.positional = sinusoidal_encoding(spec.window, d) if spec.uses_attention else None

        if spec.uses_attention:
            d_k = d // spec.heads
            for i in range(spec.blocks):
                # head by head, each head's q, k and v, as multi_head reads them
                params[f"block{i}.attn.qkv"] = _glorot(rng, d, d_k, 3 * spec.heads)
                params[f"block{i}.attn.o"] = _glorot(rng, spec.heads * d_k, d)
                params[f"block{i}.ln1.g"] = np.ones((1, d))
                params[f"block{i}.ln1.b"] = np.zeros((1, d))
                params[f"block{i}.ffn.w1"] = _glorot(rng, d, 4 * d)
                params[f"block{i}.ffn.b1"] = np.zeros((1, 4 * d))
                params[f"block{i}.ffn.w2"] = _glorot(rng, 4 * d, d)
                params[f"block{i}.ffn.b2"] = np.zeros((1, d))
                params[f"block{i}.ln2.g"] = np.ones((1, d))
                params[f"block{i}.ln2.b"] = np.zeros((1, d))
        self.set_favor_generation(0)

        if spec.uses_bilstm:
            width_in = d
            hidden = spec.bilstm_hidden
            for layer in (1, 2):
                for direction in ("fwd", "bwd"):
                    base = f"bilstm{layer}.{direction}"
                    params[f"{base}.w"], params[f"{base}.b"] = init_lstm_weights(
                        width_in, hidden, rng)
                width_in = 2 * hidden
            head_in = 2 * hidden
        else:
            head_in = d

        widths = [head_in, *spec.fc_widths]
        for k, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            params[f"fc{k}.w"] = _glorot(rng, fan_in, fan_out)
            params[f"fc{k}.b"] = np.zeros((1, fan_out))
        self.params = {name: Tensor(a, requires_grad=True) for name, a in params.items()}

    # -- structure helpers ---------------------------------------------------

    def set_favor_generation(self, generation: int) -> None:
        """Draw one projection Ω per (block, head) from the favor seed and the
        redraw generation, so redraws stay reproducible.  Ω depends on nothing
        else, so the generation already drawn is kept as it is."""
        check_field("favor_generation", generation, int, 0)
        if generation == self.favor_generation:
            return
        self.favor_generation = generation
        spec = self.spec
        if spec.uses_favor:
            ss = np.random.SeedSequence([spec.favor.seed, generation])
            seeds = ss.generate_state(spec.blocks * spec.heads, dtype=np.uint64)
            omegas = draw_features(spec.favor.r, spec.favor.d_k, seeds.tolist())
            self.feature_maps = list(omegas.reshape(spec.blocks, spec.heads, *omegas.shape[1:]))

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            arr = state[name]
            if arr.shape != t.data.shape:
                raise ConfigError(f"parameter '{name}' shape {arr.shape} != {t.data.shape}")
            t.data = np.ascontiguousarray(arr, dtype=np.float64)

    # -- forward pass ----------------------------------------------------------

    def _dropout_mask(self, shape, rng) -> np.ndarray | None:
        """A dropout mask of ``shape`` from ``rng``, or None when dropout is off."""
        p = self.spec.dropout
        if rng is None or p <= 0.0:
            return None
        return (rng.random(shape) >= p) / (1.0 - p)

    def _encoder_block(self, x: Tensor, block: int, rng) -> Tensor:
        """One encoder block (attention, then the FFN, each with dropout, a
        residual and a layer norm) as one tape node, run over chunks of about
        CHUNK_ROWS rows of whole windows, whose buffers stay in cache.  Every
        stage is row by row, so each row is the whole batch's bit for bit; each
        weight's gradient is formed over all rows at once.  Its checks (window
        function, variances, pre-activation, output) fire where any dropped one would."""
        spec, length = self.spec, self.spec.window
        params = [self.params[f"block{block}.{name}"] for name in BLOCK_PARAMS]
        w_qkv, w_o, g1, b1, w1, c1, w2, c2, g2, b2 = (p.data for p in params)
        # multi_head and the window functions are looked up at call time, for tracers
        window = softmax_window
        if spec.uses_favor:
            kernel = favor_unidirectional if spec.favor.causal else favor_bidirectional
            window = functools.partial(kernel, omega=self.feature_maps[block])
        masks = [self._dropout_mask(x.shape, rng) for _ in range(2)]  # attention's, then the FFN's
        windows = len(x.data) // length
        # chunked under a tape too: one chunk faulted in 3x the pages and trained slower
        count = -(-windows // max(1, CHUNK_ROWS // length)) or 1
        # chunks differ by at most a window: a lone row's product (gemv) rounds otherwise
        edges = [windows * i // count * length for i in range(count + 1)]
        outs, saved = [], []
        for s in map(slice, edges, edges[1:]):
            a, mh_back = multi_head(x.data[s], w_qkv, w_o, window, spec.heads, length)
            y, ln1_back = layer_norm(_masked(a, masks[0], s) + x.data[s], g1, b1)
            f, ffn_back = feed_forward(y, w1, c1, w2, c2)
            o, ln2_back = layer_norm(_masked(f, masks[1], s) + y, g2, b2)
            T.check_finite(o)
            outs.append(o)
            if T._active_tape() is not None:  # else no chunk's backward pass is kept
                saved.append((s, mh_back, ln1_back, ffn_back, ln2_back))
        # joined at the end: outputs held till then keep freed chunk buffers from the OS
        out = np.concatenate(outs)

        def backward(g):
            g_x, terms = np.empty_like(g), []
            for s, mh_back, ln1_back, ffn_back, ln2_back in saved:
                g_s2, ln2_terms = ln2_back(g[s])
                g_y, ffn_terms = ffn_back(_masked(g_s2, masks[1], s))
                g_s1, ln1_terms = ln1_back(g_y + g_s2)
                g_xq, mh_terms = mh_back(_masked(g_s1, masks[0], s))
                g_x[s] = g_s1 + g_xq
                terms.append(mh_terms + ln1_terms + ffn_terms + ln2_terms)
            return (g_x, *map(_weight_grad, zip(*terms)))

        return T._make((x, *params), out, backward, check=False)

    def _embed(self, windows: np.ndarray) -> Tensor:
        """x·W + b over every row of the (B, L, F) windows, plus the positional
        signal, added in place, when the variant runs blocks.  One tape node;
        its output check covers x·W, since adding b keeps a non-finite entry."""
        batch, length, n_feat = windows.shape
        w, b = self.params["embed.w"], self.params["embed.b"]
        x = np.ascontiguousarray(windows.reshape(batch * length, n_feat))
        out = x @ w.data
        out += b.data
        if self.positional is not None:
            rows = out.reshape(batch, length, self.spec.d_model)
            rows += self.positional
        return T._make((w, b), out,
                       lambda g: (_weight_grad([(x, g)]), _weight_grad([(None, g)])))

    def _head(self, x: Tensor) -> Tensor:
        """Each window's last row through the fully-connected layers
        (``feed_forward``): the (B, 1) predictions.  One tape node; it checks
        each relu's input and its output."""
        params = [t for name, t in self.params.items() if name.startswith("fc")]
        rows = np.arange(self.spec.window - 1, len(x.data), self.spec.window)
        last = x.data[rows]
        T.note_buffers(last)
        out, fc_back = feed_forward(last, *(p.data for p in params))

        def backward(g):
            g_last, pairs = fc_back(g)
            g_x = np.zeros(x.shape)
            g_x[rows] += g_last
            return (g_x, *(_weight_grad([pair]) for pair in pairs))

        return T._make((x, *params), out, backward)

    def forward_batch(self, windows: np.ndarray, rng=None) -> Tensor:
        """(B, L, F) feature windows -> (B, 1) normalized predictions; dropout
        applies exactly when ``rng`` is given.  One tape node per stage:
        the embedding, each block, each BiLSTM layer and the head."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3:
            raise ConfigError(f"expected (B, L, F) windows, got shape {windows.shape}")
        batch, length, n_feat = windows.shape
        spec = self.spec
        if length != spec.window or n_feat != spec.n_features:
            raise ConfigError(
                f"window shape ({length}, {n_feat}) != spec ({spec.window}, {spec.n_features})")

        x = self._embed(windows)
        for i in range(spec.blocks if spec.uses_attention else 0):
            x = self._encoder_block(x, i, rng)
        if spec.uses_bilstm:
            p = self.params
            for layer in (1, 2):
                fwd, bwd = ((p[f"bilstm{layer}.{d}.w"], p[f"bilstm{layer}.{d}.b"])
                            for d in ("fwd", "bwd"))
                mask = self._dropout_mask((length, batch, 2 * spec.bilstm_hidden), rng)
                x = bilstm_forward_steps(x, length, fwd, bwd, mask)
        return self._head(x)


def build(spec: ModelSpec) -> Model:
    """Deterministic construction from (spec, seed)."""
    return Model(spec)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainHyperparams:
    epochs: int = 50
    batch: int = 32
    lr: float = 1e-3
    grad_clip: float = 1.0

    def __post_init__(self):
        check_field("epochs", self.epochs, int, 0)
        check_field("batch", self.batch, int, 1)
        for name in ("lr", "grad_clip"):
            check_field(name, getattr(self, name), float, 0)


@dataclass
class TrainReport:
    train_losses: list
    val_losses: list
    best_epoch: int
    metrics: MetricSet | None
    seed: int
    parameter_count: int
    favor_generation: int = 0

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self),
                "metrics": self.metrics.to_dict() if self.metrics else None}


class _Adam:
    """Adaptive-moment updates with bias correction."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _clip_gradients(grads: dict[str, np.ndarray], clip: float) -> None:
    if clip <= 0:
        return
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if math.isinf(total) and all(np.isfinite(g).all() for g in grads.values()):
        # the squares overflowed: the norm of the gradients over their largest
        # magnitude, times it, where inf would zero every gradient
        peak = max(float(np.max(np.abs(g), initial=0.0)) for g in grads.values())
        total = peak * math.sqrt(sum(float(np.sum((g / peak) ** 2)) for g in grads.values()))
    if total > clip:
        factor = clip / total
        for name in grads:
            grads[name] = grads[name] * factor


def _batch_loss(model: Model, windows, targets, rng) -> Tensor:
    """The mean squared error of the predictions for ``windows``, as one tape
    node after the model's own; its output check covers every intermediate."""
    preds = model.forward_batch(windows, rng)
    diff = preds.data - np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    scale = 1.0 / len(targets)

    def backward(g):
        g_diff = (g * scale) * diff  # d(diff·diff) is the sum of two such terms
        return (g_diff + g_diff,)

    return T._make((preds,), (diff * diff).sum() * scale, backward)


def _predict(model: Model, windows, batch: int) -> np.ndarray:
    """Normalized predictions for (N, L, F) windows, ``batch`` windows per
    forward pass."""
    return np.concatenate([model.forward_batch(windows[lo:lo + batch]).data[:, 0]
                           for lo in range(0, len(windows), batch)])


def _eval_loss(model: Model, windows, targets, batch: int) -> float:
    squared = (_predict(model, windows, batch) - targets) ** 2
    total = 0.0
    for lo in range(0, len(windows), batch):  # another summation order moves the last bits
        total += float(np.sum(squared[lo:lo + batch]))
    return total / len(windows)


def train(model: Model, dataset: Dataset, hp: TrainHyperparams) -> TrainReport:
    """Minimize MSE on the train split; retain the best-validation weights. With
    no validation windows, the best epoch and the metrics come from the train split."""
    train_w, train_y = dataset.windows_for("train")
    val_w, val_y = dataset.windows_for("validation")
    if len(train_w) == 0:
        raise DataError("empty training split")
    spec = model.spec
    ss = np.random.SeedSequence([spec.seed, 0xF0CA5])
    shuffle_rng = np.random.default_rng(ss.spawn(1)[0])
    dropout_rng = np.random.default_rng(ss.spawn(1)[0])

    optimizer = _Adam(model.params, hp.lr)
    redraw_every = spec.favor.redraw_interval if spec.uses_favor else None
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch = 0
    best_val = math.inf
    best_state = model.state_arrays()
    best_generation = model.favor_generation
    step = 0

    for epoch in range(hp.epochs):
        order = shuffle_rng.permutation(len(train_w))
        epoch_loss = 0.0
        for lo in range(0, len(order), hp.batch):
            idx = order[lo:lo + hp.batch]
            if redraw_every and step > 0 and step % redraw_every == 0:
                model.set_favor_generation(model.favor_generation + 1)
            try:
                with GradTape() as tape:
                    for p in model.params.values():
                        tape.watch(p)
                    loss = _batch_loss(model, train_w[idx], train_y[idx], dropout_rng)
                tape.backward(loss)
            except FiniteError as exc:
                raise DivergenceError(
                    f"diverged at epoch {epoch}, step {step}: {exc}") from None
            grads = {name: p.grad for name, p in model.params.items()}
            _clip_gradients(grads, hp.grad_clip)
            optimizer.step(grads)
            epoch_loss += loss.item() * len(idx)
            step += 1
        train_losses.append(epoch_loss / len(order))

        if len(val_w):
            val_loss = _eval_loss(model, val_w, val_y, hp.batch)
        else:
            val_loss = train_losses[-1]
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = model.state_arrays()
            best_generation = model.favor_generation

    if hp.epochs > 0:
        model.load_state_arrays(best_state)
    if model.favor_generation != best_generation:
        # the best weights were validated with that epoch's feature draw
        model.set_favor_generation(best_generation)

    metrics = None
    split = "validation" if len(val_w) else "train"
    try:
        pred = predict_series(model, dataset, split)
        metrics = evaluate_metrics(pred.actual, pred.predicted)
    except DataError:
        pass  # degenerate splits (too short or constant) carry no metrics
    return TrainReport(train_losses, val_losses, best_epoch, metrics,
                       spec.seed, model.parameter_count(), model.favor_generation)


@dataclass
class PredictionSeries:
    timestamps: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray


def predict_series(model: Model, dataset: Dataset, split: str,
                   batch: int = 64) -> PredictionSeries:
    """One-step-ahead predictions over a split, denormalized to price scale."""
    r = dataset.split.named()[split]
    if len(r) == 0:
        raise DataError(f"empty split '{split}'")
    preds = _predict(model, dataset.windows[r.start:r.stop], batch)
    return PredictionSeries(
        timestamps=dataset.target_times[r.start:r.stop].copy(),
        actual=dataset.raw_targets[r.start:r.stop].copy(),
        predicted=dataset.norm.denormalize_target(preds),
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"FFCK"
CHECKPOINT_VERSION = 2
HEADER_FIELDS = {"spec", "favor_generation", "norm", "params"}


def _reject_non_finite(literal: str):
    raise ConfigError(f"non-finite number {literal} is not allowed")


def read_json(text: str):
    """A config file or checkpoint header parsed as JSON; a ``NaN`` or
    ``Infinity`` literal (which ``json`` reads as a float) or nesting too deep
    for the parser raises ConfigError."""
    try:
        return json.loads(text, parse_constant=_reject_non_finite)
    except RecursionError:
        raise ConfigError("JSON nested too deeply") from None


def save_checkpoint(model: Model, norm: ColumnStats, path) -> None:
    """Binary layout: magic, version, header length, JSON header, flat
    little-endian float64 parameter buffers in header order.

    Written through :func:`data.atomic_write`: a save that fails leaves any
    earlier file at ``path`` as it was."""
    header = {
        "spec": model.spec.to_dict(),
        "favor_generation": model.favor_generation,
        "norm": norm.to_dict(),
        "params": [{"name": name, "shape": list(t.data.shape)}
                   for name, t in model.params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for t in model.params.values():
            fh.write(t.data.astype("<f8", copy=False).tobytes())


def _v1_parts(name: str, shape: tuple, heads: int) -> tuple[list, tuple, int]:
    """The version 1 parameters that parameter ``name`` of ``shape`` joins:
    their names in file order, the shape of each and the axis they join on.
    Version 1 stored each head's q, k and v projection, and each LSTM gate's
    matrix and bias, as parameters of their own."""
    base, _, leaf = name.rpartition(".")
    rows, cols = shape
    if leaf == "qkv":
        heads_qkv = [f"{base}.{m}{j}" for j in range(heads) for m in "qkv"]
        return heads_qkv, (rows, cols // (3 * heads)), 1
    if base.startswith("bilstm"):
        gates = [f"{name}_{gate}" for gate in "fico"]
        return (gates, (rows // 4, cols), 0) if leaf == "w" else (gates, (1, cols // 4), 1)
    return [name], shape, 0


def load_checkpoint(path) -> tuple[Model, ColumnStats]:
    """Inverse of :func:`save_checkpoint`, which also reads version 1 files;
    a malformed file raises ConfigError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:  # every check below raises a ValueError (ConfigError) without the path
        if blob[:4] != CHECKPOINT_MAGIC:
            raise ConfigError(f"not a checkpoint (magic {blob[:4]!r})")
        version, header_len = struct.unpack_from("<II", blob, 4)
        if version not in (1, CHECKPOINT_VERSION):
            raise ConfigError(f"unsupported checkpoint version {version}")
        offset = 12 + header_len
        header = read_json(blob[12:offset].decode("utf-8"))
        # version 1 headers also repeat the binary version and spec.seed
        fields = HEADER_FIELDS | ({"version", "seed"} if version == 1 else set())
        if not isinstance(header, dict) or header.keys() != fields:
            raise ConfigError(f"header fields {sorted(header)} != {sorted(fields)}")
        spec = ModelSpec.from_dict(header["spec"])
        if version == 1:  # each copy must agree with what it repeats
            for field, expected in (("version", version), ("seed", spec.seed)):
                value = header[field]
                if type(value) is not int or value != expected:
                    raise ConfigError(f"header {field} {value!r} != {expected}")
        model = build(spec)
        model.set_favor_generation(header["favor_generation"])
        norm = ColumnStats.from_dict(header["norm"])
        parts = {name: _v1_parts(name, t.data.shape, spec.heads) if version == 1
                 else ([name], t.data.shape, 0) for name, t in model.params.items()}
        layout = [{"name": part, "shape": list(shape)}
                  for names, shape, _ in parts.values() for part in names]
        # compared as JSON, so that a bool or a float does not pass for an int
        if json.dumps(header["params"], sort_keys=True) != json.dumps(layout, sort_keys=True):
            raise ConfigError("parameter names and shapes do not match the architecture")
        counts = [math.prod(entry["shape"]) for entry in layout]
        if len(blob) - offset != 8 * sum(counts):
            raise ConfigError(f"{len(blob) - offset} bytes of parameters, expected "
                              f"{8 * sum(counts)}")
        flat = np.frombuffer(blob, dtype="<f8", offset=offset)
        if not np.isfinite(flat).all():
            raise ConfigError("a parameter is not finite")
        arrays = iter(np.split(flat, np.cumsum(counts)[:-1]))
        model.load_state_arrays({
            name: np.concatenate([next(arrays).reshape(shape) for _ in names], axis=axis)
            for name, (names, shape, axis) in parts.items()})
    except KeyError as exc:
        raise ConfigError(f"{path}: header field {exc} missing") from None
    except (struct.error, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return model, norm

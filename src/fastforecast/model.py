"""Model assembly, training and prediction.

The full architecture: affine input embedding, sinusoidal positional
encoding, a stack of encoder blocks (self-attention sublayer with residual
and layer norm, then a position-wise feed-forward sublayer with residual
and layer norm), two bidirectional LSTM layers, and a fully-connected head
that reads the last timestep's representation and emits the normalized
next-close prediction.

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
from .errors import ConfigError, DataError, DivergenceError, FiniteError
# favor_bidirectional and favor_unidirectional are not called here: they are
# imported so that a tracer wrapping the kernels under this module's names
# (perfbench/tracing.py) still finds them
from .favor import (FavorConfig, draw_features, favor_bidirectional, favor_unidirectional,
                    favor_window)
from .lstm import LstmWeights, bilstm_forward_steps, init_lstm_weights
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
        object.__setattr__(self, "fc_widths", tuple(self.fc_widths))
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}'")
        if min(self.window, self.n_features, self.d_model, self.heads, self.blocks,
               self.bilstm_hidden, *self.fc_widths) < 1:
            raise ConfigError("window, n_features, d_model, heads, blocks, bilstm_hidden "
                              "and fc_widths must be positive")
        if not self.fc_widths or self.fc_widths[-1] != 1:
            raise ConfigError("fc_widths must end in 1 (scalar close output)")
        if isinstance(self.dropout, bool) or not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be a number in [0, 1), got {self.dropout!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
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
        """Inverse of :meth:`to_dict`; an unknown field raises TypeError."""
        d = dict(d)
        if d.get("favor") is not None:
            d["favor"] = FavorConfig(**d["favor"])
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
    """Sum over axis 1, kept with extent 1, as the tape sums the gradient of a
    broadcast (N, 1) operand: a single column is returned as it is."""
    return a if a.shape[1] == 1 else a.sum(axis=1, keepdims=True)


def _glorot(rng, fan_in, fan_out):
    lim = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-lim, lim, size=(fan_in, fan_out)), requires_grad=True)


class Model:
    """Built network: ordered parameter dict plus the fixed wiring."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.params: dict[str, Tensor] = {}
        self.feature_maps: list[list[np.ndarray]] = []
        self.favor_generation: int | None = None  # no Ω drawn yet
        rng = np.random.default_rng(spec.seed)
        d = spec.d_model

        self.params["embed.w"] = _glorot(rng, spec.n_features, d)
        self.params["embed.b"] = Tensor(np.zeros((1, d)), requires_grad=True)
        self.positional = sinusoidal_encoding(spec.window, d) if spec.uses_attention else None

        if spec.uses_attention:
            d_k = d // spec.heads
            for i in range(spec.blocks):
                for j in range(spec.heads):
                    self.params[f"block{i}.attn.q{j}"] = _glorot(rng, d, d_k)
                    self.params[f"block{i}.attn.k{j}"] = _glorot(rng, d, d_k)
                    self.params[f"block{i}.attn.v{j}"] = _glorot(rng, d, d_k)
                self.params[f"block{i}.attn.o"] = _glorot(rng, spec.heads * d_k, d)
                self.params[f"block{i}.ln1.g"] = Tensor(np.ones((1, d)), requires_grad=True)
                self.params[f"block{i}.ln1.b"] = Tensor(np.zeros((1, d)), requires_grad=True)
                d_ff = 4 * d
                self.params[f"block{i}.ffn.w1"] = _glorot(rng, d, d_ff)
                self.params[f"block{i}.ffn.b1"] = Tensor(np.zeros((1, d_ff)), requires_grad=True)
                self.params[f"block{i}.ffn.w2"] = _glorot(rng, d_ff, d)
                self.params[f"block{i}.ffn.b2"] = Tensor(np.zeros((1, d)), requires_grad=True)
                self.params[f"block{i}.ln2.g"] = Tensor(np.ones((1, d)), requires_grad=True)
                self.params[f"block{i}.ln2.b"] = Tensor(np.zeros((1, d)), requires_grad=True)
        self.set_favor_generation(0)

        if spec.uses_bilstm:
            width_in = d
            hidden = spec.bilstm_hidden
            for layer in (1, 2):
                for direction in ("fwd", "bwd"):
                    w = init_lstm_weights(width_in, hidden, rng)
                    for f in dataclasses.fields(w):
                        self.params[f"bilstm{layer}.{direction}.{f.name}"] = getattr(w, f.name)
                width_in = 2 * hidden
            head_in = 2 * hidden
        else:
            head_in = d

        widths = [head_in, *spec.fc_widths]
        for k, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            self.params[f"fc{k}.w"] = _glorot(rng, fan_in, fan_out)
            self.params[f"fc{k}.b"] = Tensor(np.zeros((1, fan_out)), requires_grad=True)

    # -- structure helpers ---------------------------------------------------

    def set_favor_generation(self, generation: int) -> None:
        """Draw one projection Ω per (block, head) from the favor seed and the
        redraw generation, so redraws stay reproducible.  Ω depends on nothing
        else, so the generation already drawn is kept as it is."""
        if type(generation) is not int or generation < 0:
            raise ConfigError(f"favor_generation must be an integer >= 0, got {generation!r}")
        if generation == self.favor_generation:
            return
        self.favor_generation = generation
        spec = self.spec
        if spec.uses_favor:
            ss = np.random.SeedSequence([spec.favor.seed, generation])
            seeds = ss.generate_state(spec.blocks * spec.heads, dtype=np.uint64)
            self.feature_maps = [[draw_features(dataclasses.replace(spec.favor, seed=seed))
                                  for seed in row]
                                 for row in seeds.reshape(spec.blocks, spec.heads).tolist()]

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

    def _lstm_weights(self, layer: int, direction: str) -> LstmWeights:
        base = f"bilstm{layer}.{direction}"
        return LstmWeights(**{f.name: self.params[f"{base}.{f.name}"]
                              for f in dataclasses.fields(LstmWeights)})

    # -- forward pass ----------------------------------------------------------

    def _dropout(self, x: Tensor, rng) -> Tensor:
        p = self.spec.dropout
        if rng is None or p <= 0.0:
            return x
        mask = (rng.random(x.shape) >= p) / (1.0 - p)
        return T.mul(x, Tensor(mask))

    def _layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        """(x - mean) / √(var + eps) · gain + bias over each row, as one tape
        node with the arithmetic of the composed primitives.

        The variance and the output are checked.  A non-finite mean makes
        every centered entry, and so the variance, non-finite; a finite
        variance bounds the normalised rows."""
        xd, gd = x.data, gain.data
        n = xd.shape[1]
        mean = xd.sum(axis=1, keepdims=True)
        mean *= 1.0 / n
        centered = xd - mean
        out = centered * centered  # the squares' buffer becomes the output
        var = out.sum(axis=1, keepdims=True)
        var *= 1.0 / n
        T.check_finite(var)
        std = var + LAYER_NORM_EPS
        np.sqrt(std, out=std)
        inv = 1.0 / std
        np.multiply(centered, inv, out=out)
        out *= gd
        out += bias.data
        T.note_buffers(centered)

        def backward(g):
            g_normed = g * gd
            g_inv = _row_sum(g_normed * centered)
            g_var = -g_inv * inv * inv * (0.5 / std) * (1.0 / n)
            # the tape sums the gradient of ``centered`` over the output path,
            # then both operands of centered·centered; ``x`` takes the sub
            # path before the mean path
            via_var = g_var * centered
            g_centered = g_normed * inv
            g_centered += via_var
            g_centered += via_var
            g_x = None
            if x.requires_grad:
                g_x = g_centered + (-_row_sum(g_centered)) * (1.0 / n)
            return (g_x,
                    T._sum_to(gain, g * (centered * inv)) if gain.requires_grad else None,
                    T._sum_to(bias, g))

        return T._make((x, gain, bias), out, backward)

    def _feed_forward(self, x: Tensor, block: int) -> Tensor:
        """relu(x W1 + b1) W2 + b2 as one tape node with the arithmetic of the
        composed primitives.  The pre-activation and the output are checked;
        the backward pass keeps only the post-relu hidden array."""
        p = self.params
        w1, b1, w2, b2 = (p[f"block{block}.ffn.{name}"] for name in ("w1", "b1", "w2", "b2"))
        xd, w1d, w2d = x.data, w1.data, w2.data
        hidden = xd @ w1d
        hidden += b1.data
        T.check_finite(hidden)
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ w2d
        out += b2.data
        T.note_buffers(hidden)

        def backward(g):
            g_hidden = None
            if x.requires_grad or w1.requires_grad or b1.requires_grad:
                g_hidden = g @ w2d.T
                g_hidden *= hidden > 0
            return (g_hidden @ w1d.T if x.requires_grad else None,
                    xd.T @ g_hidden if w1.requires_grad else None,
                    T._sum_to(b1, g_hidden) if g_hidden is not None else None,
                    hidden.T @ g if w2.requires_grad else None,
                    T._sum_to(b2, g))

        return T._make((x, w1, b1, w2, b2), out, backward)

    def _attention_sublayer(self, x: Tensor, block: int) -> Tensor:
        spec = self.spec
        p = self.params
        if spec.uses_favor:
            kernels = [functools.partial(favor_window, omega=omega, causal=spec.favor.causal)
                       for omega in self.feature_maps[block]]
        else:
            kernels = [softmax_window] * spec.heads
        w_qkv = T.concat([p[f"block{block}.attn.{m}{j}"]
                          for j in range(spec.heads) for m in "qkv"], axis=1)
        # multi_head is looked up here, at call time, so a wrapper installed
        # on this module's name (a tracer) sees every call
        return multi_head(x, w_qkv, p[f"block{block}.attn.o"], kernels, spec.window)

    def _encoder_block(self, x: Tensor, block: int, rng) -> Tensor:
        p = self.params
        a = self._dropout(self._attention_sublayer(x, block), rng)
        x = self._layer_norm(T.add(x, a), p[f"block{block}.ln1.g"], p[f"block{block}.ln1.b"])
        f = self._dropout(self._feed_forward(x, block), rng)
        return self._layer_norm(T.add(x, f), p[f"block{block}.ln2.g"], p[f"block{block}.ln2.b"])

    def forward_batch(self, windows: np.ndarray, rng=None) -> Tensor:
        """(B, L, F) feature windows -> (B, 1) normalized predictions; dropout
        applies exactly when ``rng`` is given."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3:
            raise ConfigError(f"expected (B, L, F) windows, got shape {windows.shape}")
        batch, length, n_feat = windows.shape
        spec = self.spec
        if length != spec.window or n_feat != spec.n_features:
            raise ConfigError(
                f"window shape ({length}, {n_feat}) != spec ({spec.window}, {spec.n_features})")

        x = Tensor(windows.reshape(batch * length, n_feat))
        x = T.add(T.matmul(x, self.params["embed.w"]), self.params["embed.b"])
        if spec.uses_attention:
            x = T.add(x, Tensor(np.tile(self.positional, (batch, 1))))
            for i in range(spec.blocks):
                x = self._encoder_block(x, i, rng)

        if spec.uses_bilstm:
            # time-major rows: row t·B + b is window b at step t
            seq = T.take_rows(x, (np.arange(length)[:, None]
                                  + np.arange(batch) * length).reshape(-1))
            for layer in (1, 2):
                seq = bilstm_forward_steps(seq, batch, self._lstm_weights(layer, "fwd"),
                                           self._lstm_weights(layer, "bwd"))
                seq = self._dropout(seq, rng)
            rep = T.take_rows(seq, np.arange((length - 1) * batch, length * batch))
        else:
            rep = T.take_rows(x, np.arange(batch) * length + (length - 1))

        n_fc = len(self.spec.fc_widths)
        h = rep
        for k in range(n_fc):
            h = T.add(T.matmul(h, self.params[f"fc{k}.w"]), self.params[f"fc{k}.b"])
            if k < n_fc - 1:
                h = T.relu(h)
        return h


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
        if self.epochs < 0 or self.batch < 1 or self.lr < 0 or self.grad_clip < 0:
            raise ConfigError("hyperparameters must be nonnegative (batch >= 1)")


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
    if total > clip:
        factor = clip / total
        for name in grads:
            grads[name] = grads[name] * factor


def _batch_loss(model: Model, windows, targets, rng) -> Tensor:
    preds = model.forward_batch(windows, rng)
    target_t = Tensor(np.asarray(targets, dtype=np.float64).reshape(-1, 1))
    diff = T.sub(preds, target_t)
    return T.mul(T.tsum(T.mul(diff, diff)), 1.0 / len(targets))


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
    """Minimize MSE on the train split; retain the best-validation weights."""
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
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise FiniteError("non-finite loss")
                tape.backward(loss)
            except FiniteError as exc:
                raise DivergenceError(
                    f"diverged at epoch {epoch}, step {step}: {exc}") from None
            grads = {name: p.grad for name, p in model.params.items()}
            _clip_gradients(grads, hp.grad_clip)
            optimizer.step(grads)
            epoch_loss += loss_value * len(idx)
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
CHECKPOINT_VERSION = 1


def save_checkpoint(model: Model, norm: ColumnStats, path) -> None:
    """Binary layout: magic, version, header length, JSON header, flat
    little-endian float64 parameter buffers in header order.

    Written through :func:`data.atomic_write`: a save that fails leaves any
    earlier file at ``path`` as it was."""
    header = {
        "version": CHECKPOINT_VERSION,
        "spec": model.spec.to_dict(),
        "seed": model.spec.seed,
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


def load_checkpoint(path) -> tuple[Model, ColumnStats]:
    """Inverse of :func:`save_checkpoint`; a malformed file raises ConfigError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:  # every check below raises a ValueError (ConfigError) without the path
        if blob[:4] != CHECKPOINT_MAGIC:
            raise ConfigError(f"not a checkpoint (magic {blob[:4]!r})")
        version, header_len = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        offset = 12 + header_len
        header = json.loads(blob[12:offset].decode("utf-8"))
        spec = ModelSpec.from_dict(header["spec"])
        # the header repeats the binary version and spec.seed; each copy must agree
        for field, expected in (("version", version), ("seed", spec.seed)):
            value = header[field]
            if type(value) is not int or value != expected:
                raise ConfigError(f"header {field} {value!r} != {expected}")
        model = build(spec)
        model.set_favor_generation(header["favor_generation"])
        norm = ColumnStats.from_dict(header["norm"])
        state = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = blob[offset:offset + count * 8]
            if len(buf) != count * 8:
                raise ConfigError("truncated parameter buffer")
            arr = np.frombuffer(buf, dtype="<f8")
            if not np.isfinite(arr).all():
                raise ConfigError(f"parameter '{entry['name']}' is not finite")
            state[entry["name"]] = arr.reshape(shape).copy()
            offset += count * 8
        if offset != len(blob):
            raise ConfigError(f"{len(blob) - offset} bytes after the last parameter buffer")
        if set(state) != set(model.params):
            raise ConfigError("parameter names do not match the architecture")
        model.load_state_arrays(state)
    except KeyError as exc:
        raise ConfigError(f"{path}: header field {exc} missing") from None
    except (struct.error, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return model, norm

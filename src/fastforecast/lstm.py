"""LSTM cell and bidirectional LSTM layer.

The cell applies the four-gate recurrence: forget, input and output gates
through sigmoids, candidate cell state through tanh,

    C_t = f ⊙ C_{t-1} + i ⊙ C̃,    h_t = o ⊙ tanh(C_t),

all gates reading the concatenation [h_{t-1}, x_t] (hidden part first).
Rows are batch entries, so the same code serves a single sequence (one row)
and a mini-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


@dataclass
class LstmWeights:
    """Per-gate matrices of shape (hidden, hidden+input) plus biases."""

    w_f: Tensor
    w_i: Tensor
    w_c: Tensor
    w_o: Tensor
    b_f: Tensor  # (1, hidden)
    b_i: Tensor
    b_c: Tensor
    b_o: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_f.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_f.shape[1] - self.w_f.shape[0]

    def check(self) -> None:
        shape = self.w_f.shape
        for w in (self.w_i, self.w_c, self.w_o):
            if w.shape != shape:
                raise ShapeError("all four gate matrices must share a shape")
        for b in (self.b_f, self.b_i, self.b_c, self.b_o):
            if b.shape != (1, shape[0]):
                raise ShapeError("gate biases must be (1, hidden)")


@dataclass
class LstmState:
    h: Tensor  # (batch, hidden)
    c: Tensor  # (batch, hidden)


def init_lstm_weights(input_size: int, hidden_size: int,
                      rng: np.random.Generator) -> LstmWeights:
    """Uniform init in [-1/sqrt(hidden), 1/sqrt(hidden)]; forget bias 1.0."""
    lim = 1.0 / np.sqrt(hidden_size)
    width = hidden_size + input_size

    def w():
        return Tensor(rng.uniform(-lim, lim, size=(hidden_size, width)), requires_grad=True)

    def b(fill=0.0):
        return Tensor(np.full((1, hidden_size), fill), requires_grad=True)

    return LstmWeights(w_f=w(), w_i=w(), w_c=w(), w_o=w(),
                       b_f=b(1.0), b_i=b(), b_c=b(), b_o=b())


def zero_state(batch: int, hidden: int) -> LstmState:
    return LstmState(Tensor(np.zeros((batch, hidden))), Tensor(np.zeros((batch, hidden))))


def lstm_cell(x: Tensor, prev: LstmState, w: LstmWeights) -> LstmState:
    """One step of the recurrence for a (batch, input) slice."""
    if x.data.ndim != 2 or x.shape[1] != w.input_size:
        raise ShapeError(f"cell input width {x.shape} != {w.input_size}")
    if prev.h.shape != (x.shape[0], w.hidden_size):
        raise ShapeError("previous state does not match batch/hidden sizes")
    z = T.concat([prev.h, x], axis=1)  # (batch, hidden+input)

    def gate(wm, bias, squash):
        return squash(T.add_colwise(T.matmul(z, T.transpose(wm)), bias))

    f = gate(w.w_f, w.b_f, T.sigmoid)
    i = gate(w.w_i, w.b_i, T.sigmoid)
    c_tilde = gate(w.w_c, w.b_c, T.tanh)
    o = gate(w.w_o, w.b_o, T.sigmoid)
    c = T.add(T.mul(f, prev.c), T.mul(i, c_tilde))
    h = T.mul(o, T.tanh(c))
    return LstmState(h, c)


def lstm_forward_steps(steps: list, w: LstmWeights) -> list:
    """Fold over per-timestep (batch, input) slices; one hidden slice per step."""
    if not steps:
        raise ShapeError("empty sequence")
    w.check()
    state = zero_state(steps[0].shape[0], w.hidden_size)
    outs = []
    for x in steps:
        state = lstm_cell(x, state, w)
        outs.append(state.h)
    return outs


def bilstm_forward_steps(steps: list, w_fwd: LstmWeights, w_bwd: LstmWeights):
    """Batched core: returns (forward, backward) hidden slices, time-aligned."""
    if w_fwd.hidden_size != w_bwd.hidden_size:
        raise ShapeError("forward/backward hidden sizes differ")
    fwd = lstm_forward_steps(steps, w_fwd)
    bwd = lstm_forward_steps(steps[::-1], w_bwd)[::-1]
    return fwd, bwd

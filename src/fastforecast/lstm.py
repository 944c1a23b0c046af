"""LSTM cell and bidirectional LSTM layer.

The cell applies the four-gate recurrence: forget, input and output gates
through sigmoids, candidate cell state through tanh,

    C_t = f ⊙ C_{t-1} + i ⊙ C̃,    h_t = o ⊙ tanh(C_t),

all gates reading the concatenation [h_{t-1}, x_t] (hidden part first).
Rows are batch entries, so the same code serves a single sequence (one row)
and a mini-batch.

``lstm_cell`` is one step built from tensor primitives: it takes the
previous states h and c and returns the new pair ``(h, c)``.
``lstm_sequence`` runs the whole recurrence over a time-major sequence as
one fused tape node: each step computes all four gates with one matmul,
[h_{t-1}, x_t] @ W_allᵀ + b, with the gate matrices stacked inside the
kernel, and the backward pass is backpropagation through time in numpy.
It does the same arithmetic as a fold over ``lstm_cell``, so the two agree
bit for bit.
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


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w: LstmWeights) -> tuple[Tensor, Tensor]:
    """One step of the recurrence for a (batch, input) slice, from the
    (batch, hidden) previous states h and c; returns the new (h, c)."""
    if x.data.ndim != 2 or x.shape[1] != w.input_size:
        raise ShapeError(f"cell input width {x.shape} != {w.input_size}")
    if h.shape != (x.shape[0], w.hidden_size):
        raise ShapeError("previous state does not match batch/hidden sizes")
    z = T.concat([h, x], axis=1)  # (batch, hidden+input)

    def gate(wm, bias, squash):
        return squash(T.add(T.matmul(z, T.transpose(wm)), bias))

    f = gate(w.w_f, w.b_f, T.sigmoid)
    i = gate(w.w_i, w.b_i, T.sigmoid)
    c_tilde = gate(w.w_c, w.b_c, T.tanh)
    o = gate(w.w_o, w.b_o, T.sigmoid)
    c = T.add(T.mul(f, c), T.mul(i, c_tilde))
    return T.mul(o, T.tanh(c)), c


def lstm_sequence(xs: Tensor, batch: int, w: LstmWeights, reverse: bool = False) -> Tensor:
    """The recurrence over a time-major (L·batch, input) sequence, from a zero
    state: rows t·batch .. t·batch + batch - 1 are step t.  Returns the
    (L·batch, hidden) hidden states in the same row order; ``reverse`` runs
    from the last step to the first.  One tape node."""
    w.check()
    if xs.data.ndim != 2 or xs.shape[1] != w.input_size:
        raise ShapeError(f"sequence input width {xs.shape} != {w.input_size}")
    rows, hid = xs.shape[0], w.hidden_size
    if batch < 1 or rows == 0 or rows % batch:
        raise ShapeError(f"{rows} rows are not whole steps of batch {batch}")
    length = rows // batch
    gate_w = (w.w_f, w.w_i, w.w_c, w.w_o)
    gate_b = (w.b_f, w.b_i, w.b_c, w.b_o)
    w_all = np.concatenate([m.data for m in gate_w])  # (4·hidden, hidden+input)
    b_all = np.concatenate([b.data for b in gate_b], axis=1)  # (1, 4·hidden)
    x_seq = xs.data.reshape(length, batch, -1)
    if reverse:
        x_seq = x_seq[::-1]
    # per step, in the order the steps run: the cell input [h_{t-1}, x_t],
    # the activations f, i, C̃, o side by side, C_t and tanh(C_t); h_t goes
    # straight into the output, which is in time order
    z = np.empty((length, batch, w_all.shape[1]))
    z[:, :, hid:] = x_seq
    act = np.empty((length, batch, 4 * hid))
    c = np.empty((length, batch, hid))
    tanh_c = np.empty_like(c)
    out = np.empty_like(c)
    h = out[::-1] if reverse else out
    h_prev = c_prev = np.zeros((batch, hid))
    for t in range(length):
        z[t, :, :hid] = h_prev
        a = z[t] @ w_all.T + b_all
        T.check_finite(a)  # the composed matmul and bias add reject the same
        gates = act[t]
        gates[:] = T._stable_sigmoid(a)
        gates[:, 2 * hid:3 * hid] = np.tanh(a[:, 2 * hid:3 * hid])
        f, i, c_tilde, o = np.split(gates, 4, axis=1)
        c[t] = f * c_prev + i * c_tilde
        tanh_c[t] = np.tanh(c[t])
        h[t] = o * tanh_c[t]
        h_prev, c_prev = h[t], c[t]
    T.note_buffers(z, act, c, tanh_c)

    def backward(g):
        g_seq = g.reshape(length, batch, hid)
        if reverse:
            g_seq = g_seq[::-1]
        f, i, c_tilde, o = np.split(act, 4, axis=2)
        c_before = np.concatenate([np.zeros((1, batch, hid)), c[:-1]])
        # d a_t = dC_t ⊙ [C_{t-1} σ'(f), C̃ σ'(i), i tanh'(C̃)] and dh_t ⊙ tanh(C_t) σ'(o)
        via_c = np.concatenate([c_before * f * (1.0 - f), c_tilde * i * (1.0 - i),
                                i * (1.0 - c_tilde * c_tilde)], axis=2)
        via_h = tanh_c * o * (1.0 - o)
        h_to_c = o * (1.0 - tanh_c * tanh_c)
        w_h = w_all[:, :hid]
        da = np.empty_like(act)
        dh_next = dc_next = np.zeros((batch, hid))
        for t in range(length - 1, -1, -1):
            dh = g_seq[t] + dh_next
            dc = dc_next + dh * h_to_c[t]
            da[t, :, :3 * hid] = np.tile(dc, 3) * via_c[t]
            da[t, :, 3 * hid:] = dh * via_h[t]
            dc_next = dc * f[t]
            dh_next = da[t] @ w_h
        da = da.reshape(rows, 4 * hid)
        dw = np.split(da.T @ z.reshape(rows, -1), 4)
        db = np.split(da.sum(axis=0, keepdims=True), 4, axis=1)
        dx = None
        if xs.requires_grad:
            dx = (da @ w_all[:, hid:]).reshape(length, batch, -1)
            dx = (dx[::-1] if reverse else dx).reshape(rows, -1)
        return (dx, *dw, *db)

    return T._make((xs, *gate_w, *gate_b), out.reshape(rows, hid), backward, check=False)


def bilstm_forward_steps(xs: Tensor, batch: int, w_fwd: LstmWeights,
                         w_bwd: LstmWeights) -> Tensor:
    """Both directions over a time-major (L·batch, input) sequence: the
    (L·batch, 2·hidden) states, the forward half first, time-aligned."""
    if w_fwd.hidden_size != w_bwd.hidden_size:
        raise ShapeError("forward/backward hidden sizes differ")
    return T.concat([lstm_sequence(xs, batch, w_fwd),
                     lstm_sequence(xs, batch, w_bwd, reverse=True)], axis=1)

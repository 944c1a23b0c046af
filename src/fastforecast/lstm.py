"""LSTM step and bidirectional LSTM layer.

The step applies the four-gate recurrence: forget, input and output gates
through sigmoids, candidate cell state through tanh,

    C_t = f ⊙ C_{t-1} + i ⊙ C̃,    h_t = o ⊙ tanh(C_t),

all gates reading the concatenation [h_{t-1}, x_t] (hidden part first).
Rows are batch entries, so the same code serves a single sequence (one row)
and a mini-batch.

A direction's weights are a pair (W, b), stored as the kernel reads them: W
is (4·hidden, hidden+input) with the gates' row blocks in the order f, i,
C̃, o, and b is (1, 4·hidden) with its columns in the same order.

``lstm_cell`` is one step in numpy: all four gates with one matmul,
[h_{t-1}, x_t] @ Wᵀ + b, then the new cell and hidden states.
``lstm_sequence`` runs one direction's recurrence over a time-major
(L, batch, input) array in numpy, calling ``lstm_cell`` once per step, and
returns the states with their backward pass, backpropagation through time,
as the attention window functions return theirs.  ``bilstm_forward_steps``
runs it on the sequence and on its time-reversed view, and is the layer's one
tape node.  The step does the same
arithmetic as the cell composed from tensor primitives in
``tests/reference.py``, so a direction agrees with a fold over that cell
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


def _sizes(w: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """(hidden, input) of a direction's (W, b) arrays; raises ShapeError unless
    W is (4·hidden, hidden+input) and b is (1, 4·hidden)."""
    if w.ndim != 2 or w.shape[0] % 4 or b.shape != (1, w.shape[0]):
        raise ShapeError(f"gate weights {w.shape} and bias {b.shape} are not "
                         "(4·hidden, hidden+input) and (1, 4·hidden)")
    hidden = w.shape[0] // 4
    return hidden, w.shape[1] - hidden


def init_lstm_weights(input_size: int, hidden_size: int,
                      rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """(W, b) uniform in [-1/sqrt(hidden), 1/sqrt(hidden)]; forget bias 1.0."""
    lim = 1.0 / math.sqrt(hidden_size)
    w = rng.uniform(-lim, lim, size=(4 * hidden_size, hidden_size + input_size))
    b = np.zeros((1, 4 * hidden_size))
    b[:, :hidden_size] = 1.0
    return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; exp never overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def lstm_cell(z: np.ndarray, w: np.ndarray, b: np.ndarray, c_prev: np.ndarray):
    """One step for a batch, from the (batch, hidden+input) cell input
    z = [h_{t-1}, x_t], a direction's W and b arrays and the (batch, hidden)
    C_{t-1}: returns the activations f, i, C̃, o side by side, C_t, tanh(C_t)
    and h_t."""
    hid = c_prev.shape[1]
    a = z @ w.T + b
    T.check_finite(a)  # the composed matmul and bias add reject the same
    act = _stable_sigmoid(a)
    act[:, 2 * hid:3 * hid] = np.tanh(a[:, 2 * hid:3 * hid])
    f, i, c_tilde, o = np.split(act, 4, axis=1)
    c = f * c_prev + i * c_tilde
    tanh_c = np.tanh(c)
    return act, c, tanh_c, o * tanh_c


def lstm_sequence(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The recurrence over a time-major (L, batch, input) sequence, from a zero
    state at step 0, with a direction's W and b arrays.  Returns the
    (L, batch, hidden) hidden states and the backward pass, which maps their
    gradient to dx, dW and db."""
    hid, input_size = _sizes(w, b)
    if x.ndim != 3 or x.shape[2] != input_size:
        raise ShapeError(f"sequence input width {x.shape} != {input_size}")
    length, batch = x.shape[:2]
    # per step: the cell input [h_{t-1}, x_t], the activations f, i, C̃, o
    # side by side, C_t and tanh(C_t); h_t goes straight into the output
    z = np.empty((length, batch, w.shape[1]))
    z[:, :, hid:] = x
    act = np.empty((length, batch, 4 * hid))
    c = np.empty((length, batch, hid))
    tanh_c = np.empty_like(c)
    h = np.empty_like(c)
    h_prev = c_prev = np.zeros((batch, hid))
    # lstm_cell is looked up at call time, so a wrapper installed on this
    # module's name (a tracer) sees every step
    for t in range(length):
        z[t, :, :hid] = h_prev
        act[t], c[t], tanh_c[t], h[t] = lstm_cell(z[t], w, b, c_prev)
        h_prev, c_prev = h[t], c[t]
    T.note_buffers(z, act, c, tanh_c)

    def backward(g):
        f, i, c_tilde, o = np.split(act, 4, axis=2)
        c_before = np.concatenate([np.zeros((1, batch, hid)), c[:-1]])
        # d a_t = dC_t ⊙ [C_{t-1} σ'(f), C̃ σ'(i), i tanh'(C̃)] and dh_t ⊙ tanh(C_t) σ'(o)
        via_c = np.concatenate([c_before * f * (1.0 - f), c_tilde * i * (1.0 - i),
                                i * (1.0 - c_tilde * c_tilde)], axis=2)
        via_h = tanh_c * o * (1.0 - o)
        h_to_c = o * (1.0 - tanh_c * tanh_c)
        w_h = w[:, :hid]
        da = np.empty_like(act)
        dh_next = dc_next = np.zeros((batch, hid))
        for t in range(length - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dc_next + dh * h_to_c[t]
            da[t, :, :3 * hid] = np.tile(dc, 3) * via_c[t]
            da[t, :, 3 * hid:] = dh * via_h[t]
            dc_next = dc * f[t]
            dh_next = da[t] @ w_h
        da = da.reshape(length * batch, 4 * hid)
        return ((da @ w[:, hid:]).reshape(length, batch, -1),
                da.T @ z.reshape(length * batch, -1), da.sum(axis=0, keepdims=True))

    return h, backward


def bilstm_forward_steps(xs: Tensor, batch: int, fwd: tuple[Tensor, Tensor],
                         bwd: tuple[Tensor, Tensor]) -> Tensor:
    """Both directions, each a (W, b) pair, over a time-major (L·batch, input)
    sequence, whose rows t·batch .. t·batch + batch - 1 are step t: the
    (L·batch, 2·hidden) states, the forward half first, time-aligned.  One
    tape node."""
    T._require_2d("bilstm_forward_steps", xs)
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
        dx_f, dw_f, db_f = back_f(g[:, :, :hid])
        dx_b, dw_b, db_b = back_b(g[::-1, :, hid:])
        return (dx_f + dx_b[::-1]).reshape(rows, -1), dw_f, db_f, dw_b, db_b

    return T._make((xs, *fwd, *bwd), np.concatenate([h_f, h_b[::-1]], axis=2).reshape(rows, -1),
                   backward, check=False)

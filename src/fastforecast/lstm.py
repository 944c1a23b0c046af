"""LSTM step and one direction's recurrence, in numpy.

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
[h_{t-1}, x_t] @ Wᵀ + b, then the new cell and hidden states, each written
into the sequence's buffers.  The sigmoids come from the same tanh as C̃:
σ(x) = ½ + ½·tanh(x/2).  The ½ inside lives in the weights:
``lstm_sequence`` halves the f, i and o rows of W and columns of b once per
call (``_halved``), which is exact in binary floating point short of
subnormals, so the step's matmul gives those gates' pre-activations halved,
bit for bit.  The step then takes one in-place tanh of all four gates and
maps the f, i and o columns through ½·t + ½ (``_gate_affine``).

``lstm_sequence`` runs one direction's recurrence over a time-major
(L, batch, input) array in numpy, calling ``lstm_cell`` once per step, and
returns the states with their backward pass, backpropagation through time,
as the attention window functions return theirs.  The backward pass works
one step at a time, copying the step's activations into gate-major
(4, batch, hidden) buffers where each gate's block is contiguous; x's
gradient is one product over the whole sequence, and W's and b's come back
as (left, right) row pairs, as the encoder block's stages return theirs.
The step does the same arithmetic as the cell composed from tensor
primitives in ``tests/reference.py``, whose sigmoid is ½·tanh(x·½) + ½, so
a direction agrees with a fold over that cell bit for bit.  The BiLSTM
layer, both directions as one tape node, is ``model.bilstm_forward_steps``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tensor as T
from .errors import ShapeError


def _sizes(w: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """(hidden, input) of a direction's (W, b) arrays; raises ShapeError unless
    W is (4·hidden, hidden+input) and b is (1, 4·hidden)."""
    if w.ndim != 2 or w.shape[0] % 4 or b.shape != (1, w.shape[0]):
        raise ShapeError(f"gate weights {w.shape} and bias {b.shape} are not "
                         "(4·hidden, hidden+input) and (1, 4·hidden)")
    hidden = w.shape[0] // 4
    return hidden, w.shape[1] - hidden


def init_lstm_weights(input_size: int, hidden_size: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(W, b) arrays: W uniform in [-1/sqrt(hidden), 1/sqrt(hidden)], b zero
    with forget bias 1.0."""
    lim = 1.0 / math.sqrt(hidden_size)
    w = rng.uniform(-lim, lim, size=(4 * hidden_size, hidden_size + input_size))
    b = np.zeros((1, 4 * hidden_size))
    b[:, :hidden_size] = 1.0
    return w, b


@functools.cache
def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """The (4·hidden,) scale and shift that map a step's tanh values to its
    activations: ½·t + ½ in the f, i and o columns, and t·1 + (−0) in C̃'s,
    which leaves every value there, −0.0 included, as it is."""
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden:3 * hidden] = 1.0
    shift = np.where(scale == 1.0, -0.0, 0.5)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _halved(w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A direction's W and b with the f, i and o rows of W and columns of b
    halved, as ``lstm_cell`` reads them; C̃'s are kept as they are."""
    scale = _gate_affine(w.shape[0] // 4)[0]
    return w * scale[:, None], b * scale


def lstm_cell(z: np.ndarray, w: np.ndarray, b: np.ndarray, c_prev: np.ndarray,
              act: np.ndarray, c: np.ndarray, tanh_c: np.ndarray, h: np.ndarray) -> None:
    """One step for a batch, from the (batch, hidden+input) cell input
    z = [h_{t-1}, x_t], a direction's W and b halved by ``_halved`` and the
    (batch, hidden) C_{t-1}.  Writes the activations f, i, C̃, o side by side
    into the (batch, 4·hidden) ``act``, and C_t, tanh(C_t) and h_t into the
    (batch, hidden) ``c``, ``tanh_c`` and ``h``.

    ``act`` first holds the pre-activations, halved for f, i and o, then
    their tanh, which ``_gate_affine`` maps through σ(x) = ½ + ½·tanh(x/2)
    in the f, i and o columns."""
    hid = c.shape[1]
    scale, shift = _gate_affine(hid)
    np.matmul(z, w.T, out=act)
    act += b
    # the composed matmul and bias add reject the same, except where halving
    # keeps an f, i or o pre-activation of magnitude in [2^1024, 2^1025) finite
    T.check_finite(act)
    np.tanh(act, out=act)
    act *= scale
    act += shift
    f, i, c_tilde, o = act.reshape(-1, 4, hid).transpose(1, 0, 2)  # column-block views
    np.multiply(f, c_prev, out=c)
    np.multiply(i, c_tilde, out=tanh_c)  # i·C̃ until tanh(C_t) replaces it
    c += tanh_c
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def lstm_sequence(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The recurrence over a time-major (L, batch, input) sequence, from a zero
    state at step 0, with a direction's W and b arrays.  Returns the
    (L, batch, hidden) hidden states and the backward pass, which maps their
    gradient to dx and W's and b's (left, right) pairs (see
    ``model._weight_grad``)."""
    hid, input_size = _sizes(w, b)
    if x.ndim != 3 or x.shape[2] != input_size:
        raise ShapeError(f"sequence input width {x.shape} != {input_size}")
    length, batch = x.shape[:2]
    w_half, b_half = _halved(w, b)
    # per step: the cell input [h_{t-1}, x_t], the activations f, i, C̃, o
    # side by side, C_t, tanh(C_t) and h_t, each written by lstm_cell
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
        lstm_cell(z[t], w_half, b_half, c_prev, act[t], c[t], tanh_c[t], h[t])
        h_prev, c_prev = h[t], c[t]
    T.note_buffers(z, act, c, tanh_c)

    def backward(g):
        # d a_t = [dC_t C_{t-1} σ'(f), dC_t C̃ σ'(i), dC_t i tanh'(C̃), dh_t tanh(C_t) σ'(o)]
        # with σ' = σ(1 − σ) and tanh' = 1 − t², one step at a time in
        # gate-major (4, batch, hidden) buffers, where each gate's block is
        # contiguous; x's gradient is one whole-sequence product, and W's
        # and b's pairs are the whole sequence's rows
        w_h = w[:, :hid]
        da = np.empty_like(act)
        dh, dc, dc_via_h, dh_next, dc_next, c_zero = np.zeros((6, batch, hid))
        # gates: f, i, C̃, o; part: what multiplies each gate's derivative,
        # [C_{t-1} f, C̃ i, i, tanh(C_t) o]; slope: 1 − σ for f, i and o, 1 − C̃² for C̃
        gates, part, slope, da_gates = np.empty((4, 4, batch, hid))
        for t in range(length - 1, -1, -1):
            np.copyto(gates, act[t].reshape(batch, 4, hid).transpose(1, 0, 2))
            f, i, c_tilde, o = gates
            np.add(g[t], dh_next, out=dh)
            # dC_t = dC_{t+1} f_{t+1} + dh_t o (1 − tanh²(C_t))
            np.multiply(tanh_c[t], tanh_c[t], out=dc_via_h)
            np.subtract(1.0, dc_via_h, out=dc_via_h)
            dc_via_h *= o
            dc_via_h *= dh
            np.add(dc_next, dc_via_h, out=dc)
            np.multiply(c[t - 1] if t else c_zero, f, out=part[0])
            np.multiply(c_tilde, i, out=part[1])
            np.copyto(part[2], i)
            np.multiply(tanh_c[t], o, out=part[3])
            np.subtract(1.0, gates, out=slope)
            np.multiply(c_tilde, c_tilde, out=slope[2])
            np.subtract(1.0, slope[2], out=slope[2])
            part *= slope
            # dC_t times the first three gates' blocks, dh_t times o's
            np.multiply(dc, part[:3], out=da_gates[:3])
            np.multiply(dh, part[3], out=da_gates[3])
            np.copyto(da[t].reshape(batch, 4, hid), da_gates.transpose(1, 0, 2))
            np.multiply(dc, f, out=dc_next)
            np.matmul(da[t], w_h, out=dh_next)
        da = da.reshape(length * batch, 4 * hid)
        return ((da @ w[:, hid:]).reshape(length, batch, -1),
                [(da, z.reshape(length * batch, -1)), (None, da)])

    return h, backward

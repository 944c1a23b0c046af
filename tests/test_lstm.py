"""LSTM tests: the numpy step against a gate-by-gate oracle, saturation
limits, BiLSTM composition, and each direction and the fused BiLSTM layer,
on batch-major rows with its dropout mask, against folds over the cell
composed from tensor primitives (``reference.composed_lstm_cell``)."""

import numpy as np
import pytest

from fastforecast.errors import FiniteError, ShapeError
from fastforecast.lstm import _gate_affine, _halved, init_lstm_weights, lstm_cell, lstm_sequence
from fastforecast.model import _weight_grad, bilstm_forward_steps
from fastforecast.tensor import GradTape, Tensor

from conftest import check_gradients, rel_err
from reference import (
    _stable_sigmoid,
    composed_lstm_cell,
    concat,
    mul,
    sigmoid as tanh_form_sigmoid,
    stage_node,
    take_rows,
    tsum,
)


def one_sequence(x, w, b):
    """lstm_sequence on an (L, input) array, as a batch of one: the
    (L, hidden) states and their backward pass."""
    out, backward = lstm_sequence(x[:, None], w, b)

    def back(g):
        dx, pairs = backward(g[:, None])
        return dx[:, 0], pairs

    return out[:, 0], back


# one LSTM direction on tensors, each call one tape node, over a time-major
# (L, batch, input) sequence or a single (L, input) one; lstm_sequence checks
# the shapes
sequence_node = stage_node(lstm_sequence)
single_sequence_node = stage_node(one_sequence)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def cell_oracle(x, h_prev, c_prev, w):
    """Independent gate-by-gate recomputation from plain numpy arrays."""
    z = np.concatenate([h_prev, x])
    f = sigmoid(w["w_f"] @ z + w["b_f"])
    i = sigmoid(w["w_i"] @ z + w["b_i"])
    c_tilde = np.tanh(w["w_c"] @ z + w["b_c"])
    o = sigmoid(w["w_o"] @ z + w["b_o"])
    c = f * c_prev + i * c_tilde
    h = o * np.tanh(c)
    return h, c


GATE_NAMES = ("w_f", "w_i", "w_c", "w_o", "b_f", "b_i", "b_c", "b_o")


def gates(w, b):
    """A direction's joined (4·hidden, ·) matrix and (1, 4·hidden) bias
    arrays split per gate, keyed by GATE_NAMES."""
    return dict(zip(GATE_NAMES, np.split(w, 4) + np.split(b, 4, axis=1)))


def random_weights(input_size, hidden, seed, forget_bias=None):
    """A direction's (W, b) pair, as the model draws it and makes it leaves."""
    rng = np.random.default_rng(seed)
    w, b = init_lstm_weights(input_size, hidden, rng)
    if forget_bias is not None:
        b[:, :hidden] = forget_bias
    return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


def zero_weights(input_size, hidden):
    return Tensor(np.zeros((4 * hidden, hidden + input_size))), Tensor(np.zeros((1, 4 * hidden)))


def lstm_forward(xs, w):
    """An (L, input) sequence through lstm_sequence: (L, hidden) states."""
    return single_sequence_node(xs, *w)


def bilstm_forward(xs, w_fwd, w_bwd):
    """An (L, input) sequence through bilstm_forward_steps: (L, 2*hidden)
    states, the forward half first."""
    return bilstm_forward_steps(xs, xs.shape[0], w_fwd, w_bwd)


def zero_state(batch, hidden):
    """Zero (batch, hidden) states h and c."""
    return Tensor(np.zeros((batch, hidden))), Tensor(np.zeros((batch, hidden)))


def step(x, h_prev, c_prev, w):
    """lstm_cell on the (batch, ·) arrays x, h_prev and c_prev with a
    direction's (W, b), halved as lstm_sequence halves them: the
    activations, C_t, tanh(C_t) and h_t."""
    batch, hidden = c_prev.shape
    out = np.empty((batch, 4 * hidden)), *np.empty((3, batch, hidden))
    lstm_cell(np.concatenate([h_prev, x], axis=1), *_halved(w[0].data, w[1].data), c_prev, *out)
    return out


def lstm_fold(xs, batch, w, b, reverse=False):
    """Reference for lstm_sequence: a fold over the composed cell, one step of
    ``batch`` sequences at a time, on batch-major rows (sequence s is rows
    s·L .. s·L + L - 1); the states come back in the same rows."""
    length = xs.shape[0] // batch
    order = range(length - 1, -1, -1) if reverse else range(length)
    h, c = zero_state(batch, b.shape[1] // 4)
    outs = [None] * length
    for t in order:
        h, c = composed_lstm_cell(take_rows(xs, np.arange(batch) * length + t), h, c, w, b)
        outs[t] = h
    steps = concat(outs, axis=0) if length > 1 else outs[0]  # time-major
    return take_rows(steps, (np.arange(batch)[:, None] + np.arange(length) * batch).reshape(-1))


def as_dict(w):
    return {name: a[0] if name[0] == "b" else a
            for name, a in gates(w[0].data, w[1].data).items()}


class TestLstmCell:
    """The numpy step that lstm_sequence runs once per timestep."""

    def test_all_zero_weights_and_state(self):
        hidden, inp = 3, 2
        w = zero_weights(inp, hidden)
        act, c, tanh_c, h = step(np.zeros((1, inp)), np.zeros((1, hidden)),
                                 np.zeros((1, hidden)), w)
        # gates sit at sigmoid(0)=0.5, candidate tanh(0)=0 => c=0, h=0
        np.testing.assert_array_equal(act, [[0.5] * 6 + [0.0] * 3 + [0.5] * 3])
        np.testing.assert_array_equal(c, np.zeros((1, hidden)))
        np.testing.assert_array_equal(tanh_c, np.zeros((1, hidden)))
        np.testing.assert_array_equal(h, np.zeros((1, hidden)))

    def test_saturated_forget_gate_remembers(self, rng):
        """With b_f = 50 the forget gate saturates at 1, so the new cell is
        C_prev plus the input-gate term to within 1e-9."""
        w = random_weights(2, 4, seed=1, forget_bias=50.0)
        x = rng.standard_normal((1, 2))
        h_prev = rng.standard_normal((1, 4)) * 0.3
        c_prev = rng.standard_normal((1, 4))
        _, c, _, _ = step(x, h_prev, c_prev, w)
        d = as_dict(w)
        z = np.concatenate([h_prev[0], x[0]])
        i = sigmoid(d["w_i"] @ z + d["b_i"])
        c_tilde = np.tanh(d["w_c"] @ z + d["b_c"])
        np.testing.assert_allclose(c[0] - i * c_tilde, c_prev[0], atol=1e-9)

    def test_matches_gate_by_gate_oracle(self, rng):
        """Batch 2: each row's new states against the oracle, and the
        activations and tanh(C_t) the backward pass reads."""
        w = random_weights(3, 5, seed=2)
        x = rng.standard_normal((2, 3))
        h_prev = rng.standard_normal((2, 5)) * 0.5
        c_prev = rng.standard_normal((2, 5))
        act, c, tanh_c, h = step(x, h_prev, c_prev, w)
        d = as_dict(w)
        for row in range(2):
            h_ref, c_ref = cell_oracle(x[row], h_prev[row], c_prev[row], d)
            np.testing.assert_allclose(h[row], h_ref, atol=1e-12)
            np.testing.assert_allclose(c[row], c_ref, atol=1e-12)
            z = np.concatenate([h_prev[row], x[row]])
            gates_ref = [sigmoid(d["w_f"] @ z + d["b_f"]), sigmoid(d["w_i"] @ z + d["b_i"]),
                         np.tanh(d["w_c"] @ z + d["b_c"]), sigmoid(d["w_o"] @ z + d["b_o"])]
            np.testing.assert_allclose(act[row], np.concatenate(gates_ref), atol=1e-12)
        np.testing.assert_array_equal(tanh_c, np.tanh(c))

    def test_tanh_form_sigmoid_within_one_ulp_of_stable_sigmoid(self):
        """reference.sigmoid computes ½·tanh(x·½) + ½, as lstm_cell does; over
        200k N(0, 30²) draws it is within 2^-52 of the two-branch form (the
        largest difference measured, on each of six seeds)."""
        x = np.random.default_rng(26).standard_normal((400, 500)) * 30
        got = tanh_form_sigmoid(Tensor(x)).data
        assert np.max(np.abs(got - _stable_sigmoid(x))) <= 2.0**-52

    def test_gate_affine_leaves_the_candidate_column_bitwise(self):
        """½·t + ½ in the f, i and o columns; C̃'s values pass through as they
        are, −0.0 included, which a shift of +0.0 would turn into +0.0."""
        t = np.array([[-0.0, 0.0, -1.0, 1.0] * 4])
        scale, shift = _gate_affine(4)
        got = t * scale + shift
        assert got[:, 8:12].tobytes() == t[:, 8:12].tobytes()
        np.testing.assert_array_equal(np.delete(got, np.s_[8:12]), [0.5, 0.5, 0.0, 1.0] * 3)

    def test_saturated_gates_are_exactly_zero_and_one(self, rng):
        """Pre-activations of ±1e3 give gates of exactly 0 and 1 (the tanh
        form reaches them from |x| ≈ 38 on); C, h and every gradient stay
        finite, and the saturated gates pass no gradient to their weights."""
        hidden, inp, length, batch = 3, 2, 5, 2
        w = Tensor(rng.standard_normal((4 * hidden, hidden + inp)) * 0.1)
        signs = np.array([1.0, -1.0, 1.0])
        b = Tensor(np.concatenate([-1e3 * signs, 1e3 * signs, np.zeros(hidden), 1e3 * signs])[None])
        act, c, _, h = step(rng.standard_normal((batch, inp)), np.zeros((batch, hidden)),
                            rng.standard_normal((batch, hidden)), (w, b))
        f, i, _, o = np.split(act, 4, axis=1)
        for gate, sign in ((f, -signs), (i, signs), (o, signs)):
            np.testing.assert_array_equal(gate, np.broadcast_to(sign > 0, gate.shape) * 1.0)
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(h))
        out, backward = lstm_sequence(rng.standard_normal((length, batch, inp)), w.data, b.data)
        dx, pairs = backward(rng.standard_normal(out.shape))
        dw, db = (_weight_grad([pair]) for pair in pairs)
        assert all(np.all(np.isfinite(a)) for a in (out, dx, dw, db))
        saturated = np.r_[0:2 * hidden, 3 * hidden:4 * hidden]
        np.testing.assert_array_equal(dw[saturated], 0.0)
        np.testing.assert_array_equal(db[:, saturated], 0.0)

    def test_gate_ranges_and_hidden_bound(self, rng):
        w = random_weights(2, 4, seed=3)
        h, c = np.zeros((1, 4)), np.zeros((1, 4))
        for t in range(10):
            act, c, _, h = step(rng.standard_normal((1, 2)) * 3, h, c, w)
            f, i, c_tilde, o = np.split(act, 4, axis=1)
            assert all(np.all((g >= 0.0) & (g <= 1.0)) for g in (f, i, o))
            assert np.all(np.abs(c_tilde) <= 1.0)
            assert np.all(np.abs(h) < 1.0)


class TestLstmForward:
    def test_single_step_equals_cell(self, rng):
        w = random_weights(3, 4, seed=5)
        x = rng.standard_normal((1, 3))
        seq_out = lstm_forward(Tensor(x), w)
        cell_h = step(x, np.zeros((1, 4)), np.zeros((1, 4)), w)[3]
        np.testing.assert_array_equal(seq_out.data, cell_h)

    def test_zero_weights_zero_outputs(self, rng):
        hidden, inp = 3, 2
        w = zero_weights(inp, hidden)
        out = lstm_forward(Tensor(rng.standard_normal((6, inp))), w)
        np.testing.assert_array_equal(out.data, np.zeros((6, hidden)))

    def test_truncation_consistency(self, rng):
        w = random_weights(2, 3, seed=6)
        xs = rng.standard_normal((9, 2))
        full = lstm_forward(Tensor(xs), w).data
        for t in (1, 4, 7):
            prefix = lstm_forward(Tensor(xs[:t]), w).data
            np.testing.assert_array_equal(full[:t], prefix)


class TestBilstmForward:
    def test_output_width_is_twice_hidden(self, rng):
        wf = random_weights(2, 5, seed=7)
        wb = random_weights(2, 5, seed=8)
        out = bilstm_forward(Tensor(rng.standard_normal((6, 2))), wf, wb)
        assert out.shape == (6, 10)

    def test_halves_match_directional_runs(self, rng):
        wf = random_weights(3, 4, seed=9)
        wb = random_weights(3, 4, seed=10)
        xs = rng.standard_normal((8, 3))
        out = bilstm_forward(Tensor(xs), wf, wb).data
        fwd = lstm_forward(Tensor(xs), wf).data
        bwd = lstm_forward(Tensor(xs[::-1].copy()), wb).data[::-1]
        np.testing.assert_allclose(out[:, :4], fwd, atol=1e-12)
        np.testing.assert_allclose(out[:, 4:], bwd, atol=1e-12)

    def test_palindrome_with_shared_weights_mirrors(self, rng):
        w = random_weights(2, 3, seed=11)
        half = rng.standard_normal((4, 2))
        xs = np.concatenate([half, half[::-1]])  # palindromic sequence
        out = bilstm_forward(Tensor(xs), w, w).data
        length = len(xs)
        fwd, bwd = out[:, :3], out[:, 3:]
        for t in range(length):
            np.testing.assert_allclose(fwd[t], bwd[length - 1 - t], atol=1e-12)

    def test_single_step(self, rng):
        wf = random_weights(2, 3, seed=12)
        wb = random_weights(2, 3, seed=13)
        x = rng.standard_normal((1, 2))
        out = bilstm_forward(Tensor(x), wf, wb).data
        f = step(x, np.zeros((1, 3)), np.zeros((1, 3)), wf)[3]
        b = step(x, np.zeros((1, 3)), np.zeros((1, 3)), wb)[3]
        np.testing.assert_array_equal(out, np.concatenate([f, b], axis=1))

    def test_forward_half_ignores_future_backward_half_ignores_past(self, rng):
        wf = random_weights(2, 3, seed=14)
        wb = random_weights(2, 3, seed=15)
        xs = rng.standard_normal((7, 2))
        base = bilstm_forward(Tensor(xs), wf, wb).data
        s = 3
        bumped = xs.copy()
        bumped[s + 1:] += 1.0  # future change: forward half at s unaffected
        out = bilstm_forward(Tensor(bumped), wf, wb).data
        np.testing.assert_array_equal(out[s, :3], base[s, :3])
        bumped = xs.copy()
        bumped[:s] -= 2.0  # past change: backward half at s unaffected
        out = bilstm_forward(Tensor(bumped), wf, wb).data
        np.testing.assert_array_equal(out[s, 3:], base[s, 3:])


class TestLstmGradients:
    """Recurrent stacks pass finite-difference checks through >= 5 steps."""

    def test_lstm_forward_gradients(self, rng):
        xs = rng.standard_normal((5, 2)) * 0.5
        w0 = random_weights(2, 3, seed=16)

        def build(xs_t, w, b):
            out = lstm_forward(xs_t, (w, b))
            return tsum(mul(out, out))

        arrays = [xs] + [t.data for t in w0]
        check_gradients(build, arrays, tol=1e-5)

    def test_bilstm_forward_gradients(self, rng):
        xs = rng.standard_normal((5, 2)) * 0.5
        wf0 = random_weights(2, 2, seed=17)
        wb0 = random_weights(2, 2, seed=18)

        def build(xs_t, *flat):
            out = bilstm_forward(xs_t, flat[:2], flat[2:])
            return tsum(mul(out, out))

        arrays = [xs] + [t.data for w in (wf0, wb0) for t in w]
        check_gradients(build, arrays, tol=1e-5)


class TestLstmSequence:
    """One direction and the fused layer against folds over the composed
    cell, and their shape checks."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_cell_fold(self, reverse, rng):
        """Batch 3, L=7: outputs bitwise, gradients within 1e-12.  The reverse
        fold is held to lstm_sequence over the time-reversed sequence, as
        bilstm_forward_steps runs its backward direction."""
        batch, length = 3, 7
        w = random_weights(2, 4, seed=19)
        xs = Tensor(rng.standard_normal((length * batch, 2)), requires_grad=True)
        steps = xs.data.reshape(batch, length, 2).transpose(1, 0, 2)  # time-major
        seq = Tensor(steps[::-1] if reverse else steps, requires_grad=True)
        grads, outs = [], []
        for leaf, run in ((seq, lambda: sequence_node(seq, *w)),
                          (xs, lambda: lstm_fold(xs, batch, *w, reverse))):
            with GradTape() as tape:
                out = run()
                loss = tsum(mul(out, out))
            tape.backward(loss)
            outs.append(out.data)
            grads.append([leaf.grad] + list(gates(w[0].grad, w[1].grad).values()))
        if reverse:  # back to time order
            outs[0], grads[0][0] = outs[0][::-1], grads[0][0][::-1]
        outs[0], grads[0][0] = (a.transpose(1, 0, 2) for a in (outs[0], grads[0][0]))
        np.testing.assert_array_equal(outs[0].reshape(outs[1].shape), outs[1])
        for fused, folded in zip(*grads):
            assert rel_err(fused.reshape(folded.shape), folded) <= 1e-12

    def test_layer_equals_cell_folds(self, rng):
        """Batch 3, L=7, batch-major rows: the layer's output bitwise equal to
        the forward fold and the reverse fold joined, its gradients within
        1e-12."""
        self.check_layer_against_folds(rng, dropout=False)

    def test_layer_with_dropout_equals_masked_cell_folds(self, rng):
        """As above, with the joined folds times the layer's time-major
        (L, batch, 2·hidden) dropout mask."""
        self.check_layer_against_folds(rng, dropout=True)

    @staticmethod
    def check_layer_against_folds(rng, dropout):
        batch, length = 3, 7
        wf, wb = random_weights(2, 4, seed=22), random_weights(2, 4, seed=23)
        xs = Tensor(rng.standard_normal((length * batch, 2)), requires_grad=True)
        mask = (rng.random((length, batch, 8)) >= 0.25) / 0.75 if dropout else None

        def folds(xs, length, fwd, bwd, mask):
            out = concat([lstm_fold(xs, batch, *fwd),
                          lstm_fold(xs, batch, *bwd, reverse=True)], axis=1)
            if mask is None:
                return out
            return mul(out, Tensor(mask.transpose(1, 0, 2).reshape(batch * length, -1)))

        grads, outs = [], []
        for run in (bilstm_forward_steps, folds):
            with GradTape() as tape:
                out = run(xs, length, wf, wb, mask)
                loss = tsum(mul(out, out))
            tape.backward(loss)
            outs.append(out.data)
            grads.append([xs.grad] + [t.grad for t in (*wf, *wb)])
        np.testing.assert_array_equal(outs[0], outs[1])
        for fused, folded in zip(*grads):
            assert rel_err(fused, folded) <= 1e-12

    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_last_layer_equals_full_layer_where_the_head_reads(self, length, rng):
        """With ``last``, the backward half is the full layer's in each
        sequence's last min(2, L) steps and zero before them, the forward half
        is the full layer's, and a loss on the last steps has the full layer's
        gradients, with dropout."""
        batch = 3
        wf, wb = random_weights(2, 4, seed=22), random_weights(2, 4, seed=23)
        xs = Tensor(rng.standard_normal((length * batch, 2)), requires_grad=True)
        mask = (rng.random((length, batch, 8)) >= 0.25) / 0.75
        last_rows = np.arange(length - 1, length * batch, length)
        outs, grads = [], []
        for last in (False, True):
            with GradTape() as tape:
                out = bilstm_forward_steps(xs, length, wf, wb, mask, last=last)
                read = take_rows(out, last_rows)
                loss = tsum(mul(read, read))
            tape.backward(loss)
            outs.append(out.data.reshape(batch, length, 8))
            grads.append([xs.grad] + [t.grad for t in (*wf, *wb)])
        full, tail = outs
        skipped = length - min(2, length)
        np.testing.assert_array_equal(tail[:, :, :4], full[:, :, :4])
        np.testing.assert_array_equal(tail[:, skipped:, 4:], full[:, skipped:, 4:])
        assert not tail[:, :skipped, 4:].any()
        for got, want in zip(grads[1], grads[0]):
            np.testing.assert_array_equal(got, want)

    def test_layer_is_one_tape_node(self, rng):
        wf, wb = random_weights(2, 3, seed=24), random_weights(2, 3, seed=25)
        with GradTape() as tape:
            bilstm_forward_steps(Tensor(rng.standard_normal((6, 2))), 3, wf, wb)
        assert len(tape) == 1

    def test_overflow_raises(self):
        """Inputs of 1e308 with gate weights of 10 overflow the gate matmul."""
        _, b = random_weights(2, 3, seed=20)
        w = Tensor(np.full((12, 5), 10.0))  # every gate's matrix
        xs = Tensor(np.full((4, 2), 1e308))
        with pytest.raises(FiniteError):
            lstm_sequence(xs.data.reshape(2, 2, 2), w.data, b.data)
        with pytest.raises(FiniteError):
            lstm_fold(xs, 2, w, b)

    def test_overflow_after_first_step_raises(self, rng):
        """An input that overflows the gate matmul at step 2 only (step 1 of the
        backward direction) raises from the direction and from the layer:
        each step checks its pre-activations, since tanh maps ±inf to ±1."""
        w, b = random_weights(2, 3, seed=27)
        w.data[:] = 10.0
        xs = rng.standard_normal((4, 2, 2))
        xs[2, 1, 0] = 1e308
        rows = Tensor(xs.transpose(1, 0, 2).reshape(8, 2))  # batch-major
        with pytest.raises(FiniteError):
            lstm_sequence(xs, w.data, b.data)
        with pytest.raises(FiniteError):
            lstm_sequence(xs[::-1], w.data, b.data)
        with pytest.raises(FiniteError):
            bilstm_forward_steps(rows, 4, (w, b), random_weights(2, 3, seed=28))
        with pytest.raises(FiniteError):
            bilstm_forward_steps(rows, 4, random_weights(2, 3, seed=28), (w, b))

    def test_overflow_gap_of_halved_gates(self):
        """A known gap: an f, i or o pre-activation of magnitude in
        [2^1024, 2^1025) overflows in the composed cell, but lstm_sequence
        computes it halved, finite, and saturates the gate instead."""
        w, b = zero_weights(1, 1)
        w.data[0, 1] = 2.0  # the forget gate's weight on x
        xs = Tensor(np.full((2, 1), 1e308))  # 2e308 > 2^1024 ≈ 1.8e308
        out, _ = lstm_sequence(xs.data.reshape(2, 1, 1), w.data, b.data)
        assert np.all(np.isfinite(out))
        with pytest.raises(FiniteError):
            lstm_fold(xs, 1, w, b)

    @pytest.mark.parametrize("length", [2, 0], ids=["partial_sequence", "zero_length"])
    def test_partial_sequence_rejected(self, rng, length):
        w = random_weights(2, 3, seed=21)
        with pytest.raises(ShapeError, match="whole sequences"):
            bilstm_forward_steps(Tensor(rng.standard_normal((5, 2))), length, w, w)

    def test_no_rows_give_no_states(self):
        """Zero rows are zero sequences of any length: (0, 2·hidden) states."""
        wf, wb = random_weights(2, 3, seed=24), random_weights(2, 3, seed=25)
        assert bilstm_forward_steps(Tensor(np.zeros((0, 2))), 4, wf, wb).shape == (0, 6)

    def test_input_width_mismatch(self, rng):
        w = random_weights(2, 4, seed=4)
        with pytest.raises(ShapeError, match="input width"):
            lstm_sequence(np.ones((3, 1, 3)), w[0].data, w[1].data)

    @pytest.mark.parametrize("w_shape,b_shape", [((16, 6), (1, 12)), ((10, 4), (1, 10))],
                             ids=["short_bias", "partial_gate"])
    def test_weight_shape_mismatch(self, w_shape, b_shape):
        """A bias that does not match W's rows, and W rows that are not four
        whole gates, are rejected before any step runs."""
        with pytest.raises(ShapeError, match="are not"):
            lstm_sequence(np.ones((3, 1, 2)), np.ones(w_shape), np.ones(b_shape))

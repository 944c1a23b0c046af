"""Tests for the tensor/tape substrate: values, gradients, tape semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastforecast.tensor as T
from fastforecast.errors import FiniteError, ShapeError
from fastforecast.tensor import GradTape, Tensor

from conftest import check_gradients, scaled_dot_attention
from test_favor import masked
from test_fused_kernels import softmax_rows, sqrt


class TestTensorBasics:
    def test_shape_and_flat_storage(self):
        t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert t.shape == (2, 3)
        assert t.data.flags["C_CONTIGUOUS"]
        assert int(np.prod(t.shape)) == t.data.size

    def test_nan_rejected_at_creation(self):
        with pytest.raises(FiniteError):
            Tensor([1.0, np.nan])

    def test_inf_rejected_from_op(self):
        x = Tensor([[800.0]])
        with pytest.raises(FiniteError):
            T.exp(x)

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            Tensor([[1.0, 2.0]]).item()


class TestMatmul:
    def test_identity(self, rng):
        m = rng.standard_normal((3, 3))
        out = T.matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_zero_column(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [0.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[0.0], [0.0]])

    def test_against_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                acc = 0.0
                for k in range(5):
                    acc += a[i, k] * b[k, j]
                expect[i, j] = acc
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def attention_matrix(q, k):
    """softmax(q·kᵀ/√d_k) from the fused kernel: with V = I the output is the
    attention matrix itself."""
    return scaled_dot_attention(Tensor(q), Tensor(k), Tensor(np.eye(len(k)))).data


class TestSoftmaxRows:
    """Softmax rows through the fused attention kernel where q and k can set
    the scores, and through the reference primitive otherwise."""

    def test_uniform_row(self):
        out = attention_matrix(np.zeros((3, 2)), np.ones((3, 2)))
        np.testing.assert_allclose(out, np.full((3, 3), 1 / 3), atol=1e-15)

    @pytest.mark.parametrize("c", [-100.0, 0.0, 3.7, 250.0])
    def test_shift_by_ln2(self, c):
        out = attention_matrix(np.ones((2, 1)), np.array([[c], [c + np.log(2.0)]]))
        np.testing.assert_allclose(out, [[1 / 3, 2 / 3]] * 2, atol=1e-12)

    def test_row_sums(self, rng):
        out = attention_matrix(rng.standard_normal((6, 6)) * 5, np.eye(6))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)

    @given(st.floats(min_value=-500, max_value=500), st.integers(0, 2**31 - 1))
    @settings(deadline=None, max_examples=30)
    def test_shift_invariance_per_row(self, c, seed):
        x = np.random.default_rng(seed).standard_normal((3, 4))
        shifts = np.array([[c], [-c / 2], [c / 3]])  # a constant per row
        base = softmax_rows(Tensor(x)).data
        shifted = softmax_rows(Tensor(x + shifts)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestElementwiseValues:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_at_zero(self):
        assert T.tanh(Tensor(0.0)).item() == 0.0

    def test_sigmoid_stable_at_extremes(self):
        out = T.sigmoid(Tensor([[-800.0, 800.0]]))
        np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-12)

    def test_sigmoid_matches_two_branch_form_bitwise(self, rng):
        """The branch-free sigmoid equals 1/(1+e^-x) on x >= 0 and e^x/(1+e^x)
        below, bit for bit, on random inputs and at the extremes."""
        x = np.concatenate([rng.standard_normal(1000) * 30,
                            [0.0, -0.0, 700.0, -700.0, 1e3, -1e3]])
        expect = np.empty_like(x)
        pos = x >= 0
        expect[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expect[~pos] = ex / (1.0 + ex)
        got = T._stable_sigmoid(x)
        assert got.tobytes() == expect.tobytes()

    def test_scalar_broadcasting(self):
        x = Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(T.add(x, 1.0).data, [[2.0, 3.0]])
        np.testing.assert_array_equal(T.sub(3.0, x).data, [[2.0, 1.0]])
        np.testing.assert_array_equal(T.mul(x, 2.0).data, [[2.0, 4.0]])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("shapes", [((3, 1), (1, 4)), ((2, 2), (2, 3))],
                             ids=["outer", "mismatch"])
    def test_broadcast_to_neither_operand_rejected(self, op, shapes):
        """Only a broadcast whose result has one operand's shape is allowed."""
        a, b = (Tensor(np.ones(s)) for s in shapes)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ShapeError):
                op(x, y)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with GradTape() as tape:
            loss = T.tsum(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_constant_loss_zero_grads(self):
        with GradTape() as tape:
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            loss = Tensor(0.0)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradTape() as tape:
            y = T.add(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_repeated_input_accumulates(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        with GradTape() as tape:
            loss = T.mul(x, x)
        tape.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_sigmoid_derivative_matches_finite_difference(self):
        h = 1e-5
        x = Tensor(np.array(0.7), requires_grad=True)
        with GradTape() as tape:
            loss = T.sigmoid(x)
        tape.backward(loss)
        numeric = (1 / (1 + np.exp(-(0.7 + h))) - 1 / (1 + np.exp(-(0.7 - h)))) / (2 * h)
        assert abs(float(x.grad) - numeric) <= 1e-9

    def test_tape_replay_is_deterministic(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))

        def run():
            x = Tensor(a.copy(), requires_grad=True)
            y = Tensor(b.copy(), requires_grad=True)
            with GradTape() as tape:
                z = T.matmul(T.tanh(x), T.sigmoid(y))
                loss = T.tsum(T.mul(z, z))
            tape.backward(loss)
            return x.grad.copy(), y.grad.copy()

        gx1, gy1 = run()
        gx2, gy2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gy1, gy2)

    def test_tapes_do_not_nest(self):
        with GradTape():
            with pytest.raises(RuntimeError):
                with GradTape():
                    pass


# Every primitive is checked against central finite differences with h=1e-5
# at relative tolerance 1e-6 (the engine-wide gradient contract).  The rows
# named after the engine's old row/column primitives (scale, rowsum, ...,
# scale_colwise) check the same cases through broadcasting and tsum(axis).
# The rows exp_clamped and clip_min check the mask form (``masked``) that the
# FAVOR+ references use for the exp clamp and the denominator floor.  The rows
# sqrt and softmax_rows check the reference primitives that the compositions
# of the fused layer norm and attention kernels are built from.

def _r(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape) * 0.8


PRIMITIVE_CASES = [
    ("add", lambda x, y: T.tsum(T.add(x, y)), [_r((3, 4), 0), _r((3, 4), 1)]),
    ("sub", lambda x, y: T.tsum(T.mul(T.sub(x, y), T.sub(x, y))), [_r((3, 4), 2), _r((3, 4), 3)]),
    ("mul", lambda x, y: T.tsum(T.mul(x, y)), [_r((3, 4), 4), _r((3, 4), 5)]),
    ("scale", lambda x: T.tsum(T.mul(x, -2.5)), [_r((3, 4), 6)]),
    ("sigmoid", lambda x: T.tsum(T.sigmoid(x)), [_r((3, 4), 7)]),
    ("tanh", lambda x: T.tsum(T.tanh(x)), [_r((3, 4), 8)]),
    ("exp", lambda x: T.tsum(T.exp(x)), [_r((3, 4), 9)]),
    ("exp_clamped", lambda x: T.tsum(T.exp(masked(x, x.data < T.EXP_CLAMP, T.EXP_CLAMP))),
     [_r((3, 4), 10)]),
    ("relu", lambda x: T.tsum(T.relu(x)), [_r((3, 4), 12) + 0.05]),
    ("sqrt", lambda x: T.tsum(sqrt(x)), [np.abs(_r((3, 4), 13)) + 0.5]),
    ("recip", lambda x: T.tsum(T.recip(x)), [np.abs(_r((3, 4), 14)) + 0.5]),
    ("clip_min", lambda x: T.tsum(masked(x, x.data > 0.1, 0.1)), [np.abs(_r((3, 4), 15)) + 0.3]),
    ("matmul", lambda x, y: T.tsum(T.matmul(x, y)), [_r((3, 4), 16), _r((4, 2), 17)]),
    ("transpose", lambda x: T.tsum(T.mul(T.transpose(x), T.transpose(x))), [_r((3, 4), 18)]),
    ("softmax_rows", lambda x: T.tsum(T.mul(softmax_rows(x), x)), [_r((3, 4), 19)]),
    ("tsum", lambda x: T.mul(T.tsum(x), T.tsum(x)), [_r((3, 4), 20)]),
    ("rowsum", lambda x: T.tsum(T.mul(T.tsum(x, axis=1), T.tsum(x, axis=1))), [_r((3, 4), 21)]),
    ("colsum", lambda x: T.tsum(T.mul(T.tsum(x, axis=0), T.tsum(x, axis=0))), [_r((3, 4), 22)]),
    ("add_rowwise", lambda x, v: T.tsum(T.tanh(T.add(x, v))), [_r((3, 4), 23), _r((3, 1), 24)]),
    ("scale_rowwise", lambda x, v: T.tsum(T.mul(x, v)), [_r((3, 4), 25), _r((3, 1), 26)]),
    ("add_colwise", lambda x, v: T.tsum(T.tanh(T.add(x, v))), [_r((3, 4), 27), _r((1, 4), 28)]),
    ("scale_colwise", lambda x, v: T.tsum(T.mul(x, v)), [_r((3, 4), 29), _r((1, 4), 30)]),
    ("sub_row_vector", lambda x, v: T.tsum(T.tanh(T.sub(x, v))), [_r((3, 4), 38), _r((1, 4), 39)]),
    ("sub_scalar_first", lambda x: T.tsum(T.tanh(T.sub(3.0, x))), [_r((3, 4), 40)]),
    ("concat0", lambda x, y: T.tsum(T.tanh(T.concat([x, y], axis=0))), [_r((2, 3), 31), _r((3, 3), 32)]),
    ("concat1", lambda x, y: T.tsum(T.tanh(T.concat([x, y], axis=1))), [_r((3, 2), 33), _r((3, 3), 34)]),
    ("take_rows_range", lambda x: T.tsum(T.mul(T.take_rows(x, [1, 2]), T.take_rows(x, [1, 2]))), [_r((4, 3), 35)]),
    ("take_rows", lambda x: T.tsum(T.tanh(T.take_rows(x, [2, 0, 2]))), [_r((4, 3), 37)]),
]


@pytest.mark.parametrize("name,build,arrays", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradient(name, build, arrays):
    check_gradients(build, arrays, tol=1e-6, h=1e-5)


class TestComposedGraphGradients:
    """Randomly composed graphs of depth <= 8 pass finite-difference checks."""

    def _random_graph(self, seed):
        rng = np.random.default_rng(seed)
        unary = [T.tanh, T.sigmoid, lambda t: T.mul(t, 0.7), T.relu,
                 lambda t: T.exp(T.mul(t, 0.3)), softmax_rows]
        depth = int(rng.integers(2, 9))
        chain = [unary[int(rng.integers(0, len(unary)))] for _ in range(depth - 1)]

        def build(x, y):
            t = T.matmul(x, y)
            for op in chain:
                t = op(t)
            return T.tsum(T.mul(t, t))

        return build

    @pytest.mark.parametrize("seed", range(8))
    def test_depth_bounded_compositions(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((3, 3)) * 0.5
        y = rng.standard_normal((3, 3)) * 0.5
        check_gradients(self._random_graph(seed), [x, y], tol=1e-6)


class TestAllocationTracking:
    def test_shapes_recorded(self):
        with T.track_allocations() as log:
            a = Tensor(np.ones((5, 5)))
            b = Tensor(np.ones((5, 5)))
            T.matmul(a, b)
        assert (5, 5) in log.shapes
        assert log.total_bytes >= 25 * 8

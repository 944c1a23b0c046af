"""Exact attention: per-row oracle, form equivalence, causality, gradients."""

import functools

import numpy as np
import pytest

from fastforecast.attention import softmax_window
from fastforecast.errors import ConfigError, ShapeError
from fastforecast.favor import draw_features, favor_bidirectional, favor_unidirectional
from fastforecast.model import ModelSpec, _glorot
from fastforecast.tensor import Tensor

from conftest import check_gradients, scaled_dot_attention
from reference import concat, exact_bidirectional, exact_unidirectional, mul, tsum
from test_fused_kernels import multi_head_node


def glorot_weights(d_model, h, rng):
    """Per-head q, k and v projections drawn with the model's Glorot
    initializer and joined head by head, as the model joins them, plus the
    output matrix."""
    d_k = d_model // h
    w_q, w_k, w_v = [[_glorot(rng, d_model, d_k) for _ in range(h)] for _ in range(3)]
    w_qkv = np.concatenate([w[j] for j in range(h) for w in (w_q, w_k, w_v)], axis=1)
    return Tensor(w_qkv), Tensor(_glorot(rng, h * d_k, d_model))


def attention_oracle(q, k, v):
    """Row-by-row softmax weighting, coded independently of the kernels."""
    length, d_k = q.shape
    out = np.zeros((length, v.shape[1]))
    for i in range(length):
        scores = np.array([q[i] @ k[j] / np.sqrt(d_k) for j in range(length)])
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        out[i] = sum(w[j] * v[j] for j in range(length))
    return out


def rand_qkv(rng, length=8, d_k=4, d_v=4):
    return (rng.standard_normal((length, d_k)),
            rng.standard_normal((length, d_k)),
            rng.standard_normal((length, d_v)))


class TestScaledDotAttention:
    def test_single_position_returns_value(self, rng):
        q, k, v = rand_qkv(rng, length=1)
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data, v, atol=1e-15)

    def test_identical_keys_average_values(self, rng):
        q = rng.standard_normal((5, 3))
        k = np.tile(rng.standard_normal(3), (5, 1))
        v = rng.standard_normal((5, 2))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    def test_matches_per_row_oracle(self, rng):
        q, k, v = rand_qkv(rng, length=8, d_k=4, d_v=4)
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data, attention_oracle(q, k, v), atol=1e-12)

    def test_rows_are_convex_combinations(self, rng):
        q, k, v = rand_qkv(rng, length=10, d_k=6, d_v=3)
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.all(out >= v.min(axis=0) - 1e-12)
        assert np.all(out <= v.max(axis=0) + 1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            scaled_dot_attention(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 2))),
                                 Tensor(np.ones((4, 2))))


class TestExactBidirectional:
    def test_equivalent_to_scaled_dot_on_50_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            length = int(rng.integers(2, 12))
            q, k, v = rand_qkv(rng, length=length, d_k=5, d_v=3)
            a = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
            b = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_single_position(self, rng):
        q, k, v = rand_qkv(rng, length=1)
        out = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data, v, atol=1e-15)

    def test_joint_row_permutation_equivariance(self, rng):
        q, k, v = rand_qkv(rng, length=7)
        perm = rng.permutation(7)
        base = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
        permuted = exact_bidirectional(Tensor(q[perm]), Tensor(k[perm]), Tensor(v[perm])).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


class TestExactUnidirectional:
    def test_first_row_equals_first_value(self, rng):
        q, k, v = rand_qkv(rng, length=6)
        out = exact_unidirectional(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data[0], v[0], atol=1e-15)

    def test_length_one_matches_bidirectional(self, rng):
        q, k, v = rand_qkv(rng, length=1)
        uni = exact_unidirectional(Tensor(q), Tensor(k), Tensor(v)).data
        bi = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(uni, bi, atol=1e-15)

    def test_prefix_recomputation_causality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q, k, v = rand_qkv(rng, length=12, d_k=4, d_v=3)
            full = exact_unidirectional(Tensor(q), Tensor(k), Tensor(v)).data
            for t in (1, 5, 9):
                prefix = exact_unidirectional(Tensor(q[:t]), Tensor(k[:t]), Tensor(v[:t])).data
                np.testing.assert_allclose(full[:t], prefix, atol=1e-12)

    def test_row_weights_nonnegative_and_visible_hull(self, rng):
        q, k, v = rand_qkv(rng, length=9, d_k=4, d_v=2)
        out = exact_unidirectional(Tensor(q), Tensor(k), Tensor(v)).data
        for i in range(9):
            vis = v[:i + 1]
            assert np.all(out[i] >= vis.min(axis=0) - 1e-12)
            assert np.all(out[i] <= vis.max(axis=0) + 1e-12)


class TestMultiHead:
    def test_single_head_identity_projection_reduces(self, rng):
        eye = np.eye(4)
        x = rng.standard_normal((6, 4))
        out = multi_head_node(Tensor(x), Tensor(np.hstack([eye] * 3)), Tensor(eye),
                         softmax_window, 1, 6).data
        direct = scaled_dot_attention(Tensor(x), Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(out, direct, atol=1e-12)

    def test_zero_output_matrix(self, rng):
        w_qkv, _ = glorot_weights(8, 2, rng)
        out = multi_head_node(Tensor(rng.standard_normal((5, 8))), w_qkv, Tensor(np.zeros((8, 8))),
                         softmax_window, 2, 5)
        np.testing.assert_array_equal(out.data, np.zeros((5, 8)))

    def test_two_heads_match_manual_concat(self, rng):
        w_qkv, w_o = glorot_weights(8, 2, rng)
        x = rng.standard_normal((7, 8))
        xt = Tensor(x)
        heads = []
        for i in range(2):
            q, k, v = np.split(x @ w_qkv.data[:, 12 * i:12 * (i + 1)], 3, axis=1)
            heads.append(scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data)
        expect = np.concatenate(heads, axis=1) @ w_o.data
        np.testing.assert_allclose(multi_head_node(xt, w_qkv, w_o, softmax_window, 2, 7).data,
                                   expect, atol=1e-12)

    def test_kernel_count_must_match_heads(self, rng):
        w_qkv, w_o = glorot_weights(8, 2, rng)
        with pytest.raises(ConfigError):
            multi_head_node(Tensor(rng.standard_normal((5, 8))), w_qkv, w_o, softmax_window, 3, 5)

    def test_rows_must_be_whole_windows(self, rng):
        """Seven rows are not whole windows of five: no short last window."""
        w_qkv, w_o = glorot_weights(8, 2, rng)
        with pytest.raises(ShapeError, match="7 rows"):
            multi_head_node(Tensor(rng.standard_normal((7, 8))), w_qkv, w_o, softmax_window, 2, 5)

    def test_inconsistent_config_rejected(self):
        with pytest.raises(ConfigError, match="d_model = 8 not divisible by h = 3"):
            ModelSpec(variant="transformer_mh", window=8, n_features=8, d_model=8, heads=3)


class TestAttentionGradients:
    """All attention ops pass central finite-difference checks (<= 1e-6)."""

    def _loss(self, kernel):
        def build(q, k, v):
            out = kernel(q, k, v)
            return tsum(mul(out, out))
        return build

    @pytest.mark.parametrize("kernel", [scaled_dot_attention, exact_bidirectional,
                                        exact_unidirectional],
                             ids=["scaled_dot", "bidirectional", "unidirectional"])
    def test_kernel_gradients(self, kernel, rng):
        q, k, v = rand_qkv(rng, length=5, d_k=3, d_v=3)
        check_gradients(self._loss(kernel), [q, k, v], tol=1e-6)

    @pytest.mark.parametrize("causal", [None, False, True],
                             ids=["softmax", "favor_bidirectional", "favor_unidirectional"])
    def test_multi_head_gradients(self, causal, rng):
        w_qkv, w_o = glorot_weights(4, 2, rng)
        x = rng.standard_normal((4, 4)) * 0.5
        window = softmax_window
        if causal is not None:  # each FAVOR+ head has its own features
            omega = draw_features(8, 2, [0, 1])
            kernel = favor_unidirectional if causal else favor_bidirectional
            window = functools.partial(kernel, omega=omega)

        def build(xt, wq0, wq1, wk0, wk1, wv0, wv1, wo):
            w = concat([wq0, wk0, wv0, wq1, wk1, wv1], axis=1)
            out = multi_head_node(xt, w, wo, window, 2, 4)
            return tsum(mul(out, out))

        heads = [np.split(w_qkv.data[:, 6 * j:6 * (j + 1)], 3, axis=1) for j in range(2)]
        arrays = [x, heads[0][0], heads[1][0], heads[0][1], heads[1][1],
                  heads[0][2], heads[1][2], w_o.data]
        check_gradients(build, arrays, tol=1e-6)

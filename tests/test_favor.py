"""Random-feature attention: kernel estimates, exact-oracle agreement, causality."""

import dataclasses

import numpy as np
import pytest

import fastforecast.tensor as T
from fastforecast.data import write_csv
from fastforecast.errors import ConfigError, FiniteError, ShapeError
from fastforecast.favor import (
    DENOM_FLOOR,
    DIAGNOSTICS,
    PROBE_COLUMNS,
    FavorConfig,
    complexity_probe,
    draw_features,
    favor_bidirectional,
    favor_unidirectional,
    loglog_slope,
    _gram_schmidt,
    _phi,
    _phi_grad,
)
from fastforecast.tensor import EXP_CLAMP, GradTape, Tensor

from conftest import check_gradients, rel_err, scaled_dot_attention
from reference import (add, concat, draw_features_per_seed, exact_bidirectional,
                       exact_unidirectional, exp, matmul, mul, recip, sub, take_rows, transpose,
                       tsum, window_node)

# the model's window functions on tensors, each call one tape node
favor_node = window_node(favor_bidirectional)
causal_favor_node = window_node(favor_unidirectional)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def kernel_shapes(mode, length, d_k, r, seed=0):
    """Shapes of every intermediate one exact, FAVOR+ or causal FAVOR+ kernel
    call allocates."""
    rng = np.random.default_rng(seed)
    q = Tensor(rng.standard_normal((length, d_k)))
    k = Tensor(rng.standard_normal((length, d_k)))
    v = Tensor(rng.standard_normal((length, d_k)))
    omega = draw_features(r, d_k, [seed])[0]
    with T.track_allocations() as log:
        if mode == "exact":
            scaled_dot_attention(q, k, v)
        elif mode == "causal":
            causal_favor_node(q, k, v, omega)
        else:
            favor_node(q, k, v, omega)
    return log.shapes


def masked(x, keep, fill):
    """x where the 0/1 array ``keep`` is 1 and the constant ``fill`` elsewhere,
    as x·keep + fill·(1−keep): no gradient reaches x where keep is 0.  The
    references write φ's exp clamp and the denominator floor this way."""
    keep = np.asarray(keep, dtype=np.float64)
    return add(mul(x, Tensor(keep)), Tensor(fill * (1.0 - keep)))


def composed_phi(x, omega):
    """Reference for φ, composed from tensor primitives."""
    proj = matmul(x, Tensor(omega.T))
    sq_half = mul(tsum(mul(x, x), axis=1), 0.5)
    arg = sub(proj, sq_half)
    clamped = masked(arg, arg.data < EXP_CLAMP, EXP_CLAMP)
    return mul(exp(clamped), 1.0 / np.sqrt(omega.shape[0]))


def composed_favor(q, k, v, omega):
    """Reference for favor_bidirectional, composed from tensor primitives."""
    scale = omega.shape[1] ** -0.25
    q_hat = composed_phi(mul(q, scale), omega)
    k_hat = composed_phi(mul(k, scale), omega)
    num = matmul(q_hat, matmul(transpose(k_hat), v))
    den = matmul(q_hat, transpose(tsum(k_hat, axis=0)))
    return mul(num, recip(masked(den, den.data > DENOM_FLOOR, DENOM_FLOOR)))


def composed_causal_favor(q, k, v, omega):
    """Reference for favor_unidirectional, composed from tensor primitives:
    one row at a time over running sums S_i = Σ_{j<=i} φ(k_j) v_jᵀ and
    z_i = Σ_{j<=i} φ(k_j)."""
    scale = omega.shape[1] ** -0.25
    q_hat = composed_phi(mul(q, scale), omega)
    k_hat = composed_phi(mul(k, scale), omega)
    rows = []
    s_state = z_state = None  # (r, d_v), (r, 1)
    for i in range(q.shape[0]):
        k_row = take_rows(k_hat, [i])  # (1, r)
        q_row = take_rows(q_hat, [i])  # (1, r)
        outer = matmul(transpose(k_row), take_rows(v, [i]))  # (r, d_v)
        k_col = transpose(k_row)  # (r, 1)
        s_state = outer if s_state is None else add(s_state, outer)
        z_state = k_col if z_state is None else add(z_state, k_col)
        den = matmul(q_row, z_state)  # (1, 1)
        den = masked(den, den.data > DENOM_FLOOR, DENOM_FLOOR)
        rows.append(mul(matmul(q_row, s_state), recip(den)))
    return concat(rows, axis=0) if len(rows) > 1 else rows[0]


def assert_matches_composed(kernel, composed, q, k, v, omega):
    """Bitwise forward; gradients of q, k and v within 1e-12."""
    outs, grads = [], []
    for fn in (kernel, composed):
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with GradTape() as tape:
            out = fn(*leaves, omega)
            loss = tsum(mul(out, out))
        tape.backward(loss)
        outs.append(out.data)
        grads.append([t.grad for t in leaves])
    np.testing.assert_array_equal(outs[0], outs[1])
    for fused, reference in zip(*grads):
        assert rel_err(fused, reference) <= 1e-12


def clamping_omega(r, d_k, seed=21):
    """An Ω whose first row is rescaled to norm 200, and that row's unit
    vector ω̂₀: x = 5·ω̂₀ has the exponent 200·5 − 5²/2 = 987.5 there, past
    EXP_CLAMP."""
    omega = draw_features(r, d_k, [seed])[0]
    omega[0] *= 200.0 / np.linalg.norm(omega[0])
    return omega, omega[0] / 200.0


def rand_inputs(rng, length, d_k, d_v=None, normalize=True):
    d_v = d_v or d_k
    q = rng.standard_normal((length, d_k))
    k = rng.standard_normal((length, d_k))
    v = rng.standard_normal((length, d_v))
    if normalize:
        q, k = unit_rows(q), unit_rows(k)
    return q, k, v


DRAW_SEEDS = [0, 1, 12345, 2**63 + 5, 2**64 - 1]


class TestDrawFeatures:
    @pytest.mark.parametrize("d_k", [1, 2, 3, 4, 5, 8, 16, 32])
    def test_batched_draw_matches_per_seed_oracle_bytewise(self, d_k):
        """One call for several seeds stacks, byte for byte, what the draw one
        seed and one square block at a time gives for each."""
        for r in sorted({1, 3, d_k, d_k + 1, 2 * d_k - 1, 128}):
            omegas = draw_features(r, d_k, DRAW_SEEDS)
            assert omegas.shape == (len(DRAW_SEEDS), r, d_k)
            for seed, omega in zip(DRAW_SEEDS, omegas, strict=True):
                expected = draw_features_per_seed(FavorConfig(r=r, d_k=d_k, seed=seed))
                assert omega.tobytes() == expected.tobytes(), (r, seed)

    @pytest.mark.parametrize("position", [0, 1])
    def test_rank_deficient_block_in_a_stack_raises(self, position):
        """One block of the stack has a repeated row; the other is full rank."""
        rng = np.random.default_rng(0)
        good = rng.standard_normal((3, 3))
        bad = rng.standard_normal((3, 3))
        bad[2] = bad[0]
        _gram_schmidt(good[None])  # a full-rank block alone passes
        blocks = [good, good]
        blocks[position] = bad
        with pytest.raises(ConfigError, match="degenerate"):
            _gram_schmidt(np.stack(blocks))

    def test_deterministic_for_seed(self):
        a = draw_features(32, 8, [123])
        b = draw_features(32, 8, [123])
        assert np.array_equal(a, b)

    def test_square_block_orthogonality(self):
        omega = draw_features(4, 4, [0])[0]
        gram = omega @ omega.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-10

    def test_blockwise_orthogonality_when_r_exceeds_dk(self):
        omega = draw_features(10, 4, [1])[0]
        for start in (0, 4, 8):
            block = omega[start:start + 4]
            gram = block @ block.T
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-10

    def test_row_norms_follow_chi_statistics(self):
        # mean of chi_d is sqrt(2)*Gamma((d+1)/2)/Gamma(d/2); check loosely
        import math
        d = 8
        omega = draw_features(4000, d, [2])[0]
        norms = np.linalg.norm(omega, axis=1)
        expect = math.sqrt(2) * math.gamma((d + 1) / 2) / math.gamma(d / 2)
        assert abs(norms.mean() - expect) < 0.05

    def test_kernel_estimate_converges_over_redraws(self):
        """Mean of phi(x)ᵀphi(y) over 200 independent redraws approaches
        exp(xᵀy), and the error shrinks as r grows."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        x *= 0.6 / np.linalg.norm(x)
        y = rng.standard_normal(4)
        y *= 0.6 / np.linalg.norm(y)
        true = np.exp(x @ y)
        errors = {}
        for r in (4, 64):
            estimates = []
            for seed in range(200):
                omega = draw_features(r, 4, [seed])[0]
                px = _phi(x[None, :], omega)[0][0]
                py = _phi(y[None, :], omega)[0][0]
                estimates.append(px @ py)
            errors[r] = abs(np.mean(estimates) - true) / true
        assert errors[64] < 0.02  # 200 x 64 samples pin the kernel tightly
        assert errors[64] <= errors[4] + 0.01


class TestPhiPositive:
    def test_zero_vector(self):
        omega = draw_features(16, 4, [0])[0]
        out, _ = _phi(np.zeros((1, 4)), omega)
        np.testing.assert_allclose(out, np.full((1, 16), 1 / 4.0), atol=1e-15)
        # phi(0)ᵀphi(0) = 1 = exp(0)
        assert out[0] @ out[0] == pytest.approx(1.0, abs=1e-12)

    def test_strictly_positive(self, rng):
        omega = draw_features(32, 6, [4])[0]
        out, _ = _phi(rng.standard_normal((10, 6)), omega)
        assert np.all(out > 0)

    def test_kernel_estimate_accuracy_at_r1024(self):
        """E[phi(x)ᵀphi(y)] ~ exp(xᵀy): d_k=4, norms <= 1, r=1024, mean
        relative error over 20 seeds <= 0.05 against the closed form."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        x *= 0.7 / np.linalg.norm(x)
        y = rng.standard_normal(4)
        y *= 0.7 / np.linalg.norm(y)
        true = np.exp(x @ y)
        rel = []
        for seed in range(20):
            omega = draw_features(1024, 4, [seed])[0]
            px = _phi(x[None, :], omega)[0][0]
            py = _phi(y[None, :], omega)[0][0]
            rel.append(abs(px @ py - true) / true)
        assert np.mean(rel) <= 0.05

    def test_clamp_diagnostics_trigger(self):
        """Only the first exponent (1599) is clamped: its feature is e^700/√r,
        the others are e^-1/√r, and the counter counts one."""
        before = DIAGNOSTICS.exp_clamped
        omega = np.zeros((4, 2))
        omega[0] = 800.0
        out, mask = _phi(np.ones((1, 2)), omega)
        assert DIAGNOSTICS.exp_clamped == before + 1
        np.testing.assert_allclose(out[0, 0], np.exp(700.0) / np.sqrt(4), rtol=1e-15)
        np.testing.assert_allclose(out[0, 1:], np.exp(-1.0) / np.sqrt(4), rtol=1e-15)
        np.testing.assert_array_equal(mask, [[False, True, True, True]])

    def test_gradient_through_a_clamped_exponent(self, rng):
        """Row 1 of x is 5·ω̂₀ with ‖ω₀‖ = 200: its first exponent is clamped
        to 700 and passes no gradient.  ``_phi_grad`` against the tape
        gradient of the masked reference, within 1e-12; without the mask, the
        clamped feature's e^700 would reach x's gradient."""
        omega, unit = clamping_omega(6, 4)
        x = rng.standard_normal((3, 4))
        x[1] = 5.0 * unit
        g = rng.standard_normal((3, 6))
        before = DIAGNOSTICS.exp_clamped
        phi, mask = _phi(x, omega)
        assert DIAGNOSTICS.exp_clamped == before + 1 and not mask[1, 0]
        leaf = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            loss = tsum(mul(composed_phi(leaf, omega), Tensor(g)))
        tape.backward(loss)
        assert rel_err(_phi_grad(x, omega, phi, mask, g), leaf.grad) <= 1e-12

    def test_width_mismatch(self):
        """φ takes rows of width d_k; both window functions reject wider q and k."""
        omega = draw_features(8, 4, [0])[0]
        x = np.ones((3, 5))
        for kernel in (favor_bidirectional, favor_unidirectional):
            with pytest.raises(ShapeError, match="width 4"):
                kernel(x, x, x, omega)


class TestFavorBidirectional:
    def test_single_position_returns_value(self, rng):
        q, k, v = rand_inputs(rng, 1, 8)
        omega = draw_features(32, 8, [6])[0]
        out = favor_node(Tensor(q), Tensor(k), Tensor(v), omega)
        np.testing.assert_allclose(out.data, v, atol=1e-9)

    def test_output_in_value_hull(self, rng):
        q, k, v = rand_inputs(rng, 20, 8, d_v=3)
        omega = draw_features(64, 8, [7])[0]
        out = favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
        assert np.all(out >= v.min(axis=0) - 1e-9)
        assert np.all(out <= v.max(axis=0) + 1e-9)

    def test_approximates_exact_attention(self):
        """L=64, d_k=16, r=256, unit-scale rows: median relative Frobenius
        error vs the exact oracle <= 0.05 over 20 seeds."""
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            q, k, v = rand_inputs(rng, 64, 16)
            exact = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
            omega = draw_features(256, 16, [seed])[0]
            approx = favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert np.median(errs) <= 0.05

    def test_error_non_increasing_in_r(self):
        """Median error at r in {16, 64, 256, 1024}: non-increasing with one
        inversion tolerated for noise."""
        medians = []
        for r in (16, 64, 256, 1024):
            errs = []
            for seed in range(12):
                rng = np.random.default_rng(2000 + seed)
                q, k, v = rand_inputs(rng, 48, 16)
                exact = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
                omega = draw_features(r, 16, [seed])[0]
                approx = favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
                errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
            medians.append(float(np.median(errs)))
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
        assert inversions <= 1
        assert medians[-1] < medians[0]

    def test_agreement_in_the_large_r_limit(self):
        """d_k=2, r=4096, unit-norm rows: median per-row relative error vs
        exact attention <= 0.02 (seeds fixed, so this is deterministic)."""
        row_errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q, k, v = rand_inputs(rng, 16, 2)
            exact = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
            omega = draw_features(4096, 2, [seed])[0]
            approx = favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
            rows = np.linalg.norm(approx - exact, axis=1) / np.linalg.norm(exact, axis=1)
            row_errs.extend(rows.tolist())
        assert np.median(row_errs) <= 0.02

    def test_deterministic_given_seed(self, rng):
        q, k, v = rand_inputs(rng, 10, 4)
        omega1 = draw_features(32, 4, [9])[0]
        omega2 = draw_features(32, 4, [9])[0]
        a = favor_node(Tensor(q), Tensor(k), Tensor(v), omega1).data
        b = favor_node(Tensor(q), Tensor(k), Tensor(v), omega2).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("length,d_k,d_v,r", [(1, 3, 3, 8), (9, 4, 2, 16), (64, 16, 16, 128)])
    def test_equals_composed_reference(self, length, d_k, d_v, r, rng):
        """The fused kernel against the primitive composition: bitwise
        forward, gradients of q, k and v within 1e-12."""
        q, k, v = rand_inputs(rng, length, d_k, d_v=d_v, normalize=False)
        omega = draw_features(r, d_k, [16])[0]
        assert_matches_composed(favor_node, composed_favor, q, k, v, omega)

    def test_overflowing_query_raises(self, rng):
        """q·1e200 overflows ‖q‖² inside φ; neither kernel may return zeros."""
        q, k, v = rand_inputs(rng, 6, 4)
        omega = draw_features(16, 4, [17])[0]
        for kernel in (favor_node, composed_favor,
                       causal_favor_node, composed_causal_favor):
            with pytest.raises(FiniteError):
                kernel(Tensor(q * 1e200), Tensor(k), Tensor(v), omega)


@pytest.mark.parametrize("kernel,composed", [(favor_node, composed_favor),
                                             (causal_favor_node, composed_causal_favor)],
                         ids=["bidirectional", "causal"])
def test_vanishing_query_features_hit_the_denominator_floor(kernel, composed, rng):
    """Scaled, the query row (80, 0, 0, 0) has ‖q‖²/2 = 1600, so every feature
    exponent is far below -745: φ(q) and its denominator underflow to 0.  The
    floor keeps that output row a finite 0 and counts it once, and the
    mask-form reference agrees."""
    q, k, v = rand_inputs(rng, 5, 4)
    q[2] = (80.0, 0.0, 0.0, 0.0)
    omega = draw_features(8, 4, [19])[0]
    before = DIAGNOSTICS.denom_floored
    out = kernel(Tensor(q), Tensor(k), Tensor(v), omega).data
    assert DIAGNOSTICS.denom_floored == before + 1
    np.testing.assert_array_equal(out[2], np.zeros(4))
    assert np.all(np.isfinite(out))
    assert np.all(np.delete(out, 2, axis=0) != 0)
    assert_matches_composed(kernel, composed, q, k, v, omega)


@pytest.mark.parametrize("kernel,composed", [(favor_node, composed_favor),
                                             (causal_favor_node, composed_causal_favor)],
                         ids=["bidirectional", "causal"])
def test_clamped_key_exponent_matches_the_masked_reference(kernel, composed, rng):
    """Key row 3, scaled, is 5·ω̂₀ with ‖ω₀‖ = 200: its first exponent is
    clamped to 700.  Each scaled query's component along ω̂₀ is −3.5, so its
    first feature is about e^-706 and each product with the clamped one stays
    finite and weighs like the others.  The kernel's gradients agree with the
    mask-form reference within 1e-12; without the mask they would not."""
    q, k, v = rand_inputs(rng, 5, 4)
    omega, unit = clamping_omega(8, 4)
    scale = 4 ** 0.25  # the kernel scales q and k by d_k^(-1/4)
    q = q - np.outer(q @ unit + 3.5 * scale, unit)
    k[3] = 5.0 * scale * unit
    before = DIAGNOSTICS.exp_clamped
    kernel(Tensor(q), Tensor(k), Tensor(v), omega)
    assert DIAGNOSTICS.exp_clamped == before + 1
    assert_matches_composed(kernel, composed, q, k, v, omega)


class TestFavorUnidirectional:
    def test_first_row_equals_first_value(self, rng):
        q, k, v = rand_inputs(rng, 6, 4)
        omega = draw_features(16, 4, [10])[0]
        out = causal_favor_node(Tensor(q), Tensor(k), Tensor(v), omega)
        np.testing.assert_allclose(out.data[0], v[0], atol=1e-9)

    def test_length_one_matches_bidirectional(self, rng):
        q, k, v = rand_inputs(rng, 1, 4)
        omega = draw_features(16, 4, [11])[0]
        uni = causal_favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
        bi = favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
        np.testing.assert_allclose(uni, bi, atol=1e-12)

    def test_prefix_recomputation_bitwise(self, rng):
        q, k, v = rand_inputs(rng, 12, 4)
        omega = draw_features(16, 4, [12])[0]
        full = causal_favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
        for t in (1, 4, 9):
            prefix = causal_favor_node(Tensor(q[:t]), Tensor(k[:t]), Tensor(v[:t]), omega).data
            assert np.array_equal(full[:t], prefix)

    def test_tracks_exact_causal_attention(self):
        errs = []
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            q, k, v = rand_inputs(rng, 32, 8)
            exact = exact_unidirectional(Tensor(q), Tensor(k), Tensor(v)).data
            omega = draw_features(512, 8, [seed])[0]
            approx = causal_favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert np.median(errs) <= 0.15

    @pytest.mark.parametrize("length,d_k,d_v,r", [(1, 3, 3, 8), (9, 4, 2, 16), (64, 16, 16, 128)])
    def test_equals_composed_reference(self, length, d_k, d_v, r, rng):
        """The fused prefix-sum kernel against the per-row composition:
        bitwise forward, gradients of q, k and v within 1e-12."""
        q, k, v = rand_inputs(rng, length, d_k, d_v=d_v, normalize=False)
        omega = draw_features(r, d_k, [18])[0]
        assert_matches_composed(causal_favor_node, composed_causal_favor, q, k, v, omega)


class TestFavorGradients:
    """Both attention variants, φ included, pass finite-difference checks (<= 1e-5)."""

    def test_bidirectional_gradient(self, rng):
        omega = draw_features(8, 3, [14])[0]

        def build(q, k, v):
            out = favor_node(q, k, v, omega)
            return tsum(mul(out, out))

        q, k, v = rand_inputs(rng, 5, 3)
        check_gradients(build, [q, k, v], tol=1e-5)

    def test_unidirectional_gradient(self, rng):
        omega = draw_features(8, 3, [15])[0]

        def build(q, k, v):
            out = causal_favor_node(q, k, v, omega)
            return tsum(mul(out, out))

        q, k, v = rand_inputs(rng, 5, 3)
        check_gradients(build, [q, k, v], tol=1e-5)


class TestComplexityProbe:
    def test_csv_rows_and_columns(self, tmp_path):
        rows = complexity_probe("favor", [32, 64], d_k=8, r=16, reps=2)
        assert len(rows) == 4
        path = tmp_path / "probe.csv"
        write_csv(path, PROBE_COLUMNS, map(dataclasses.astuple, rows))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mode,L,d_k,r,rep,wall_ns,peak_bytes_estimate"
        assert len(lines) == 5

    @pytest.mark.parametrize("lengths", [[0, 32], [32, -4]])
    def test_rejects_lengths_below_one(self, lengths):
        with pytest.raises(ConfigError, match="lengths must be >= 1"):
            complexity_probe("favor", lengths, d_k=8, r=16, reps=1)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_reps_below_one(self, reps):
        with pytest.raises(ConfigError, match="reps must be >= 1"):
            complexity_probe("favor", [8, 16], d_k=8, r=16, reps=reps)

    def test_favor_never_allocates_lxl(self):
        for mode in ("favor", "causal"):
            for length in (64, 128):
                shapes = kernel_shapes(mode, length, 8, 16)
                assert (length, length) not in shapes

    def test_favor_notes_its_linear_buffers(self):
        """The fused kernel logs its (L, r) features and (r, d_v) summary."""
        shapes = kernel_shapes("favor", 64, 8, 16)
        assert (64, 16) in shapes
        assert (16, 8) in shapes

    def test_exact_does_allocate_lxl(self):
        shapes = kernel_shapes("exact", 64, 8, 16)
        assert (64, 64) in shapes

    @pytest.mark.parametrize("mode,expected", [
        # softmax_window's L×L scores plus the (L, d_k) output: 8·(L² + L·d_k)
        ("exact", {256: 589_824, 2048: 34_078_720}),
        # favor_window's φ(Q), φ(K), K̂ᵀV, numerator, K̂ᵀ1, denominator and output
        ("favor", {256: 691_200, 512: 1_348_608, 1024: 2_663_424, 2048: 5_293_056}),
    ], ids=["exact", "favor"])
    def test_bytes_are_the_model_kernels(self, mode, expected):
        """The probe runs the window functions the model runs, at d_k 32 and
        r 128 (bench's defaults), and logs exactly their buffers."""
        rows = complexity_probe(mode, list(expected), d_k=32, r=128, reps=1)
        assert {row.L: row.peak_bytes_estimate for row in rows} == expected

    def test_favor_memory_linear_in_length(self):
        rows_small = complexity_probe("favor", [128], d_k=8, r=16, reps=1)
        rows_big = complexity_probe("favor", [256], d_k=8, r=16, reps=1)
        ratio = rows_big[0].peak_bytes_estimate / rows_small[0].peak_bytes_estimate
        assert ratio < 3.0  # doubling L at most doubles the linear terms

    def test_slope_fit_on_synthetic_quadratic(self):
        from fastforecast.favor import ProbeRow
        rows = [ProbeRow("exact", L, 8, 16, 0, L * L * 10, 0) for L in (64, 128, 256)]
        assert loglog_slope(rows) == pytest.approx(2.0, abs=1e-6)

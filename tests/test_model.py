"""Model tests: build determinism, variant behaviour, training, checkpoints."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from fastforecast.data import make_dataset
from fastforecast.errors import ConfigError, DataError
from fastforecast.favor import FavorConfig
from fastforecast.indicators import IndicatorParams
from fastforecast.model import (
    VARIANTS,
    ModelSpec,
    TrainHyperparams,
    _batch_loss,
    _eval_loss,
    build,
    load_checkpoint,
    predict_series,
    save_checkpoint,
    sinusoidal_encoding,
    train,
)
from fastforecast.tensor import GradTape

import sys
sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from test_indicators import make_series, random_walk


def tiny_spec(variant="performer_bilstm", window=8, n_features=8, seed=0, **kw):
    favor = None
    if variant in ("performer", "performer_bilstm"):
        favor = FavorConfig(r=kw.pop("r", 16), d_k=kw.pop("d_model", 8) // kw.get("heads", 2),
                            seed=seed + 1)
        kw["d_model"] = favor.d_k * kw.get("heads", 2)
    return ModelSpec(variant=variant, window=window, n_features=n_features,
                     d_model=kw.pop("d_model", 8), blocks=kw.pop("blocks", 1),
                     heads=kw.pop("heads", 2), favor=favor,
                     bilstm_hidden=kw.pop("bilstm_hidden", 4),
                     fc_widths=kw.pop("fc_widths", (4, 1)),
                     dropout=kw.pop("dropout", 0.0), seed=seed, **kw)


def tiny_dataset(n=120, window=8, seed=3):
    series = make_series(random_walk(n, seed=seed), spread=0.3)
    return make_dataset(series, IndicatorParams(), window)


class TestSpecValidation:
    def test_performer_requires_favor(self):
        with pytest.raises(ConfigError):
            ModelSpec(variant="performer", window=8, n_features=8, d_model=8,
                      heads=2, favor=None)

    def test_transformer_rejects_favor(self):
        with pytest.raises(ConfigError):
            ModelSpec(variant="transformer_mh", window=8, n_features=8, d_model=8,
                      heads=2, favor=FavorConfig(r=8, d_k=4, seed=0))

    def test_fc_widths_must_end_in_one(self):
        with pytest.raises(ConfigError):
            ModelSpec(variant="bilstm_only", window=8, n_features=8, fc_widths=(8, 4))

    def test_favor_dk_consistency(self):
        with pytest.raises(ConfigError):
            ModelSpec(variant="performer", window=8, n_features=8, d_model=8,
                      heads=2, favor=FavorConfig(r=8, d_k=3, seed=0))

    def test_roundtrip_through_dict(self):
        spec = tiny_spec()
        again = ModelSpec.from_dict(spec.to_dict())
        assert again == spec


class TestBuild:
    def test_same_seed_bit_identical_parameters(self):
        spec = tiny_spec(seed=7)
        a, b = build(spec), build(spec)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data), name

    def test_bilstm_only_has_zero_attention_parameters(self):
        model = build(tiny_spec(variant="bilstm_only"))
        assert not any("attn" in name or "block" in name for name in model.params)

    def test_parameter_count_matches_shape_sum_oracle(self):
        spec = tiny_spec(variant="performer_bilstm", window=8, n_features=6,
                         heads=2, bilstm_hidden=4, fc_widths=(4, 1))
        model = build(spec)
        d, h, hid, f = spec.d_model, spec.heads, spec.bilstm_hidden, spec.n_features
        d_k = d // h
        expect = f * d + d  # embedding
        per_block = h * 3 * d * d_k + (h * d_k) * d  # projections + output
        per_block += 2 * (2 * d)  # two layer norms
        per_block += d * 4 * d + 4 * d + 4 * d * d + d  # feed-forward
        expect += spec.blocks * per_block
        width_in = d
        for _ in range(2):  # two bilstm layers, two directions each
            expect += 2 * (4 * (hid * (hid + width_in)) + 4 * hid)
            width_in = 2 * hid
        widths = [2 * hid, 4, 1]
        expect += sum(a * b + b for a, b in zip(widths, widths[1:]))
        assert model.parameter_count() == expect

    def test_feature_draw_changes_only_with_the_generation(self):
        model = build(tiny_spec(blocks=2))
        drawn = [omega for row in model.feature_maps for omega in row]
        model.set_favor_generation(0)
        kept = [omega for row in model.feature_maps for omega in row]
        assert len(kept) == 4 and all(a is b for a, b in zip(drawn, kept))
        model.set_favor_generation(1)
        redrawn = [omega for row in model.feature_maps for omega in row]
        assert not any(np.array_equal(a, b) for a, b in zip(drawn, redrawn))

    @pytest.mark.parametrize("generation", [True, 1.0, "1", -1])
    def test_feature_generation_must_be_a_natural_number(self, generation):
        model = build(tiny_spec())
        with pytest.raises(ConfigError, match="favor_generation"):
            model.set_favor_generation(generation)

    def test_positional_encoding_shape_and_interleave(self):
        pe = sinusoidal_encoding(10, 8)
        assert pe.shape == (10, 8)
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-15)  # sin(0)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-15)  # cos(0)


class TestForward:
    def test_zero_final_layer_predicts_zero(self, rng):
        model = build(tiny_spec())
        last = f"fc{len(model.spec.fc_widths) - 1}"
        model.params[f"{last}.w"].data[:] = 0.0
        model.params[f"{last}.b"].data[:] = 0.0
        window = rng.standard_normal((8, 8))
        assert model.forward_batch(window[None]).item() == 0.0

    def test_forward_deterministic(self, rng):
        model = build(tiny_spec())
        window = rng.standard_normal((8, 8))
        assert model.forward_batch(window[None]).item() == model.forward_batch(window[None]).item()

    @pytest.mark.parametrize("variant", ["bilstm_only", "transformer_mh",
                                         "performer", "performer_bilstm"])
    def test_variant_forward_shapes(self, variant, rng):
        model = build(tiny_spec(variant=variant))
        out = model.forward_batch(rng.standard_normal((3, 8, 8)))
        assert out.shape == (3, 1)

    @pytest.mark.parametrize("variant, causal",
                             [*((v, False) for v in VARIANTS), ("performer", True)],
                             ids=[*VARIANTS, "performer_causal"])
    def test_batch_forward_matches_single(self, variant, causal, rng):
        spec = tiny_spec(variant=variant)
        if causal:
            spec = dataclasses.replace(spec, favor=dataclasses.replace(spec.favor, causal=True))
        model = build(spec)
        windows = rng.standard_normal((4, 8, 8))
        batched = model.forward_batch(windows).data[:, 0]
        singles = np.array([model.forward_batch(w[None]).item() for w in windows])
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_wrong_feature_count_rejected(self, rng):
        model = build(tiny_spec())
        with pytest.raises(ConfigError):
            model.forward_batch(rng.standard_normal((8, 5))[None])

    def test_favor_large_r_approaches_exact_attention_twin(self, rng):
        """With tied weights and r=4096, the random-feature forward pass
        tracks the exact-attention forward pass within 5% relative."""
        heads = 2
        d_model = 8
        favor = FavorConfig(r=4096, d_k=d_model // heads, seed=11)
        spec_f = ModelSpec(variant="performer", window=8, n_features=8,
                           d_model=d_model, blocks=1, heads=heads, favor=favor,
                           fc_widths=(4, 1), dropout=0.0, seed=5)
        spec_e = ModelSpec(variant="transformer_mh", window=8, n_features=8,
                           d_model=d_model, blocks=1, heads=heads, favor=None,
                           fc_widths=(4, 1), dropout=0.0, seed=5)
        m_favor, m_exact = build(spec_f), build(spec_e)
        # identical seeds draw identical parameters for the shared layout
        for name in m_exact.params:
            np.testing.assert_array_equal(m_exact.params[name].data,
                                          m_favor.params[name].data)
        rel = []
        for _ in range(10):
            w = rng.standard_normal((8, 8)) * 0.5
            a = m_favor.forward_batch(w[None]).item()
            b = m_exact.forward_batch(w[None]).item()
            rel.append(abs(a - b) / max(1.0, abs(b)))
        assert np.median(rel) <= 0.05


class TestTrain:
    def test_zero_learning_rate_leaves_parameters(self):
        ds = tiny_dataset()
        model = build(tiny_spec(n_features=ds.n_features))
        before = model.state_arrays()
        train(model, ds, TrainHyperparams(epochs=2, batch=8, lr=0.0))
        after = model.state_arrays()
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_zero_epochs_keeps_initialization(self):
        ds = tiny_dataset()
        spec = tiny_spec(n_features=ds.n_features)
        model = build(spec)
        report = train(model, ds, TrainHyperparams(epochs=0, batch=8, lr=1e-3))
        fresh = build(spec)
        for name in fresh.params:
            assert np.array_equal(fresh.params[name].data, model.params[name].data)
        assert report.train_losses == []

    def test_single_sample_memorization(self):
        """One window, enough epochs: training loss collapses below 1e-6."""
        series = make_series(random_walk(48, seed=9), spread=0.3)
        ds = make_dataset(series, IndicatorParams(), 8)
        one = copy.copy(ds)
        one.windows = ds.windows[:1]
        one.targets = ds.targets[:1]
        one.raw_targets = ds.raw_targets[:1]
        one.target_times = ds.target_times[:1]
        from fastforecast.data import SplitRanges
        one.split = SplitRanges(range(0, 1), range(1, 1), range(1, 1))
        model = build(tiny_spec(variant="bilstm_only", n_features=ds.n_features,
                                bilstm_hidden=8, fc_widths=(8, 1)))
        report = train(model, one, TrainHyperparams(epochs=300, batch=1, lr=3e-3,
                                                    grad_clip=0.0))
        assert min(report.train_losses) <= 1e-6

    def test_loss_decreases_on_ar1_synthetic(self):
        """First-five-epoch losses decrease monotonically across 3 seeds."""
        for seed in (0, 1, 2):
            rng = np.random.default_rng(100 + seed)
            noise = np.zeros(400)
            for i in range(1, 400):
                noise[i] = 0.8 * noise[i - 1] + rng.standard_normal() * 0.4
            close = 50.0 + noise
            ds = make_dataset(make_series(close, spread=0.2), IndicatorParams(), 8)
            model = build(tiny_spec(variant="performer_bilstm", seed=seed,
                                    n_features=ds.n_features))
            report = train(model, ds, TrainHyperparams(epochs=5, batch=16, lr=2e-3))
            diffs = np.diff(report.train_losses)
            assert np.all(diffs < 0), report.train_losses

    def test_loss_decreases_at_default_spec(self):
        """Default-sized model, fixed AR(1) series: the first five epoch
        losses decrease monotonically for each of three seeds."""
        rng = np.random.default_rng(424242)
        n = 620
        noise = np.zeros(n)
        for i in range(1, n):
            noise[i] = 0.8 * noise[i - 1] + rng.standard_normal() * 0.4
        close = 50.0 + noise
        for seed in (0, 1, 2):
            ds = make_dataset(make_series(close, spread=0.2), IndicatorParams(), 64)
            spec = ModelSpec(variant="performer_bilstm", window=64, n_features=8,
                             favor=FavorConfig(r=128, d_k=16, seed=seed + 1), seed=seed)
            model = build(spec)
            report = train(model, ds, TrainHyperparams(epochs=5, batch=32, lr=1e-3))
            assert np.all(np.diff(report.train_losses) < 0), (seed, report.train_losses)

    def test_redraw_restores_the_best_epochs_feature_draw(self):
        """With FAVOR+ redraws and an early best epoch, the restored model
        reproduces the validation loss recorded for that epoch."""
        ds = tiny_dataset()
        spec = tiny_spec("performer", n_features=ds.n_features, seed=4)
        spec = dataclasses.replace(
            spec, favor=dataclasses.replace(spec.favor, redraw_interval=2))
        hp = TrainHyperparams(epochs=6, batch=8, lr=1e-3)
        model = build(spec)
        report = train(model, ds, hp)
        assert report.best_epoch < hp.epochs - 1
        val_w, val_y = ds.windows_for("validation")
        assert _eval_loss(model, val_w, val_y, hp.batch) == report.val_losses[report.best_epoch]
        assert report.favor_generation == model.favor_generation

    def test_bilstm_tape_size_does_not_grow_with_window(self):
        """The BiLSTM, causal FAVOR+ and the multi-head attention node record
        whole-sequence, whole-batch nodes, not one per step, row or window:
        every variant's training step tapes as many nodes at window 8 as at
        32, and at batch 4 as at 32."""
        for variant, causal in [(v, False) for v in VARIANTS] + [("performer", True)]:
            sizes = []
            for window, batch in ((8, 4), (32, 4), (8, 32)):
                spec = tiny_spec(variant=variant, window=window, dropout=0.1)
                if causal:
                    spec = dataclasses.replace(
                        spec, favor=dataclasses.replace(spec.favor, causal=True))
                model = build(spec)
                rng = np.random.default_rng(0)
                windows = rng.standard_normal((batch, window, spec.n_features))
                with GradTape() as tape:
                    loss = _batch_loss(model, windows, rng.standard_normal(batch), rng)
                tape.backward(loss)
                sizes.append(len(tape))
            assert sizes[0] == sizes[1] == sizes[2], (variant, causal, sizes)

    def test_forward_without_tape_holds_one_window_of_scores(self):
        """With no tape recording, exact attention keeps no window's L×L
        buffers after it returns: at L=256, B=8 and four heads, the peak
        traced allocation of a forward pass stays below the B·H·L² float64
        scores that keeping them all would hold (16 MB)."""
        length, batch, heads = 256, 8, 4
        model = build(ModelSpec(variant="transformer_mh", window=length, n_features=8,
                                heads=heads))
        windows = np.random.default_rng(0).standard_normal((batch, length, 8))
        tracemalloc.start()
        try:
            model.forward_batch(windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < batch * heads * length ** 2 * 8, peak

    def test_training_is_deterministic(self):
        ds = tiny_dataset()
        hp = TrainHyperparams(epochs=3, batch=8, lr=1e-3)
        spec = tiny_spec(n_features=ds.n_features, dropout=0.1)
        r1 = train(build(spec), ds, hp)
        r2 = train(build(spec), ds, hp)
        assert r1.to_dict() == r2.to_dict()


class TestPredictSeries:
    def test_output_length_matches_split(self):
        ds = tiny_dataset(n=160)
        model = build(tiny_spec(variant="bilstm_only", n_features=ds.n_features))
        pred = predict_series(model, ds, "test")
        assert len(pred.predicted) == len(ds.split.test)
        assert len(pred.actual) == len(pred.predicted) == len(pred.timestamps)

    def test_oracle_stub_gives_perfect_metrics(self):
        """Plumbing check: replace the model by an oracle that returns the
        true normalized target; downstream metrics must be perfect."""
        from fastforecast.data import evaluate_metrics
        ds = tiny_dataset(n=160)
        model = build(tiny_spec(variant="bilstm_only", n_features=ds.n_features))
        r = ds.split.test

        class Oracle:
            spec = model.spec

            def forward_batch(self, windows, rng=None):
                # look the window up by matching its contents
                from fastforecast.tensor import Tensor
                idx = [next(i for i in range(len(ds.windows))
                            if np.array_equal(ds.windows[i], w)) for w in windows]
                return Tensor(ds.targets[idx].reshape(-1, 1))

        pred = predict_series(Oracle(), ds, "test")
        metrics = evaluate_metrics(pred.actual, pred.predicted)
        assert metrics.mse == pytest.approx(0.0, abs=1e-18)
        assert metrics.r_square == pytest.approx(1.0, abs=1e-12)

    def test_empty_split_rejected(self):
        ds = tiny_dataset(n=50, window=6)
        model = build(tiny_spec(window=6, n_features=ds.n_features))
        from fastforecast.data import SplitRanges
        ds.split = SplitRanges(range(0, len(ds.windows)),
                               range(len(ds.windows), len(ds.windows)),
                               range(len(ds.windows), len(ds.windows)))
        with pytest.raises(DataError):
            predict_series(model, ds, "test")


def roundtrip_specs():
    specs = {name: tiny_spec(variant=name) for name in VARIANTS}
    performer = specs["performer"]
    specs["performer_causal"] = dataclasses.replace(
        performer, favor=dataclasses.replace(performer.favor, causal=True))
    specs["performer_redraw"] = dataclasses.replace(
        performer, favor=dataclasses.replace(performer.favor, redraw_interval=3))
    return specs


class TestCheckpoint:
    @pytest.mark.parametrize("spec", roundtrip_specs().values(), ids=roundtrip_specs())
    def test_spec_and_checkpoint_roundtrip(self, spec, tmp_path):
        assert ModelSpec.from_dict(spec.to_dict()) == spec
        model = build(spec)
        model.set_favor_generation(2)
        norm = tiny_dataset().norm
        first, second = tmp_path / "a.ffck", tmp_path / "b.ffck"
        save_checkpoint(model, norm, first)
        loaded, loaded_norm = load_checkpoint(first)
        assert loaded.spec == spec and loaded.favor_generation == 2
        save_checkpoint(loaded, loaded_norm, second)
        assert first.read_bytes() == second.read_bytes()

    def test_bit_exact_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        model = build(tiny_spec(n_features=ds.n_features, dropout=0.1))
        train(model, ds, TrainHyperparams(epochs=1, batch=8, lr=1e-3))
        path = tmp_path / "model.ffck"
        save_checkpoint(model, ds.norm, path)
        loaded, norm = load_checkpoint(path)
        assert loaded.spec == model.spec
        for name in model.params:
            assert np.array_equal(model.params[name].data, loaded.params[name].data)
        np.testing.assert_array_equal(norm.mean, ds.norm.mean)
        np.testing.assert_array_equal(norm.std, ds.norm.std)
        # and the reloaded model predicts identically
        w = ds.windows[0]
        assert model.forward_batch(w[None]).item() == loaded.forward_batch(w[None]).item()

    def test_save_is_byte_stable(self, tmp_path):
        ds = tiny_dataset()
        model = build(tiny_spec(n_features=ds.n_features))
        p1, p2 = tmp_path / "a.ffck", tmp_path / "b.ffck"
        save_checkpoint(model, ds.norm, p1)
        save_checkpoint(model, ds.norm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_the_old_checkpoint(self, tmp_path):
        """A write that fails midway keeps the earlier file byte-identical
        and leaves no temporary file; a later good save writes the same bytes."""
        ds = tiny_dataset()
        model = build(tiny_spec(n_features=ds.n_features))
        path = tmp_path / "model.ffck"
        save_checkpoint(model, ds.norm, path)
        before = path.read_bytes()

        class FailingWrite(np.ndarray):
            def astype(self, *args, **kwargs):
                raise OSError("no space left on device")

        last = model.params[list(model.params)[-1]]
        good = last.data
        last.data = good.view(FailingWrite)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(model, ds.norm, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ffck"]
        last.data = good
        save_checkpoint(model, ds.norm, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ffck"]

    @pytest.mark.parametrize("field,value", [("seed", True), ("seed", 1.0),
                                             ("version", True), ("version", 1.0)])
    def test_header_copy_equal_only_in_value_rejected(self, tmp_path, field, value):
        """The header's ``seed`` and ``version`` must be ints, not merely equal
        to spec.seed and the binary version (both 1 here)."""
        from test_cli import edit_header
        ds = tiny_dataset()
        path = tmp_path / "model.ffck"
        save_checkpoint(build(tiny_spec(n_features=ds.n_features, seed=1)), ds.norm, path)
        load_checkpoint(path)
        path.write_bytes(edit_header(path.read_bytes(), lambda h: h.update({field: value})))
        with pytest.raises(ConfigError, match=f"header {field}"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ffck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            load_checkpoint(path)


class TestEndToEndGradient:
    def test_tiny_model_gradients_match_finite_differences(self, rng):
        """Analytic gradient of every parameter of the tiny spec matches
        central differences at 1e-4 relative (h = 1e-5)."""
        from fastforecast.tensor import GradTape
        from fastforecast.model import _batch_loss
        from conftest import rel_err

        spec = tiny_spec(variant="performer_bilstm", window=8, n_features=8,
                         heads=2, r=16, bilstm_hidden=4, dropout=0.0, seed=3)
        model = build(spec)
        windows = rng.standard_normal((2, 8, 8)) * 0.5
        targets = rng.standard_normal(2)

        with GradTape() as tape:
            for p in model.params.values():
                tape.watch(p)
            loss = _batch_loss(model, windows, targets, None)
        tape.backward(loss)

        def loss_fn():
            return _batch_loss(model, windows, targets, None).item()

        worst = 0.0
        h = 1e-5
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_fn()
                flat[i] = orig - h
                fm = loss_fn()
                flat[i] = orig
                numeric[i] = (fp - fm) / (2 * h)
            err = rel_err(p.grad.reshape(-1), numeric)
            worst = max(worst, err)
            assert err <= 1e-4, f"{name}: rel err {err:.2e}"

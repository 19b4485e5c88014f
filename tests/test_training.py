"""Training-loop tests: Adam against a scalar reference, warmup and bank
bookkeeping, determinism, checkpoint round trips, resume equivalence."""

import gc
import math
import struct
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from eegfs.bank import GradientBank, NonFiniteGradientError
from eegfs.data import CorpusSpec, ParseError, generate, split
from eegfs.encoder import Encoder, EncoderConfig
from eegfs.selection import FeatureSelector
from eegfs.training import (
    AdamMoments,
    Checkpoint,
    DivergenceError,
    TrainConfig,
    adam_step,
    adam_update,
    evaluate,
    load,
    predict,
    restore_model,
    save,
    train,
    write_metrics_csv,
)
from eegfs import autodiff as ad
from eegfs import training
from eegfs.autodiff import Tape, Tensor, ValidationError, backward, cross_entropy_logits
from eegfs.metrics import report
from _oracles import adam_scalar_reference


def _tiny_encoder(**kw):
    defaults = dict(in_channels=4, clip_len=80, blocks=((4, 5, 1, 2), (4, 3, 1, 2)),
                    insertion_layer=0)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def _tiny_config(**kw):
    defaults = dict(epochs=2, batch_size=16, seed=11, bank_size=2,
                    encoder=_tiny_encoder())
    defaults.update(kw)
    return TrainConfig(**defaults)


def _tiny_corpus(n=64, seed=5):
    spec = CorpusSpec(n_clips=n, channels=4, timestamps=80, n_groups=8, seed=seed)
    return generate(spec)


@pytest.fixture(scope="module")
def tiny_splits():
    d = _tiny_corpus()
    return split(d, (0.5, 0.25, 0.25), by_group=True, seed=1)


@pytest.fixture(scope="module")
def one_epoch(tiny_splits):
    """Final checkpoint of a 1-epoch run whose bank holds 3 entries."""
    tr, va, _ = tiny_splits
    return train(_tiny_config(epochs=1, batch_size=8, bank_size=2), tr, va).final


class TestAdam:
    def test_zero_gradient_no_decay_is_identity(self):
        theta = np.array([1.0, -2.0])
        new, m, v = adam_update(theta, np.zeros(2), np.zeros(2), np.zeros(2),
                                t=1, lr=1e-3, weight_decay=0.0,
                                beta1=0.9, beta2=0.999, eps=1e-8)
        np.testing.assert_array_equal(new, theta)

    def test_first_step_magnitude_is_lr(self):
        new, _, _ = adam_update(np.array([0.0]), np.array([1.0]),
                                np.zeros(1), np.zeros(1), t=1, lr=1e-4,
                                weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
        # bias correction cancels at t=1: update = lr / (1 + eps)
        assert abs(-new[0] - 1e-4 / (1 + 1e-8)) < 1e-18

    def test_five_steps_match_scalar_reference(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(5)
        lr, wd, b1, b2, eps = 1e-2, 1e-3, 0.9, 0.999, 1e-8
        theta = np.array([0.7])
        m = np.zeros(1)
        v = np.zeros(1)
        for t, g in enumerate(grads, start=1):
            theta, m, v = adam_update(theta, np.array([g]), m, v, t, lr, wd, b1, b2, eps)
        want = adam_scalar_reference(0.7, grads, lr, wd, b1, b2, eps)
        assert abs(theta[0] - want) < 1e-12

    def test_adam_step_updates_all_params(self):
        params = {"a": Tensor(np.ones(3), requires_grad=True),
                  "b": Tensor(np.full((2, 2), 2.0), requires_grad=True)}
        moments = AdamMoments.zeros_like(params)
        grads = {"a": np.ones(3), "b": np.ones((2, 2))}
        cfg = _tiny_config()
        adam_step(params, grads, moments, cfg)
        assert moments.t == 1
        assert not np.array_equal(params["a"].data, np.ones(3))


# the settings that are constants now, at the values older checkpoints store
_RETIRED_SETTINGS = {"config/adam_beta1": 0.9, "config/adam_beta2": 0.999,
                     "config/adam_eps": 1e-8, "config/enc.bn_eps": 1e-5,
                     "config/enc.bn_momentum": 0.1}


def _check_older_file(ckpt, tiny_splits, tmp_path, extra):
    """A file holding ``ckpt``'s tensors plus the ``extra`` ones that older
    versions wrote restores, evaluates and resumes exactly as ``ckpt``."""
    tr, va, te = tiny_splits
    p = tmp_path / "old.bin"
    save(Checkpoint({**ckpt.tensors, **extra}), p)
    old = load(p)
    assert extra.keys() <= old.tensors.keys()
    assert old.config() == ckpt.config()
    for name, param in restore_model(old)[1].params.items():
        np.testing.assert_array_equal(param.data, ckpt.tensors[f"param/{name}"])
    assert evaluate(old, te) == evaluate(ckpt, te)
    cfg = replace(ckpt.config(), epochs=2)
    got, want = train(cfg, tr, va, resume=old), train(cfg, tr, va, resume=ckpt)
    assert got.final.tensors.keys() == want.final.tensors.keys()
    for name, arr in want.final.tensors.items():
        np.testing.assert_array_equal(got.final.tensors[name], arr)
    assert got.log == want.log


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [("lr", math.nan), ("weight_decay", math.nan)])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            _tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "seed", "bank_size", "top_k"])
    def test_non_integer_value_rejected(self, field):
        value = getattr(_tiny_config(), field) + 0.5
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value}"):
            _tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("field, value, kind", [
        ("fs_enabled", "no", "a bool"), ("fs_enabled", 1, "a bool"),
        ("lr", "x", "a real number"), ("momentum", None, "a real number"),
        ("decay", True, "a real number"), ("encoder", "x", "an EncoderConfig"),
        ("encoder", None, "an EncoderConfig")])
    def test_value_of_wrong_type_rejected(self, field, value, kind):
        with pytest.raises(ValidationError, match=f"{field} must be {kind}, got {value!r}"):
            _tiny_config(**{field: value}).validate()

    def test_real_field_takes_any_real_number(self):
        _tiny_config(lr=np.float32(1e-3), momentum=0, decay=np.float64(0.5),
                     weight_decay=np.int64(0)).validate()

    @pytest.mark.parametrize("field", ["bank_size", "top_k"])
    def test_bank_setting_rejected_with_selection_off(self, field):
        with pytest.raises(ValidationError, match=f"{field} 0"):
            _tiny_config(fs_enabled=False, **{field: 0}).validate()


class TestTrainLoop:
    def test_single_iteration_stays_in_warmup(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = _tiny_config(epochs=1, batch_size=64)
        result = train(cfg, tr, va)
        bank_iters = [n for n in result.final.tensors if n.endswith("/iter")]
        assert len(bank_iters) == 1            # one batch pushed
        assert "alpha/frozen" not in result.final.tensors
        assert result.alpha_trajectory_sha256 is not None

    def test_bank_holds_most_recent_iterations(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = _tiny_config(epochs=4, batch_size=8, bank_size=2)
        result = train(cfg, tr, va)
        iters = sorted(int(result.final.tensors[n].reshape(()))
                       for n in result.final.tensors if n.endswith("/iter"))
        total = 4 * 4  # 32 train clips / batch 8, 4 epochs
        assert iters == [total - 2, total - 1, total]

    def test_deterministic_runs(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = _tiny_config()
        r1 = train(cfg, tr, va)
        r2 = train(cfg, tr, va)
        assert r1.final.tensors.keys() == r2.final.tensors.keys()
        for k in r1.final.tensors:
            np.testing.assert_array_equal(r1.final.tensors[k], r2.final.tensors[k])
        assert r1.log == r2.log
        assert r1.alpha_trajectory_sha256 == r2.alpha_trajectory_sha256

    def test_no_fs_matches_hookless_build(self, tiny_splits):
        """With selection disabled the run must equal one with no hook in
        the code path at all (here: the selector is never constructed)."""
        tr, va, _ = tiny_splits
        cfg = _tiny_config(fs_enabled=False)
        r1 = train(cfg, tr, va)
        r2 = train(cfg, tr, va)
        for k in r1.final.tensors:
            np.testing.assert_array_equal(r1.final.tensors[k], r2.final.tensors[k])
        assert not any(n.startswith("bank/") for n in r1.final.tensors)
        assert r1.alpha_trajectory_sha256 is None

    def test_fs_warmup_run_equals_disabled_run_params(self, tiny_splits):
        """A run that never leaves warmup trains exactly like a disabled one."""
        tr, va, _ = tiny_splits
        cfg_on = _tiny_config(epochs=1, batch_size=64, bank_size=8)  # 1 iter < q+1
        cfg_off = _tiny_config(epochs=1, batch_size=64, bank_size=8, fs_enabled=False)
        r_on = train(cfg_on, tr, va)
        r_off = train(cfg_off, tr, va)
        for k in r_off.final.tensors:
            if k.startswith(("param/", "adam/", "state/bn.enc")):
                np.testing.assert_array_equal(r_on.final.tensors[k],
                                              r_off.final.tensors[k])
        assert [r for r in r_on.log] == [r for r in r_off.log]

    def test_partial_final_batch(self, tiny_splits):
        # 32 train clips with batch 12 -> batches of 12, 12, 8
        tr, va, _ = tiny_splits
        cfg = _tiny_config(epochs=2, batch_size=12, bank_size=2)
        result = train(cfg, tr, va)
        shapes = {result.final.tensors[n].shape[0]
                  for n in result.final.tensors
                  if n.startswith("bank/") and n.endswith("grads")}
        assert 8 in shapes  # the trailing partial batch was banked as-is
        assert "alpha/frozen" in result.final.tensors

    def test_frozen_alpha_set_once_at_end(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = _tiny_config(epochs=3, batch_size=8, bank_size=2)
        result = train(cfg, tr, va)
        resumed = train(cfg, tr, va, resume=train(replace(cfg, epochs=1), tr, va).final)
        for ckpt in (result.final, result.best, resumed.final):
            assert [n for n in ckpt.tensors if n.startswith("alpha")] == ["alpha/frozen"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_loss_reports_iteration(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = _tiny_config(lr=1e200, epochs=3, batch_size=8)
        with pytest.raises(DivergenceError) as e:
            train(cfg, tr, va)
        assert e.value.iteration >= 1

    def test_non_finite_captured_gradient_reports_iteration(self, tiny_splits,
                                                            monkeypatch):
        class PoisonedGrad:
            def __init__(self, h_l):
                self.h_l = h_l

            @property
            def grad(self):
                g = self.h_l.grad.copy()
                g[0, 0, 0] = np.nan
                return g

        real_forward = Encoder.forward

        def forward(self, x, fs=None, mode="train"):
            logits, h_l = real_forward(self, x, fs=fs, mode=mode)
            return logits, PoisonedGrad(h_l)

        monkeypatch.setattr(Encoder, "forward", forward)
        tr, va, _ = tiny_splits
        with pytest.raises(DivergenceError, match="gradient") as e:
            train(_tiny_config(), tr, va)
        assert e.value.iteration == 1
        assert isinstance(e.value.__cause__, NonFiniteGradientError)


def _model_with_full_bank(cfg):
    """Encoder, bank and selector with a bank full of random gradients, so
    the next train-mode forward runs the selection path."""
    enc = Encoder(cfg.encoder, seed=cfg.seed)
    chans, spat = cfg.encoder.feature_shape()
    bank = GradientBank(capacity=cfg.bank_size, top_k=cfg.top_k, decay=cfg.decay,
                        channels=chans, spatial=spat)
    sel = FeatureSelector(bank, cfg.momentum)
    rng = np.random.default_rng(0)
    for it in range(1, cfg.bank_size + 2):
        bank.push(it, rng.standard_normal((8, chans, spat)))
    return enc, bank, sel


class TestTapeLifetime:
    def test_step_tape_freed_without_cyclic_gc(self, tiny_splits):
        """A training step's tape is freed by reference counting alone once
        the step's locals are dropped: tensors refer to their tape weakly."""
        tr, _, _ = tiny_splits
        cfg = _tiny_config()
        enc, bank, sel = _model_with_full_bank(cfg)
        x = Tensor(np.stack([c.data for c in tr.clips[:8]]))
        y = np.array([c.label for c in tr.clips[:8]])
        moments = AdamMoments.zeros_like(enc.params)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            with tape:
                logits, h_l = enc.forward(x, fs=sel, mode="train")
                loss = cross_entropy_logits(logits, y)
            backward(loss, tape)
            bank.push(cfg.bank_size + 2, h_l.grad)
            adam_step(enc.params, {k: p.grad for k, p in enc.params.items()}, moments, cfg)
            assert sel.alpha is not None  # the selection path ran on the tape
            assert x.tape is tape
            tape_ref = weakref.ref(tape)
            del tape, logits, h_l, loss
            assert tape_ref() is None
            assert x.tape is None
            assert all(p.tape is None for p in enc.params.values())
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("fs_enabled", [True, False])
    def test_last_step_tape_freed_before_validation(self, tiny_splits, monkeypatch, fs_enabled):
        """No training tape outlives its step: when validation starts, every
        tape ``train`` created has been freed, by reference counting alone."""
        tr, va, _ = tiny_splits
        refs = []
        alive_at_eval = []

        class RecordedTape(Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        run_eval = training._run_eval

        def checked_eval(*args, **kwargs):
            alive_at_eval.append(sum(r() is not None for r in refs))
            return run_eval(*args, **kwargs)

        monkeypatch.setattr(ad, "Tape", RecordedTape)
        monkeypatch.setattr(training, "_run_eval", checked_eval)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train(_tiny_config(fs_enabled=fs_enabled), tr, va)
        finally:
            if was_enabled:
                gc.enable()
        assert refs and alive_at_eval == [0, 0]


class TestTapeResiduals:
    """The tape keeps only what backward reads, and backward frees interior
    gradients as it goes (default encoder, batch 64, no selector)."""

    @staticmethod
    def _named_residual_bytes(cfg, batch):
        """Bytes of each block's x_hat and ReLU mask, the captured map, the
        head input and the batch itself; no conv1d column matrix."""
        total = batch * cfg.in_channels * cfg.clip_len * 8
        t = cfg.clip_len
        for i, (c_out, k, stride, pool) in enumerate(cfg.blocks):
            t_conv = (t - k) // stride + 1
            total += batch * t_conv * (c_out * 8 + c_out)
            t = t_conv // pool
            if i == cfg.insertion_layer:
                total += batch * c_out * t * 8
        return total + batch * cfg.flat_features() * 8

    @staticmethod
    def _taped_forward(enc, batch):
        x = Tensor(np.random.default_rng(3).standard_normal(
            (batch, enc.config.in_channels, enc.config.clip_len)))
        tape = Tape()
        with tape:
            logits, h_l = enc.forward(x, mode="train")
            loss = cross_entropy_logits(logits, np.arange(batch) % 2)
        return tape, loss, h_l

    def _traced_step(self):
        """Bytes traced after a batch-64 taped forward, and the traced peak
        during its backward."""
        enc = Encoder(EncoderConfig(), seed=0)
        tracemalloc.start()
        try:
            tape, loss, h_l = self._taped_forward(enc, 64)
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h_l.grad.shape == h_l.shape
        return enc.config, retained, peak

    def test_forward_retains_only_named_residuals(self):
        cfg, retained, _ = self._traced_step()
        assert retained <= 1.05 * self._named_residual_bytes(cfg, 64)

    def test_backward_peak_is_bounded(self):
        assert self._traced_step()[2] <= 62e6

    def test_batchnorm_output_dies_with_forward(self, monkeypatch):
        outputs, original = [], ad.batchnorm

        def batchnorm(*args, **kwargs):
            out = original(*args, **kwargs)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ad, "batchnorm", batchnorm)
        tape, loss, _ = self._taped_forward(Encoder(EncoderConfig(), seed=0), 8)
        assert len(outputs) == 2
        assert outputs[0]() is None  # block 0's output; the tape and loss are still held

    def test_two_sweeps_with_armed_selector_identical(self, tiny_splits):
        clips = tiny_splits[0].clips[:8]
        enc, _, sel = _model_with_full_bank(_tiny_config())
        tape = Tape()
        with tape:
            logits, h_l = enc.forward(Tensor(np.stack([c.data for c in clips])), fs=sel,
                                      mode="train")
            loss = cross_entropy_logits(logits, [c.label for c in clips])
        assert sel.alpha is not None
        backward(loss, tape)
        first = {k: p.grad for k, p in enc.params.items()}, h_l.grad
        backward(loss, tape)
        for name, g in first[0].items():
            np.testing.assert_array_equal(enc.params[name].grad, g)
        np.testing.assert_array_equal(h_l.grad, first[1])


class TestGradientPruning:
    @staticmethod
    def _step(clips, x_requires_grad):
        """One train-mode step with the selection path live; returns the
        parameter grads, the captured feature-map grad and the input."""
        enc, _, sel = _model_with_full_bank(_tiny_config())
        x = Tensor(np.stack([c.data for c in clips]), requires_grad=x_requires_grad)
        tape = Tape()
        with tape:
            logits, h_l = enc.forward(x, fs=sel, mode="train")
            loss = cross_entropy_logits(logits, [c.label for c in clips])
        backward(loss, tape)
        assert sel.alpha is not None
        return {k: p.grad for k, p in enc.params.items()}, h_l.grad, x

    def test_input_gradient_does_not_change_other_gradients(self, tiny_splits):
        clips = tiny_splits[0].clips[:8]
        pruned, h_pruned, x_pruned = self._step(clips, False)
        full, h_full, x_full = self._step(clips, True)
        assert x_pruned.grad is None
        assert x_full.grad.shape == x_full.shape and np.abs(x_full.grad).max() > 0
        np.testing.assert_array_equal(h_pruned, h_full)
        assert sorted(pruned) == sorted(full)
        for name in full:
            np.testing.assert_array_equal(pruned[name], full[name])


class TestEvaluate:
    def test_evaluate_twice_identical(self, tiny_splits):
        tr, va, te = tiny_splits
        result = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va)
        r1 = evaluate(result.final, te)
        r2 = evaluate(result.final, te)
        assert r1 == r2

    def test_missing_frozen_alpha_rejected(self, tiny_splits):
        tr, va, te = tiny_splits
        cfg = _tiny_config(epochs=1, batch_size=64)  # stays in warmup
        result = train(cfg, tr, va)
        assert result.final.frozen_alpha is None
        with pytest.raises(ValidationError):
            evaluate(result.final, te)

    def test_evaluate_reports_predict_scores(self, tiny_splits):
        tr, va, te = tiny_splits
        ckpt = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va).final
        probs, labels, loss = predict(ckpt, te, batch_size=8)
        assert labels.tolist() == [c.label for c in te.clips]
        assert all(0.0 <= p <= 1.0 for p in probs) and np.isfinite(loss)
        assert report(probs, labels) == evaluate(ckpt, te)

    def test_dataset_of_another_shape_rejected(self, tiny_splits):
        tr, va, _ = tiny_splits
        ckpt = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va).final
        narrow = generate(CorpusSpec(n_clips=8, channels=2, timestamps=80, n_groups=2,
                                     spike_channel_span=2))
        for fn in (predict, evaluate):
            with pytest.raises(ValidationError, match=r"dataset shape \(2, 80\)"):
                fn(ckpt, narrow)
        with pytest.raises(ValidationError, match=r"dataset shape \(2, 80\)"):
            train(_tiny_config(), tr, narrow)

    def test_empty_dataset_rejected(self, one_epoch, tiny_splits):
        empty = replace(tiny_splits[2], clips=[])
        for fn in (predict, evaluate):
            with pytest.raises(ValidationError, match="non-empty"):
                fn(one_epoch, empty)

    @pytest.mark.parametrize("fn", [predict, evaluate])
    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_bad_batch_size_rejected(self, one_epoch, tiny_splits, fn, batch_size):
        with pytest.raises(ValidationError, match="batch_size must be an integer >= 1"):
            fn(one_epoch, tiny_splits[2], batch_size=batch_size)

    def test_single_class_dataset_handled(self, tiny_splits):
        tr, va, te = tiny_splits
        result = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va)
        import copy
        ones = copy.copy(te)
        ones.clips = [c for c in te.clips if c.label == 1]
        r = evaluate(result.final, ones)
        assert r.auroc is None
        assert 0.0 <= r.recall <= 1.0


class TestResidentData:
    def test_float32_corpus_trains_as_its_float64_widening(self, tiny_splits, tmp_path):
        def widened(ds):
            return replace(ds, clips=[replace(c, data=c.data.astype(np.float64))
                                      for c in ds.clips])

        tr, va, te = tiny_splits
        cfg = _tiny_config(epochs=2, batch_size=8, bank_size=2)
        r32 = train(cfg, tr, va)
        r64 = train(cfg, widened(tr), widened(va))
        for name in ("final", "best"):
            save(getattr(r32, name), tmp_path / "a.bin")
            save(getattr(r64, name), tmp_path / "b.bin")
            assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert r32.alpha_trajectory_sha256 == r64.alpha_trajectory_sha256
        for got, want in zip(predict(r32.final, te), predict(r64.final, widened(te))):
            np.testing.assert_array_equal(got, want)

    def test_checkpoints_share_read_only_bank_entries(self, tiny_splits, tmp_path):
        tr, va, _ = tiny_splits
        cfg = _tiny_config(epochs=4, batch_size=8, bank_size=2)
        result = train(cfg, tr, va)
        for ckpt in (result.final, result.best):
            names = [n for n in ckpt.tensors if n.startswith("bank/") and n.endswith("/grads")]
            assert len(names) == 3
            for n in names:
                with pytest.raises(ValueError, match="read-only"):
                    ckpt.tensors[n][0, 0, 0] = 1.0
        # the best checkpoint saves what a run stopped at its epoch saves
        stopped = train(replace(cfg, epochs=result.best_epoch), tr, va).final
        stopped.tensors["config/epochs"] = result.best.tensors["config/epochs"]
        save(result.best, tmp_path / "best.bin")
        save(stopped, tmp_path / "stopped.bin")
        assert (tmp_path / "best.bin").read_bytes() == (tmp_path / "stopped.bin").read_bytes()
        # resuming banks the checkpoint's arrays; later pushes leave it as saved
        first = train(replace(cfg, epochs=2), tr, va).final
        save(first, tmp_path / "before.bin")
        train(cfg, tr, va, resume=first)
        save(first, tmp_path / "after.bin")
        assert (tmp_path / "before.bin").read_bytes() == (tmp_path / "after.bin").read_bytes()


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, tiny_splits, tmp_path):
        tr, va, _ = tiny_splits
        result = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va)
        p1 = tmp_path / "ck.bin"
        save(result.final, p1)
        loaded = load(p1)
        p2 = tmp_path / "ck2.bin"
        save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for k in result.final.tensors:
            np.testing.assert_array_equal(loaded.tensors[k], result.final.tensors[k])

    def test_round_trip_keeps_every_shape(self, tiny_splits, tmp_path):
        tr, va, _ = tiny_splits
        result = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va)
        p = tmp_path / "ck.bin"
        save(result.final, p)
        loaded = load(p)
        assert ({k: v.shape for k, v in loaded.tensors.items()}
                == {k: np.shape(v) for k, v in result.final.tensors.items()})
        assert loaded.tensors["adam/t"].shape == ()

    def test_rank_one_scalars_still_load(self, tiny_splits, tmp_path):
        # older files stored every scalar with shape (1,)
        tr, va, te = tiny_splits
        cfg = _tiny_config(epochs=2, batch_size=8, bank_size=2)
        result = train(cfg, tr, va)
        old = Checkpoint({k: v.reshape(1) if np.ndim(v) == 0 else v
                          for k, v in result.final.tensors.items()})
        p = tmp_path / "old.bin"
        save(old, p)
        loaded = load(p)
        assert loaded.tensors["adam/t"].shape == (1,)
        assert loaded.config() == cfg
        assert loaded.epoch == result.final.epoch
        assert evaluate(loaded, te) == evaluate(result.final, te)

    def test_config_echo_round_trip(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = _tiny_config(epochs=2, batch_size=8, bank_size=2, momentum=0.35)
        result = train(cfg, tr, va)
        assert result.final.config() == cfg

    def test_every_config_field_round_trips(self, tiny_splits, tmp_path):
        tr, va, _ = tiny_splits
        enc = EncoderConfig(in_channels=4, clip_len=80, blocks=((4, 5, 1, 2), (6, 3, 1, 1)),
                            insertion_layer=1, activation="sigmoid")
        cfg = TrainConfig(epochs=1, batch_size=16, lr=3e-4, weight_decay=2e-4, seed=11,
                          bank_size=3, top_k=2, momentum=0.35, decay=0.5,
                          fs_enabled=False, encoder=enc)
        for obj in (cfg, enc):
            for f in fields(obj):
                if f.name != "encoder":
                    assert getattr(obj, f.name) != f.default, f.name
        ckpt = train(cfg, tr, va).final
        assert sorted(n for n in ckpt.tensors if n.startswith("config/")) == [
            "config/bank_size", "config/batch_size", "config/decay",
            "config/enc.activation", "config/enc.blocks",
            "config/enc.clip_len", "config/enc.in_channels",
            "config/enc.insertion_layer", "config/epochs",
            "config/fs_enabled", "config/lr", "config/momentum", "config/seed",
            "config/top_k", "config/weight_decay"]
        assert ckpt.tensors["config/enc.activation"] == 1.0  # sigmoid
        p = tmp_path / "ck.bin"
        save(ckpt, p)
        assert load(p).config() == cfg

    def test_missing_tensor_named(self, tiny_splits):
        tr, va, te = tiny_splits
        ckpt = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va).final
        for name in ("config/lr", "config/enc.blocks", "param/head.w",
                     "state/bn.enc.0.mean", "state/bn.fs.var",
                     "bank/0001/iter", "bank/0001/grads"):
            partial = Checkpoint({k: v for k, v in ckpt.tensors.items() if k != name})
            with pytest.raises(ValidationError, match=f"lacks tensor '{name}'"):
                evaluate(partial, te)

    def test_invalid_utf8_name_rejected(self, tiny_splits, tmp_path):
        tr, va, _ = tiny_splits
        result = train(_tiny_config(epochs=1, batch_size=16), tr, va)
        p = tmp_path / "ck.bin"
        save(result.final, p)
        raw = bytearray(p.read_bytes())
        at = raw.index(b"config/lr")
        raw[at + 3] = 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="UTF-8") as e:
            load(p)
        assert e.value.offset == at

    @pytest.mark.parametrize("tensors, expected", [
        ({"x" * 70000: np.zeros(1)}, "name_length 70000"),
        ({"a": np.zeros(1), "s": np.array(["s"])}, "checkpoint tensor 's'"),
        ({"a": np.zeros(1), "n": None}, "checkpoint tensor 'n'"),
        ({"c": np.array([1 + 2j]), "z": np.zeros(1)}, "checkpoint tensor 'c'")],
        ids=["name_too_long", "not_numeric", "none", "complex"])
    def test_unsavable_tensor_leaves_file_intact(self, tmp_path, tensors, expected):
        p = tmp_path / "ck.bin"
        p.write_bytes(bytes(range(200)) * 5)
        with pytest.raises(ValidationError, match=expected):
            save(Checkpoint(tensors), p)
        assert p.read_bytes() == bytes(range(200)) * 5

    def test_overflowing_dims_rejected(self, tmp_path):
        # (2**32 - 1)**2 elements wraps to a negative int64 byte count
        p = tmp_path / "ck.bin"
        p.write_bytes(b"IEFS" + struct.pack("<HIH", 1, 1, 1) + b"x"
                      + struct.pack("<BB2I", 1, 2, 2**32 - 1, 2**32 - 1) + bytes(64))
        with pytest.raises(ParseError, match="truncated while reading x payload") as e:
            load(p)
        assert e.value.offset == 23

    def test_empty_tensor_with_unindexable_dims_rejected(self, tmp_path):
        # zero elements, but numpy cannot shape an array of these dims
        p = tmp_path / "ck.bin"
        p.write_bytes(b"IEFS" + struct.pack("<HIH", 1, 1, 1) + b"x"
                      + struct.pack("<BB3I", 1, 3, 0, 2**32 - 1, 2**32 - 1))
        with pytest.raises(ParseError, match="exceed numpy's array size") as e:
            load(p)
        assert e.value.offset == 15

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # a 10-byte file header, then two 17-byte records both named "a"
        record = struct.pack("<H", 1) + b"a" + struct.pack("<BBI", 1, 1, 1) + bytes(8)
        p = tmp_path / "ck.bin"
        p.write_bytes(b"IEFS" + struct.pack("<HI", 1, 2) + record + record)
        with pytest.raises(ParseError, match="tensor 1 name 'a' repeats") as e:
            load(p)
        assert e.value.offset == 10 + 17 + 2

    def test_truncated_file_rejected(self, tiny_splits, tmp_path):
        tr, va, _ = tiny_splits
        result = train(_tiny_config(epochs=1, batch_size=16), tr, va)
        p = tmp_path / "ck.bin"
        save(result.final, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ParseError, match="truncated"):
            load(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "ck.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError, match="bad magic") as e:
            load(p)
        assert e.value.offset == 0

    def test_restore_model_reproduces_eval(self, tiny_splits, tmp_path):
        tr, va, te = tiny_splits
        result = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va)
        p = tmp_path / "ck.bin"
        save(result.final, p)
        assert evaluate(load(p), te) == evaluate(result.final, te)

    def test_file_with_duplicate_alpha_still_restores(self, one_epoch, tiny_splits, tmp_path):
        # older files also stored alpha as "alpha/current", a copy of "alpha/frozen"
        te = tiny_splits[2]
        alpha = one_epoch.tensors["alpha/frozen"]
        p = tmp_path / "old.bin"
        save(Checkpoint({**one_epoch.tensors, "alpha/current": alpha.copy()}), p)
        old = load(p)
        assert "alpha/current" in old.tensors
        np.testing.assert_array_equal(restore_model(old)[2].alpha,
                                      restore_model(one_epoch)[2].alpha)
        assert evaluate(old, te) == evaluate(one_epoch, te)

    def test_file_with_num_classes_restores_evaluates_and_resumes(self, one_epoch,
                                                                  tiny_splits, tmp_path):
        # older files also stored the head width as "config/enc.num_classes"
        _check_older_file(one_epoch, tiny_splits, tmp_path,
                          {"config/enc.num_classes": np.asarray(2.0)})

    def test_file_with_retired_settings_restores_evaluates_and_resumes(self, one_epoch,
                                                                       tiny_splits, tmp_path):
        _check_older_file(one_epoch, tiny_splits, tmp_path,
                          {name: np.asarray(v) for name, v in _RETIRED_SETTINGS.items()})

    @pytest.mark.parametrize("name", sorted(_RETIRED_SETTINGS))
    def test_retired_setting_of_another_value_rejected(self, one_epoch, tiny_splits, name):
        tr, va, te = tiny_splits
        ckpt = Checkpoint({**one_epoch.tensors, name: np.asarray(0.8)})
        cfg = replace(one_epoch.config(), epochs=2)
        for fn in (restore_model, lambda c: evaluate(c, te),
                   lambda c: train(cfg, tr, va, resume=c)):
            with pytest.raises(ValidationError, match=f"'{name}' holds 0.8"):
                fn(ckpt)

    def test_three_class_head_rejected(self, one_epoch, tiny_splits):
        width = one_epoch.tensors["param/head.w"].shape[0]
        ckpt = Checkpoint({**one_epoch.tensors, "config/enc.num_classes": np.asarray(3.0),
                           "param/head.w": np.zeros((width, 3)), "param/head.b": np.zeros(3)})
        for fn in (restore_model, lambda c: evaluate(c, tiny_splits[2])):
            with pytest.raises(ValidationError, match="'param/head.w'"):
                fn(ckpt)

    def test_restore_model_banks_the_loaded_arrays_without_a_copy(self, tiny_splits):
        tr, va, _ = tiny_splits
        ckpt = train(_tiny_config(epochs=1, batch_size=8, bank_size=2), tr, va).final
        _, _, sel = restore_model(ckpt)
        names = sorted(n for n in ckpt.tensors if n.startswith("bank/") and n.endswith("/grads"))
        assert len(names) == len(sel.bank.entries) == 3
        assert all(g is ckpt.tensors[n] for (_, g), n in zip(sel.bank.entries, names))

    def test_restore_model_banks_every_entry_through_push(self, one_epoch, monkeypatch):
        pushed = []
        real_push = GradientBank.push

        def push(bank, iteration, grads):
            pushed.append(iteration)
            real_push(bank, iteration, grads)

        monkeypatch.setattr(GradientBank, "push", push)
        _, _, sel = restore_model(one_epoch)
        stored = [one_epoch.counter(n) for n in sorted(one_epoch.tensors)
                  if n.startswith("bank/") and n.endswith("/iter")]
        assert len(stored) == 3
        assert pushed == stored == [it for it, _ in sel.bank.entries]

    def test_nan_bank_iteration_rejected(self, one_epoch):
        with pytest.raises(ValidationError, match="bank/0001/iter"):
            restore_model(Checkpoint({**one_epoch.tensors, "bank/0001/iter": np.asarray(np.nan)}))

    @pytest.mark.parametrize("name, field, error", [
        ("config/enc.bn_momentum", "bn_momentum", ValidationError),
        ("config/adam_beta2", "adam_beta2", ValidationError),
        ("config/momentum", "momentum", ValidationError)])
    def test_out_of_range_setting_rejected(self, one_epoch, name, field, error):
        with pytest.raises(error, match=field):
            restore_model(Checkpoint({**one_epoch.tensors, name: np.asarray(5.0)}))

    def test_bank_of_10001_entries_restores_in_iteration_order(self):
        # the writer numbers entries bank/0000 .. bank/10000; "bank/10000"
        # sorts before "bank/1000", so names must not be read in sorted order
        enc_cfg = EncoderConfig(in_channels=2, clip_len=20, blocks=((2, 3, 1, 2), (3, 3, 1, 2)))
        cfg = TrainConfig(encoder=enc_cfg, bank_size=10000)
        enc = Encoder(enc_cfg, seed=cfg.seed)
        sel = training._make_selector(cfg)
        shape = (1, *enc_cfg.feature_shape())
        for it in range(1, 10002):
            sel.bank.push(it, np.full(shape, float(it)))
        ckpt = training._build_checkpoint(cfg, enc, sel, AdamMoments.zeros_like(enc.params),
                                          epoch=1, iteration=10001)
        _, _, restored = restore_model(ckpt)
        assert [it for it, _ in restored.bank.entries] == list(range(1, 10002))
        assert all(g[0, 0, 0] == it for it, g in restored.bank.entries)

    def test_repeated_bank_iteration_rejected(self, one_epoch):
        tensors = {**one_epoch.tensors, "bank/0001/iter": one_epoch.tensors["bank/0000/iter"]}
        with pytest.raises(ValidationError, match="bank"):
            restore_model(Checkpoint(tensors))


class TestResume:
    @pytest.mark.parametrize("fs_enabled", [True, False])
    def test_resume_equals_uninterrupted(self, tiny_splits, tmp_path, fs_enabled):
        tr, va, _ = tiny_splits
        cfg10 = _tiny_config(epochs=10, batch_size=8, bank_size=2, fs_enabled=fs_enabled)
        full = train(cfg10, tr, va)

        cfg5 = replace(cfg10, epochs=5)
        first = train(cfg5, tr, va)
        p = tmp_path / "mid.bin"
        save(first.final, p)
        resumed = train(cfg10, tr, va, resume=load(p))

        for k in full.final.tensors:
            np.testing.assert_array_equal(full.final.tensors[k],
                                          resumed.final.tensors[k])
        tail = [r for r in full.log if r.epoch > 5]
        assert resumed.log == tail

    def test_resume_config_mismatch_rejected(self, tiny_splits):
        tr, va, _ = tiny_splits
        first = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va)
        bad = _tiny_config(epochs=4, batch_size=8, bank_size=2, lr=5e-4)
        with pytest.raises(ValidationError):
            train(bad, tr, va, resume=first.final)

    @pytest.mark.parametrize("name", ["adam/t", "state/epoch", "state/iteration"])
    def test_nan_counter_rejected(self, tiny_splits, one_epoch, name):
        tr, va, _ = tiny_splits
        ckpt = Checkpoint({**one_epoch.tensors, name: np.asarray(np.nan)})
        with pytest.raises(ValidationError, match=name):
            train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va, resume=ckpt)

    @pytest.mark.parametrize("name, value", [("adam/m/head.b", np.zeros(1)),
                                             ("adam/v/head.b", np.asarray(0.0))])
    def test_wrong_shaped_adam_moment_rejected(self, tiny_splits, one_epoch, name, value):
        tr, va, _ = tiny_splits
        ckpt = Checkpoint({**one_epoch.tensors, name: value})
        with pytest.raises(ValidationError, match=name):
            train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va, resume=ckpt)

    def test_resume_past_budget_rejected(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = _tiny_config(epochs=2, batch_size=8, bank_size=2)
        first = train(cfg, tr, va)
        with pytest.raises(Exception, match="resume"):
            train(cfg, tr, va, resume=first.final)


class TestMetricsCsv:
    def test_format(self, tiny_splits, tmp_path):
        tr, va, _ = tiny_splits
        result = train(_tiny_config(epochs=2, batch_size=8, bank_size=2), tr, va)
        p = tmp_path / "metrics.csv"
        write_metrics_csv(result.log, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "epoch,split,loss,acc,precision,recall,f1,auroc"
        assert len(lines) == 1 + 2 * 2  # train+val per epoch
        fields = lines[1].split(",")
        assert fields[0] == "1" and fields[1] == "train"
        assert all("." in f and len(f.split(".")[1]) == 6 for f in fields[2:7])

"""Encoder tests: construction determinism, shape arithmetic, hook
semantics, and gradient capture fidelity."""

from dataclasses import replace

import numpy as np
import pytest

from eegfs.autodiff import Tape, Tensor, ValidationError, backward, cross_entropy_logits
from eegfs.bank import GradientBank
from eegfs.encoder import Encoder, EncoderConfig
from eegfs.selection import FeatureSelector


def _tiny_config(**kw):
    defaults = dict(in_channels=3, clip_len=20,
                    blocks=((4, 3, 1, 2), (6, 3, 1, 2)), insertion_layer=0)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def _armed_selector(cfg, rng, entries=3, q=2, b=2):
    chans, spat = cfg.feature_shape()
    bank = GradientBank(capacity=q, top_k=1, decay=0.5, channels=chans, spatial=spat)
    sel = FeatureSelector(bank, 0.2, activation=cfg.activation)
    for j in range(1, entries + 1):
        bank.push(j, rng.standard_normal((b, chans, spat)))
    return sel


class TestConfig:
    def test_default_temporal_arithmetic(self):
        cfg = EncoderConfig()
        assert cfg.temporal_lengths() == [122, 59]
        assert replace(cfg, insertion_layer=1).feature_shape() == (64, 59)
        assert cfg.flat_features() == 64 * 59

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValidationError):
            EncoderConfig(blocks=()).validate()

    def test_temporal_underflow_names_block(self):
        cfg = EncoderConfig(in_channels=2, clip_len=10,
                            blocks=((4, 3, 1, 2), (4, 7, 1, 2)))
        with pytest.raises(ValidationError, match="block 1"):
            cfg.validate()

    def test_single_channel_block_rejected(self):
        with pytest.raises(ValidationError, match="out_channels"):
            EncoderConfig(blocks=((1, 3, 1, 1),)).validate()

    @pytest.mark.parametrize("field", ["in_channels", "clip_len", "insertion_layer"])
    def test_non_integer_value_rejected(self, field):
        value = getattr(EncoderConfig(), field) + 0.5
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value}"):
            EncoderConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value, kind", [
        ("activation", 1, "a str"), ("activation", None, "a str")])
    def test_value_of_wrong_type_rejected(self, field, value, kind):
        with pytest.raises(ValidationError, match=f"{field} must be {kind}, got {value!r}"):
            EncoderConfig(**{field: value}).validate()

    @pytest.mark.parametrize("blocks, match", [
        (((32, 7.5, 1, 2), (64, 5, 1, 2)), "block 0: kernel_len must be an integer, got 7.5"),
        (((32, 7, 1), (64, 5, 1, 2)), r"block 0: need .*, got \(32, 7, 1\)"),
        (((32, 7, 1, 2), (64, 5, True, 2)), "block 1: stride must be an integer, got True"),
        (5, "blocks must be a non-empty sequence, got 5"),
        ((5,), r"block 0: need .*, got 5"),
    ], ids=["float_kernel", "three_entries", "bool_stride", "int_blocks", "int_block"])
    def test_malformed_block_rejected(self, blocks, match):
        with pytest.raises(ValidationError, match=match):
            Encoder(EncoderConfig(blocks=blocks), seed=0)

    def test_stride_product(self):
        cfg = EncoderConfig(blocks=((4, 3, 2, 2), (6, 3, 1, 3)), clip_len=64)
        assert cfg.stride_product() == 4
        assert replace(cfg, insertion_layer=1).stride_product() == 12


class TestBuild:
    def test_same_seed_bit_identical(self):
        cfg = _tiny_config()
        e1, e2 = Encoder(cfg, 42), Encoder(cfg, 42)
        assert e1.params.keys() == e2.params.keys()
        for k in e1.params:
            np.testing.assert_array_equal(e1.params[k].data, e2.params[k].data)

    def test_different_seed_differs(self):
        cfg = _tiny_config()
        e1, e2 = Encoder(cfg, 1), Encoder(cfg, 2)
        assert not np.array_equal(e1.params["block0.conv.w"].data,
                                  e2.params["block0.conv.w"].data)

    def test_kaiming_bound(self):
        cfg = _tiny_config()
        enc = Encoder(cfg, 0)
        w = enc.params["block0.conv.w"].data
        assert np.abs(w).max() <= np.sqrt(6.0 / (3 * 3))

    def test_parameter_set_complete(self):
        enc = Encoder(_tiny_config(), 0)
        assert set(enc.params) == {
            "block0.conv.w", "block0.bn.gamma", "block0.bn.beta",
            "block1.conv.w", "block1.bn.gamma", "block1.bn.beta",
            "head.w", "head.b"}


class TestForward:
    def test_shapes(self):
        cfg = _tiny_config()
        enc = Encoder(cfg, 0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3, 20)))
        logits, h_l = enc.forward(x, mode="train")
        assert logits.shape == (4, 2)
        assert h_l.shape == (4,) + cfg.feature_shape()

    def test_hook_disarmed_equals_warmup_hook(self):
        cfg = _tiny_config()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3, 20))
        enc1 = Encoder(cfg, 3)
        logits_plain, _ = enc1.forward(Tensor(x), fs=None, mode="train")
        enc2 = Encoder(cfg, 3)
        chans, spat = cfg.feature_shape()
        bank = GradientBank(capacity=2, top_k=1, decay=0.5, channels=chans, spatial=spat)
        sel = FeatureSelector(bank, 0.2)
        logits_warm, _ = enc2.forward(Tensor(x), fs=sel, mode="train")
        np.testing.assert_array_equal(logits_plain.data, logits_warm.data)

    def test_single_sample_eval(self):
        cfg = _tiny_config()
        enc = Encoder(cfg, 0)
        rng = np.random.default_rng(2)
        logits, _ = enc.forward(Tensor(rng.standard_normal((1, 3, 20))), mode="eval")
        assert logits.shape == (1, 2)
        assert np.isfinite(logits.data).all()

    def test_eval_is_pure(self):
        cfg = _tiny_config()
        enc = Encoder(cfg, 0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 20))
        a, _ = enc.forward(Tensor(x), mode="eval")
        b, _ = enc.forward(Tensor(x), mode="eval")
        np.testing.assert_array_equal(a.data, b.data)

    def test_input_shape_mismatch(self):
        enc = Encoder(_tiny_config(), 0)
        with pytest.raises(Exception, match="does not match"):
            enc.forward(Tensor(np.zeros((2, 3, 21))), mode="eval")


class TestGradientCapture:
    def test_captured_gradient_matches_finite_difference(self):
        """Treat the insertion-layer map as a leaf and re-run the tail."""
        cfg = _tiny_config()
        enc = Encoder(cfg, 5)
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 3, 20)))
        labels = [0, 1, 0]
        sel = _armed_selector(cfg, rng, b=3)

        tape = Tape()
        with tape:
            logits, h_l = enc.forward(x, fs=sel, mode="train")
            loss = cross_entropy_logits(logits, labels)
        backward(loss, tape)
        captured = h_l.grad.copy()
        assert captured.shape == h_l.shape

        def tail_loss(arr):
            with Tape():
                out = enc.forward_tail(Tensor(arr), sel, "train")
                return cross_entropy_logits(out, labels).item()

        h = 1e-5
        fd = np.zeros_like(h_l.data)
        base = h_l.data
        flat_fd = fd.ravel()
        for idx in range(base.size):
            plus, minus = base.copy(), base.copy()
            plus.ravel()[idx] += h
            minus.ravel()[idx] -= h
            flat_fd[idx] = (tail_loss(plus) - tail_loss(minus)) / (2 * h)
        rel = np.abs(captured - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-5

    def test_no_capture_without_tape(self):
        cfg = _tiny_config()
        enc = Encoder(cfg, 0)
        rng = np.random.default_rng(5)
        _, h_l = enc.forward(Tensor(rng.standard_normal((2, 3, 20))), mode="train")
        assert h_l.grad is None

"""Feature-selection tests: formula oracles, invariants, differentiability
through the selection path, attribution export."""

import numpy as np
import pytest

from eegfs.autodiff import (
    BN_EPS, Tape, Tensor, ValidationError, backward, mean_over_axes, mul, sum_over_axes,
)
from eegfs.bank import GradientBank
from eegfs.selection import (
    FeatureSelector,
    export_attribution,
    fs_forward,
    heat_map,
    write_attribution_csv,
)
from _oracles import (
    check_gradients,
    entropy,
    entropy_direct_sum,
    fs_scalar_reference,
    lambda_weights,
    mean_loops,
    probability,
    softmax_exp_normalize,
)


def _selector(channels=4, spatial=6, q=2, k=1, decay=0.5, m=0.2, kind="softmax",
              fill=None, b=2, rng=None):
    """Selector with an optionally pre-filled bank."""
    bank = GradientBank(capacity=q, top_k=k, decay=decay,
                        channels=channels, spatial=spatial)
    sel = FeatureSelector(bank, m, activation=kind)
    if fill:
        rng = rng or np.random.default_rng(99)
        for j in range(1, fill + 1):
            bank.push(j, rng.standard_normal((b, channels, spatial)))
    return sel


class TestBatchPool:
    def test_single_sample_is_identity(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((1, 3, 5))
        np.testing.assert_array_equal(mean_over_axes(Tensor(h), (0,)).data, h[0])

    def test_symmetric_batch_cancels(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4))
        h = np.stack([x, -x])
        np.testing.assert_allclose(mean_over_axes(Tensor(h), (0,)).data, 0.0, atol=1e-16)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 3, 5))
        got = mean_over_axes(Tensor(h), (0,)).data
        assert np.abs(got - mean_loops(h, (0,))).max() < 1e-12


class TestHeatMap:
    def test_zero_alpha_gives_zeros(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((3, 4, 5))
        fs = _selector(channels=4)
        fs.alpha = np.zeros(4)
        v = heat_map(Tensor(h), fs, "train")
        np.testing.assert_array_equal(v.data, np.zeros_like(h))

    def test_unit_alpha_on_prenormalized_input(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((16, 3, 8))
        h -= h.mean(axis=(0, 2), keepdims=True)
        h /= h.std(axis=(0, 2), keepdims=True)
        fs = _selector(channels=3)
        fs.alpha = np.ones(3)
        v = heat_map(Tensor(h), fs, "train")
        np.testing.assert_allclose(v.data, h / np.sqrt(1 + 1e-5), atol=1e-12)

    def test_against_scalar_reference(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((2, 4, 6))
        alpha = rng.standard_normal(4)
        fs = _selector(channels=4)
        fs.alpha = alpha
        got = heat_map(Tensor(h), fs, "train").data
        pre = np.zeros_like(h)
        for i in range(2):
            for c in range(4):
                for r in range(6):
                    pre[i, c, r] = alpha[c] * h[i, c, r]
        mu = pre.mean(axis=(0, 2), keepdims=True)
        var = pre.var(axis=(0, 2), keepdims=True)
        assert np.abs(got - (pre - mu) / np.sqrt(var + BN_EPS)).max() < 1e-12


class TestProbability:
    def test_softmax_of_zeros_is_uniform(self):
        np.testing.assert_allclose(probability(np.zeros(4), "softmax"), 0.25, atol=1e-15)

    def test_sigmoid_of_zeros_is_half(self):
        np.testing.assert_allclose(probability(np.zeros(3), "sigmoid"), 0.5, atol=1e-15)

    def test_against_exp_normalize_oracle(self):
        v = np.log(np.array([1.0, 2.0, 3.0, 4.0]))
        got = probability(v, "softmax")
        np.testing.assert_allclose(got, softmax_exp_normalize(v), atol=1e-15)
        np.testing.assert_allclose(got, np.array([1, 2, 3, 4]) / 10.0, atol=1e-15)

    def test_columnwise_on_two_dim(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((4, 6))
        p = probability(v, "softmax")
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)


class TestEntropy:
    def test_uniform(self):
        assert entropy(np.full(4, 0.25), "softmax") == pytest.approx(np.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0]), "softmax") == 0.0

    def test_against_direct_sum(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        got = entropy(p, "softmax")
        assert abs(got - entropy_direct_sum(p)) < 1e-12
        assert got == pytest.approx(1.27985, abs=1e-5)

    def test_sigmoid_kind_sums_binary_entropies(self):
        p = np.array([0.5, 0.5])
        assert entropy(p, "sigmoid") == pytest.approx(2 * np.log(2), abs=1e-12)
        assert entropy(np.array([0.0, 1.0]), "sigmoid") == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            v = rng.standard_normal(c) * rng.uniform(0.1, 20)
            h_soft = entropy(probability(v, "softmax"), "softmax")
            h_sig = entropy(probability(v, "sigmoid"), "sigmoid")
            assert -1e-12 <= h_soft <= np.log(c) + 1e-12
            assert -1e-12 <= h_sig <= c * np.log(2) + 1e-12


class TestLambdaWeights:
    def test_two_locations(self):
        np.testing.assert_allclose(lambda_weights(np.array([0.0, np.log(2)])), [1.0, 0.0])

    def test_all_equal_entropies_vanish(self):
        np.testing.assert_array_equal(lambda_weights(np.full(5, 0.7)), np.zeros(5))

    def test_direct_substitution(self):
        got = lambda_weights(np.array([0.2, 0.5, 1.0]))
        np.testing.assert_allclose(got, [0.8, 0.5, 0.0], atol=1e-15)

    def test_degenerate_max_gives_ones(self):
        np.testing.assert_array_equal(lambda_weights(np.zeros(4)), np.ones(4))

    def test_range_and_argmax_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            h = rng.uniform(0, 3, size=int(rng.integers(2, 20)))
            lam = lambda_weights(h)
            assert (lam >= 0).all() and (lam <= 1).all()
            if h.max() >= 1e-12:
                assert lam[h.argmax()] == 0.0


class TestShiftInvariance:
    def test_probability_entropy_lambda_under_softmax(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.standard_normal((4, 6)) * 3
            shift = rng.uniform(-100, 100)
            p1, p2 = probability(v, "softmax"), probability(v + shift, "softmax")
            assert np.abs(p1 - p2).max() < 1e-12
            h1 = entropy(p1, "softmax")
            h2 = entropy(p2, "softmax")
            assert np.abs(h1 - h2).max() < 1e-12
            assert np.abs(lambda_weights(h1) - lambda_weights(h2)).max() < 1e-12


class TestFsForward:
    def test_warmup_returns_same_tensor(self):
        rng = np.random.default_rng(10)
        sel = _selector(fill=2)  # q=2 needs 3 entries to be full
        h = Tensor(rng.standard_normal((2, 4, 6)))
        out = fs_forward(h, sel.bank, sel, "train")
        assert out is h

    def test_eval_without_alpha_is_identity(self):
        rng = np.random.default_rng(11)
        sel = _selector()
        h = Tensor(rng.standard_normal((2, 4, 6)))
        assert fs_forward(h, sel.bank, sel, "eval") is h

    def test_uniform_channel_patterns_give_pure_residual(self):
        # every location shows the same channel pattern -> equal entropies
        # -> zero location weights -> output equals input bit-exactly
        rng = np.random.default_rng(12)
        sel = _selector(fill=3)
        pattern = rng.standard_normal(4)
        h = np.broadcast_to(pattern[None, :, None], (2, 4, 6)).copy()
        h += rng.standard_normal((2, 1, 1))  # per-sample offset, constant per channel
        out = fs_forward(Tensor(h), sel.bank, sel, "train")
        assert sel.last_lambda is not None
        np.testing.assert_array_equal(sel.last_lambda, np.zeros(6))
        np.testing.assert_array_equal(out.data, h)

    @pytest.mark.parametrize("kind", ["softmax", "sigmoid"])
    def test_against_scalar_reference_pipeline(self, kind):
        rng = np.random.default_rng(13)
        sel = _selector(kind=kind, fill=3, rng=rng)
        h = rng.standard_normal((2, 4, 6))
        out = fs_forward(Tensor(h), sel.bank, sel, "train")
        alpha = sel.alpha
        want, lam_want = fs_scalar_reference(h, alpha, kind, BN_EPS)
        assert np.abs(out.data - want).max() < 1e-12
        assert np.abs(sel.last_lambda - lam_want).max() < 1e-12

    def test_lambda_invariants_randomized(self):
        rng = np.random.default_rng(14)
        for trial in range(500):
            c = int(rng.integers(2, 6))
            s = int(rng.integers(2, 8))
            b = int(rng.integers(1, 4))
            kind = "softmax" if trial % 2 == 0 else "sigmoid"
            sel = _selector(channels=c, spatial=s, kind=kind, fill=3, b=b, rng=rng)
            h = rng.standard_normal((b, c, s)) * rng.uniform(0.1, 10)
            fs_forward(Tensor(h), sel.bank, sel, "train")
            lam = sel.last_lambda
            assert (lam >= -1e-15).all() and (lam <= 1.0 + 1e-15).all()
            assert (lam == 0.0).any() or (lam == 1.0).all()

    def test_differentiable_through_selection_path(self):
        rng = np.random.default_rng(16)
        sel = _selector(fill=3, rng=rng)
        weights = rng.standard_normal((2, 4, 6))

        def build(ts):
            out = fs_forward(ts[0], sel.bank, sel, "train")
            return sum_over_axes(mul(out, Tensor(weights)), (0, 1, 2))

        check_gradients(build, [rng.standard_normal((2, 4, 6))], rel_tol=1e-5)


class TestExportAttribution:
    def test_constant_lambda(self):
        fs = _selector(channels=4)
        fs.last_lambda = np.ones(5)
        clip = _FakeClip(np.zeros((2, 250)), clip_id=7)
        amap = export_attribution(fs, clip, stride_product=50)
        assert amap.shape == (250,)
        np.testing.assert_array_equal(amap, 1.0)

    def test_exact_repeat(self):
        fs = _selector(channels=4)
        fs.last_lambda = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        clip = _FakeClip(np.zeros((2, 250)), clip_id=1)
        amap = export_attribution(fs, clip, stride_product=50)
        np.testing.assert_array_equal(
            amap, np.repeat(fs.last_lambda, 50))

    def test_tail_clamps_to_last_location(self):
        fs = _selector(channels=2)
        fs.last_lambda = np.array([0.25, 0.75])
        clip = _FakeClip(np.zeros((1, 9)), clip_id=0)
        amap = export_attribution(fs, clip, stride_product=4)
        np.testing.assert_array_equal(
            amap,
            [0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75, 0.75])

    def test_missing_lambda_rejected(self):
        fs = _selector(channels=2)
        with pytest.raises(ValidationError):
            export_attribution(fs, _FakeClip(np.zeros((1, 8)), 0), 2)

    def test_csv_format(self, tmp_path):
        amap = np.array([0.123456789123, 1.0])
        path = tmp_path / "attr.csv"
        write_attribution_csv(amap, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "timestamp,weight"
        assert len(lines) == 3
        assert lines[1] == "0,0.123456789"


class _FakeClip:
    def __init__(self, data, clip_id):
        self.data = data
        self.clip_id = clip_id

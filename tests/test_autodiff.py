"""Tensor engine tests: op semantics against loop oracles, gradients
against central finite differences."""

import tracemalloc
import zlib

import numpy as np
import pytest

from eegfs.autodiff import (
    BatchNormState,
    DimensionError,
    Tape,
    Tensor,
    UsageError,
    ValidationError,
    add,
    avg_pool1d,
    backward,
    batchnorm,
    conv1d,
    cross_entropy_logits,
    div,
    matmul,
    max_over_axis,
    mean_over_axes,
    mul,
    relu,
    reshape,
    sigmoid,
    softmax,
    sub,
    sum_over_axes,
    xlogx,
)
from _oracles import (
    batchnorm_formula,
    batchnorm_train_vjp,
    check_gradients,
    conv1d_im2col,
    conv1d_loops,
    conv1d_offsets,
    conv1d_vjp_basis,
    conv1d_vjp_offsets,
    cross_entropy_per_sample,
    matmul_loops,
    mean_loops,
)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2))
        out = matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_scalar_case(self):
        out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - matmul_loops(a, b)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


PRODUCTION_CONVS = [((64, 16, 250), (32, 16, 7)), ((64, 32, 122), (64, 32, 5))]


def _rel_err(got, want):
    assert got.shape == want.shape
    return np.abs(got - want).max() / np.abs(want).max()


def _vjp(op, arrays, g):
    """Output and gradients of sum(g * op(*tensors)) through the tape."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    tape = Tape()
    with tape:
        out = op(*tensors)
        loss = sum_over_axes(mul(out, Tensor(g)), range(out.data.ndim))
    backward(loss, tape)
    return out, [t.grad for t in tensors]


def _conv_vjp(x, w, g, stride):
    _, grads = _vjp(lambda a, b: conv1d(a, b, stride=stride), [x, w], g)
    return grads


def _zero_padded(x, padding):
    """``x`` with ``padding`` zeros added at both ends of its temporal axis."""
    return np.pad(x, ((0, 0), (0, 0), (padding, padding)))


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 8))
        w = np.ones((1, 1, 1))
        out = conv1d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_arithmetic(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0, 1.0]]])
        out = conv1d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_against_nested_sum(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 16))
        w = rng.standard_normal((4, 3, 5))
        got = conv1d(Tensor(x), Tensor(w)).data
        assert np.abs(got - conv1d_loops(x, w)).max() < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 2), (2, 0), (3, 1)])
    def test_stride_padding_against_nested_sum(self, stride, padding):
        rng = np.random.default_rng(4)
        x = _zero_padded(rng.standard_normal((2, 2, 13)), padding)
        w = rng.standard_normal((3, 2, 4))
        got = conv1d(Tensor(x), Tensor(w), stride=stride).data
        assert np.abs(got - conv1d_loops(x, w, stride)).max() < 1e-12

    def test_kernel_larger_than_input(self):
        with pytest.raises(DimensionError, match="kernel"):
            conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 3))))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 1), (3, 2), (4, 0)])
    def test_offset_oracles_against_loops(self, stride, padding):
        rng = np.random.default_rng(40 + stride)
        x = _zero_padded(rng.standard_normal((2, 3, 11)), padding)
        w = rng.standard_normal((2, 3, 4))
        want = conv1d_loops(x, w, stride)
        assert np.abs(conv1d_offsets(x, w, stride) - want).max() < 1e-12
        g = rng.standard_normal(want.shape)
        basis = conv1d_vjp_basis(x, w, g, stride)
        for grads in (_conv_vjp(x, w, g, stride), conv1d_vjp_offsets(x, w, g, stride)):
            for got, oracle in zip(grads, basis):
                assert np.abs(got - oracle).max() < 1e-12

    @pytest.mark.parametrize("x_shape,w_shape", PRODUCTION_CONVS)
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
    def test_production_shapes_against_offset_oracle(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(x_shape[1] + stride)
        x = _zero_padded(rng.standard_normal(x_shape), padding)
        w = rng.standard_normal(w_shape)
        out = conv1d(Tensor(x), Tensor(w), stride=stride)
        assert _rel_err(out.data, conv1d_offsets(x, w, stride)) < 1e-12
        g = rng.standard_normal(out.shape)
        gx, gw = _conv_vjp(x, w, g, stride)
        want_gx, want_gw = conv1d_vjp_offsets(x, w, g, stride)
        assert _rel_err(gx, want_gx) < 1e-12
        assert _rel_err(gw, want_gw) < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_rule_skips_constant_input(self, stride, padding):
        rng = np.random.default_rng(23 + stride)
        x = _zero_padded(rng.standard_normal((64, 16, 250)), padding)
        w = rng.standard_normal((32, 16, 7))
        rules = {}
        for x_live in (False, True):
            tape = Tape()
            with tape:
                out = conv1d(Tensor(x, requires_grad=x_live), Tensor(w, requires_grad=True),
                             stride=stride)
            rules[x_live] = tape._records[-1][2]
        g = rng.standard_normal(out.shape)
        gx_pruned, gw_pruned = rules[False](g)
        gx_full, gw_full = rules[True](g)
        assert gx_pruned is None and gx_full.shape == x.shape
        np.testing.assert_array_equal(gw_pruned, gw_full)

    # (x shape, w shape, stride): both production shapes, the 48-clip last
    # training batch, a batch that leaves a short last forward chunk, and
    # strides whose last window stops short of the clip end, (T - k) % stride
    # != 0, where a window over flattened time could reach into the next clip
    IM2COL_CASES = [((64, 16, 250), (32, 16, 7), 1), ((64, 32, 122), (64, 32, 5), 1),
                    ((48, 16, 250), (32, 16, 7), 1), ((48, 32, 122), (64, 32, 5), 1),
                    ((100, 32, 122), (64, 32, 5), 1), ((64, 16, 250), (32, 16, 7), 2),
                    ((64, 32, 122), (64, 32, 5), 2), ((64, 16, 251), (32, 16, 7), 3),
                    ((48, 32, 124), (64, 32, 5), 3)]

    @pytest.mark.parametrize("x_shape,w_shape,stride", IM2COL_CASES)
    def test_matches_whole_batch_im2col(self, x_shape, w_shape, stride):
        rng = np.random.default_rng(x_shape[0] + x_shape[2] + stride)
        x = rng.standard_normal(x_shape)
        x[:, :, [0, -1]] += np.sign(x[:, :, [0, -1]]) * 50.0  # large samples at every clip edge
        w = rng.standard_normal(w_shape)
        t_out = (x_shape[2] - w_shape[2]) // stride + 1
        g = rng.standard_normal((x_shape[0], w_shape[0], t_out))
        want_out, want_gx, want_gw = conv1d_im2col(x, w, g, stride)
        out, (gx, gw) = _vjp(lambda a, b: conv1d(a, b, stride=stride), [x, w], g)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(gx, want_gx)
        assert _rel_err(gw, want_gw) < 1e-14


class TestBatchNorm:
    def test_prenormalized_input_passes_through(self):
        # mean 0, variance 1 per channel: output is input / sqrt(1 + eps)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 3, 10))
        x -= x.mean(axis=(0, 2), keepdims=True)
        x /= x.std(axis=(0, 2), keepdims=True)
        eps = 1e-5
        out = batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                        BatchNormState(3), "train", eps=eps)
        np.testing.assert_allclose(out.data, x / np.sqrt(1 + eps), atol=1e-12)

    def test_constant_batch_maps_to_zero(self):
        x = np.full((4, 2, 5), 7.3)
        out = batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        BatchNormState(2), "train")
        np.testing.assert_array_equal(out.data, np.zeros_like(x))

    def test_train_against_formula_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 4, 6))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        eps = 1e-5
        got = batchnorm(Tensor(x), Tensor(gamma), Tensor(beta),
                        BatchNormState(4), "train", eps=eps).data
        want = batchnorm_formula(x, gamma, beta, x.mean(axis=(0, 2)),
                                 x.var(axis=(0, 2)), eps)
        assert np.abs(got - want).max() < 1e-12

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 2, 4))
        state = BatchNormState(2)
        state.mean = np.array([1.0, -2.0])
        state.var = np.array([4.0, 0.25])
        gamma, beta = np.array([2.0, 1.0]), np.array([0.5, 0.0])
        got = batchnorm(Tensor(x), Tensor(gamma), Tensor(beta), state, "eval", eps=1e-5).data
        want = batchnorm_formula(x, gamma, beta, state.mean, state.var, 1e-5)
        assert np.abs(got - want).max() < 1e-12
        # block 1's feature map at batch 64
        x = rng.standard_normal((64, 64, 118)) * 3 + 1
        state = BatchNormState(64)
        state.mean = rng.standard_normal(64)
        state.var = rng.uniform(0.1, 4.0, 64)
        gamma, beta = rng.uniform(0.5, 1.5, 64), rng.standard_normal(64)
        got = batchnorm(Tensor(x), Tensor(gamma), Tensor(beta), state, "eval", eps=1e-5).data
        want = batchnorm_formula(x, gamma, beta, state.mean, state.var, 1e-5)
        assert np.abs(got - want).max() < 1e-12

    def test_running_stats_ema_update(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 2, 5)) * 3 + 1
        state = BatchNormState(2)
        batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                  state, "train", momentum_bn=0.1)
        np.testing.assert_allclose(state.mean, 0.1 * x.mean(axis=(0, 2)), atol=1e-14)
        np.testing.assert_allclose(state.var, 0.9 + 0.1 * x.var(axis=(0, 2)), atol=1e-14)

    def test_train_vjp_against_textbook_formula(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((64, 32, 244)) * 3 + 1
        gamma = rng.uniform(0.5, 1.5, 32)
        beta = rng.standard_normal(32)
        g = rng.standard_normal(x.shape)
        eps = 1e-5
        _, grads = _vjp(lambda a, b, c: batchnorm(a, b, c, BatchNormState(32), "train", eps=eps),
                        [x, gamma, beta], g)
        for got, want in zip(grads, batchnorm_train_vjp(x, gamma, g, eps)):
            assert _rel_err(got, want) < 1e-12

    def test_train_output_has_zero_batch_mean(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.standard_normal((5, 3, 7)) * rng.uniform(0.1, 10)
            out = batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                            BatchNormState(3), "train")
            assert np.abs(out.data.mean(axis=(0, 2))).max() < 1e-10


class TestElementwise:
    def test_softmax_uniform_logits(self):
        out = softmax(Tensor(np.zeros(4)), axis=0)
        np.testing.assert_allclose(out.data, 0.25, atol=1e-15)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 7)) * 10
        p = softmax(Tensor(x), axis=1).data
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(6)
        p1 = softmax(Tensor(x), axis=0).data
        p2 = softmax(Tensor(x + 123.456), axis=0).data
        assert np.abs(p1 - p2).max() < 1e-12

    def test_relu_vjp_is_masked_gradient(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((64, 32, 244))
        x[:, :, ::7] = 0.0
        g = rng.standard_normal(x.shape)
        _, (gx,) = _vjp(relu, [x], g)
        np.testing.assert_array_equal(gx, g * (x > 0))

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(np.zeros(3))).data[0] == 0.5

    def test_sigmoid_extremes_are_finite(self):
        out = sigmoid(Tensor(np.array([-800.0, 800.0]))).data
        assert out[0] == 0.0 and out[1] == 1.0

    def test_mean_against_loop_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4, 5))
        for axes in [(0,), (2,), (0, 2), (0, 1, 2)]:
            got = mean_over_axes(Tensor(x), axes).data
            assert np.abs(got - mean_loops(x, axes)).max() < 1e-12

    def test_xlogx_convention(self):
        out = xlogx(Tensor(np.array([0.0, 1.0, np.e]))).data
        np.testing.assert_allclose(out, [0.0, 0.0, np.e], atol=1e-15)

    def test_add_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_max_over_axis(self):
        x = np.array([[1.0, 5.0, 3.0], [4.0, 0.0, 2.0]])
        np.testing.assert_array_equal(max_over_axis(Tensor(x), 1).data, [5.0, 4.0])

    def test_avg_pool_truncates_remainder(self):
        x = np.arange(7, dtype=float).reshape(1, 1, 7)
        out = avg_pool1d(Tensor(x), 2)
        np.testing.assert_array_equal(out.data, [[[0.5, 2.5, 4.5]]])

    @pytest.mark.parametrize("shape", [(5, 3, 23), (64, 32, 244)])
    @pytest.mark.parametrize("pool_len", [1, 2, 3, 5])
    def test_avg_pool_equals_window_mean_exactly(self, shape, pool_len):
        rng = np.random.default_rng(pool_len)
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        t_out = shape[2] // pool_len
        want = x[..., :t_out * pool_len].reshape(*shape[:2], t_out, pool_len).mean(-1)
        np.testing.assert_array_equal(avg_pool1d(Tensor(x), pool_len).data, want)

    def test_avg_pool_long_window_within_rounding(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 3, 70))
        want = x[..., :64].reshape(4, 3, 4, 16).mean(-1)
        np.testing.assert_allclose(avg_pool1d(Tensor(x), 16).data, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape,pool_len", [((64, 32, 244), 2), ((64, 64, 118), 3)])
    def test_avg_pool_backward_equals_repeat(self, shape, pool_len):
        rng = np.random.default_rng(shape[2])
        x = rng.standard_normal(shape)
        t_out = shape[2] // pool_len
        g = rng.standard_normal((*shape[:2], t_out))
        want = np.zeros(shape)
        want[:, :, :t_out * pool_len] = np.repeat(g / pool_len, pool_len, axis=2)
        _, (gx,) = _vjp(lambda a: avg_pool1d(a, pool_len), [x], g)
        np.testing.assert_array_equal(gx, want)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy_logits(Tensor(np.zeros((1, 2))), [0])
        assert abs(loss.item() - np.log(2)) < 1e-12

    def test_saturated_logits(self):
        loss = cross_entropy_logits(Tensor(np.array([[100.0, 0.0]])), [0])
        assert loss.item() < 1e-10

    def test_against_per_sample_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((4, 2)) * 3
        labels = rng.integers(0, 2, size=4)
        loss = cross_entropy_logits(Tensor(logits), labels)
        assert abs(loss.item() - cross_entropy_per_sample(logits, labels)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            cross_entropy_logits(Tensor(np.zeros((2, 2))), [0, 2])


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        tape = Tape()
        with tape:
            loss = sum_over_axes(x, (0, 1))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_grad_of_half_square_is_x(self):
        rng = np.random.default_rng(15)
        arr = rng.standard_normal((2, 5))
        x = Tensor(arr, requires_grad=True)
        tape = Tape()
        with tape:
            loss = mul(sum_over_axes(mul(x, x), (0, 1)), 0.5)
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, arr, atol=1e-15)

    def test_backward_on_open_tape_fails(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tape = Tape()
        with tape:
            loss = sum_over_axes(x, (0,))
            with pytest.raises(UsageError):
                backward(loss, tape)

    def test_two_backward_passes_identical(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        c = Tensor(rng.standard_normal((4, 2, 11)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 3)), requires_grad=True)
        tape = Tape()
        with tape:
            h = conv1d(c, k, stride=2)  # rebuilds its columns on each sweep
            loss = add(cross_entropy_logits(matmul(x, w), [0, 1, 0, 1]),
                       mean_over_axes(mul(h, h), (0, 1, 2)))
        leaves = (x, w, c, k)
        backward(loss, tape)
        first = [t.grad.copy() for t in leaves]
        for t in leaves:
            t.grad = None
        backward(loss, tape)
        for t, g in zip(leaves, first):
            np.testing.assert_array_equal(t.grad, g)

    def test_capture_set_retains_intermediate(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((2, 3)))
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        tape = Tape()
        with tape:
            h = matmul(x, w)
            tape.capture(h)
            loss = mean_over_axes(mul(h, h), (0, 1))
        backward(loss, tape)
        assert h.grad is not None and h.grad.shape == (2, 2)
        np.testing.assert_allclose(h.grad, 2 * h.data / 4, atol=1e-15)

    def test_capture_of_constant_before_use_gets_exact_gradient(self):
        rng = np.random.default_rng(18)
        c = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        tape = Tape()
        with tape:
            tape.capture(c)
            loss = sum_over_axes(mul(c, w), (0, 1))
        backward(loss, tape)
        np.testing.assert_array_equal(c.grad, w.data)
        np.testing.assert_array_equal(w.grad, c.data)

    def test_capture_after_use_raises(self):
        c = Tensor(np.ones((3, 4)))
        w = Tensor(np.ones((3, 4)), requires_grad=True)
        tape = Tape()
        with tape:
            prod = mul(c, w)
            with pytest.raises(UsageError, match="capture after use"):
                tape.capture(c)
            tape.capture(prod)  # produced but not yet consumed: still allowed

    def test_node_consumed_three_times_gets_exact_sum(self):
        # Small integers, so every sum is exact whatever its order.
        rng = np.random.default_rng(19)
        x = Tensor(rng.integers(-4, 5, (3, 4)).astype(float), requires_grad=True)
        c = rng.integers(-4, 5, 12).astype(float)
        d = rng.integers(-4, 5, (3, 4)).astype(float)
        tape = Tape()
        with tape:
            flat = reshape(x, (12,))
            tape.capture(flat)
            twice = add(x, x)
            tape.capture(twice)
            loss = add(sum_over_axes(mul(flat, Tensor(c)), (0,)),
                       sum_over_axes(mul(twice, Tensor(d)), (0, 1)))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, d + d + c.reshape(3, 4))
        np.testing.assert_array_equal(flat.grad, c)
        np.testing.assert_array_equal(twice.grad, d)
        assert not np.shares_memory(x.grad, flat.grad)
        assert not np.shares_memory(x.grad, twice.grad)

    def test_add_inputs_get_separate_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        tape = Tape()
        with tape:
            loss = sum_over_axes(add(a, b), (0, 1))
        backward(loss, tape)
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        assert not np.shares_memory(a.grad, b.grad)

    def test_binary_ops_skip_the_constant_side(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        k = Tensor(rng.uniform(1.0, 2.0, (2, 3)))
        g = rng.standard_normal((2, 3))
        for op in (add, sub, mul, div):
            for args, live in (((x, k), 0), ((k, x), 1)):
                tape = Tape()
                with tape:
                    op(*args)
                grads = tape._records[-1][2](g)
                assert grads[1 - live] is None
                assert grads[live].shape == (2, 3)


def _away_from_zero(rng, shape, margin=0.1):
    x = rng.standard_normal(shape)
    return x + np.sign(x) * margin


def _running_stats():
    state = BatchNormState(3)
    state.mean = np.array([0.5, -1.0, 0.0])
    state.var = np.array([2.0, 0.3, 1.0])
    return state


# Each entry: (name, builder over input tensors, input generator).
GRAD_CASES = [
    ("add_same", lambda ts: sum_over_axes(mul(add(ts[0], ts[1]), ts[1]), (0, 1)),
     lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
    ("add_broadcast_channel", lambda ts: sum_over_axes(mul(add(ts[0], ts[1]), ts[0]), (0, 1, 2)),
     lambda rng: [rng.standard_normal((2, 3, 4)), rng.standard_normal((3, 1))]),
    ("sub_broadcast_scalar", lambda ts: sum_over_axes(mul(sub(ts[0], ts[1]), ts[0]), (0,)),
     lambda rng: [rng.standard_normal(5), rng.standard_normal(())]),
    ("mul_broadcast_spatial", lambda ts: sum_over_axes(mul(ts[0], ts[1]), (0, 1, 2)),
     lambda rng: [rng.standard_normal((2, 3, 4)), rng.standard_normal(4)]),
    ("div", lambda ts: sum_over_axes(div(ts[0], ts[1]), (0,)),
     lambda rng: [rng.standard_normal(6), _away_from_zero(rng, 6, 0.5)]),
    ("relu", lambda ts: sum_over_axes(mul(relu(ts[0]), ts[0]), (0, 1)),
     lambda rng: [_away_from_zero(rng, (3, 4))]),
    ("sigmoid", lambda ts: sum_over_axes(mul(sigmoid(ts[0]), ts[0]), (0,)),
     lambda rng: [rng.standard_normal(7)]),
    ("softmax", lambda ts: sum_over_axes(mul(softmax(ts[0], axis=1), ts[0]), (0, 1)),
     lambda rng: [rng.standard_normal((3, 5))]),
    ("xlogx", lambda ts: sum_over_axes(xlogx(ts[0]), (0,)),
     lambda rng: [rng.uniform(0.05, 2.0, 6)]),
    ("mean", lambda ts: sum_over_axes(mul(mean_over_axes(ts[0], (0, 2)), ts[1]), (0,)),
     lambda rng: [rng.standard_normal((2, 3, 4)), rng.standard_normal(3)]),
    ("sum", lambda ts: sum_over_axes(mul(sum_over_axes(ts[0], (1,)), ts[1]), (0,)),
     lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal(3)]),
    ("max", lambda ts: mul(max_over_axis(max_over_axis(ts[0], 1), 0), 2.0),
     lambda rng: [rng.permutation(12).reshape(3, 4) + rng.uniform(0, 0.3, (3, 4))]),
    ("reshape", lambda ts: sum_over_axes(mul(reshape(ts[0], (6,)), ts[1]), (0,)),
     lambda rng: [rng.standard_normal((2, 3)), rng.standard_normal(6)]),
    ("matmul", lambda ts: sum_over_axes(mul(matmul(ts[0], ts[1]), ts[2]), (0, 1)),
     lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                  rng.standard_normal((3, 2))]),
    ("conv1d", lambda ts: sum_over_axes(mul(conv1d(ts[0], ts[1], stride=2), ts[2]), (0, 1, 2)),
     lambda rng: [rng.standard_normal((2, 3, 11)), rng.standard_normal((4, 3, 3)),
                  rng.standard_normal((2, 4, 5))]),
    ("avg_pool", lambda ts: sum_over_axes(mul(avg_pool1d(ts[0], 2), ts[1]), (0, 1, 2)),
     lambda rng: [rng.standard_normal((2, 3, 7)), rng.standard_normal((2, 3, 3))]),
    ("batchnorm", lambda ts: sum_over_axes(
        mul(batchnorm(ts[0], ts[1], ts[2], BatchNormState(3), "train"), ts[3]), (0, 1, 2)),
     lambda rng: [rng.standard_normal((4, 3, 5)), rng.uniform(0.5, 1.5, 3),
                  rng.standard_normal(3), rng.standard_normal((4, 3, 5))]),
    ("batchnorm_eval", lambda ts: sum_over_axes(
        mul(batchnorm(ts[0], ts[1], ts[2], _running_stats(), "eval"), ts[3]), (0, 1, 2)),
     lambda rng: [rng.standard_normal((4, 3, 5)), rng.uniform(0.5, 1.5, 3),
                  rng.standard_normal(3), rng.standard_normal((4, 3, 5))]),
    ("cross_entropy", lambda ts: cross_entropy_logits(ts[0], [0, 1, 1]),
     lambda rng: [rng.standard_normal((3, 2)) * 2]),
]


@pytest.mark.parametrize("name,build,gen", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
def test_finite_difference_gradients(name, build, gen):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(3):
        check_gradients(build, gen(rng), rel_tol=1e-6, h=1e-3)


# Each entry: (name, op over input tensors, input shapes). Production shapes.
LAYOUT_CASES = [
    ("conv1d", lambda x, w: conv1d(x, w), [(64, 16, 250), (32, 16, 7)]),
    # a 122-sample block-1 input after one zero of padding at each end
    ("conv1d_strided_padded", lambda x, w: conv1d(x, w, stride=2),
     [(64, 32, 124), (64, 32, 5)]),
    ("batchnorm_train", lambda x, g, b: batchnorm(x, g, b, BatchNormState(32), "train"),
     [(64, 32, 244), (32,), (32,)]),
    ("batchnorm_eval", lambda x, g, b: batchnorm(x, g, b, BatchNormState(64), "eval"),
     [(64, 64, 118), (64,), (64,)]),
    ("avg_pool1d", lambda x: avg_pool1d(x, 2), [(64, 32, 244)]),
    ("avg_pool1d_remainder", lambda x: avg_pool1d(x, 3), [(64, 64, 118)]),
]


@pytest.mark.parametrize("name,op,shapes", LAYOUT_CASES, ids=[c[0] for c in LAYOUT_CASES])
def test_output_contiguous_and_gradient_shapes(name, op, shapes):
    rng = np.random.default_rng(20)
    arrays = [rng.standard_normal(s) for s in shapes]
    out = op(*[Tensor(a) for a in arrays])
    g = rng.standard_normal(out.shape)
    taped, grads = _vjp(op, arrays, g)
    assert out.data.flags.c_contiguous and taped.data.flags.c_contiguous
    np.testing.assert_array_equal(taped.data, out.data)
    for a, grad in zip(arrays, grads):
        assert grad.shape == a.shape


# Each entry: (name, op over (x, gamma, beta)). Ops whose forward pass
# allocates nothing beyond its output.
OUTPUT_ONLY_CASES = [
    ("batchnorm_eval", lambda x, g, b: batchnorm(x, g, b, BatchNormState(64), "eval")),
    ("relu", lambda x, g, b: relu(x)),
]


@pytest.mark.parametrize("name,op", OUTPUT_ONLY_CASES, ids=[c[0] for c in OUTPUT_ONLY_CASES])
def test_forward_allocates_only_its_output(name, op):
    rng = np.random.default_rng(23)
    args = [Tensor(rng.standard_normal(s)) for s in [(64, 64, 118), (64,), (64,)]]
    tracemalloc.start()
    try:
        out = op(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.data.nbytes


@pytest.mark.parametrize("live", [True, False], ids=["live_input", "constant_input"])
@pytest.mark.parametrize("x_shape,w_shape", [((64, 16, 250), (32, 16, 7)),
                                             ((64, 32, 122), (64, 32, 5))],
                         ids=["block0", "block1"])
def test_conv1d_tape_holds_only_its_output(x_shape, w_shape, live):
    """The taped rule keeps the input, not the (Cin*k, B*T_out) column matrix."""
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=live)
    w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
    tape = Tape()
    tracemalloc.start()
    try:
        with tape:
            out = conv1d(x, w)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.05 * out.data.nbytes


@pytest.mark.parametrize("part", ["forward", "taped_forward", "rule"])
@pytest.mark.parametrize("x_shape,w_shape,live", [(*PRODUCTION_CONVS[0], False),
                                                  (*PRODUCTION_CONVS[1], True)],
                         ids=["block0", "block1"])
def test_conv1d_peaks_under_10_mb(x_shape, w_shape, live, part):
    """No call builds a column matrix for the whole batch, which is 14 MB at
    block 0: a forward chunk's columns and the backward's flattened copies
    keep each call's traced peak under 10 MB. The input is live as in
    training, so block 1's rule computes the input gradient too."""
    rng = np.random.default_rng(25)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=live)
    w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
    tape = Tape()
    with tape:
        out = conv1d(x, w)
    rule = tape._records[-1][2]
    g = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        if part == "rule":
            rule(g)
        elif part == "taped_forward":
            with Tape():
                conv1d(x, w)
        else:
            conv1d(x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"{part} peaked at {peak / 1e6:.1f} MB"

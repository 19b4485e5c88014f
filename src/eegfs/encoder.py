"""Configurable 1-D convolutional classifier with a feature-selection hook.

Each block applies conv -> batch norm -> ReLU -> average pool along the
temporal axis. After a chosen block the intermediate feature map is
exposed: during training its gradient is captured for the bank, and an
optional selection hook rewrites it before the remaining blocks and the
final linear head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor, ValidationError


ACTIVATIONS = ("softmax", "sigmoid")  # checkpoint code = index


@dataclass(frozen=True)
class EncoderConfig:
    in_channels: int = 16
    clip_len: int = 250
    # (out_channels, kernel_len, stride, pool_len) per block
    blocks: tuple[tuple[int, int, int, int], ...] = ((32, 7, 1, 2), (64, 5, 1, 2))
    insertion_layer: int = 0
    num_classes: int = 2
    activation_kind: str = "softmax"
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def validate(self) -> None:
        if not self.blocks:
            raise ValidationError("at least one block is required")
        if not 0 <= self.insertion_layer < len(self.blocks):
            raise ValidationError(
                f"insertion_layer {self.insertion_layer} outside [0, {len(self.blocks)})")
        if self.in_channels < 1 or self.num_classes < 2:
            raise ValidationError("in_channels must be >= 1 and num_classes >= 2")
        if self.activation_kind not in ACTIVATIONS:
            raise ValidationError(f"unknown activation_kind {self.activation_kind!r}")
        if not 0.0 < self.bn_eps < np.inf:
            raise ValidationError(f"bn_eps {self.bn_eps} must be finite and > 0")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ValidationError(f"bn_momentum {self.bn_momentum} outside [0, 1]")
        self.temporal_lengths()

    def temporal_lengths(self) -> list[int]:
        """Temporal length after each block; raises ValidationError naming
        the first block that does not fit its input."""
        t = self.clip_len
        out = []
        for i, (c_out, k, stride, pool) in enumerate(self.blocks):
            if c_out < 2:
                raise ValidationError(f"block {i}: out_channels {c_out} must be >= 2 "
                                      "(channel entropy is degenerate otherwise)")
            if k < 1 or stride < 1 or pool < 1:
                raise ValidationError(f"block {i}: kernel/stride/pool must be >= 1")
            if k > t:
                raise ValidationError(f"block {i}: kernel {k} exceeds temporal length {t}")
            t = (t - k) // stride + 1
            if t < pool:
                raise ValidationError(f"block {i}: pool {pool} exceeds conv output length {t}")
            t //= pool
            out.append(t)
        return out

    def feature_shape(self, layer: Optional[int] = None) -> tuple[int, int]:
        """(channels, spatial) of the feature map after the given block."""
        layer = self.insertion_layer if layer is None else layer
        return self.blocks[layer][0], self.temporal_lengths()[layer]

    def stride_product(self, layer: Optional[int] = None) -> int:
        """Cumulative temporal reduction factor up to and including a block."""
        layer = self.insertion_layer if layer is None else layer
        factor = 1
        for _, _, stride, pool in self.blocks[:layer + 1]:
            factor *= stride * pool
        return factor

    def flat_features(self) -> int:
        return self.blocks[-1][0] * self.temporal_lengths()[-1]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter, in the order they are drawn."""
        shapes: dict[str, tuple[int, ...]] = {}
        c_in = self.in_channels
        for i, (c_out, k, _, _) in enumerate(self.blocks):
            shapes[f"block{i}.conv.w"] = (c_out, c_in, k)
            shapes[f"block{i}.bn.gamma"] = shapes[f"block{i}.bn.beta"] = (c_out,)
            c_in = c_out
        shapes["head.w"] = (self.flat_features(), self.num_classes)
        shapes["head.b"] = (self.num_classes,)
        return shapes


class Encoder:
    """Parameters plus batch-norm state for one classifier instance.

    Construction is fully determined by (config, seed): conv and linear
    weights are Kaiming-uniform with bound sqrt(6 / fan_in), batch-norm
    affine starts at identity, the head bias at zero.
    """

    def __init__(self, config: EncoderConfig, seed: int):
        config.validate()
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.bn_states = [BatchNormState(c_out) for c_out, *_ in config.blocks]
        rng = np.random.default_rng(seed)
        for name, shape in config.param_shapes().items():
            if name.endswith(".w"):
                fan_in = shape[0] if name == "head.w" else shape[1] * shape[2]
                bound = np.sqrt(6.0 / fan_in)
                value = rng.uniform(-bound, bound, size=shape)
            else:
                value = np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)
            self.params[name] = Tensor(value, requires_grad=True)

    def _block(self, i: int, h: Tensor, mode: str) -> Tensor:
        _, _, stride, pool = self.config.blocks[i]
        h = ad.conv1d(h, self.params[f"block{i}.conv.w"], stride=stride)
        h = ad.batchnorm(h, self.params[f"block{i}.bn.gamma"],
                         self.params[f"block{i}.bn.beta"], self.bn_states[i],
                         mode, eps=self.config.bn_eps,
                         momentum_bn=self.config.bn_momentum)
        h = ad.relu(h)
        return ad.avg_pool1d(h, pool)

    def forward(self, x: Tensor, fs: Optional[Callable] = None,
                mode: str = "train") -> tuple[Tensor, Tensor]:
        """Returns (logits, feature map at the insertion layer).

        The insertion-layer activation is registered for gradient capture
        when a tape is recording in train mode, so a backward pass leaves
        its per-sample gradient available for the bank.
        """
        if mode not in ("train", "eval"):
            raise ValidationError(f"mode must be train|eval, got {mode!r}")
        cfg = self.config
        if x.data.ndim != 3 or x.shape[1] != cfg.in_channels or x.shape[2] != cfg.clip_len:
            raise ad.DimensionError(
                f"forward: input {x.shape} does not match "
                f"(B, {cfg.in_channels}, {cfg.clip_len})")
        h = x
        for i in range(cfg.insertion_layer + 1):
            h = self._block(i, h, mode)
        h_l = h
        if mode == "train" and h_l.tape is not None and h_l.tape.recording:
            h_l.tape.capture(h_l)
        logits = self.forward_tail(h_l, fs, mode)
        return logits, h_l

    def forward_tail(self, h_l: Tensor, fs: Optional[Callable], mode: str) -> Tensor:
        """Selection hook plus the blocks after the insertion layer and the
        linear head. Split out so the captured feature map can be treated
        as a leaf (gradient checks re-enter here)."""
        cfg = self.config
        h = fs(h_l, mode) if fs is not None else h_l
        for i in range(cfg.insertion_layer + 1, len(cfg.blocks)):
            h = self._block(i, h, mode)
        flat = ad.reshape(h, (h.shape[0], cfg.flat_features()))
        return ad.add(ad.matmul(flat, self.params["head.w"]), self.params["head.b"])

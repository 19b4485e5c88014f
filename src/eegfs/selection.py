"""Entropy-weighted feature selection driven by banked gradients.

A channel weight vector (from the gradient bank) turns the feature map
into a heat map; per-location channel entropy of the batch-pooled heat
map measures how uncertain each location is, and locations are
re-weighted by one minus their normalized entropy before being fused
back onto the features through a residual connection.

The weight vector is a constant with respect to the current forward
pass; everything downstream of it (heat-map normalization, pooling,
probabilities, entropies, location weights) is differentiable, so the
training gradient flows through the full selection path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, DimensionError, Tensor, ValidationError
from .bank import GradientBank, apply_decay, compute_alpha

_EPS_H = 1e-12  # below this largest entropy every location keeps full weight


class ConfigurationError(RuntimeError):
    """Selector used in a mode its state cannot support."""


@dataclass
class AttributionMap:
    """Per-location weights expanded back to input-signal resolution."""

    lambda_per_location: np.ndarray     # (S,)
    upsampled_per_timestamp: np.ndarray  # (t,)
    clip_id: int
    layer: int


def batch_pool(h: Tensor) -> Tensor:
    """Mean over the batch axis of (B, C, S) -> (C, S)."""
    h = h if isinstance(h, Tensor) else Tensor(h)
    if h.data.ndim != 3:
        raise DimensionError(f"batch_pool: need (B,C,S), got {h.shape}")
    return ad.mean_over_axes(h, (0,))


def heat_map(h: Tensor, alpha: np.ndarray, sel: "FeatureSelector", mode: str) -> Tensor:
    """Channel-weighted feature map, batch-normalized per channel.

    ``alpha`` multiplies each channel of ``h``; the product is normalized
    with ``sel.bn``, the selector's own running statistics, using its
    ``bn_eps`` and ``bn_momentum`` (affine fixed at identity).
    """
    h = h if isinstance(h, Tensor) else Tensor(h)
    if h.data.ndim != 3:
        raise DimensionError(f"heat_map: need (B,C,S), got {h.shape}")
    chans = h.shape[1]
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (chans,):
        raise DimensionError(f"heat_map: alpha shape {alpha.shape} != ({chans},)")
    weighted = ad.mul(h, Tensor(alpha.reshape(chans, 1)))
    return ad.batchnorm(weighted, Tensor(np.ones(chans)), Tensor(np.zeros(chans)),
                        sel.bn, mode, eps=sel.bn_eps, momentum_bn=sel.bn_momentum)


def _entropy_op(p: Tensor, kind: str) -> Tensor:
    """Taped per-location entropy of channel probabilities (C, S) -> (S,)."""
    if kind == "softmax":
        return ad.mul(ad.sum_over_axes(ad.xlogx(p), (0,)), -1.0)
    inner = ad.add(ad.xlogx(p), ad.xlogx(ad.sub(1.0, p)))
    return ad.mul(ad.sum_over_axes(inner, (0,)), -1.0)


class FeatureSelector:
    """Encoder hook mapping a feature map to its selected version: the
    whole selection module of one insertion site.

    Owns the gradient bank, the momentum blend coefficient ``momentum``,
    the entropy activation (``activation_kind``, softmax or sigmoid), the
    heat map's batch-norm running statistics ``bn`` (sized from
    ``bank.channels``) with their ``bn_eps`` and ``bn_momentum``, the one
    channel-weight vector ``alpha`` and the location weights of the last
    pass, ``last_lambda``. Training recomputes ``alpha`` from the bank
    every iteration once the bank is full (before that the hook is an
    exact identity); evaluation reads it as it stands.
    """

    def __init__(self, bank: GradientBank, momentum: float, activation_kind: str = "softmax",
                 bn_eps: float = 1e-5, bn_momentum: float = 0.1):
        if not 0.0 <= momentum <= 1.0:
            raise ValidationError(f"momentum must lie in [0, 1], got {momentum}")
        if activation_kind not in ("softmax", "sigmoid"):
            raise ValidationError(
                f"activation_kind must be softmax|sigmoid, got {activation_kind!r}")
        self.bank = bank
        self.momentum = momentum
        self.activation_kind = activation_kind
        self.bn = BatchNormState(bank.channels)
        self.bn_eps = bn_eps
        self.bn_momentum = bn_momentum
        self.alpha: Optional[np.ndarray] = None        # (C,)
        self.last_lambda: Optional[np.ndarray] = None  # (S,)

    def __call__(self, h: Tensor, mode: str) -> Tensor:
        return fs_forward(h, self.bank, self, mode)


def fs_forward(h: Tensor, bank: GradientBank, sel: FeatureSelector, mode: str) -> Tensor:
    """Full selection pass: weights -> heat map -> entropies -> residual fuse.

    Training first sets ``sel.alpha`` from the bank. Returns ``h`` unchanged
    (the same tensor, bit-exact) while the bank is still warming up in
    training, or while ``sel.alpha`` is unset at eval.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be train|eval, got {mode!r}")

    if mode == "train":
        if not bank.is_full:
            return h
        sel.alpha = compute_alpha(apply_decay(bank.sample_top_k(), bank.decay),
                                  sel.momentum)
    elif sel.alpha is None:
        return h

    v = heat_map(h, sel.alpha, sel, mode)
    pooled = batch_pool(v)
    if sel.activation_kind == "softmax":
        p = ad.softmax(pooled, axis=0)
    else:
        p = ad.sigmoid(pooled)
    entropies = _entropy_op(p, sel.activation_kind)

    hmax = ad.max_over_axis(entropies, 0)
    if float(hmax.data) < _EPS_H:
        lam = Tensor(np.ones(h.shape[2]))
    else:
        lam = ad.sub(1.0, ad.div(entropies, hmax))
    sel.last_lambda = lam.data.copy()

    return ad.add(h, ad.mul(v, lam))


def export_attribution(sel: FeatureSelector, clip, stride_product: int,
                       layer: int = 0) -> AttributionMap:
    """Expand the selector's last location weights (``sel.last_lambda``) to
    raw-signal resolution.

    Nearest-neighbor upsampling by the encoder's cumulative temporal
    reduction factor; timestamps past the covered span (convolution edge
    loss) take the last location's weight.
    """
    if sel.last_lambda is None:
        raise ConfigurationError("no location weights recorded yet; run a forward pass")
    if stride_product < 1:
        raise ValidationError(f"stride_product must be >= 1, got {stride_product}")
    lam = sel.last_lambda
    t_len = clip.data.shape[1]
    idx = np.minimum(np.arange(t_len) // stride_product, len(lam) - 1)
    return AttributionMap(
        lambda_per_location=lam.copy(),
        upsampled_per_timestamp=lam[idx],
        clip_id=clip.clip_id,
        layer=layer,
    )


def write_attribution_csv(amap: AttributionMap, path) -> None:
    """CSV with one row per sample point: ``timestamp,weight`` (9 sig. digits)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["timestamp", "weight"])
        for ts, w in enumerate(amap.upsampled_per_timestamp):
            writer.writerow([ts, f"{w:.9g}"])

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

``export_attribution`` expands the last pass's location weights to one
weight per input timestamp, and ``write_attribution_csv`` writes them.
"""

from __future__ import annotations

import csv
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, DimensionError, Tensor, ValidationError, check_integer
from .bank import GradientBank, apply_decay, compute_alpha
from .encoder import ACTIVATIONS

_EPS_H = 1e-12  # below this largest entropy every location keeps full weight


def heat_map(h: Tensor, sel: "FeatureSelector", mode: str) -> Tensor:
    """Channel-weighted feature map, batch-normalized per channel.

    ``sel.alpha`` multiplies each channel of ``h``; the product is
    normalized with ``sel.bn``, the selector's own running statistics
    (affine fixed at identity).
    """
    if h.data.ndim != 3:
        raise DimensionError(f"heat_map: need (B,C,S), got {h.shape}")
    chans = h.shape[1]
    alpha = np.asarray(sel.alpha, dtype=np.float64)
    if alpha.shape != (chans,):
        raise DimensionError(f"heat_map: alpha shape {alpha.shape} != ({chans},)")
    weighted = ad.mul(h, Tensor(alpha.reshape(chans, 1)))
    return ad.batchnorm(weighted, Tensor(np.ones(chans)), Tensor(np.zeros(chans)), sel.bn, mode)


class FeatureSelector:
    """Encoder hook mapping a feature map to its selected version: the
    whole selection module of one insertion site.

    Owns the gradient bank, the momentum blend coefficient ``momentum``,
    the entropy activation (``activation``, softmax or sigmoid), the
    heat map's batch-norm running statistics ``bn`` (sized from
    ``bank.channels``), the one channel-weight vector ``alpha`` and the
    location weights of the last pass, ``last_lambda``. Training
    recomputes ``alpha`` from the bank every iteration once the bank is
    full (before that the hook is an exact identity); evaluation reads it
    as it stands.
    """

    def __init__(self, bank: GradientBank, momentum: float, activation: str = "softmax"):
        if not 0.0 <= momentum <= 1.0:
            raise ValidationError(f"momentum must lie in [0, 1], got {momentum}")
        if activation not in ACTIVATIONS:
            raise ValidationError(f"activation must be softmax|sigmoid, got {activation!r}")
        self.bank = bank
        self.momentum = momentum
        self.activation = activation
        self.bn = BatchNormState(bank.channels)
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

    v = heat_map(h, sel, mode)
    pooled = ad.mean_over_axes(v, (0,))  # (C, S)
    if sel.activation == "softmax":
        p = ad.softmax(pooled, axis=0)
        plogp = ad.xlogx(p)
    else:
        p = ad.sigmoid(pooled)
        plogp = ad.add(ad.xlogx(p), ad.xlogx(ad.sub(1.0, p)))
    entropies = ad.mul(ad.sum_over_axes(plogp, (0,)), -1.0)  # (S,)

    hmax = ad.max_over_axis(entropies, 0)
    if float(hmax.data) < _EPS_H:
        lam = Tensor(np.ones(h.shape[2]))
    else:
        lam = ad.sub(1.0, ad.div(entropies, hmax))
    sel.last_lambda = lam.data.copy()

    return ad.add(h, ad.mul(v, lam))


def export_attribution(sel: FeatureSelector, clip, stride_product: int) -> np.ndarray:
    """The selector's last location weights (``sel.last_lambda``) expanded
    to ``clip``'s raw-signal resolution: one weight per timestamp, (T,).

    Nearest-neighbor upsampling by the encoder's cumulative temporal
    reduction factor; timestamps past the covered span (convolution edge
    loss) take the last location's weight.
    """
    if sel.last_lambda is None:
        raise ValidationError("no location weights recorded yet; run a forward pass")
    check_integer("stride_product", stride_product, minimum=1)
    lam = sel.last_lambda
    idx = np.minimum(np.arange(clip.data.shape[1]) // stride_product, len(lam) - 1)
    return lam[idx]


def write_attribution_csv(weights: np.ndarray, path) -> None:
    """CSV with one row per sample point: ``timestamp,weight`` (9 sig. digits)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["timestamp", "weight"])
        for ts, w in enumerate(weights):
            writer.writerow([ts, f"{w:.9g}"])

"""Training and evaluation loops, Adam optimization, checkpointing.

Each training iteration runs the encoder with the selection hook under a
fresh tape, backpropagates the mean cross-entropy, pushes the captured
feature-map gradient into the bank, and applies one Adam step. The
channel weights therefore always derive from gradients of *previous*
iterations. Shuffling is counter-based (seed plus epoch number), so a
run can be stopped at any epoch boundary and resumed bit-exactly.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ValidationError
from .bank import BankUsageError, GradientBank, NonFiniteGradientError
from .data import BinaryReader, Dataset, ParseError, pack
from .encoder import ACTIVATIONS, Encoder, EncoderConfig
from .metrics import MetricsReport, report
from .selection import FeatureSelector

CHECKPOINT_MAGIC = b"IEFS"
CHECKPOINT_VERSION = 1
_DTYPE_F64 = 1


class DivergenceError(RuntimeError):
    """Loss or captured gradient became non-finite; carries the failing
    iteration index."""

    def __init__(self, iteration: int, value: float, what: str = "loss"):
        super().__init__(f"non-finite {what} ({value}) at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-4
    weight_decay: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 42
    bank_size: int = 8         # iterations of history searched (grid key "q")
    top_k: int = 1             # gradients kept per anchor (grid key "K")
    momentum: float = 0.2      # historical/recent blend (grid key "m")
    decay: float = 0.25        # per-age attenuation (grid key "gamma")
    fs_enabled: bool = True
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.seed < 0:
            raise ValidationError("epochs and batch_size must be positive, seed >= 0")
        if self.bank_size < 1 or self.top_k < 1:
            raise ValidationError(
                f"bank_size {self.bank_size} and top_k {self.top_k} must be >= 1")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValidationError(f"momentum {self.momentum} outside [0, 1]")
        if not 0.0 < self.decay <= 1.0:
            raise ValidationError(f"decay {self.decay} outside (0, 1]")
        if not (0.0 < self.lr < math.inf and 0.0 <= self.weight_decay < math.inf):
            raise ValidationError("lr must be finite and > 0, weight_decay finite and >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0
                and 0.0 < self.adam_eps < math.inf):
            raise ValidationError(
                f"adam_beta1 {self.adam_beta1} and adam_beta2 {self.adam_beta2} must lie "
                f"in [0, 1), adam_eps {self.adam_eps} be finite and > 0")
        self.encoder.validate()


@dataclass
class EpochRow:
    epoch: int
    split: str
    loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    auroc: Optional[float]

    @classmethod
    def from_scores(cls, epoch: int, split: str, loss: float,
                    scores: list[tuple[float, int]]) -> "EpochRow":
        r = report(scores)
        return cls(epoch=epoch, split=split, loss=loss, accuracy=r.accuracy,
                   precision=r.precision, recall=r.recall, f1=r.f1, auroc=r.auroc)


def format_metric(v: Optional[float]) -> str:
    """A logged metric as CSV text: 6 decimal places, an absent AUROC as nan."""
    return "nan" if v is None else f"{v:.6f}"


def write_metrics_csv(rows: list[EpochRow], path) -> None:
    with open(path, "w") as f:
        f.write("epoch,split,loss,acc,precision,recall,f1,auroc\n")
        for r in rows:
            metrics = (r.loss, r.accuracy, r.precision, r.recall, r.f1, r.auroc)
            f.write(f"{r.epoch},{r.split},{','.join(map(format_metric, metrics))}\n")


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamMoments:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, Tensor]) -> "AdamMoments":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def adam_update(theta: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int, lr: float, weight_decay: float, beta1: float,
                beta2: float, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam step with decoupled weight decay applied
    before the moment update."""
    theta = theta * (1.0 - lr * weight_decay)
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    return theta - lr * mhat / (np.sqrt(vhat) + eps), m, v


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              moments: AdamMoments, config: TrainConfig) -> None:
    """Update every parameter in place (sorted order for determinism)."""
    moments.t += 1
    for name in sorted(params):
        p = params[name]
        if p.data.shape != grads[name].shape:
            raise ad.DimensionError(
                f"adam_step: grad shape {grads[name].shape} != param {p.data.shape} "
                f"for {name}")
        p.data, moments.m[name], moments.v[name] = adam_update(
            p.data, grads[name], moments.m[name], moments.v[name], moments.t,
            config.lr, config.weight_decay, config.adam_beta1,
            config.adam_beta2, config.adam_eps)


# ---------------------------------------------------------------------------
# Checkpoint container


def _config_fields(cls, prefix: str):
    """(field, checkpoint tensor name) for every stored field of a config
    dataclass; the nested encoder config is stored under its own prefix."""
    for f in fields(cls):
        if f.name != "encoder":
            yield f, prefix + ("activation" if f.name == "activation_kind" else f.name)


def _encode(value) -> np.ndarray:
    if isinstance(value, str):
        value = ACTIVATIONS.index(value)
    return np.asarray(value, dtype=np.float64)


def _decode(default, arr: np.ndarray, name: str):
    """Inverse of ``_encode``, picked by the type of the field's default.
    A value that no such field can hold raises ValidationError."""
    blocks = isinstance(default, tuple)
    shape_ok = arr.ndim == 2 and arr.shape[1] == len(default[0]) if blocks else arr.size == 1
    integral = isinstance(default, float) or np.array_equal(arr, np.round(arr))
    if not (shape_ok and np.isfinite(arr).all() and integral):
        raise ValidationError(f"checkpoint tensor {name!r} of shape {arr.shape} is "
                              f"no valid {type(default).__name__} value")
    if blocks:
        return tuple(tuple(int(x) for x in row) for row in arr)
    v = float(arr.reshape(()))
    if isinstance(default, (str, bool)) and v not in (0.0, 1.0):
        raise ValidationError(f"checkpoint tensor {name!r}: unknown code {v}")
    return ACTIVATIONS[int(v)] if isinstance(default, str) else type(default)(v)


@dataclass
class Checkpoint:
    """Named-tensor container; everything (counters included) is float64."""

    tensors: dict[str, np.ndarray]

    def tensor(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise ValidationError(f"checkpoint lacks tensor {name!r}") from None

    def tensor_like(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A copy of tensor ``name``, which must have the given shape."""
        arr = self.tensor(name)
        if arr.shape != shape:
            raise ValidationError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                                  f"its config implies {shape}")
        return arr.copy()

    def counter(self, name: str) -> int:
        """An integer counter; a non-integral value raises ValidationError."""
        return _decode(0, self.tensor(name), name)

    @property
    def epoch(self) -> int:
        return self.counter("state/epoch")

    @property
    def frozen_alpha(self) -> Optional[np.ndarray]:
        return self.tensors.get("alpha/frozen")

    def config(self) -> TrainConfig:
        def build(cls, prefix, **nested):
            return cls(**{f.name: _decode(f.default, self.tensor(name), name)
                          for f, name in _config_fields(cls, prefix)}, **nested)

        return build(TrainConfig, "config/", encoder=build(EncoderConfig, "config/enc."))


def _config_tensors(config: TrainConfig) -> dict[str, np.ndarray]:
    return {name: _encode(getattr(obj, f.name))
            for obj, prefix in ((config, "config/"), (config.encoder, "config/enc."))
            for f, name in _config_fields(type(obj), prefix)}


def save(ckpt: Checkpoint, path) -> None:
    """Magic, version, tensor count, then sorted named f64 tensors.
    Every tensor is converted and its header packed before the file is
    opened, so a tensor the format cannot hold raises ValidationError
    naming it and leaves an existing file intact."""
    records = []
    for name in sorted(ckpt.tensors):
        what = f"checkpoint tensor {name!r}"
        try:
            # keeps a rank-0 tensor rank 0 and copies no C-order <f8 array
            arr = np.require(ckpt.tensors[name], "<f8", "C")
            encoded = name.encode("utf-8")
        except (TypeError, ValueError) as e:
            raise ValidationError(f"{what}: {e}") from None
        dims = {f"dim {i}": n for i, n in enumerate(arr.shape)}
        records.append((pack("<H", what, name_length=len(encoded)) + encoded
                        + struct.pack("<BB", _DTYPE_F64, arr.ndim)
                        + pack(f"<{arr.ndim}I", what, **dims), arr))
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(records)))
        for head, arr in records:
            f.write(head)
            f.write(arr.data)


def load(path) -> Checkpoint:
    with open(path, "rb") as f:
        r = BinaryReader(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint version")
        (count,) = r.unpack("<I", "tensor count")
        tensors: dict[str, np.ndarray] = {}
        for i in range(count):
            name = r.name(f"tensor {i} name")
            dtype, rank = r.unpack("<BB", f"{name} dtype/rank")
            if dtype != _DTYPE_F64:
                raise ParseError(r.offset - 2, f"{name}: unknown dtype tag {dtype}")
            dims_at = r.offset
            dims = r.unpack(f"<{rank}I", f"{name} dims")
            payload = r.take(8 * math.prod(dims), f"{name} payload")  # exact, no int64 wrap
            try:
                tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            except ValueError:  # e.g. a zero dim beside dims whose product numpy cannot index
                raise ParseError(dims_at,
                                 f"{name}: dims {dims} exceed numpy's array size") from None
        r.finish()
    return Checkpoint(tensors=tensors)


def _model_arrays(enc: Encoder, sel: Optional[FeatureSelector]):
    """(checkpoint name, holder, attribute) of every model array a
    checkpoint stores: parameters and batch-norm running statistics."""
    for name, p in enc.params.items():
        yield f"param/{name}", p, "data"
    for i, st in enumerate(enc.bn_states):
        yield f"state/bn.enc.{i}.mean", st, "mean"
        yield f"state/bn.enc.{i}.var", st, "var"
    if sel is not None:
        yield "state/bn.fs.mean", sel.bn, "mean"
        yield "state/bn.fs.var", sel.bn, "var"


def _build_checkpoint(config: TrainConfig, enc: Encoder,
                      sel: Optional[FeatureSelector], moments: AdamMoments,
                      epoch: int, iteration: int) -> Checkpoint:
    tensors = _config_tensors(config)
    for name, holder, attr in _model_arrays(enc, sel):
        tensors[name] = getattr(holder, attr).copy()
    for name in enc.params:
        tensors[f"adam/m/{name}"] = moments.m[name].copy()
        tensors[f"adam/v/{name}"] = moments.v[name].copy()
    tensors["adam/t"] = np.asarray(float(moments.t))
    tensors["state/epoch"] = np.asarray(float(epoch))
    tensors["state/iteration"] = np.asarray(float(iteration))
    if sel is not None:
        for idx, (it, grads) in enumerate(sel.bank.snapshot()):
            tensors[f"bank/{idx:04d}/iter"] = np.asarray(float(it))
            tensors[f"bank/{idx:04d}/grads"] = grads
        if sel.alpha is not None:  # both names kept for the file format
            tensors["alpha/current"] = sel.alpha.copy()
            tensors["alpha/frozen"] = sel.alpha.copy()
    return Checkpoint(tensors=tensors)


def _make_selector(config: TrainConfig) -> FeatureSelector:
    ec = config.encoder
    chans, spat = ec.feature_shape()
    bank = GradientBank(capacity=config.bank_size, top_k=config.top_k,
                        decay=config.decay, channels=chans, spatial=spat)
    return FeatureSelector(bank, config.momentum, ec.activation_kind, ec.bn_eps, ec.bn_momentum)


def restore_model(ckpt: Checkpoint) -> tuple[TrainConfig, Encoder, Optional[FeatureSelector]]:
    """Rebuild an evaluable model from a checkpoint.

    The stored parameter shapes are checked against the decoded config
    before the model it describes is allocated; every array that
    ``_model_arrays`` names is then put back with its shape checked. The
    selector's channel weights come from ``alpha/frozen`` and stay unset
    when it is absent. A checkpoint that does not fit its own config
    raises ValidationError.
    """
    config = ckpt.config()
    config.validate()
    for name, shape in config.encoder.param_shapes().items():
        ckpt.tensor_like(f"param/{name}", shape)
    enc = Encoder(config.encoder, seed=config.seed)
    sel = _make_selector(config) if config.fs_enabled else None
    for name, holder, attr in _model_arrays(enc, sel):
        setattr(holder, attr, ckpt.tensor_like(name, getattr(holder, attr).shape))
    if sel is not None:
        iters = sorted(n for n in ckpt.tensors if n.startswith("bank/") and n.endswith("/iter"))
        entries = [(ckpt.counter(n), ckpt.tensor(n[:-len("iter")] + "grads")) for n in iters]
        try:
            sel.bank.restore(entries)
        except (ad.DimensionError, BankUsageError) as e:
            raise ValidationError(f"checkpoint bank rejected: {e}") from None
        if ckpt.frozen_alpha is not None:
            sel.alpha = ckpt.tensor_like("alpha/frozen", sel.bn.mean.shape)
    return config, enc, sel


# ---------------------------------------------------------------------------
# Loops


def check_dataset_shape(encoder: EncoderConfig, ds: Dataset) -> None:
    """Raise ValidationError unless the dataset's clips fit the encoder's input."""
    if (ds.channels, ds.timestamps) != (encoder.in_channels, encoder.clip_len):
        raise ValidationError(
            f"dataset shape ({ds.channels}, {ds.timestamps}) does not "
            f"match encoder ({encoder.in_channels}, {encoder.clip_len})")


def check_train_inputs(config: TrainConfig, ds_train: Dataset, ds_val: Dataset) -> None:
    """Every check ``train`` makes before it builds a model: a valid config
    and non-empty train and validation sets whose clips fit the encoder."""
    config.validate()
    if not ds_train.clips or not ds_val.clips:
        raise ValidationError("train and validation datasets must be non-empty")
    check_dataset_shape(config.encoder, ds_train)
    check_dataset_shape(config.encoder, ds_val)


def _batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _stack(ds: Dataset, idx) -> tuple[Tensor, np.ndarray]:
    x = np.stack([ds.clips[i].data for i in idx], dtype=np.float64)  # one widening pass
    y = np.array([ds.clips[i].label for i in idx], dtype=np.int64)
    return Tensor(x), y


def _positive_probs(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True))[:, 1]


def _run_eval(enc: Encoder, sel: Optional[FeatureSelector], ds: Dataset,
              batch_size: int) -> tuple[list[tuple[float, int]], float]:
    if not ds.clips:
        raise ValidationError("evaluation dataset must be non-empty")
    scores: list[tuple[float, int]] = []
    loss_sum = 0.0
    for start in range(0, len(ds.clips), batch_size):
        idx = range(start, min(start + batch_size, len(ds.clips)))
        x, y = _stack(ds, idx)
        logits, _ = enc.forward(x, fs=sel, mode="eval")
        loss_sum += ad.cross_entropy_logits(logits, y).item() * len(y)
        for p, label in zip(_positive_probs(logits.data), y):
            scores.append((float(p), int(label)))
    return scores, loss_sum / len(ds.clips)


@dataclass
class TrainResult:
    final: Checkpoint
    best: Checkpoint
    best_epoch: int
    log: list[EpochRow]
    alpha_trajectory_sha256: Optional[str]


def _train_step(config: TrainConfig, enc: Encoder, sel: Optional[FeatureSelector],
                moments: AdamMoments, traj, ds: Dataset, idx,
                iteration: int) -> tuple[float, np.ndarray, np.ndarray]:
    """One optimisation step on the clips ``idx``; returns the batch loss,
    the positive-class probabilities and the labels. The step's tape and
    activations are freed when it returns, before anything else runs."""
    x, y = _stack(ds, idx)
    tape = ad.Tape()
    with tape:
        logits, h_l = enc.forward(x, fs=sel, mode="train")
        loss = ad.cross_entropy_logits(logits, y)
    loss_val = loss.item()
    if not np.isfinite(loss_val):
        raise DivergenceError(iteration, loss_val)
    ad.backward(loss, tape)
    if sel is not None:
        try:
            sel.bank.push(iteration, h_l.grad)
        except NonFiniteGradientError as e:
            raise DivergenceError(iteration, e.sq_norm,
                                  "captured-gradient squared norm") from e
        if sel.alpha is not None:
            traj.update(sel.alpha.tobytes())
    adam_step(enc.params, {k: p.grad for k, p in enc.params.items()}, moments, config)
    return loss_val, _positive_probs(logits.data), y


def train(config: TrainConfig, ds_train: Dataset, ds_val: Dataset,
          resume: Optional[Checkpoint] = None) -> TrainResult:
    """Full training run; returns the final checkpoint, the best-validation
    checkpoint, and the per-epoch metrics log.

    With ``resume``, continues from the checkpoint's epoch to
    ``config.epochs``; the checkpoint's configuration must match (the
    epoch budget may differ). The combined log of the interrupted and
    resumed runs is identical to an uninterrupted run's.
    """
    check_train_inputs(config, ds_train, ds_val)
    enc = Encoder(config.encoder, seed=config.seed)
    sel = _make_selector(config) if config.fs_enabled else None
    moments = AdamMoments.zeros_like(enc.params)
    start_epoch = 0
    iteration = 0

    if resume is not None:
        saved = resume.config()
        if replace(saved, epochs=0) != replace(config, epochs=0):
            raise ValidationError(
                "resume checkpoint configuration does not match the active one")
        _, enc, sel = restore_model(resume)
        for name, p in enc.params.items():
            moments.m[name] = resume.tensor_like(f"adam/m/{name}", p.shape)
            moments.v[name] = resume.tensor_like(f"adam/v/{name}", p.shape)
        moments.t = resume.counter("adam/t")
        start_epoch = resume.epoch
        iteration = resume.counter("state/iteration")
        if start_epoch >= config.epochs:
            raise ValidationError(
                f"checkpoint is already at epoch {start_epoch}; nothing to resume "
                f"within an epoch budget of {config.epochs}")

    log: list[EpochRow] = []
    traj = hashlib.sha256() if config.fs_enabled else None
    best: Optional[Checkpoint] = None
    best_epoch = 0
    best_acc = -1.0

    for epoch in range(start_epoch + 1, config.epochs + 1):
        rng = np.random.default_rng([config.seed, epoch])
        train_scores: list[tuple[float, int]] = []
        loss_sum = 0.0
        for idx in _batches(len(ds_train.clips), config.batch_size, rng):
            iteration += 1
            loss_val, probs, y = _train_step(config, enc, sel, moments, traj,
                                             ds_train, idx, iteration)
            loss_sum += loss_val * len(y)
            for p, label in zip(probs, y):
                train_scores.append((float(p), int(label)))

        log.append(EpochRow.from_scores(epoch, "train", loss_sum / len(ds_train.clips),
                                        train_scores))
        val_scores, val_loss = _run_eval(enc, sel, ds_val, config.batch_size)
        val_row = EpochRow.from_scores(epoch, "val", val_loss, val_scores)
        log.append(val_row)

        if val_row.accuracy > best_acc:
            best_acc = val_row.accuracy
            best_epoch = epoch
            best = _build_checkpoint(config, enc, sel, moments, epoch, iteration)

    final = _build_checkpoint(config, enc, sel, moments, config.epochs, iteration)
    assert best is not None
    return TrainResult(final=final, best=best, best_epoch=best_epoch, log=log,
                       alpha_trajectory_sha256=traj.hexdigest() if traj else None)


def predict(ckpt: Checkpoint, ds: Dataset,
            batch_size: int = 64) -> tuple[list[tuple[float, int]], float]:
    """Eval-mode (positive-class probability, label) per clip and the mean
    loss of a checkpoint's model, selecting with its saved channel weights
    (none: selection is the identity)."""
    config, enc, sel = restore_model(ckpt)
    check_dataset_shape(config.encoder, ds)
    return _run_eval(enc, sel, ds, batch_size)


def evaluate(ckpt: Checkpoint, ds: Dataset, batch_size: int = 64) -> MetricsReport:
    """Eval-mode metrics of a completed checkpoint on a dataset."""
    if ckpt.config().fs_enabled and ckpt.frozen_alpha is None:
        raise ValidationError(
            "checkpoint has no frozen channel weights; evaluation with the "
            "selection module enabled requires a completed training run")
    return report(predict(ckpt, ds, batch_size)[0])

"""Entropy-weighted feature selection with a gradient memory bank, on a
self-contained 1-D CNN pipeline for multichannel signal classification."""

from .autodiff import (
    BatchNormState,
    DimensionError,
    DivergenceError,
    Tape,
    Tensor,
    UsageError,
    ValidationError,
    backward,
)
from .bank import (
    GradientBank,
    SampledGradients,
    apply_decay,
    compute_alpha,
)
from .data import CorpusSpec, Dataset, EegClip, ParseError, generate, read, split, write
from .encoder import Encoder, EncoderConfig
from .metrics import MetricsReport, UndefinedMetricError, auroc, confusion, rates, report
from .selection import (
    FeatureSelector,
    export_attribution,
    fs_forward,
    heat_map,
)
from .training import (
    Checkpoint,
    TrainConfig,
    TrainResult,
    adam_step,
    evaluate,
    load,
    predict,
    save,
    train,
)

__version__ = "0.1.0"

"""The benchmark's tracer (``bench/tracing.py``) times eegfs by replacing
module attributes and methods from outside the package. A name it patches
that eegfs no longer has makes entering the tracer raise KeyError; a
changed signature makes a traced run fail."""

import importlib.util
from pathlib import Path

import numpy as np

from eegfs import selection
from eegfs.data import CorpusSpec, generate, split
from eegfs.training import EpochRow, TrainConfig, train

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer((32, 64))  # the default encoder's block widths


def test_tracer_patches_and_restores_every_name():
    fs_forward = selection.fs_forward
    tracer = _tracer()
    with tracer.active():
        assert selection.fs_forward is not fs_forward
    assert selection.fs_forward is fs_forward


def test_traced_run_reaches_every_layer():
    ds = generate(CorpusSpec(n_clips=24, n_groups=4))
    tr, va, _ = split(ds, (0.5, 0.25, 0.25), by_group=True, seed=1)
    tracer = _tracer()
    with tracer.active():
        train(TrainConfig(epochs=1, batch_size=4, bank_size=1), tr, va)
    names = {s.name for s in tracer.spans}
    # bank.alpha spans show that training computes alpha through the names the tracer wraps
    assert {"selection.forward", "selection.bwd", "bank.sample_top_k", "bank.alpha",
            "bank.push", "autodiff.backward", "training.adam_step"} <= names


def test_epoch_rows_report_through_the_patched_name():
    tracer = _tracer()
    with tracer.active():
        row = EpochRow.from_scores(1, "val", 0.5, np.array([0.2, 0.9]), np.array([0, 1]))
    assert [s.name for s in tracer.spans] == ["metrics.report"]
    assert (row.tp, row.tn, row.accuracy, row.auroc) == (1, 1, 1.0, 1.0)

"""The benchmark's tracer (``bench/tracing.py``) times eegfs by replacing
module attributes and methods from outside the package. A name it patches
that eegfs no longer has makes entering the tracer raise KeyError; a
changed signature makes a traced run fail."""

import importlib.util
from pathlib import Path

from eegfs import selection
from eegfs.data import CorpusSpec, generate, split
from eegfs.training import TrainConfig, train

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
    assert {"selection.forward", "selection.bwd", "bank.sample_top_k", "bank.push",
            "autodiff.backward", "training.adam_step"} <= names

"""Bounded fuzz tests of the two binary formats: a corrupted corpus or
checkpoint file either parses or raises ParseError/ValidationError,
never a stray exception; a truncated one always raises ParseError. Past
parsing, a checkpoint whose config values are corrupt makes ``config()``
raise ValidationError, and ``restore_model`` a typed error."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eegfs.autodiff import ValidationError
from eegfs.data import CorpusSpec, Dataset, EegClip, ParseError, generate, read, split, write
from eegfs.encoder import EncoderConfig
from eegfs.training import Checkpoint, TrainConfig, load, restore_model, save, train

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _corpus_bytes(path):
    rng = np.random.default_rng(0)
    clips = [EegClip(clip_id=i, group_id=i % 2, label=i % 2,
                     data=rng.standard_normal((2, 8)).astype(np.float32).astype(np.float64))
             for i in range(3)]
    write(Dataset(channels=2, timestamps=8, sample_rate=250, n_groups=2, clips=clips), path)
    return path.read_bytes()


def _checkpoint_bytes(path):
    rng = np.random.default_rng(1)
    save(Checkpoint({"a/scalar": np.asarray(3.0), "b/vector": rng.standard_normal(4),
                     "c/matrix": rng.standard_normal((2, 3)),
                     "d/cube": rng.standard_normal((2, 1, 2))}), path)
    return path.read_bytes()


def _corpus_dims(raw):
    """Offsets of the corpus header's clip count, channels and timestamps."""
    return [6, 10, 14]


def _checkpoint_dims(raw):
    """Offsets of every u32 dimension field, found by walking the layout."""
    (count,) = struct.unpack_from("<I", raw, 6)
    off, dims = 10, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", raw, off)
        off += 2 + n
        (rank,) = struct.unpack_from("<B", raw, off + 1)
        off += 2
        shape = struct.unpack_from(f"<{rank}I", raw, off)
        dims += [off + 4 * i for i in range(rank)]
        off += 4 * rank + 8 * math.prod(shape)
    return dims


FORMATS = {
    "corpus": (_corpus_bytes, read, _corpus_dims),
    "checkpoint": (_checkpoint_bytes, load, _checkpoint_dims),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request, tmp_path):
    make, parse, dims = FORMATS[request.param]
    path = tmp_path / f"{request.param}.bin"
    raw = make(path)
    parse(path)  # the uncorrupted file parses

    def attempt(blob):
        path.write_bytes(blob)
        try:
            parse(path)
        except (ParseError, ValidationError) as e:
            return e
        return None

    return raw, attempt, dims(raw)


@FUZZ
@given(data=st.data())
def test_truncation_raises_parse_error(fmt, data):
    raw, attempt, _ = fmt
    cut = data.draw(st.integers(0, len(raw) - 1))
    assert isinstance(attempt(raw[:cut]), ParseError)


@FUZZ
@given(data=st.data())
def test_bit_flips_parse_or_raise_typed_errors(fmt, data):
    raw, attempt, _ = fmt
    blob = bytearray(raw)
    for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)):
        blob[bit // 8] ^= 1 << (bit % 8)
    attempt(bytes(blob))


@FUZZ
@given(data=st.data())
def test_oversized_dims_parse_or_raise_typed_errors(fmt, data):
    raw, attempt, dims = fmt
    blob = bytearray(raw)
    at = data.draw(st.sampled_from(dims))
    value = data.draw(st.integers(2 ** 8, 2 ** 32 - 1))
    blob[at:at + 4] = struct.pack("<I", value)
    attempt(bytes(blob))


@pytest.fixture(scope="module")
def trained():
    """Final checkpoint of a tiny run with selection on and its weights set."""
    ds = generate(CorpusSpec(n_clips=32, channels=2, timestamps=80, n_groups=4,
                             spike_channel_span=2, seed=3))
    tr, va, _ = split(ds, (0.5, 0.25, 0.25), by_group=True, seed=1)
    enc = EncoderConfig(in_channels=2, clip_len=80, blocks=((2, 3, 1, 2), (2, 3, 1, 2)))
    ckpt = train(TrainConfig(epochs=1, batch_size=4, bank_size=1, encoder=enc), tr, va).final
    assert ckpt.frozen_alpha is not None
    return ckpt


@pytest.mark.parametrize("name, value", [
    ("config/epochs", np.asarray(math.nan)),
    ("config/epochs", np.asarray(math.inf)),
    ("config/epochs", np.asarray(2.5)),
    ("config/fs_enabled", np.asarray(0.5)),
    ("config/enc.blocks", np.ones(4)),
    ("config/enc.blocks", np.ones((2, 3))),
    ("config/batch_size", np.ones(2)),
])
def test_corrupt_config_value_raises_validation_error(trained, name, value):
    with pytest.raises(ValidationError, match=name):
        Checkpoint({**trained.tensors, name: value}).config()


def test_oversized_config_rejected_before_allocating_its_model(trained):
    ckpt = Checkpoint({**trained.tensors, "config/enc.in_channels": np.asarray(2e6)})
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="param/block0.conv.w"):
            restore_model(ckpt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# Integers stay small so that any model a corrupt config describes is cheap.
CONFIG_VALUES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.5, 2.5]),
                          st.integers(0, 9).map(float))


@FUZZ
@given(data=st.data())
def test_corrupt_config_values_raise_typed_errors(trained, data):
    tensors = dict(trained.tensors)
    name = data.draw(st.sampled_from(sorted(n for n in tensors if n.startswith("config/"))))
    value = data.draw(CONFIG_VALUES)
    if data.draw(st.booleans()):  # one element replaced in place
        arr = tensors[name].copy()
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = value
    else:  # a value of another shape
        arr = np.full(data.draw(st.lists(st.integers(0, 3), max_size=3)), value)
    tensors[name] = arr
    ckpt = Checkpoint(tensors)
    try:
        ckpt.config()
    except ValidationError:
        return
    try:
        restore_model(ckpt)
    except ValidationError:
        pass

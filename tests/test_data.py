"""Corpus generation, splitting, and file-format tests."""

import sys
import threading

import numpy as np
import pytest

from eegfs import data as data_module
from eegfs.autodiff import ValidationError
from eegfs.data import CorpusSpec, Dataset, EegClip, ParseError, generate, read, split, write

from _oracles import generate_loop


def _small_spec(**kw):
    defaults = dict(n_clips=24, channels=4, timestamps=250, n_groups=6, seed=7)
    defaults.update(kw)
    return CorpusSpec(**defaults)


_CHUNK = data_module._CHUNK
_CHUNK_SIZES = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)


class TestGenerate:
    def test_deterministic(self, tmp_path):
        d1 = generate(_small_spec())
        d2 = generate(_small_spec())
        assert d1.same_content(d2)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write(d1, p1)
        write(d2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_exact_class_balance(self):
        d = generate(_small_spec(n_clips=8, n_groups=4, class_balance=0.5))
        assert sum(c.label for c in d.clips) == 4
        d = generate(_small_spec(n_clips=10, n_groups=5, class_balance=0.3))
        assert sum(c.label for c in d.clips) == 3

    def test_default_shape_matches_contract(self):
        spec = CorpusSpec(n_clips=2, n_groups=2)
        d = generate(spec)
        assert (d.channels, d.timestamps, d.sample_rate) == (16, 250, 250)
        assert d.clips[0].data.shape == (16, 250)

    def test_spike_dominates_noise_in_window(self):
        spec = _small_spec(n_clips=100, noise_sigma=1.0, spike_amplitude=5.0)
        d = generate(spec)
        positives = [c for c in d.clips if c.label == 1]
        assert positives
        for c in positives:
            lo, hi = c.spike_window
            assert np.abs(c.data[:, lo:hi + 1]).max() > 3.0 * spec.noise_sigma

    def test_negative_clips_have_no_window(self):
        d = generate(_small_spec())
        assert all(c.spike_window is None for c in d.clips if c.label == 0)

    def test_groups_partition_clips(self):
        d = generate(_small_spec(n_clips=24, n_groups=6))
        assert {c.group_id for c in d.clips} == set(range(6))

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValidationError):
            generate(_small_spec(spike_channel_span=99))
        with pytest.raises(ValidationError):
            generate(_small_spec(noise_sigma=0.0))
        with pytest.raises(ValidationError):
            generate(_small_spec(timestamps=30))  # spike cannot fit

    @pytest.mark.parametrize("field, value", [
        ("sample_rate", 0),
        ("noise_sigma", float("nan")),
        ("noise_sigma", float("inf")),
        ("spike_amplitude", float("nan")),
        ("spike_amplitude", float("inf")),
        ("seed", -1),
    ])
    def test_out_of_range_spec_rejected(self, field, value):
        with pytest.raises(ValidationError):
            generate(_small_spec(**{field: value}))

    @pytest.mark.parametrize("spec", [
        CorpusSpec(n_clips=300),
        CorpusSpec(n_clips=30, channels=1, spike_channel_span=1, n_groups=5),
        CorpusSpec(n_clips=30, sample_rate=97, timestamps=100, n_groups=5),
        CorpusSpec(n_clips=30, noise_sigma=2.5, spike_amplitude=1.5, n_groups=5),
        CorpusSpec(n_clips=12, class_balance=0.0, n_groups=3),
        CorpusSpec(n_clips=12, class_balance=1.0, n_groups=3),
    ] + [
        # chunk boundaries of the two-stage pipeline, spike windows included
        CorpusSpec(n_clips=n, channels=4, class_balance=balance, n_groups=1, seed=3)
        for n in _CHUNK_SIZES for balance in (0.0, 0.5, 1.0)
    ], ids=["default_shape", "one_channel", "odd_rate", "sigma_amplitude",
            "all_negative", "all_positive"] + [
        f"chunk_n{n}_balance{balance}" for n in _CHUNK_SIZES for balance in (0.0, 0.5, 1.0)])
    def test_matches_loop_oracle_bytewise(self, spec):
        d = generate(spec)
        expected = generate_loop(spec)
        assert len(d.clips) == len(expected)
        for clip, (clip_id, group_id, label, data, window) in zip(d.clips, expected):
            assert (clip.clip_id, clip.group_id, clip.label) == (clip_id, group_id, label)
            assert clip.spike_window == window
            assert clip.data.dtype == np.float32 and clip.data.shape == data.shape
            assert clip.data.tobytes() == data.astype(np.float32).tobytes()

    def test_clips_held_at_storage_resolution(self, tmp_path):
        d = generate(_small_spec())
        path = tmp_path / "corpus.bin"
        write(d, path)
        for ds in (d, read(path)):
            for c in ds.clips:
                assert c.data.dtype == np.float32 and c.data.shape == (4, 250)
                assert c.data.flags.c_contiguous and c.data.flags.owndata

    def test_data_is_storage_exact(self):
        d = generate(_small_spec())
        for c in d.clips[:4]:
            assert np.array_equal(c.data, c.data.astype(np.float32).astype(np.float64))


class TestPipelineThreads:
    """Generation's math-stage worker thread is joined whether it returns or raises."""

    N_CLIPS = 2 * _CHUNK + 3

    def test_worker_joined_on_return(self):
        before = threading.active_count()
        generate(_small_spec(n_clips=self.N_CLIPS))
        assert threading.active_count() == before

    def test_rapid_thread_switching_changes_no_byte(self):
        """The two stages share only the buffer set a future hands over;
        switching threads every microsecond must not change the corpus."""
        spec = _small_spec(n_clips=self.N_CLIPS)
        expected = generate(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            d = generate(spec)
        finally:
            sys.setswitchinterval(interval)
        assert d.same_content(expected)
        assert [c.spike_window for c in d.clips] == [c.spike_window for c in expected.clips]

    def test_math_stage_error_propagates_and_worker_joined(self, monkeypatch):
        failure = RuntimeError("math stage failed")

        def fail(*args):
            raise failure

        monkeypatch.setattr(data_module, "_waveforms", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as e:
            generate(_small_spec(n_clips=self.N_CLIPS))
        assert e.value is failure
        assert threading.active_count() == before

    def test_draw_stage_error_joins_busy_worker(self, monkeypatch):
        failure = RuntimeError("draw stage failed")
        draw = data_module._draw
        calls = []

        def fail_second(*args):
            calls.append(1)
            if len(calls) == 2:     # the first chunk is with the worker
                raise failure
            draw(*args)

        monkeypatch.setattr(data_module, "_draw", fail_second)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as e:
            generate(_small_spec(n_clips=self.N_CLIPS))
        assert e.value is failure
        assert threading.active_count() == before


class TestSplit:
    def test_group_disjointness(self):
        d = generate(_small_spec(n_clips=60, n_groups=12))
        tr, va, te = split(d, (0.5, 0.25, 0.25), by_group=True, seed=3)
        g = [{c.group_id for c in part.clips} for part in (tr, va, te)]
        assert g[0] & g[1] == set() and g[0] & g[2] == set() and g[1] & g[2] == set()
        assert len(tr.clips) + len(va.clips) + len(te.clips) == 60

    def test_all_in_train(self):
        d = generate(_small_spec())
        tr, va, te = split(d, (1.0, 0.0, 0.0), by_group=True, seed=0)
        assert len(tr.clips) == len(d.clips) and not va.clips and not te.clips

    def test_group_counts_floor_then_distribute(self):
        d = generate(_small_spec(n_clips=60, n_groups=12))
        tr, va, te = split(d, (0.5, 0.25, 0.25), by_group=True, seed=1)
        counts = [len({c.group_id for c in part.clips}) for part in (tr, va, te)]
        assert counts == [6, 3, 3]

    def test_too_few_groups_rejected(self):
        d = generate(_small_spec(n_clips=8, n_groups=2))
        with pytest.raises(ValidationError):
            split(d, (0.5, 0.25, 0.25), by_group=True, seed=0)

    def test_bad_ratios_rejected(self):
        d = generate(_small_spec())
        with pytest.raises(ValidationError):
            split(d, (0.5, 0.2, 0.2), by_group=True, seed=0)

    @pytest.mark.parametrize("ratios", [(float("nan"), 0.5, 0.5), (0.6, 0.4, float("nan"))])
    def test_non_finite_ratios_rejected(self, ratios):
        d = generate(_small_spec())
        with pytest.raises(ValidationError):
            split(d, ratios, by_group=False, seed=0)

    def test_deterministic(self):
        d = generate(_small_spec(n_clips=60, n_groups=12))
        a = split(d, (0.6, 0.2, 0.2), by_group=True, seed=5)
        b = split(d, (0.6, 0.2, 0.2), by_group=True, seed=5)
        for pa, pb in zip(a, b):
            assert pa.same_content(pb)

    def test_non_group_split_sizes(self):
        d = generate(_small_spec(n_clips=10, n_groups=5))
        tr, va, te = split(d, (0.6, 0.2, 0.2), by_group=False, seed=2)
        assert (len(tr.clips), len(va.clips), len(te.clips)) == (6, 2, 2)


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        d = generate(_small_spec())
        path = tmp_path / "corpus.bin"
        write(d, path)
        d2 = read(path)
        assert d2.same_content(d)
        path2 = tmp_path / "again.bin"
        write(d2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        d = generate(_small_spec(n_clips=3, n_groups=3))
        path = tmp_path / "corpus.bin"
        write(d, path)
        raw = path.read_bytes()
        assert raw[:4] == b"EEGS"
        # magic(4) + version(2) + five u32 fields = 26 bytes before payload
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:10], "little") == 3
        assert int.from_bytes(raw[10:14], "little") == d.channels
        assert int.from_bytes(raw[14:18], "little") == d.timestamps
        first_clip_id = int.from_bytes(raw[26:30], "little")
        assert first_clip_id == 0

    def test_corrupted_magic(self, tmp_path):
        d = generate(_small_spec(n_clips=2, n_groups=2))
        path = tmp_path / "corpus.bin"
        write(d, path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="bad magic") as e:
            read(path)
        assert e.value.offset == 0

    def test_truncation_reports_offset(self, tmp_path):
        d = generate(_small_spec(n_clips=2, n_groups=2))
        path = tmp_path / "corpus.bin"
        write(d, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 10])
        with pytest.raises(ParseError, match="truncated"):
            read(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        d = generate(_small_spec(n_clips=2, n_groups=2))
        path = tmp_path / "corpus.bin"
        write(d, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            read(path)

    def test_clip_shape_mismatch_rejected_before_open(self, tmp_path):
        d = generate(_small_spec(n_clips=4, n_groups=2))
        path = tmp_path / "corpus.bin"
        write(d, path)
        before = path.read_bytes()
        d.clips[1].data = d.clips[1].data[:, :200].copy()
        with pytest.raises(ValidationError, match=r"clip 1 .*\(4, 200\)"):
            write(d, path)
        assert path.read_bytes() == before   # the existing file is not truncated

    @pytest.mark.parametrize("field, value, match", [
        ("label", 2, "label 2 not binary"), ("group_id", -1, "group_id -1"),
        ("clip_id", 2**32, f"clip_id {2**32}")])
    def test_clip_header_out_of_range_rejected_before_open(self, tmp_path, field, value, match):
        d = generate(_small_spec(n_clips=4, n_groups=2))
        path = tmp_path / "corpus.bin"
        write(d, path)
        before = path.read_bytes()
        setattr(d.clips[1], field, value)
        with pytest.raises(ValidationError, match=f"clip 1 .*{match}"):
            write(d, path)
        assert path.read_bytes() == before

    def test_parse_error_is_a_validation_error(self):
        assert issubclass(ParseError, ValidationError)

    def test_version_mismatch(self, tmp_path):
        d = generate(_small_spec(n_clips=1, n_groups=1))
        path = tmp_path / "corpus.bin"
        write(d, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="version"):
            read(path)

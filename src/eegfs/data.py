"""Synthetic multichannel signal corpus and its binary file format.

Clips are a low-amplitude background (three random-phase sinusoids plus
Gaussian noise per channel) with, for positive labels, one biphasic
sharp transient injected on a contiguous span of channels. Generation
is a pure function of the spec: every clip draws from its own stream
seeded by ``base seed + clip id``, in an order that is part of the
corpus definition: per channel, 3 frequencies, 3 phases and T noise
samples; then, for a positive clip, the spike's draws.

Generation runs in two stages at once, over chunks of ``_CHUNK`` clips
in two alternating buffer sets. The calling thread draws each clip's
stream into one set while a single worker thread turns the previous
chunk into waveforms with chunk-wide array ops, which release the GIL.
Each sample is computed by the same operations in the same order as a
clip-by-clip build, so the corpus is byte-identical to it.

Samples are held as float32, the resolution the file stores, so the file
round trip is bit-exact; the float64 engine widens each batch it stacks.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import ValidationError, check_field_types, check_integer, is_real

MAGIC = b"EEGS"
FORMAT_VERSION = 1


class ParseError(ValidationError):
    """Corrupt or truncated corpus or checkpoint file; carries the failing
    byte offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"parse error at byte {offset}: {message}")
        self.offset = offset


class BinaryReader:
    """Bounds-checked cursor over an open binary file (corpus or checkpoint).

    Opening checks the 4-byte magic and the little-endian u16 version
    (``version_label`` names the version in the error). Every read past
    the end, undecodable name or unread tail raises ``ParseError`` at the
    offset where it starts. Each field is read from the file as it is
    taken: a whole-file heap buffer needs a free run of the file's size,
    and where the heap has none it grows, so resident memory would depend
    on the heap layout that earlier calls left.
    """

    def __init__(self, f, magic: bytes, version: int, version_label: str):
        self.file, self.size, self.offset = f, os.fstat(f.fileno()).st_size, 0
        found = self.take(4, "magic")
        if found != magic:
            raise ParseError(0, f"bad magic {found!r}, expected {magic!r}")
        (found,) = self.unpack("<H", "version")
        if found != version:
            raise ParseError(4, f"unsupported {version_label} {found}")

    def take(self, n: int, what: str) -> bytes:
        raw = self.file.read(n) if self.offset + n <= self.size else b""
        if len(raw) != n:  # past the end, or the file shrank since it was opened
            raise ParseError(self.offset, f"truncated while reading {what}")
        self.offset += n
        return raw

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def name(self, what: str) -> str:
        """A u16 length followed by that many UTF-8 bytes."""
        (n,) = self.unpack("<H", f"{what} length")
        start = self.offset
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise ParseError(start, f"{what} is not valid UTF-8") from None

    def finish(self) -> None:
        if self.offset != self.size:
            raise ParseError(self.offset, f"{self.size - self.offset} trailing bytes")


def pack(fmt: str, what: str, **values) -> bytes:
    """``struct.pack(fmt, *values)`` for the writers; a value its field cannot
    hold raises ValidationError naming ``what`` and each field with its value."""
    try:
        return struct.pack(fmt, *values.values())
    except struct.error as e:
        named = ", ".join(f"{k} {v!r}" for k, v in values.items())
        raise ValidationError(f"{what} {named}: {e}") from None


@dataclass
class EegClip:
    """One fixed-length clip of C-contiguous float32 samples, widened to
    float64 per batch. ``spike_window`` is in-memory metadata from generation
    (timestamp range of the injected transient); it is not serialized."""

    clip_id: int
    group_id: int
    label: int
    data: np.ndarray                     # (channels, timestamps) float32
    spike_window: Optional[tuple[int, int]] = None

    def same_content(self, other: "EegClip") -> bool:
        return (self.clip_id == other.clip_id
                and self.group_id == other.group_id
                and self.label == other.label
                and np.array_equal(self.data, other.data))


@dataclass
class Dataset:
    channels: int
    timestamps: int
    sample_rate: int
    n_groups: int
    clips: list[EegClip] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clips)

    def same_content(self, other: "Dataset") -> bool:
        """Equality over the serialized fields (spike windows excluded)."""
        return (self.channels == other.channels
                and self.timestamps == other.timestamps
                and self.sample_rate == other.sample_rate
                and self.n_groups == other.n_groups
                and len(self.clips) == len(other.clips)
                and all(a.same_content(b) for a, b in zip(self.clips, other.clips)))


@dataclass
class CorpusSpec:
    n_clips: int = 2000
    channels: int = 16
    timestamps: int = 250
    sample_rate: int = 250
    class_balance: float = 0.5
    noise_sigma: float = 1.0
    spike_amplitude: float = 5.0
    spike_width_ms_min: float = 20.0
    spike_width_ms_max: float = 60.0
    spike_channel_span: int = 4
    n_groups: int = 20
    seed: int = 42

    def validate(self) -> None:
        check_field_types(self)
        check_integer("n_clips", self.n_clips, minimum=1)
        if self.channels < 1 or self.timestamps < 2:
            raise ValidationError("channels and timestamps must be positive")
        if not 0.0 <= self.class_balance <= 1.0:
            raise ValidationError(f"class_balance {self.class_balance} outside [0, 1]")
        if not (0 < self.noise_sigma < np.inf and 0 < self.spike_amplitude < np.inf):
            raise ValidationError("noise_sigma and spike_amplitude must be finite and > 0")
        check_integer("sample_rate", self.sample_rate, minimum=1)
        check_integer("seed", self.seed, minimum=0)
        lo, hi = self.spike_width_ms_min, self.spike_width_ms_max
        if not 0 < lo <= hi:
            raise ValidationError(f"spike width range ({lo}, {hi}) must be increasing and > 0")
        clip_ms = self.timestamps / self.sample_rate * 1000.0
        # full transient: ~2 half-widths of lead-in, peak-to-trough gap, 2 of tail
        if 5.0 * hi >= clip_ms:
            raise ValidationError(
                f"spike width {hi} ms cannot fit a {clip_ms:.0f} ms clip")
        if not 1 <= self.spike_channel_span <= self.channels:
            raise ValidationError(
                f"spike_channel_span {self.spike_channel_span} outside [1, {self.channels}]")
        if self.n_groups < 1 or self.n_groups > self.n_clips:
            raise ValidationError(
                f"n_groups {self.n_groups} outside [1, n_clips={self.n_clips}]")


_SINE_AMPLITUDE = 0.3   # relative to noise_sigma
_TROUGH_RATIO = 0.6     # trough depth relative to peak
_CHUNK = 16             # clips handed from the draw stage to the math stage at a time


def _spike_draws(rng: np.random.Generator, spec: CorpusSpec):
    """Draw one biphasic transient in stream order: peak and trough widths
    (FWHM), peak time, first channel. Returns the shape parameters
    (t0, t1, sig_p, sig_t), the first channel and the affected timestamp
    window."""
    t_len = spec.timestamps
    rate = spec.sample_rate
    widths = (spec.spike_width_ms_min, spec.spike_width_ms_max)
    w_peak = rng.uniform(*widths) * rate / 1000.0   # samples (FWHM)
    w_trough = rng.uniform(*widths) * rate / 1000.0
    gap = (w_peak + w_trough) / 2.0
    lead = 2.0 * w_peak
    tail = 2.0 * w_trough
    t0 = rng.uniform(lead, t_len - 1 - tail - gap)
    t1 = t0 + gap
    c0 = int(rng.integers(0, spec.channels - spec.spike_channel_span + 1))
    window = (max(0, int(np.floor(t0 - 1.5 * w_peak))),
              min(t_len - 1, int(np.ceil(t1 + 1.5 * w_trough))))
    return (t0, t1, w_peak / 2.355, w_trough / 2.355), c0, window


class _Chunk:
    """One chunk's buffers. The draw stage fills ``u``, ``noise`` and the
    spike draws; the math stage turns them into float32 ``stored``."""

    def __init__(self, chans: int, t_len: int):
        self.u = np.empty((_CHUNK, chans, 6))      # per channel: 3 frequency, 3 phase uniforms
        self.noise = np.empty((_CHUNK, chans, t_len))
        self.waves = np.empty((3, _CHUNK, chans, t_len))   # one block per sinusoid
        self.stored = np.empty((_CHUNK, chans, t_len), dtype=np.float32)
        self.spikes = np.empty((_CHUNK, 4))        # t0, t1, sig_p, sig_t per positive clip
        self.spike_at = np.empty((_CHUNK, 2), dtype=np.intp)   # its chunk row, first channel
        self.shapes = np.empty((2, _CHUNK, t_len))  # peak and trough of each transient
        self.first = 0
        self.n_spikes = 0
        self.windows: list[Optional[tuple[int, int]]] = []   # per clip; None: negative


def _draw(b: _Chunk, spec: CorpusSpec, first: int, positives: set) -> None:
    """Draw stage: each clip's stream, in the corpus order, into ``b``."""
    b.first = first
    b.n_spikes = 0
    b.windows = []
    for k, clip_id in enumerate(range(first, min(first + _CHUNK, spec.n_clips))):
        rng = np.random.default_rng(spec.seed + clip_id)
        for c in range(spec.channels):
            rng.random(out=b.u[k, c])
            rng.standard_normal(out=b.noise[k, c])
        window = None
        if clip_id in positives:
            b.spikes[b.n_spikes], c0, window = _spike_draws(rng, spec)
            b.spike_at[b.n_spikes] = k, c0
            b.n_spikes += 1
        b.windows.append(window)


def _waveforms(b: _Chunk, spec: CorpusSpec, samples: np.ndarray, times: np.ndarray) -> None:
    """Math stage: turn a drawn chunk into float32 waveforms with chunk-wide
    array ops, each writing into ``b``, in the per-clip arithmetic order.
    ``samples`` is 0..T-1 and ``times`` is samples / sample rate.

    numpy draws uniform(lo, hi) as lo + (hi - lo) * u and normal(0, s) as
    0 + s * z, so the scaled raw draws reproduce the per-call draws bit
    for bit."""
    n = len(b.windows)
    sigma = spec.noise_sigma
    u, noise, waves = b.u[:n], b.noise[:n], b.waves[:, :n]
    noise *= sigma                                         # normal(0, sigma)
    omega, phase = u[..., :3], u[..., 3:]
    omega *= 26.0                                          # uniform(4, 30) Hz
    omega += 4.0
    omega *= 2 * np.pi
    phase *= 2 * np.pi                                     # uniform(0, 2 pi)
    np.multiply(np.moveaxis(omega, -1, 0)[..., None], times, out=waves)
    waves += np.moveaxis(phase, -1, 0)[..., None]
    np.sin(waves, out=waves)
    waves *= _SINE_AMPLITUDE * sigma
    data = waves[0]                                        # sums in place, in this order
    data += waves[1]
    data += waves[2]
    data += noise
    if b.n_spikes:
        _add_spikes(b, data, spec, samples)
    np.copyto(b.stored[:n], data)                          # storage resolution


def _add_spikes(b: _Chunk, data: np.ndarray, spec: CorpusSpec, samples: np.ndarray) -> None:
    """Add each drawn biphasic transient (a positive Gaussian peak, then a
    shallower Gaussian trough) to its clip's contiguous channel span."""
    m = b.n_spikes
    t0, t1, sig_p, sig_t = np.split(b.spikes[:m], 4, axis=1)
    peak, trough = b.shapes[:, :m]
    for shape, centre, sig in ((peak, t0, sig_p), (trough, t1, sig_t)):
        np.subtract(samples, centre, out=shape)            # exp(-0.5 ((t - c) / sig) ** 2)
        shape /= sig
        np.square(shape, out=shape)
        shape *= -0.5
        np.exp(shape, out=shape)
    trough *= _TROUGH_RATIO
    peak -= trough
    peak *= spec.spike_amplitude
    span = spec.spike_channel_span
    for (k, c0), shape in zip(b.spike_at[:m].tolist(), peak):
        data[k, c0:c0 + span] += shape


def generate(spec: CorpusSpec) -> Dataset:
    """Deterministic corpus: exact class balance, groups assigned round-robin."""
    spec.validate()
    n_pos = int(round(spec.n_clips * spec.class_balance))
    label_rng = np.random.default_rng(spec.seed)
    positives = set(label_rng.permutation(spec.n_clips)[:n_pos].tolist())

    # Everything that outlives a chunk is allocated on this thread: glibc
    # gives the worker its own malloc arena, and clips allocated there
    # raised peak RSS.
    chunks = (_Chunk(spec.channels, spec.timestamps), _Chunk(spec.channels, spec.timestamps))
    samples = np.arange(spec.timestamps, dtype=np.float64)
    times = samples / spec.sample_rate
    clips = []

    def keep(b: _Chunk, built: Future) -> None:
        built.result()
        for k, window in enumerate(b.windows):
            clip_id = b.first + k
            clips.append(EegClip(clip_id=clip_id, group_id=clip_id % spec.n_groups,
                                 label=int(window is not None), data=b.stored[k].copy(),
                                 spike_window=window))

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for i, first in enumerate(range(0, spec.n_clips, _CHUNK)):
            b = chunks[i % 2]
            _draw(b, spec, first, positives)      # while the worker builds chunk i - 1
            if pending is not None:
                keep(*pending)
            pending = (b, worker.submit(_waveforms, b, spec, samples, times))
        keep(*pending)
    return Dataset(channels=spec.channels, timestamps=spec.timestamps,
                   sample_rate=spec.sample_rate, n_groups=spec.n_groups, clips=clips)


def split(d: Dataset, ratios: tuple[float, float, float], by_group: bool,
          seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into train/val/test; with ``by_group`` every group lands
    wholly in one part. Part sizes follow largest-remainder rounding."""
    shaped = isinstance(ratios, (tuple, list)) or getattr(ratios, "ndim", 0) == 1
    if not (shaped and len(ratios) == 3 and all(map(is_real, ratios))):
        raise ValidationError(f"ratios {ratios!r} must be three real numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios {ratios} must sum to 1")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValidationError(f"ratios {ratios} must lie in [0, 1]")
    check_integer("split seed", seed)
    if seed < 0:
        raise ValidationError(f"split seed must be >= 0, got {seed}")

    def allot(n: int) -> list[int]:
        exact = [r * n for r in ratios]
        counts = [int(np.floor(e)) for e in exact]
        rem = n - sum(counts)
        frac_order = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
        for i in frac_order[:rem]:
            counts[i] += 1
        return counts

    # each part takes whole units: groups, or single clips by index
    unit_of = [c.group_id for c in d.clips] if by_group else list(range(len(d.clips)))
    units = sorted(set(unit_of))
    n_parts = sum(1 for r in ratios if r > 0)
    if by_group and len(units) < n_parts:
        raise ValidationError(f"{len(units)} groups cannot cover {n_parts} non-empty splits")
    order = np.random.default_rng(seed).permutation(len(units))
    buckets = []
    at = 0
    for n in allot(len(units)):
        chosen = {units[i] for i in order[at:at + n]}
        at += n
        buckets.append([c for c, u in zip(d.clips, unit_of) if u in chosen])

    def make(clips: list[EegClip]) -> Dataset:
        return Dataset(channels=d.channels, timestamps=d.timestamps,
                       sample_rate=d.sample_rate,
                       n_groups=len({c.group_id for c in clips}), clips=clips)

    return make(buckets[0]), make(buckets[1]), make(buckets[2])


def write(d: Dataset, path) -> None:
    """Binary layout: magic, u16 version, u32 header fields, then per clip
    u32 clip_id, u32 group_id, u8 label and little-endian f32 samples.
    The header and every clip's shape, label and ids are checked and packed
    before the file is opened, so a rejected dataset leaves an existing file intact."""
    head = pack("<5I", "dataset", n_clips=len(d.clips), channels=d.channels,
                timestamps=d.timestamps, sample_rate=d.sample_rate, n_groups=d.n_groups)
    shape = (d.channels, d.timestamps)
    clip_heads = []
    for i, c in enumerate(d.clips):
        if np.shape(c.data) != shape:
            raise ValidationError(f"clip {i} (id {c.clip_id}) has shape {np.shape(c.data)}, "
                                  f"expected the dataset's {shape}")
        if c.label not in (0, 1):
            raise ValidationError(f"clip {i} (id {c.clip_id}) label {c.label} not binary")
        clip_heads.append(pack("<IIB", f"clip {i}", clip_id=c.clip_id,
                               group_id=c.group_id, label=c.label))
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<H", FORMAT_VERSION) + head)
        for c, clip_head in zip(d.clips, clip_heads):
            f.write(clip_head)
            f.write(np.ascontiguousarray(c.data, dtype="<f4"))


def read(path) -> Dataset:
    with open(path, "rb") as f:
        r = BinaryReader(f, MAGIC, FORMAT_VERSION, "version")
        n_clips, channels, timestamps, rate, n_groups = r.unpack("<5I", "header")
        payload = channels * timestamps * 4
        clips = []
        for i in range(n_clips):
            clip_id, group_id, label = r.unpack("<IIB", f"clip {i} header")
            if label not in (0, 1):
                raise ParseError(r.offset - 1, f"clip {i} label {label} not binary")
            samples = np.frombuffer(r.take(payload, f"clip {i} samples"), dtype="<f4")
            clips.append(EegClip(
                clip_id=clip_id, group_id=group_id, label=int(label),
                data=samples.reshape(channels, timestamps).astype(np.float32)))
        r.finish()
    return Dataset(channels=channels, timestamps=timestamps, sample_rate=rate,
                   n_groups=n_groups, clips=clips)

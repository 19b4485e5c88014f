"""Synthetic multichannel signal corpus and its binary file format.

Clips are a low-amplitude background (three random-phase sinusoids plus
Gaussian noise per channel) with, for positive labels, one biphasic
sharp transient injected on a contiguous span of channels. Generation
is a pure function of the spec: every clip draws from its own stream
seeded by ``base seed + clip id``, in an order that is part of the
corpus definition: per channel, 3 frequencies, 3 phases and T noise
samples; then, for a positive clip, the spike's draws. Generation fills
scratch buffers that it reuses across clips.

Samples are held as float32, the resolution the file stores, so the file
round trip is bit-exact; the float64 engine widens each batch it stacks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import ValidationError

MAGIC = b"EEGS"
FORMAT_VERSION = 1


class ParseError(ValueError):
    """Corrupt or truncated corpus or checkpoint file; carries the failing
    byte offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"parse error at byte {offset}: {message}")
        self.offset = offset


class BinaryReader:
    """Bounds-checked cursor over a whole binary file (corpus or checkpoint).

    Opening checks the 4-byte magic and the little-endian u16 version
    (``version_label`` names the version in the error). Every read past
    the end, undecodable name or unread tail raises ``ParseError`` at the
    offset where it starts.
    """

    def __init__(self, path, magic: bytes, version: int, version_label: str):
        with open(path, "rb") as f:
            self.raw = memoryview(f.read())
        self.offset = 0
        if self.take(4, "magic") != magic:
            raise ParseError(0, f"bad magic {bytes(self.raw[:4])!r}, expected {magic!r}")
        (found,) = self.unpack("<H", "version")
        if found != version:
            raise ParseError(4, f"unsupported {version_label} {found}")

    def take(self, n: int, what: str) -> memoryview:
        if self.offset + n > len(self.raw):
            raise ParseError(self.offset, f"truncated while reading {what}")
        self.offset += n
        return self.raw[self.offset - n:self.offset]

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
        if self.offset != len(self.raw):
            raise ParseError(self.offset, f"{len(self.raw) - self.offset} trailing bytes")


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
    spike_width_ms: tuple[float, float] = (20.0, 60.0)
    spike_channel_span: int = 4
    n_groups: int = 20
    seed: int = 42

    def validate(self) -> None:
        if self.n_clips < 1:
            raise ValidationError("n_clips must be >= 1")
        if self.channels < 1 or self.timestamps < 2:
            raise ValidationError("channels and timestamps must be positive")
        if not 0.0 <= self.class_balance <= 1.0:
            raise ValidationError(f"class_balance {self.class_balance} outside [0, 1]")
        if not (0 < self.noise_sigma < np.inf and 0 < self.spike_amplitude < np.inf):
            raise ValidationError("noise_sigma and spike_amplitude must be finite and > 0")
        if self.sample_rate < 1:
            raise ValidationError(f"sample_rate {self.sample_rate} must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} must be >= 0")
        lo, hi = self.spike_width_ms
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


def _inject_spike(rng: np.random.Generator, data: np.ndarray,
                  spec: CorpusSpec) -> tuple[int, int]:
    """Add one biphasic transient (positive peak, then trough) on a
    contiguous channel span; returns the affected timestamp window."""
    t_len = data.shape[1]
    rate = spec.sample_rate
    w_peak = rng.uniform(*spec.spike_width_ms) * rate / 1000.0   # samples (FWHM)
    w_trough = rng.uniform(*spec.spike_width_ms) * rate / 1000.0
    sig_p = w_peak / 2.355
    sig_t = w_trough / 2.355
    gap = (w_peak + w_trough) / 2.0
    lead = 2.0 * w_peak
    tail = 2.0 * w_trough
    t0 = rng.uniform(lead, t_len - 1 - tail - gap)
    t1 = t0 + gap
    c0 = int(rng.integers(0, spec.channels - spec.spike_channel_span + 1))

    ts = np.arange(t_len, dtype=np.float64)
    shape = (np.exp(-0.5 * ((ts - t0) / sig_p) ** 2)
             - _TROUGH_RATIO * np.exp(-0.5 * ((ts - t1) / sig_t) ** 2))
    data[c0:c0 + spec.spike_channel_span] += spec.spike_amplitude * shape
    start = max(0, int(np.floor(t0 - 1.5 * w_peak)))
    end = min(t_len - 1, int(np.ceil(t1 + 1.5 * w_trough)))
    return start, end


def generate(spec: CorpusSpec) -> Dataset:
    """Deterministic corpus: exact class balance, groups assigned round-robin."""
    spec.validate()
    n_pos = int(round(spec.n_clips * spec.class_balance))
    label_rng = np.random.default_rng(spec.seed)
    positives = set(label_rng.permutation(spec.n_clips)[:n_pos].tolist())

    chans, t_len, sigma = spec.channels, spec.timestamps, spec.noise_sigma
    ts = np.arange(t_len) / spec.sample_rate
    # Scratch reused by every clip: fresh ~100 KB arrays per clip raised peak RSS.
    # numpy draws uniform(lo, hi) as lo + (hi - lo) * u and normal(0, s) as 0 + s * z,
    # so the scaled raw draws below reproduce the per-call draws' sums bit for bit.
    u = np.empty((chans, 6))             # per channel: 3 frequency, 3 phase uniforms
    noise = np.empty((chans, t_len))
    waves = np.empty((chans, 3, t_len))
    stored = np.empty((chans, t_len), dtype=np.float32)
    clips = []
    for clip_id in range(spec.n_clips):
        rng = np.random.default_rng(spec.seed + clip_id)
        for c in range(chans):
            rng.random(out=u[c])
            rng.standard_normal(out=noise[c])
        noise *= sigma                                     # normal(0, sigma)
        omega = 2 * np.pi * (4.0 + 26.0 * u[:, :3])        # uniform(4, 30) Hz
        np.multiply(omega[:, :, None], ts, out=waves)
        waves += 2 * np.pi * u[:, 3:, None]                # uniform(0, 2 pi) phases
        np.sin(waves, out=waves)
        waves *= _SINE_AMPLITUDE * sigma
        data = waves[:, 0]                                 # sums in place, in this order
        data += waves[:, 1]
        data += waves[:, 2]
        data += noise
        window = None
        label = int(clip_id in positives)
        if label:
            window = _inject_spike(rng, data, spec)
        stored[...] = data                                 # storage resolution
        clips.append(EegClip(
            clip_id=clip_id,
            group_id=clip_id % spec.n_groups,
            label=label,
            data=stored.copy(),
            spike_window=window,
        ))
    return Dataset(channels=spec.channels, timestamps=spec.timestamps,
                   sample_rate=spec.sample_rate, n_groups=spec.n_groups, clips=clips)


def split(d: Dataset, ratios: tuple[float, float, float], by_group: bool,
          seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into train/val/test; with ``by_group`` every group lands
    wholly in one part. Part sizes follow largest-remainder rounding."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios {ratios} must sum to 1")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValidationError(f"ratios {ratios} must lie in [0, 1]")

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
    u32 clip_id, u32 group_id, u8 label and little-endian f32 samples."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        f.write(struct.pack("<5I", len(d.clips), d.channels, d.timestamps,
                            d.sample_rate, d.n_groups))
        for c in d.clips:
            f.write(struct.pack("<IIB", c.clip_id, c.group_id, c.label))
            f.write(np.ascontiguousarray(c.data, dtype="<f4"))


def read(path) -> Dataset:
    r = BinaryReader(path, MAGIC, FORMAT_VERSION, "version")
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

"""The benchmark's workloads: set-up, timed rounds and correctness checks.

Every workload is a closed loop in one process: each call starts when
the previous one returns. A run sets up ``setup_reps`` times (reporting
the median set-up time), then repeats its round until the next round
would end past the time budget, with at least two rounds so that every
repeated result can be compared against the first.

The corpus steps generate the corpus, write it to a file and read it
back. Set-up runs them once and splits the corpus read. A round's I/O
turns each run the corpus steps and then save, load and evaluate a
checkpoint on the test split.

- ``train_fs`` / ``train_nofs``: a round runs ``train()`` (4 epochs of
  the default configuration, so the 9 warmup iterations are 12% of the
  76) and then the I/O turns on its final checkpoint. The next round
  trains on the corpus as last read.
- ``infer_io``: set-up also trains one short run with selection on,
  enough to fill the bank and freeze alpha. A round is the I/O turns on
  that checkpoint; nothing in a round is taped or differentiated.

Each throughput is the median over all its calls in the run, set-up
included; on ``infer_io``, ``train_clips_per_s`` therefore comes from
the set-up training runs alone. ``peak_rss_mb`` is the process's peak,
set-up included; ``round_rss_mb`` is the highest resident memory seen as
a timed call of the rounds returns, so that on ``infer_io`` the read
path shows apart from the set-up training.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from eegfs import data, training
from eegfs.data import CorpusSpec
from eegfs.training import TrainConfig

import spec
from tracing import Tracer

clock = time.perf_counter

SPLIT_RATIOS = (0.6, 0.2, 0.2)
SETUP_EPOCHS = 1   # infer_io's set-up training run: fills the bank, freezes alpha
IO_TURNS = 2       # least I/O turns per round
# Least time of the checkpoint round trips in one turn: one ~20 ms round
# trip of an 18 MB checkpoint, or dozens of the sub-millisecond ones of a
# checkpoint without bank, whose single calls are too short to time steadily.
CKPT_SECONDS = 0.05


@dataclass(frozen=True)
class Size:
    n_clips: int
    epochs: int            # per timed train() call
    setup_reps: int
    io_seconds: float      # least time of the I/O turns per round
    train: dict = field(default_factory=dict)  # TrainConfig overrides


DEFAULT = Size(n_clips=2000, epochs=4, setup_reps=5, io_seconds=3.0)


@dataclass(frozen=True)
class Seeds:
    corpus: int
    split: int
    train: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(s) for s in np.random.SeedSequence(seed).generate_state(3)))


def _mb(path: Path) -> float:
    return path.stat().st_size / 1e6


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Resident memory of this process now, in the unit of ``ru_maxrss``."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE_MB


def trim_heap() -> None:
    """Hand the C heap's free pages back to the system (glibc only)."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def same_tensors(a: dict, b: dict) -> list[str]:
    """Problems found comparing two checkpoints' tensors value by value, bit
    for bit. Shapes are not compared: ``save`` stores a 0-d tensor as shape
    (1,), which the package's own round-trip tests accept as equal."""
    if a.keys() != b.keys():
        return [f"tensor names differ: {sorted(a.keys() ^ b.keys())[:3]}"]
    bad = [k for k in sorted(a) if a[k].size != b[k].size or a[k].tobytes() != b[k].tobytes()]
    return [f"{len(bad)} tensors differ, first {bad[0]}"] if bad else []


class Recorder:
    """Throughput samples, attempted operations and failed checks of a run."""

    def __init__(self):
        self.samples: dict[tuple[str, bool], list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.traced = False
        self.in_rounds = False
        self.round_rss_mb = 0.0

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault((metric, self.traced), []).append(value)

    def op(self, metric: str, amount, fn: Callable, *args,
           check: Optional[Callable] = None):
        """Time one call; record ``amount / seconds`` under ``metric``.

        ``amount`` may be a callable of the result, for sizes known only
        afterwards. ``check(result)`` returns a list of problems; an op
        with any problem counts as failed. In the timed rounds, the
        resident memory is sampled as the call returns, its result still
        held; memory a call frees before it returns is not seen.
        """
        t0 = clock()
        out = fn(*args)
        dt = clock() - t0
        if self.in_rounds:
            self.round_rss_mb = max(self.round_rss_mb, rss_mb())
        self.attempted += 1
        self.add(metric, (amount(out) if callable(amount) else amount) / dt)
        problems = check(out) if check else []
        if problems:
            self.failures.append(f"{metric} (call {self.attempted}): {'; '.join(problems)}")
        return out

    def median(self, metric: str, traced: bool = False) -> float:
        return statistics.median(self.samples[(metric, traced)])


class Workload:
    def __init__(self, name: str, seed: int, size: Size, scratch: Path,
                 tracer: Optional[Tracer] = None):
        if name not in spec.WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(spec.WORKLOADS)}")
        self.name = name
        self.size = size
        self.seeds = Seeds.derive(seed)
        self.scratch = scratch
        self.tracer = tracer
        self.rec = Recorder()
        self.corpus_spec = CorpusSpec(n_clips=size.n_clips, seed=self.seeds.corpus)
        self.config = TrainConfig(epochs=size.epochs, seed=self.seeds.train,
                                  fs_enabled=name != "train_nofs", **size.train)
        self.first: dict[str, object] = {}   # first result of each checked step
        self.corpus = None
        self.parts = None
        self.ckpt = None
        self.n_rounds = 0

    # -- checks --------------------------------------------------------------

    def _first(self, key: str, value) -> object:
        return self.first.setdefault(key, value)

    def check_corpus(self, d) -> list[str]:
        first = self._first("corpus", d)
        problems = [] if d.same_content(first) else ["corpus differs from the first generated"]
        if len(d) != self.size.n_clips:
            problems.append(f"{len(d)} clips, expected {self.size.n_clips}")
        return problems

    def check_read(self, d) -> list[str]:
        return [] if d.same_content(self.corpus) else ["read(write(d)) differs from d"]

    def check_train(self, result) -> list[str]:
        problems = []
        if not all(math.isfinite(row.loss) for row in result.log):
            problems.append("non-finite loss in the log")
        key = f"train/{result.final.epoch}"
        first = self._first(key, result)
        problems += same_tensors(result.final.tensors, first.final.tensors)
        t = result.final.tensors
        n_bank = sum(1 for k in t if k.startswith("bank/") and k.endswith("/grads"))
        cfg = result.final.config()
        if cfg.fs_enabled:
            if n_bank != cfg.bank_size + 1:
                problems.append(f"bank holds {n_bank} entries, expected {cfg.bank_size + 1}")
            alpha = t.get("alpha/frozen")
            if alpha is None or not np.isfinite(alpha).all():
                problems.append("alpha/frozen missing or non-finite")
        elif n_bank:
            problems.append(f"{n_bank} bank entries in a run without selection")
        return problems

    def check_eval(self, ds) -> Callable:
        def check(rep) -> list[str]:
            problems = []
            # Every checkpoint evaluated in one run is bit-identical (checked
            # on training), so every report must equal the first.
            first = self._first("eval", rep)
            if rep != first:
                problems.append("report differs from the first evaluation")
            if rep.n != len(ds):
                problems.append(f"n={rep.n}, expected {len(ds)}")
            if rep.auroc is None or not 0.0 <= rep.auroc <= 1.0:
                problems.append(f"AUROC {rep.auroc} outside [0, 1]")
            return problems
        return check

    # -- steps -----------------------------------------------------------------

    @contextmanager
    def traced(self, on: bool):
        ctx = self.tracer.active() if on and self.tracer is not None else nullcontext()
        with ctx:
            self.rec.traced = on and self.tracer is not None
            try:
                yield
            finally:
                self.rec.traced = False

    def split(self, d):
        return data.split(d, SPLIT_RATIOS, by_group=True, seed=self.seeds.split)

    def train(self, config: TrainConfig, parts):
        tr, va, _ = parts
        gc.collect()
        return self.rec.op("train_clips_per_s", len(tr) * config.epochs,
                           training.train, config, tr, va, check=self.check_train)

    # Each training tape is a reference cycle, freed only by the cyclic
    # collector. Set-up, every train() call and every I/O phase therefore
    # start with an untimed collection, so that no step pays for garbage
    # left by an earlier one and the collector's state, and with it the
    # run's peak memory, is the same on every run.

    def write_corpus(self) -> None:
        path = self.scratch / "corpus.bin"
        self.rec.op("corpus_write_mb_per_s", lambda _: _mb(path), data.write, self.corpus, path)

    def read_corpus(self):
        path = self.scratch / "corpus.bin"
        return self.rec.op("corpus_read_mb_per_s", _mb(path), data.read, path,
                           check=self.check_read)

    def corpus_steps(self):
        """Generate the corpus, write it to a file and read it back; returns
        the corpus as read."""
        self.corpus = self.rec.op("gen_clips_per_s", self.size.n_clips, data.generate,
                                  self.corpus_spec, check=self.check_corpus)
        self.write_corpus()
        return self.read_corpus()

    def io_turns(self, ckpt, test):
        """Take turns at the corpus steps and at saving, loading and
        evaluating ``ckpt`` on the test split, for at least ``IO_TURNS``
        turns and ``io_seconds``; returns the corpus as last read.

        Machine speed on a shared host drifts over seconds; taking turns
        spreads each step's samples over the whole phase instead of
        bunching them in one short window that catches a single drift.
        """
        gc.collect()
        path = self.scratch / "checkpoint.bin"
        t0 = clock()
        n = 0
        while n < IO_TURNS or clock() - t0 < self.size.io_seconds:
            d = self.corpus_steps()
            t1 = clock()
            while True:
                self.rec.op("ckpt_save_mb_per_s", lambda _: _mb(path), training.save, ckpt, path)
                self.rec.op("ckpt_load_mb_per_s", _mb(path), training.load, path,
                            check=lambda c: same_tensors(c.tensors, ckpt.tensors))
                if clock() - t1 >= CKPT_SECONDS:
                    break
            self.rec.op("eval_clips_per_s", len(test), training.evaluate, ckpt, test,
                        check=self.check_eval(test))
            n += 1
        return d

    def set_up(self) -> None:
        t0 = clock()
        gc.collect()
        with self.traced(True):
            self.parts = self.split(self.corpus_steps())
        if self.name == "infer_io":
            # Not traced: its backward and sampling are set-up, not the workload.
            config = replace(self.config, epochs=SETUP_EPOCHS)
            self.ckpt = self.train(config, self.parts).final
        self.rec.add("setup_s", clock() - t0)

    def round(self) -> None:
        if self.name == "infer_io":
            self.io_turns(self.ckpt, self.parts[2])
        else:
            result = self.train(self.config, self.parts)
            # The next round trains on the corpus as read back here.
            self.parts = self.split(self.io_turns(result.final, self.parts[2]))

    def run(self, seconds: float) -> None:
        for _ in range(self.size.setup_reps):
            self.set_up()
        # Without this the heap keeps the pages that set-up's training tapes
        # freed, and round_rss_mb would count them as the rounds' own.
        gc.collect()
        trim_heap()
        self.rec.in_rounds = True
        start = clock()
        n_rounds = 0
        last = 0.0
        while n_rounds < 2 or clock() - start + last <= seconds:
            t0 = clock()
            # With a tracer, odd rounds are traced and even ones give the
            # untraced baseline for the tracing overhead.
            with self.traced(n_rounds % 2 == 1):
                self.round()
            last = clock() - t0
            n_rounds += 1
        self.n_rounds = n_rounds

    # -- results ---------------------------------------------------------------

    @property
    def primary(self) -> str:
        return "eval_clips_per_s" if self.name == "infer_io" else "train_clips_per_s"

    def end_to_end(self) -> dict[str, float]:
        out = {}
        for name in spec.END_TO_END:
            if name == "peak_rss_mb":
                out[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elif name == "round_rss_mb":
                out[name] = self.rec.round_rss_mb
            else:
                out[name] = self.rec.median(name)
        return out

    def overhead_share(self) -> float:
        return 1.0 - self.rec.median(self.primary, True) / self.rec.median(self.primary)

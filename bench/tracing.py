"""Spans around eegfs's public calls, recorded from outside the package.

While a :class:`Tracer` is active it replaces module attributes and
methods of ``eegfs`` with timing wrappers and puts the originals back on
exit. The package's own code is never edited; its calls reach the
wrappers because every eegfs module calls its neighbours through module
attributes (``ad.conv1d``, ``bank.sample_top_k``, ...).

One private name is wrapped: ``autodiff._record``, the hook through which
each op hands its backward rule to the tape. Wrapping the rule there is
the only outside way to time each op's backward pass.

Spans are kept in memory (name, start, end, parent span, iteration id)
and written out by :meth:`Tracer.write` when the run ends. A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from eegfs import autodiff, bank, data, encoder, selection, training

clock = time.perf_counter

# Every public taped op. Ops called inside the selection module are
# attributed to the selection layer; of the rest, these get their own
# forward spans and metrics.
OPS = ("add", "sub", "mul", "div", "relu", "sigmoid", "softmax", "xlogx",
       "mean_over_axes", "sum_over_axes", "max_over_axis", "reshape", "matmul",
       "conv1d", "avg_pool1d", "batchnorm", "cross_entropy_logits")
BLOCK_OPS = ("conv1d", "batchnorm", "relu", "avg_pool1d")
HEAD_OPS = ("matmul", "cross_entropy_logits")

# Spans that bound a workload's timed compute; layer shares are measured
# against them (iterations when training is traced, else evaluate calls).
SHARE_SCOPES = ("training.iteration", "training.evaluate")
BANK_SPANS = ("bank.sample_top_k", "bank.alpha", "bank.push")


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 iteration: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.iteration = iteration

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects spans and counts across any number of active periods.

    ``block_channels`` lists each encoder block's output channel count;
    block ops are attributed to a block by the channel count of their
    operand, which must therefore differ between blocks.
    """

    def __init__(self, block_channels: tuple[int, ...]):
        if len(set(block_channels)) != len(block_channels):
            raise ValueError(f"block channel counts {block_channels} must be distinct")
        self.block_of = {c: i for i, c in enumerate(block_channels)}
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._ops: list[str] = []        # attribution of op calls in progress
        self._in_selection = 0
        self._iteration: Optional[int] = None
        self._iter_span: Optional[int] = None
        self._overhead_span: Optional[int] = None
        self._n_iterations = 0
        self._epoch_len = 0
        self._in_epoch = 0
        self._warmup = 0
        self._tape_records: dict[int, int] = {}

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, clock(), parent, self._iteration))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self.spans[idx].end = clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    # -- training structure seen from outside ------------------------------
    # An iteration runs from a train-mode forward to the Adam step that
    # ends it; after the last iteration of an epoch everything up to the
    # next iteration (validation, metrics, checkpoint copy) is epoch overhead.

    def _begin_iteration(self) -> None:
        self._end_overhead()
        self._n_iterations += 1
        self._iteration = self._n_iterations
        self._iter_span = self.open("training.iteration")

    def _end_iteration(self) -> None:
        if self._iter_span is None:
            return
        self.close(self._iter_span)
        self._iter_span = None
        self._iteration = None
        self._in_epoch += 1
        if self._in_epoch == self._epoch_len:
            self._in_epoch = 0
            self._overhead_span = self.open("training.epoch_overhead")

    def _end_overhead(self) -> None:
        if self._overhead_span is not None:
            self.close(self._overhead_span)
            self._overhead_span = None

    # -- wrappers ----------------------------------------------------------

    def _op_tag(self, name: str, args) -> str:
        if self._in_selection:
            return "selection"
        if name in BLOCK_OPS:
            operand = args[1] if name == "conv1d" else args[0]
            channels = np.shape(getattr(operand, "data", operand))[
                0 if name == "conv1d" else 1]
            return f"{name}.block{self.block_of[channels]}"
        return name if name in HEAD_OPS else "other"

    def _wrap_op(self, name: str, fn):
        def op(*args, **kwargs):
            tag = self._op_tag(name, args)
            self._ops.append(tag)
            try:
                if tag in ("selection", "other"):
                    return fn(*args, **kwargs)
                with self.span(f"autodiff.{tag}.fwd"):
                    return fn(*args, **kwargs)
            finally:
                self._ops.pop()
        return op

    def _wrap_record(self, fn):
        def record(out, inputs, rule):
            if not self._ops:
                return fn(out, inputs, rule)
            tag = self._ops[-1]
            name = "selection.bwd" if tag == "selection" else f"autodiff.{tag}.bwd"

            def timed_rule(g):
                with self.span(name):
                    return rule(g)

            res = fn(out, inputs, timed_rule)
            if out.tape is not None and out.tape.recording:
                key = id(out.tape)
                self._tape_records[key] = self._tape_records.get(key, 0) + 1
            return res
        return record

    def _wrap_backward(self, fn):
        def backward(loss, tape):
            self.counts["autodiff.tape_records"].append(self._tape_records.pop(id(tape), 0))
            with self.span("autodiff.backward"):
                return fn(loss, tape)
        return backward

    def _wrap_forward(self, fn):
        def forward(enc, x, fs=None, mode="train"):
            if mode == "train" and self._iter_span is None:
                self._begin_iteration()
            with self.span(f"encoder.forward_{mode}"):
                return fn(enc, x, fs=fs, mode=mode)
        return forward

    def _wrap_adam(self, fn):
        def adam_step(*args, **kwargs):
            with self.span("training.adam_step"):
                fn(*args, **kwargs)
            self._end_iteration()
        return adam_step

    def _wrap_train(self, fn):
        def train(config, ds_train, ds_val, *args, **kwargs):
            self._epoch_len = -(-len(ds_train.clips) // config.batch_size)
            self._in_epoch = 0
            self._warmup = 0
            idx = self.open("training.train")
            try:
                return fn(config, ds_train, ds_val, *args, **kwargs)
            finally:
                self._end_overhead()
                self.close(idx)
                self.counts["selection.warmup_iters"].append(self._warmup)
        return train

    def _wrap_fs_forward(self, fn):
        def fs_forward(h, bank_, sel, mode):
            self._in_selection += 1
            try:
                with self.span("selection.forward") as idx:
                    out = fn(h, bank_, sel, mode)
            finally:
                self._in_selection -= 1
            if out is h:  # warmup or no weights yet: the module did nothing
                self.spans[idx].name = "selection.identity"
                if mode == "train":
                    self._warmup += 1
            return out
        return fs_forward

    def _wrap_sample(self, fn):
        def sample_top_k(bank_):
            entries = list(bank_.entries)[:-1]
            self.counts["bank.pool_rows"].append(sum(g.shape[0] for _, g in entries))
            with self.span("bank.sample_top_k"):
                return fn(bank_)
        return sample_top_k

    def _wrap_push(self, fn):
        def push(bank_, iteration, grads):
            with self.span("bank.push"):
                fn(bank_, iteration, grads)
            self.counts["bank.bytes_held"].append(sum(g.nbytes for _, g in bank_.entries))
        return push

    def _wrap_file(self, name: str, fn, path_arg: int):
        def io(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counts[f"{name}_bytes"].append(Path(args[path_arg]).stat().st_size)
            return out
        return io

    def _patches(self):
        """(owner, attribute, wrapper-factory) for every wrapped name."""
        out = [(autodiff, op, lambda f, op=op: self._wrap_op(op, f)) for op in OPS]
        out += [
            (autodiff, "_record", self._wrap_record),
            (autodiff, "backward", self._wrap_backward),
            (encoder.Encoder, "forward", self._wrap_forward),
            (selection, "fs_forward", self._wrap_fs_forward),
            (selection, "apply_decay", lambda f: self._timed("bank.alpha", f)),
            (selection, "compute_alpha", lambda f: self._timed("bank.alpha", f)),
            (bank.GradientBank, "sample_top_k", self._wrap_sample),
            (bank.GradientBank, "push", self._wrap_push),
            (training, "adam_step", self._wrap_adam),
            (training, "report", lambda f: self._timed("metrics.report", f)),
            (training, "train", self._wrap_train),
            (training, "evaluate", lambda f: self._timed("training.evaluate", f)),
            (training, "save", lambda f: self._timed("training.save", f)),
            (training, "load", lambda f: self._timed("training.load", f)),
            (data, "generate", lambda f: self._timed("data.generate", f)),
            (data, "split", lambda f: self._timed("data.split", f)),
            (data, "write", lambda f: self._wrap_file("data.write", f, 1)),
            (data, "read", lambda f: self._wrap_file("data.read", f, 0)),
        ]
        return out

    @contextmanager
    def active(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
        if self._stack:
            raise RuntimeError(f"spans left open: {[self.spans[i].name for i in self._stack]}")

    # -- results -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as JSON lines, one per span."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "iteration": s.iteration}) + "\n")

    def metrics(self, overhead_share: float) -> tuple[dict[str, float], dict[str, str]]:
        """Per-layer values, plus the percentile each ``.tail`` value is."""
        by_name: dict[str, list[int]] = defaultdict(list)
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            by_name[s.name].append(i)
            if s.parent is not None:
                children[s.parent].append(i)

        def durations(name):
            return [self.spans[i].ms for i in by_name[name]]

        def self_ms(i, only=None):
            kids = children[i] if only is None else [
                c for c in children[i] if self.spans[c].name in only]
            return self.spans[i].ms - sum(self.spans[c].ms for c in kids)

        def child_sum(name, child):
            return [sum(self.spans[c].ms for c in children[i] if self.spans[c].name == child)
                    for i in by_name[name]
                    if any(self.spans[c].name == child for c in children[i])]

        timings = {
            "autodiff.backward.self_ms": [self_ms(i) for i in by_name["autodiff.backward"]],
            "encoder.forward_train_ms": durations("encoder.forward_train"),
            "encoder.forward_eval_ms": durations("encoder.forward_eval"),
            "bank.sample_top_k_ms": durations("bank.sample_top_k"),
            "bank.push_ms": durations("bank.push"),
            "selection.fwd_self_ms": [self_ms(i) for i in by_name["selection.forward"]],
            "selection.bwd_ms": child_sum("autodiff.backward", "selection.bwd"),
            "training.iter_ms": durations("training.iteration"),
            "training.iter_self_ms": [self_ms(i) for i in by_name["training.iteration"]],
            "training.adam_step_ms": durations("training.adam_step"),
            "training.epoch_overhead_ms": durations("training.epoch_overhead"),
            "training.save_ms": durations("training.save"),
            "training.load_ms": durations("training.load"),
            "training.evaluate_ms": durations("training.evaluate"),
            "data.generate_ms": durations("data.generate"),
            "data.write_ms": durations("data.write"),
            "data.read_ms": durations("data.read"),
            "data.split_ms": durations("data.split"),
            "metrics.report_ms": durations("metrics.report"),
        }
        for op in BLOCK_OPS + HEAD_OPS:
            for d in ("fwd", "bwd"):
                for tag in ([f"{op}.block{b}" for b in self.block_of.values()]
                            if op in BLOCK_OPS else [op]):
                    timings[f"autodiff.{tag}.{d}_ms"] = durations(f"autodiff.{tag}.{d}")

        out: dict[str, float] = {}
        tails: dict[str, str] = {}
        for name, values in timings.items():
            label, tail = tail_percentile(values)
            out[f"{name}.p50"] = statistics.median(values) if values else 0.0
            out[f"{name}.tail"] = tail
            out[f"{name}.count"] = len(values)
            tails[name] = label

        # Layer shares of the workload's timed compute: selection's own work
        # (forward without bank calls, plus its backward rules) and the bank's.
        scope = next((s for s in SHARE_SCOPES if by_name[s]), None)
        scope_ms = sum(durations(scope)) if scope else 0.0
        in_scope = self._descendants(by_name[scope]) if scope else set()
        sel_ms = sum(self_ms(i, BANK_SPANS) for i in by_name["selection.forward"]
                     if i in in_scope)
        sel_ms += sum(self.spans[i].ms for i in by_name["selection.bwd"] if i in in_scope)
        bank_ms = sum(self.spans[i].ms for n in BANK_SPANS for i in by_name[n]
                      if i in in_scope)
        c = self.counts
        out.update({
            "autodiff.tape_records": _median(c["autodiff.tape_records"]),
            "bank.pool_rows": _median(c["bank.pool_rows"]),
            "bank.bytes_held": max(c["bank.bytes_held"], default=0),
            "bank.share": bank_ms / scope_ms if scope_ms else 0.0,
            "selection.warmup_iters": _median(c["selection.warmup_iters"]),
            "selection.share": sel_ms / scope_ms if scope_ms else 0.0,
            "data.write_bytes": _median(c["data.write_bytes"]),
            "data.read_bytes": _median(c["data.read_bytes"]),
            "trace.overhead_share": overhead_share,
        })
        return out, tails

    def _descendants(self, roots: list[int]) -> set[int]:
        # Spans are appended in start order, so one forward pass suffices.
        inside = set(roots)
        for i, s in enumerate(self.spans):
            if s.parent in inside:
                inside.add(i)
        return inside


def _median(values) -> float:
    return statistics.median(values) if values else 0


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it;
    the maximum when there are too few samples for any of them."""
    if not values:
        return "none", 0.0
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", float(np.percentile(values, q))
    return "max", float(max(values))

"""Gradient memory bank: a FIFO of per-sample feature-map gradients.

The bank holds gradient batches from the most recent iterations. The
newest entry acts as the anchor set; strictly older entries form the
search pool. Sampling keeps, per anchor, the top-k pool gradients by
cosine similarity; an exponential age decay is applied before averaging
everything down to one channel-weight vector, blended between the
sampled history and the newest batch by a momentum coefficient.

Sampling follows the memory-queue scoring of MoCo (He et al. 2020) and
cross-batch memory (Wang et al. 2020). Like those queues, the bank
measures an entry once, when ``push`` enqueues it: its flattened row
norms sit in a second queue beside the entries and leave with them on
eviction, and sampling only reads them. All anchors are scored against
the pool with one matrix product per older entry, and a partial sort
finds each anchor's k-th best score. Only the columns within 1e-9 of
that score are ordered exactly: they are re-scored pair by pair, so
that identical rows score identically wherever they sit in the pool,
and ties go to the lower (iteration, sample index). No row is copied
into a pool array; only the candidates and the selected rows are
gathered. ``push`` is the one way in: the bank keeps the array it is
handed, read-only; ``restore`` pushes each entry. A gradient with a
non-finite squared norm raises ``DivergenceError``; a call out of turn
(an iteration not after the newest, sampling before two entries, a second
decay, a blend of undecayed gradients) raises ``UsageError``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .autodiff import DimensionError, DivergenceError, UsageError, ValidationError, check_integer


_NORM_FLOOR = 1e-12  # rows and anchors with a smaller norm score 0
_TIE_BAND = 1e-9     # far above GEMM rounding, far below real score gaps


@dataclass
class SampledGradients:
    """Output of bank sampling: the newest batch plus selected older rows.

    ``ages`` counts iterations back from the one being processed: the
    newest banked batch has age 1 (tracked implicitly for ``recent``),
    selected rows have ages in 2..capacity+1. ``recent`` is the bank's own
    read-only newest entry, handed over without a copy.
    """

    recent: np.ndarray                 # (b, C, S)
    sampled: np.ndarray                # (n_selected, C, S)
    ages: np.ndarray                   # (n_selected,) ints >= 2
    selected_keys: list = field(default_factory=list)  # (iteration, sample) per row
    decayed: bool = False


class GradientBank:
    """FIFO queue of (iteration, gradients) entries, at most capacity+1 long.

    ``capacity`` counts the historical iterations searched by sampling;
    one extra slot holds the newest batch, which anchors the search.
    Entries are plain arrays: nothing in the bank participates in
    differentiation.
    """

    def __init__(self, capacity: int, top_k: int, decay: float,
                 channels: int, spatial: int):
        check_integer("bank capacity", capacity, minimum=1)
        check_integer("top_k", top_k, minimum=1)
        if not 0.0 < decay <= 1.0:
            raise ValidationError(f"decay must lie in (0, 1], got {decay}")
        self.capacity = capacity
        self.top_k = top_k
        self.decay = decay
        self.channels = channels
        self.spatial = spatial
        self.entries: deque[tuple[int, np.ndarray]] = deque()
        # flattened row norms of each held entry, in step with entries
        self._row_norms: deque[np.ndarray] = deque()

    @property
    def is_full(self) -> bool:
        return len(self.entries) == self.capacity + 1

    def push(self, iteration: int, grads: np.ndarray) -> None:
        """Enqueue one iteration's per-sample gradients, evicting the oldest
        entry once more than capacity+1 are held. A float64 array is held
        without a copy and made read-only: the caller hands it over. Its
        flattened row norms are measured here, once, for sampling to read.

        Raises DivergenceError, and leaves the bank unchanged, when any
        gradient value is NaN or infinite, or so large that the squared norm
        overflows: sampling could not rank it. Raises UsageError when
        ``iteration`` is not after the newest entry's.
        """
        grads = np.asarray(grads, dtype=np.float64)
        if grads.ndim != 3 or grads.shape[1:] != (self.channels, self.spatial):
            raise DimensionError(
                f"push: gradients shape {grads.shape} does not match "
                f"(b, {self.channels}, {self.spatial})")
        if self.entries and iteration <= self.entries[-1][0]:
            raise UsageError(
                f"push: iteration {iteration} not after {self.entries[-1][0]}")
        rows = grads.reshape(grads.shape[0], self.channels * self.spatial)
        with np.errstate(over="ignore"):  # an overflow is reported below
            sq_norms = np.einsum("ij,ij->i", rows, rows)
            sq_norm = float(sq_norms.sum())  # NaN or inf anywhere makes this non-finite
        if not np.isfinite(sq_norm):
            raise DivergenceError(iteration, sq_norm, "captured-gradient squared norm")
        grads.flags.writeable = False  # held entries are shared, never written
        self.entries.append((iteration, grads))
        self._row_norms.append(np.sqrt(sq_norms))
        if len(self.entries) > self.capacity + 1:
            self.entries.popleft()
            self._row_norms.popleft()

    def sample_top_k(self) -> SampledGradients:
        """Select, per anchor row of the newest entry, the top-k most
        cosine-similar rows from all strictly older entries.

        Rows or anchors with a norm below 1e-12 score 0. Every anchor is
        scored against the whole pool with one GEMM per older entry, using
        the row norms from ``push``. The columns scoring within 1e-9 of an
        anchor's k-th best score are then re-scored one pair at a time,
        because GEMM rounding can differ between copies of one row held in
        different entries, and sorted by (-score, iteration, sample index).
        Rows may be selected by several anchors; duplicates are kept. The
        output is ordered by anchor, then by rank.
        """
        if len(self.entries) < 2:
            raise UsageError("sampling needs the newest entry plus at least one older one")
        *older, (newest_iter, anchors) = self.entries
        *pool_norms, anchor_norms = self._row_norms
        sizes = [g.shape[0] for _, g in older]
        starts = np.cumsum([0] + sizes[:-1])
        pool_size = sum(sizes)
        k = self.top_k
        if k > pool_size:
            raise ValidationError(
                f"top_k={k} exceeds the {pool_size} gradients available")

        b = anchors.shape[0]
        flat_anchors = anchors.reshape(b, -1)
        pool_norms = np.concatenate(pool_norms)
        scores = np.empty((pool_size, b))
        for (_, g), start in zip(older, starts):
            rows = slice(start, start + g.shape[0])
            np.matmul(g.reshape(g.shape[0], -1), flat_anchors.T, out=scores[rows])
        scores = scores.T
        live = ((anchor_norms >= _NORM_FLOOR)[:, None]
                & (pool_norms >= _NORM_FLOOR)[None, :])
        np.divide(scores, np.outer(anchor_norms, pool_norms), out=scores, where=live)
        scores[~live] = 0.0

        kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1]
        cand_anchor, cand_col = np.nonzero(scores >= (kth - _TIE_BAND)[:, None])
        cand_rows = self._gather(older, starts, cand_col)
        dots = np.einsum("ij,ij->i", cand_rows, flat_anchors[cand_anchor])
        exact = np.zeros(len(cand_col))
        np.divide(dots, anchor_norms[cand_anchor] * pool_norms[cand_col], out=exact,
                  where=live[cand_anchor, cand_col])

        iters = np.repeat([it for it, _ in older], sizes)
        samples = np.arange(pool_size) - np.repeat(starts, sizes)
        # lexsort: last key is primary -> anchor, then -score, iteration, sample
        order = np.lexsort((samples[cand_col], iters[cand_col], -exact, cand_anchor))
        counts = np.bincount(cand_anchor, minlength=b)
        first = np.cumsum(counts) - counts
        chosen = order[(first[:, None] + np.arange(k)).ravel()]
        chosen_iters = iters[cand_col[chosen]]
        return SampledGradients(
            recent=anchors,
            sampled=cand_rows[chosen].reshape(-1, self.channels, self.spatial),
            ages=(newest_iter - chosen_iters + 1).astype(np.int64),
            selected_keys=list(zip(chosen_iters.tolist(),
                                   samples[cand_col[chosen]].tolist())),
        )

    def _gather(self, older: list[tuple[int, np.ndarray]], starts: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
        """Flattened pool rows at the given pool columns, in column order."""
        owner = np.searchsorted(starts, cols, side="right") - 1
        out = np.empty((len(cols), self.channels * self.spatial))
        for e, ((_, g), start) in enumerate(zip(older, starts)):
            hit = owner == e
            out[hit] = g.reshape(g.shape[0], -1)[cols[hit] - start]
        return out

    def snapshot(self) -> list[tuple[int, np.ndarray]]:
        """The queue's own read-only arrays, oldest first, shared for checkpointing."""
        return list(self.entries)

    def restore(self, entries: list[tuple[int, np.ndarray]]) -> None:
        """Replace the queue with ``entries``: clear it, then push each one."""
        self.entries.clear()
        self._row_norms.clear()
        for it, g in entries:
            self.push(it, g)


def apply_decay(s: SampledGradients, decay: float) -> SampledGradients:
    """Scale each gradient by decay**age (the newest batch has age 1)."""
    if s.decayed:
        raise UsageError("decay already applied to this sample set")
    factors = np.power(float(decay), s.ages.astype(np.float64))
    return SampledGradients(
        recent=s.recent * decay,
        sampled=s.sampled * factors[:, None, None],
        ages=s.ages.copy(),
        selected_keys=list(s.selected_keys),
        decayed=True,
    )


def compute_alpha(s: SampledGradients, m: float) -> np.ndarray:
    """Blend the decayed sample average with the decayed recent average.

    Both terms are averaged over their sample and spatial axes, leaving a
    per-channel (C,) vector; ``m`` weights the historical side.
    """
    if not s.decayed:
        raise UsageError("compute_alpha requires decayed gradients")
    if not 0.0 <= m <= 1.0:
        raise ValidationError(f"momentum m must lie in [0, 1], got {m}")
    avg_sampled = s.sampled.mean(axis=(0, 2))
    avg_recent = s.recent.mean(axis=(0, 2))
    return m * avg_sampled + (1.0 - m) * avg_recent

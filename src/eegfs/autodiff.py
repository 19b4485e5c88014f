"""Dense float64 tensors with taped reverse-mode differentiation.

Operations execute eagerly on numpy arrays. While a :class:`Tape` is
recording, every operation also appends a backward rule, so a single
reverse sweep over the tape yields gradients for all parameters and for
any intermediate node captured on the tape (used to pull per-sample
feature-map gradients out of a training step).

The sweep computes only the gradients someone reads. The tape marks a
node *live* when it is a leaf with ``requires_grad``, when it was passed
to :meth:`Tape.capture`, or when it is the output of a recorded op with at
least one live input. Each op reads this flag for its inputs when it is
recorded, and its rule returns None, without computing it, for an input
that is not live: block 0's ``conv1d`` skips the gradient of the raw
clips, and the binary ops skip their constant side. A tensor must
therefore be captured before any op consumes it; capturing it afterwards
raises :class:`UsageError`.

Broadcasting is restricted to numpy-compatible shapes; gradients of
broadcast operands are summed back to the operand's shape.

The network kernels are written around few passes over memory, and an
untaped forward pass does only the work its output needs. ``conv1d``
builds no column matrix for the whole batch: its forward lowers a chunk
of clips at a time to an im2col matrix within a fixed byte budget, and its
backward is one GEMM per kernel offset and gradient on views of the
input with time flattened across clips. Train-mode ``batchnorm`` centres
its input once and reuses the centred copy for the variance and the
normalized output; its backward reuses the two channel sums it needs for
the affine gradients. Eval-mode ``batchnorm`` is one per-channel affine
``x * scale + shift`` written into one fresh array. Untaped ``relu``
builds no mask. ``avg_pool1d`` adds its strided window phases into the
fresh output instead of reducing over a short inner axis, and its
backward writes each phase of the gradient once.

The tape holds only the leaves with ``requires_grad`` and the captured
nodes. Any other tensor lives on only in what its consumers' rules keep:
``conv1d`` its input array and kernel but no columns, train-mode
``batchnorm`` x_hat, inv_std and gamma, ``relu`` the 1-byte mask,
``mul``/``div`` the operands a live side reads, ``matmul`` both operands,
and the pooling, reshape, reduction and add/sub rules only shapes and
arg-max indices. The arrays ``conv1d``, ``matmul`` and ``mul``/``div``
keep are their inputs' own, read at backward time, so an op's input must
not be modified in place before the sweep. ``backward`` frees each
interior gradient once its producer's rule has consumed it. Rules never
modify what they keep, so repeated sweeps over one tape are
reproducible.

A tensor refers to the tape that registered it weakly, so a tape is freed
as soon as its owner drops it, without waiting for the cyclic collector.

Four of the package's failure kinds have their one class here:
:class:`DimensionError` for operand shapes, :class:`ValidationError` for
argument values, :class:`UsageError` for a call made out of order (a
caller's bug) and :class:`DivergenceError` for a non-finite loss or
gradient.
"""

from __future__ import annotations

import weakref
from dataclasses import fields
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class UsageError(RuntimeError):
    """A call made out of order, such as a tape used outside its recording
    and backward protocol or a bank sampled out of turn: a caller's bug."""


class ValidationError(ValueError):
    """Invalid argument value (labels, modes, hyperparameters)."""


class DivergenceError(RuntimeError):
    """A loss or a gradient became non-finite at ``iteration``."""

    def __init__(self, iteration: int, value: float, what: str = "loss"):
        super().__init__(f"non-finite {what} ({value}) at iteration {iteration}")
        self.iteration = iteration


def check_integer(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is an integer
    (a bool is not), and at least ``minimum`` when one is given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")


def is_real(value) -> bool:
    """An int, a float or a numpy scalar of either, but not a bool."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating))


def check_field_types(config) -> None:
    """Raise ValidationError naming the first field of a config dataclass
    whose value does not have the type of the field's default: an int
    field takes an integer, a float field a value ``is_real`` accepts, a
    bool field a bool and a str field a str. Other fields are left to the
    caller."""
    for f in fields(config):
        kind, value = type(f.default), getattr(config, f.name)
        if kind is int:
            check_integer(f.name, value)
        elif kind is float and not is_real(value):
            raise ValidationError(f"{f.name} must be a real number, got {value!r}")
        elif kind in (bool, str) and not isinstance(value, kind):
            raise ValidationError(f"{f.name} must be a {kind.__name__}, got {value!r}")


_ACTIVE_TAPE: Optional["Tape"] = None


class Tensor:
    """N-dimensional float64 value, optionally tracked on the active tape.

    ``data`` is a C-contiguous (row-major) float64 array; ``shape`` is fixed
    for the lifetime of the tensor. ``grad`` is populated by :func:`backward`
    for tensors with ``requires_grad`` and for captured nodes, and is
    overwritten (not accumulated) by each backward call.

    ``tape`` is the tape that last registered the tensor, or None once that
    tape is gone: the tensor refers to it weakly, because the tape holds
    its tensors and a strong back-reference would make every tape a
    reference cycle that only the cyclic garbage collector frees.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None
        self._tape: Optional[weakref.ref] = None

    @property
    def tape(self) -> Optional["Tape"]:
        return None if self._tape is None else self._tape()

    @tape.setter
    def tape(self, tape: Optional["Tape"]) -> None:
        self._tape = None if tape is None else weakref.ref(tape)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one forward pass.

    Records are appended in execution order, which is a valid topological
    order by construction. ``_tensors`` holds the ``requires_grad`` leaves
    and the captured nodes, whose gradients backward retains; ``_live``
    holds the ids of the nodes backward computes a gradient for.

    Use as a context manager; recording stops on exit and the tape is then
    closed (backward requires a closed tape).
    """

    def __init__(self):
        self._records: list[tuple[int, tuple[int, ...], Callable]] = []
        self._tensors: dict[int, Tensor] = {}  # the tensors backward gives a .grad
        self._next_id = 0
        self._entered = False
        self._live: set[int] = set()

    @property
    def recording(self) -> bool:
        return _ACTIVE_TAPE is self

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if self._entered:
            raise UsageError("a tape cannot be reopened for recording")
        if _ACTIVE_TAPE is not None:
            raise UsageError("another tape is already recording")
        self._entered = True
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def register(self, t: Tensor) -> int:
        """Assign this tape's node id to ``t`` (idempotent)."""
        if t.tape is not self:
            t.tape = self
            t.node_id = self._next_id
            self._next_id += 1
            if t.requires_grad:
                self._tensors[t.node_id] = t
        assert t.node_id is not None
        return t.node_id

    def capture(self, t: Tensor) -> None:
        """Mark ``t`` live so backward computes and retains its gradient.

        Raises UsageError when a recorded op has already consumed ``t``
        while it was not live: that op computed no gradient for it.
        """
        if (t.tape is self and t.node_id not in self._live
                and any(t.node_id in in_ids for _, in_ids, _ in self._records)):
            raise UsageError("capture after use: a recorded op already consumed "
                             "this tensor without computing its gradient")
        node_id = self.register(t)
        self._live.add(node_id)
        self._tensors[node_id] = t


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _needs_grad(t: Tensor) -> bool:
    """Whether the recording tape wants a gradient for ``t`` (``t`` is live)."""
    tape = _ACTIVE_TAPE
    return tape is not None and (
        t.requires_grad or (t.tape is tape and t.node_id in tape._live))


def _record(out: Tensor, inputs: Sequence[Tensor], backward_rule: Callable) -> Tensor:
    """Append an op to the active tape, if one is recording.

    ``backward_rule(grad_out) -> tuple`` returns one gradient array (or
    None) per input, each already summed to the input's shape. The output
    is live when any input is.
    """
    tape = _ACTIVE_TAPE
    if tape is not None:
        in_ids = tuple(tape.register(t) for t in inputs)
        out_id = tape.register(out)
        live = [i for t, i in zip(inputs, in_ids) if t.requires_grad or i in tape._live]
        if live:
            tape._live.update(live)
            tape._live.add(out_id)
        tape._records.append((out_id, in_ids, backward_rule))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep over ``tape`` from scalar ``loss``.

    Populates ``.grad`` on every ``requires_grad`` tensor (zeros when the
    loss does not depend on it) and on every captured node. Only live
    nodes get a gradient (see the module docstring). A node's first
    contribution is stored as returned, without a copy; each later one
    builds a new sum, so no array a rule returned is ever written to.
    Grads are fresh arrays each call, so repeated sweeps are reproducible,
    and no two ``.grad`` arrays share memory.
    """
    if tape.recording:
        raise UsageError("backward on an open tape; close it first")
    if loss.data.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.tape is not tape or loss.node_id is None:
        raise UsageError("loss was not produced under this tape")

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for out_id, in_ids, rule in reversed(tape._records):
        # all consumers of out_id have run: its gradient is complete
        g_out = grads.get(out_id) if out_id in tape._tensors else grads.pop(out_id, None)
        if g_out is None:
            continue
        for node_id, contrib in zip(in_ids, rule(g_out)):
            if contrib is None or node_id not in tape._live:
                continue
            acc = grads.get(node_id)  # asarray: a sum of 0-d arrays is a numpy scalar
            grads[node_id] = np.asarray(contrib if acc is None else acc + contrib,
                                        dtype=np.float64)

    handed_out: set[int] = set()  # ids of the buffers behind the grads set so far
    for node_id, t in tape._tensors.items():
        g = grads.get(node_id)
        if g is None:
            g = np.zeros_like(t.data)
        else:
            owner = id(g if g.base is None else g.base)
            if owner in handed_out:
                g = g.copy()  # e.g. both inputs of an add receive the same array
            handed_out.add(owner)
        t.grad = g


# ---------------------------------------------------------------------------
# Broadcasting helpers


def _broadcast_check(sa: tuple, sb: tuple, opname: str) -> tuple:
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise DimensionError(f"{opname}: shapes {sa} and {sb} are not broadcastable") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over axes that were expanded to broadcast up to ``g.shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(a, b, opname: str, fwd: Callable, bwd_a: Callable, bwd_b: Callable,
            reads: tuple[str, str] = ("", "")) -> Tensor:
    """Broadcasting binary op; ``bwd_a``/``bwd_b`` map (g, a, b) to the
    gradient of one side and run only when that side is live. The rule
    keeps only the operands ``reads`` names for live sides, None for others."""
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape, opname)
    out = Tensor(fwd(a.data, b.data))
    need_a, need_b = _needs_grad(a), _needs_grad(b)
    kept = (reads[0] if need_a else "") + (reads[1] if need_b else "")
    xa, xb = (a.data if "a" in kept else None), (b.data if "b" in kept else None)
    sa, sb = a.shape, b.shape

    def rule(g):
        return (_unbroadcast(bwd_a(g, xa, xb), sa) if need_a else None,
                _unbroadcast(bwd_b(g, xa, xb), sb) if need_b else None)

    return _record(out, (a, b), rule)


# ---------------------------------------------------------------------------
# Elementwise and reduction ops


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, reads=("b", "a"))


def div(a, b) -> Tensor:
    return _binary(a, b, "div", lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y), reads=("b", "ab"))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); taped with a live input, forward keeps the mask ``out > 0``."""
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    mask = out.data > 0.0 if _needs_grad(x) else None
    return _record(out, (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    return _record(out, (x,), lambda g: (g * s * (1.0 - s),))


def softmax(x: Tensor, axis: int) -> Tensor:
    """Shift-invariant softmax along ``axis``; outputs sum to 1 there."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p)

    def rule(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return ((g - inner) * p,)

    return _record(out, (x,), rule)


def xlogx(x: Tensor) -> Tensor:
    """x * ln(x) with the convention 0 * ln 0 = 0.

    The backward rule returns 0 at x <= 0 (the true one-sided derivative
    diverges there; entropy chains only reach x = 0 at saturation, where
    the upstream gradient already vanishes).
    """
    x = _as_tensor(x)
    d = x.data
    pos = d > 0.0
    safe = np.where(pos, d, 1.0)
    out = Tensor(np.where(pos, safe * np.log(safe), 0.0))
    return _record(out, (x,), lambda g: (g * np.where(pos, np.log(safe) + 1.0, 0.0),))


def mean_over_axes(x: Tensor, axes: Iterable[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(sorted(int(a) % x.data.ndim for a in axes))
    out = Tensor(x.data.mean(axis=axes))
    shape = x.shape
    count = int(np.prod([shape[a] for a in axes])) if axes else 1

    def rule(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape) / count,)

    return _record(out, (x,), rule)


def sum_over_axes(x: Tensor, axes: Iterable[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(sorted(int(a) % x.data.ndim for a in axes))
    out = Tensor(x.data.sum(axis=axes))
    shape = x.shape

    def rule(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape).copy(),)

    return _record(out, (x,), rule)


def max_over_axis(x: Tensor, axis: int) -> Tensor:
    """Max reduction; backward routes the gradient to the first arg-max."""
    x = _as_tensor(x)
    axis = int(axis) % x.data.ndim
    out = Tensor(x.data.max(axis=axis))
    idx, shape = x.data.argmax(axis=axis), x.shape

    def rule(g):
        gx = np.zeros(shape)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return (gx,)

    return _record(out, (x,), rule)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape))
    in_shape = x.shape
    return _record(out, (x,), lambda g: (g.reshape(in_shape),))


# ---------------------------------------------------------------------------
# Linear algebra and network ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def rule(g):
        return (g @ b.data.T, a.data.T @ g)

    return _record(out, (a, b), rule)


CONV_COLS_BYTES = 1 << 22  # byte budget of one forward chunk's column matrix


def conv1d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Temporal cross-correlation of (B, Cin, T) with kernels (Cout, Cin, k).

    Output length is floor((T - k) / stride) + 1. No kernel flip;
    differentiable in both x and w.

    Neither direction builds a column matrix for the whole batch, 10-14 MB
    at the encoder's shapes. Each such transient needs a free heap run of
    its own size, and the heap grows whenever it has none.

    Forward lowers a chunk of clips at a time to a channel-major im2col
    matrix ``cols`` of shape (Cin*k, chunk*T_out), one strided copy per
    kernel offset, and the chunk's GEMM ``w2 @ cols`` (``w2`` the
    (Cout, Cin*k) kernel matrix) is copied into its slice of the output.
    The chunk is as many clips as fit ``CONV_COLS_BYTES`` (4 MiB), rounded
    down to a multiple of 8 and at least 8: 16 clips at block 0, 24 at
    block 1. Both buffers are reused by every chunk. Since each chunk's
    columns start at a multiple of 8 within the whole batch's, OpenBLAS
    sums every output exactly as one whole-batch GEMM does; the tests
    check that against the whole-batch im2col oracle.

    Backward builds no columns at all (low-memory GEMM convolution,
    Anderson et al. 2017). ``xflat`` is the (Cin, B*T) input with the clips
    end to end, and ``gflat`` the (Cout, B*T) output gradient placed where
    its windows start, zero elsewhere. With N = B*T - k + 1, offset ``kk``
    is one GEMM for the kernel, ``gflat[:, :N] @ xflat[:, kk:kk+N].T``,
    and, when the input is live, one for the input, ``w[:, :, kk].T @
    gflat[:, :N]`` added into ``gx[:, kk:kk+N]``. A window that straddles
    two clips starts at a zero of ``gflat``, so it adds nothing, unless a
    sample no window reads is non-finite.

    Taped, the rule keeps the input array and the kernel, read at backward
    time, so the input must not be modified in place before the sweep, as
    for ``matmul``.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise DimensionError(f"conv1d: need (B,Cin,T) and (Cout,Cin,k), got {x.shape} and {w.shape}")
    batch, c_in, t_len = x.shape
    c_out, c_in_w, k = w.shape
    if c_in != c_in_w:
        raise DimensionError(f"conv1d: input channels {c_in} != kernel channels {c_in_w}")
    check_integer("conv1d: stride", stride, minimum=1)
    if k > t_len:
        raise DimensionError(f"conv1d: kernel {k} larger than input length {t_len}")
    t_out = (t_len - k) // stride + 1
    span = stride * (t_out - 1) + 1  # input positions one kernel offset reads
    xd, wd = x.data, w.data

    w2 = wd.reshape(c_out, c_in * k)
    chunk = min(batch, max(8, CONV_COLS_BYTES // (c_in * k * t_out * 8) // 8 * 8))
    cols_buf = np.empty(c_in * k * chunk * t_out)  # every chunk reuses both buffers
    part_buf = np.empty(c_out * chunk * t_out)
    out = np.empty((batch, c_out, t_out))
    for b0 in range(0, batch, chunk):
        xt = xd[b0:b0 + chunk].transpose(1, 0, 2)  # (Cin, n, T) view
        n = xt.shape[1]
        # cols[ci, kk, b, t] = x[b0 + b, ci, t*stride + kk]: rows follow w's (Cin, k) layout
        cols = cols_buf[:c_in * k * n * t_out].reshape(c_in, k, n, t_out)
        for kk in range(k):
            cols[:, kk] = xt[:, :, kk:kk + span:stride]
        part = part_buf[:c_out * n * t_out].reshape(c_out, n * t_out)
        np.matmul(w2, cols.reshape(c_in * k, n * t_out), out=part)
        out[b0:b0 + n] = part.reshape(c_out, n, t_out).transpose(1, 0, 2)
    need_x = _needs_grad(x)

    def rule(g):
        n_flat = batch * t_len - k + 1
        gpad = np.zeros((c_out, batch, t_len))
        gpad[:, :, 0:span:stride] = g.transpose(1, 0, 2)
        gflat = gpad.reshape(c_out, batch * t_len)[:, :n_flat]
        xflat = np.ascontiguousarray(xd.transpose(1, 0, 2)).reshape(c_in, batch * t_len)
        gw = np.empty((c_out, c_in, k))
        for kk in range(k):
            gw[:, :, kk] = gflat @ xflat[:, kk:kk + n_flat].T
        if not need_x:  # e.g. the raw clip batch
            return (None, gw)
        del xflat  # free before the input gradient's buffers
        wt = np.ascontiguousarray(wd.transpose(2, 1, 0))  # (k, Cin, Cout)
        gxflat = np.zeros((c_in, batch * t_len))
        part = np.empty((c_in, n_flat))
        for kk in range(k):  # windows overlap, so add per offset
            np.matmul(wt[kk], gflat, out=part)
            gxflat[:, kk:kk + n_flat] += part
        del gpad, gflat, part
        return (np.ascontiguousarray(gxflat.reshape(c_in, batch, t_len).transpose(1, 0, 2)), gw)

    return _record(Tensor(out), (x, w), rule)


def avg_pool1d(x: Tensor, pool_len: int) -> Tensor:
    """Non-overlapping temporal mean pooling; a trailing remainder is dropped."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise DimensionError(f"avg_pool1d: need (B,C,T), got {x.shape}")
    check_integer("avg_pool1d: pool_len", pool_len, minimum=1)
    t_len = x.shape[2]
    t_out = t_len // pool_len
    if t_out < 1:
        raise DimensionError(f"avg_pool1d: pool {pool_len} larger than input length {t_len}")
    span = t_out * pool_len
    # Sum the pool_len strided phases left to right, then divide. Below 8
    # terms numpy's mean sums each window in this order too, so the result
    # matches a per-window mean bit for bit; longer windows agree to rounding.
    if pool_len == 1:
        acc = x.data.copy()
    else:
        acc = x.data[:, :, 0:span:pool_len] + x.data[:, :, 1:span:pool_len]
        for j in range(2, pool_len):
            acc += x.data[:, :, j:span:pool_len]
        acc /= pool_len
    out = Tensor(acc)
    in_shape = x.shape

    def rule(g):
        gx = np.empty(in_shape)
        gp = g / pool_len
        for j in range(pool_len):
            gx[:, :, j:span:pool_len] = gp
        gx[:, :, span:] = 0.0
        return (gx,)

    return _record(out, (x,), rule)


class BatchNormState:
    """Per-channel running statistics for one batch-norm site."""

    __slots__ = ("mean", "var")

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)


# variance floor and running-statistics weight of a batch (Ioffe & Szegedy 2015)
BN_EPS, BN_MOMENTUM = 1e-5, 0.1


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              mode: str, eps: float = BN_EPS, momentum_bn: float = BN_MOMENTUM) -> Tensor:
    """Per-channel normalization of (B, C, S) over batch and spatial axes.

    Train mode normalizes with (biased) batch statistics and updates the
    running statistics in place by exponential moving average; eval mode
    normalizes with the running statistics. Biased variance is used both
    for normalization and for the running update.

    Train mode centres the input once, takes the variance as the mean of
    the squared centred values and scales the centred copy in place into
    x_hat. Backward forms the two channel sums sum(g) and sum(g * x_hat),
    which are the beta and gamma gradients, and builds the input gradient
    gamma * inv_std * (g - sum(g)/n - x_hat * sum(g * x_hat)/n) from them.

    Eval mode folds the running statistics into the affine (Ioffe & Szegedy
    2015): scale = gamma * inv_std and shift = beta - mean * scale per
    channel, and y = x * scale + shift is written into one fresh array. Its
    backward, which only gradient checks reach, rebuilds x_hat from x.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 3:
        raise DimensionError(f"batchnorm: need (B,C,S), got {x.shape}")
    chans = x.shape[1]
    if gamma.shape != (chans,) or beta.shape != (chans,):
        raise DimensionError(
            f"batchnorm: affine shapes {gamma.shape}/{beta.shape} do not match C={chans}")
    if mode not in ("train", "eval"):
        raise ValidationError(f"batchnorm: mode must be train|eval, got {mode!r}")
    if eps <= 0:
        raise ValidationError(f"batchnorm: eps must be > 0, got {eps}")

    n = x.shape[0] * x.shape[2]
    gam = gamma.data
    if mode == "train":
        mu = x.data.mean(axis=(0, 2))
        xhat = x.data - mu[:, None]  # centred once; scaled into xhat below
        var = np.einsum("bcs,bcs->c", xhat, xhat) / n
        state.mean = (1.0 - momentum_bn) * state.mean + momentum_bn * mu
        state.var = (1.0 - momentum_bn) * state.var + momentum_bn * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std[:, None]
        y = xhat * gam[:, None]
        y += beta.data[:, None]

        def rule(g):
            gbeta = g.sum(axis=(0, 2))
            ggamma = np.einsum("bcs,bcs->c", g, xhat)
            # gamma*inv_std * (g - mean(g) - xhat*mean(g*xhat)), built in place
            gx = xhat * (ggamma / -n)[:, None]
            gx += g
            gx -= (gbeta / n)[:, None]
            gx *= (gam * inv_std)[:, None]
            return (gx, ggamma, gbeta)
    else:
        mu, xd = state.mean, x.data
        inv_std = 1.0 / np.sqrt(state.var + eps)
        scale = gam * inv_std
        y = xd * scale[:, None]
        y += (beta.data - mu * scale)[:, None]

        def rule(g):
            xhat_eval = (xd - mu[:, None]) * inv_std[:, None]
            return (g * scale[:, None], np.einsum("bcs,bcs->c", g, xhat_eval),
                    g.sum(axis=(0, 2)))

    return _record(Tensor(y), (x, gamma, beta), rule)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of (B, classes) logits vs int labels."""
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy_logits: need (B, classes), got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    batch, n_classes = logits.shape
    if labels.shape != (batch,):
        raise DimensionError(f"cross_entropy_logits: labels shape {labels.shape} != ({batch},)")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValidationError(
            f"cross_entropy_logits: labels must lie in [0, {n_classes}), got "
            f"[{labels.min()}, {labels.max()}]")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(batch), labels]
    out = Tensor(np.mean(lse - picked))

    def rule(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(batch), labels] -= 1.0
        return (float(g) * p / batch,)

    return _record(out, (logits,), rule)

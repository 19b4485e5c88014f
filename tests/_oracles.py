"""Independent reference implementations used as test oracles.

Everything here is deliberately written with explicit loops or textbook
formulas, sharing no code with the package under test.
"""

import numpy as np

from eegfs.autodiff import DimensionError, Tape, Tensor, ValidationError, backward


def matmul_loops(a, b):
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def conv1d_loops(x, w, stride=1):
    """Nested-sum cross-correlation over (B,Cin,T) and (Cout,Cin,k)."""
    bsz, c_in, t_len = x.shape
    c_out, _, k = w.shape
    t_out = (t_len - k) // stride + 1
    out = np.zeros((bsz, c_out, t_out))
    for b in range(bsz):
        for co in range(c_out):
            for t in range(t_out):
                acc = 0.0
                for ci in range(c_in):
                    for kk in range(k):
                        acc += x[b, ci, t * stride + kk] * w[co, ci, kk]
                out[b, co, t] = acc
    return out


def _offset_window(arr, kk, stride, t_out):
    """arr[..., kk + t*stride] for t in range(t_out)."""
    return arr[:, :, kk:kk + stride * (t_out - 1) + 1:stride]


def conv1d_offsets(x, w, stride=1):
    """Cross-correlation summed one kernel offset at a time with einsum."""
    bsz, _, t_len = x.shape
    c_out, _, k = w.shape
    t_out = (t_len - k) // stride + 1
    out = np.zeros((bsz, c_out, t_out))
    for kk in range(k):
        out += np.einsum("bit,oi->bot", _offset_window(x, kk, stride, t_out), w[:, :, kk])
    return out


def conv1d_vjp_offsets(x, w, g, stride=1):
    """(gx, gw) of sum(g * conv1d(x, w)), one kernel offset at a time."""
    k = w.shape[2]
    t_out = g.shape[2]
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for kk in range(k):
        gw[:, :, kk] = np.einsum("bot,bit->oi", g, _offset_window(x, kk, stride, t_out))
        _offset_window(gx, kk, stride, t_out)[...] += np.einsum("bot,oi->bit", g, w[:, :, kk])
    return gx, gw


def conv1d_vjp_basis(x, w, g, stride=1):
    """(gx, gw) of the bilinear sum(g * conv1d_loops(x, w)), one input
    element at a time: the derivative along a basis vector e is the value
    at e, because the map is linear in each argument."""
    def along(shape, value_at):
        out = np.zeros(shape)
        for idx in np.ndindex(*shape):
            e = np.zeros(shape)
            e[idx] = 1.0
            out[idx] = value_at(e)
        return out

    gx = along(x.shape, lambda e: (g * conv1d_loops(e, w, stride)).sum())
    gw = along(w.shape, lambda e: (g * conv1d_loops(x, e, stride)).sum())
    return gx, gw


def batchnorm_train_vjp(x, gamma, g, eps):
    """Textbook train-mode batch-norm backward (Ioffe & Szegedy 2015, the
    chain rule through the batch mean and variance), channel by channel.
    Returns (gx, ggamma, gbeta)."""
    gx = np.zeros_like(x)
    ggamma = np.zeros(x.shape[1])
    gbeta = np.zeros(x.shape[1])
    for c in range(x.shape[1]):
        xc, gc = x[:, c, :], g[:, c, :]
        m = xc.size
        mu = xc.sum() / m
        var = ((xc - mu) ** 2).sum() / m
        xhat = (xc - mu) / np.sqrt(var + eps)
        dxhat = gc * gamma[c]
        dvar = (dxhat * (xc - mu)).sum() * -0.5 * (var + eps) ** -1.5
        dmu = (-dxhat / np.sqrt(var + eps)).sum() + dvar * (-2.0 * (xc - mu)).sum() / m
        gx[:, c, :] = dxhat / np.sqrt(var + eps) + dvar * 2.0 * (xc - mu) / m + dmu / m
        ggamma[c] = (gc * xhat).sum()
        gbeta[c] = gc.sum()
    return gx, ggamma, gbeta


def batchnorm_formula(x, gamma, beta, mean, var, eps):
    """(x - mu) / sqrt(var + eps) * gamma + beta, per channel of (B,C,S)."""
    out = np.zeros_like(x)
    for c in range(x.shape[1]):
        out[:, c, :] = (x[:, c, :] - mean[c]) / np.sqrt(var[c] + eps) * gamma[c] + beta[c]
    return out


def mean_loops(x, axes):
    """Accumulating-loop mean over the named axes."""
    axes = tuple(sorted(a % x.ndim for a in axes))
    kept = tuple(i for i in range(x.ndim) if i not in axes)
    out = np.zeros(tuple(x.shape[i] for i in kept))
    count = 1
    for a in axes:
        count *= x.shape[a]
    for idx in np.ndindex(*x.shape):
        out_idx = tuple(idx[i] for i in kept)
        out[out_idx] += x[idx]
    return out / count


def cross_entropy_per_sample(logits, labels):
    """Mean over samples of logsumexp(z) - z[label], computed one by one."""
    total = 0.0
    for i in range(logits.shape[0]):
        z = logits[i]
        m = z.max()
        total += m + np.log(np.exp(z - m).sum()) - z[labels[i]]
    return total / logits.shape[0]


def softmax_exp_normalize(v):
    """Plain exp-normalize along the first axis."""
    e = np.exp(v - v.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def entropy_direct_sum(p):
    """-sum p ln p over a 1-D probability vector, 0 ln 0 = 0."""
    total = 0.0
    for v in p:
        if v > 0:
            total -= v * np.log(v)
    return total


def probability(v: np.ndarray, kind: str) -> np.ndarray:
    """Channel probabilities of heat-map values: softmax over the channel
    axis (first axis), or independent per-channel sigmoids."""
    v = np.asarray(v, dtype=np.float64)
    if kind == "softmax":
        e = np.exp(v - v.max(axis=0, keepdims=True))
        return e / e.sum(axis=0, keepdims=True)
    if kind == "sigmoid":
        return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                        np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    raise ValidationError(f"kind must be softmax|sigmoid, got {kind!r}")


def entropy(p: np.ndarray, kind: str) -> float | np.ndarray:
    """Channel entropy in nats, with 0 log 0 = 0.

    Softmax kind treats the channel axis as one distribution; sigmoid
    kind sums independent binary entropies over channels. A 1-D input
    yields a float; a (C, S) input yields per-location entropies (S,).
    """
    p = np.asarray(p, dtype=np.float64)

    def xlogx(a):
        return np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0)

    if kind == "softmax":
        h = -xlogx(p).sum(axis=0)
    elif kind == "sigmoid":
        h = -(xlogx(p) + xlogx(1.0 - p)).sum(axis=0)
    else:
        raise ValidationError(f"kind must be softmax|sigmoid, got {kind!r}")
    return float(h) if p.ndim == 1 else h


def lambda_weights(entropies: np.ndarray, eps_h: float = 1e-12) -> np.ndarray:
    """One minus entropy normalized by its maximum, per location.

    When every entropy is below ``eps_h`` there is no uncertainty signal
    to normalize by; all locations are kept fully (weights of one).
    """
    h = np.asarray(entropies, dtype=np.float64)
    if (h < 0).any():
        raise ValidationError("entropies must be nonnegative")
    hmax = h.max()
    if hmax < eps_h:
        return np.ones_like(h)
    return 1.0 - h / hmax


def auroc_pair_count(scores, labels):
    """O(n^2) positive-outranks-negative count; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auroc_midrank_loop(scores, labels):
    """Rank-sum AUROC with 1-based midranks found by walking each tie run
    of the stably sorted scores; the same arithmetic as the package's."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def cosine_sim(g1, g2):
    """Cosine similarity of two equal-shape gradients, flattened.

    Returns 0 when either norm is below 1e-12, so degenerate gradients
    never outrank informative ones.
    """
    a = np.asarray(g1, dtype=np.float64).ravel()
    b = np.asarray(g2, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionError(f"cosine_sim: shapes {g1.shape} and {g2.shape} differ")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b / (na * nb))


def top_k_sort_all(anchor, candidates, k):
    """Brute-force top-k: score every candidate, full sort, take k.

    ``candidates`` is a list of (iteration, sample_index, flat_gradient);
    tie-break is lower (iteration, sample_index) first. Returns the list
    of (iteration, sample_index) keys selected for this anchor.
    """
    a = anchor.ravel()
    na = np.linalg.norm(a)
    scored = []
    for it, si, g in candidates:
        gf = g.ravel()
        ng = np.linalg.norm(gf)
        sim = 0.0 if na < 1e-12 or ng < 1e-12 else float(gf @ a / (ng * na))
        scored.append((-sim, it, si))
    scored.sort()
    return [(it, si) for _, it, si in scored[:k]]


def fs_scalar_reference(h, alpha, kind, bn_eps):
    """Loop-level reference of the full selection pass with fixed channel
    weights: weighting, train-mode normalization, batch pooling, channel
    probabilities, entropies, location weights, residual fusion.

    Returns (output, lambda_per_location).
    """
    bsz, chans, spat = h.shape
    pre = np.zeros_like(h)
    for i in range(bsz):
        for c in range(chans):
            for r in range(spat):
                pre[i, c, r] = alpha[c] * h[i, c, r]
    v = np.zeros_like(h)
    for c in range(chans):
        vals = [pre[i, c, r] for i in range(bsz) for r in range(spat)]
        mu = sum(vals) / len(vals)
        var = sum((x - mu) ** 2 for x in vals) / len(vals)
        for i in range(bsz):
            for r in range(spat):
                v[i, c, r] = (pre[i, c, r] - mu) / np.sqrt(var + bn_eps)
    vbar = np.zeros((chans, spat))
    for c in range(chans):
        for r in range(spat):
            vbar[c, r] = sum(v[i, c, r] for i in range(bsz)) / bsz
    ent = np.zeros(spat)
    for r in range(spat):
        col = vbar[:, r]
        if kind == "softmax":
            e = np.exp(col - col.max())
            p = e / e.sum()
            ent[r] = entropy_direct_sum(p)
        else:
            p = 1.0 / (1.0 + np.exp(-col))
            ent[r] = sum(entropy_direct_sum(np.array([q, 1.0 - q])) for q in p)
    hmax = ent.max()
    lam = np.ones(spat) if hmax < 1e-12 else 1.0 - ent / hmax
    out = np.zeros_like(h)
    for i in range(bsz):
        for c in range(chans):
            for r in range(spat):
                out[i, c, r] = h[i, c, r] + lam[r] * v[i, c, r]
    return out, lam


def adam_scalar_reference(theta, grads, lr, wd, b1, b2, eps):
    """Step-by-step scalar Adam with decoupled weight decay."""
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        theta = theta - lr * wd * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


def finite_difference_grads(build, arrays, h=1e-5):
    """Fourth-order central-difference gradients of a taped scalar function:
    (8(f(h) - f(-h)) - (f(2h) - f(-2h))) / 12h, the differences taken first
    so that a zero gradient comes out as zero rather than rounding residue.

    ``build`` maps a list of Tensors to a scalar Tensor; it is re-run for
    every perturbed element, so it must be a pure function of its inputs.
    """
    def value(arrs):
        with Tape():
            out = build([Tensor(a) for a in arrs])
        return out.item()

    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = g.ravel()
        for idx in range(a.size):
            def at(step):
                moved = [arr.copy() for arr in arrays]
                moved[i].ravel()[idx] += step
                return value(moved)

            flat[idx] = (8 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12 * h)
        grads.append(g)
    return grads


def check_gradients(build, arrays, rel_tol=1e-6, h=1e-5):
    """Assert taped gradients match central differences for every input."""
    tape = Tape()
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with tape:
        out = build(tensors)
    backward(out, tape)
    fd = finite_difference_grads(build, arrays, h=h)
    for t, g_fd in zip(tensors, fd):
        err = np.abs(t.grad - g_fd) / (np.abs(g_fd) + 1e-8)
        assert err.max() < rel_tol, f"gradient mismatch: max rel err {err.max():.3e}"


def generate_loop(spec):
    """The corpus definition drawn one channel and one sinusoid at a time:
    per clip, a stream seeded by ``seed + clip id`` gives each channel 3
    uniform(4, 30) Hz frequencies, 3 uniform(0, 2 pi) phases and T
    normal(0, sigma) samples, then a positive clip's spike draws. Returns
    (clip_id, group_id, label, data, spike_window) tuples."""
    n_pos = int(round(spec.n_clips * spec.class_balance))
    positives = set(np.random.default_rng(spec.seed).permutation(spec.n_clips)[:n_pos].tolist())
    ts = np.arange(spec.timestamps) / spec.sample_rate
    clips = []
    for clip_id in range(spec.n_clips):
        rng = np.random.default_rng(spec.seed + clip_id)
        data = np.zeros((spec.channels, spec.timestamps))
        for c in range(spec.channels):
            freqs = rng.uniform(4.0, 30.0, size=3)
            phases = rng.uniform(0.0, 2 * np.pi, size=3)
            for f, ph in zip(freqs, phases):
                data[c] += 0.3 * spec.noise_sigma * np.sin(2 * np.pi * f * ts + ph)
            data[c] += rng.normal(0.0, spec.noise_sigma, size=spec.timestamps)
        label = int(clip_id in positives)
        window = _spike_formula(rng, data, spec) if label else None
        clips.append((clip_id, clip_id % spec.n_groups, label,
                      data.astype(np.float32).astype(np.float64), window))
    return clips


def _spike_formula(rng, data, spec):
    """Biphasic transient: Gaussian peak of FWHM w_peak, then a 0.6-deep
    Gaussian trough, on ``spike_channel_span`` channels from c0."""
    t_len = data.shape[1]
    widths = (spec.spike_width_ms_min, spec.spike_width_ms_max)
    w_peak = rng.uniform(*widths) * spec.sample_rate / 1000.0
    w_trough = rng.uniform(*widths) * spec.sample_rate / 1000.0
    gap = (w_peak + w_trough) / 2.0
    t0 = rng.uniform(2.0 * w_peak, t_len - 1 - 2.0 * w_trough - gap)
    t1 = t0 + gap
    c0 = int(rng.integers(0, spec.channels - spec.spike_channel_span + 1))
    ts = np.arange(t_len, dtype=np.float64)
    peak = np.exp(-0.5 * ((ts - t0) / (w_peak / 2.355)) ** 2)
    trough = np.exp(-0.5 * ((ts - t1) / (w_trough / 2.355)) ** 2)
    data[c0:c0 + spec.spike_channel_span] += spec.spike_amplitude * (peak - 0.6 * trough)
    return (max(0, int(np.floor(t0 - 1.5 * w_peak))),
            min(t_len - 1, int(np.ceil(t1 + 1.5 * w_trough))))

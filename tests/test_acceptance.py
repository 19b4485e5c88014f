"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest -v -s`` to see them live).

The end-to-end criteria train real models on the default synthetic
corpus; expensive artifacts are shared through module-scoped fixtures.
"""

import time
import zlib

import numpy as np
import pytest

from eegfs import autodiff as ad
from eegfs.autodiff import BatchNormState, Tape, Tensor, backward
from eegfs.bank import GradientBank, apply_decay, compute_alpha
from eegfs.cli import main as cli_main
from eegfs.data import CorpusSpec, generate, read, split, write
from eegfs.encoder import Encoder, EncoderConfig
from eegfs.metrics import auroc
from eegfs.selection import (
    FeatureSelector,
    export_attribution,
    fs_forward,
)
from eegfs.training import (
    TrainConfig,
    evaluate,
    load,
    restore_model,
    save,
    train,
    write_metrics_csv,
)
from _oracles import (
    auroc_pair_count,
    batchnorm_formula,
    check_gradients,
    conv1d_loops,
    entropy,
    entropy_direct_sum,
    finite_difference_grads,
    lambda_weights,
    matmul_loops,
    probability,
    top_k_sort_all,
)


def _ok(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS — {detail}")


# ---------------------------------------------------------------------------
# Shared expensive artifacts


@pytest.fixture(scope="module")
def default_corpus():
    return generate(CorpusSpec())


@pytest.fixture(scope="module")
def default_splits(default_corpus):
    return split(default_corpus, (0.6, 0.2, 0.2), by_group=True, seed=42)


@pytest.fixture(scope="module")
def e2e_runs(default_splits):
    """The criterion-6 run pair: selection enabled and disabled, 30 epochs."""
    tr, va, _ = default_splits
    t0 = time.perf_counter()
    with_fs = train(TrainConfig(epochs=30), tr, va)
    without_fs = train(TrainConfig(epochs=30, fs_enabled=False), tr, va)
    return {"with": with_fs, "without": without_fs,
            "seconds": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# Criterion 1: autodiff soundness


def _op_cases():
    def away(rng, shape, margin=0.1):
        x = rng.standard_normal(shape)
        return x + np.sign(x) * margin

    return [
        ("add", lambda ts: ad.sum_over_axes(ad.mul(ad.add(ts[0], ts[1]), ts[1]), (0, 1)),
         lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("sub", lambda ts: ad.sum_over_axes(ad.mul(ad.sub(ts[0], ts[1]), ts[0]), (0,)),
         lambda rng: [rng.standard_normal(5), rng.standard_normal(5)]),
        ("mul", lambda ts: ad.sum_over_axes(ad.mul(ts[0], ts[1]), (0, 1, 2)),
         lambda rng: [rng.standard_normal((2, 3, 4)), rng.standard_normal(4)]),
        ("div", lambda ts: ad.sum_over_axes(ad.div(ts[0], ts[1]), (0,)),
         lambda rng: [rng.standard_normal(6), away(rng, 6, 0.5)]),
        ("relu", lambda ts: ad.sum_over_axes(ad.mul(ad.relu(ts[0]), ts[0]), (0, 1)),
         lambda rng: [away(rng, (3, 4))]),
        ("sigmoid", lambda ts: ad.sum_over_axes(ad.mul(ad.sigmoid(ts[0]), ts[0]), (0,)),
         lambda rng: [rng.standard_normal(7)]),
        ("softmax", lambda ts: ad.sum_over_axes(ad.mul(ad.softmax(ts[0], axis=1), ts[0]), (0, 1)),
         lambda rng: [rng.standard_normal((3, 5))]),
        ("xlogx", lambda ts: ad.sum_over_axes(ad.xlogx(ts[0]), (0,)),
         lambda rng: [rng.uniform(0.05, 2.0, 6)]),
        ("mean", lambda ts: ad.sum_over_axes(ad.mul(ad.mean_over_axes(ts[0], (0, 2)), ts[1]), (0,)),
         lambda rng: [rng.standard_normal((2, 3, 4)), rng.standard_normal(3)]),
        ("sum", lambda ts: ad.sum_over_axes(ad.mul(ad.sum_over_axes(ts[0], (1,)), ts[1]), (0,)),
         lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal(3)]),
        ("max", lambda ts: ad.mul(ad.max_over_axis(ad.max_over_axis(ts[0], 1), 0), 2.0),
         lambda rng: [rng.permutation(12).reshape(3, 4) + rng.uniform(0, 0.3, (3, 4))]),
        ("reshape", lambda ts: ad.sum_over_axes(ad.mul(ad.reshape(ts[0], (6,)), ts[1]), (0,)),
         lambda rng: [rng.standard_normal((2, 3)), rng.standard_normal(6)]),
        ("matmul", lambda ts: ad.sum_over_axes(ad.mul(ad.matmul(ts[0], ts[1]), ts[2]), (0, 1)),
         lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                      rng.standard_normal((3, 2))]),
        ("conv1d", lambda ts: ad.sum_over_axes(
            ad.mul(ad.conv1d(ts[0], ts[1], stride=2, padding=1), ts[2]), (0, 1, 2)),
         lambda rng: [rng.standard_normal((2, 3, 9)), rng.standard_normal((4, 3, 3)),
                      rng.standard_normal((2, 4, 5))]),
        ("avg_pool", lambda ts: ad.sum_over_axes(ad.mul(ad.avg_pool1d(ts[0], 2), ts[1]), (0, 1, 2)),
         lambda rng: [rng.standard_normal((2, 3, 7)), rng.standard_normal((2, 3, 3))]),
        ("batchnorm", lambda ts: ad.sum_over_axes(
            ad.mul(ad.batchnorm(ts[0], ts[1], ts[2], BatchNormState(3), "train"), ts[3]),
            (0, 1, 2)),
         lambda rng: [rng.standard_normal((4, 3, 5)), rng.uniform(0.5, 1.5, 3),
                      rng.standard_normal(3), rng.standard_normal((4, 3, 5))]),
        ("cross_entropy", lambda ts: ad.cross_entropy_logits(ts[0], [0, 1, 1]),
         lambda rng: [rng.standard_normal((3, 2)) * 2]),
    ]


def test_criterion_1_autodiff_soundness():
    t0 = time.perf_counter()
    cases = _op_cases()
    for name, build, gen in cases:
        rng = np.random.default_rng(zlib.crc32(("c1-" + name).encode()))
        for _ in range(20):
            check_gradients(build, gen(rng), rel_tol=1e-6, h=1e-3)

    # composed encoder + selection forward, gradient w.r.t. the raw input
    rng = np.random.default_rng(4242)
    cfg = EncoderConfig(in_channels=2, clip_len=14, blocks=((3, 3, 1, 2), (4, 3, 1, 1)),
                        insertion_layer=0)
    for trial in range(20):
        enc = Encoder(cfg, seed=trial)
        chans, spat = cfg.feature_shape()
        bank = GradientBank(2, 1, 0.5, chans, spat)
        sel = FeatureSelector(bank, 0.2)
        for j in range(1, 4):
            bank.push(j, rng.standard_normal((2, chans, spat)))
        labels = rng.integers(0, 2, size=2)

        def build(ts):
            logits, _ = enc.forward(ts[0], fs=sel, mode="train")
            return ad.cross_entropy_logits(logits, labels)

        check_gradients(build, [rng.standard_normal((2, 2, 14))], rel_tol=1e-5)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _ok(1, f"{len(cases)} ops x20 at rel<1e-6, composed x20 at rel<1e-5, {dt:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalences


def test_criterion_2_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    for _ in range(200):  # top-k sampling vs full-sort oracle, exact index sets
        q = int(rng.integers(1, 5))
        b = int(rng.integers(1, 4))
        k = int(rng.integers(1, q * b + 1))
        bank = GradientBank(q, k, 0.5, 2, 3)
        for j in range(1, q + 2):
            bank.push(j, rng.standard_normal((b, 2, 3)))
        s = bank.sample_top_k()
        candidates = [(it, si, g[si]) for it, g in list(bank.entries)[:-1]
                      for si in range(b)]
        anchors = bank.entries[-1][1]
        for i in range(b):
            assert s.selected_keys[i * k:(i + 1) * k] == top_k_sort_all(
                anchors[i], candidates, k)

    for _ in range(100):  # AUROC vs pair counting
        n = int(rng.integers(4, 40))
        scores = [(float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
                   if rng.uniform() < 0.5 else float(rng.uniform()),
                   int(rng.integers(0, 2))) for _ in range(n)]
        labels = [y for _, y in scores]
        if len(set(labels)) < 2:
            continue
        assert abs(auroc(scores) - auroc_pair_count([p for p, _ in scores],
                                                    labels)) < 1e-12

    for _ in range(20):  # conv / matmul / batchnorm / entropy vs loop oracles
        a = rng.standard_normal((3, 4))
        bmat = rng.standard_normal((4, 2))
        assert np.abs(ad.matmul(Tensor(a), Tensor(bmat)).data
                      - matmul_loops(a, bmat)).max() < 1e-12
        x = rng.standard_normal((2, 3, 10))
        w = rng.standard_normal((4, 3, 3))
        assert np.abs(ad.conv1d(Tensor(x), Tensor(w)).data
                      - conv1d_loops(x, w)).max() < 1e-12
        xb = rng.standard_normal((4, 3, 5))
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)
        got = ad.batchnorm(Tensor(xb), Tensor(gamma), Tensor(beta),
                           BatchNormState(3), "train", eps=1e-5).data
        want = batchnorm_formula(xb, gamma, beta, xb.mean(axis=(0, 2)),
                                 xb.var(axis=(0, 2)), 1e-5)
        assert np.abs(got - want).max() < 1e-12
        p = rng.dirichlet(np.ones(5))
        assert abs(entropy(p, "softmax") - entropy_direct_sum(p)) < 1e-12

    dt = time.perf_counter() - t0
    assert dt < 60.0
    _ok(2, f"top-k 200 banks exact, AUROC 100 lists <1e-12, loop oracles <1e-12, {dt:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: selection invariants (>= 500 randomized cases)


def test_criterion_3_selection_invariants():
    rng = np.random.default_rng(3)
    checked = 0
    for trial in range(500):
        c = int(rng.integers(2, 7))
        s = int(rng.integers(2, 9))
        kind = "softmax" if trial % 2 == 0 else "sigmoid"
        v = rng.standard_normal((c, s)) * rng.uniform(0.1, 10)
        p = probability(v, kind)
        ent = entropy(p, kind)
        bound = np.log(c) if kind == "softmax" else c * np.log(2)
        assert (ent >= -1e-12).all() and (ent <= bound + 1e-12).all()
        lam = lambda_weights(ent)
        assert (lam >= 0).all() and (lam <= 1).all()
        if ent.max() >= 1e-12:
            assert lam[ent.argmax()] == 0.0
        if kind == "softmax":  # shift invariance of p, H, lambda
            shift = rng.uniform(-50, 50)
            p2 = probability(v + shift, kind)
            ent2 = entropy(p2, kind)
            assert np.abs(p - p2).max() < 1e-12
            assert np.abs(ent - ent2).max() < 1e-12
            assert np.abs(lam - lambda_weights(ent2)).max() < 1e-12
        checked += 1

    # identity under warmup and under lambda == 0
    for trial in range(50):
        c, s, b = 4, 6, 2
        bank = GradientBank(2, 1, 0.5, c, s)
        sel = FeatureSelector(bank, 0.2)
        h = Tensor(rng.standard_normal((b, c, s)))
        assert fs_forward(h, bank, sel, "train") is h      # warmup
        for j in range(1, 4):
            bank.push(j, rng.standard_normal((b, c, s)))
        pattern = rng.standard_normal(c)
        flat = np.broadcast_to(pattern[None, :, None], (b, c, s)).copy()
        out = fs_forward(Tensor(flat), bank, sel, "train")  # equal entropies
        np.testing.assert_array_equal(sel.last_lambda, np.zeros(s))
        np.testing.assert_array_equal(out.data, flat)

    _ok(3, f"{checked} randomized cases + 50 identity cases")


# ---------------------------------------------------------------------------
# Criterion 4: bank invariants


def test_criterion_4_bank_invariants():
    rng = np.random.default_rng(4)

    for _ in range(100):  # FIFO law vs list model
        q = int(rng.integers(1, 6))
        bank = GradientBank(q, 1, 0.5, 2, 2)
        pushed = []
        j = 0
        for _ in range(int(rng.integers(1, 25))):
            j += int(rng.integers(1, 3))
            bank.push(j, rng.standard_normal((2, 2, 2)))
            pushed.append(j)
            assert len(bank.entries) <= q + 1
        assert [it for it, _ in bank.entries] == pushed[-(q + 1):]

    def sample_set(ages, rng):
        from eegfs.bank import SampledGradients
        return SampledGradients(
            recent=rng.standard_normal((2, 3, 4)),
            sampled=rng.standard_normal((len(ages), 3, 4)),
            ages=np.array(ages), selected_keys=[(1, i) for i in range(len(ages))])

    for gamma in (0.0, 0.25, 0.5, 1.0):  # decay factors exactly gamma**age
        s0 = sample_set([2, 3, 5], rng)
        d = apply_decay(s0, gamma)
        np.testing.assert_array_equal(d.recent, s0.recent * gamma)
        for row, age in enumerate(d.ages):
            np.testing.assert_array_equal(d.sampled[row], s0.sampled[row] * gamma ** age)

    for _ in range(50):  # cosine scale-invariance of the selected index set
        scale = float(rng.uniform(1e-3, 1e3))
        b1 = GradientBank(3, 2, 0.5, 2, 2)
        b2 = GradientBank(3, 2, 0.5, 2, 2)
        for j in range(1, 5):
            e = rng.standard_normal((2, 2, 2))
            b1.push(j, e)
            b2.push(j, e * scale)
        assert b1.sample_top_k().selected_keys == b2.sample_top_k().selected_keys

    for _ in range(50):  # blend boundaries
        d = apply_decay(sample_set([2, 4], rng), 0.5)
        np.testing.assert_allclose(compute_alpha(d, 0.0),
                                   d.recent.mean(axis=(0, 2)), atol=1e-15)
        np.testing.assert_allclose(compute_alpha(d, 1.0),
                                   d.sampled.mean(axis=(0, 2)), atol=1e-15)

    _ok(4, "FIFO law x100, decay factors gamma in {0,0.25,0.5,1}, "
           "scale-invariance x50, blend boundaries x50")


# ---------------------------------------------------------------------------
# Criterion 5: determinism and persistence


def test_criterion_5_determinism_and_persistence(tmp_path):
    spec = CorpusSpec(n_clips=96, channels=4, timestamps=80, n_groups=8, seed=5)
    corpus = generate(spec)
    p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    write(corpus, p1)
    write(read(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()          # dataset round trip

    tr, va, _ = split(corpus, (0.6, 0.2, 0.2), by_group=True, seed=1)
    enc = EncoderConfig(in_channels=4, clip_len=80,
                        blocks=((4, 5, 1, 2), (4, 3, 1, 2)), insertion_layer=0)
    cfg10 = TrainConfig(epochs=10, batch_size=16, bank_size=2, seed=9, encoder=enc)

    r1 = train(cfg10, tr, va)
    r2 = train(cfg10, tr, va)
    ck1, ck2 = tmp_path / "r1.bin", tmp_path / "r2.bin"
    save(r1.final, ck1)
    save(r2.final, ck2)
    assert ck1.read_bytes() == ck2.read_bytes()        # run determinism
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_metrics_csv(r1.log, m1)
    write_metrics_csv(r2.log, m2)
    assert m1.read_bytes() == m2.read_bytes()

    ck_rt = tmp_path / "rt.bin"
    save(load(ck1), ck_rt)                             # checkpoint round trip
    assert ck_rt.read_bytes() == ck1.read_bytes()

    cfg5 = TrainConfig(epochs=5, batch_size=16, bank_size=2, seed=9, encoder=enc)
    half = train(cfg5, tr, va)
    mid = tmp_path / "mid.bin"
    save(half.final, mid)
    resumed = train(cfg10, tr, va, resume=load(mid))   # resume equivalence
    ck3 = tmp_path / "r3.bin"
    save(resumed.final, ck3)
    assert ck3.read_bytes() == ck1.read_bytes()
    assert resumed.log == [r for r in r1.log if r.epoch > 5]

    _ok(5, "bit-identical seeded runs, checkpoint/dataset round trips, "
           "resume(5->10) == uninterrupted(10)")


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end synthetic task


def test_criterion_6_end_to_end(default_splits, e2e_runs):
    _, _, te = default_splits
    rep = evaluate(e2e_runs["with"].final, te)
    rep_off = evaluate(e2e_runs["without"].final, te)
    dt = e2e_runs["seconds"]
    assert dt < 600.0, f"runtime {dt:.0f}s exceeds 10 min"
    assert rep.accuracy >= 0.90, f"test accuracy {rep.accuracy:.4f} < 0.90"
    assert rep.auroc is not None and rep.auroc >= 0.95, f"AUROC {rep.auroc} < 0.95"
    assert rep.accuracy >= rep_off.accuracy - 0.01, (
        f"non-inferiority violated: {rep.accuracy:.4f} vs {rep_off.accuracy:.4f}")
    gain = (rep.accuracy - rep_off.accuracy) * 100
    _ok(6, f"test acc {rep.accuracy:.4f} (no-FS {rep_off.accuracy:.4f}, "
           f"gain {gain:+.2f}% reported, not gated), AUROC {rep.auroc:.4f}, "
           f"both runs in {dt:.0f}s")


def test_train_split_accuracy_at_least_validation(default_splits, e2e_runs):
    """Sanity example on the seeded default run: the fitted model scores
    at least as well on its own training split as on validation."""
    tr, va, _ = default_splits
    rep_tr = evaluate(e2e_runs["with"].final, tr)
    rep_va = evaluate(e2e_runs["with"].final, va)
    assert rep_tr.accuracy >= rep_va.accuracy


# ---------------------------------------------------------------------------
# Criterion 7: momentum ablation sweep


def test_criterion_7_ablation_sweep(default_corpus, tmp_path):
    data = tmp_path / "corpus.bin"
    write(default_corpus, data)
    out = tmp_path / "sweep"
    t0 = time.perf_counter()
    rc = cli_main(["ablate", "--data", str(data), "--grid", "m=0,0.2,0.5,1",
                   "--out", str(out), "--set", "epochs=10"])
    dt = time.perf_counter() - t0
    assert rc == 0
    assert dt < 2700.0, f"sweep took {dt:.0f}s, budget 45 min"
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "q,K,m,gamma,val_acc,val_f1,val_auroc"
    assert len(summary) == 5

    hashes = {}
    for m in ("0.0", "0.2", "0.5", "1.0"):
        cell = out / f"m={m}"
        assert (cell / "checkpoint.bin").exists()
        hashes[m] = (cell / "alpha_trajectory.txt").read_text().strip()
    assert len(set(hashes.values())) == 4  # distinct weight trajectories

    # the boundary cells exercise the documented blend identities: on each
    # cell's final bank, the m=0 weights equal the decayed recent average
    # and the m=1 weights equal the decayed sampled average, exactly
    for m_str, m_val in (("0.0", 0.0), ("1.0", 1.0)):
        ckpt = load(out / f"m={m_str}" / "checkpoint.bin")
        _, _, sel = restore_model(ckpt)
        sampled = apply_decay(sel.bank.sample_top_k(), sel.bank.decay)
        blended = compute_alpha(sampled, m_val)
        closed_form = (sampled.recent.mean(axis=(0, 2)) if m_val == 0.0
                       else sampled.sampled.mean(axis=(0, 2)))
        np.testing.assert_allclose(blended, closed_form, atol=1e-15)

    _ok(7, f"4-cell m sweep at 10 epochs in {dt:.0f}s, summary CSV emitted, "
           "m=0/m=1 boundary identities verified on the final banks")


# ---------------------------------------------------------------------------
# Criterion 8: attribution localization


def test_criterion_8_attribution(default_splits, e2e_runs):
    _, _, te = default_splits
    config, enc, sel = restore_model(e2e_runs["with"].final)
    factor = config.encoder.stride_product()
    hits = 0
    total = 0
    for clip in te.clips:
        if clip.label != 1 or clip.spike_window is None:
            continue
        enc.forward(Tensor(clip.data[None]), fs=sel, mode="eval")
        amap = export_attribution(sel, clip, factor)
        peak = int(np.argmax(amap))
        lo, hi = clip.spike_window
        hits += int(lo <= peak <= hi)
        total += 1
    rate = hits / total
    assert rate >= 0.70, f"peak-in-window rate {rate:.3f} < 0.70 ({hits}/{total})"
    _ok(8, f"attribution peak inside the spike window on {hits}/{total} "
           f"held-out positives ({rate:.1%})")

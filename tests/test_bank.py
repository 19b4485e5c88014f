"""Gradient bank tests: FIFO law, cosine selection vs a sort-all oracle
(also at the production shape), decay and blend identities."""

import numpy as np
import pytest

from eegfs.autodiff import DimensionError, ValidationError
from eegfs.bank import (
    BankUsageError,
    GradientBank,
    NonFiniteGradientError,
    WarmupError,
    apply_decay,
    compute_alpha,
)
from _oracles import cosine_sim, top_k_sort_all


def _bank(q=2, k=1, decay=0.5, channels=2, spatial=3):
    return GradientBank(capacity=q, top_k=k, decay=decay,
                        channels=channels, spatial=spatial)


def _rand_entry(rng, b=2, c=2, s=3):
    return rng.standard_normal((b, c, s))


@pytest.mark.parametrize("arg", ["capacity", "top_k"])
def test_non_integer_size_rejected(arg):
    sizes = {"q": 2, "k": 1, ("q" if arg == "capacity" else "k"): 1.5}
    with pytest.raises(ValidationError, match=arg):
        _bank(**sizes)


class TestPush:
    def test_fifo_keeps_most_recent(self):
        rng = np.random.default_rng(0)
        bank = _bank(q=2)
        for j in range(1, 6):
            bank.push(j, _rand_entry(rng))
        assert [it for it, _ in bank.entries] == [3, 4, 5]

    def test_wrong_channels_rejected(self):
        bank = _bank()
        with pytest.raises(DimensionError):
            bank.push(1, np.zeros((2, 5, 3)))

    def test_non_monotonic_iteration_rejected(self):
        rng = np.random.default_rng(1)
        bank = _bank()
        bank.push(3, _rand_entry(rng))
        with pytest.raises(BankUsageError):
            bank.push(3, _rand_entry(rng))

    def test_fifo_matches_list_model(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            q = int(rng.integers(1, 5))
            bank = _bank(q=q)
            pushed = []
            j = 0
            for _ in range(int(rng.integers(1, 20))):
                j += int(rng.integers(1, 4))
                bank.push(j, _rand_entry(rng))
                pushed.append(j)
            assert [it for it, _ in bank.entries] == pushed[-(q + 1):]

    def test_non_finite_gradients_rejected(self):
        rng = np.random.default_rng(22)
        bank = _bank()
        bank.push(1, _rand_entry(rng))
        held = [(it, g.copy()) for it, g in bank.entries]
        for bad in (np.nan, np.inf, -np.inf):
            g = _rand_entry(rng)
            g[1, 0, 2] = bad
            with pytest.raises(NonFiniteGradientError) as e:
                bank.push(2, g)
            assert e.value.iteration == 2
            assert [it for it, _ in bank.entries] == [it for it, _ in held]
            for (_, got), (_, want) in zip(bank.entries, held):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("value", [4.1e153, 1e200])
    def test_overflowing_squared_norm_rejected(self, value):
        # at 4.1e153 each row's squared norm (~1.0e308) is finite, their sum is not
        rng = np.random.default_rng(25)
        bank = _bank()
        first = _rand_entry(rng)
        bank.push(1, first)
        with pytest.raises(NonFiniteGradientError) as e:
            bank.push(2, np.full((2, 2, 3), value))
        assert e.value.iteration == 2
        assert len(bank.entries) == 1 and bank.entries[0][1] is first
        # the rejected push measured nothing that sampling would read
        bank.push(2, first * 2.0)
        np.testing.assert_array_equal(bank.sample_top_k().sampled, first)

    def test_restore_holds_the_given_arrays(self):
        rng = np.random.default_rng(23)
        entries = [(j, _rand_entry(rng)) for j in (2, 5, 7)]
        bank = _bank(q=2)
        bank.restore(entries)
        assert [it for it, _ in bank.entries] == [2, 5, 7]
        assert all(got is given for (_, got), (_, given) in zip(bank.entries, entries))

    def test_restore_checks_entries_as_push_does(self):
        rng = np.random.default_rng(24)
        bad_value = _rand_entry(rng)
        bad_value[0, 1, 2] = np.nan
        for entries, error in (
                ([(1, np.zeros((2, 5, 3)))], DimensionError),
                ([(3, _rand_entry(rng)), (3, _rand_entry(rng))], BankUsageError),
                ([(1, _rand_entry(rng)), (2, bad_value)], NonFiniteGradientError)):
            with pytest.raises(error):
                _bank().restore(entries)

    def test_is_full(self):
        rng = np.random.default_rng(3)
        bank = _bank(q=2)
        for j in range(1, 3):
            bank.push(j, _rand_entry(rng))
            assert not bank.is_full
        bank.push(3, _rand_entry(rng))
        assert bank.is_full


class TestCosineSim:
    def test_self_similarity(self):
        g = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert cosine_sim(g, g) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_known_value(self):
        got = cosine_sim(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0]))
        assert abs(got - 8.0 / 9.0) < 1e-15

    def test_zero_norm_returns_zero(self):
        assert cosine_sim(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = cosine_sim(rng.standard_normal(6), rng.standard_normal(6))
            assert -1.0 <= v <= 1.0


class TestSampleTopK:
    def test_warmup_signal(self):
        rng = np.random.default_rng(5)
        bank = _bank()
        bank.push(1, _rand_entry(rng))
        with pytest.raises(WarmupError):
            bank.sample_top_k()

    def test_exhaustive_k_selects_everything(self):
        rng = np.random.default_rng(6)
        b = 2
        bank = GradientBank(capacity=3, top_k=3 * b, decay=0.5, channels=2, spatial=3)
        for j in range(1, 5):  # 4 entries: 3 older + newest
            bank.push(j, _rand_entry(rng, b=b))
        s = bank.sample_top_k()
        # every anchor selects every pool row exactly once
        assert s.sampled.shape[0] == b * 3 * b
        for i in range(b):
            keys = s.selected_keys[i * 3 * b:(i + 1) * 3 * b]
            assert sorted(keys) == [(j, si) for j in range(1, 4) for si in range(b)]

    def test_exact_copy_of_anchor_ranks_first(self):
        rng = np.random.default_rng(7)
        bank = _bank(q=2, k=1)
        e1 = _rand_entry(rng)
        bank.push(1, e1)
        bank.push(2, _rand_entry(rng))
        anchors = _rand_entry(rng)
        anchors[0] = e1[1]  # anchor 0 duplicates entry-1 sample-1
        bank.push(3, anchors)
        s = bank.sample_top_k()
        assert s.selected_keys[0] == (1, 1)

    def test_matches_sort_all_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            q, b, k = 4, 3, 2
            bank = GradientBank(capacity=q, top_k=k, decay=0.5, channels=2, spatial=2)
            for j in range(1, q + 2):
                bank.push(j, _rand_entry(rng, b=b, c=2, s=2))
            s = bank.sample_top_k()
            candidates = [(it, si, g[si]) for it, g in list(bank.entries)[:-1]
                          for si in range(b)]
            anchors = bank.entries[-1][1]
            for i in range(b):
                want = top_k_sort_all(anchors[i], candidates, k)
                got = s.selected_keys[i * k:(i + 1) * k]
                assert got == want

    def test_ages_recorded(self):
        rng = np.random.default_rng(9)
        bank = GradientBank(capacity=2, top_k=6, decay=0.5, channels=2, spatial=3)
        for j in range(1, 4):
            bank.push(j, _rand_entry(rng, b=3))
        s = bank.sample_top_k()
        # pool iterations 1 and 2, newest is 3: ages 3 and 2
        for key, age in zip(s.selected_keys, s.ages):
            assert age == 3 - key[0] + 1
        assert set(s.ages) == {2, 3}

    def test_selection_scale_invariance(self):
        rng = np.random.default_rng(10)
        for scale in (1e-3, 7.0, 1e4):
            bank1 = GradientBank(4, 2, 0.5, 2, 2)
            bank2 = GradientBank(4, 2, 0.5, 2, 2)
            for j in range(1, 6):
                e = _rand_entry(rng, b=3, c=2, s=2)
                bank1.push(j, e)
                bank2.push(j, e * scale)
            assert bank1.sample_top_k().selected_keys == bank2.sample_top_k().selected_keys

    def test_storage_order_insensitivity(self):
        # identical rows at different iterations: tie-break picks the earlier
        rng = np.random.default_rng(11)
        bank = GradientBank(2, 1, 0.5, 2, 2)
        row = _rand_entry(rng, b=1, c=2, s=2)
        bank.push(1, row)
        bank.push(2, row.copy())
        bank.push(3, row.copy())
        s = bank.sample_top_k()
        assert s.selected_keys == [(1, 0)]

    def test_recent_is_the_banks_newest_entry(self):
        rng = np.random.default_rng(12)
        bank = _bank()
        for j in range(1, 4):
            bank.push(j, _rand_entry(rng))
        s = bank.sample_top_k()
        assert np.shares_memory(s.recent, bank.entries[-1][1])
        assert not s.recent.flags.writeable


class TestApplyDecay:
    def test_factors(self):
        rng = np.random.default_rng(12)
        s0 = SampledFactory(rng, ages=[2, 3])
        d = apply_decay(s0, 0.5)
        np.testing.assert_allclose(d.recent, s0.recent * 0.5)
        np.testing.assert_allclose(d.sampled[0], s0.sampled[0] * 0.25)
        np.testing.assert_allclose(d.sampled[1], s0.sampled[1] * 0.125)

    def test_decay_one_is_identity(self):
        rng = np.random.default_rng(13)
        s0 = SampledFactory(rng, ages=[2, 4])
        d = apply_decay(s0, 1.0)
        np.testing.assert_array_equal(d.recent, s0.recent)
        np.testing.assert_array_equal(d.sampled, s0.sampled)

    def test_decay_zero_is_annihilation(self):
        rng = np.random.default_rng(14)
        d = apply_decay(SampledFactory(rng, ages=[2, 3]), 0.0)
        assert not d.recent.any() and not d.sampled.any()

    def test_double_decay_rejected(self):
        rng = np.random.default_rng(15)
        d = apply_decay(SampledFactory(rng, ages=[2]), 0.5)
        with pytest.raises(BankUsageError):
            apply_decay(d, 0.5)

    def test_zero_rows_stay_zero(self):
        rng = np.random.default_rng(16)
        s0 = SampledFactory(rng, ages=[2, 3])
        s0.sampled[1] = 0.0
        for decay in (0.0, 0.25, 0.5, 1.0):
            d = apply_decay(s0, decay)
            assert not d.sampled[1].any()


class TestComputeAlpha:
    def test_m_zero_uses_recent_only(self):
        rng = np.random.default_rng(17)
        d = apply_decay(SampledFactory(rng, ages=[2, 3]), 0.5)
        a = compute_alpha(d, 0.0)
        np.testing.assert_allclose(a, d.recent.mean(axis=(0, 2)), atol=1e-15)

    def test_m_one_uses_sampled_only(self):
        rng = np.random.default_rng(18)
        d = apply_decay(SampledFactory(rng, ages=[2, 3]), 0.5)
        a = compute_alpha(d, 1.0)
        np.testing.assert_allclose(a, d.sampled.mean(axis=(0, 2)), atol=1e-15)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(19)
        d = apply_decay(SampledFactory(rng, ages=[2, 2, 3, 4], b=3, c=4, s=5), 0.25)
        a = compute_alpha(d, 0.2)
        want = np.zeros(4)
        for c in range(4):
            hist = 0.0
            for n in range(d.sampled.shape[0]):
                for r in range(5):
                    hist += d.sampled[n, c, r]
            hist /= d.sampled.shape[0] * 5
            rec = 0.0
            for n in range(3):
                for r in range(5):
                    rec += d.recent[n, c, r]
            rec /= 3 * 5
            want[c] = 0.2 * hist + 0.8 * rec
        assert np.abs(a - want).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(20)
        s1 = SampledFactory(rng, ages=[2, 3])
        s2 = SampledFactory(rng, ages=[2, 3])
        both = SampledFactory(rng, ages=[2, 3])
        both.recent = s1.recent + s2.recent
        both.sampled = s1.sampled + s2.sampled
        for s in (s1, s2, both):
            s.decayed = True
        m = 0.3
        a = compute_alpha(both, m)
        want = compute_alpha(s1, m) + compute_alpha(s2, m)
        assert np.abs(a - want).max() < 1e-12

    def test_requires_decay(self):
        rng = np.random.default_rng(21)
        with pytest.raises(BankUsageError):
            compute_alpha(SampledFactory(rng, ages=[2]), 0.5)


def SampledFactory(rng, ages, b=2, c=2, s=3):
    from eegfs.bank import SampledGradients
    n = len(ages)
    return SampledGradients(
        recent=rng.standard_normal((b, c, s)),
        sampled=rng.standard_normal((n, c, s)),
        ages=np.array(ages, dtype=np.int64),
        selected_keys=[(1, i) for i in range(n)],
    )


class TestVariableBatch:
    def test_mixed_entry_sizes_sample_and_blend(self):
        # a trailing partial mini-batch produces a smaller entry; sampling
        # flattens each entry to its rows, so sizes may differ freely
        rng = np.random.default_rng(30)
        bank = GradientBank(capacity=2, top_k=2, decay=0.5, channels=2, spatial=3)
        bank.push(1, rng.standard_normal((4, 2, 3)))
        bank.push(2, rng.standard_normal((4, 2, 3)))
        bank.push(3, rng.standard_normal((2, 2, 3)))  # partial batch anchors
        s = bank.sample_top_k()
        assert s.recent.shape == (2, 2, 3)
        assert s.sampled.shape == (2 * 2, 2, 3)
        a = compute_alpha(apply_decay(s, 0.5), 0.2)
        assert a.shape == (2,)


# Production shape: the encoder's default insertion site and batch size.
_C, _S, _B, _Q = 32, 122, 64, 8


def _production_bank(k, b=_B, partial=48, seed=40):
    """A full bank after FIFO eviction, with one partial entry, duplicate
    rows planted across and within entries, a zero-norm pool row and a
    zero-norm anchor.

    Returns the bank, the next entry to push, and the expected first key of
    each anchor that was built from a duplicated row.
    """
    rng = np.random.default_rng(seed)
    bank = GradientBank(capacity=_Q, top_k=k, decay=0.25, channels=_C, spatial=_S)
    entries = {}
    for j in range(1, _Q + 6):  # iterations 1-4 are evicted
        entries[j] = rng.standard_normal((partial if j == 9 else b, _C, _S))
    dup = entries[6][b - 3].copy()
    entries[9][partial - 1] = dup          # later iteration, lower in the pool
    entries[11][1] = dup
    twin = entries[10][b - 1].copy()
    entries[10][2] = twin                  # same entry, earlier sample
    entries[12][0] = twin
    entries[8][5] = 0.0                    # zero-norm pool row
    anchors = entries[_Q + 5]
    anchors[0] = dup + 1e-3 * rng.standard_normal((_C, _S))
    anchors[1] = twin + 1e-3 * rng.standard_normal((_C, _S))
    anchors[2] = 0.0                       # zero-norm anchor
    for j in sorted(entries):
        bank.push(j, entries[j])
    following = rng.standard_normal((b, _C, _S))
    return bank, following, {0: (6, b - 3), 1: (10, 2), 2: (5, 0)}


def _check_against_oracle(bank, s):
    newest, anchors = bank.entries[-1]
    pool = {(it, si): g[si] for it, g in list(bank.entries)[:-1]
            for si in range(g.shape[0])}
    candidates = [(it, si, row) for (it, si), row in pool.items()]
    k = bank.top_k
    assert s.sampled.shape == (anchors.shape[0] * k, _C, _S)
    for i in range(anchors.shape[0]):
        assert s.selected_keys[i * k:(i + 1) * k] == top_k_sort_all(
            anchors[i], candidates, k)
    for n, key in enumerate(s.selected_keys):
        assert s.ages[n] == newest - key[0] + 1
        np.testing.assert_array_equal(s.sampled[n], pool[key])
    np.testing.assert_array_equal(s.recent, anchors)


class TestProductionShape:
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_oracle_with_ties_and_zero_norms(self, k):
        bank, _, first = _production_bank(k)
        assert [it for it, _ in bank.entries] == list(range(5, 14))
        s = bank.sample_top_k()
        _check_against_oracle(bank, s)
        for anchor, key in first.items():
            assert s.selected_keys[anchor * k] == key

    def test_duplicate_in_tiny_entry_ties_to_lower_key(self):
        # OpenBLAS scores a row of a GEMM over a few rows with a different
        # rounding than the same row inside a 64-row GEMM
        rng = np.random.default_rng(41)
        bank = GradientBank(capacity=2, top_k=1, decay=0.25, channels=_C, spatial=_S)
        tiny = rng.standard_normal((3, _C, _S))
        full = rng.standard_normal((_B, _C, _S))
        tiny[2] = full[40]
        full[7] = full[40]
        bank.push(1, tiny)
        bank.push(2, full)
        bank.push(3, full[40] + 1e-2 * rng.standard_normal((_B, _C, _S)))
        s = bank.sample_top_k()
        assert s.selected_keys == [(1, 2)] * _B
        _check_against_oracle(bank, s)

    def test_k_equal_to_pool_size(self):
        # b=64 would make the (b * pool) sampled rows take about 1 GB
        b = 8
        pool = (_Q - 1) * b + 6
        bank, _, _ = _production_bank(pool, b=b, partial=6)
        s = bank.sample_top_k()
        _check_against_oracle(bank, s)
        for i in range(b):
            assert len(set(s.selected_keys[i * pool:(i + 1) * pool])) == pool

    def test_restore_of_snapshot_samples_identically(self):
        bank, following, _ = _production_bank(3)
        bank.sample_top_k()  # fills the norm cache of the original only
        twin = GradientBank(capacity=_Q, top_k=3, decay=0.25, channels=_C, spatial=_S)
        twin.restore(bank.snapshot())
        bank.push(14, following)
        twin.push(14, following)
        a, b = bank.sample_top_k(), twin.sample_top_k()
        assert a.selected_keys == b.selected_keys
        np.testing.assert_array_equal(a.ages, b.ages)
        np.testing.assert_array_equal(a.sampled, b.sampled)
        np.testing.assert_array_equal(a.recent, b.recent)

    def test_snapshot_shares_the_read_only_entries(self):
        bank, _, _ = _production_bank(1)
        snap = bank.snapshot()
        assert [it for it, _ in snap] == [it for it, _ in bank.entries]
        assert all(g is held for (_, g), (_, held) in zip(snap, bank.entries))
        for _, g in snap:
            with pytest.raises(ValueError, match="read-only"):
                g[0, 0, 0] = 1.0

    def test_push_holds_the_handed_array_read_only(self):
        bank, following, _ = _production_bank(1)
        bank.push(14, following)
        assert [it for it, _ in bank.entries] == list(range(6, 15))
        assert bank.entries[-1][1] is following
        with pytest.raises(ValueError, match="read-only"):
            following[0, 0, 0] = 0.0
        after = bank.sample_top_k()
        _check_against_oracle(bank, after)

"""Command-line surface tests on miniature corpora."""

import numpy as np
import pytest

from eegfs import ValidationError, cli
from eegfs.autodiff import Tensor
from eegfs.cli import (
    corpus_spec_from,
    main,
    parse_grid,
    resolve_config,
    train_config_from,
    write_resolved,
)
from eegfs.data import CorpusSpec, generate, read, split
from eegfs.encoder import EncoderConfig
from eegfs.selection import export_attribution
from eegfs.training import TrainConfig, load, restore_model, save, settings, train


SMALL = [
    "n_clips=48", "channels=4", "timestamps=80", "n_groups=8", "data_seed=9",
    "epochs=2", "batch_size=8", "q=2", "blocks=4:5:1:2,4:3:1:2",
]


# a valid value other than the default for every key a corpus or a run reads
EVERY_KEY = [
    "n_clips=30", "channels=4", "timestamps=80", "sample_rate=200",
    "class_balance=0.4", "noise_sigma=0.5", "spike_amplitude=3",
    "spike_width_ms_min=25", "spike_width_ms_max=50", "spike_channel_span=2",
    "n_groups=6", "data_seed=9", "epochs=3", "batch_size=8", "lr=0.001",
    "weight_decay=0.01", "seed=5", "q=3", "K=2", "m=0.5", "gamma=0.7",
    "fs_enabled=false", "insertion_layer=1", "blocks=4:5:1:2,6:3:1:1",
    "activation=sigmoid"]


def _gen(tmp_path, extra=()):
    data = tmp_path / "corpus.bin"
    rc = main(["gen-data", "--out", str(data)]
              + sum((["--set", s] for s in list(SMALL[:5]) + list(extra)), []))
    assert rc == 0
    return data


def _train(tmp_path, data, out_name="run", extra=()):
    out = tmp_path / out_name
    rc = main(["train", "--data", str(data), "--out", str(out)]
              + sum((["--set", s] for s in SMALL + list(extra)), []))
    return rc, out


class TestResolveConfig:
    def test_defaults_match_contract(self):
        values = resolve_config(None, [])
        assert values["lr"] == 0.0001
        assert values["weight_decay"] == 0.0001
        assert values["seed"] == 42
        assert values["q"] == 8 and values["K"] == 1
        assert values["m"] == 0.2 and values["gamma"] == 0.25
        assert values["channels"] == 16 and values["timestamps"] == 250
        assert values["sample_rate"] == 250

    def test_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nepochs=7\nlr=0.001\n")
        values = resolve_config(str(cfg), ["epochs=9"])
        assert values["epochs"] == 9 and values["lr"] == 0.001

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate=0.1\n")
        with pytest.raises(ValidationError, match="unknown key"):
            resolve_config(str(cfg), [])

    def test_bad_value_rejected(self):
        with pytest.raises(ValidationError, match="bad value"):
            resolve_config(None, ["epochs=soon"])

    def test_resolved_key_list(self, tmp_path):
        write_resolved(resolve_config(None, []), tmp_path)
        lines = (tmp_path / "config.resolved").read_text().splitlines()
        assert [line.partition("=")[0] for line in lines] == [
            "K", "activation", "batch_size", "blocks", "channels", "class_balance",
            "data_seed", "epochs", "fs_enabled", "gamma", "insertion_layer", "lr",
            "m", "n_clips", "n_groups", "noise_sigma", "q", "sample_rate", "seed",
            "spike_amplitude", "spike_channel_span", "spike_width_ms_max",
            "spike_width_ms_min", "split_by_group", "split_seed", "test_ratio",
            "timestamps", "train_ratio", "val_ratio", "weight_decay"]

    def test_every_key_reaches_its_field(self):
        values = resolve_config(None, EVERY_KEY)
        assert corpus_spec_from(values) == CorpusSpec(
            n_clips=30, channels=4, timestamps=80, sample_rate=200, class_balance=0.4,
            noise_sigma=0.5, spike_amplitude=3.0, spike_width_ms_min=25.0,
            spike_width_ms_max=50.0, spike_channel_span=2, n_groups=6, seed=9)
        assert train_config_from(values) == TrainConfig(
            epochs=3, batch_size=8, lr=0.001, weight_decay=0.01, seed=5, bank_size=3,
            top_k=2, momentum=0.5, decay=0.7, fs_enabled=False, encoder=EncoderConfig(
                in_channels=4, clip_len=80, blocks=((4, 5, 1, 2), (6, 3, 1, 1)),
                insertion_layer=1, activation="sigmoid"))


class TestCheckpointSettings:
    """The CLI keys and a checkpoint's ``config/`` tensors name the same settings."""

    def test_each_config_tensor_is_set_by_one_key(self, tmp_path):
        values = resolve_config(None, EVERY_KEY)
        config = train_config_from(values)
        tr, va, _ = split(generate(corpus_spec_from(values)), (0.6, 0.2, 0.2),
                          by_group=True, seed=0)
        save(train(config, tr, va).final, tmp_path / "ck.bin")
        ckpt = load(tmp_path / "ck.bin")
        assert ckpt.config() == config

        default = settings(train_config_from(resolve_config(None, [])))
        names = {n[len("config/"):] for n in ckpt.tensors if n.startswith("config/")}
        assert names == set(default)
        assert {item.partition("=")[0] for item in EVERY_KEY} == set(cli.SCHEMA) - {
            "train_ratio", "val_ratio", "test_ratio", "split_by_group", "split_seed"}
        setters = {name: [] for name in names}
        for item in EVERY_KEY:
            one = settings(train_config_from(resolve_config(None, [item])))
            for name in names:
                if one[name] != default[name]:
                    setters[name].append(item.partition("=")[0])
        assert all(len(keys) == 1 for keys in setters.values()), setters


class TestGenData:
    def test_summary_line_and_header(self, tmp_path, capsys):
        data = tmp_path / "c.bin"
        rc = main(["gen-data", "--out", str(data),
                   "--set", "n_clips=8", "--set", "n_groups=4"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "n=8 c=16 t=250 pos=4"
        ds = read(data)
        assert (ds.channels, ds.timestamps, ds.sample_rate) == (16, 250, 250)

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "corpus.spec"
        spec.write_text("# tiny corpus\nn_clips=6\nn_groups=3\nchannels=8\n")
        rc = main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "c.bin")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "n=6 c=8 t=250 pos=3"

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "c.bin"),
                   "--set", "noise_sigma=0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_zero_sample_rate_exits_2_without_traceback(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "c.bin"),
                   "--set", "sample_rate=0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_clip_of_wrong_shape_exits_2_without_writing(self, tmp_path, monkeypatch, capsys):
        real = cli.generate

        def short_clip(spec):
            d = real(spec)
            d.clips[1].data = d.clips[1].data[:, :200].copy()
            return d

        monkeypatch.setattr(cli, "generate", short_clip)
        out = tmp_path / "c.bin"
        rc = main(["gen-data", "--out", str(out), "--set", "n_clips=4", "--set", "n_groups=2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: clip 1") and not out.exists()


class TestTrain:
    def test_artifacts_and_determinism(self, tmp_path):
        data = _gen(tmp_path)
        rc1, out1 = _train(tmp_path, data, "run1")
        rc2, out2 = _train(tmp_path, data, "run2")
        assert rc1 == 0 and rc2 == 0
        for name in ("checkpoint.bin", "checkpoint_best.bin", "metrics.csv",
                     "config.resolved", "alpha_trajectory.txt"):
            assert (out1 / name).exists()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()

    def test_no_fs_flag(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "nofs"
        rc = main(["train", "--data", str(data), "--out", str(out), "--no-fs"]
                  + sum((["--set", s] for s in SMALL), []))
        assert rc == 0
        assert "fs_enabled=false" in (out / "config.resolved").read_text()
        ckpt = load(out / "checkpoint.bin")
        assert not any(n.startswith("bank/") for n in ckpt.tensors)
        assert not (out / "alpha_trajectory.txt").exists()

    def test_resolved_config_echoes_defaults(self, tmp_path):
        data = _gen(tmp_path)
        _, out = _train(tmp_path, data)
        text = (out / "config.resolved").read_text()
        assert "lr=0.0001" in text
        assert "weight_decay=0.0001" in text
        assert "seed=42" in text

    def test_metrics_csv_has_test_row(self, tmp_path):
        data = _gen(tmp_path)
        _, out = _train(tmp_path, data)
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[-1].split(",")[1] == "test"

    def test_missing_dataset_exits_2(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_out_of_range_setting_exits_2_before_training(self, tmp_path, capsys):
        data = _gen(tmp_path)
        rc, out = _train(tmp_path, data, extra=("m=5",))
        assert rc == 2 and "momentum 5.0 outside [0, 1]" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_nan_split_ratio_exits_2_without_traceback(self, tmp_path, capsys):
        data = _gen(tmp_path)
        capsys.readouterr()
        rc, out = _train(tmp_path, data, extra=("train_ratio=nan",))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("flags, expected", [
        (["--no-fs", "--set", "q=0"], "bank_size 0"),
        (["--set", "timestamps=100"], "dataset shape (4, 80) does not match encoder (4, 100)")],
        ids=["no_fs_zero_bank", "corpus_shape"])
    def test_rejected_run_creates_no_output_directory(self, tmp_path, capsys, flags, expected):
        data = _gen(tmp_path)
        capsys.readouterr()
        out = tmp_path / "rejected"
        rc = main(["train", "--data", str(data), "--out", str(out)] + _sets(SMALL) + flags)
        assert rc == 2 and expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path):
        data = _gen(tmp_path)
        rc, _ = _train(tmp_path, data, "diverge", extra=("lr=1e200",))
        assert rc == 3

    def test_resume_flag(self, tmp_path):
        data = _gen(tmp_path)
        rc1, out1 = _train(tmp_path, data, "short", extra=("epochs=1",))
        assert rc1 == 0
        out2 = tmp_path / "resumed"
        rc2 = main(["train", "--data", str(data), "--out", str(out2),
                    "--resume", str(out1 / "checkpoint.bin")]
                   + sum((["--set", s] for s in SMALL), []))
        assert rc2 == 0
        full_rc, out_full = _train(tmp_path, data, "full")
        assert full_rc == 0
        assert ((out2 / "checkpoint.bin").read_bytes()
                == (out_full / "checkpoint.bin").read_bytes())


class TestAblate:
    def test_single_cell_matches_train(self, tmp_path):
        data = _gen(tmp_path)
        _, direct = _train(tmp_path, data, "direct", extra=("m=0.5",))
        out = tmp_path / "sweep"
        rc = main(["ablate", "--data", str(data), "--grid", "m=0.5",
                   "--out", str(out)] + sum((["--set", s] for s in SMALL), []))
        assert rc == 0
        cell = out / "m=0.5"
        assert ((cell / "checkpoint.bin").read_bytes()
                == (direct / "checkpoint.bin").read_bytes())
        assert ((cell / "metrics.csv").read_bytes()
                == (direct / "metrics.csv").read_bytes())
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "q,K,m,gamma,val_acc,val_f1,val_auroc"
        assert len(summary) == 2

    def test_momentum_grid_distinct_trajectories(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "sweep_m"
        rc = main(["ablate", "--data", str(data), "--grid", "m=0,0.2,1",
                   "--out", str(out)] + sum((["--set", s] for s in SMALL), []))
        assert rc == 0
        hashes = [(out / f"m={m}" / "alpha_trajectory.txt").read_text()
                  for m in ("0.0", "0.2", "1.0")]
        assert len(set(hashes)) == 3
        assert len((out / "summary.csv").read_text().strip().split("\n")) == 4

    def test_failed_cell_recorded_and_continues(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "sweep_fail"
        # K=99 exceeds the sampling pool once the bank fills -> that cell fails
        rc = main(["ablate", "--data", str(data), "--grid", "K=1,99",
                   "--out", str(out)] + sum((["--set", s] for s in SMALL), []))
        assert rc == 1
        assert (out / "K=1" / "checkpoint.bin").exists()
        assert "K=99" in (out / "failures.txt").read_text()
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 2  # header + the one surviving cell

    def test_summary_and_failure_rows(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "sweep_rows"
        # q=0 fails the input checks (no directory); K=99 fails in training
        rc = main(["ablate", "--data", str(data), "--grid", "q=0,2;K=1,99",
                   "--out", str(out)] + _sets(SMALL))
        assert rc == 1
        assert (out / "summary.csv").read_text() == (
            "q,K,m,gamma,val_acc,val_f1,val_auroc\n"
            "2,1,0.2,0.25,0.166667,0.285714,0.171429\n")
        assert (out / "failures.txt").read_text() == (
            "K=1_q=0\tValidationError: bank_size 0 and top_k 1 must be >= 1\n"
            "K=99_q=0\tValidationError: bank_size 0 and top_k 99 must be >= 1\n"
            "K=99_q=2\tValidationError: top_k=99 exceeds the 16 gradients available\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "K=1_q=2", "K=99_q=2", "failures.txt", "summary.csv"]
        assert [p.name for p in (out / "K=99_q=2").iterdir()] == ["config.resolved"]
        # the summary's metrics are the cell's last validation row of metrics.csv
        val = (out / "K=1_q=2" / "metrics.csv").read_text().splitlines()[-2].split(",")
        assert val[1] == "val" and [val[3], val[6], val[7]] == ["0.166667", "0.285714", "0.171429"]

    def test_malformed_grid_exits_2(self, tmp_path):
        data = _gen(tmp_path)
        rc = main(["ablate", "--data", str(data), "--grid", "q=;bogus",
                   "--out", str(tmp_path / "s")])
        assert rc == 2

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_grid("lr=0.1,0.2")

    @pytest.mark.parametrize("grid", ["q=2,2", "m=0,0.0", "q=4;gamma=0.5,0.25,0.50"])
    def test_repeated_grid_value_rejected(self, grid):
        with pytest.raises(ValidationError, match="repeats a value"):
            parse_grid(grid)

    def test_grid_parse(self):
        g = parse_grid("q=4,8;m=0,0.2")
        assert g == {"q": [4, 8], "m": [0.0, 0.2]}


class TestExportAttribution:
    def _trained(self, tmp_path):
        data = _gen(tmp_path)
        rc, out = _train(tmp_path, data, "trained")
        assert rc == 0
        return data, out

    def test_csv_row_count(self, tmp_path):
        data, out = self._trained(tmp_path)
        ds = read(data)
        clip_id = next(c.clip_id for c in ds.clips if c.label == 1)
        csv_path = tmp_path / "attr.csv"
        rc = main(["export-attribution", "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(data), "--clip", str(clip_id),
                   "--out", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 80  # header + one row per timestamp

    def test_csv_holds_library_weights_and_peak(self, tmp_path, capsys):
        data, out = self._trained(tmp_path)
        clip = next(c for c in read(data).clips if c.label == 1)
        csv_path = tmp_path / "attr.csv"
        capsys.readouterr()
        rc = main(["export-attribution", "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(data), "--clip", str(clip.clip_id),
                   "--out", str(csv_path)])
        assert rc == 0
        config, enc, sel = restore_model(load(out / "checkpoint.bin"))
        enc.forward(Tensor(clip.data[None]), fs=sel, mode="eval")
        weights = export_attribution(sel, clip, config.encoder.stride_product())
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert [int(ts) for ts, _ in rows] == list(range(len(weights)))
        assert [w for _, w in rows] == [f"{w:.9g}" for w in weights]
        peak = int(np.argmax([float(w) for _, w in rows]))
        assert f"peak_timestamp={peak}\n" in capsys.readouterr().out

    def test_missing_frozen_alpha_exits_2(self, tmp_path, capsys):
        data = _gen(tmp_path)
        rc, out = _train(tmp_path, data, "warm", extra=("epochs=1", "batch_size=64"))
        assert rc == 0
        rc = main(["export-attribution", "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(data), "--clip", "0",
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 2
        assert "frozen" in capsys.readouterr().err

    def test_incomplete_checkpoint_exits_2(self, tmp_path, capsys):
        data, out = self._trained(tmp_path)
        ckpt = load(out / "checkpoint.bin")
        del ckpt.tensors["config/lr"]
        partial = tmp_path / "partial.bin"
        save(ckpt, partial)
        capsys.readouterr()
        rc = main(["export-attribution", "--checkpoint", str(partial),
                   "--data", str(data), "--clip", "0", "--out", str(tmp_path / "a.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config/lr" in err and "Traceback" not in err

    def test_corpus_of_another_shape_exits_2_without_traceback(self, tmp_path, capsys):
        _, out = self._trained(tmp_path)
        (tmp_path / "narrow").mkdir()
        data = _gen(tmp_path / "narrow", extra=("channels=2", "spike_channel_span=2"))
        capsys.readouterr()
        rc = main(["export-attribution", "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(data), "--clip", "0", "--out", str(tmp_path / "a.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "dataset shape (2, 80)" in err

    def test_unknown_clip_exits_2(self, tmp_path):
        data, out = self._trained(tmp_path)
        rc = main(["export-attribution", "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(data), "--clip", "99999",
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 2


def _sets(items):
    return sum((["--set", s] for s in items), [])


def _non_utf8_config(tmp_path, data, ckpt):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xffepochs=2\n")
    return ["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "o")]


def _out_is_directory(tmp_path, data, ckpt):
    return ["gen-data", "--out", str(tmp_path)] + _sets(["n_clips=4", "n_groups=2"])


def _truncated_corpus(tmp_path, data, ckpt):
    cut = tmp_path / "cut.bin"
    cut.write_bytes(data.read_bytes()[:100])
    return ["train", "--data", str(cut), "--out", str(tmp_path / "o")] + _sets(SMALL)


def _bad_checkpoint_magic(tmp_path, data, ckpt):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNK" + ckpt.read_bytes()[4:])
    return ["export-attribution", "--checkpoint", str(bad), "--data", str(data),
            "--clip", "0", "--out", str(tmp_path / "a.csv")]


def _block_too_long(tmp_path, data, ckpt):
    return (["train", "--data", str(data), "--out", str(tmp_path / "o")]
            + _sets(SMALL + ["blocks=4:99:1:2"]))


def _attribution_without_selection(tmp_path, data, ckpt):
    return ["export-attribution", "--checkpoint", str(ckpt), "--data", str(data),
            "--clip", "0", "--out", str(tmp_path / "a.csv")]


def _zero_bank_without_selection(tmp_path, data, ckpt):
    return (["train", "--data", str(data), "--out", str(tmp_path / "o"), "--no-fs"]
            + _sets(SMALL + ["q=0"]))


def _ablate_missing_corpus(tmp_path, data, ckpt):
    return ["ablate", "--data", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o"),
            "--grid", "q=2,3"] + _sets(SMALL)


def _train_argv(tmp_path, data, *args):
    return ["train", "--data", str(data), "--out", str(tmp_path / "o"), *args] + _sets(SMALL)


def _ablate_argv(tmp_path, data, grid):
    return ["ablate", "--data", str(data), "--out", str(tmp_path / "o"),
            "--grid", grid] + _sets(SMALL)


def _bool_not_parsed(tmp_path, data, ckpt):
    return _train_argv(tmp_path, data, "--set", "fs_enabled=maybe")


def _block_missing_field(tmp_path, data, ckpt):
    return _train_argv(tmp_path, data, "--set", "blocks=4:5:1")


def _config_line_without_equals(tmp_path, data, ckpt):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=2\nnonsense\n")
    return _train_argv(tmp_path, data, "--config", str(cfg))


def _config_missing(tmp_path, data, ckpt):
    return _train_argv(tmp_path, data, "--config", str(tmp_path / "missing.cfg"))


def _set_comment(tmp_path, data, ckpt):
    return _train_argv(tmp_path, data, "--set", "#x")


def _grid_clause_without_values(tmp_path, data, ckpt):
    return _ablate_argv(tmp_path, data, "q")


def _grid_key_twice(tmp_path, data, ckpt):
    return _ablate_argv(tmp_path, data, "q=2;q=3")


def _grid_value_twice(tmp_path, data, ckpt):
    return _ablate_argv(tmp_path, data, "q=2,2")


def _grid_value_twice_once_typed(tmp_path, data, ckpt):
    return _ablate_argv(tmp_path, data, "m=0,0.0")


def _retired_key(tmp_path, data, ckpt):
    return _train_argv(tmp_path, data, "--set", "adam_beta1=0.8")


def _retired_key_in_config_echo(tmp_path, data, ckpt):
    cfg = tmp_path / "config.resolved"
    cfg.write_text("bn_eps=1e-05\nepochs=2\n")
    return _train_argv(tmp_path, data, "--config", str(cfg))


def _retired_setting_in_checkpoint(tmp_path, data, ckpt):
    old = load(ckpt)
    old.tensors["config/adam_beta1"] = np.asarray(0.8)
    path = tmp_path / "old.bin"
    save(old, path)
    return ["train", "--data", str(data), "--out", str(tmp_path / "o"), "--resume",
            str(path)] + _sets(SMALL + ["epochs=3", "fs_enabled=false"])


def _resume_other_bank_size(tmp_path, data, ckpt):
    return _train_argv(tmp_path, data, "--no-fs", "--resume", str(ckpt)) + ["--set", "q=3"]


def _resume_exhausted_budget(tmp_path, data, ckpt):
    # the checkpoint is the 2-epoch run's, resumed at its own epochs=2
    return _train_argv(tmp_path, data, "--no-fs", "--resume", str(ckpt))


def _resume_negative_epoch(tmp_path, data, ckpt):
    old = load(ckpt)
    old.tensors["state/epoch"] = np.asarray(-3.0)
    path = tmp_path / "old.bin"
    save(old, path)
    return _train_argv(tmp_path, data, "--no-fs", "--resume", str(path)) + ["--set", "epochs=3"]


def _resume_nan_bank_entry(tmp_path, data, ckpt):
    # the run with selection that TestInvalidInputExits2.fs_run trains beside ckpt's
    old = load(ckpt.parent.parent / "fs" / "checkpoint.bin")
    grads = old.tensors["bank/0001/grads"].copy()
    grads[0, 0, 0] = np.nan
    old.tensors["bank/0001/grads"] = grads
    path = tmp_path / "old.bin"
    save(old, path)
    return _train_argv(tmp_path, data, "--resume", str(path)) + ["--set", "epochs=3"]


def _resume_adam_moment_shape(tmp_path, data, ckpt):
    old = load(ckpt)
    old.tensors["adam/m/head.b"] = np.zeros(3)
    path = tmp_path / "old.bin"
    save(old, path)
    return _train_argv(tmp_path, data, "--no-fs", "--resume", str(path)) + ["--set", "epochs=3"]


def _grid_empty(tmp_path, data, ckpt):
    return _ablate_argv(tmp_path, data, ";")


def _negative_split_seed(tmp_path, data, ckpt):
    return _train_argv(tmp_path, data, "--set", "split_seed=-1")


def _ablate_negative_split_seed(tmp_path, data, ckpt):
    return _ablate_argv(tmp_path, data, "m=0") + ["--set", "split_seed=-1"]


# rejected while the settings are read or the corpus is split, before --out is created
_BAD_SETTINGS = [
    (_negative_split_seed, "split seed must be >= 0"),
    (_ablate_negative_split_seed, "split seed must be >= 0"),
    (_bool_not_parsed, "expected a boolean"),
    (_block_missing_field, "needs out:kernel:stride:pool"),
    (_config_line_without_equals, "expected key=value"),
    (_config_missing, "not found"),
    (_set_comment, "expected key=value"),
    (_grid_clause_without_values, "is not key=v1,v2"),
    (_grid_key_twice, "given twice"),
    (_grid_value_twice, "grid key 'q' repeats a value"),
    (_grid_value_twice_once_typed, "grid key 'm' repeats a value"),
    (_retired_key, "unknown key 'adam_beta1'"),
    (_retired_key_in_config_echo, "unknown key 'bn_eps'"),
    (_grid_empty, "empty grid")]

# rejected once the resume checkpoint is read, before --out is created
_BAD_RESUMES = [
    (_retired_setting_in_checkpoint, "'config/adam_beta1' holds 0.8"),
    (_resume_other_bank_size, "does not match the active one"),
    (_resume_exhausted_budget, "already at epoch 2"),
    (_resume_negative_epoch, "'state/epoch' must be an integer >= 0"),
    (_resume_nan_bank_entry, "checkpoint bank rejected: non-finite"),
    (_resume_adam_moment_shape, "'adam/m/head.b' has shape (3,)")]


class TestInvalidInputExits2:
    @pytest.fixture(scope="class")
    def nofs_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("nofs")
        data = _gen(root)
        rc = main(["train", "--data", str(data), "--out", str(root / "run"), "--no-fs"]
                  + _sets(SMALL))
        assert rc == 0
        return data, root / "run" / "checkpoint.bin"

    @pytest.fixture(scope="class", autouse=True)
    def fs_run(self, nofs_run):
        """A run with selection beside the --no-fs one, whose bank a case corrupts."""
        data, ckpt = nofs_run
        rc = main(["train", "--data", str(data), "--out", str(ckpt.parent.parent / "fs")]
                  + _sets(SMALL))
        assert rc == 0

    @pytest.mark.parametrize("case, expected", [
        (_non_utf8_config, "not valid UTF-8"),
        (_out_is_directory, "Is a directory"),
        (_truncated_corpus, "truncated"),
        (_bad_checkpoint_magic, "bad magic"),
        (_block_too_long, "block 0: kernel 99"),
        (_attribution_without_selection, "no frozen channel weights"),
        (_zero_bank_without_selection, "bank_size 0"),
        (_ablate_missing_corpus, "nope.bin"),
        *_BAD_RESUMES,
        *_BAD_SETTINGS])
    def test_one_error_line_and_no_traceback(self, tmp_path, capsys, nofs_run, case, expected):
        argv = case(tmp_path, *nofs_run)
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err and expected in err

    def test_ablate_missing_corpus_creates_no_out_directory(self, tmp_path, nofs_run):
        assert main(_ablate_missing_corpus(tmp_path, *nofs_run)) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", [case for case, _ in _BAD_SETTINGS])
    def test_bad_setting_creates_no_out(self, tmp_path, nofs_run, case):
        assert main(case(tmp_path, *nofs_run)) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", [case for case, _ in _BAD_RESUMES])
    def test_bad_resume_creates_no_out(self, tmp_path, nofs_run, case):
        assert main(case(tmp_path, *nofs_run)) == 2
        assert not (tmp_path / "o").exists()

"""Batch command-line interface: corpus generation, training, ablation
sweeps, attribution export.

Configuration is a flat ``key=value`` text file validated against a
typed schema; ``--set key=value`` flags override file values. A run's
directory is created once its input checks pass and receives a
``config.resolved`` echo of the effective values. ``ablate`` reads and
splits the corpus once, then runs the ``train`` path per grid cell; its
``summary.csv`` has the ``GRID_KEYS`` columns, then
``val_acc,val_f1,val_auroc``.
The schema's keys, parsers and defaults derive from ``training.settings``
of ``CorpusSpec`` and ``TrainConfig``, whose names a checkpoint's
``config/`` tensors share: a setting's key is its name after the last
dot, unless ``_KEYS`` gives it an alias.

Exit codes: 0 success, 2 invalid input (a ``ValidationError``, whose
subclass ``ParseError`` marks a corrupt file, or an ``OSError`` on a path),
3 numeric divergence (a ``DivergenceError``); an ablation sweep with
failed cells exits 1. Any other exception, a ``UsageError`` among them,
is a bug and prints a traceback.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import traceback
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import DivergenceError, Tensor, ValidationError
from .data import CorpusSpec, Dataset, generate, read, split, write
from .selection import export_attribution, write_attribution_csv
from .training import (
    EpochRow,
    TrainConfig,
    check_dataset_shape,
    check_train_inputs,
    config_from,
    format_metric,
    load,
    predict,
    restore_model,
    save,
    settings,
    train,
    write_metrics_csv,
)


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_blocks(s: str) -> tuple[tuple[int, int, int, int], ...]:
    """\"32:7:1:2,64:5:1:2\" -> ((32,7,1,2), (64,5,1,2))"""
    blocks = []
    for part in s.split(","):
        nums = part.split(":")
        if len(nums) != 4:
            raise ValueError(f"block {part!r} needs out:kernel:stride:pool")
        blocks.append(tuple(int(x) for x in nums))
    return tuple(blocks)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):  # blocks
        return ",".join(":".join(str(x) for x in b) for b in v)
    return str(v)


# Setting -> CLI key, where the key is an alias. Settings are named as
# ``settings`` names them, a CorpusSpec's led by "corpus."; every other
# setting's key is its name after the last dot.
_KEYS = {
    "bank_size": "q", "top_k": "K", "momentum": "m", "decay": "gamma",
    "corpus.seed": "data_seed",
    "enc.in_channels": "channels", "enc.clip_len": "timestamps",
}


def _key(name: str) -> str:
    return _KEYS.get(name, name.rpartition(".")[2])


def _parser(default):
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_blocks
    return type(default)


def _schema() -> dict:
    """key -> (parser, default); the split settings have no dataclass."""
    schema = {
        "train_ratio": (float, 0.6),
        "val_ratio": (float, 0.2),
        "test_ratio": (float, 0.2),
        "split_by_group": (_parse_bool, True),
        "split_seed": (int, 42),
    }
    for prefix, config in (("corpus.", CorpusSpec()), ("", TrainConfig())):
        for name, default in settings(config).items():
            # a key shared by two settings takes the first one's default
            schema.setdefault(_key(prefix + name), (_parser(default), default))
    return schema


SCHEMA = _schema()

GRID_KEYS = ("q", "K", "m", "gamma")


def _parse_kv_line(line: str, source: str) -> Optional[tuple[str, str]]:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "=" not in stripped:
        raise ValidationError(f"{source}: expected key=value, got {line!r}")
    key, _, value = stripped.partition("=")
    return key.strip(), value.strip()


def _typed(key: str, raw: str, where: str):
    """``raw`` as the schema type of ``key``; ValidationError led by ``where`` if it fails."""
    try:
        return SCHEMA[key][0](raw)
    except ValueError as e:
        raise ValidationError(f"{where}: {e}") from None


def resolve_config(config_path: Optional[str], overrides: list[str]) -> dict:
    """Defaults, then file values, then --set overrides; unknown keys and
    untypeable values are rejected."""
    values = {k: default for k, (_, default) in SCHEMA.items()}

    def apply(key: str, raw: str, source: str) -> None:
        if key not in SCHEMA:
            raise ValidationError(f"{source}: unknown key {key!r}")
        values[key] = _typed(key, raw, f"{source}: bad value for {key!r}")

    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ValidationError(f"config file {config_path} not found")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(
                f"config file {config_path} is not valid UTF-8 at byte {e.start}") from None
        for i, line in enumerate(text.splitlines(), start=1):
            kv = _parse_kv_line(line, f"{config_path}:{i}")
            if kv:
                apply(kv[0], kv[1], f"{config_path}:{i}")
    for item in overrides:
        kv = _parse_kv_line(item, f"--set {item!r}")
        if kv is None:
            raise ValidationError(f"--set {item!r}: expected key=value")
        apply(kv[0], kv[1], f"--set {item!r}")
    return values


def write_resolved(values: dict, out_dir: Path) -> None:
    lines = [f"{k}={_fmt(values[k])}" for k in sorted(values)]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n")


def corpus_spec_from(values: dict) -> CorpusSpec:
    return config_from(CorpusSpec, lambda name, _: values[_key(name)], "corpus.")


def train_config_from(values: dict) -> TrainConfig:
    return config_from(TrainConfig, lambda name, _: values[_key(name)])


def cmd_gen_data(args) -> int:
    values = resolve_config(args.spec, args.set or [])
    spec = corpus_spec_from(values)
    ds = generate(spec)
    write(ds, args.out)
    n_pos = sum(c.label for c in ds.clips)
    print(f"n={len(ds.clips)} c={ds.channels} t={ds.timestamps} pos={n_pos}")
    return 0


def _split_corpus(values: dict, data_path: str) -> tuple[Dataset, Dataset, Dataset]:
    """The corpus at ``data_path`` split into train/val/test parts as ``values`` set."""
    ratios = (values["train_ratio"], values["val_ratio"], values["test_ratio"])
    return split(read(data_path), ratios, by_group=values["split_by_group"],
                 seed=values["split_seed"])


def _train_into(values: dict, parts: tuple[Dataset, Dataset, Dataset], out_dir: Path,
                resume_path: Optional[str]) -> EpochRow:
    """Train on ``parts`` (train, val, test) into ``out_dir``, created once the
    inputs pass their checks; returns the final epoch's validation row."""
    config = train_config_from(values)
    tr, va, te = parts
    resume = load(resume_path) if resume_path else None
    check_train_inputs(config, tr, va, resume)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(values, out_dir)

    result = train(config, tr, va, resume=resume)

    save(result.final, out_dir / "checkpoint.bin")
    save(result.best, out_dir / "checkpoint_best.bin")
    rows = list(result.log)
    if te.clips:
        probs, labels, loss = predict(result.final, te, config.batch_size)
        rows.append(EpochRow.from_scores(config.epochs, "test", loss, probs, labels))
    write_metrics_csv(rows, out_dir / "metrics.csv")
    if result.alpha_trajectory_sha256 is not None:
        (out_dir / "alpha_trajectory.txt").write_text(
            result.alpha_trajectory_sha256 + "\n")

    last = result.log[-1]  # every epoch logs its train row, then its val row
    print(f"epochs={config.epochs} val_acc={format_metric(last.accuracy)} "
          f"val_f1={format_metric(last.f1)} best_epoch={result.best_epoch}")
    return last


def cmd_train(args) -> int:
    overrides = (args.set or []) + (["fs_enabled=false"] if args.no_fs else [])
    values = resolve_config(args.config, overrides)
    _train_into(values, _split_corpus(values, args.data), Path(args.out), args.resume)
    return 0


def parse_grid(grid: str) -> dict[str, list]:
    """\"q=4,8;m=0,0.2\" -> {\"q\": [4, 8], \"m\": [0.0, 0.2]}"""
    out: dict[str, list] = {}
    for clause in grid.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValidationError(f"grid clause {clause!r} is not key=v1,v2,...")
        key, _, rest = clause.partition("=")
        key = key.strip()
        if key not in GRID_KEYS:
            raise ValidationError(f"grid key {key!r} not one of {GRID_KEYS}")
        if key in out:
            raise ValidationError(f"grid key {key!r} given twice")
        raw = [v.strip() for v in rest.split(",") if v.strip()]
        if not raw:
            raise ValidationError(f"grid key {key!r} has no values")
        typed = [_typed(key, v, f"grid key {key!r}") for v in raw]
        if len({_fmt(v) for v in typed}) < len(typed):  # two cells would share a directory
            raise ValidationError(f"grid key {key!r} repeats a value in {rest.strip()!r}")
        out[key] = typed
    if not out:
        raise ValidationError("empty grid")
    return out


def cmd_ablate(args) -> int:
    values = resolve_config(args.config, args.set or [])
    grid = parse_grid(args.grid)
    parts = _split_corpus(values, args.data)  # no grid key changes the corpus or its split
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    keys = sorted(grid)  # lexicographic cell order
    summary = ",".join(GRID_KEYS) + ",val_acc,val_f1,val_auroc\n"
    failures = ""
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = {**values, **dict(zip(keys, combo))}
        name = "_".join(f"{k}={_fmt(v)}" for k, v in zip(keys, combo))
        try:
            row = _train_into(cell, parts, out_root / name, None)
        except Exception as e:  # record and continue with the other cells
            failures += f"{name}\t{type(e).__name__}: {e}\n"
            print(f"cell {name} failed: {e}", file=sys.stderr)
            continue
        metrics = map(format_metric, (row.accuracy, row.f1, row.auroc))
        summary += ",".join([*(_fmt(cell[k]) for k in GRID_KEYS), *metrics]) + "\n"

    (out_root / "summary.csv").write_text(summary)
    if failures:
        (out_root / "failures.txt").write_text(failures)
    return 1 if failures else 0


def cmd_export_attribution(args) -> int:
    ckpt = load(args.checkpoint)
    config, enc, sel = restore_model(ckpt)
    if sel is None or ckpt.frozen_alpha is None:
        raise ValidationError(
            "checkpoint has no frozen channel weights; train with the "
            "selection module enabled first")
    ds = read(args.data)
    check_dataset_shape(config.encoder, ds)
    matches = [c for c in ds.clips if c.clip_id == args.clip]
    if not matches:
        raise ValidationError(f"clip id {args.clip} not present in {args.data}")
    clip = matches[0]

    enc.forward(Tensor(clip.data[None, :, :]), fs=sel, mode="eval")
    weights = export_attribution(sel, clip, config.encoder.stride_product())
    write_attribution_csv(weights, args.out)
    peak = int(np.argmax(weights))
    print(f"clip={clip.clip_id} label={clip.label} peak_timestamp={peak}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegfs",
        description="Entropy-weighted feature selection pipeline for synthetic "
                    "multichannel signal classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus file")
    p.add_argument("--spec", help="key=value corpus spec file")
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train and evaluate one model")
    p.add_argument("--config", help="key=value run config file")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-fs", action="store_true",
                   help="disable the feature-selection hook (ablation baseline)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help=f"hyperparameter sweep over {', '.join(GRID_KEYS)}")
    p.add_argument("--config", help="key=value run config file")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--grid", required=True,
                   help='e.g. "q=4,8,16;K=1,2,4;m=0,0.2,0.5,1;gamma=0.1,0.25,0.5,0.9"')
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("export-attribution",
                       help="write per-timestamp attribution weights for one clip")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--clip", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_export_attribution)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DivergenceError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, DivergenceError) else 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

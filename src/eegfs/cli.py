"""Batch command-line interface: corpus generation, training, ablation
sweeps, attribution export.

Configuration is a flat ``key=value`` text file validated against a
typed schema; ``--set key=value`` flags override file values. Every run
directory receives a ``config.resolved`` echo of the effective values.
The schema's keys, parsers and defaults derive from the fields of
``CorpusSpec``, ``TrainConfig`` and ``EncoderConfig``; ``_KEYS`` lists
the fields whose key differs from the field name.

Exit codes: 0 success, 2 validation or configuration error, 3 numeric
divergence; an ablation sweep with failed cells exits 1.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import traceback
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import Tensor, ValidationError
from .data import CorpusSpec, Dataset, ParseError, generate, read, split, write
from .encoder import ConfigError, EncoderConfig
from .selection import ConfigurationError, export_attribution, write_attribution_csv
from .training import (
    DivergenceError,
    EpochRow,
    TrainConfig,
    check_dataset_shape,
    load,
    predict,
    restore_model,
    save,
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


# Dataclass field -> CLI key, where the two differ. Fields are named
# "corpus.<f>" (CorpusSpec), "enc.<f>" (EncoderConfig) or "<f>" (TrainConfig);
# a tuple splits a (min, max) field into two keys, None keeps it off the CLI.
_KEYS = {
    "bank_size": "q", "top_k": "K", "momentum": "m", "decay": "gamma",
    "corpus.seed": "data_seed",
    "corpus.spike_width_ms": ("spike_width_ms_min", "spike_width_ms_max"),
    "enc.in_channels": "channels", "enc.clip_len": "timestamps",
    "enc.activation_kind": "activation",
    "encoder": None, "enc.num_classes": None,
}
_SECTIONS = (("corpus.", CorpusSpec), ("", TrainConfig), ("enc.", EncoderConfig))


def _field_keys(prefix: str, cls):
    """(field, CLI key or key pair) for every field of ``cls`` the CLI sets."""
    for f in fields(cls):
        key = _KEYS.get(prefix + f.name, f.name)
        if key is not None:
            yield f, key


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
    for prefix, cls in _SECTIONS:
        for f, key in _field_keys(prefix, cls):
            if isinstance(key, tuple):
                schema.update((k, (_parser(d), d)) for k, d in zip(key, f.default))
            else:  # a key shared by two fields takes the first field's default
                schema.setdefault(key, (_parser(f.default), f.default))
    return schema


SCHEMA = _schema()

GRID_KEYS = ("q", "K", "m", "gamma")


class CliConfigError(ValueError):
    pass


def _parse_kv_line(line: str, source: str) -> Optional[tuple[str, str]]:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "=" not in stripped:
        raise CliConfigError(f"{source}: expected key=value, got {line!r}")
    key, _, value = stripped.partition("=")
    return key.strip(), value.strip()


def resolve_config(config_path: Optional[str], overrides: list[str]) -> dict:
    """Defaults, then file values, then --set overrides; unknown keys and
    untypeable values are rejected."""
    values = {k: default for k, (_, default) in SCHEMA.items()}

    def apply(key: str, raw: str, source: str) -> None:
        if key not in SCHEMA:
            raise CliConfigError(f"{source}: unknown key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(raw)
        except ValueError as e:
            raise CliConfigError(f"{source}: bad value for {key!r}: {e}") from None

    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise CliConfigError(f"config file {config_path} not found")
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            kv = _parse_kv_line(line, f"{config_path}:{i}")
            if kv:
                apply(kv[0], kv[1], f"{config_path}:{i}")
    for item in overrides:
        kv = _parse_kv_line(item, f"--set {item!r}")
        if kv is None:
            raise CliConfigError(f"--set {item!r}: expected key=value")
        apply(kv[0], kv[1], f"--set {item!r}")
    return values


def write_resolved(values: dict, out_dir: Path) -> None:
    lines = [f"{k}={_fmt(values[k])}" for k in sorted(values)]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n")


def _from(values: dict, prefix: str, cls, **nested):
    """A config dataclass built from resolved values."""
    kwargs = {}
    for f, key in _field_keys(prefix, cls):
        kwargs[f.name] = tuple(values[k] for k in key) if isinstance(key, tuple) else values[key]
    return cls(**kwargs, **nested)


def corpus_spec_from(values: dict) -> CorpusSpec:
    return _from(values, "corpus.", CorpusSpec)


def train_config_from(values: dict) -> TrainConfig:
    return _from(values, "", TrainConfig, encoder=_from(values, "enc.", EncoderConfig))


def _split_dataset(values: dict, ds: Dataset):
    ratios = (values["train_ratio"], values["val_ratio"], values["test_ratio"])
    return split(ds, ratios, by_group=values["split_by_group"],
                 seed=values["split_seed"])


def cmd_gen_data(args) -> int:
    values = resolve_config(args.spec, args.set or [])
    spec = corpus_spec_from(values)
    ds = generate(spec)
    write(ds, args.out)
    n_pos = sum(c.label for c in ds.clips)
    print(f"n={len(ds.clips)} c={ds.channels} t={ds.timestamps} pos={n_pos}")
    return 0


def _train_into(values: dict, data_path: str, out_dir: Path,
                resume_path: Optional[str]) -> dict:
    """Run one training and drop the artifact set into ``out_dir``.

    Returns the final-epoch validation metrics (for ablation summaries).
    """
    config = train_config_from(values)
    ds = read(data_path)
    tr, va, te = _split_dataset(values, ds)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(values, out_dir)

    resume = load(resume_path) if resume_path else None
    result = train(config, tr, va, resume=resume)

    save(result.final, out_dir / "checkpoint.bin")
    save(result.best, out_dir / "checkpoint_best.bin")
    rows = list(result.log)
    if te.clips:
        test_scores, test_loss = predict(result.final, te, config.batch_size)
        rows.append(EpochRow.from_scores(config.epochs, "test", test_loss, test_scores))
    write_metrics_csv(rows, out_dir / "metrics.csv")
    if result.alpha_trajectory_sha256 is not None:
        (out_dir / "alpha_trajectory.txt").write_text(
            result.alpha_trajectory_sha256 + "\n")

    val_rows = [r for r in result.log if r.split == "val"]
    last = val_rows[-1]
    print(f"epochs={config.epochs} val_acc={last.accuracy:.6f} "
          f"val_f1={last.f1:.6f} best_epoch={result.best_epoch}")
    return {"val_acc": last.accuracy, "val_f1": last.f1, "val_auroc": last.auroc}


def cmd_train(args) -> int:
    overrides = list(args.set or [])
    if args.no_fs:
        overrides.append("fs_enabled=false")
    values = resolve_config(args.config, overrides)
    _train_into(values, args.data, Path(args.out), args.resume)
    return 0


def parse_grid(grid: str) -> dict[str, list]:
    """\"q=4,8;m=0,0.2\" -> {\"q\": [4, 8], \"m\": [0.0, 0.2]}"""
    out: dict[str, list] = {}
    for clause in grid.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise CliConfigError(f"grid clause {clause!r} is not key=v1,v2,...")
        key, _, rest = clause.partition("=")
        key = key.strip()
        if key not in GRID_KEYS:
            raise CliConfigError(f"grid key {key!r} not one of {GRID_KEYS}")
        if key in out:
            raise CliConfigError(f"grid key {key!r} given twice")
        parser, _ = SCHEMA[key]
        raw = [v.strip() for v in rest.split(",") if v.strip()]
        if not raw:
            raise CliConfigError(f"grid key {key!r} has no values")
        try:
            out[key] = [parser(v) for v in raw]
        except ValueError as e:
            raise CliConfigError(f"grid key {key!r}: {e}") from None
    if not out:
        raise CliConfigError("empty grid")
    return out


def cmd_ablate(args) -> int:
    values = resolve_config(args.config, args.set or [])
    grid = parse_grid(args.grid)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    keys = sorted(grid)  # lexicographic cell order
    cells = list(itertools.product(*(grid[k] for k in keys)))
    summary_rows = []
    failures = []
    for combo in cells:
        cell_values = dict(values)
        cell_values.update(dict(zip(keys, combo)))
        name = "_".join(f"{k}={_fmt(v)}" for k, v in zip(keys, combo))
        cell_dir = out_root / name
        try:
            metrics = _train_into(cell_values, args.data, cell_dir, None)
        except Exception as e:  # record and continue with the other cells
            failures.append((name, f"{type(e).__name__}: {e}"))
            print(f"cell {name} failed: {e}", file=sys.stderr)
            continue
        summary_rows.append((cell_values["q"], cell_values["K"], cell_values["m"],
                             cell_values["gamma"], metrics))

    with open(out_root / "summary.csv", "w") as f:
        f.write("q,K,m,gamma,val_acc,val_f1,val_auroc\n")
        for q, k, m, gamma, metrics in summary_rows:
            auroc = metrics["val_auroc"]
            f.write(f"{q},{k},{_fmt(float(m))},{_fmt(float(gamma))},"
                    f"{metrics['val_acc']:.6f},{metrics['val_f1']:.6f},"
                    f"{'nan' if auroc is None else f'{auroc:.6f}'}\n")
    if failures:
        (out_root / "failures.txt").write_text(
            "".join(f"{n}\t{msg}\n" for n, msg in failures))
        return 1
    return 0


def cmd_export_attribution(args) -> int:
    ckpt = load(args.checkpoint)
    config, enc, sel = restore_model(ckpt)
    if sel is None or ckpt.frozen_alpha is None:
        raise ConfigurationError(
            "checkpoint has no frozen channel weights; train with the "
            "selection module enabled first")
    ds = read(args.data)
    check_dataset_shape(config.encoder, ds)
    matches = [c for c in ds.clips if c.clip_id == args.clip]
    if not matches:
        raise CliConfigError(f"clip id {args.clip} not present in {args.data}")
    clip = matches[0]

    enc.forward(Tensor(clip.data[None, :, :]), fs=sel, mode="eval")
    amap = export_attribution(sel, clip, config.encoder.stride_product(),
                              layer=config.encoder.insertion_layer)
    write_attribution_csv(amap, args.out)
    peak = int(np.argmax(amap.upsampled_per_timestamp))
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

    p = sub.add_parser("ablate", help="hyperparameter sweep over q, K, m, gamma")
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
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (CliConfigError, ConfigError, ConfigurationError, ParseError,
            ValidationError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

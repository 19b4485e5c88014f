"""Run a workload, stamp the result with its environment, and print it."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from eegfs.encoder import EncoderConfig

import spec
from run import BLAS_THREAD_VARS, ROOT, SRC
from tracing import Tracer
from workloads import Size, Workload


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code when the
    checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eegfs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def stamp(seed: int, nproc: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: Size,
        out_dir: Path, nproc: int) -> dict:
    """One run of one workload; returns the contract result plus context."""
    tracer = Tracer(tuple(b[0] for b in EncoderConfig().blocks)) if trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        w = Workload(name, seed, size, Path(tmp), tracer)
        w.run(seconds)
    tails = {}
    ungated = {}
    if tracer is not None:
        values, tails = tracer.metrics(w.overhead_share())
        tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
    else:
        values = w.end_to_end()
        ungated = {k: w.rec.median(k) for k, _ in spec.UNGATED}
    units = spec.units()
    failed = len(w.rec.failures)
    return {
        "workload": name,
        "trace": trace,
        "rounds": w.n_rounds,
        "stamp": stamp(seed, nproc),
        "failures": w.rec.failures,
        "tails": tails,
        "ungated": ungated,
        "result": {
            "correct": failed == 0,
            "attempted": w.rec.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def emit(full: dict, out_dir: Path) -> None:
    """Human-readable lines, a stamped copy on disk, then the JSON line."""
    res = full["result"]
    print(f"stamp: {json.dumps(full['stamp'], sort_keys=True)}")
    print(f"workload {full['workload']}: {full['rounds']} rounds, trace={int(full['trace'])}")
    for name, m in res["metrics"].items():
        base = name.rsplit(".", 1)[0]
        note = f"  ({full['tails'][base]})" if name.endswith(".tail") else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    units = spec.units()
    for name, value in full["ungated"].items():
        print(f"{name} = {value:.6g} {units[name]}  (not gated)")
    print(f"failed_ratio = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    for problem in full["failures"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    out = out_dir / (
        f"result-{full['workload']}-seed{full['stamp']['seed']}-trace{int(full['trace'])}.json")
    out.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(res))


def headline(seed: int, seconds: float, size: Size, out_dir: Path, nproc: int) -> None:
    """The cost of selection over the no-selection baseline, derived from
    two untraced runs and one traced run; informative only, never gated."""
    rate = {}
    for name in ("train_nofs", "train_fs"):
        r = run(name, seed, seconds, False, size, out_dir, nproc)["result"]
        rate[name] = r["metrics"]["train_clips_per_s"]["value"]
    traced = run("train_fs", seed, seconds, True, size, out_dir, nproc)["result"]["metrics"]
    ratio = rate["train_nofs"] / rate["train_fs"]
    lines = {
        "selection_cost": ratio,
        "train_nofs_clips_per_s": rate["train_nofs"],
        "train_fs_clips_per_s": rate["train_fs"],
        "selection.share": traced["selection.share"]["value"],
        "bank.share": traced["bank.share"]["value"],
    }
    print("derived, not gated:")
    print(f"  selection cost = train_clips_per_s(train_nofs) / train_clips_per_s(train_fs)"
          f" = {rate['train_nofs']:.1f} / {rate['train_fs']:.1f} = {ratio:.3f}")
    print(f"  traced train_fs: selection.share = {lines['selection.share']:.3f}, "
          f"bank.share = {lines['bank.share']:.3f}")
    print(json.dumps({"derived": True, "gated": False, "seed": seed, **lines}))

"""Self-test of the benchmark at toy size.

    python3 bench/selftest.py

Runs every workload untraced and traced on a toy corpus and checks that
each emits exactly the metrics BENCHMARK.json names, that the traced
layers behave as predicted, and that a round trip corrupted in its last
bit counts as a failed operation. Also checks that the benchmark
refuses to run without the package sources. Takes under a minute.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

NPROC = run.cap_blas_threads()
run.import_package()

import numpy as np  # noqa: E402  (after the BLAS thread cap)

from eegfs import data, training  # noqa: E402

import report  # noqa: E402
import spec  # noqa: E402
from workloads import Size  # noqa: E402

OUT = run.OUT / "selftest"
E2E = set(spec.END_TO_END)
UNGATED = {name for name, _ in spec.UNGATED}
LAYER = set(spec.PER_LAYER)
BWD_COUNTS = {n for n in LAYER if "bwd_ms.count" in n or n == "autodiff.backward.self_ms.count"}
# Bank and batch shrink with the corpus so that the bank still fills
# within one epoch.
TOY = Size(n_clips=200, epochs=2, setup_reps=2, io_seconds=0.0,
           train={"batch_size": 16, "bank_size": 2})


def toy(workload: str, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    return report.run(workload, 5, 0.5, trace, TOY, OUT, NPROC)


def flip_last_bit(a: np.ndarray) -> None:
    a.flat[0] = np.nextafter(a.flat[0], np.inf)


class TestBenchmark(unittest.TestCase):
    def test_every_metric_emitted_and_layers_as_predicted(self):
        for name in spec.WORKLOADS:
            with self.subTest(workload=name, trace=False):
                full = toy(name, False)
                res = full["result"]
                self.assertEqual((res["correct"], res["failed"]), (True, 0))
                self.assertEqual(set(res["metrics"]), E2E)
                self.assertEqual(set(full["ungated"]), UNGATED)
                values = {k: m["value"] for k, m in res["metrics"].items()}
                for metric, v in {**values, **full["ungated"]}.items():
                    self.assertTrue(math.isfinite(v) and v > 0, metric)
            with self.subTest(workload=name, trace=True):
                res = toy(name, True)["result"]
                self.assertEqual((res["correct"], res["failed"]), (True, 0))
                self.assertEqual(set(res["metrics"]), LAYER)
                v = {k: m["value"] for k, m in res["metrics"].items()}
                self.assertGreater(v["encoder.forward_eval_ms.count"], 0)
                if name == "train_fs":
                    self.assertGreater(v["bank.sample_top_k_ms.count"], 0)
                    self.assertGreater(v["selection.bwd_ms.count"], 0)
                    self.assertGreater(v["selection.warmup_iters"], 0)
                if name == "train_nofs":
                    for k in ("bank.sample_top_k_ms.count", "bank.push_ms.count",
                              "selection.fwd_self_ms.count", "selection.bwd_ms.count",
                              "bank.share", "selection.share"):
                        self.assertEqual(v[k], 0, k)
                if name == "infer_io":
                    self.assertEqual(v["bank.sample_top_k_ms.count"], 0)
                    self.assertGreater(v["bank.push_ms.count"], 0)  # restore_model
                    for k in BWD_COUNTS | {"training.iter_ms.count"}:
                        self.assertEqual(v[k], 0, k)

    def test_corrupted_corpus_round_trip_fails(self):
        real_read = data.read

        def read(path):
            d = real_read(path)
            flip_last_bit(d.clips[0].data)
            return d

        with mock.patch.object(data, "read", read):
            full = toy("infer_io", False)
        self.assertFalse(full["result"]["correct"])
        self.assertGreater(full["result"]["failed"], 0)
        self.assertTrue(all(f.startswith("corpus_read") for f in full["failures"]))

    def test_corrupted_checkpoint_round_trip_fails(self):
        real_load = training.load

        def load(path):
            c = real_load(path)
            flip_last_bit(c.tensors["param/head.w"])
            return c

        with mock.patch.object(training, "load", load):
            full = toy("train_nofs", False)
        self.assertFalse(full["result"]["correct"])
        self.assertGreater(full["result"]["failed"], 0)
        self.assertTrue(all(f.startswith("ckpt_load") for f in full["failures"]))

    def test_refuses_to_run_without_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "train_fs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in out.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()

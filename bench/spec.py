"""The eegfs benchmark's workloads and metrics, read from BENCHMARK.json.

``BENCHMARK.json`` at the repository root names every workload and
every gated and per-layer metric with its unit. Only the metrics that
are measured and printed but not gated are listed here.
"""

from __future__ import annotations

import json
from pathlib import Path

_DOC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

RUN_SECONDS: int = _DOC["run_seconds"]
WORKLOADS: list[str] = [w["name"] for w in _DOC["workloads"]]
END_TO_END: list[str] = [m["name"] for m in _DOC["end_to_end"]]
PER_LAYER: list[str] = [m["name"] for m in _DOC["per_layer"]]

# Measured on every workload and printed with the end-to-end metrics, but
# not gated: on a shared 2-core host their ten-run spread reached 0.36
# (generation, single-threaded Python) and 0.38 (file I/O, memory-bound),
# past the widest bound. Generation still counts toward setup_s, which it
# dominates on the training workloads. (name, unit)
UNGATED = [
    ("gen_clips_per_s", "1/s"),
    ("corpus_write_mb_per_s", "MB/s"),
    ("corpus_read_mb_per_s", "MB/s"),
    ("ckpt_save_mb_per_s", "MB/s"),
    ("ckpt_load_mb_per_s", "MB/s"),
]


def units() -> dict[str, str]:
    """Unit of every metric, end-to-end, ungated and per-layer."""
    out = {m["name"]: m["unit"] for m in _DOC["end_to_end"] + _DOC["per_layer"]}
    out.update(UNGATED)
    return out

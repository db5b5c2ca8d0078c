"""Smoke test of the benchmark: one traced `desk` repetition must run clean.

Run with ``python -m pytest -q perfbench/test_smoke.py`` from the repository
root. It keeps the benchmark from going stale: a renamed CLI flag, a changed
output format or a layer function the benchmark names but no longer finds
fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_desk_smoke_traced(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "desk", "--seed", "20",
         "--seconds", "1", "--trace", "1", "--smoke", "--results-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert "was not measured" not in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]

    record = json.loads((tmp_path / "desk-seed20-trace1.json").read_text())
    assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in record["end_to_end"].values())
    for name in ("metrics.forwards_per_image", "synthbench.loads_per_unique_snapshot",
                 "personalize.step_ms", "snapshot.bytes_read", "snapshot.bytes_written",
                 "trace.overhead_pct"):
        assert name in record["layers"], name

"""Self-test of the benchmark; gates on no timing.

    python3 -m pytest bench/test_bench.py -q

Runs every workload at minimal length, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit, that every
correctness check passes, and that the layer self times add up to the traced
op time.  It also checks the command line's result line and its refusal to
run without lvdiag's sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import run
from layers import PER_LAYER, scanned_pairs

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

run.import_lvdiag()


def test_spec_matches_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert all(NAME.fullmatch(m["name"]) for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    ledger, metrics, notes = run.measure_end_to_end(workload, 1, 0.0, tmp_path, min_ops=1, setup_runs=1)
    assert ledger.attempted >= 3 and ledger.failed == 0
    assert notes["failed_ratio"] == 0.0
    assert list(metrics) == list(run.END_TO_END)
    assert all(math.isfinite(v) and v > 0.0 for v in metrics.values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload, tmp_path):
    ledger, metrics, notes = run.measure_traced(workload, 1, 0.0, tmp_path)
    assert ledger.failed == 0
    assert list(metrics) == list(PER_LAYER)
    assert all(math.isfinite(v) and v >= 0.0 for v in metrics.values())
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layer_sum == pytest.approx(metrics["trace.op_ms"], rel=1e-9)
    assert metrics["integrate.steps"] > 0 and metrics["diagnostics.selfx.pairs"] > 0
    assert (metrics["output.bytes"] > 0) == (workload == "run")
    assert (metrics["cli.self_ms"] > 0) == (workload != "sweep")
    assert (metrics["methods.calls"] > 40) == (workload == "verify")


def test_scanned_pairs_counts_rows_up_to_the_crossing():
    class Hit:
        i = 1

    x, y = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    # Five segments: rows 0, 1, 2 hold 3, 2, 1 pairs.
    assert scanned_pairs(x, y, None) == 6
    assert scanned_pairs(x, y, Hit()) == 5
    closed_x, closed_y = x + [0.0], y + [0.0]
    # Six segments, closed: row 0 skips the (first, last) pair.
    assert scanned_pairs(closed_x, closed_y, None) == 10 - 1


def test_command_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "sweep", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

"""Smoke tests of the benchmark itself: a few requests per workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
STABLE_COUNTS = (
    "mps.calls_per_request",
    "linalg.svd_calls",
    "linalg.svd_flops",
    "sequencer.verify_inputs",
    "formats.write_bytes",
    "formats.read_bytes",
)


def bench(workload, trace, *extra, cwd=ROOT, seed=7):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    doc, lines = result(bench(workload, trace))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(doc["metrics"][m["name"]]["value"], (int, float))
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines
        ), m["name"]
    assert any(line.startswith("fail_rate 0 ratio") for line in lines)
    assert any(line.startswith("environment {") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, lines = result(bench(workload, 1))
    second, _ = result(bench(workload, 1))
    assert "count self-check: identical" in lines
    for key in STABLE_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert "trace.overhead_s" in first["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expectation_is_counted_as_failure(workload):
    doc, lines = result(bench(workload, 0, "--corrupt-expectation"))
    assert doc["correct"] is False
    assert doc["failed"] >= 1
    assert any(line.startswith("fail_rate ") and not line.startswith("fail_rate 0 ") for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tiny-size runs of every workload through bench/run.py.

Run from the repository root: python3 -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = (".iters", ".frames", ".pairs", ".kept_ratio", ".records", ".cache.mb",
         ".read_embeddings.mb")


def _run(tmp_path, workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_passes_every_check(tmp_path, workload):
    plain = _run(tmp_path, workload, 0)
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.splitlines()[-1])
    info = json.loads(plain.stdout.splitlines()[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 1
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(name, v["unit"]) for name, v in result["metrics"].items()]
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["seed"] == 3 and info["env"]["nproc"] >= 1

    layers = []
    for _ in range(2):
        traced = _run(tmp_path, workload, 1)
        assert traced.returncode == 0, traced.stderr
        result = json.loads(traced.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
            [(name, v["unit"]) for name, v in result["metrics"].items()]
        layers.append(result["metrics"])
    # counts and ratios repeat exactly for the same seed
    exact = [name for name in layers[0] if name.endswith(EXACT)]
    assert [layers[0][n]["value"] for n in exact] == [layers[1][n]["value"] for n in exact]
    assert (tmp_path / f"{workload}-seed3-trace1" / "spans.jsonl").stat().st_size > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", "units", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == gen.WHY
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_tail_percentile_keeps_ten_ops_above():
    assert run.tail_percentile(6) == 100
    for n in (11, 20, 40, 48, 1000):
        p = run.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10

"""Tests of the exhibit benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q

The end-to-end cases spawn ``perfbench/run.py`` and take about a minute
(they capture and replay real exhibits); the rest are instant.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_contract():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert data["paths"] == ["perfbench"]
    assert isinstance(data["run_seconds"], int)
    assert 1 <= data["run_seconds"] <= 60
    names = [w["name"] for w in data["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {}
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    seen = set()
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["name"] not in seen
        seen.add(metric["name"])
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["unit"] == run.unit_of(metric["name"])


def test_golden_passes_its_own_check():
    golden = json.loads(check.GOLDEN_PATH.read_text())
    for workload in run.WORKLOADS:
        rows = golden[workload]
        cells = check.cells(workload, rows)
        assert check.plausible(workload, rows) == []
        assert check.failed_cells(workload, rows, cells, 0, cells) \
            == (0, [])


def test_corrupted_cell_fails_under_every_seed():
    rows = json.loads(check.GOLDEN_PATH.read_text())["fig12-cold"]
    golden = check.cells("fig12-cold", rows)
    bad = copy.deepcopy(rows)
    bad[0]["charon"] *= 2  # spark-bs: seed-free, must match exactly
    for seed in (0, 7):
        failed, why = check.failed_cells("fig12-cold", bad, golden, seed)
        assert failed == 1, why


def test_seeded_cells_get_a_tolerance_only_off_the_golden_seed():
    rows = json.loads(check.GOLDEN_PATH.read_text())["sweep-j2"]
    golden = check.cells("sweep-j2", rows)
    moved = copy.deepcopy(rows)
    for row in moved:
        if row["workload"] == "graphchi-pr":
            row["wall_s"] *= 1.01
    assert check.failed_cells("sweep-j2", moved, golden, 0)[0] == 10
    assert check.failed_cells("sweep-j2", moved, golden, 3)[0] == 0


def test_iterations_must_agree():
    rows = json.loads(check.GOLDEN_PATH.read_text())["fig15-warm"]
    golden = check.cells("fig15-warm", rows)
    first = dict(golden)
    first[("CC", 16, "ddr4")] = 0.0
    assert check.failed_cells("fig15-warm", rows, golden, 0, first)[0] == 1


def test_broken_exhibit_fails_every_cell():
    rows = json.loads(check.GOLDEN_PATH.read_text())["fig12-cold"]
    golden = check.cells("fig12-cold", rows)
    assert check.failed_cells("fig12-cold", None, golden, 0)[0] == 28
    upside_down = copy.deepcopy(rows)
    upside_down[-1]["charon"] = 1.1
    assert check.failed_cells("fig12-cold", upside_down, golden, 0)[0] \
        == 28


def test_wrappers_attach_and_account_a_capture():
    """The layer spans hook the live entry points and their self times
    cover the call they enclose."""
    code = (
        "import json, time, layers\n"
        "spans = layers.install()\n"
        "from repro.experiments import runner\n"
        "t = time.perf_counter()\n"
        "run = runner.collect_run('spark-bs')\n"
        "runner.replay_platform('charon', 'spark-bs')\n"
        "wall = time.perf_counter() - t\n"
        "out = layers.report(spans, wall)\n"
        "out['expected_gcs'] = run.gc_count\n"
        "print(json.dumps(out))\n")
    env = run.base_env(0)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert out["workloads.gc_count"] == out["expected_gcs"] > 0
    assert out["gcalgo.minor_calls"] + out["gcalgo.major_calls"] \
        + out["gcalgo.sweep_calls"] == out["expected_gcs"]
    assert out["workloads.allocate_calls"] > 0
    assert 0 < out["workloads.mutator_s"] < out["workloads.capture_s"]
    assert out["platform.charon.stage1_s"] > 0
    assert out["platform.replay_events"] == out["gcalgo.trace_events"]
    assert out["harness.coverage_pct"] > 95


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig12-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_golden_reports_errors(tmp_path):
    golden = json.loads(check.GOLDEN_PATH.read_text())
    for row in golden["fig15-warm"]:
        row["charon_unified"] += 1.0
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "fig15-warm", "--seed", "0", "--seconds", "1", "--trace", "1",
         "--golden", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] == 20  # 10 rows x 2 iterations
    assert result["metrics"]["harness.error_rate"]["value"] > 0
    assert sorted(result["metrics"]) == sorted(
        metric["name"] for metric in spec()["per_layer"])

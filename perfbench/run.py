"""Exhibit benchmark: what a user of the reproduction runs, end to end.

    python3 perfbench/run.py --workload fig12-cold --seed 0 \\
        --seconds 30 --trace 0

Workloads (reasons in ``BENCHMARK.json``):

* ``fig12-cold``: ``figure12()`` over the six Table 3 workloads with an
  empty trace cache; capture dominates;
* ``fig15-warm``: ``figure15()`` on spark-lr and graphchi-cc from a
  staged trace cache under ``REPRO_TRACE_CACHE_REQUIRE``; replay only;
* ``sweep-j2``: two 5-platform x 6-workload ``replay_grid`` sweeps
  (1 and 8 GC threads) on the warm two-worker pool, staged trace and
  stage-1 caches under ``*_REQUIRE``, a fresh shard journal each time.

Every measurement is a fresh child process (``child.py``) with a pinned
environment: ``PYTHONHASHSEED`` is the seed, BLAS/OpenMP use one thread,
every ``REPRO_*`` variable the workload does not set is removed, and all
caches and journals live in per-run directories under ``.bench_build``.
The run makes set-up probes (median ``setup_s``), then measured
iterations until ``--seconds`` would be exceeded (at least one), and with
``--trace 1`` one more iteration with the layer spans of ``layers.py``.
CPU time and peak RSS come from ``os.wait4`` on the child, so they cover
the pool workers it reaped.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: Environment of each workload on top of the pinned base; ``{traces}``,
#: ``{stage1}`` expand to the child's own directories.  ``staged`` names
#: the directories copied from the seed's prepared inputs.
WORKLOADS = {
    "fig12-cold": {"env": {"REPRO_TRACE_CACHE": "{traces}"},
                   "staged": ()},
    "fig15-warm": {"env": {"REPRO_TRACE_CACHE": "{traces}",
                           "REPRO_TRACE_CACHE_REQUIRE": "1"},
                   "staged": ("traces",)},
    "sweep-j2": {"env": {"REPRO_TRACE_CACHE": "{traces}",
                         "REPRO_TRACE_CACHE_REQUIRE": "1",
                         "REPRO_STAGE1_CACHE": "{stage1}",
                         "REPRO_STAGE1_CACHE_REQUIRE": "1",
                         "REPRO_WARM_POOL": "1"},
                 "staged": ("traces", "stage1")},
}

PROBES = 4          # set-up probes per run, after one discarded warm-up
RUN_DEADLINE_S = 170.0
KEEP_STAGES = 12    # prepared input sets kept in the checkout
PR_SET_CHILD_SUBREAPER = 36


def reference_task():
    """A fixed task, an interpreter loop plus a cache-missing numpy
    gather like the replay kernels', whose time tracks machine speed,
    not the code under test.  Returns ``measure()``: the median of three
    timings.  The arrays are made once, so every call sees the same
    allocator state."""
    import numpy as np
    table = np.arange(1 << 21, dtype=np.int64)
    order = np.random.default_rng(0).permutation(len(table))
    gathered = np.empty_like(table)

    def once() -> float:
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        for _ in range(2):
            np.take(table, order, out=gathered)
            acc += int(gathered.sum())
        return time.perf_counter() - started

    return lambda: statistics.median(once() for _ in range(3))


def base_env(seed: int) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key not in ("PYTHONPATH", "PYTHONHASHSEED")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class Runner:
    """Spawns, times and reaps the measured children of one run."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0

    def spawn(self, spec: dict, env: dict) -> dict:
        """Run one child to completion; returns its result plus the
        rusage of its whole reaped tree."""
        self.count += 1
        spec_path = self.work / f"spec{self.count}.json"
        log_path = self.work / f"child{self.count}.log"
        spec["result"] = str(self.work / f"result{self.count}.json")
        spec["spawned_at"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                env=env, cwd=str(self.work), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
        usage = self._wait(proc)
        out = {"returncode": proc.returncode, "dirs": spec.get("dirs"),
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
        result = Path(spec["result"])
        if result.exists():
            out.update(json.loads(result.read_text()))
        if proc.returncode != 0 and "error" not in out:
            out["error"] = log_path.read_text(errors="replace")[-4000:]
        return out

    def _wait(self, proc: subprocess.Popen):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > self.deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.02)
        self._reap_orphans(proc.pid)
        return usage

    @staticmethod
    def _reap_orphans(group: int) -> None:
        """Wait for descendants the child left behind (reparented here
        as subreaper), killing its process group if they linger."""
        killed_at = time.monotonic() + 5.0
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid:
                continue
            if time.monotonic() > killed_at:
                try:
                    os.killpg(group, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.02)

    def child_spec(self, mode: str, traced: bool = False,
                   stage: Optional[Path] = None) -> tuple:
        iteration = self.work / f"it{self.count + 1}"
        dirs = {name: str(iteration / name)
                for name in ("traces", "stage1", "journal")}
        spec = {"mode": mode, "workload": self.workload, "dirs": dirs,
                "traced": traced,
                "staged": list(WORKLOADS[self.workload]["staged"]),
                "stage": str(stage) if stage else None}
        env = base_env(self.seed)
        env["TMPDIR"] = str(self.work)
        for key, value in WORKLOADS[self.workload]["env"].items():
            env[key] = value.format(**dirs)
        return spec, env

    def _key(self) -> str:
        """Names the prepared inputs: the program's code and the seed."""
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")) + [HERE / "child.py"]:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return f"{digest.hexdigest()[:16]}-{self.seed}"

    def publish_traces(self, traces: Path) -> None:
        """Keep a cold run's captured traces for the warm workloads'
        preparation under the same code and seed."""
        target = BUILD / f"traces-{self._key()}"
        if not target.exists():
            shutil.copytree(traces, self.work / "published")
            _install(self.work / "published", target)

    def prepared_inputs(self) -> Path:
        """The seed's captured traces and stage-1 products, made once
        per (code, seed) and kept for later runs of the checkout."""
        key = self._key()
        stage = BUILD / f"stage-{key}"
        if stage.is_dir():  # moved into place only once complete
            return stage
        building = self.work / "stage"
        published = BUILD / f"traces-{key}"
        if published.is_dir():  # capture already done by fig12-cold
            shutil.copytree(published, building / "traces")
        env = base_env(self.seed)
        env.update(TMPDIR=str(self.work),
                   REPRO_TRACE_CACHE=str(building / "traces"),
                   REPRO_STAGE1_CACHE=str(building / "stage1"))
        out = self.spawn({"mode": "prep"}, env)
        if out["returncode"] != 0:
            raise RuntimeError(f"input preparation failed:\n"
                               f"{out.get('error', '')}")
        _install(building, stage)
        return stage


def _install(built: Path, target: Path) -> None:
    """Move a finished directory into place and prune old ones."""
    try:
        built.rename(target)
    except OSError:  # another run of this key got there first
        pass
    for pattern in ("stage-*", "traces-*"):
        kept = sorted(BUILD.glob(pattern),
                      key=lambda path: path.stat().st_mtime)
        for old in kept[:-KEEP_STAGES]:
            shutil.rmtree(old, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, traced: bool,
        work: Path, golden_path: Path = check.GOLDEN_PATH) -> dict:
    runner = Runner(workload, seed, work)
    calibrate = reference_task()
    calib = [calibrate()]
    stage = runner.prepared_inputs() \
        if WORKLOADS[workload]["staged"] else None
    setups = []
    for probe in range(PROBES + 1):
        out = runner.spawn(*runner.child_spec("probe", stage=stage))
        if out["returncode"] != 0:
            raise RuntimeError(f"set-up failed:\n{out.get('error', '')}")
        if probe:  # the first one warms the bytecode and page caches
            setups.append(out["setup_s"])
    iterations = []
    started = time.monotonic()
    while True:
        iterations.append(runner.spawn(
            *runner.child_spec("measure", stage=stage)))
        spent = time.monotonic() - started
        if spent * (len(iterations) + 1) / len(iterations) > seconds:
            break
    measured = list(iterations)
    if traced:
        iterations.append(runner.spawn(
            *runner.child_spec("measure", traced=True, stage=stage)))

    calib.append(calibrate())
    calib_s = statistics.mean(calib)

    golden = check.load_golden(workload, golden_path)
    attempted = failed = 0
    first = None
    problems = []
    for out in iterations:
        rows = out.get("rows")
        bad, why = check.failed_cells(workload, rows, golden, seed, first)
        if not bad and not WORKLOADS[workload]["staged"] \
                and out is iterations[0]:
            runner.publish_traces(Path(out["dirs"]["traces"]))
        attempted += len(golden)
        failed += bad
        problems.extend(why[:5])
        if out.get("error"):
            problems.append(out["error"][-2000:])
        if first is None and rows is not None:
            first = check.cells(workload, rows)
    setups.extend(out["setup_s"] for out in iterations
                  if "setup_s" in out)
    walls = [out["wall_s"] for out in measured if "wall_s" in out]
    if not walls:
        raise RuntimeError(f"no iteration finished: {problems}")
    diagnostics = {"workload": workload, "seed": seed,
                   "calib_s": calib,
                   "iterations": [out.get("wall_s") for out in
                                  iterations],
                   "setups": setups, "problems": problems[:20],
                   "seeded_drift": check.max_drift(golden, first or {})}
    if traced:
        spans = iterations[-1]
        layers = dict(spans.get("layers") or {})
        layers.update(model_metrics(workload, spans.get("rows")))
        layers["harness.calib_s"] = calib_s
        layers["harness.traced_wall_s"] = spans.get("wall_s", 0.0)
        layers["harness.trace_overhead_s"] = \
            spans.get("wall_s", 0.0) - statistics.median(walls)
        layers["harness.error_rate"] = failed / attempted
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median([out["cpu_s"]
                                        for out in measured]),
                      "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([out["peak_rss_mb"]
                                              for out in measured]),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    return {"diagnostics": diagnostics,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def golden_rows(workload: str, work: Path) -> list:
    """One iteration's rows under the golden seed, unchecked."""
    runner = Runner(workload, check.GOLDEN_SEED, work)
    stage = runner.prepared_inputs() \
        if WORKLOADS[workload]["staged"] else None
    out = runner.spawn(*runner.child_spec("measure", stage=stage))
    if "rows" not in out:
        raise RuntimeError(out.get("error", "no rows"))
    return out["rows"]


def model_metrics(workload: str, rows: Optional[list]) -> dict:
    """Simulated headline numbers; any simulator-speed change must
    leave them bit-identical.  Zero where the workload does not make
    the exhibit."""
    metrics = {"model.fig12.charon_geomean_x": 0.0,
               "model.fig12.hmc_geomean_x": 0.0,
               "model.fig12.charon_err_pct": 0.0,
               "model.fig15.charon_distributed_x16": 0.0}
    if not rows:
        return metrics
    if workload == "fig12-cold":
        geo = rows[-1]
        metrics["model.fig12.charon_geomean_x"] = geo["charon"]
        metrics["model.fig12.hmc_geomean_x"] = geo["cpu-hmc"]
        metrics["model.fig12.charon_err_pct"] = \
            100.0 * (geo["charon"] - 3.29) / 3.29
    elif workload == "fig15-warm":
        metrics["model.fig15.charon_distributed_x16"] = max(
            row["charon_distributed"] for row in rows
            if row["threads"] == 16)
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("events_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb") or name.endswith(".mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_x"):
        return "x"
    if name.endswith(("_ratio", "_efficiency", "_rate")):
        return "ratio"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=check.GOLDEN_PATH,
                        help="golden rows to check against")
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's rows as the golden "
                             "(seed 0 only; after a deliberate model "
                             "change)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    if args.write_golden and args.seed != check.GOLDEN_SEED:
        parser.error(f"the golden is for seed {check.GOLDEN_SEED}")
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    BUILD.mkdir(parents=True, exist_ok=True)
    work = BUILD / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir()
    try:
        if args.write_golden:
            check.write_golden(args.workload,
                               golden_rows(args.workload, work),
                               args.golden)
            return 0
        out = run(args.workload, args.seed, args.seconds,
                  bool(args.trace), work, args.golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out["diagnostics"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured process of the exhibit benchmark.

``python3 perfbench/child.py SPEC.json`` runs in a fresh interpreter
started by ``run.py`` with a pinned environment.  It stages its inputs,
marks the start of the timed region, runs one workload, marks the end
and writes ``SPEC["result"]``.  ``setup_s`` runs from the parent's spawn
timestamp (``time.monotonic`` is system-wide on Linux) to the start of
the timed region, so it includes interpreter start, imports and cache
staging.  Modes:

* ``prep``: capture the traces (and stage-1 products) that the warm
  workloads stage from; not measured;
* ``probe``: set up exactly like ``measure`` and stop at the start of
  the timed region;
* ``measure``: set up, run the workload, and with ``traced`` also
  report per-layer spans (see ``layers.py``).
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from pathlib import Path

TABLE3_WORKLOADS = ("spark-bs", "spark-km", "spark-lr", "graphchi-cc",
                   "graphchi-pr", "graphchi-als")
FIG15_WORKLOADS = ("spark-lr", "graphchi-cc")
FIG15_THREADS = (1, 2, 4, 8, 16)
SWEEP_PLATFORMS = ("cpu-ddr4", "cpu-hmc", "charon", "charon-cpuside",
                   "ideal")
SWEEP_THREADS = (1, 8)
SWEEP_PROCESSES = 2
#: Platforms whose replay fills every stage-1 product the sweep reads;
#: Charon only reads the per-trace primitive index they also build.
STAGE1_WARMERS = ("cpu-ddr4", "cpu-hmc", "ideal")


def fig12_cold(dirs: dict) -> list:
    from repro.experiments import figures
    return figures.figure12(TABLE3_WORKLOADS)


def fig15_warm(dirs: dict) -> list:
    from repro.experiments import figures
    return figures.figure15(FIG15_WORKLOADS, thread_counts=FIG15_THREADS)


def sweep_j2(dirs: dict) -> list:
    from repro.experiments import runner
    rows = []
    for threads in SWEEP_THREADS:
        grid = runner.replay_grid(
            SWEEP_PLATFORMS, TABLE3_WORKLOADS, threads=threads,
            processes=SWEEP_PROCESSES,
            journal=Path(dirs["journal"]) / f"t{threads}")
        rows.extend({"threads": threads, "platform": platform,
                     "workload": name,
                     "wall_s": grid[(platform, name)].wall_seconds}
                    for name in TABLE3_WORKLOADS
                    for platform in SWEEP_PLATFORMS)
    return rows


WORKLOADS = {"fig12-cold": fig12_cold, "fig15-warm": fig15_warm,
             "sweep-j2": sweep_j2}


def prep(spec: dict) -> None:
    """Capture the warm workloads' inputs into the trace and stage-1
    caches that ``REPRO_TRACE_CACHE``/``REPRO_STAGE1_CACHE`` name."""
    from repro.experiments import runner
    for name in TABLE3_WORKLOADS:
        runner.collect_run(name)
    for threads in SWEEP_THREADS:
        runner.replay_grid(STAGE1_WARMERS, TABLE3_WORKLOADS,
                           threads=threads)


def stage(spec: dict) -> None:
    """Copy the pre-captured caches into this process's own dirs."""
    for name in ("traces", "stage1"):
        target = Path(spec["dirs"][name])
        if name in spec["staged"]:
            shutil.copytree(Path(spec["stage"]) / name, target)
        else:
            target.mkdir(parents=True)


def _dir_mb(path: Path) -> float:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file()) / 2**20


def measure(spec: dict) -> dict:
    import numpy  # noqa: F401  (imports belong to set-up)
    # Imported before the pool forks, so workers count into the
    # parent's fork-shared cache tallies.
    from repro.experiments import (figures, runner,  # noqa: F401
                                   shm_store, stage1_cache, trace_cache,
                                   workers)
    spans = None
    stage(spec)
    if spec.get("traced"):
        import layers
        spans = layers.install()
    started = time.monotonic()
    out = {"setup_s": started - spec["spawned_at"]}
    if spec["mode"] == "probe":
        return out
    try:
        rows = WORKLOADS[spec["workload"]](spec["dirs"])
        out["wall_s"] = time.monotonic() - started
        out["rows"] = rows
    except Exception:  # report the failure as failed cells
        out["wall_s"] = time.monotonic() - started
        out["error"] = traceback.format_exc()
    if spans is not None:
        out["layers"] = layers.report(spans, out["wall_s"])
        out["layers"]["trace_cache.mb"] = _dir_mb(
            Path(spec["dirs"]["traces"]))
        out["layers"].update(layers.journal_metrics(
            Path(spec["dirs"]["journal"]),
            out["layers"]["runner.grid_s"], SWEEP_PROCESSES))
    workers.shutdown()
    shm_store.shutdown()
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    if spec["mode"] == "prep":
        prep(spec)
        return 0
    out = measure(spec)
    Path(spec["result"]).write_text(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())

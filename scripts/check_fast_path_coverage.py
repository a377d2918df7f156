#!/usr/bin/env python
"""CI guard: every timing platform must take the fast replay path.

Replays the bundled test traces — the TinySpark run plus the mixed
minor/major/sweep and G1 fixture traces — on every platform
configuration (the five named platforms plus ``charon --distributed``)
at each of the 1/2/4/8 GC-thread counts the paper sweeps through
``make_replayer``'s default fast mode, then fails if

* any replay result reports ``replay_kernel == "event"``, or a kernel
  other than the one ``kernel_for`` picks for that cell, or
* any Bitmap Count or marking-phase Scan&Push row reached the Charon
  kernel's scalar stage-1 planner (the ``replay.kernel_scalar_rows``
  metric; multi-page copy/search ranges are exempt).

The trace sets themselves are generated fresh at the top, which also
pins the *collect-side* fast path: the script fails if that generation
recorded zero fast heap-kernel calls, any ``heap.kernel_fallbacks``
demotion to scalar kernels, or any collector run that took the scalar
path outright (``heap.kernel_calls`` with ``kernel=scalar``) while the
default ``fast`` mode was in effect.  It also captures a reduced
GraphChi CC and PR run and fails if fewer than
:data:`MIN_BATCHED_ALLOC_SHARE` of their allocated objects came through
``MutatorDriver.allocate_batch`` (``heap.kernel_batch_items{op=alloc}``
over ``run.allocated_objects``): the per-object ``allocate`` path is
bit-identical, so a mutator loop that slides back onto it costs capture
time and nothing else would notice.

This pins the kernel matrix: a change that quietly moves a platform to
a slower kernel turns every trace sweep back into the bottleneck the
batched kernels removed, and nothing else would notice — the results
stay correct, just slow.  Exit status 0 on success.
Used by the CI ``fast-path-coverage`` job; runnable locally with
``python scripts/check_fast_path_coverage.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

PLATFORMS = ("ideal", "cpu-ddr4", "cpu-hmc", "charon",
             "charon-cpuside", "charon-distributed")
THREADS = (1, 2, 4, 8)
#: Least share of a reduced GraphChi capture's objects that must come
#: through allocate_batch (Records and Messages; measured 0.81-0.83).
MIN_BATCHED_ALLOC_SHARE = 0.70


def batched_alloc_share(workload) -> float:
    """Run ``workload``; the share of its objects allocated in batches."""
    from repro.obs.metrics import global_metrics

    def batched() -> float:
        return sum(sample["value"]
                   for sample in global_metrics().samples()
                   if sample["metric"] == "heap.kernel_batch_items"
                   and sample["labels"].get("op") == "alloc")

    before = batched()
    run = workload.run()
    return (batched() - before) / max(run.allocated_objects, 1)


def main() -> int:
    from repro.gcalgo.columnar import compile_traces
    from repro.obs.metrics import global_metrics
    from repro.platform.fast_replay import kernel_for, make_replayer

    from tests.conftest import (TinyGraph, TinyPageRank, TinySpark,
                                make_concurrent_traces, make_g1_traces,
                                make_mixed_run, platform_for)

    trace_sets = {
        "spark-bs": TinySpark().run().traces,
        "mixed": make_mixed_run().traces,
        "g1": make_g1_traces(),
        "concurrent": make_concurrent_traces(),
    }
    compiled_sets = {name: compile_traces(traces)
                     for name, traces in trace_sets.items()}
    failures = []

    # Collect-side guard: generating the trace sets above ran real
    # collectors under the default (fast) heap-kernel mode.
    fast_calls = 0.0
    heap_fallbacks = 0.0
    scalar_collects = []
    for sample in global_metrics().samples():
        metric = sample["metric"]
        if metric == "heap.kernel_calls":
            labels = sample["labels"]
            if labels.get("kernel") == "fast":
                fast_calls += sample["value"]
            elif labels.get("op") in ("minor", "major", "sweep", "g1",
                                      "concurrent"):
                scalar_collects.append(
                    f"{labels['op']} x{sample['value']:.0f}")
        elif metric == "heap.kernel_fallbacks":
            heap_fallbacks += sample["value"]
    if fast_calls == 0:
        failures.append("trace generation recorded zero fast "
                        "heap-kernel calls")
    if heap_fallbacks:
        failures.append(f"{heap_fallbacks:.0f} collector run(s) were "
                        f"silently demoted to scalar heap kernels")
    if scalar_collects:
        failures.append("collector runs took the scalar heap-kernel "
                        "path in fast mode: "
                        + ", ".join(scalar_collects))
    if not failures:
        print(f"collect-side kernels: {fast_calls:.0f} fast calls, "
              f"0 fallbacks, 0 scalar collector runs")
    for workload in (TinyGraph(), TinyPageRank()):
        share = batched_alloc_share(workload)
        if share < MIN_BATCHED_ALLOC_SHARE:
            failures.append(f"{workload.name} (reduced): only "
                            f"{share:.2f} of allocated objects came "
                            f"through allocate_batch (need "
                            f"{MIN_BATCHED_ALLOC_SHARE:.2f})")
        else:
            print(f"{workload.name} (reduced): {share:.2f} of objects "
                  f"allocated in batches")
    for name in PLATFORMS:
        for threads in THREADS:
            replayer = make_replayer(platform_for(name)[0],
                                     threads=threads)
            expected = kernel_for(platform_for(name)[0],
                                  replayer.threads).name
            for set_name, compiled in compiled_sets.items():
                result = replayer.replay_all(compiled)
                if result.replay_kernel in ("event", "mixed") \
                        or result.replay_kernel != expected:
                    failures.append(
                        f"{name} x{threads} on {set_name}: replay "
                        f"kernel was {result.replay_kernel!r}, "
                        f"expected {expected!r}")
                else:
                    print(f"{name:15s} x{threads} {set_name:8s} -> "
                          f"{result.replay_kernel}")

    # Stage-1 guard: the Charon kernel plans Bitmap Count and marking
    # Scan&Push rows as numpy columns; only multi-page ranges may take
    # its scalar planner.
    scalar_rows: dict = {}
    for sample in global_metrics().samples():
        if sample["metric"] == "replay.kernel_scalar_rows":
            row = sample["labels"]["row"]
            scalar_rows[row] = scalar_rows.get(row, 0) + sample["value"]
    if not scalar_rows:
        failures.append("no replay.kernel_scalar_rows samples: the "
                        "Charon stage-1 guard saw nothing")
    for row in ("bitmap_count", "mark_scan"):
        if scalar_rows.get(row):
            failures.append(f"{scalar_rows[row]:.0f} {row} row(s) "
                            f"reached the scalar stage-1 planner")
    if scalar_rows:
        print("charon stage-1 scalar rows: " + ", ".join(
            f"{row}={count:.0f}" for row, count
            in sorted(scalar_rows.items())))

    # Publish the verdict where live consumers see it: a gauge in the
    # registry (scraped by /metrics when a port is armed) and a typed
    # run-event record — a kernel-coverage regression then shows up on
    # the instrument panel, not only in the CI log.
    from repro.obs.eventlog import get_eventlog
    from repro.obs.tracer import install_env_exporters
    install_env_exporters()
    coverage = global_metrics().scope("coverage")
    coverage.gauge("fast_path_ok",
                   "1 when every platform took the fast replay "
                   "path").set(0.0 if failures else 1.0)
    coverage.gauge("fast_path_failures",
                   "fast-path coverage violations found").set(
                       len(failures))
    eventlog = get_eventlog()
    if eventlog.enabled:
        eventlog.emit("coverage_check", ok=not failures,
                      failures=len(failures),
                      platforms=len(PLATFORMS), threads=len(THREADS),
                      trace_sets=len(trace_sets),
                      detail=failures[:10])

    for failure in failures:
        print(f"fast-path coverage: {failure}", file=sys.stderr)
    if not failures:
        print(f"fast-path coverage: OK — {len(PLATFORMS)} platforms x "
              f"{len(THREADS)} thread counts x {len(trace_sets)} "
              f"trace sets, every cell on its fast kernel")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Adapters: pull existing counter sources into the metrics registry.

Each adapter mirrors an externally-owned statistics source —
the trace-cache tally, :class:`~repro.core.device.CharonDevice`
structures, :class:`~repro.mem.hmc.HMCSystem` traffic, and replay
:class:`~repro.platform.timing.GCTimingResult`\\ s — into labeled
gauges/counters of a :class:`~repro.obs.metrics.MetricsRegistry`, so
one snapshot carries everything a run measured.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import CharonDevice
    from repro.mem.hmc import HMCSystem
    from repro.platform.timing import GCTimingResult


def trace_cache_metrics(registry: MetricsRegistry) -> None:
    """Mirror the trace-cache tally (hits/misses/stale/stores/
    generated) into ``trace_cache.*`` gauges."""
    from repro.experiments.trace_cache import STATS

    scope = registry.scope("trace_cache")
    for name, value in STATS.snapshot().items():
        scope.gauge(name, "content-addressed trace cache "
                          "tally").set(value)


def stage1_cache_metrics(registry: MetricsRegistry) -> None:
    """Mirror the stage-1 product cache tally (hits/misses/stale/
    stores) into ``stage1_cache.*`` gauges."""
    from repro.experiments.stage1_cache import STATS

    scope = registry.scope("stage1_cache")
    for name, value in STATS.snapshot().items():
        scope.gauge(name, "content-addressed stage-1 product cache "
                          "tally").set(value)


def warm_sweep_metrics(registry: MetricsRegistry) -> None:
    """Mirror the warm-pool and shared-memory-store tallies into
    ``pool.*`` / ``shm.*`` gauges."""
    from repro.experiments import shm_store, workers

    scope = registry.scope("pool")
    for name, value in workers.pool_stats().items():
        scope.gauge(name, "warm worker pool tally").set(value)
    scope = registry.scope("shm")
    for name, value in shm_store.STATS.snapshot().items():
        scope.gauge(name, "shared-memory trace store tally").set(value)


def device_metrics(registry: MetricsRegistry,
                   device: "CharonDevice") -> None:
    """Mirror a Charon device's unit/TLB/bitmap-cache counters."""
    from repro.core.report import device_summary, unit_rows

    scope = registry.scope("charon")
    for name, value in device_summary(device).items():
        scope.gauge(name, "aggregate Charon device counter").set(
            float(value))
    for row in unit_rows(device):
        scope.gauge("unit_commands", "per-unit offload commands",
                    unit=row["unit"], cube=row["cube"]).set(
            float(row["commands"]))
        scope.gauge("unit_busy_us", "per-unit busy microseconds",
                    unit=row["unit"], cube=row["cube"]).set(
            float(row["busy_us"]))


def hmc_metrics(registry: MetricsRegistry, hmc: "HMCSystem") -> None:
    """Mirror HMC traffic/locality counters (Fig. 13's raw inputs)."""
    from repro.core.report import traffic_summary

    scope = registry.scope("hmc")
    for name, value in traffic_summary(hmc).items():
        scope.gauge(name, "HMC traffic counter").set(float(value))


def replay_kernel_metrics(registry: MetricsRegistry) -> None:
    """Mirror the process-wide ``replay.kernel*`` rows into ``registry``.

    The replay driver records which kernel ran (event, closed-form, or
    a batched kernel), its throughput, and its stage-1 scalar rows into
    the *global* registry; this copies those rows into a per-command
    snapshot so ``repro stats`` always shows which replay kernel
    produced its numbers.
    """
    from repro.obs.metrics import global_metrics

    for sample in global_metrics().samples():
        name = sample["metric"]
        if not name.startswith("replay.kernel"):
            continue
        labels = sample["labels"]
        if sample["kind"] == "counter":
            registry.counter(name, "mirrored replay-kernel counter",
                             **labels).add(sample["value"])
        elif sample["kind"] == "gauge":
            registry.gauge(name, "mirrored replay-kernel gauge",
                           **labels).set(sample["value"])


def heap_kernel_metrics(registry: MetricsRegistry) -> None:
    """Mirror the process-wide ``heap.kernel*`` rows into ``registry``.

    The functional-layer fast kernels count their calls, batch sizes,
    and scalar fallbacks in the *global* registry (see
    :mod:`repro.heap.fast_kernels`); this copies those rows into a
    per-command snapshot so ``repro stats`` shows which heap kernels
    produced the traces, mirroring ``replay.kernel_*``.
    """
    from repro.obs.metrics import global_metrics

    for sample in global_metrics().samples():
        name = sample["metric"]
        if not name.startswith("heap.kernel"):
            continue
        labels = sample["labels"]
        if sample["kind"] == "counter":
            registry.counter(name, "mirrored heap-kernel counter",
                             **labels).add(sample["value"])
        elif sample["kind"] == "gauge":
            registry.gauge(name, "mirrored heap-kernel gauge",
                           **labels).set(sample["value"])


def timing_metrics(registry: MetricsRegistry, result: "GCTimingResult",
                   workload: str) -> None:
    """Record one replay result as labeled ``replay.*`` metrics."""
    scope = registry.scope("replay")
    labels = {"platform": result.platform, "workload": workload}
    scope.counter("wall_seconds", "simulated GC pause seconds",
                  **labels).add(result.wall_seconds)
    scope.counter("residual_seconds", "non-offloadable host work",
                  **labels).add(result.residual_seconds)
    scope.counter("dram_bytes", "bytes moved during GC",
                  **labels).add(result.dram_bytes)
    scope.counter("energy_joules", "package energy of the replay",
                  **labels).add(result.energy.total_j)
    for primitive, seconds in result.primitive_seconds.items():
        scope.counter("primitive_seconds", "per-primitive work time",
                      primitive=primitive.value, **labels).add(seconds)

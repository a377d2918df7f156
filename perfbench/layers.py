"""Per-layer spans for the traced benchmark run.

The wrappers live here, in the benchmark, and are installed by
monkeypatching the public entry point of each layer from outside; the
program under test carries no benchmark spans.  Every timed call opens a
span; a span's *self* time is its duration minus the time of the timed
spans it encloses, so the self times of all layers plus the remainder
(``harness.unattributed_s``) add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

#: (module, attribute path, span name, layer).  The span name prefixes
#: the reported ``<name>_s``/``<name>_calls`` metrics; the layer groups
#: self time for the coverage check.
TIMED = (
    ("repro.workloads.registry", "run_workload", "workloads.capture",
     "workloads"),
    ("repro.gcalgo.parallel_scavenge", "MinorGC.collect", "gcalgo.minor",
     "gcalgo"),
    ("repro.gcalgo.mark_compact", "MajorGC.collect", "gcalgo.major",
     "gcalgo"),
    ("repro.gcalgo.mark_sweep", "MarkSweepGC.collect", "gcalgo.sweep",
     "gcalgo"),
    ("repro.gcalgo.columnar", "compile_traces", "gcalgo.compile",
     "gcalgo"),
    ("repro.experiments.trace_cache", "store_run", "trace_cache.store",
     "trace_cache"),
    ("repro.experiments.trace_cache", "load_run", "trace_cache.load",
     "trace_cache"),
    ("repro.platform.replay", "TraceReplayer.replay_all",
     "platform.replay", "platform"),
    ("repro.platform.factory", "build_platform", "platform.build",
     "platform"),
    ("repro.platform.batched", "DDR4BatchedKernel.begin",
     "platform.ddr4.stage1", "platform"),
    ("repro.platform.batched", "DDR4BatchedKernel.run_phase",
     "platform.ddr4.stage2", "platform"),
    ("repro.platform.batched", "HostHMCBatchedKernel.begin",
     "platform.hmc.stage1", "platform"),
    ("repro.platform.batched", "HostHMCBatchedKernel.run_phase",
     "platform.hmc.stage2", "platform"),
    ("repro.platform.batched", "CharonBatchedKernel.begin",
     "platform.charon.stage1", "platform"),
    ("repro.platform.batched", "CharonBatchedKernel.run_phase",
     "platform.charon.stage2", "platform"),
    ("repro.experiments.runner", "replay_grid", "runner.grid", "runner"),
    ("repro.experiments.runner", "collect_run", "runner.collect",
     "runner"),
    ("repro.experiments.runner", "replay_platform", "runner.replay",
     "runner"),
    ("repro.experiments.shm_store", "publish", "shm_store.publish",
     "shm_store"),
    ("repro.experiments.shard_journal", "store_shard",
     "shard_journal.store", "shard_journal"),
    ("repro.experiments.shard_journal", "load_shard",
     "shard_journal.load", "shard_journal"),
)

LAYERS = ("workloads", "gcalgo", "trace_cache", "platform", "runner",
          "shm_store", "shard_journal")

KERNELS = ("charon", "hmc", "ddr4")


class Spans:
    """Span bookkeeping for one process (the measured child)."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_time: Dict[str, float] = defaultdict(float)
        self.events: Counter = Counter()
        self.gc_count = 0
        self.allocate_calls = 0
        self._stack: List[float] = []   # child time per open span
        self._open: Counter = Counter()  # re-entrancy per span name

    def timed(self, name: str, layer: str, function):
        spans = self

        def wrapper(*args, **kwargs):
            spans._stack.append(0.0)
            spans._open[name] += 1
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = spans._stack.pop()
                spans._open[name] -= 1
                if spans._stack:
                    spans._stack[-1] += elapsed
                spans.self_time[layer] += elapsed - nested
                spans.calls[name] += 1
                if not spans._open[name]:  # outermost: inclusive time
                    spans.total[name] += elapsed
            spans._count(name, args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "workloads.capture":
            self.gc_count += len(result.traces)
        elif name == "gcalgo.compile":
            self.events["gcalgo.trace"] += sum(len(t) for t in result)
        elif name == "platform.replay":
            self.events["platform.replay"] += sum(
                len(trace) for trace in args[1])
        elif name.endswith(".stage1"):
            self.events[name] += len(args[1])

    def counted(self, function):
        spans = self

        def wrapper(*args, **kwargs):
            spans.allocate_calls += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


def _patch(owner, leaf: str, wrapper) -> None:
    """Replace ``owner.leaf`` and every module-level alias of it."""
    original = getattr(owner, leaf)
    setattr(owner, leaf, wrapper)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") \
                and vars(module).get(leaf) is original:
            setattr(module, leaf, wrapper)


def install() -> Spans:
    """Wrap every layer entry point in :data:`TIMED`; returns the
    :class:`Spans` that collects their timings."""
    spans = Spans()
    # Replay callers hold TraceReplayer subclasses; a subclass that
    # overrides replay_all would escape the base-class patch.
    from repro.platform.fast_replay import FastTraceReplayer
    if "replay_all" in vars(FastTraceReplayer):
        raise RuntimeError("FastTraceReplayer overrides replay_all; "
                           "extend perfbench/layers.py:TIMED")
    for module, path, name, layer in TIMED:
        owner, leaf = _resolve(module, path)
        _patch(owner, leaf, spans.timed(name, layer, getattr(owner, leaf)))
    owner, leaf = _resolve("repro.workloads.mutator",
                           "MutatorDriver.allocate")
    _patch(owner, leaf, spans.counted(getattr(owner, leaf)))
    return spans


def journal_metrics(journal: Path, grid_s: float,
                    workers: int) -> Dict[str, float]:
    """Worker-side numbers from the shard journal's execution meta.

    Wrapper counters stay in the pool workers, so a sweep's busy time
    comes from each shard's recorded ``meta.host_seconds``.
    """
    seconds = []
    for path in sorted(journal.rglob("*.shard.json")):
        meta = json.loads(path.read_text()).get("meta") or {}
        seconds.append(float(meta.get("host_seconds", 0.0)))
    busy = sum(seconds)
    return {
        "workers.busy_s": busy,
        "workers.critical_cell_s": max(seconds, default=0.0),
        "workers.parallel_efficiency":
            busy / (workers * grid_s) if grid_s > 0 else 0.0,
        "shard_journal.shards": float(len(seconds)),
    }


def report(spans: Spans, wall_s: float) -> Dict[str, float]:
    """The traced run's per-layer metrics (program-side half)."""
    from repro.experiments import stage1_cache, trace_cache

    def total(name: str) -> float:
        return spans.total.get(name, 0.0)

    metrics: Dict[str, float] = {
        "workloads.capture_s": total("workloads.capture"),
        "workloads.mutator_s": total("workloads.capture")
        - total("gcalgo.minor") - total("gcalgo.major")
        - total("gcalgo.sweep"),
        "workloads.allocate_calls": float(spans.allocate_calls),
        "workloads.gc_count": float(spans.gc_count),
        "gcalgo.trace_events": float(spans.events["gcalgo.trace"]),
        "gcalgo.compile_s": total("gcalgo.compile"),
        "trace_cache.store_s": total("trace_cache.store"),
        "trace_cache.load_s": total("trace_cache.load"),
        "platform.replay_s": total("platform.replay"),
        "platform.replay_events": float(spans.events["platform.replay"]),
        "platform.build_s": total("platform.build"),
        "runner.grid_s": total("runner.grid"),
        "runner.collect_s": total("runner.collect"),
        "shm_store.publish_s": total("shm_store.publish"),
        "shard_journal.io_s": total("shard_journal.store")
        + total("shard_journal.load"),
    }
    for kind in ("minor", "major", "sweep"):
        metrics[f"gcalgo.{kind}_s"] = total(f"gcalgo.{kind}")
        metrics[f"gcalgo.{kind}_calls"] = float(
            spans.calls[f"gcalgo.{kind}"])
    for kernel in KERNELS:
        stage1 = total(f"platform.{kernel}.stage1")
        stage2 = total(f"platform.{kernel}.stage2")
        events = spans.events[f"platform.{kernel}.stage1"]
        metrics[f"platform.{kernel}.stage1_s"] = stage1
        metrics[f"platform.{kernel}.stage2_s"] = stage2
        metrics[f"platform.{kernel}.events_per_s"] = \
            events / (stage1 + stage2) if stage1 + stage2 > 0 else 0.0
    cache = trace_cache.STATS.snapshot()
    metrics["trace_cache.hits"] = float(cache["hits"])
    metrics["trace_cache.misses"] = float(cache["misses"])
    stage1 = stage1_cache.STATS.snapshot()
    lookups = stage1["hits"] + stage1["misses"]
    metrics["stage1_cache.hits"] = float(stage1["hits"])
    metrics["stage1_cache.misses"] = float(stage1["misses"])
    metrics["stage1_cache.hit_ratio"] = \
        stage1["hits"] / lookups if lookups else 0.0
    # Every other layer's self time equals the sum of its metrics above;
    # the runner's is the orchestration no other layer claims.
    metrics["runner.self_s"] = spans.self_time.get("runner", 0.0)
    attributed = sum(spans.self_time.get(layer, 0.0) for layer in LAYERS)
    metrics["harness.unattributed_s"] = wall_s - attributed
    metrics["harness.coverage_pct"] = \
        100.0 * attributed / wall_s if wall_s > 0 else 0.0
    return metrics

"""The trace replayer: traces x platform -> timing/energy results.

Events execute on the configured number of GC threads.  Within each
phase, every event goes to the least-loaded thread (work stealing keeps
HotSpot's parallel collectors balanced, so the least-loaded assignment
is the right approximation); phase boundaries are barriers, and each
phase's residual (non-offloadable) host work is divided evenly across
threads at its barrier.  Resource contention couples the threads: every
memory stream reserves real bandwidth on the shared fluid resources, so
eight threads hammering two DDR4 channels saturate exactly as the paper
describes.

One driver, :meth:`TraceReplayer.replay`, walks every GC: the LLC
flush, the phase barriers, residual pricing (event phases in order,
then residual-only phases in insertion order), spans, metrics and the
``gc_pause`` record.  What an event phase costs is left to a *kernel*:

* ``name`` — reported as ``GCTimingResult.replay_kernel``;
* ``begin(trace)`` — per-GC preparation, after the counter snapshot;
* ``run_phase(lo, hi, now, acc) -> (barrier, busy)`` — replay events
  ``lo:hi`` on all threads from the barrier ``now``, adding each
  primitive's work seconds into ``acc``; returns the phase's barrier
  and the host seconds it kept busy;
* ``chunks_processed`` and ``scalar_rows`` — fed to the
  ``replay.kernel_*`` metrics.

:class:`EventKernel` steps the platform hooks event by event and is the
golden oracle; the fast kernels live in
:mod:`repro.platform.fast_replay` and :mod:`repro.platform.batched`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.gcalgo import columnar
from repro.gcalgo.columnar import CompiledTrace
from repro.gcalgo.trace import GCTrace, Primitive
from repro.obs.eventlog import COLLECTOR_FOR_KIND, get_eventlog
from repro.obs.tracer import get_tracer
from repro.platform.base import Platform
from repro.platform.timing import GCTimingResult, PlatformEnergy


class EventKernel:
    """Event-by-event replay through the platform hooks (the oracle).

    Consumes :class:`GCTrace` objects; a :class:`CompiledTrace` is
    decoded with :meth:`~CompiledTrace.to_trace`, never the reverse.
    """

    name = "event"
    chunks_processed = 0
    scalar_rows = None

    def __init__(self, platform: Platform, threads: int) -> None:
        self.platform = platform
        self.threads = threads
        # An offload blocks its host thread on the response; only the
        # dispatch instant burns host pipeline (none on ideal).
        self._dispatch = (0.0 if platform.name == "ideal" else
                          platform.config.costs.charon_dispatch_overhead_s)
        self._trace: Optional[GCTrace] = None

    def begin(self, trace: Union[GCTrace, CompiledTrace]) -> None:
        if isinstance(trace, CompiledTrace):
            trace = trace.to_trace()
        self._trace = trace

    def run_phase(self, lo: int, hi: int, now: float,
                  acc: Dict[Primitive, float]) -> Tuple[float, float]:
        platform = self.platform
        offloads = platform.offloads
        kind = self._trace.kind
        busy = 0.0
        # Least-loaded thread assignment via a heap of clocks; every
        # thread leaves the previous barrier at ``now``.
        heap = [(now, index) for index in range(self.threads)]
        for event in self._trace.events[lo:hi]:
            start, index = heappop(heap)
            finish = platform.offload_finish(start, event, kind)
            duration = finish - start
            acc[event.primitive] = acc.get(event.primitive, 0.0) \
                + duration
            busy += self._dispatch if offloads else duration
            heappush(heap, (finish, index))
        return max(clock for clock, _ in heap), busy


class TraceReplayer:
    """Replays successive GC traces on one platform instance.

    ``kernel`` builds the phase kernel from ``(platform, threads)``;
    the default is the event-by-event oracle.
    """

    def __init__(self, platform: Platform, threads: int = None,
                 kernel=EventKernel) -> None:
        self.platform = platform
        self.threads = (platform.config.gc_threads if threads is None
                        else threads)
        if self.threads < 1:
            raise ValueError("need at least one GC thread")
        cores = platform.config.host.num_cores
        if not platform.offloads:
            # Host-executed primitives need a core each; extra GC
            # threads beyond the core count cannot add parallelism.
            self.threads = min(self.threads, cores)
        # Residual work always runs on the host, core-bounded even when
        # many more threads sit blocked on offload responses.
        self._residual_threads = min(self.threads, cores)
        self.clock = 0.0  # global time; GCs replay back to back
        self.kernel = kernel(platform, self.threads)

    @property
    def kernel_name(self) -> str:
        """The replay kernel every result reports as ``replay_kernel``."""
        return self.kernel.name

    # -- public API --------------------------------------------------------

    def replay(self, trace: Union[GCTrace, CompiledTrace]
               ) -> GCTimingResult:
        """Replay one GC trace (object or compiled form); returns its
        timing result."""
        platform = self.platform
        kernel = self.kernel
        if not isinstance(kernel, EventKernel) \
                and not isinstance(trace, CompiledTrace):
            # The fast kernels price compiled columns.
            trace = columnar.compile_trace(trace)
        started = perf_counter()
        chunks_before = kernel.chunks_processed
        # One enabled check per GC keeps the disabled path at a single
        # attribute read; ``obs is None`` guards every span below.
        obs = get_tracer()
        if not obs.enabled:
            obs = None
        gc_start = self.clock
        work_start = platform.begin_gc(gc_start)
        flush_seconds = work_start - gc_start
        if obs is not None and flush_seconds > 0.0:
            obs.add_span("llc-flush", gc_start, flush_seconds,
                         cat="phase", args={"platform": platform.name})

        primitive_seconds: Dict[Primitive, float] = {}
        residual_seconds = 0.0
        host_busy = flush_seconds  # LLC flush occupies the host
        before = self._snapshot()
        # Kernel preparation (the batched kernels' stage 1) comes after
        # the snapshot, so its bulk accounting attributes to this GC.
        kernel.begin(trace)

        residual_threads = self._residual_threads
        residual_cost = platform.cost_model.residual_seconds
        now = work_start
        runs = trace.phase_runs()
        # Residual-only phases (e.g. summary) follow the event phases,
        # in the trace's insertion order.
        seen = {name for name, _, _ in runs}
        runs = runs + [(name, 0, 0) for name in trace.residuals
                       if name not in seen]
        for name, lo, hi in runs:
            phase_start = now
            if hi > lo:
                now, busy = kernel.run_phase(lo, hi, now,
                                             primitive_seconds)
                host_busy += busy
            # The phase's residual host work, split across threads.
            work = trace.residuals.get(name)
            if work is not None:
                share = residual_cost(now, work, residual_threads)
                residual_seconds += share * residual_threads
                host_busy += share * residual_threads
                now += share
            platform.phase_end(name)
            if obs is not None:
                obs.add_span(name, phase_start, now - phase_start,
                             cat="phase", args={"gc": trace.kind,
                                                "events": hi - lo})

        events = len(trace.events)
        if obs is not None:
            obs.add_span(f"{trace.kind} gc", gc_start, now - gc_start,
                         cat="gc",
                         args={"platform": platform.name,
                               "events": events})
        self.clock = now
        result = self._package(trace.kind, gc_start, now, flush_seconds,
                               primitive_seconds, residual_seconds,
                               host_busy, before)
        host_seconds = perf_counter() - started
        self._note_replay(events, host_seconds,
                          kernel.chunks_processed - chunks_before,
                          kernel.scalar_rows)
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit(
                "gc_pause",
                collector=COLLECTOR_FOR_KIND.get(trace.kind, trace.kind),
                kind=trace.kind, platform=platform.name,
                sim_ns=int((now - gc_start) * 1e9),
                host_ns=int(host_seconds * 1e9),
                events=events)
        return result

    def replay_all(self, traces: Iterable[Union[GCTrace, CompiledTrace]]
                   ) -> GCTimingResult:
        """Replay a run's GC events back to back; returns the combined
        result."""
        results = [self.replay(trace) for trace in traces]
        return GCTimingResult.combine(results)

    # -- internals -----------------------------------------------------------

    def _note_replay(self, events: int, elapsed: float, chunks: int,
                     scalar_rows: Optional[Dict[str, int]]) -> None:
        """Record which kernel replayed how much, and how fast.

        Feeds the ``replay.kernel_*`` metrics ``repro stats`` reports,
        so a run always shows which kernel actually ran (and the CI
        fast-path-coverage check can fail on stage-1 rows that reached
        the scalar planner).
        """
        from repro.obs.metrics import global_metrics

        scope = global_metrics().scope("replay")
        labels = {"kernel": self.kernel_name,
                  "platform": self.platform.name}
        scope.counter("kernel_events",
                      "events replayed through this kernel",
                      **labels).add(events)
        scope.counter("kernel_seconds",
                      "host wall-clock seconds spent replaying",
                      **labels).add(elapsed)
        if chunks:
            scope.counter("kernel_chunks",
                          "stage-2 chunks the batched kernels consumed",
                          **labels).add(chunks)
        for row, count in (scalar_rows or {}).items():
            scope.counter("kernel_scalar_rows",
                          "stage-1 rows planned by the scalar planner",
                          row=row, **labels).add(count)
        if elapsed > 0:
            scope.gauge("kernel_events_per_sec",
                        "replay throughput of the last GC",
                        **labels).set(events / elapsed)

    def _snapshot(self) -> Tuple:
        """Platform counter snapshot taken at GC start."""
        platform = self.platform
        return (platform.charon_busy_seconds(),
                platform.bitmap_cache_counters(),
                platform.memory_snapshot(),
                platform.traffic_detail())

    def _package(self, gc_kind: str, gc_start: float, now: float,
                 flush_seconds: float,
                 primitive_seconds: Dict[Primitive, float],
                 residual_seconds: float, host_busy: float,
                 before: Tuple) -> GCTimingResult:
        """Assemble the timing result from counter deltas."""
        platform = self.platform
        charon_busy_before, (bc_hits_before, bc_accesses_before), \
            (bytes_before, energy_before), traffic_before = before
        wall = now - gc_start
        bytes_after, energy_after = platform.memory_snapshot()
        result = GCTimingResult(
            platform=platform.name,
            gc_kind=gc_kind,
            wall_seconds=wall,
            primitive_seconds=primitive_seconds,
            residual_seconds=residual_seconds,
            flush_seconds=flush_seconds,
            dram_bytes=bytes_after - bytes_before,
        )
        traffic_after = platform.traffic_detail()
        if traffic_after:
            result.link_bytes = int(traffic_after["link_bytes"]
                                    - traffic_before.get("link_bytes", 0))
            result.tsv_bytes = int(traffic_after["tsv_bytes"]
                                   - traffic_before.get("tsv_bytes", 0))
            result.local_fraction = traffic_after["local_fraction"]
        bc_hits, bc_accesses = platform.bitmap_cache_counters()
        result.bitmap_cache_hits = bc_hits - bc_hits_before
        result.bitmap_cache_accesses = bc_accesses - bc_accesses_before
        result.energy = self._energy(
            wall, host_busy, energy_after - energy_before,
            platform.charon_busy_seconds() - charon_busy_before)
        result.replay_kernel = self.kernel_name
        return result

    def _energy(self, wall: float, host_busy: float, memory_j: float,
                charon_busy: float) -> PlatformEnergy:
        """Package-level energy model.

        Host: during a stop-the-world collection every GC thread
        occupies a core for the whole pause — working, spinning in the
        termination protocol, or busy-waiting on a blocked offload (the
        Sec. 4.1 intrinsic blocks the calling thread) — so the package
        draws near-active power for ``min(threads, cores)`` cores
        regardless of platform.  This is why Charon's energy saving
        (Fig. 17) tracks its speedup sublinearly.  Charon: per-unit
        active power for unit-busy-seconds plus a small static floor.
        Memory: the pJ/bit accounting done by the resources.
        """
        costs = self.platform.config.costs
        cores = self.platform.config.host.num_cores
        active_threads = min(self.threads, cores)
        host_power = costs.host_idle_power_w \
            + (costs.host_active_power_w - costs.host_idle_power_w) \
            * active_threads / cores
        host_j = host_power * wall
        charon_j = 0.0
        if self.platform.device is not None:
            charon_j = (costs.charon_unit_active_power_w * charon_busy
                        + costs.charon_static_power_w * wall)
        return PlatformEnergy(host_j=host_j, memory_j=memory_j,
                              charon_j=charon_j)

"""Vectorized fast-path trace replay.

The event-by-event :class:`~repro.platform.replay.TraceReplayer` walks
every :class:`~repro.gcalgo.trace.TraceEvent` through Python attribute
dispatch; for large traces the *timing layer* dominates experiment
runtime.  :class:`FastTraceReplayer` costs a whole
:class:`~repro.gcalgo.columnar.CompiledTrace` through one of two kernel
families instead, selected by the platform's own eligibility answer
(:meth:`~repro.platform.base.Platform.fast_replay_support`):

* **closed-form** (``ideal``; ``cpu-ddr4`` with one GC thread) — every
  event's duration is a pure function of the event, so the whole trace
  prices in a handful of numpy array operations;
* **batched-stateful** (multi-threaded ``cpu-ddr4``, ``cpu-hmc``,
  ``charon`` — unified or ``--distributed`` — and
  ``charon-cpuside``) — costs are order-dependent through shared
  state, so a two-stage kernel from :mod:`repro.platform.batched`
  precomputes all pure per-event work in bulk and replays only the
  stateful recurrence (thread clocks, FIFO horizons, unit queues,
  per-slice TLB/bitmap-cache ports and tags) in a tight loop;
* **refuse** (only the abstract base platform) — no equivalent kernel
  exists and :class:`FastReplayUnsupported` is raised;
  :func:`make_replayer` falls back to event-by-event replay in
  ``auto`` mode.

Equivalence contract (what the golden tests in
``tests/test_fast_replay_equivalence.py`` assert): integer counters
(DRAM/link/TSV bytes, bitmap-cache hits/accesses) are *exactly* equal —
they are pure integer functions of the events — while float quantities
(wall, per-primitive seconds, energy) agree to 1e-9 relative tolerance,
absorbing the summation-order difference between per-event and bulk
accounting (~n*eps).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.errors import ConfigError
from repro.gcalgo.columnar import (CODE_TO_PRIMITIVE, CompiledTrace,
                                   compile_trace)
from repro.gcalgo.trace import GCTrace, Primitive
from repro.obs.eventlog import COLLECTOR_FOR_KIND, get_eventlog
from repro.obs.tracer import get_tracer
from repro.platform.base import (FAST_BATCHED, FAST_CLOSED_FORM,
                                 FAST_REFUSE, Platform)
from repro.platform.batched import (FastReplayUnsupported,
                                    batched_kernel_for,
                                    host_event_columns)
from repro.platform.replay import TraceReplayer, perf_counter
from repro.platform.timing import GCTimingResult

__all__ = ["FastReplayUnsupported", "FastTraceReplayer",
           "make_replayer"]


class FastTraceReplayer(TraceReplayer):
    """Batched replay for platforms that declare an equivalent kernel.

    Accepts :class:`GCTrace` or :class:`CompiledTrace` inputs (objects
    are compiled on the fly; feed compiled traces to skip that cost).
    Residual (non-offloadable) phase work still goes through the real
    :meth:`HostCostModel.residual_seconds` scalar path in phase order,
    so its resource accounting — and on HMC-backed platforms its
    stateful cube round-robin — evolves identically to the event-by-
    event replayer.
    """

    def __init__(self, platform: Platform,
                 threads: Optional[int] = None) -> None:
        super().__init__(platform, threads=threads)
        level, why = platform.fast_replay_support(self.threads)
        if level == FAST_REFUSE:
            raise FastReplayUnsupported(f"{platform.name}: {why}")
        if level == FAST_CLOSED_FORM:
            self._kernel = _kernel_for(platform)
            self._batched = None
            self.kernel_name = "closed-form"
        elif level == FAST_BATCHED:
            self._kernel = None
            self._batched = batched_kernel_for(platform, self.threads)
            self.kernel_name = self._batched.name
        else:  # pragma: no cover - platforms only return the three
            raise ConfigError(f"unknown fast-replay level {level!r}")

    def replay(self, trace: Union[GCTrace, CompiledTrace]
               ) -> GCTimingResult:
        compiled = (trace if isinstance(trace, CompiledTrace)
                    else compile_trace(trace))
        if self._batched is not None:
            return self._replay_batched(compiled)
        return self._replay_closed_form(compiled)

    # -- batched-stateful path ---------------------------------------------

    def _replay_batched(self, compiled: CompiledTrace) -> GCTimingResult:
        platform = self.platform
        kernel = self._batched
        started = perf_counter()
        chunks_before = kernel.chunks_processed
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
        host_busy = flush_seconds
        before = self._snapshot()
        # Stage 1: plans and bulk accounting for the whole trace (after
        # the snapshot so counter deltas attribute to this GC).
        kernel.begin(compiled)

        now = work_start
        runs = compiled.phase_runs()
        for name, lo, hi in runs:
            phase_start = now
            barrier, busy = kernel.run_phase(lo, hi, now,
                                             primitive_seconds)
            host_busy += busy
            now = barrier
            work = compiled.residuals.get(name)
            if work is not None:
                share = platform.cost_model.residual_seconds(
                    now, work, self._residual_threads)
                residual_seconds += share * self._residual_threads
                host_busy += share * self._residual_threads
                now += share
            platform.phase_end(name)
            if obs is not None:
                obs.add_span(name, phase_start, now - phase_start,
                             cat="phase", args={"gc": compiled.kind,
                                                "events": hi - lo})

        # Residual-only phases that had no events (e.g. summary), in
        # the trace's insertion order — same as the event-by-event path.
        seen = {name for name, _, _ in runs}
        for name, work in compiled.residuals.items():
            if name in seen:
                continue
            share = platform.cost_model.residual_seconds(
                now, work, self._residual_threads)
            residual_seconds += share * self._residual_threads
            host_busy += share * self._residual_threads
            if obs is not None:
                obs.add_span(name, now, share, cat="phase",
                             args={"gc": compiled.kind, "events": 0})
            now += share
            platform.phase_end(name)

        if obs is not None:
            obs.add_span(f"{compiled.kind} gc", gc_start, now - gc_start,
                         cat="gc",
                         args={"platform": platform.name,
                               "events": len(compiled.events)})
        self.clock = now
        result = self._package(compiled.kind, gc_start, now,
                               flush_seconds, primitive_seconds,
                               residual_seconds, host_busy, before)
        host_seconds = perf_counter() - started
        self._note_replay(len(compiled.events), host_seconds,
                          chunks=kernel.chunks_processed - chunks_before,
                          scalar_rows=getattr(kernel, "scalar_rows",
                                              None))
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit(
                "gc_pause",
                collector=COLLECTOR_FOR_KIND.get(compiled.kind,
                                                 compiled.kind),
                kind=compiled.kind, platform=platform.name,
                sim_ns=int((now - gc_start) * 1e9),
                host_ns=int(host_seconds * 1e9),
                events=len(compiled.events))
        return result

    # -- closed-form path ----------------------------------------------------

    def _replay_closed_form(self, compiled: CompiledTrace
                            ) -> GCTimingResult:
        platform = self.platform
        started = perf_counter()
        # Single enabled check per GC; the vectorized hot path below
        # only pays an ``is None`` test per *phase*, not per event.
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
        host_busy = flush_seconds
        before = self._snapshot()

        durations = self._kernel.charge(compiled)
        prim = compiled.events["prim"]
        now = work_start
        runs = compiled.phase_runs()
        for name, lo, hi in runs:
            phase_start = now
            seg = durations[lo:hi]
            # Phase makespan: one thread runs the events back to back;
            # with several threads only the zero-duration ideal kernel
            # is eligible, where any assignment has a zero makespan.
            span = float(seg.sum()) if self.threads == 1 else 0.0
            codes = prim[lo:hi]
            for code in np.unique(codes):
                key = CODE_TO_PRIMITIVE[int(code)]
                primitive_seconds[key] = primitive_seconds.get(key, 0.0) \
                    + float(seg[codes == code].sum())
            if not platform.offloads:
                host_busy += span
            now += span
            work = compiled.residuals.get(name)
            if work is not None:
                share = platform.cost_model.residual_seconds(
                    now, work, self._residual_threads)
                residual_seconds += share * self._residual_threads
                host_busy += share * self._residual_threads
                now += share
            platform.phase_end(name)
            if obs is not None:
                obs.add_span(name, phase_start, now - phase_start,
                             cat="phase", args={"gc": compiled.kind,
                                                "events": hi - lo})

        # Residual-only phases that had no events (e.g. summary), in
        # the trace's insertion order — same as the event-by-event path.
        seen = {name for name, _, _ in runs}
        for name, work in compiled.residuals.items():
            if name in seen:
                continue
            share = platform.cost_model.residual_seconds(
                now, work, self._residual_threads)
            residual_seconds += share * self._residual_threads
            host_busy += share * self._residual_threads
            if obs is not None:
                obs.add_span(name, now, share, cat="phase",
                             args={"gc": compiled.kind, "events": 0})
            now += share
            platform.phase_end(name)

        if obs is not None:
            obs.add_span(f"{compiled.kind} gc", gc_start, now - gc_start,
                         cat="gc",
                         args={"platform": platform.name,
                               "events": len(compiled.events)})
        self.clock = now
        result = self._package(compiled.kind, gc_start, now,
                               flush_seconds, primitive_seconds,
                               residual_seconds, host_busy, before)
        host_seconds = perf_counter() - started
        self._note_replay(len(compiled.events), host_seconds)
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit(
                "gc_pause",
                collector=COLLECTOR_FOR_KIND.get(compiled.kind,
                                                 compiled.kind),
                kind=compiled.kind, platform=platform.name,
                sim_ns=int((now - gc_start) * 1e9),
                host_ns=int(host_seconds * 1e9),
                events=len(compiled.events))
        return result


def make_replayer(platform: Platform, threads: Optional[int] = None,
                  mode: str = "auto") -> TraceReplayer:
    """Build the right replayer for ``platform``.

    ``mode`` is ``"auto"`` (fast path where the platform supports it,
    event-by-event otherwise), ``"fast"`` (require the fast path; raise
    :class:`FastReplayUnsupported` where it would not be equivalent) or
    ``"event"`` (force the event-by-event replayer).
    """
    if mode == "event":
        return TraceReplayer(platform, threads=threads)
    if mode not in ("auto", "fast"):
        raise ConfigError(f"unknown replay mode {mode!r}; "
                          f"expected auto, fast or event")
    try:
        return FastTraceReplayer(platform, threads=threads)
    except FastReplayUnsupported:
        if mode == "fast":
            raise
        # Auto-mode fallbacks are recorded so a silently event-by-event
        # experiment is visible in `repro stats` (and fails the CI
        # fast-path-coverage check when it should not happen).
        from repro.obs.metrics import global_metrics
        global_metrics().scope("replay").counter(
            "kernel_fallbacks",
            "auto-mode fallbacks to event-by-event replay",
            platform=platform.name).add(1)
        eventlog = get_eventlog()
        if eventlog.enabled:
            eventlog.emit("fallback", platform=platform.name,
                          to="event")
        return TraceReplayer(platform, threads=threads)


# -- closed-form kernels ----------------------------------------------------

def _kernel_for(platform: Platform):
    if platform.name == "ideal":
        return _ZeroKernel()
    if platform.name == "cpu-ddr4":
        return _DDR4Kernel(platform)
    # A platform that newly claims closed-form support must also get a
    # kernel here; fail loudly rather than misprice its events.
    raise FastReplayUnsupported(
        f"{platform.name}: no closed-form kernel implements this "
        f"platform")


class _ZeroKernel:
    """The ideal platform: offloaded primitives take zero cycles and
    generate no memory traffic."""

    def charge(self, compiled: CompiledTrace) -> np.ndarray:
        return np.zeros(len(compiled.events), dtype=np.float64)


class _DDR4Kernel:
    """Closed-form single-thread DDR4 event costs.

    Replicates ``HostCostModel._roofline`` composed with
    ``DDR4System.stream`` under the no-queue invariant (see
    :meth:`CpuDDR4Platform.fast_replay_support`), keeping the same
    IEEE-754 operation order as the scalar code wherever the arithmetic
    is per-event, so the batched durations match the sequential ones to
    the last bit *before* the clock summation.

    ``charge`` also performs the event stream's byte/energy accounting
    against the real channel resources in bulk.  The FIFO horizons
    (``busy_until``/``small_busy_until``) are deliberately left
    untouched: under the no-queue invariant every horizon the scalar
    path would have written is at or below the thread clock at every
    later reservation, so ``max(now, horizon)`` resolves to ``now``
    with or without them.
    """

    def __init__(self, platform: Platform) -> None:
        core = platform.host.core
        costs = platform.config.costs
        ddr4 = platform.ddr4
        self.costs = costs
        self.channels = ddr4.channels
        self.n_ch = len(ddr4.channels)
        channel = ddr4.channels[0]
        self.ch_rate = channel.rate
        self.ch_latency = channel.latency  # == ResourcePath.latency here
        self.ipc_hz = core.config.gc_ipc * core.config.freq_hz
        self.hit_lat = costs.cache_hit_latency_s
        self.ch_mlp = max(1.0, core.mlp / self.n_ch)

    def charge(self, compiled: CompiledTrace) -> np.ndarray:
        compute, miss, dep, _priority = host_event_columns(
            compiled, self.costs, self.ipc_hz, self.hit_lat)

        # DDR4System.stream: each channel serves round(miss / channels)
        # bytes; int(round()) is round-half-to-even, i.e. np.rint.
        share = miss.astype(np.float64) / self.n_ch
        r = np.rint(share)
        r_i = r.astype(np.int64)
        service = r / self.ch_rate
        n_req = np.ceil(r / 64)
        lat_rel = self.ch_latency * dep \
            + (n_req - 1.0) * (self.ch_latency / self.ch_mlp)
        mem_rel = np.where(r_i > 0, np.maximum(service, lat_rel),
                           self.ch_latency * dep)
        durations = np.where(miss > 0, np.maximum(compute, mem_rel),
                             compute)

        # Bulk byte/energy accounting: ResourcePath.stream reserves the
        # per-channel share on every channel once per event with a
        # positive rounded share (a zero share returns before reserving).
        served = r_i > 0
        if served.any():
            total_bytes = int(r_i[served].sum())
            requests = int(served.sum())
            for channel in self.channels:
                channel.account_bulk(total_bytes, requests)
        return durations

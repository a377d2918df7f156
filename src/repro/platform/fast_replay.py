"""Vectorized fast-path trace replay.

The event kernel of :class:`~repro.platform.replay.TraceReplayer` walks
every :class:`~repro.gcalgo.trace.TraceEvent` through Python attribute
dispatch; for large traces the *timing layer* dominates experiment
runtime.  :class:`FastTraceReplayer` drives the same per-GC loop over a
kernel that costs a whole :class:`~repro.gcalgo.columnar.CompiledTrace`
instead, chosen by :func:`kernel_for` from the platform and thread
count: a **closed-form** kernel (below) where every event's duration is
a pure function of the event, so the whole trace prices in a handful of
numpy array operations, and a two-stage **batched** kernel from
:mod:`repro.platform.batched` where costs are order-dependent through
shared state (thread clocks, FIFO horizons, unit queues, per-slice
TLB/bitmap-cache ports and tags).

Equivalence contract (what the golden tests in
``tests/test_fast_replay_equivalence.py`` assert): integer counters
(DRAM/link/TSV bytes, bitmap-cache hits/accesses) are *exactly* equal —
they are pure integer functions of the events — while float quantities
(wall, per-primitive seconds, energy) agree to 1e-9 relative tolerance,
absorbing the summation-order difference between per-event and bulk
accounting (~n*eps).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.gcalgo.columnar import (CODE_TO_PRIMITIVE, CompiledTrace,
                                   check_primitive_codes)
from repro.gcalgo.trace import Primitive
from repro.platform.base import Platform
from repro.platform.batched import (CharonBatchedKernel,
                                    DDR4BatchedKernel,
                                    HostHMCBatchedKernel,
                                    host_event_columns)
from repro.platform.replay import TraceReplayer

__all__ = ["FastTraceReplayer", "kernel_for", "make_replayer"]


class FastTraceReplayer(TraceReplayer):
    """The replay driver over the platform's fast kernel.

    Accepts :class:`GCTrace` or :class:`CompiledTrace` inputs (objects
    are compiled on the fly; feed compiled traces to skip that cost).
    """

    def __init__(self, platform: Platform,
                 threads: Optional[int] = None) -> None:
        super().__init__(platform, threads=threads, kernel=kernel_for)


def make_replayer(platform: Platform, threads: Optional[int] = None,
                  mode: str = "fast") -> TraceReplayer:
    """The replayer for ``mode``: ``"fast"`` (the platform's fast
    kernel) or ``"event"`` (the event-by-event oracle)."""
    try:
        replayer = {"fast": FastTraceReplayer, "event": TraceReplayer}[mode]
    except KeyError:
        raise ConfigError(f"unknown replay mode {mode!r}; "
                          f"expected fast or event") from None
    return replayer(platform, threads=threads)


def kernel_for(platform: Platform, threads: int):
    """The fast kernel replaying ``platform`` with ``threads`` GC threads.

    ``ideal`` is closed-form at any thread count: its zero-cost offloads
    touch no memory resource.  ``cpu-ddr4`` is closed-form with one GC
    thread: the thread's clock is always >= every channel-FIFO horizon
    it has reserved (each event finishes no earlier than its own
    bandwidth reservation), so ``max(now, busy_until)`` degenerates to
    ``now`` and every duration is a function of the event alone.  Two
    or more threads genuinely contend on the channel FIFOs, so they
    batch: only the horizon recurrence and the thread clocks replay in
    order.  ``cpu-hmc`` batches even with one thread (an event's range
    splits into per-cube runs queueing on shared serial-link FIFOs, and
    anonymous residual traffic round-robins a cube cursor), as do the
    Charon platforms (unit, link and bitmap-cache state; distributed
    slices resolve to per-slice port horizons and tag arrays).
    """
    name = platform.name
    if name == "ideal":
        return _ZeroKernel(platform, threads)
    if name == "cpu-ddr4":
        if threads == 1:
            return _DDR4Kernel(platform, threads)
        return DDR4BatchedKernel(platform, threads)
    if name == "cpu-hmc":
        return HostHMCBatchedKernel(platform, threads)
    if name in ("charon", "charon-cpuside"):
        return CharonBatchedKernel(platform, threads)
    raise ConfigError(f"no replay kernel models platform {name!r}")


# -- closed-form kernels ----------------------------------------------------

class _ClosedFormKernel:
    """Prices every event in ``charge``; a phase's span is the sum
    of its durations on one thread (with several threads only the
    zero-duration ideal kernel is chosen, where any assignment has a
    zero makespan)."""

    name = "closed-form"
    chunks_processed = 0
    scalar_rows = None

    def __init__(self, platform: Platform, threads: int) -> None:
        self.threads = threads
        self.host_executed = not platform.offloads
        self._durations = self._prim = None

    def begin(self, compiled: CompiledTrace) -> None:
        check_primitive_codes(compiled.events["prim"], "compiled trace")
        self._durations = self.charge(compiled)
        self._prim = compiled.events["prim"]

    def run_phase(self, lo: int, hi: int, now: float,
                  acc: Dict[Primitive, float]) -> Tuple[float, float]:
        seg = self._durations[lo:hi]
        span = float(seg.sum()) if self.threads == 1 else 0.0
        codes = self._prim[lo:hi]
        for code in np.unique(codes):
            key = CODE_TO_PRIMITIVE[int(code)]
            acc[key] = acc.get(key, 0.0) + float(seg[codes == code].sum())
        return now + span, (span if self.host_executed else 0.0)


class _ZeroKernel(_ClosedFormKernel):
    """The ideal platform: offloaded primitives take zero cycles and
    generate no memory traffic."""

    def charge(self, compiled: CompiledTrace) -> np.ndarray:
        return np.zeros(len(compiled.events), dtype=np.float64)


class _DDR4Kernel(_ClosedFormKernel):
    """Closed-form single-thread DDR4 event costs.

    Replicates ``HostCostModel._roofline`` composed with
    ``DDR4System.stream`` under the no-queue invariant (see
    :func:`kernel_for`), keeping the same IEEE-754 operation order as
    the scalar code wherever the arithmetic is per-event, so the batched
    durations match the sequential ones to the last bit *before* the
    clock summation.

    ``charge`` also performs the event stream's byte/energy accounting
    against the real channel resources in bulk.  The FIFO horizons
    (``busy_until``/``small_busy_until``) are deliberately left
    untouched: under the no-queue invariant every horizon the scalar
    path would have written is at or below the thread clock at every
    later reservation, so ``max(now, horizon)`` resolves to ``now``
    with or without them.
    """

    def __init__(self, platform: Platform, threads: int) -> None:
        super().__init__(platform, threads)
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

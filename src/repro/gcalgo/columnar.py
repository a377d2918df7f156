"""Columnar (compiled) GC traces: event streams as numpy arrays.

The per-event :class:`~repro.gcalgo.trace.TraceEvent` objects are the
right recording interface for the collectors, but replaying hundreds of
thousands of them through Python attribute dispatch makes the *timing
layer* the bottleneck of every experiment.  A :class:`CompiledTrace`
holds the same information column-wise in one structured numpy array,
so the vectorized fast path (:mod:`repro.platform.fast_replay`) can
cost a whole phase in a handful of array operations, and the binary
codec (:mod:`repro.gcalgo.trace_io`) can write it to disk without
touching individual events.

The compilation is lossless: ``compile_trace(t).to_trace()`` reproduces
every event field, residual and stats counter of ``t`` exactly.  Events
keep their recording order; phase structure is recovered as *runs* of
consecutive events with the same phase id, matching the event-by-event
replayer's segmentation.

:data:`TRACE_SCHEMA_VERSION` names this layout.  Bump it whenever the
event dtype, the phase/residual encoding, or the collectors' recording
semantics change — the binary codec and the content-addressed trace
cache both key on it, so stale artifacts are regenerated instead of
silently misreplayed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.gcalgo.trace import (GCTrace, Primitive, PRIMITIVE_TYPE_CODES,
                                ResidualWork, TraceEvent)

#: Version of the columnar layout *and* of what the collectors record.
#: Cache entries and binary trace files carrying a different version are
#: rejected loudly and regenerated.
TRACE_SCHEMA_VERSION = 1

#: Primitive decoding (the packet type codes double as column codes).
CODE_TO_PRIMITIVE: Dict[int, Primitive] = {
    code: primitive for primitive, code in PRIMITIVE_TYPE_CODES.items()
}

_KNOWN_CODES = np.array(sorted(CODE_TO_PRIMITIVE), dtype=np.uint8)


def check_primitive_codes(prim: np.ndarray, source: str) -> None:
    """Raise :class:`ConfigError` naming the first code in the ``prim``
    column that decodes to no primitive."""
    unknown = prim[~np.isin(prim, _KNOWN_CODES)]
    if len(unknown):
        raise ConfigError(f"{source}: unknown primitive code "
                          f"{int(unknown[0])}")


#: ``bits_cached`` is Optional in the object form; the column encodes
#: "no cache hit" as -1 (real values are bit counts, never negative).
NO_BITS_CACHED = -1

EVENT_DTYPE = np.dtype([
    ("prim", np.uint8),        # PRIMITIVE_TYPE_CODES value
    ("phase", np.uint16),      # index into CompiledTrace.phase_names
    ("src", np.int64),
    ("dst", np.int64),
    ("size_bytes", np.int64),
    ("refs", np.int64),
    ("pushes", np.int64),
    ("bits", np.int64),
    ("bits_cached", np.int64),  # NO_BITS_CACHED encodes None
    ("found", np.uint8),
])

#: Run-stats counters shared between GCTrace and CompiledTrace.
STAT_FIELDS = ("objects_visited", "objects_copied", "bytes_copied",
               "objects_promoted", "bytes_freed")


class CompiledTrace:
    """One GC collection in columnar form.

    Attributes mirror :class:`~repro.gcalgo.trace.GCTrace` where the
    names overlap (``kind``, ``heap_bytes``, ``residuals``, the stats
    counters); ``events`` is a structured array of :data:`EVENT_DTYPE`
    and ``phase_names`` interns the phase strings the ``phase`` column
    indexes into.
    """

    def __init__(self, kind: str, heap_bytes: int,
                 events: np.ndarray,
                 phase_names: Sequence[str],
                 residuals: Optional[Dict[str, ResidualWork]] = None,
                 **stats: int) -> None:
        if kind not in ("minor", "major", "sweep", "g1", "concurrent"):
            raise ValueError(f"unknown GC kind {kind!r}")
        if events.dtype != EVENT_DTYPE:
            raise ConfigError(
                f"compiled trace events have dtype {events.dtype}, "
                f"expected the schema-v{TRACE_SCHEMA_VERSION} layout")
        self.kind = kind
        self.heap_bytes = heap_bytes
        self.events = events
        self.phase_names: Tuple[str, ...] = tuple(phase_names)
        #: insertion-ordered, exactly like GCTrace.residuals (the
        #: replayers iterate it for residual-only phases).
        self.residuals: Dict[str, ResidualWork] = dict(residuals or {})
        for name in STAT_FIELDS:
            setattr(self, name, int(stats.pop(name, 0)))
        if stats:
            raise ConfigError(f"unknown trace stats {sorted(stats)}")
        self._derived: Optional[Dict[str, np.ndarray]] = None
        self._phase_runs: Optional[List[Tuple[str, int, int]]] = None

    def __len__(self) -> int:
        return len(self.events)

    # -- phase structure ---------------------------------------------------

    def phase_runs(self) -> List[Tuple[str, int, int]]:
        """Maximal runs of consecutive same-phase events.

        Returns ``(phase_name, start, stop)`` triples covering
        ``events[start:stop]``, in order — the same segmentation
        :meth:`GCTrace.phase_runs` derives from the object stream.  Pure
        in the events, so the segmentation is computed once and
        memoized (callers must not mutate the returned list).
        """
        runs = self._phase_runs
        if runs is None:
            ids = self.events["phase"]
            if len(ids) == 0:
                runs = []
            else:
                cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
                bounds = [0] + cuts + [len(ids)]
                runs = [(self.phase_names[int(ids[lo])], lo, hi)
                        for lo, hi in zip(bounds[:-1], bounds[1:])]
            self._phase_runs = runs
        return runs

    def derived_columns(self) -> Dict[str, np.ndarray]:
        """Config-independent per-event columns the replay kernels share.

        Everything here is a pure function of the recorded events, so it
        is computed once per compiled trace and memoized (the trace
        cache hands the same ``CompiledTrace`` to every platform's
        replayer).  Platform-dependent quantities (service times, cache
        models, energy) stay in the kernels.
        """
        derived = self._derived
        if derived is None:
            ev = self.events
            prim = ev["prim"]
            size = ev["size_bytes"]
            found = ev["found"] != 0
            cached = ev["bits_cached"]
            derived = {
                "is_copy": prim == PRIMITIVE_TYPE_CODES[Primitive.COPY],
                "is_search": prim == PRIMITIVE_TYPE_CODES[Primitive.SEARCH],
                "is_scan": prim == PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH],
                "is_bitmap":
                    prim == PRIMITIVE_TYPE_CODES[Primitive.BITMAP_COUNT],
                "found": found,
                # Bytes a search examines before clamping: half the range
                # on a hit, the full range on a miss (host and device
                # models clamp to different minima).
                "search_examined": np.where(found, size // 2, size),
                # Bitmap bits with the software-cache shortcut applied
                # (NO_BITS_CACHED means the count really ran).
                "eff_bits": np.where(cached == NO_BITS_CACHED,
                                     ev["bits"], cached),
            }
            self._derived = derived
        return derived

    # -- conversion --------------------------------------------------------

    def to_trace(self) -> GCTrace:
        """Decompile back to the per-event object form (lossless)."""
        trace = GCTrace(self.kind, heap_bytes=self.heap_bytes)
        ev = self.events
        check_primitive_codes(ev["prim"], "compiled trace")
        columns = {name: ev[name].tolist()
                   for name in ("prim", "phase", "src", "dst",
                                "size_bytes", "refs", "pushes", "bits",
                                "bits_cached", "found")}
        names = self.phase_names
        for i in range(len(ev)):
            cached = columns["bits_cached"][i]
            trace.events.append(TraceEvent(
                primitive=CODE_TO_PRIMITIVE[columns["prim"][i]],
                phase=names[columns["phase"][i]],
                src=columns["src"][i],
                dst=columns["dst"][i],
                size_bytes=columns["size_bytes"][i],
                refs=columns["refs"][i],
                pushes=columns["pushes"][i],
                bits=columns["bits"][i],
                bits_cached=None if cached == NO_BITS_CACHED else cached,
                found=bool(columns["found"][i])))
        for phase, work in self.residuals.items():
            trace.residuals[phase] = ResidualWork(
                instructions=work.instructions,
                bytes_accessed=work.bytes_accessed)
        for name in STAT_FIELDS:
            setattr(trace, name, getattr(self, name))
        return trace

    def summary(self) -> Dict[str, float]:
        """Same compact description GCTrace.summary produces."""
        ev = self.events
        prim = ev["prim"]
        copies = prim == PRIMITIVE_TYPE_CODES[Primitive.COPY]
        searches = prim == PRIMITIVE_TYPE_CODES[Primitive.SEARCH]
        scans = prim == PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH]
        bitmaps = prim == PRIMITIVE_TYPE_CODES[Primitive.BITMAP_COUNT]
        return {
            "kind": self.kind,
            "events": len(ev),
            "copy_events": int(copies.sum()),
            "copy_bytes": int(ev["size_bytes"][copies].sum()),
            "search_events": int(searches.sum()),
            "scan_push_events": int(scans.sum()),
            "scan_refs": int(ev["refs"][scans].sum()),
            "bitmap_events": int(bitmaps.sum()),
            "bitmap_bits": int(ev["bits"][bitmaps].sum()),
            "residual_instructions": sum(
                work.instructions for work in self.residuals.values()),
            "objects_copied": self.objects_copied,
            "bytes_copied": self.bytes_copied,
            "objects_promoted": self.objects_promoted,
        }


def compile_trace(trace: GCTrace) -> CompiledTrace:
    """Compile one :class:`GCTrace` to its columnar form."""
    names: List[str] = []
    ids: Dict[str, int] = {}
    events = trace.events
    array = np.empty(len(events), dtype=EVENT_DTYPE)
    phase_column = np.empty(len(events), dtype=np.uint16)
    for i, event in enumerate(events):
        pid = ids.get(event.phase)
        if pid is None:
            pid = ids[event.phase] = len(names)
            names.append(event.phase)
            if pid > np.iinfo(np.uint16).max:
                raise ConfigError("trace has too many distinct phases "
                                  "for the columnar schema")
        phase_column[i] = pid
    array["prim"] = [PRIMITIVE_TYPE_CODES[e.primitive] for e in events]
    array["phase"] = phase_column
    for field in ("src", "dst", "size_bytes", "refs", "pushes", "bits"):
        array[field] = [getattr(e, field) for e in events]
    array["bits_cached"] = [NO_BITS_CACHED if e.bits_cached is None
                            else e.bits_cached for e in events]
    array["found"] = [1 if e.found else 0 for e in events]
    residuals = {
        phase: ResidualWork(instructions=work.instructions,
                            bytes_accessed=work.bytes_accessed)
        for phase, work in trace.residuals.items()
    }
    stats = {name: getattr(trace, name) for name in STAT_FIELDS}
    return CompiledTrace(trace.kind, trace.heap_bytes, array, names,
                         residuals, **stats)


def compile_traces(traces: Sequence[GCTrace]) -> List[CompiledTrace]:
    """Compile a run's trace list, passing through already-compiled ones."""
    return [trace if isinstance(trace, CompiledTrace)
            else compile_trace(trace) for trace in traces]

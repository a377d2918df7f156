"""Primitive traces: what a GC run looked like, platform-independently.

Collectors record every invocation of the four offloadable primitives
(Search, Copy, Scan&Push, Bitmap Count) as :class:`TraceEvent`\\ s with
real addresses and sizes, and accumulate the *residual* work — pops,
mark checks, allocation, linked-list walks — as per-phase instruction
and byte counts (the paper explicitly keeps those on the host,
Sec. 3.3).  The timing layer replays a :class:`GCTrace` on a platform
model to produce durations, bandwidth and energy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterator, List, Tuple


class Primitive(enum.Enum):
    """The offloadable GC primitives (Sec. 3.3)."""

    SEARCH = "search"
    COPY = "copy"
    SCAN_PUSH = "scan_push"
    BITMAP_COUNT = "bitmap_count"


#: Offload-request type encodings used in the 4-bit packet field.
PRIMITIVE_TYPE_CODES = {
    Primitive.COPY: 0x1,
    Primitive.SEARCH: 0x2,
    Primitive.SCAN_PUSH: 0x3,
    Primitive.BITMAP_COUNT: 0x4,
}


@dataclass
class TraceEvent:
    """One offloadable primitive invocation.

    Field meaning depends on the primitive:

    * ``COPY`` — ``src``/``dst``/``size_bytes``;
    * ``SEARCH`` — ``src`` (range start), ``size_bytes`` (range length),
      ``found`` (early-exit hit);
    * ``SCAN_PUSH`` — ``src`` (object), ``refs`` (reference slots
      scanned), ``pushes`` (new objects pushed);
    * ``BITMAP_COUNT`` — ``src`` (bitmap range start address in heap
      terms), ``bits`` (range length in bitmap bits).
    """

    primitive: Primitive
    phase: str
    src: int = 0
    dst: int = 0
    size_bytes: int = 0
    refs: int = 0
    pushes: int = 0
    bits: int = 0
    #: for BITMAP_COUNT: bits the *software* baseline actually walks.
    #: HotSpot's ``live_words_in_range`` keeps a per-thread query cache
    #: (ParMarkBitMap), so a query extending the previous one in the
    #: same region only walks the delta — which is what the sequential
    #: compact-phase queries hit.  ``None`` means no cache hit (full
    #: range).  Charon always receives the full range; its bitmap cache
    #: captures the same locality in hardware.
    bits_cached: int = None
    found: bool = False


@dataclass
class ResidualWork:
    """Non-offloaded host work accumulated for one phase."""

    instructions: float = 0.0
    bytes_accessed: int = 0

    def add(self, instructions: float, bytes_accessed: int = 0) -> None:
        self.instructions += instructions
        self.bytes_accessed += bytes_accessed


class GCTrace:
    """The full record of one collection."""

    def __init__(self, kind: str, heap_bytes: int = 0) -> None:
        if kind not in ("minor", "major", "sweep", "g1", "concurrent"):
            raise ValueError(f"unknown GC kind {kind!r}")
        self.kind = kind
        self.heap_bytes = heap_bytes
        self.events: List[TraceEvent] = []
        self.residuals: Dict[str, ResidualWork] = {}
        # Functional outcome summaries, filled by the collector.
        self.objects_visited = 0
        self.objects_copied = 0
        self.bytes_copied = 0
        self.objects_promoted = 0
        self.bytes_freed = 0

    # -- recording ---------------------------------------------------------

    def copy(self, phase: str, src: int, dst: int, size_bytes: int) -> None:
        self.events.append(TraceEvent(Primitive.COPY, phase, src=src,
                                      dst=dst, size_bytes=size_bytes))

    def search(self, phase: str, start: int, length: int,
               found: bool) -> None:
        self.events.append(TraceEvent(Primitive.SEARCH, phase, src=start,
                                      size_bytes=length, found=found))

    def scan_push(self, phase: str, obj: int, refs: int,
                  pushes: int) -> None:
        self.events.append(TraceEvent(Primitive.SCAN_PUSH, phase, src=obj,
                                      refs=refs, pushes=pushes))

    def bitmap_count(self, phase: str, range_start: int, bits: int,
                     bits_cached: int = None) -> None:
        self.events.append(TraceEvent(Primitive.BITMAP_COUNT, phase,
                                      src=range_start, bits=bits,
                                      bits_cached=bits_cached))

    def residual(self, phase: str, instructions: float,
                 bytes_accessed: int = 0) -> None:
        self.residuals.setdefault(phase, ResidualWork()).add(
            instructions, bytes_accessed)

    def phase_runs(self) -> List[Tuple[str, int, int]]:
        """Maximal runs of consecutive same-phase events, as
        ``(phase_name, start, stop)`` triples covering
        ``events[start:stop]`` in order."""
        runs: List[Tuple[str, int, int]] = []
        lo = 0
        for phase, group in groupby(self.events, key=attrgetter("phase")):
            hi = lo + sum(1 for _ in group)
            runs.append((phase, lo, hi))
            lo = hi
        return runs

    # -- summaries ------------------------------------------------------------

    def events_of(self, primitive: Primitive) -> Iterator[TraceEvent]:
        return (e for e in self.events if e.primitive is primitive)

    def count(self, primitive: Primitive) -> int:
        return sum(1 for _ in self.events_of(primitive))

    def copy_bytes_total(self) -> int:
        return sum(e.size_bytes for e in self.events_of(Primitive.COPY))

    def search_bytes_total(self) -> int:
        return sum(e.size_bytes for e in self.events_of(Primitive.SEARCH))

    def scan_refs_total(self) -> int:
        return sum(e.refs for e in self.events_of(Primitive.SCAN_PUSH))

    def bitmap_bits_total(self) -> int:
        return sum(e.bits for e in self.events_of(Primitive.BITMAP_COUNT))

    def residual_instructions_total(self) -> float:
        return sum(r.instructions for r in self.residuals.values())

    def summary(self) -> Dict[str, float]:
        """Compact description used by reports and tests."""
        return {
            "kind": self.kind,
            "events": len(self.events),
            "copy_events": self.count(Primitive.COPY),
            "copy_bytes": self.copy_bytes_total(),
            "search_events": self.count(Primitive.SEARCH),
            "scan_push_events": self.count(Primitive.SCAN_PUSH),
            "scan_refs": self.scan_refs_total(),
            "bitmap_events": self.count(Primitive.BITMAP_COUNT),
            "bitmap_bits": self.bitmap_bits_total(),
            "residual_instructions": self.residual_instructions_total(),
            "objects_copied": self.objects_copied,
            "bytes_copied": self.bytes_copied,
            "objects_promoted": self.objects_promoted,
        }


#: Rough host instruction costs of the residual operations, used by the
#: collectors when they record residual work.  These are small constant
#: code sequences in HotSpot (pop, null/forward checks, bump allocation,
#: stack maintenance); the exact values only shift the non-offloadable
#: fraction slightly and are held here in one place.
RESIDUAL_COSTS = {
    "pop": 12.0,           # pop + depth/termination checks
    "check_mark": 8.0,     # load mark word, decode, test
    "forward_update": 10.0, # store updated reference + barrier
    "allocate": 20.0,       # PLAB bump + overflow/refill test
    "push": 8.0,
    "card_clean": 4.0,
    "card_lookup": 25.0,   # block-offset-table walk per dirty card
    "summary_region": 20.0,
    "sweep_step": 14.0,
    "root": 10.0,
    # Reference-free objects (type arrays) have a no-op iterate
    # strategy: the collector only dispatches on the klass.
    "scan_trivial": 6.0,
    # SATB write barrier: read the old value, test for null, append to
    # the thread-local log buffer (G1/Shenandoah's pre-write barrier).
    "barrier_log": 10.0,
}

#: Fixed per-collection host work that never offloads: VM operation
#: setup, thread root scanning (stacks, JNI handles, string table),
#: parallel-task termination, adaptive-sizing policy.  Fig. 4 folds all
#: of this into the "other" slice, which averages ~25% of GC time.
#: A concurrent cycle pays two short safepoints (initial/final mark)
#: instead of one long one, but the combined VM-operation work lands
#: between the minor and major figures.
FIXED_GC_INSTRUCTIONS = {"minor": 60_000.0, "major": 100_000.0,
                         "sweep": 60_000.0, "concurrent": 80_000.0}

#: Phase names whose SCAN_PUSH events are *marking* scans (cold
#: mark-bitmap checks, two dependent accesses per slot) as opposed to
#: evacuation/remset scans.  Concurrent-mark traces suffix their
#: per-pause phases with ``-<n>`` so the replayers' per-phase-run
#: residual accounting stays exact; the prefixes cover those.
_MARKING_PHASE_PREFIXES = ("concurrent-mark", "final-mark", "barrier")


def is_marking_phase(name: str) -> bool:
    """True when SCAN_PUSH events in phase ``name`` are marking scans."""
    return name == "mark" or name.startswith(_MARKING_PHASE_PREFIXES)

#: HotSpot scans large object arrays in chunks of this many elements
#: (ParGCArrayScanChunk's order of magnitude), so one Scan&Push
#: invocation — host or offloaded — never covers an unbounded array.
ARRAY_SCAN_CHUNK = 50


def chunk_refs(refs: int, pushes: int):
    """Split an object's reference scan into array-scan chunks.

    Yields ``(chunk_refs, chunk_pushes)`` pairs; pushes are spread
    proportionally with the remainder on the first chunk.
    """
    if refs <= ARRAY_SCAN_CHUNK:
        yield refs, pushes
        return
    full, tail = divmod(refs, ARRAY_SCAN_CHUNK)
    counts = [ARRAY_SCAN_CHUNK] * full + ([tail] if tail else [])
    # Greedy front-loading: pushes never exceed refs, so every push is
    # placed, and the per-chunk bound chunk_pushes <= chunk_refs holds.
    # (Where pushes land within the array does not affect timing.)
    remaining = pushes
    for count in counts:
        share = min(count, remaining)
        yield count, share
        remaining -= share

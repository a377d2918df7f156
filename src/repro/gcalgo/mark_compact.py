"""MajorGC: mark-compact collection (Fig. 3b).

Phases, following HotSpot's PSParallelCompact as the paper describes:

* **Marking** — pop objects from the stack; unmarked ones get their
  header mark bit set, their begin/end bitmap bits recorded (old
  generation), and their references *Scan&Push*-ed (``follow_contents``
  in Fig. 11).
* **Summary** — per-region live-word totals, accumulated during marking
  (the paper measures this phase below 0.03% of MajorGC and excludes it
  from offloading; we charge it as residual work).
* **Adjust pointers** — every reference to an old-generation object is
  rewritten to the referee's post-compaction address, computed as
  ``region destination + live_words_in_range(region start, referee)``.
  Each such computation is a *Bitmap Count* invocation — this is where
  the primitive's call volume comes from.
* **Compact** — live old objects slide left to their destinations
  (*Copy*), leaving the old generation densely packed.

Like PSParallelCompact, the collector keeps a **dense prefix**: the
bottom run of old-generation regions whose live density is already
high never moves.  Objects inside it keep their addresses (references
to them need no Bitmap Count), and the few dead gaps are overwritten
with filler objects (HotSpot's deadwood), keeping the space parseable.
This is what keeps Bitmap Count and Copy from dominating MajorGC on
pointer-dense heaps — exactly the balance Fig. 4(b) shows.

The young generation is marked and pointer-adjusted but not moved (the
next scavenge evacuates it), which matches the division of labour
between ParallelScavenge's two collectors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gcalgo.stack import ObjectStack
from repro.gcalgo.trace import (ARRAY_SCAN_CHUNK, FIXED_GC_INSTRUCTIONS,
                               GCTrace, RESIDUAL_COSTS, chunk_refs)
from repro.heap import fast_kernels
from repro.heap.heap import JavaHeap
from repro.heap.klass import ARRAY_ELEMENTS_OFFSET
from repro.heap.object_model import ObjectView
from repro.obs.tracer import get_tracer
from repro.units import CACHE_LINE, WORD

#: Fast-path live-object record: ``(addr, klass_id, length, size)``.
LiveRec = Tuple[int, int, int, int]

#: The header mark bit (bit 6 of the mark word), for the bulk
#: set/clear kernels; MarkWord.marked()/unmarked() toggle the same bit.
_HEADER_MARK_BIT = 1 << 6

#: Compaction region size: 512 heap words, HotSpot's RegionSize.
REGION_WORDS = 512
REGION_BYTES = REGION_WORDS * WORD

#: A region at least this live joins the dense prefix (HotSpot chooses
#: the prefix with a deadwood cost model; a density cut-off captures
#: its effect).
DENSE_PREFIX_DENSITY = 0.85


class MajorGC:
    """One full mark-compact collection over the heap."""

    def __init__(self, heap: JavaHeap) -> None:
        self.heap = heap
        #: (region_start, last queried addr) — the software query cache.
        self._last_query: Tuple[int, int] = None

    def collect(self) -> GCTrace:
        heap = self.heap
        obs = get_tracer()
        fast = fast_kernels.fast_enabled(heap)
        fast_kernels.record_call("major",
                                 kernel="fast" if fast else "scalar")
        trace = GCTrace("major", heap_bytes=heap.config.heap_bytes)
        trace.residual("setup", FIXED_GC_INSTRUCTIONS["major"],
                       96 * 1024)
        heap.bitmaps.clear()
        old_used_before = heap.layout.old.used

        with obs.span("collect", cat="collector", gc="major"):
            if fast:
                self._collect_fast(trace, obs)
            else:
                self._collect_scalar(trace, obs)

        trace.bytes_freed = old_used_before - heap.layout.old.used
        return trace

    def _collect_scalar(self, trace: GCTrace, obs) -> None:
        with obs.span("mark", cat="collector", gc="major"):
            live_old, live_young = self._mark(trace)
        with obs.span("summary", cat="collector", gc="major"):
            region_live = self._region_live(trace, live_old)
            prefix_end = self._effective_prefix_end(
                live_old, self._dense_prefix_end(region_live))
            region_dest = self._summarize(trace, region_live,
                                          prefix_end)
        with obs.span("adjust", cat="collector", gc="major"):
            self._adjust_pointers(trace, live_old, live_young,
                                  region_dest, prefix_end)
        with obs.span("compact", cat="collector", gc="major"):
            self._compact(trace, live_old, region_dest, prefix_end)
            self._unmark_young(live_young)
        with obs.span("card-rebuild", cat="collector", gc="major"):
            self._rebuild_cards(trace)

    def _collect_fast(self, trace: GCTrace, obs) -> None:
        """The vectorized phase pipeline (bit-exact with the scalar
        one; the differential fuzzer enforces it)."""
        heap = self.heap
        with obs.span("mark", cat="collector", gc="major"):
            live_old, live_young = self._mark_fast(trace)
        with obs.span("summary", cat="collector", gc="major"):
            # Freeze the bitmaps into the popcount-prefix-sum index —
            # every live_words_in_range below becomes O(1).
            index = fast_kernels.CoverageIndex(heap.bitmaps)
            region_live = self._region_live_fast(trace, live_old)
            prefix_end = self._effective_prefix_end_fast(
                live_old, self._dense_prefix_end(region_live))
            region_dest = self._summarize_fast(trace, region_live,
                                               prefix_end, index)
        with obs.span("adjust", cat="collector", gc="major"):
            self._adjust_pointers_fast(trace, live_old, live_young,
                                       region_dest, prefix_end, index)
        with obs.span("compact", cat="collector", gc="major"):
            self._compact_fast(trace, live_old, region_dest,
                               prefix_end, index)
            self._unmark_young_fast(live_young)
        with obs.span("card-rebuild", cat="collector", gc="major"):
            self._rebuild_cards_fast(trace)

    # -- marking ------------------------------------------------------------

    def _mark(self, trace: GCTrace
              ) -> Tuple[List[ObjectView], List[ObjectView]]:
        heap = self.heap
        layout = heap.layout
        stack: ObjectStack[int] = ObjectStack()
        marked = set()
        live_old: List[ObjectView] = []
        live_young: List[ObjectView] = []

        for addr in heap.roots:
            trace.residual("mark", RESIDUAL_COSTS["root"], CACHE_LINE)
            if addr and addr not in marked:
                marked.add(addr)
                stack.push(addr)

        while stack:
            addr = stack.pop()
            trace.residual("mark", RESIDUAL_COSTS["pop"])
            view = heap.object_at(addr)
            trace.objects_visited += 1
            heap.set_mark_word(addr, heap.mark_word(addr).marked())
            if layout.in_old(addr):
                heap.bitmaps.mark_object(addr, view.size_bytes)
                live_old.append(view)
            else:
                live_young.append(view)
            slots = view.reference_slots()
            pushes = 0
            for slot in slots:
                target = heap.load_ref(slot)
                trace.residual("mark", RESIDUAL_COSTS["check_mark"])
                if target and target not in marked:
                    marked.add(target)  # mark_obj: atomic RMW in HotSpot
                    stack.push(target)
                    pushes += 1
            if slots:
                for refs, chunk_pushes in chunk_refs(len(slots), pushes):
                    trace.scan_push("mark", addr, refs, chunk_pushes)
            else:
                trace.residual("mark", RESIDUAL_COSTS["scan_trivial"])

        live_old.sort(key=lambda v: v.addr)
        return live_old, live_young

    # -- summary ---------------------------------------------------------------

    def _region_live(self, trace: GCTrace,
                     live_old: List[ObjectView]) -> List[int]:
        """Live words per old-generation region (accumulated during
        marking in HotSpot; charged as residual summary work)."""
        heap = self.heap
        old = heap.layout.old
        n_regions = -(-old.capacity // REGION_BYTES)
        region_live = [0] * n_regions
        for view in live_old:
            start = view.addr
            remaining = view.size_bytes
            while remaining > 0:
                region = (start - old.start) // REGION_BYTES
                region_end = old.start + (region + 1) * REGION_BYTES
                span = min(remaining, region_end - start)
                region_live[region] += span // WORD
                start += span
                remaining -= span
            trace.residual("summary", RESIDUAL_COSTS["summary_region"])
        return region_live

    def _dense_prefix_end(self, region_live: List[int]) -> int:
        """Address where compaction starts moving objects.

        Regions at the bottom of the old generation whose live density
        is at least :data:`DENSE_PREFIX_DENSITY` stay in place.
        """
        old = self.heap.layout.old
        prefix_regions = 0
        for live_words in region_live:
            region_start = old.start + prefix_regions * REGION_BYTES
            if region_start >= old.top:
                break
            # The last (partially used) region is judged against its
            # used portion, not the full region size.
            used_words = min(REGION_WORDS,
                             (old.top - region_start) // WORD)
            if live_words < used_words * DENSE_PREFIX_DENSITY:
                break
            prefix_regions += 1
        return old.start + prefix_regions * REGION_BYTES

    def _effective_prefix_end(self, live_old: List[ObjectView],
                              region_prefix_end: int) -> int:
        """Snap the region-granular prefix to an object boundary.

        The prefix ends exactly at the end of its last live object: a
        live object spanning the region boundary stays in place (and
        extends the prefix), while dead space at the prefix tail is
        handed to the compacted area, where moved objects overwrite it.
        """
        prefix_end = self.heap.layout.old.start
        for view in live_old:
            if view.addr >= region_prefix_end:
                break
            prefix_end = max(prefix_end, view.end_addr)
        return prefix_end

    def _summarize(self, trace: GCTrace, region_live: List[int],
                   prefix_end: int) -> Dict[int, int]:
        """Destination word offsets (from old start) per moved region.

        The first moved object lands at ``prefix_end``.  The region
        containing ``prefix_end`` may hold live words *before* the
        boundary (prefix objects); its destination subtracts them so
        ``dest + live_words_in_range(region start, addr)`` stays exact.
        """
        heap = self.heap
        old = heap.layout.old
        first_moved = (prefix_end - old.start) // REGION_BYTES
        dest: Dict[int, int] = {}
        prefix_words = (prefix_end - old.start) // WORD
        cumulative = prefix_words
        for region in range(len(region_live)):
            region_start = old.start + region * REGION_BYTES
            if region < first_moved:
                dest[region] = region * REGION_WORDS
                continue
            if region == first_moved and prefix_end > region_start:
                pre = heap.bitmaps.live_words_in_range_fast(
                    region_start, prefix_end)
                dest[region] = cumulative - pre
                cumulative = dest[region] + region_live[region]
            else:
                dest[region] = cumulative
                cumulative += region_live[region]
            trace.residual("summary", RESIDUAL_COSTS["summary_region"])
        return dest

    # -- pointer adjustment -------------------------------------------------------

    def _new_address(self, trace: GCTrace, phase: str,
                     region_dest: Dict[int, int], addr: int,
                     prefix_end: int) -> int:
        """Post-compaction address of old-gen object ``addr``.

        Dense-prefix objects do not move — the check is a compare, no
        bitmap query.  For moved objects this is one Bitmap Count
        invocation: live words in ``[region start, addr)`` (the paper's
        ``live_words_in_range``).  The software baseline's per-thread
        query cache is modelled: a query extending the immediately
        preceding one within the same region only walks the delta bits.
        """
        heap = self.heap
        old = heap.layout.old
        if addr < prefix_end:
            trace.residual(phase, RESIDUAL_COSTS["check_mark"])
            return addr
        region = (addr - old.start) // REGION_BYTES
        region_start = old.start + region * REGION_BYTES
        words = heap.bitmaps.live_words_in_range_fast(region_start, addr)
        bits = (addr - region_start) // WORD
        cached = None
        last = self._last_query
        if last is not None and last[0] == region_start \
                and last[1] <= addr:
            cached = (addr - last[1]) // WORD
        self._last_query = (region_start, addr)
        trace.bitmap_count(phase, region_start, bits=bits,
                           bits_cached=cached)
        return old.start + (region_dest[region] + words) * WORD

    def _adjust_pointers(self, trace: GCTrace, live_old: List[ObjectView],
                         live_young: List[ObjectView],
                         region_dest: Dict[int, int],
                         prefix_end: int) -> None:
        heap = self.heap
        layout = heap.layout
        # Roots first.
        for index, addr in enumerate(heap.roots):
            trace.residual("adjust", RESIDUAL_COSTS["forward_update"])
            if addr and layout.in_old(addr):
                heap.roots[index] = self._new_address(
                    trace, "adjust", region_dest, addr, prefix_end)
        # Then every reference slot of every live object.
        for view in self._all_live(live_old, live_young):
            for slot in view.reference_slots():
                target = heap.load_ref(slot)
                trace.residual("adjust", RESIDUAL_COSTS["check_mark"])
                if target and layout.in_old(target):
                    new_target = self._new_address(
                        trace, "adjust", region_dest, target, prefix_end)
                    if new_target != target:
                        heap.write_u64(slot, new_target)
                        trace.residual("adjust",
                                       RESIDUAL_COSTS["forward_update"])

    @staticmethod
    def _all_live(live_old: List[ObjectView],
                  live_young: List[ObjectView]):
        yield from live_old
        yield from live_young

    # -- compaction -------------------------------------------------------------------

    def _compact(self, trace: GCTrace, live_old: List[ObjectView],
                 region_dest: Dict[int, int], prefix_end: int) -> None:
        heap = self.heap
        old = heap.layout.old
        # Dense prefix: nothing moves; dead gaps between its live
        # objects become deadwood fillers so the space stays parseable
        # (the prefix ends exactly at its last live object).
        cursor = old.start
        new_top = prefix_end
        for view in live_old:
            if view.addr >= prefix_end:
                break
            if view.addr > cursor:
                heap.fill_dead_range(cursor, view.addr)
                trace.residual("compact", RESIDUAL_COSTS["sweep_step"])
            heap.set_mark_word(view.addr,
                               heap.mark_word(view.addr).unmarked())
            cursor = max(cursor, view.end_addr)
        # Moved objects slide left to just after the prefix.
        for view in live_old:
            if view.addr < prefix_end:
                continue
            dst = self._new_address(trace, "compact", region_dest,
                                    view.addr, prefix_end)
            size = view.size_bytes
            if dst != view.addr:
                heap.move_bytes(view.addr, dst, size)
                trace.copy("compact", view.addr, dst, size)
                trace.objects_copied += 1
                trace.bytes_copied += size
            # Clear the mark bit in the (possibly moved) header.
            heap.set_mark_word(dst, heap.mark_word(dst).unmarked())
            new_top = dst + size
        old.top = new_top
        heap.bitmaps.clear()

    def _unmark_young(self, live_young: List[ObjectView]) -> None:
        for view in live_young:
            mark = self.heap.mark_word(view.addr)
            self.heap.set_mark_word(view.addr, mark.unmarked())

    # -- card table reconstruction -------------------------------------------------------

    def _rebuild_cards(self, trace: GCTrace) -> None:
        """Re-dirty cards of old objects holding young references.

        Compaction moved old objects, so the pre-GC card state is
        meaningless; HotSpot similarly re-dirties during the move.
        """
        heap = self.heap
        heap.card_table.clear()
        for view in heap.iterate_space(heap.layout.old):
            trace.residual("card-rebuild", RESIDUAL_COSTS["card_clean"])
            if heap.is_filler(view):
                continue
            for slot in view.reference_slots():
                target = heap.load_ref(slot)
                if target and heap.layout.in_young(target):
                    heap.card_table.dirty(slot)

    # -- fast-path phases ---------------------------------------------------
    #
    # Same phase structure, same trace events and residual totals, same
    # final heap bytes — but header decode, bitmap marking, range
    # queries, mark-bit set/clear, card rebuild and the compaction
    # memmove all run through the batched kernels.  Mark bits are set
    # and cleared in bulk at the same addresses the scalar path touches
    # (including the marked residue left beyond the compacted top).

    def _mark_fast(self, trace: GCTrace
                   ) -> Tuple[List[LiveRec], List[LiveRec]]:
        heap = self.heap
        old = heap.layout.old
        ops = fast_kernels.HeapOps(heap)
        stack: List[int] = []
        marked = set()
        live_old: List[LiveRec] = []
        live_young: List[LiveRec] = []

        n_roots = len(heap.roots)
        if n_roots:
            trace.residual("mark", RESIDUAL_COSTS["root"] * n_roots,
                           CACHE_LINE * n_roots)
        for addr in heap.roots:
            if addr and addr not in marked:
                marked.add(addr)
                stack.append(addr)

        # Residual work is tallied locally and added to "mark" once:
        # the costs are integer-valued floats, so any summation order
        # gives the same double (see MinorGC._drain_fast).
        pop, push = stack.pop, stack.append
        words, base = ops.words, heap.base
        kinds, offsets = ops.kind, ops.offsets
        scan_event = trace.scan_push
        pops = checks = trivial = 0
        old_lo, old_hi = old.start, old.end
        while stack:
            addr = pop()
            pops += 1
            kid, length, size = ops.decode(addr)
            record = (addr, kid, length, size)
            if old_lo <= addr < old_hi:
                live_old.append(record)
            else:
                live_young.append(record)
            if kinds[kid] == fast_kernels.KIND_OBJ_ARRAY:
                first = (addr - base + ARRAY_ELEMENTS_OFFSET) >> 3
                targets = words[first:first + length].tolist()
            else:
                targets = [words[(addr - base + offset) >> 3]
                           for offset in offsets[kid]]
            n_slots = len(targets)
            if n_slots:
                checks += n_slots
                pushes = 0
                for target in targets:
                    if target and target not in marked:
                        marked.add(target)
                        push(target)
                        pushes += 1
                if n_slots <= ARRAY_SCAN_CHUNK:
                    scan_event("mark", addr, n_slots, pushes)
                else:
                    for refs, chunk_pushes in chunk_refs(n_slots,
                                                         pushes):
                        scan_event("mark", addr, refs, chunk_pushes)
            else:
                trivial += 1
        if pops:
            trace.residual(
                "mark", pops * RESIDUAL_COSTS["pop"]
                + checks * RESIDUAL_COSTS["check_mark"]
                + trivial * RESIDUAL_COSTS["scan_trivial"])
            trace.objects_visited += pops

        live_old.sort()
        # Deferred bulk effects: nothing read the bitmaps or header
        # mark bits during the traversal, so batching them here leaves
        # the same state the per-object scalar stores produce.
        if live_old:
            columns = np.asarray(live_old, dtype=np.int64)
            fast_kernels.mark_objects_bulk(heap.bitmaps,
                                           columns[:, 0],
                                           columns[:, 3])
            fast_kernels.or_words_bulk(heap, columns[:, 0],
                                       _HEADER_MARK_BIT)
        if live_young:
            fast_kernels.or_words_bulk(
                heap,
                np.asarray([rec[0] for rec in live_young],
                           dtype=np.int64),
                _HEADER_MARK_BIT)
        return live_old, live_young

    def _region_live_fast(self, trace: GCTrace,
                          live_old: List[LiveRec]) -> List[int]:
        heap = self.heap
        old = heap.layout.old
        n_regions = -(-old.capacity // REGION_BYTES)
        if not live_old:
            return [0] * n_regions
        trace.residual("summary",
                       RESIDUAL_COSTS["summary_region"] * len(live_old))
        columns = np.asarray(live_old, dtype=np.int64)
        addrs, sizes = columns[:, 0], columns[:, 3]
        first = (addrs - old.start) // REGION_BYTES
        last = (addrs + sizes - WORD - old.start) // REGION_BYTES
        region_live = np.zeros(n_regions, dtype=np.int64)
        contained = first == last
        np.add.at(region_live, first[contained],
                  sizes[contained] // WORD)
        for position in np.flatnonzero(~contained).tolist():
            start = int(addrs[position])
            remaining = int(sizes[position])
            while remaining > 0:
                region = (start - old.start) // REGION_BYTES
                region_end = old.start + (region + 1) * REGION_BYTES
                span = min(remaining, region_end - start)
                region_live[region] += span // WORD
                start += span
                remaining -= span
        return region_live.tolist()

    def _effective_prefix_end_fast(self, live_old: List[LiveRec],
                                   region_prefix_end: int) -> int:
        prefix_end = self.heap.layout.old.start
        for addr, _, _, size in live_old:
            if addr >= region_prefix_end:
                break
            prefix_end = max(prefix_end, addr + size)
        return prefix_end

    def _summarize_fast(self, trace: GCTrace, region_live: List[int],
                        prefix_end: int,
                        index: "fast_kernels.CoverageIndex"
                        ) -> Dict[int, int]:
        heap = self.heap
        old = heap.layout.old
        first_moved = (prefix_end - old.start) // REGION_BYTES
        dest: Dict[int, int] = {}
        cumulative = (prefix_end - old.start) // WORD
        n_regions = len(region_live)
        # The scalar loop only charges regions at or past the dense
        # prefix (the prefix branch ``continue``s before its residual).
        charged = n_regions - min(first_moved, n_regions)
        if charged:
            trace.residual("summary",
                           RESIDUAL_COSTS["summary_region"] * charged)
        for region in range(n_regions):
            region_start = old.start + region * REGION_BYTES
            if region < first_moved:
                dest[region] = region * REGION_WORDS
                continue
            if region == first_moved and prefix_end > region_start:
                pre = index.live_words(region_start, prefix_end)
                dest[region] = cumulative - pre
                cumulative = dest[region] + region_live[region]
            else:
                dest[region] = cumulative
                cumulative += region_live[region]
        return dest

    def _new_addresses_fast(self, trace: GCTrace, phase: str,
                            region_dest: Dict[int, int],
                            addrs: np.ndarray, prefix_end: int,
                            index: "fast_kernels.CoverageIndex"
                            ) -> Tuple[np.ndarray,
                                       List[Tuple[int, int,
                                                  Optional[int]]]]:
        """:meth:`_new_address` over a batch of old-gen addresses.

        Returns the post-compaction addresses and, per address past the
        dense prefix (in order), its Bitmap Count event fields
        ``(region_start, bits, bits_cached)`` for the caller to emit;
        the prefix addresses' check residuals are charged here.  The
        query-cache bookkeeping threads through the batch exactly as
        the per-address calls would — the *trace* must still describe
        the software baseline's walk — with the coverage index's
        vectorized ``live_upto_batch`` answering the queries.
        """
        old_start = self.heap.layout.old.start
        new_addrs = addrs.copy()
        queried = np.flatnonzero(addrs >= prefix_end)
        n_prefix = len(addrs) - len(queried)
        if n_prefix:
            trace.residual(phase,
                           RESIDUAL_COSTS["check_mark"] * n_prefix)
        if not queried.shape[0]:
            return new_addrs, []
        query = addrs[queried]
        regions = (query - old_start) // REGION_BYTES
        starts = old_start + regions * REGION_BYTES
        words = index.live_upto_batch(query) \
            - index.live_upto_batch(starts)
        dest = np.fromiter((region_dest[region]
                            for region in range(int(regions.max()) + 1)),
                           dtype=np.int64)
        new_addrs[queried] = old_start + (dest[regions] + words) * WORD
        # The software query cache: a query hits when the previous one
        # was in the same region and not past this address.
        last_start, last_addr = self._last_query or (-1, 0)
        prev_starts = np.concatenate(([last_start], starts[:-1]))
        prev_addrs = np.concatenate(([last_addr], query[:-1]))
        hits = ((prev_starts == starts)
                & (prev_addrs <= query)).tolist()
        deltas = ((query - prev_addrs) // WORD).tolist()
        self._last_query = (int(starts[-1]), int(query[-1]))
        starts_list = starts.tolist()
        bits = ((query - starts) // WORD).tolist()
        return new_addrs, [
            (starts_list[i], bits[i], deltas[i] if hits[i] else None)
            for i in range(len(bits))]

    def _adjust_pointers_fast(self, trace: GCTrace,
                              live_old: List[LiveRec],
                              live_young: List[LiveRec],
                              region_dest: Dict[int, int],
                              prefix_end: int,
                              index: "fast_kernels.CoverageIndex"
                              ) -> None:
        heap = self.heap
        layout = heap.layout
        old = layout.old
        n_roots = len(heap.roots)
        if n_roots:
            trace.residual("adjust",
                           RESIDUAL_COSTS["forward_update"] * n_roots)
            roots = np.asarray(heap.roots, dtype=np.int64)
            positions = np.flatnonzero((roots >= old.start)
                                       & (roots < old.end))
            new_roots, events = self._new_addresses_fast(
                trace, "adjust", region_dest, roots[positions],
                prefix_end, index)
            self._emit_bitmap_counts(trace, "adjust", events)
            for position, addr in zip(positions.tolist(),
                                      new_roots.tolist()):
                heap.roots[position] = addr
        all_live = live_old + live_young
        if not all_live:
            return
        columns = np.asarray(all_live, dtype=np.int64)
        batch = fast_kernels.gather_ref_slots(
            heap, columns[:, 0], columns[:, 1], columns[:, 2])
        total_slots = len(batch)
        if total_slots:
            trace.residual("adjust",
                           RESIDUAL_COSTS["check_mark"] * total_slots)
        # Every slot was read exactly once above, and each write below
        # goes only to the slot just read — gather-then-scatter is exact.
        old_refs = np.flatnonzero((batch.targets >= old.start)
                                  & (batch.targets < old.end))
        targets = batch.targets[old_refs]
        new_targets, events = self._new_addresses_fast(
            trace, "adjust", region_dest, targets, prefix_end, index)
        self._emit_bitmap_counts(trace, "adjust", events)
        changed = np.flatnonzero(new_targets != targets)
        if changed.shape[0]:
            trace.residual(
                "adjust",
                RESIDUAL_COSTS["forward_update"] * changed.shape[0])
            word_indices = (batch.slots[old_refs[changed]]
                            - heap.base) // WORD
            heap.words[word_indices] = \
                new_targets[changed].astype(np.uint64)

    @staticmethod
    def _emit_bitmap_counts(trace: GCTrace, phase: str,
                            events: List[Tuple[int, int,
                                               Optional[int]]]) -> None:
        for region_start, bits, cached in events:
            trace.bitmap_count(phase, region_start, bits=bits,
                               bits_cached=cached)

    def _compact_fast(self, trace: GCTrace, live_old: List[LiveRec],
                      region_dest: Dict[int, int], prefix_end: int,
                      index: "fast_kernels.CoverageIndex") -> None:
        heap = self.heap
        old = heap.layout.old
        cursor = old.start
        new_top = prefix_end
        moved_from = 0
        for position, (addr, _, _, size) in enumerate(live_old):
            if addr >= prefix_end:
                break
            moved_from = position + 1
            if addr > cursor:
                heap.fill_dead_range(cursor, addr)
                trace.residual("compact", RESIDUAL_COSTS["sweep_step"])
            cursor = max(cursor, addr + size)
        # Moved objects slide left; contiguous src/dst runs collapse
        # into one slice memmove (per-object Copy events preserved).
        run_src = run_dst = run_len = 0

        def flush_run() -> None:
            nonlocal run_len
            if run_len:
                heap.move_bytes(run_src, run_dst, run_len)
                run_len = 0

        dst_addrs: List[int] = [rec[0] for rec in
                                live_old[:moved_from]]
        moved = live_old[moved_from:]
        dsts, events = self._new_addresses_fast(
            trace, "compact", region_dest,
            np.asarray([rec[0] for rec in moved], dtype=np.int64),
            prefix_end, index)
        for (addr, _, _, size), dst, (region_start, bits, cached) in \
                zip(moved, dsts.tolist(), events):
            trace.bitmap_count("compact", region_start, bits=bits,
                               bits_cached=cached)
            if dst != addr:
                if run_len and addr == run_src + run_len \
                        and dst == run_dst + run_len:
                    run_len += size
                else:
                    flush_run()
                    run_src, run_dst, run_len = addr, dst, size
                trace.copy("compact", addr, dst, size)
                trace.objects_copied += 1
                trace.bytes_copied += size
            else:
                flush_run()
            dst_addrs.append(dst)
            new_top = dst + size
        flush_run()
        # Bulk mark-bit clear at every surviving header (prefix objects
        # in place, moved objects at their destinations) — the marked
        # residue at moved objects' old addresses stays, as in the
        # scalar path.
        if dst_addrs:
            fast_kernels.and_words_bulk(
                heap, np.asarray(dst_addrs, dtype=np.int64),
                ~_HEADER_MARK_BIT)
        old.top = new_top
        heap.bitmaps.clear()

    def _unmark_young_fast(self, live_young: List[LiveRec]) -> None:
        if live_young:
            fast_kernels.and_words_bulk(
                self.heap,
                np.asarray([rec[0] for rec in live_young],
                           dtype=np.int64),
                ~_HEADER_MARK_BIT)

    def _rebuild_cards_fast(self, trace: GCTrace) -> None:
        heap = self.heap
        card_table = heap.card_table
        card_table.clear()
        old = heap.layout.old
        parsed = fast_kernels.parse_space(heap, old.start, old.top)
        if not len(parsed):
            return
        trace.residual("card-rebuild",
                       RESIDUAL_COSTS["card_clean"] * len(parsed))
        not_filler = ((parsed.kids != heap.filler_klass.klass_id)
                      & (parsed.kids
                         != heap.filler_object_klass.klass_id))
        keep = np.flatnonzero(not_filler)
        if not keep.shape[0]:
            return
        batch = fast_kernels.gather_ref_slots(
            heap, parsed.addrs[keep], parsed.kids[keep],
            parsed.lengths[keep])
        layout = heap.layout
        young = ((batch.targets != 0)
                 & (batch.targets >= layout.eden.start)
                 & (batch.targets < layout.survivor_b.end))
        card_table.dirty_slots(batch.slots[np.flatnonzero(young)])

"""MinorGC: the ParallelScavenge copying collection (Fig. 3a).

Operation flow, exactly as the paper describes:

1. push the root set into the object stack;
2. *Search* the card table for dirty cards and push the old-generation
   slots that may reference young objects;
3. drain the stack: *Pop* a slot, check the referee's mark word; if not
   yet forwarded, *Copy* it to the To survivor space (or promote it to
   Old when aged enough or when To overflows), install a forwarding
   pointer, and *Scan&Push* the copy's references;
4. clean Eden and From, then swap the survivor semispaces.

The collector performs these steps functionally on the real heap while
recording Search / Copy / Scan&Push events and residual work into a
:class:`~repro.gcalgo.trace.GCTrace`.
"""

from __future__ import annotations


import numpy as np

from repro.errors import OutOfMemoryError
from repro.gcalgo.stack import ObjectStack
from repro.gcalgo.trace import (ARRAY_SCAN_CHUNK, FIXED_GC_INSTRUCTIONS,
                                GCTrace, RESIDUAL_COSTS, chunk_refs)
from repro.heap import fast_kernels
from repro.heap.card_table import DIRTY
from repro.heap.fast_kernels import (KIND_INSTANCE, KIND_OBJ_ARRAY,
                                     KIND_TYPE_ARRAY)
from repro.heap.heap import JavaHeap
from repro.heap.klass import ARRAY_ELEMENTS_OFFSET
from repro.heap.object_model import (AGE_MASK, AGE_SHIFT, FORWARD_SHIFT,
                                     MAX_AGE, STATE_FORWARDED, STATE_MASK,
                                     STATE_NORMAL, MarkWord)
from repro.obs.tracer import get_tracer
from repro.units import CACHE_LINE, WORD


class MinorGC:
    """One-shot scavenger; construct per heap and call :meth:`collect`."""

    def __init__(self, heap: JavaHeap,
                 tenuring_threshold: int = None) -> None:
        self.heap = heap
        self.tenuring_threshold = (
            heap.config.tenuring_threshold if tenuring_threshold is None
            else tenuring_threshold)

    # -- preconditions ----------------------------------------------------

    def promotion_safe(self) -> bool:
        """True when Old can absorb a worst-case full promotion.

        ParallelScavenge performs the same check and falls back to a
        full collection when it fails, so a scavenge never dies halfway.
        """
        layout = self.heap.layout
        worst_case = layout.eden.used + layout.survivor_from.used
        return layout.old.free >= worst_case

    # -- collection --------------------------------------------------------

    def collect(self) -> GCTrace:
        """Run the scavenge; returns the primitive trace."""
        if not self.promotion_safe():
            raise OutOfMemoryError(
                "scavenge refused: old generation cannot guarantee "
                "promotion; run a MajorGC first")
        heap = self.heap
        layout = heap.layout
        obs = get_tracer()
        fast = fast_kernels.fast_enabled(heap)
        fast_kernels.record_call("minor",
                                 kernel="fast" if fast else "scalar")
        trace = GCTrace("minor", heap_bytes=heap.config.heap_bytes)
        stack: ObjectStack[int] = ObjectStack()
        # Fixed collection overheads: VM-op setup, thread-stack roots,
        # termination protocol, policy updates (the Fig. 4 "other").
        trace.residual("setup", FIXED_GC_INSTRUCTIONS["minor"],
                       64 * 1024)

        with obs.span("collect", cat="collector", gc="minor"):
            # Step 1: roots.  Root slot i is encoded as -(i + 1); heap
            # slots are their (positive) addresses.
            with obs.span("roots", cat="collector", gc="minor"):
                for index in range(len(heap.roots)):
                    stack.push(-(index + 1))
                    trace.residual("root", RESIDUAL_COSTS["root"],
                                   CACHE_LINE)

            # Step 2: Search the card table, then collect old slots on
            # dirty cards that hold young references.
            with obs.span("card-search", cat="collector", gc="minor"):
                if fast:
                    self._card_search_fast(trace, stack)
                else:
                    self._card_search(trace, stack)

            # Step 3: drain.
            with obs.span("drain", cat="collector", gc="minor"):
                if fast:
                    self._drain_fast(trace, stack)
                else:
                    self._drain(trace, stack)

            # Step 4: clean up and swap semispaces (Fig. 1).
            eden, from_space = layout.eden, layout.survivor_from
            with obs.span("cleanup", cat="collector", gc="minor"):
                freed = eden.used + from_space.used - trace.bytes_copied
                trace.bytes_freed = max(0, freed)
                eden.reset()
                from_space.reset()
                layout.swap_survivors()
        return trace

    def _drain(self, trace: GCTrace, stack: ObjectStack) -> None:
        """Scalar drain loop (the oracle path)."""
        heap = self.heap
        eden = heap.layout.eden
        from_space = heap.layout.survivor_from
        while stack:
            slot = stack.pop()
            trace.residual("drain", RESIDUAL_COSTS["pop"])
            ref = self._read_slot(slot)
            if ref == 0:
                continue
            if not (eden.contains(ref)
                    or from_space.contains(ref)):
                # null, old, or already-evacuated To-space object
                continue
            mark = heap.mark_word(ref)
            trace.residual("drain", RESIDUAL_COSTS["check_mark"],
                           CACHE_LINE)
            if mark.is_forwarded:
                new_addr = mark.forwarding_address
            else:
                new_addr = self._evacuate(ref, mark, trace,
                                          stack)
                trace.objects_visited += 1
            self._write_slot(slot, new_addr)
            trace.residual("drain",
                           RESIDUAL_COSTS["forward_update"])

    def _drain_fast(self, trace: GCTrace, stack: ObjectStack) -> None:
        """:meth:`_drain` with :meth:`_evacuate` inlined, decoding raw
        header words straight from the heap's u64 memoryview.

        Residual work is tallied in local counters and added to
        ``"drain"`` once, after the loop: every residual cost is an
        integer-valued float, so the total is the same double in any
        summation order, and flushing only when the loop ran gives the
        key the same position in ``trace.residuals`` as the first pop
        would.
        """
        items = stack.items
        if not items:
            return
        heap = self.heap
        layout = heap.layout
        ops = fast_kernels.HeapOps(heap)
        words, base = ops.words, heap.base
        kinds, sizes, offsets = ops.kind, ops.size, ops.offsets
        n_kinds = ops.n_kinds
        buffer = memoryview(heap.buffer)
        roots = heap.roots
        hooked = bool(heap.ref_write_hooks)
        card_table = heap.card_table
        cards = memoryview(card_table.bytes)
        card_lo, card_bytes = card_table.covered_start, card_table.card_bytes
        eden, from_space = layout.eden, layout.survivor_from
        to_space, old = layout.survivor_to, layout.old
        e_lo, e_hi = eden.start, eden.end
        f_lo, f_hi = from_space.start, from_space.end
        o_lo, o_hi = old.start, old.end
        young_lo, young_hi = eden.start, layout.survivor_b.end
        threshold = self.tenuring_threshold
        copy_event, scan_event = trace.copy, trace.scan_push
        pop, push = items.pop, items.append
        # every evacuated object is visited, allocated and copied once
        pops = checks = copied = pushes_total = trivial = 0
        promoted = bytes_copied = 0
        while items:
            slot = pop()
            pops += 1
            ref = roots[-slot - 1] if slot < 0 \
                else words[(slot - base) >> 3]
            if ref == 0:
                continue
            if not (e_lo <= ref < e_hi or f_lo <= ref < f_hi):
                # null, old, or already-evacuated To-space object
                continue
            header = (ref - base) >> 3
            mark = words[header]
            checks += 1
            if mark & STATE_MASK == STATE_FORWARDED:
                new_addr = (mark >> FORWARD_SHIFT) << 3
            else:
                # Evacuate: decode, copy to To (or promote), forward,
                # then Scan&Push the copy's references.
                kid = words[header + 1]
                kind = kinds[kid] if 0 < kid < n_kinds else -1
                if kind == KIND_INSTANCE:
                    length, size = 0, sizes[kid]
                elif kind == KIND_OBJ_ARRAY:
                    length = words[header + 2]
                    size = ARRAY_ELEMENTS_OFFSET + length * WORD
                elif kind == KIND_TYPE_ARRAY:
                    length = words[header + 2]
                    size = (ARRAY_ELEMENTS_OFFSET
                            + (length + WORD - 1) // WORD * WORD)
                else:
                    ops.decode(ref)  # raises the scalar path's error
                age = min(((mark & AGE_MASK) >> AGE_SHIFT) + 1, MAX_AGE)
                if age >= threshold \
                        or to_space.top + size > to_space.end:
                    # aged out, or survivor overflow promotes early
                    new_addr = old.allocate(size)
                    new_mark = STATE_NORMAL
                    promoted += 1
                else:
                    new_addr = to_space.allocate(size)
                    new_mark = STATE_NORMAL | (age << AGE_SHIFT)
                src_off, dst_off = ref - base, new_addr - base
                buffer[dst_off:dst_off + size] = \
                    buffer[src_off:src_off + size]
                copy_event("evacuate", ref, new_addr, size)
                copied += 1
                bytes_copied += size
                words[dst_off >> 3] = new_mark
                # MarkWord.forwarded_to stays the one forwarding encoder
                # (once per copy; visits decode the raw word).
                words[header] = MarkWord(mark).forwarded_to(new_addr).raw
                pushes = 0
                if kind == KIND_OBJ_ARRAY:
                    n_slots = length
                    first = (dst_off >> 3) + ARRAY_ELEMENTS_OFFSET // WORD
                    target_slot = new_addr + ARRAY_ELEMENTS_OFFSET
                    for target in words[first:first + length].tolist():
                        if target and young_lo <= target < young_hi:
                            push(target_slot)
                            pushes += 1
                        target_slot += WORD
                elif kind == KIND_INSTANCE:
                    slot_offsets = offsets[kid]
                    n_slots = len(slot_offsets)
                    for offset in slot_offsets:
                        target = words[(dst_off + offset) >> 3]
                        if target and young_lo <= target < young_hi:
                            push(new_addr + offset)
                            pushes += 1
                else:
                    n_slots = 0
                if n_slots:
                    pushes_total += pushes
                    if n_slots <= ARRAY_SCAN_CHUNK:
                        scan_event("evacuate", new_addr, n_slots, pushes)
                    else:
                        for refs, chunk_pushes in chunk_refs(n_slots,
                                                             pushes):
                            scan_event("evacuate", new_addr, refs,
                                       chunk_pushes)
                else:
                    trivial += 1
            if slot < 0:
                roots[-slot - 1] = new_addr
            elif hooked:
                heap.store_ref(slot, new_addr)
            else:
                # store_ref's write barrier, inlined
                words[(slot - base) >> 3] = new_addr
                if o_lo <= slot < o_hi and young_lo <= new_addr < young_hi:
                    cards[(slot - card_lo) // card_bytes] = DIRTY
        trace.residual(
            "drain",
            pops * RESIDUAL_COSTS["pop"]
            + checks * (RESIDUAL_COSTS["check_mark"]
                        + RESIDUAL_COSTS["forward_update"])
            + copied * RESIDUAL_COSTS["allocate"]
            + pushes_total * RESIDUAL_COSTS["push"]
            + trivial * RESIDUAL_COSTS["scan_trivial"],
            CACHE_LINE * checks)
        trace.objects_visited += copied
        trace.objects_promoted += promoted
        trace.objects_copied += copied
        trace.bytes_copied += bytes_copied

    # -- internals ------------------------------------------------------------

    def _card_search(self, trace: GCTrace, stack: ObjectStack) -> None:
        heap = self.heap
        card_table = heap.card_table
        for table_addr, n_cards, found in card_table.search_blocks():
            trace.search("card-search", table_addr, n_cards, found)
        dirty = set(int(i) for i in card_table.dirty_card_indices())
        card_table.clear()
        if not dirty:
            return
        # Find the objects on dirty cards.  HotSpot resolves each dirty
        # card to its first object through the block-offset table; we
        # charge that lookup per dirty card, while (functionally) using
        # a parseable-space walk to locate the same objects.
        for _ in dirty:
            trace.residual("card-scan", RESIDUAL_COSTS["card_lookup"],
                           CACHE_LINE)
        for view in heap.iterate_space(heap.layout.old):
            if heap.is_filler(view):
                continue
            first = card_table.card_index(view.addr)
            last = card_table.card_index(view.end_addr - 1)
            if not any(card in dirty for card in range(first, last + 1)):
                continue
            slots = view.reference_slots()
            pushes = 0
            for slot in slots:
                target = heap.load_ref(slot)
                if target and heap.layout.in_young(target):
                    stack.push(slot)
                    pushes += 1
            if slots:
                for refs, chunk_pushes in chunk_refs(len(slots), pushes):
                    trace.scan_push("card-scan", view.addr, refs,
                                    chunk_pushes)
            else:
                trace.residual("card-scan",
                               RESIDUAL_COSTS["scan_trivial"])

    def _card_search_fast(self, trace: GCTrace,
                          stack: ObjectStack) -> None:
        """Vectorized Search: one pass over cards, batched candidate
        decode — identical events and pushes to :meth:`_card_search`."""
        heap = self.heap
        card_table = heap.card_table
        for table_addr, n_cards, found in \
                fast_kernels.search_blocks_fast(card_table):
            trace.search("card-search", table_addr, n_cards, found)
        dirty_indices = card_table.dirty_card_indices()
        card_table.clear()
        n_dirty = int(dirty_indices.shape[0])
        if not n_dirty:
            return
        trace.residual("card-scan",
                       RESIDUAL_COSTS["card_lookup"] * n_dirty,
                       CACHE_LINE * n_dirty)
        old = heap.layout.old
        parsed = fast_kernels.parse_space(heap, old.start, old.top)
        if not len(parsed):
            return
        not_filler = ((parsed.kids != heap.filler_klass.klass_id)
                      & (parsed.kids
                         != heap.filler_object_klass.klass_id))
        first = ((parsed.addrs - card_table.covered_start)
                 // card_table.card_bytes)
        last = ((parsed.end_addrs - 1 - card_table.covered_start)
                // card_table.card_bytes)
        flags = np.zeros(card_table.num_cards, dtype=np.int64)
        flags[dirty_indices] = 1
        cum = np.concatenate(([0], np.cumsum(flags)))
        candidates = np.flatnonzero(
            not_filler & (cum[last + 1] - cum[first] > 0))
        if not candidates.shape[0]:
            return
        batch = fast_kernels.gather_ref_slots(
            heap, parsed.addrs[candidates], parsed.kids[candidates],
            parsed.lengths[candidates])
        layout = heap.layout
        young = ((batch.targets != 0)
                 & (batch.targets >= layout.eden.start)
                 & (batch.targets < layout.survivor_b.end))
        # Flattened slot order equals the scalar per-object push order.
        for slot in batch.slots[np.flatnonzero(young)].tolist():
            stack.push(slot)
        push_cum = np.concatenate(
            ([0], np.cumsum(young.astype(np.int64))))
        seg = np.concatenate(([0], np.cumsum(batch.counts)))
        counts = batch.counts.tolist()
        addrs = parsed.addrs[candidates].tolist()
        for index, addr in enumerate(addrs):
            n_slots = counts[index]
            if not n_slots:
                trace.residual("card-scan",
                               RESIDUAL_COSTS["scan_trivial"])
                continue
            pushes = int(push_cum[seg[index + 1]]
                         - push_cum[seg[index]])
            for refs, chunk_pushes in chunk_refs(n_slots, pushes):
                trace.scan_push("card-scan", addr, refs, chunk_pushes)

    def _read_slot(self, slot: int) -> int:
        if slot < 0:
            return self.heap.roots[-slot - 1]
        return self.heap.load_ref(slot)

    def _write_slot(self, slot: int, value: int) -> None:
        if slot < 0:
            self.heap.roots[-slot - 1] = value
        else:
            self.heap.store_ref(slot, value)

    def _evacuate(self, addr: int, mark: MarkWord, trace: GCTrace,
                  stack: ObjectStack) -> int:
        """Copy ``addr`` to To (or promote to Old); returns the new address."""
        heap = self.heap
        layout = heap.layout
        view = heap.object_at(addr)
        size = view.size_bytes
        age = min(mark.age + 1, 15)
        promote = age >= self.tenuring_threshold
        if not promote and not layout.survivor_to.can_allocate(size):
            promote = True  # survivor overflow promotes early
        if promote:
            dst = layout.old.allocate(size)
            new_mark = MarkWord.fresh()
            trace.objects_promoted += 1
        else:
            dst = layout.survivor_to.allocate(size)
            new_mark = MarkWord.fresh().with_age(age)
        trace.residual("drain", RESIDUAL_COSTS["allocate"])

        heap.copy_bytes(addr, dst, size)
        trace.copy("evacuate", addr, dst, size)
        trace.objects_copied += 1
        trace.bytes_copied += size
        heap.set_mark_word(dst, new_mark)
        heap.set_mark_word(addr, mark.forwarded_to(dst))

        # Scan&Push the copy's references (push_contents, Fig. 11).
        # Reference-free klasses (type arrays) have a no-op iterate
        # strategy and are never offloaded; large object arrays are
        # scanned in bounded chunks as HotSpot does.
        new_view = heap.object_at(dst)
        pushes = 0
        slots = new_view.reference_slots()
        for slot in slots:
            target = heap.load_ref(slot)
            if target and layout.in_young(target):
                stack.push(slot)
                pushes += 1
                trace.residual("drain", RESIDUAL_COSTS["push"])
        if slots:
            for refs, chunk_pushes in chunk_refs(len(slots), pushes):
                trace.scan_push("evacuate", dst, refs, chunk_pushes)
        else:
            trace.residual("drain", RESIDUAL_COSTS["scan_trivial"])
        # A promoted object whose young references have not been updated
        # yet keeps its card dirty through the write barrier when the
        # drain updates each pushed slot.
        return dst

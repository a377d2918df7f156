"""Trace capture's fast paths against the per-object loops they replace.

Capture (the workload mutator plus the functional collectors) runs
three bit-exact shortcuts: :meth:`JavaHeap.store_refs` for batches of
reference stores, ``MutatorDriver.allocate_batch`` chunks in the
GraphChi loops, and residual tallies in the scavenger and mark drains
that are added to the trace once.  These tests pin each against its
sequential oracle:

* ``store_refs`` leaves the same words, card bytes, write-hook calls
  and exceptions as a loop of ``store_ref`` calls (Hypothesis);
* every residual cost is integer-valued, which is what makes a tallied
  sum the same double as the per-operation sum;
* batched allocation still polls the driver's step hooks;
* a reduced GraphChi capture gives the same events, ordered residuals,
  summaries and heap bytes under the fast and the scalar heap kernels.

``derandomize=True`` keeps the Hypothesis examples reproducible in CI.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.gcalgo.concurrent_mark import ConcurrentMarkGC
from repro.gcalgo.trace import FIXED_GC_INSTRUCTIONS, RESIDUAL_COSTS
from repro.heap.fast_kernels import use_kernel_mode
from repro.units import MB, WORD
from repro.workloads import base
from repro.workloads.mutator import MutatorDriver

from tests.conftest import TinyGraph, TinyPageRank, make_heap

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
HEAP_BYTES = 2 * MB

#: One store as (slot space, slot index, target kind, target index);
#: small index ranges make repeated slots and shared cards common.
stores = st.lists(
    st.tuples(st.sampled_from(["old", "young"]),
              st.integers(min_value=0, max_value=40),
              st.sampled_from(["null", "young", "old"]),
              st.integers(min_value=0, max_value=40)),
    max_size=40)


def resolve(heap, pairs):
    """Slot and target addresses for ``stores`` examples."""
    layout = heap.layout
    slots, targets = [], []
    for space, slot_index, kind, target_index in pairs:
        # Old slots are 9 words apart, so they spread over several
        # 512-byte cards.
        slots.append(layout.old.start + slot_index * 9 * WORD
                     if space == "old"
                     else layout.eden.start + slot_index * WORD)
        targets.append({"null": 0,
                        "young": layout.eden.start + 64 * target_index,
                        "old": layout.old.start + 48 * target_index}[kind])
    return slots, targets


def assert_same_state(heap_a, heap_b):
    assert bytes(heap_a.buffer) == bytes(heap_b.buffer)
    assert bytes(heap_a.card_table.bytes) == bytes(heap_b.card_table.bytes)


class TestStoreRefs:
    @SETTINGS
    @given(pairs=stores)
    def test_matches_sequential_store_ref(self, pairs):
        batched, looped = make_heap(HEAP_BYTES), make_heap(HEAP_BYTES)
        slots, targets = resolve(batched, pairs)
        batched.store_refs(slots, targets)
        for slot, target in zip(slots, targets):
            looped.store_ref(slot, target)
        assert_same_state(batched, looped)

    @SETTINGS
    @given(pairs=stores)
    def test_write_hooks_see_the_same_calls(self, pairs):
        batched, looped = make_heap(HEAP_BYTES), make_heap(HEAP_BYTES)
        calls = {"batched": [], "looped": []}
        batched.ref_write_hooks.append(
            lambda *call: calls["batched"].append(call))
        looped.ref_write_hooks.append(
            lambda *call: calls["looped"].append(call))
        slots, targets = resolve(batched, pairs)
        batched.store_refs(np.asarray(slots), np.asarray(targets))
        for slot, target in zip(slots, targets):
            looped.store_ref(slot, target)
        assert calls["batched"] == calls["looped"]
        assert len(calls["looped"]) == len(pairs)
        assert_same_state(batched, looped)

    @SETTINGS
    @given(pairs=stores,
           bad=st.sampled_from(["unaligned", "below", "above"]),
           position=st.integers(min_value=0, max_value=40))
    def test_bad_slot_raises_like_the_loop(self, pairs, bad, position):
        batched, looped = make_heap(HEAP_BYTES), make_heap(HEAP_BYTES)
        slots, targets = resolve(batched, pairs)
        bad_slot = {"unaligned": batched.layout.old.start + 4,
                    "below": batched.base - WORD,
                    "above": batched.layout.heap_end}[bad]
        position = min(position, len(slots))
        slots.insert(position, bad_slot)
        targets.insert(position, batched.layout.eden.start)
        with pytest.raises(Exception) as from_batch:
            batched.store_refs(slots, targets)
        with pytest.raises(Exception) as from_loop:
            for slot, target in zip(slots, targets):
                looped.store_ref(slot, target)
        assert type(from_batch.value) is type(from_loop.value)
        # The pairs before the bad slot landed in both.
        assert_same_state(batched, looped)


class TestArrayElements:
    def test_matches_array_load_and_checks_bounds(self):
        heap = make_heap(HEAP_BYTES)
        array = heap.new_object("objArray", length=6).addr
        for index in range(6):
            heap.array_store(array, index, heap.new_object("Box").addr)
        indices = [5, 0, 3, 3]
        assert heap.array_elements(array, indices).tolist() == [
            heap.array_load(array, index) for index in indices]
        assert heap.array_slots(array, [1]).tolist() == [array + 32]
        assert heap.array_elements(array, []).tolist() == []
        for bad in ([6], [-1], [0, 7]):
            with pytest.raises(ConfigError):
                heap.array_elements(array, bad)
        typed = heap.new_object("typeArray", length=16).addr
        with pytest.raises(ConfigError):
            heap.array_slots(typed, [0])


@pytest.mark.parametrize("table", ["RESIDUAL_COSTS",
                                   "FIXED_GC_INSTRUCTIONS"])
def test_residual_costs_are_integer_valued(table):
    """The drains add ``count * cost`` once instead of ``cost`` per
    operation; with integer-valued costs every partial sum is an exact
    double, so both give the same total bit for bit."""
    costs = {"RESIDUAL_COSTS": RESIDUAL_COSTS,
             "FIXED_GC_INSTRUCTIONS": FIXED_GC_INSTRUCTIONS}[table]
    for name, value in costs.items():
        assert float(value).is_integer(), name


def test_allocate_batch_polls_step_hooks():
    """A step hook (here the concurrent marker's pacer) must see every
    allocation of a batch, exactly as in a plain allocate loop."""

    def run(batched):
        heap = make_heap()
        driver = MutatorDriver(heap, run_name="paced-batch")
        gc = ConcurrentMarkGC(heap, region_bytes=64 * 1024)
        gc.install_step_hook(driver, period=4, budget=8)
        ring = driver.handle(driver.allocate("objArray", length=32).addr)
        for _ in range(40):
            driver.handle(driver.allocate("Node").addr)
        gc.start_cycle()
        stored = 0

        def sink(addrs):
            nonlocal stored
            for addr in addrs:
                heap.array_store(ring.addr, stored % 32, addr)
                stored += 1

        with use_kernel_mode("fast"):
            if batched:
                driver.allocate_batch("Record", 300, sink=sink)
            else:
                for _ in range(300):
                    sink([driver.allocate("Record").addr])
        return heap, driver, gc

    heap_a, driver_a, gc_a = run(batched=True)
    heap_b, driver_b, gc_b = run(batched=False)
    assert gc_a._pauses == gc_b._pauses == 300 // 4
    assert gc_a._trace.events == gc_b._trace.events
    assert list(gc_a._trace.residuals.items()) \
        == list(gc_b._trace.residuals.items())
    assert gc_a.marked == gc_b.marked
    assert bytes(heap_a.buffer) == bytes(heap_b.buffer)
    assert len(driver_a.run.traces) == len(driver_b.run.traces)


def capture(workload, mode, monkeypatch):
    """Run ``workload`` under heap-kernel ``mode``; returns the run and
    its heap."""
    heaps = []
    build_heap = base.Workload.build_heap

    def keep(self, heap_bytes=None):
        heaps.append(build_heap(self, heap_bytes))
        return heaps[-1]

    with monkeypatch.context() as patch:
        patch.setattr(base.Workload, "build_heap", keep)
        with use_kernel_mode(mode):
            run = workload.run(heap_bytes=3 * MB)
    return run, heaps[0]


@pytest.mark.parametrize("workload", [TinyGraph, TinyPageRank],
                         ids=["cc", "pr"])
def test_reduced_graphchi_capture_matches_scalar_kernels(workload,
                                                         monkeypatch):
    """Batched mutator loops, memoryview word access, drain tallies and
    batched forwarding against the scalar oracle, in one process (so
    both runs build the same hash-seeded graph)."""
    fast_run, fast_heap = capture(workload(), "fast", monkeypatch)
    scalar_run, scalar_heap = capture(workload(), "scalar", monkeypatch)
    assert fast_run.minor_count == scalar_run.minor_count >= 1
    assert fast_run.major_count == scalar_run.major_count >= 1
    for fast, scalar in zip(fast_run.traces, scalar_run.traces):
        assert fast.kind == scalar.kind
        assert fast.events == scalar.events
        assert list(fast.residuals.items()) \
            == list(scalar.residuals.items())
        assert fast.summary() == scalar.summary()
        assert fast.objects_visited == scalar.objects_visited
        assert fast.bytes_freed == scalar.bytes_freed
    assert (fast_run.allocated_objects, fast_run.allocated_bytes) \
        == (scalar_run.allocated_objects, scalar_run.allocated_bytes)
    assert fast_heap.roots == scalar_heap.roots
    assert_same_state(fast_heap, scalar_heap)

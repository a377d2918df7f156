"""Vectorized Charon stage 1 against its scalar oracle.

``CharonBatchedKernel.begin`` plans every row of a compiled trace with
numpy column arithmetic — Bitmap Count line lists and marking-phase
Scan&Push mark lines included.  The per-event ``_plan_events`` it
replaced stays in the tree as the reference: every test here plans one
trace both ways on the same platform and demands identical plans, the
same deferred accumulators, and identical device counters once they
are applied.  Lane slots are compared through the resource and lane
they name, since the two planners register resources in different
orders.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import default_config
from repro.errors import ProtectionFault
from repro.gcalgo.columnar import (PRIMITIVE_TYPE_CODES, CompiledTrace,
                                   compile_traces)
from repro.gcalgo.trace import Primitive
from repro.heap.heap import JavaHeap
from repro.platform.batched import CharonBatchedKernel
from repro.platform.factory import build_platform
from repro.workloads.base import workload_klasses
from repro.workloads.mutator import MutatorDriver

from tests.conftest import SMALL_HEAP_BYTES, make_heap

CODE_BITMAP = PRIMITIVE_TYPE_CODES[Primitive.BITMAP_COUNT]
CODE_SCAN = PRIMITIVE_TYPE_CODES[Primitive.SCAN_PUSH]
CODE_COPY = PRIMITIVE_TYPE_CODES[Primitive.COPY]
KINDS = ("minor", "major", "major-mixed", "sweep", "g1", "concurrent")

#: Charon variants: (platform name, config transform).
VARIANTS = {
    "charon": ("charon", lambda cfg: cfg),
    "charon-scan-local": ("charon",
                          lambda cfg: cfg.with_scan_push_local(True)),
    "charon-cpuside": ("charon-cpuside", lambda cfg: cfg),
    "charon-distributed": ("charon",
                           lambda cfg: cfg.with_distributed_charon(True)),
}


def wide_config(cfg):
    """72 cubes and 2 KB heap pages, so trace rows
    carry cube ids far past 64 (copy/search/scan units one per cube)."""
    return replace(
        cfg,
        hmc=replace(cfg.hmc, cubes=72),
        vm=replace(cfg.vm, huge_page_bytes=2048),
        charon=replace(cfg.charon, copy_search_units=72,
                       bitmap_count_units=72))


def build(variant, transform=None):
    name, variant_transform = VARIANTS[variant]
    cfg = variant_transform(default_config().with_heap_bytes(
        SMALL_HEAP_BYTES))
    if transform is not None:
        cfg = transform(cfg)
    heap = JavaHeap(cfg.heap, klasses=workload_klasses())
    return build_platform(name, cfg, heap)


def linked_major_trace():
    """A major collection over linked old-generation chains, so its
    marking scans push (the mixed run's major marks only leaves)."""
    heap = make_heap()
    driver = MutatorDriver(heap, run_name="linked")
    keep = []
    previous = 0
    for index in range(600):
        view = heap.new_object("Node", space=heap.layout.old)
        heap.set_field(view, 0, previous)
        previous = view.addr
        if index % 3 == 0:
            heap.new_object("typeArray", space=heap.layout.old,
                            length=64)
        if index % 40 == 39:
            keep.append(driver.handle(previous))
            previous = 0
    driver.major_gc()
    return driver.finish().traces


@pytest.fixture(scope="module")
def fixture_traces(mixed_run, g1_traces_session,
                   concurrent_traces_session):
    """One compiled trace per GC kind (the first of each), plus the
    mixed run's compacting major as ``major-mixed``."""
    traces = {}
    for trace in compile_traces(list(linked_major_trace())
                                + list(mixed_run.traces)
                                + list(g1_traces_session)
                                + list(concurrent_traces_session)):
        if trace.kind in traces and trace.kind == "major":
            traces.setdefault("major-mixed", trace)
        traces.setdefault(trace.kind, trace)
    assert set(traces) == set(KINDS)
    return traces


def oracle(kernel, compiled):
    """``_plan_events`` over the whole trace, on fresh accumulators."""
    info = kernel.device._require_init()
    kernel.map.refresh()
    state = kernel._fresh_state(len(compiled.events))
    kernel._plan_events(compiled, info, range(len(compiled.events)),
                        *state)
    return state


def normalized(kernel, state):
    """Plans and accumulators with lane slots and resource indices
    replaced by ``(resource, lane)`` identities."""
    plans, acc, batches, tallies = state
    resources = kernel.lanes.resources

    def slot(index):
        return id(resources[index // 2]), index % 2

    def stream(plan):
        slots, svcs, a, b, i1, i2 = plan
        return tuple(map(slot, slots)), svcs, a, b, i1, i2

    def ex_of(ex):
        kind = ex[0]
        if kind == "T":
            return ex
        if kind == "C":
            return ("C", tuple((slot(s), pen) for s, pen in ex[1]),
                    tuple(map(stream, ex[2])), tuple(map(stream, ex[3])))
        lookup = (slot(ex[1][0]), ex[1][1])
        if kind == "S":
            return ("S", lookup, tuple(map(stream, ex[2])), ex[3])
        if kind == "P":
            return ("P", lookup, stream(ex[2]),
                    tuple(map(stream, ex[3])), ex[4], ex[5])
        assert kind == "B"
        return ("B", lookup, ex[2], ex[3])

    assert None not in plans
    norm_plans = [(pool, req, resp, ex_of(ex))
                  for pool, req, resp, ex in plans]
    norm_acc = {id(resources[ri]): tuple(counters)
                for ri, counters in acc.items()}
    local = (kernel._local_bytes, kernel._remote_bytes)
    return norm_plans, norm_acc, batches, tallies, local


def counters(platform, kernel):
    """Every numeric counter _finish_accounting may touch."""
    def numeric(obj):
        return {key: value for key, value in vars(obj).items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)}

    device = platform.device
    snap = {"device": numeric(device), "hmc": numeric(device.hmc),
            "host_link": numeric(device.hmc.host_link)}
    for cube, queues in enumerate(device.queues):
        snap[f"queue{cube}"] = numeric(queues.ingress)
        for prim, queue in queues.per_primitive.items():
            snap[f"queue{cube}.{prim.name}"] = numeric(queue)
    for si, tlb in enumerate(kernel.tlbs):
        snap[f"tlb{si}"] = numeric(tlb)
    for resource in kernel.lanes.resources:
        snap[f"res:{resource.name}"] = numeric(resource)
    return snap


def assert_matches_oracle(variant, compiled, transform=None):
    """Vectorized stage 1 equals the oracle; returns the kernel."""
    platform = build(variant, transform)
    fast = CharonBatchedKernel(platform, threads=1)
    slow = CharonBatchedKernel(platform, threads=1)
    got = normalized(fast, fast._stage1(compiled))
    want = normalized(slow, oracle(slow, compiled))
    for index, (a, b) in enumerate(zip(got[0], want[0])):
        assert a == b, f"{variant} {compiled.kind}: plan {index} differs"
    assert got[1:] == want[1:]

    # Applied to fresh platforms, both leave identical device counters.
    applied = []
    for planner in (lambda k: k._stage1(compiled),
                    lambda k: oracle(k, compiled)):
        platform = build(variant, transform)
        kernel = CharonBatchedKernel(platform, threads=1)
        _, acc, batches, tallies = planner(kernel)
        kernel._finish_accounting(
            compiled, compiled.derived_columns()["is_copy"], batches,
            acc, tallies)
        applied.append(counters(platform, kernel))
    assert applied[0] == applied[1]
    return fast


def with_events(compiled, events):
    return CompiledTrace(compiled.kind, compiled.heap_bytes, events,
                         compiled.phase_names, compiled.residuals)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("kind", KINDS)
def test_vectorized_stage1_matches_scalar_oracle(fixture_traces, variant,
                                                 kind):
    compiled = fixture_traces[kind]
    kernel = assert_matches_oracle(variant, compiled)
    # Only multi-page ranges may reach the scalar planner.
    assert kernel.scalar_rows["bitmap_count"] == 0
    assert kernel.scalar_rows["mark_scan"] == 0
    assert kernel.scalar_rows["scan"] == 0


@pytest.mark.parametrize("kind", ["major", "g1", "concurrent"])
def test_line_blocks_split_anywhere(fixture_traces, monkeypatch, kind):
    """Per-line expansion in blocks far smaller than one row's lines
    still plans every row like the oracle."""
    from repro.platform import batched

    monkeypatch.setattr(batched, "LINE_BLOCK", 3)
    assert_matches_oracle("charon-distributed", fixture_traces[kind])


def test_fixture_traces_exercise_the_vectorized_rows(fixture_traces):
    """The oracle comparison is only as strong as its traces: they
    carry bitmap counts with multi-line ranges and marking scans with
    pushes."""
    for kind in ("major", "major-mixed"):
        ev = fixture_traces[kind].events
        assert ((ev["prim"] == CODE_BITMAP) & (ev["bits"] > 64)).any()
        assert ((ev["prim"] == CODE_BITMAP) & (ev["bits"] <= 0)).any()
    for kind in ("major", "g1", "concurrent"):
        ev = fixture_traces[kind].events
        assert ((ev["prim"] == CODE_SCAN) & (ev["refs"] > 0)
                & (ev["pushes"] > 0)).any(), kind


@pytest.mark.parametrize("variant", ["charon-cpuside",
                                     "charon-distributed"])
@pytest.mark.parametrize("kind", ["major", "g1"])
def test_more_than_64_cubes_match_oracle(fixture_traces, variant, kind):
    """Grouping keys and the ``[unit cube, owner]`` bitmap-cache table
    must not assume cube ids below 64."""
    compiled = fixture_traces[kind]
    platform = build(variant, wide_config)
    cubes = CharonBatchedKernel(platform, 1).map.lookup_columns(
        compiled.events["src"])[0]
    assert cubes.max() >= 64
    assert_matches_oracle(variant, compiled, wide_config)


def test_cube_ids_past_64_keep_their_own_group(fixture_traces):
    """Two copies whose (source, destination) cubes are (1, 64) and
    (2, 0) must not share a plan — with a fixed radix of 64 their
    cpu-side grouping keys coincide."""
    variant = "charon-cpuside"
    compiled = fixture_traces["minor"]
    platform = build(variant, wide_config)
    page = platform.config.vm.huge_page_bytes
    _, keys, cubes = next(table for table in CharonBatchedKernel(
        platform, 1).map.np_tables() if table[0] == page)
    base = {cube: int(keys[np.flatnonzero(cubes == cube)[0]])
            for cube in (0, 1, 2, 64)}
    events = compiled.events.copy()
    rows = np.flatnonzero((events["prim"] == CODE_COPY)
                          & (events["size_bytes"] > 0)
                          & (events["size_bytes"] <= page // 2))
    for row, (src, dst) in zip(rows[:2], ((1, 64), (2, 0))):
        events["src"][row] = base[src]
        events["dst"][row] = base[dst] + page // 2
        events["size_bytes"][row] = events["size_bytes"][rows[0]]
    assert_matches_oracle(variant, with_events(compiled, events),
                          wide_config)


@pytest.mark.parametrize("variant", ["charon", "charon-distributed"])
def test_high_address_mark_scan_takes_the_scalar_planner(fixture_traces,
                                                         variant):
    """A marking scan whose window hash overflows int64 is planned by
    the scalar planner (Python ints do not wrap) and still matches."""
    compiled = fixture_traces["major"]
    events = compiled.events.copy()
    rows = np.flatnonzero((events["prim"] == CODE_SCAN)
                          & (events["refs"] > 0) & (events["pushes"] > 0))
    high = 1 << 50
    events["src"][rows[len(rows) // 2]] = high + 0x1230
    assert (high >> 14) * 2654435761 >= 2 ** 63
    bad = with_events(compiled, events)

    platform = build(variant)
    page = platform.config.vm.huge_page_bytes
    platform.device.context.vm.map_pinned(
        high, page, page, pcid=platform.device.context.pcid)
    fast = CharonBatchedKernel(platform, threads=1)
    slow = CharonBatchedKernel(platform, threads=1)
    got = normalized(fast, fast._stage1(bad))
    want = normalized(slow, oracle(slow, bad))
    assert got == want
    assert fast.scalar_rows["mark_scan"] == 1
    assert fast.scalar_rows["bitmap_count"] == 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("target", ["bitmap", "scan", "both", "copy"])
def test_unmapped_address_raises_the_oracle_fault(fixture_traces, variant,
                                                  target):
    """An unmapped address raises the same ProtectionFault (same event,
    same address) as the scalar planner, and leaves the platform's
    counters untouched."""
    compiled = fixture_traces["major"]
    events = compiled.events.copy()
    bitmap_rows = np.flatnonzero((events["prim"] == CODE_BITMAP)
                                 & (events["bits"] > 0))
    scan_rows = np.flatnonzero((events["prim"] == CODE_SCAN)
                               & (events["refs"] > 0))
    if target in ("bitmap", "both"):
        events["src"][bitmap_rows[len(bitmap_rows) // 2]] = 1 << 44
    if target in ("scan", "both"):
        events["src"][scan_rows[len(scan_rows) // 3]] = (1 << 45) + 64
    if target == "copy":
        copy_rows = np.flatnonzero((events["prim"] == CODE_COPY)
                                   & (events["size_bytes"] > 0))
        events["dst"][copy_rows[len(copy_rows) // 2]] = 1 << 46
    bad = with_events(compiled, events)

    platform = build(variant)
    kernel = CharonBatchedKernel(platform, threads=1)
    before = counters(platform, kernel)
    with pytest.raises(ProtectionFault) as fast:
        kernel.begin(bad)
    after = counters(platform, kernel)
    assert {key: after[key] for key in before} == before
    # Resources the planner met on the way were registered, not charged.
    for key in set(after) - set(before):
        assert after[key]["bytes_served"] == after[key]["requests"] == 0
    with pytest.raises(ProtectionFault) as slow:
        oracle(CharonBatchedKernel(platform, threads=1), bad)
    assert str(fast.value) == str(slow.value)


def test_scalar_rows_metric_reaches_repro_stats(fixture_traces):
    """Each batched replay adds its per-class scalar-row counts to
    ``replay.kernel_scalar_rows``, which ``repro stats`` mirrors."""
    from repro.obs.adapters import replay_kernel_metrics
    from repro.obs.metrics import MetricsRegistry, global_metrics
    from repro.platform.fast_replay import FastTraceReplayer

    compiled = fixture_traces["major-mixed"]
    scope = global_metrics().scope("replay")
    labels = {"kernel": "charon-batched", "platform": "charon"}
    rows = {row: scope.counter("kernel_scalar_rows", "", row=row,
                               **labels)
            for row in ("copy", "bitmap_count", "mark_scan")}
    before = {row: counter.value for row, counter in rows.items()}
    platform = build("charon")
    replayer = FastTraceReplayer(platform)
    replayer.replay(compiled)
    taken = replayer.kernel.scalar_rows
    assert taken["bitmap_count"] == taken["mark_scan"] == 0
    for row, counter in rows.items():
        assert counter.value == before[row] + taken[row]
    registry = MetricsRegistry()
    replay_kernel_metrics(registry)
    assert any(sample["metric"] == "replay.kernel_scalar_rows"
               for sample in registry.samples())

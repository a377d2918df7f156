"""Tests for the columnar (compiled) trace representation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gcalgo.columnar import (CompiledTrace, EVENT_DTYPE,
                                   NO_BITS_CACHED, STAT_FIELDS,
                                   compile_trace, compile_traces)
from repro.gcalgo.trace import GCTrace, Primitive, ResidualWork
from repro.gcalgo.trace_io import trace_to_dict


def all_traces(mixed_run, tiny_spark_run):
    return mixed_run.traces + tiny_spark_run.traces


class TestRoundTrip:
    def test_compile_is_lossless(self, mixed_run, tiny_spark_run):
        for trace in all_traces(mixed_run, tiny_spark_run):
            again = compile_trace(trace).to_trace()
            assert trace_to_dict(again) == trace_to_dict(trace)

    def test_stats_counters_carried(self, mixed_run):
        for trace in mixed_run.traces:
            compiled = compile_trace(trace)
            for name in STAT_FIELDS:
                assert getattr(compiled, name) == getattr(trace, name)

    def test_bits_cached_none_encoding(self):
        trace = GCTrace("major")
        trace.bitmap_count("compact", 0x1000, bits=64)
        trace.bitmap_count("compact", 0x2000, bits=64, bits_cached=0)
        trace.bitmap_count("compact", 0x3000, bits=64, bits_cached=17)
        compiled = compile_trace(trace)
        column = compiled.events["bits_cached"].tolist()
        assert column == [NO_BITS_CACHED, 0, 17]
        events = compiled.to_trace().events
        assert [e.bits_cached for e in events] == [None, 0, 17]

    def test_compile_traces_passes_through_compiled(self, mixed_run):
        compiled = compile_traces(mixed_run.traces)
        again = compile_traces(compiled)
        assert all(a is b for a, b in zip(again, compiled))


class TestPhaseStructure:
    def test_phase_runs_match_event_replayer_segmentation(
            self, mixed_run, tiny_spark_run):
        for trace in all_traces(mixed_run, tiny_spark_run):
            assert compile_trace(trace).phase_runs() == trace.phase_runs()

    def test_phase_runs_cover_all_events(self, mixed_run):
        for trace in mixed_run.traces:
            compiled = compile_trace(trace)
            runs = compiled.phase_runs()
            assert runs[0][1] == 0
            assert runs[-1][2] == len(compiled)
            for (_, _, stop), (_, start, _) in zip(runs, runs[1:]):
                assert stop == start

    def test_empty_trace_has_no_runs(self):
        compiled = compile_trace(GCTrace("minor"))
        assert compiled.phase_runs() == []
        assert len(compiled) == 0


class TestSummary:
    def test_summary_matches_object_form(self, mixed_run, tiny_spark_run):
        for trace in all_traces(mixed_run, tiny_spark_run):
            assert compile_trace(trace).summary() == trace.summary()


class TestValidation:
    def test_unknown_kind_rejected(self):
        events = np.empty(0, dtype=EVENT_DTYPE)
        with pytest.raises(ValueError, match="unknown GC kind"):
            CompiledTrace("epsilon", 0, events, [])

    def test_wrong_dtype_rejected(self):
        events = np.zeros(4, dtype=np.int64)
        with pytest.raises(ConfigError, match="dtype"):
            CompiledTrace("minor", 0, events, [])

    def test_unknown_stats_rejected(self):
        events = np.empty(0, dtype=EVENT_DTYPE)
        with pytest.raises(ConfigError, match="unknown trace stats"):
            CompiledTrace("minor", 0, events, [], objects_teleported=1)

    def test_too_many_phases_rejected(self):
        trace = GCTrace("major")
        for index in range(np.iinfo(np.uint16).max + 2):
            trace.scan_push(f"phase-{index}", obj=index, refs=1, pushes=0)
        with pytest.raises(ConfigError, match="too many distinct phases"):
            compile_trace(trace)


class TestResiduals:
    def test_residual_order_preserved(self, mixed_run):
        for trace in mixed_run.traces:
            compiled = compile_trace(trace)
            assert list(compiled.residuals) == list(trace.residuals)
            for phase, work in trace.residuals.items():
                copy = compiled.residuals[phase]
                assert copy is not work  # deep-copied, not aliased
                assert copy.instructions == work.instructions
                assert copy.bytes_accessed == work.bytes_accessed

    def test_residuals_not_aliased_through_round_trip(self):
        trace = GCTrace("minor")
        trace.residual("setup", 100.0, bytes_accessed=64)
        compiled = compile_trace(trace)
        compiled.residuals["setup"].add(1.0)
        assert trace.residuals["setup"].instructions == 100.0
        again = compiled.to_trace()
        again.residuals["setup"].add(5.0)
        assert compiled.residuals["setup"].instructions == 101.0
        assert isinstance(again.residuals["setup"], ResidualWork)


def test_mixed_run_covers_every_primitive(mixed_run):
    """Guard the fixture the golden tests lean on: between them the
    mixed run's minor/major/sweep traces must exercise all four
    offloadable primitives."""
    kinds = [trace.kind for trace in mixed_run.traces]
    assert {"minor", "major", "sweep"} <= set(kinds)
    seen = {event.primitive
            for trace in mixed_run.traces for event in trace.events}
    assert seen == set(Primitive)

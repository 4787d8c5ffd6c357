"""Tests for the opt-in execution tracer."""

import numpy as np
import pytest

from repro import simt
from repro.simt import (
    AtomicKind,
    AtomicRMW,
    Compute,
    Engine,
    MemRead,
    Tracer,
)


def demo_kernel(ctx):
    yield Compute(10)
    rd = MemRead("buf", ctx.lane)
    yield rd
    yield AtomicRMW("ctr", 0, AtomicKind.ADD, 1)


class TestTracer:
    def test_records_every_op_in_issue_order(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        res = eng.launch(tracer.wrap(demo_kernel), 3)
        assert len(tracer.events) == res.stats.issued_ops == 9
        assert [e.seq for e in tracer.events] == list(range(9))
        assert tracer.counts_by_kind() == {
            "Compute": 3, "MemRead": 3, "AtomicRMW": 3,
        }

    def test_results_unchanged_by_tracing(self, testgpu):
        def run(tracer):
            eng = Engine(testgpu)
            eng.memory.alloc("buf", 64)
            eng.memory.alloc("ctr", 1)
            kern = tracer.wrap(demo_kernel) if tracer else demo_kernel
            res = eng.launch(kern, 3)
            return res.cycles, int(eng.memory["ctr"][0])

        assert run(None) == run(Tracer())

    def test_filtering(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        eng.launch(tracer.wrap(demo_kernel), 2)
        assert len(tracer.filter(wf_id=0)) == 3
        assert len(tracer.filter(kind="AtomicRMW")) == 2
        assert len(tracer.filter(detail_contains="ctr")) == 2
        assert len(tracer.filter(wf_id=1, kind="Compute")) == 1

    def test_render(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        eng.launch(tracer.wrap(demo_kernel), 1)
        text = tracer.render()
        assert "MemRead" in text and "ctr:add" in text

    def test_truncation(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer(max_events=2)
        eng.launch(tracer.wrap(demo_kernel), 2)
        assert len(tracer.events) == 2
        assert tracer.truncated
        assert "truncated" in tracer.render()

    def test_invalid_max_events(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)

    def test_truncation_respects_exact_cap_and_keeps_seqs(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer(max_events=5)
        res = eng.launch(tracer.wrap(demo_kernel), 3)
        assert len(tracer.events) == 5
        assert [e.seq for e in tracer.events] == list(range(5))
        assert tracer.truncated
        assert res.stats.issued_ops == 9  # simulation itself untouched

    def test_counts_by_kind_totals_match_issued_ops(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        res = eng.launch(tracer.wrap(demo_kernel), 4)
        assert sum(tracer.counts_by_kind().values()) == res.stats.issued_ops


class TestTracerCycles:
    """Issue-cycle + lane-count stamping via the probe hook."""

    def test_cycles_recorded_when_tracer_is_the_probe(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        res = eng.launch(tracer.wrap(demo_kernel), 2, observers=[tracer])
        cycles = [e.cycle for e in tracer.events]
        assert all(c >= 0 for c in cycles)
        assert cycles == sorted(cycles)  # engine issues in time order
        assert max(cycles) <= res.cycles
        # per-wavefront streams start at cycle 0 (first issue of wf 0)
        assert min(cycles) == 0

    def test_lane_counts(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        eng.launch(tracer.wrap(demo_kernel), 1, observers=[tracer])
        by_kind = {e.kind: e.lanes for e in tracer.events}
        assert by_kind["Compute"] == testgpu.wavefront_size
        assert by_kind["MemRead"] == testgpu.wavefront_size  # per-lane index
        assert by_kind["AtomicRMW"] == 1  # scalar address

    def test_cycle_is_minus_one_without_probe(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        eng.launch(tracer.wrap(demo_kernel), 1)
        assert all(e.cycle == -1 for e in tracer.events)

    def test_render_shows_cycle_column_only_when_timed(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        timed = Tracer()
        eng.launch(timed.wrap(demo_kernel), 1, observers=[timed])
        assert "cycle" in timed.render()

        untimed = Tracer()
        eng2 = Engine(testgpu)
        eng2.memory.alloc("buf", 64)
        eng2.memory.alloc("ctr", 1)
        eng2.launch(untimed.wrap(demo_kernel), 1)
        assert "cycle" not in untimed.render()
        assert "lanes" in untimed.render()

    def test_render_elision_note(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("buf", 64)
        eng.memory.alloc("ctr", 1)
        tracer = Tracer()
        eng.launch(tracer.wrap(demo_kernel), 3)
        text = tracer.render(limit=2)
        assert "7 more events not shown" in text

    def test_results_unchanged_by_probing_the_traced_launch(self, testgpu):
        def run(probed):
            eng = Engine(testgpu)
            eng.memory.alloc("buf", 64)
            eng.memory.alloc("ctr", 1)
            tracer = Tracer()
            res = eng.launch(
                tracer.wrap(demo_kernel), 3,
                observers=[tracer] if probed else [],
            )
            return res.cycles, res.stats.snapshot(), int(eng.memory["ctr"][0])

        assert run(True) == run(False)

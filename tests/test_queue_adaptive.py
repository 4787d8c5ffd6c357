"""Unit tests for the adaptive-capacity queue variants (GROW / SPILL).

Direct engine runs — no verify-layer scaffolding — pinning the two
overflow strategies of :mod:`repro.core.queue_adaptive`:

* GROW chains pool segments under a single never-retried CAS and
  recycles drained ones, so a buffer of ``pool_segments * seg_cap``
  resident slots serves a workload whose total store demand is far
  larger;
* SPILL dead-drops overflowing publishes into a host-side ring and the
  drain pump re-injects them below the low-water mark, so a small ring
  completes workloads that would abort every fixed-capacity variant.

Both must deliver exact task accounting (the countdown/fanout workloads
have closed-form totals) and expose their protocol traffic through the
``queue.grow.*`` / ``queue.spill.*`` stat counters and the timeline
probe streams consumed by :mod:`repro.obs.metrics`.
"""

import numpy as np
import pytest

from repro import simt
from repro.core import (
    FRONT,
    REAR,
    GrowQueue,
    SchedulerControl,
    SpillQueue,
    persistent_kernel,
)
from repro.core.queue_adaptive import (
    K_GROW_LINKS,
    K_GROW_PEAK_LIVE,
    K_GROW_RELEASES,
    K_SPILL_PUMP_RUNS,
    K_SPILL_REINJECTED,
    K_SPILL_TOKENS,
)
from repro.verify.workloads import CountdownWorker, build

DONE = "scheduler.tasks_completed"


def _run(queue, workload, scale, n_wf, max_work_cycles=100_000):
    worker, seeds, expected = build(workload, scale)
    res, sched, eng = _launch(queue, worker, seeds, n_wf, max_work_cycles)
    return res, expected, sched, eng


def _launch(queue, worker, seeds, n_wf, max_work_cycles=100_000):
    eng = simt.Engine(simt.TESTGPU)
    sched = SchedulerControl()
    queue.allocate(eng.memory)
    sched.allocate(eng.memory)
    queue.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))
    kern = persistent_kernel(queue, worker, sched)
    res = eng.launch(kern, n_wf, params={"max_work_cycles": max_work_cycles})
    return res, sched, eng


class TestGrowQueue:
    def test_rejects_circular(self):
        with pytest.raises(ValueError, match="circular"):
            GrowQueue(64, circular=True)

    def test_geometry_defaults(self):
        q = GrowQueue(48, seg_cap=8, pool_segments=6)
        assert q.capacity == 48
        assert q.growable
        assert q.logical_capacity == q.max_segments * q.seg_cap
        assert q.logical_capacity >= 48

    def test_completes_workload_larger_than_resident_buffer(self):
        # countdown/20 stores 60 tokens total through 24 resident slots:
        # impossible without linking fresh segments and recycling
        # drained ones.
        q = GrowQueue(24, seg_cap=8, pool_segments=3)
        res, expected, sched, eng = _run(q, "countdown", 20, 6)
        assert res.stats.custom[DONE] == expected
        assert sched.pending(eng.memory) == 0
        assert res.stats.custom[K_GROW_LINKS] >= 1
        assert res.stats.custom[K_GROW_RELEASES] >= 1
        assert res.stats.custom[K_GROW_PEAK_LIVE] <= 3

    def test_pool_exhaustion_aborts_with_queue_full(self):
        # fanout/63 keeps ~63 tokens resident at its widest level; a
        # 3 x 8 pool cannot hold that and must abort gracefully, naming
        # the pool — not wedge or deliver short.
        q = GrowQueue(24, seg_cap=8, pool_segments=3)
        with pytest.raises(simt.KernelAbort, match="segment pool exhausted"):
            _run(q, "fanout", 63, 6)

    def test_runs_the_rfan_protocol_not_a_copy(self):
        # GROW is storage hooks under RetryFreeQueue's acquire/publish.
        for name in ("acquire", "publish", "drain_host"):
            assert name not in vars(GrowQueue), name

    def test_seed_beyond_one_segment_links_on_the_host(self):
        # 20 tokens at seg_cap=8 span logical segments 0-2: the host
        # links each segment as seeding reaches it, and drain_host reads
        # every token back through the map.
        mem = simt.GlobalMemory()
        q = GrowQueue(24, seg_cap=8, pool_segments=3)
        q.allocate(mem)
        toks = list(range(100, 120))
        assert q.seed(mem, toks) == 20
        segmap = mem[q.buf_segmap]
        assert sorted(segmap[:3].tolist()) == [0, 1, 2]
        assert (segmap[3:] == -1).all()
        assert sorted(q.drain_host(mem).tolist()) == toks

    def test_device_consumes_host_linked_segments(self):
        # seeds spanning three segments, each spawning one child: every
        # seeded token is found through the host-linked map.
        q = GrowQueue(32, seg_cap=8)
        res, sched, eng = _launch(q, CountdownWorker(), [1] * 20, 4)
        assert res.stats.custom[DONE] == 40
        assert sched.pending(eng.memory) == 0
        assert q.drain_host(eng.memory).size == 0

    def test_drain_host_skips_unmapped_segments(self):
        # raw 8..15 lie between Front and Rear in logical segment 1,
        # which no one linked: drain_host must skip them, not read a
        # physical slot for them (the flat slot 8.., or the slot an
        # unmapped -1 would translate to).
        mem = simt.GlobalMemory()
        q = GrowQueue(24, seg_cap=8, pool_segments=3)
        q.allocate(mem)
        q.seed(mem, [7, 8, 9])
        mem[q.buf_data][8:] = 999  # every pool segment but segment 0
        mem[q.buf_ctrl][FRONT] = 1
        mem[q.buf_ctrl][REAR] = 16
        assert mem[q.buf_segmap][1] == -1
        assert q.drain_host(mem).tolist() == [8, 9]

    def test_deterministic_across_reruns(self):
        outs = []
        for _ in range(2):
            q = GrowQueue(24, seg_cap=8, pool_segments=3)
            res, expected, _, _ = _run(q, "countdown", 20, 6)
            outs.append(
                (res.cycles, res.stats.custom[DONE],
                 res.stats.custom[K_GROW_LINKS],
                 res.stats.custom[K_GROW_RELEASES])
            )
        assert outs[0] == outs[1]


class TestSpillQueue:
    def test_forces_circular_and_validates_watermarks(self):
        q = SpillQueue(24)
        assert q.circular and q.spillable
        with pytest.raises(ValueError, match="low_water"):
            SpillQueue(24, high_water=10, low_water=20)
        with pytest.raises(ValueError, match="low_water"):
            SpillQueue(24, high_water=30, low_water=2)

    def test_overflow_spills_and_reinjects_everything(self):
        # fanout/255 through a 24-slot ring with 16 resident lanes:
        # bursts past the high-water mark must dead-drop to the host
        # ring and every spilled token must come back via the pump.
        q = SpillQueue(24, spill_capacity=1024, high_water=10, low_water=6)
        res, expected, sched, eng = _run(q, "fanout", 255, 2)
        assert res.stats.custom[DONE] == expected
        assert sched.pending(eng.memory) == 0
        assert res.stats.custom[K_SPILL_TOKENS] > 0
        assert (
            res.stats.custom[K_SPILL_REINJECTED]
            == res.stats.custom[K_SPILL_TOKENS]
        )
        assert res.stats.custom[K_SPILL_PUMP_RUNS] >= 1

    def test_no_spill_when_ring_is_roomy(self):
        q = SpillQueue(256, spill_capacity=1024)
        res, expected, _, _ = _run(q, "fanout", 63, 2)
        assert res.stats.custom[DONE] == expected
        assert res.stats.custom.get(K_SPILL_TOKENS, 0) == 0

    def test_deterministic_across_reruns(self):
        outs = []
        for _ in range(2):
            q = SpillQueue(
                24, spill_capacity=1024, high_water=10, low_water=6
            )
            res, expected, _, _ = _run(q, "fanout", 255, 2)
            outs.append(
                (res.cycles, res.stats.custom[DONE],
                 res.stats.custom[K_SPILL_TOKENS])
            )
        assert outs[0] == outs[1]


class TestAdaptiveObservability:
    """The probe streams and metrics sections the advisor feeds on."""

    def test_grow_metrics_sections(self):
        from repro.obs import ProfileSession

        with ProfileSession(bins=16) as session:
            q = GrowQueue(24, seg_cap=8, pool_segments=3)
            _run(q, "countdown", 20, 6)
        m = session.launches[-1]["metrics"]
        wq = m["queues"]["wq"]
        assert wq["fill_hist"] is not None
        assert wq["fill_hist"]["samples"] > 0
        grow = wq["grow"]
        assert grow["segment_links"] >= 1
        assert grow["segment_releases"] >= 1
        # bounded steady-state memory: resident segments never exceed
        # the pool (host segment 0 + device-linked pool segments).
        assert grow["peak_linked_segments"] <= 3
        assert m["wavefront_size"] == simt.TESTGPU.wavefront_size

    def test_spill_metrics_sections(self):
        from repro.obs import ProfileSession

        with ProfileSession(bins=16) as session:
            q = SpillQueue(
                24, spill_capacity=1024, high_water=10, low_water=6
            )
            _run(q, "fanout", 255, 2)
        m = session.launches[-1]["metrics"]
        spill = m["queues"]["wq"]["spill"]
        assert spill["spilled"] > 0
        assert spill["reinjected"] == spill["spilled"]
        assert spill["peak_overflow_depth"] >= 1
        # conservation in the step series: the overflow ring drains to
        # empty by the end of the run.
        assert spill["overflow_depth"][-1] == 0

    def test_timeline_probe_streams(self):
        from repro.obs.timeline import TimelineProbe
        from test_simt_engine import FactorySession

        probe = TimelineProbe()
        with FactorySession(lambda: probe):
            q = GrowQueue(24, seg_cap=8, pool_segments=3)
            _run(q, "countdown", 20, 6)
        links = probe.segment_links.get("wq", [])
        releases = probe.segment_releases.get("wq", [])
        assert links and releases
        # a segment is only recycled after it was linked: cumulative
        # releases never outrun cumulative links (+1 for the host-mapped
        # segment 0, which seeds the logical space without a link event).
        events = sorted(
            [(c, 1) for c, _, _ in links] + [(c, -1) for c, _, _ in releases]
        )
        live = 1
        for _, d in events:
            live += d
            assert live >= 0
            assert live <= 3  # never more resident than the pool

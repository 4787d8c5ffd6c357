"""Determinism and hot-path-equivalence guards for the engine.

The engine's wall-clock fast paths (combined free+ready events, deferred
CU wakes, per-launch latency caches, index-span caching) are pure
optimizations: they must never change a single simulated cycle, stats
counter, or memory word.  These tests pin that invariant:

* the same launch run twice produces bit-identical results;
* ops issued through the precomputed fast path (``trans``/``prechecked``)
  and the generic path simulate identically;
* a CU draining thousands of immediately-exiting wavefronts completes
  without recursion (the issue loop is iterative);
* attaching an observability probe (``repro.obs``) perturbs nothing:
  profiled and unprofiled runs agree on every cycle, counter, and cost.
"""

import numpy as np
import pytest

from repro.bfs import run_persistent_bfs

# every test here re-simulates full BFS launches two or three times to
# compare them bit-for-bit — by far the costliest file in the suite, so
# it rides the slow CI shard (pytest -m slow).
pytestmark = pytest.mark.slow
from repro.graphs import dataset
from repro.simt import (
    Compute,
    DeviceSpec,
    Engine,
    GlobalMemory,
    MemRead,
    MemWrite,
    TESTGPU,
)
from repro.simt.engine import transactions_for


def test_same_bfs_launch_twice_is_bit_identical():
    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    runs = []
    for _ in range(2):
        run = run_persistent_bfs(
            g, spec.source, "RF/AN", TESTGPU, 4, verify=False
        )
        runs.append(run)
    a, b = runs
    assert a.cycles == b.cycles
    assert a.stats.snapshot() == b.stats.snapshot()
    assert np.array_equal(a.costs, b.costs)


def _rw_kernel(precomputed):
    """Reads and writes a strided window; optionally via the fast path."""

    def kernel(ctx):
        idx = (ctx.global_thread_base + ctx.lane * 2) % 256
        for i in range(30):
            if precomputed:
                read = MemRead(
                    "data", idx, trans=transactions_for(idx), prechecked=True
                )
            else:
                read = MemRead("data", idx)
            yield read
            vals = read.result + 1
            if precomputed:
                yield MemWrite(
                    "data", idx, vals,
                    trans=transactions_for(idx), prechecked=True,
                )
            else:
                yield MemWrite("data", idx, vals)
            yield Compute(3)

    return kernel


def _run_rw(precomputed):
    mem = GlobalMemory()
    mem.alloc("data", 256, fill=7)
    eng = Engine(TESTGPU, mem)
    res = eng.launch(_rw_kernel(precomputed), 6)
    return res, mem["data"].copy()


def test_fast_path_and_generic_path_simulate_identically():
    res_fast, mem_fast = _run_rw(precomputed=True)
    res_gen, mem_gen = _run_rw(precomputed=False)
    assert res_fast.cycles == res_gen.cycles
    assert res_fast.stats.snapshot() == res_gen.stats.snapshot()
    assert np.array_equal(mem_fast, mem_gen)


@pytest.mark.parametrize("variant", ["BASE", "AN", "RF/AN"])
def test_profiled_run_is_bit_identical_to_unprofiled(variant):
    from repro.obs import TimelineProbe

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, variant, TESTGPU, 4, verify=False
    )
    probe = TimelineProbe()
    profiled = run_persistent_bfs(
        g, spec.source, variant, TESTGPU, 4, verify=False, observers=[probe]
    )
    assert plain.cycles == profiled.cycles
    assert plain.stats.snapshot() == profiled.stats.snapshot()
    assert np.array_equal(plain.costs, profiled.costs)
    # and the probe did record the launch it watched
    assert probe.cycles == profiled.cycles
    assert len(probe.issues) > 0
    assert probe.queues  # queue registered itself


def test_profile_session_does_not_perturb_or_leak():
    import repro.simt.engine as engine_mod
    from repro.obs import ProfileSession

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, "RF/AN", TESTGPU, 4, verify=False
    )
    assert engine_mod.attached() == ()
    with ProfileSession(bins=16) as session:
        profiled = run_persistent_bfs(
            g, spec.source, "RF/AN", TESTGPU, 4, verify=False
        )
    assert engine_mod.attached() == ()  # nothing attached after exit
    assert plain.cycles == profiled.cycles
    assert plain.stats.snapshot() == profiled.stats.snapshot()
    assert len(session.launches) == 1
    assert session.launches[0]["metrics"]["cycles"] == plain.cycles


def test_metrics_session_does_not_perturb_or_leak():
    # run-level metrics ride a launch_end-only observer, which fires
    # after a launch's stats are final: metered and bare runs must agree on
    # every cycle, counter, and cost.
    import repro.simt.engine as engine_mod
    from repro.obs import MetricsSession

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, "RF/AN", TESTGPU, 4, verify=False
    )
    assert engine_mod.attached() == ()
    with MetricsSession() as session:
        metered = run_persistent_bfs(
            g, spec.source, "RF/AN", TESTGPU, 4, verify=False
        )
    assert engine_mod.attached() == ()  # nothing attached after exit
    assert plain.cycles == metered.cycles
    assert plain.stats.snapshot() == metered.stats.snapshot()
    assert np.array_equal(plain.costs, metered.costs)
    # and the registry really saw the launch
    reg = session.registry
    assert reg.total("sim.launches") == 1
    assert reg.total("sim.cycles") == plain.cycles
    assert reg.value("sim.issued_ops", device="TestGPU") == (
        plain.stats.issued_ops
    )


@pytest.mark.parametrize("variant", ["BASE", "AN", "RF/AN"])
def test_blamed_run_is_bit_identical_to_bare(variant):
    # the blame recorder subscribes to extra hooks (wf_phase,
    # sched_done, on_atomic_queued) that every queue variant and both
    # persistent kernels emit; all of them sit behind the usual
    # `probe is not None` gate, so a blamed run must agree with a bare
    # one on every cycle, counter, and cost.
    from repro.obs import BlameProbe

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, variant, TESTGPU, 4, verify=False
    )
    probe = BlameProbe()
    blamed = run_persistent_bfs(
        g, spec.source, variant, TESTGPU, 4, verify=False, observers=[probe]
    )
    assert plain.cycles == blamed.cycles
    assert plain.stats.snapshot() == blamed.stats.snapshot()
    assert np.array_equal(plain.costs, blamed.costs)
    # and the recorder really captured blame evidence
    assert probe.phase_log
    assert probe.done_event is not None


def test_blamed_naive_cas_run_is_bit_identical_to_bare():
    # the naive-CAS ablation queue emits the blame phase marks too
    from repro.core import SchedulerControl, persistent_kernel
    from repro.ext import NaiveCasQueue
    from repro.obs import BlameProbe

    def launch(*observers):
        eng = Engine(TESTGPU)
        sched = SchedulerControl()
        q = NaiveCasQueue(capacity=4096)
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [40, 17])
        sched.seed(eng.memory, 2)
        from test_core_scheduler import CountdownWorker

        kern = persistent_kernel(q, CountdownWorker(), sched)
        res = eng.launch(
            kern, 6, params={"max_work_cycles": 500_000},
            observers=observers,
        )
        return res

    plain = launch()
    probe = BlameProbe()
    blamed = launch(probe)
    assert plain.cycles == blamed.cycles
    assert plain.stats.snapshot() == blamed.stats.snapshot()
    assert probe.phase_log


def test_blamed_sharded_run_is_bit_identical_to_bare():
    from repro.bfs.common import bfs_queue_capacity
    from repro.core import ShardedQueue
    from repro.obs import BlameProbe

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    cap = bfs_queue_capacity(g, TESTGPU, 4)
    factory = lambda c: ShardedQueue(c, n_shards=4, steal=True)  # noqa: E731
    plain = run_persistent_bfs(
        g, spec.source, "SHARDED", TESTGPU, 4, verify=False,
        queue_factory=factory, capacity=cap,
    )
    probe = BlameProbe()
    blamed = run_persistent_bfs(
        g, spec.source, "SHARDED", TESTGPU, 4, verify=False,
        queue_factory=factory, capacity=cap, observers=[probe],
    )
    assert plain.cycles == blamed.cycles
    assert plain.stats.snapshot() == blamed.stats.snapshot()
    assert np.array_equal(plain.costs, blamed.costs)


def test_blame_session_does_not_perturb_or_leak():
    import repro.simt.engine as engine_mod
    from repro.obs import BlameSession

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, "RF/AN", TESTGPU, 4, verify=False
    )
    assert engine_mod.attached() == ()
    with BlameSession() as session:
        blamed = run_persistent_bfs(
            g, spec.source, "RF/AN", TESTGPU, 4, verify=False
        )
    assert engine_mod.attached() == ()  # nothing attached after exit
    assert plain.cycles == blamed.cycles
    assert plain.stats.snapshot() == blamed.stats.snapshot()
    assert np.array_equal(plain.costs, blamed.costs)
    assert len(session.launches) == 1
    assert session.launches[0].end_cycles == plain.cycles


@pytest.mark.parametrize("variant", ["BASE", "AN", "RF/AN"])
def test_flight_recorded_run_is_bit_identical_to_bare(variant):
    # the flight recorder is the always-on probe (--flight): it folds
    # every callback into a bounded ring + rolling counters, so a
    # recorded run must agree with a bare one on every cycle, counter,
    # and cost — for all queue variants.
    from repro.obs import FlightRecorder

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, variant, TESTGPU, 4, verify=False
    )
    rec = FlightRecorder()
    recorded = run_persistent_bfs(
        g, spec.source, variant, TESTGPU, 4, verify=False, observers=[rec]
    )
    assert plain.cycles == recorded.cycles
    assert plain.stats.snapshot() == recorded.stats.snapshot()
    assert np.array_equal(plain.costs, recorded.costs)
    # and the recorder really saw the launch
    assert rec.events
    assert rec.deliveries > 0
    assert rec.queues


def test_flight_recorded_naive_cas_run_is_bit_identical_to_bare():
    from repro.core import SchedulerControl, persistent_kernel
    from repro.ext import NaiveCasQueue
    from repro.obs import FlightRecorder

    def launch(*observers):
        eng = Engine(TESTGPU)
        sched = SchedulerControl()
        q = NaiveCasQueue(capacity=4096)
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [40, 17])
        sched.seed(eng.memory, 2)
        from test_core_scheduler import CountdownWorker

        kern = persistent_kernel(q, CountdownWorker(), sched)
        return eng.launch(
            kern, 6, params={"max_work_cycles": 500_000},
            observers=observers,
        )

    plain = launch()
    rec = FlightRecorder()
    recorded = launch(rec)
    assert plain.cycles == recorded.cycles
    assert plain.stats.snapshot() == recorded.stats.snapshot()
    assert rec.events


def test_flight_recorded_sharded_run_is_bit_identical_to_bare():
    from repro.bfs.common import bfs_queue_capacity
    from repro.core import ShardedQueue
    from repro.obs import FlightRecorder

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    cap = bfs_queue_capacity(g, TESTGPU, 4)
    factory = lambda c: ShardedQueue(c, n_shards=4, steal=True)  # noqa: E731
    plain = run_persistent_bfs(
        g, spec.source, "SHARDED", TESTGPU, 4, verify=False,
        queue_factory=factory, capacity=cap,
    )
    rec = FlightRecorder()
    recorded = run_persistent_bfs(
        g, spec.source, "SHARDED", TESTGPU, 4, verify=False,
        queue_factory=factory, capacity=cap, observers=[rec],
    )
    assert plain.cycles == recorded.cycles
    assert plain.stats.snapshot() == recorded.stats.snapshot()
    assert np.array_equal(plain.costs, recorded.costs)
    # per-shard queues registered individually
    assert len(rec.queues) > 1


def test_flight_session_with_watchdog_does_not_perturb_or_leak():
    # the full --flight stack: the session gives every launch a
    # FlightRecorder and a LivenessWatchdog whose polls ride the engine
    # loop — on a healthy run both must be bit-invisible, and nothing
    # may stay attached after exit.
    import repro.simt.engine as engine_mod
    from repro.obs import FlightSession

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, "RF/AN", TESTGPU, 4, verify=False
    )
    assert engine_mod.attached() == ()
    with FlightSession(watchdog=True) as session:
        recorded = run_persistent_bfs(
            g, spec.source, "RF/AN", TESTGPU, 4, verify=False
        )
    assert engine_mod.attached() == ()  # nothing attached after exit
    assert plain.cycles == recorded.cycles
    assert plain.stats.snapshot() == recorded.stats.snapshot()
    assert np.array_equal(plain.costs, recorded.costs)
    # a healthy run never escalates
    assert session.watchdog_events == []
    assert session.last is not None
    assert session.last.cycles == recorded.cycles


@pytest.mark.parametrize("variant", ["BASE", "AN", "RF/AN"])
def test_controlled_fifo_run_is_bit_identical_to_uncontrolled(variant):
    # the schedule-controller hook (repro.verify) rides the issue
    # selection point; with an engine-order controller contributed by an
    # attached session the hook must be bit-invisible: same cycles,
    # counters, and costs.
    import repro.simt.engine as engine_mod
    from repro.verify.schedule import FifoController
    from test_simt_engine import FactorySession

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, variant, TESTGPU, 4, verify=False
    )
    assert engine_mod.attached() == ()
    with FactorySession(FifoController):
        controlled = run_persistent_bfs(
            g, spec.source, variant, TESTGPU, 4, verify=False
        )
    assert engine_mod.attached() == ()
    assert plain.cycles == controlled.cycles
    assert plain.stats.snapshot() == controlled.stats.snapshot()
    assert np.array_equal(plain.costs, controlled.costs)


def test_sharded_single_shard_is_bit_identical_to_rfan():
    # the sharded composition at shards=1 must be a pure pass-through:
    # same cycles, same stats snapshot, same metric items, same costs as
    # the bare RF/AN queue under the plain persistent kernel — the
    # equivalence pin that keeps every existing RF/AN number valid.
    from repro.bfs.common import bfs_queue_capacity
    from repro.core import ShardedQueue

    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    plain = run_persistent_bfs(
        g, spec.source, "RF/AN", TESTGPU, 4, verify=False
    )
    cap = bfs_queue_capacity(g, TESTGPU, 4)
    sharded = run_persistent_bfs(
        g, spec.source, "SHARDED", TESTGPU, 4, verify=False,
        queue_factory=lambda c: ShardedQueue(c, n_shards=1, steal=False),
        capacity=cap,
    )
    assert sharded.cycles == plain.cycles
    assert sharded.stats.snapshot() == plain.stats.snapshot()
    assert sorted(sharded.stats.metric_items()) == sorted(
        plain.stats.metric_items()
    )
    assert np.array_equal(sharded.costs, plain.costs)
    # no steal/shard counter keys may leak into the single-shard config
    assert not any(
        "steal" in k or "shard" in k for k in sharded.stats.custom
    )


def test_draining_thousands_of_exiting_wavefronts_is_iterative():
    # one CU, every wavefront exits on its first resume: the seed's
    # recursive issue-on-StopIteration would exceed the recursion limit.
    dev = DeviceSpec(
        name="drain", n_cus=1, wavefront_size=4, max_wavefronts_per_cu=2000
    )
    n = 1990

    def kernel(ctx):
        if ctx.wf_id == 0:
            yield Compute(1)
        # everyone else exits without issuing anything
        return

    mem = GlobalMemory()
    eng = Engine(dev, mem)
    res = eng.launch(kernel, n)
    assert res.stats.issued_ops == 1

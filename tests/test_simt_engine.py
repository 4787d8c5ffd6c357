"""Unit tests for the discrete-event SIMT engine."""

import numpy as np
import pytest

from repro import simt
from repro.simt import (
    Abort,
    AtomicKind,
    AtomicRMW,
    Compute,
    Engine,
    Fence,
    KernelAbort,
    LaunchConfigError,
    LocalOp,
    MemRead,
    MemWrite,
    Probe,
    Session,
    SimulationTimeout,
    attached,
    transactions_for,
)
from repro.simt.probe import ProbeFanout


class FactorySession(Session):
    """Contributes ``factory()`` to every launch while attached."""

    def __init__(self, factory):
        self.factory = factory

    def observers(self):
        return [self.factory()]


class TestTransactionsFor:
    def test_scalar(self):
        assert transactions_for(5) == 1

    def test_empty(self):
        assert transactions_for(np.empty(0, dtype=np.int64)) == 0

    def test_contiguous_coalesces(self):
        idx = np.arange(simt.COALESCE_SEGMENT_WORDS)
        assert transactions_for(idx) == 1

    def test_scattered_pays_per_lane(self):
        idx = np.arange(8) * 1000
        assert transactions_for(idx) == 8

    def test_two_segments(self):
        seg = simt.COALESCE_SEGMENT_WORDS
        idx = np.array([0, 1, seg, seg + 1])
        assert transactions_for(idx) == 2


class TestLaunchValidation:
    def test_zero_wavefronts_rejected(self, engine):
        with pytest.raises(LaunchConfigError):
            engine.launch(lambda ctx: iter(()), 0)

    def test_oversubscription_rejected(self, engine):
        cap = engine.device.max_resident_wavefronts
        with pytest.raises(LaunchConfigError):
            engine.launch(lambda ctx: iter(()), cap + 1)

    def test_empty_kernel_finishes(self, engine):
        def kernel(ctx):
            return
            yield  # pragma: no cover

        res = engine.launch(kernel, 2)
        assert res.cycles == 0


class TestComputeTiming:
    def test_single_wavefront_compute_serializes(self, engine):
        def kernel(ctx):
            yield Compute(100)
            yield Compute(50)

        res = engine.launch(kernel, 1)
        assert res.cycles == 150
        assert res.stats.compute_cycles == 150
        assert res.stats.issued_ops == 2

    def test_compute_occupies_cu(self, engine):
        """Two wavefronts on one CU serialize their ALU work."""

        def kernel(ctx):
            yield Compute(100)

        dev = engine.device.with_(n_cus=1)
        eng = Engine(dev)
        res = eng.launch(kernel, 2)
        assert res.cycles == 200

    def test_compute_parallel_across_cus(self, testgpu):
        def kernel(ctx):
            yield Compute(100)

        eng = Engine(testgpu)  # 2 CUs
        res = eng.launch(kernel, 2)
        assert res.cycles == 100


class TestMemoryTiming:
    def test_latency_hiding(self, testgpu):
        """More resident wavefronts should NOT scale memory-bound time."""

        def kernel(ctx):
            for _ in range(10):
                yield MemRead("buf", 0)

        results = {}
        for n in (1, 4):
            eng = Engine(testgpu)
            eng.memory.alloc("buf", 1024)
            results[n] = eng.launch(kernel, n).cycles
        # within 10% of flat (issue slots are the only added cost)
        assert results[4] < results[1] * 1.1

    def test_read_samples_at_completion(self, engine):
        """A load started before a store completes must see the old value."""
        engine.memory.alloc("buf", 1024, fill=7)
        seen = []

        def kernel(ctx):
            rd = MemRead("buf", 0)
            yield rd
            seen.append(int(rd.result[0]))

        engine.launch(kernel, 1)
        assert seen == [7]

    def test_write_applies(self, engine):
        engine.memory.alloc("buf", 1024)

        def kernel(ctx):
            yield MemWrite("buf", np.array([2, 3]), np.array([10, 11]))

        engine.launch(kernel, 1)
        assert engine.memory["buf"][2] == 10
        assert engine.memory["buf"][3] == 11

    def test_write_is_non_blocking(self, engine):
        """Stores retire via the write buffer: ten back-to-back stores cost
        ten issue slots plus one latency (flush), not ten latencies."""
        engine.memory.alloc("big", 1024)

        def kernel(ctx):
            for i in range(10):
                yield MemWrite("big", i, 1)

        res = engine.launch(kernel, 1)
        dev = engine.device
        # ten issue slots + one final flush; blocking would be ~10 latencies
        assert res.cycles <= 10 * dev.issue_cycles + dev.mem_latency
        assert res.cycles >= dev.mem_latency  # final flush is charged

    def test_hot_buffer_uses_l2_latency(self, testgpu):
        def kernel(ctx):
            yield MemRead("ctrl", 0)

        eng = Engine(testgpu)
        eng.memory.alloc("ctrl", 2)  # hot: <= HOT_BUFFER_WORDS
        hot_cycles = eng.launch(kernel, 1).cycles

        def kernel2(ctx):
            yield MemRead("big", 0)

        eng2 = Engine(testgpu)
        eng2.memory.alloc("big", 100_000)
        cold_cycles = eng2.launch(kernel2, 1).cycles
        assert hot_cycles < cold_cycles


class TestAtomics:
    def test_afa_never_fails_and_returns_old(self, engine):
        engine.memory.alloc("c", 1)
        olds = []

        def kernel(ctx):
            n = ctx.device.wavefront_size
            op = AtomicRMW(
                "c", np.zeros(n, dtype=np.int64), AtomicKind.ADD, 1
            )
            yield op
            olds.append(op.old.copy())
            assert op.success.all()

        res = engine.launch(kernel, 4)
        total = 4 * engine.device.wavefront_size
        assert engine.memory["c"][0] == total
        # every request saw a unique old value: no lost updates
        all_olds = np.concatenate(olds)
        assert len(set(all_olds.tolist())) == total
        assert res.stats.cas_failures == 0

    def test_cas_contention_single_winner(self, engine):
        """All lanes CAS(0 -> lane+1): exactly one request in the whole
        launch can win; failures emerge from serialization."""
        engine.memory.alloc("t", 1)
        wins = []

        def kernel(ctx):
            n = ctx.device.wavefront_size
            op = AtomicRMW(
                "t",
                np.zeros(n, dtype=np.int64),
                AtomicKind.CAS,
                np.zeros(n, dtype=np.int64),
                ctx.lane + 1,
            )
            yield op
            wins.append(int(op.success.sum()))

        res = engine.launch(kernel, 4)
        assert sum(wins) == 1
        n_total = 4 * engine.device.wavefront_size
        assert res.stats.cas_failures == n_total - 1
        assert res.stats.cas_attempts == n_total

    def test_atomic_min_distinct_addresses(self, engine):
        engine.memory.alloc("cost", 64, fill=100)

        def kernel(ctx):
            idx = np.arange(8, dtype=np.int64)
            op = AtomicRMW("cost", idx, AtomicKind.MIN, idx * 10)
            yield op
            assert op.old.tolist() == [100] * 8

        engine.launch(kernel, 1)
        assert engine.memory["cost"][:8].tolist() == [0, 10, 20, 30, 40, 50, 60, 70]
        assert engine.memory["cost"][8] == 100

    def test_atomic_max_and_exch(self, engine):
        engine.memory.alloc("v", 2, fill=5)

        def kernel(ctx):
            op1 = AtomicRMW("v", 0, AtomicKind.MAX, 9)
            yield op1
            op2 = AtomicRMW("v", 1, AtomicKind.EXCH, 42)
            yield op2
            assert int(op1.old[0]) == 5
            assert int(op2.old[0]) == 5

        engine.launch(kernel, 1)
        assert engine.memory["v"].tolist() == [9, 42]

    def test_same_address_batch_serializes_timing(self, testgpu):
        """A 8-lane same-address atomic burst takes ~8x the service time of
        a proxy (single-request) atomic."""

        def perlane(ctx):
            n = ctx.device.wavefront_size
            yield AtomicRMW("c", np.zeros(n, dtype=np.int64), AtomicKind.ADD, 1)

        def proxy(ctx):
            yield AtomicRMW("c", 0, AtomicKind.ADD, ctx.device.wavefront_size)

        times = {}
        for name, k in (("perlane", perlane), ("proxy", proxy)):
            eng = Engine(testgpu)
            eng.memory.alloc("c", 1)
            times[name] = eng.launch(k, 1).cycles
        extra = times["perlane"] - times["proxy"]
        expected = (testgpu.wavefront_size - 1) * testgpu.atomic_service
        assert extra == expected

    def test_duplicate_addresses_in_batch_are_exact(self, engine):
        """Mixed duplicate addresses use the exact general path."""
        engine.memory.alloc("c", 4)

        def kernel(ctx):
            idx = np.array([0, 1, 0, 1, 2], dtype=np.int64)
            op = AtomicRMW("c", idx, AtomicKind.ADD, 1)
            yield op
            # lane order: olds at address 0 are 0 then 1, etc.
            assert op.old.tolist() == [0, 0, 1, 1, 0]

        engine.launch(kernel, 1)
        assert engine.memory["c"][:3].tolist() == [2, 2, 1]

    def test_same_address_cas_chain(self, engine):
        """Ladder expected values let multiple CASes win in one burst."""
        engine.memory.alloc("c", 1)

        def kernel(ctx):
            expected = np.array([0, 1, 2, 5], dtype=np.int64)
            op = AtomicRMW(
                "c",
                np.zeros(4, dtype=np.int64),
                AtomicKind.CAS,
                expected,
                expected + 1,
            )
            yield op
            assert op.success.tolist() == [True, True, True, False]

        engine.launch(kernel, 1)
        assert engine.memory["c"][0] == 3


class TestControlFlow:
    def test_fence_and_localop(self, engine):
        def kernel(ctx):
            yield LocalOp(4)
            yield Fence()

        res = engine.launch(kernel, 1)
        assert res.stats.lds_ops == 1
        assert res.stats.issued_ops == 2

    def test_abort_op_raises(self, engine):
        def kernel(ctx):
            yield Abort("queue full")

        with pytest.raises(KernelAbort, match="queue full"):
            engine.launch(kernel, 2)

    def test_kernel_exception_propagates(self, engine):
        def kernel(ctx):
            raise KernelAbort("boom")
            yield  # pragma: no cover

        with pytest.raises(KernelAbort, match="boom"):
            engine.launch(kernel, 1)

    def test_non_op_yield_rejected(self, engine):
        def kernel(ctx):
            yield "not an op"

        with pytest.raises(TypeError):
            engine.launch(kernel, 1)

    def test_watchdog_timeout(self, engine):
        engine.memory.alloc("flag", 1)

        def spin(ctx):
            while True:
                rd = MemRead("flag", 0)
                yield rd
                if int(rd.result[0]):
                    break

        with pytest.raises(SimulationTimeout):
            engine.launch(spin, 1, max_cycles=10_000)

    def test_deterministic(self, testgpu):
        def kernel(ctx):
            n = ctx.device.wavefront_size
            op = AtomicRMW("c", np.zeros(n, dtype=np.int64), AtomicKind.ADD, 1)
            yield op
            yield MemWrite("out", ctx.global_thread_base + ctx.lane, op.old)

        snaps = []
        for _ in range(2):
            eng = Engine(testgpu)
            eng.memory.alloc("c", 1)
            eng.memory.alloc("out", 1024)
            res = eng.launch(kernel, 6)
            snaps.append((res.cycles, eng.memory["out"].tolist()))
        assert snaps[0] == snaps[1]

    def test_params_passed_to_context(self, engine):
        seen = {}

        def kernel(ctx):
            seen["x"] = ctx.params["x"]
            seen["wf"] = ctx.wf_id
            seen["n"] = ctx.n_wavefronts
            yield Compute(1)

        engine.launch(kernel, 3, params={"x": 42})
        assert seen["x"] == 42
        assert seen["n"] == 3


def _compute_kernel(ctx):
    yield Compute(10)
    yield Compute(5)


class _Issues(Probe):
    def __init__(self):
        self.issues = []

    def on_issue(self, cycle, cu, wf, kind, end, trans):
        self.issues.append((cycle, wf, self.now))


class _Exits(Probe):
    def __init__(self):
        self.exits = []

    def on_exit(self, cycle, wf):
        self.exits.append((cycle, wf, self.cur_wf))


class _Ends:
    """A launch_begin/launch_end-only observer."""

    def __init__(self):
        self.calls = []

    def launch_begin(self, device, n_wavefronts):
        self.calls.append(("begin", n_wavefronts))

    def launch_end(self, cycles, stats):
        self.calls.append(("end", cycles))


class _SeeProbe:
    """Records the kernel-side probe of each wavefront."""

    def __init__(self):
        self.seen = []

    def kernel(self, ctx):
        self.seen.append(ctx.probe)
        yield Compute(10)


class _Controller:
    def launch_begin(self, device, n_wavefronts):
        pass

    def pick(self, now, cid, ready):
        return 0


class _Watchdog:
    def __init__(self, every):
        self.every = every
        self.polls = []

    def launch_begin(self, device, n_wavefronts):
        return self.every

    def poll(self, now, live):
        self.polls.append(now)
        return now + self.every


class TestObservers:
    def test_no_probe_observer_leaves_the_probe_off(self, engine):
        see, ends = _SeeProbe(), _Ends()
        res = engine.launch(see.kernel, 2, observers=[ends])
        assert see.seen == [None, None]
        assert ends.calls == [("begin", 2), ("end", res.cycles)]

    def test_single_probe_is_used_as_is(self, engine):
        see, probe = _SeeProbe(), _Issues()
        engine.launch(see.kernel, 2, observers=[probe])
        assert all(p is probe for p in see.seen)

    def test_fanout_binds_each_callback_to_its_overriders(self):
        issues, exits = _Issues(), _Exits()
        fan = ProbeFanout([issues, exits])
        assert fan.on_issue == issues.on_issue
        assert fan.on_exit == exits.on_exit
        # a callback nobody overrides stays the inherited no-op
        assert "on_wake" not in vars(fan)

    def test_fanout_reaches_every_child(self, engine):
        issues, exits, ends = _Issues(), _Exits(), _Ends()
        res = engine.launch(
            _compute_kernel, 3, observers=[issues, exits, ends]
        )
        assert len(issues.issues) == res.stats.issued_ops
        # now/cur_wf are forwarded to every child before its callback
        assert all(c == now for c, _, now in issues.issues)
        assert sorted(wf for _, wf, _ in exits.exits) == [0, 1, 2]
        assert all(wf == cur for _, wf, cur in exits.exits)
        assert ends.calls[-1] == ("end", res.cycles)

    def test_observers_do_not_perturb(self, testgpu):
        bare = Engine(testgpu).launch(_compute_kernel, 3)
        seen = Engine(testgpu).launch(
            _compute_kernel, 3,
            observers=[_Issues(), _Exits(), _Ends(), _Controller()],
        )
        assert bare.cycles == seen.cycles
        assert bare.stats.snapshot() == seen.stats.snapshot()

    def test_two_controllers_rejected(self, engine):
        with pytest.raises(LaunchConfigError, match="controller"):
            engine.launch(
                _compute_kernel, 1, observers=[_Controller(), _Controller()]
            )

    def test_watchdogs_each_keep_their_cadence(self, engine):
        def spin(ctx):
            for _ in range(40):
                yield Compute(10)

        fast, slow = _Watchdog(50), _Watchdog(120)
        engine.launch(spin, 1, observers=[fast, slow])
        assert fast.polls and slow.polls
        assert all(b - a >= 50 for a, b in zip(fast.polls, fast.polls[1:]))
        assert all(b - a >= 120 for a, b in zip(slow.polls, slow.polls[1:]))
        assert len(fast.polls) > len(slow.polls)


class _Tracker:
    """An observer that only reads the launch's IssueView."""

    def track_issues(self, view):
        self.view = view


def _memory_kernel(ctx):
    buf = ctx.params["buf"]
    yield MemRead(buf, ctx.lane)
    yield Compute(3)
    yield MemWrite(buf, ctx.lane, ctx.lane)


class TestPerOpCallbacks:
    """``on_issue``/``on_wake`` are bound only when a probe wants them."""

    def test_probe_without_overrides_gets_no_issue_or_wake_calls(
        self, engine, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(Probe, "on_issue", lambda self, *a: calls.append(a))
        monkeypatch.setattr(Probe, "on_wake", lambda self, *a: calls.append(a))
        exits = _Exits()
        engine.memory.alloc("b", 64)
        engine.launch(_memory_kernel, 3, params={"buf": "b"},
                      observers=[exits])
        assert calls == []
        assert len(exits.exits) == 3

    def test_fanout_with_the_flight_recorder_keeps_every_timeline_issue(
        self, testgpu
    ):
        from repro.obs.flight import FlightRecorder
        from repro.obs.timeline import TimelineProbe

        alone = TimelineProbe()
        eng = Engine(testgpu)
        eng.memory.alloc("b", 64)
        res = eng.launch(_memory_kernel, 3, params={"buf": "b"},
                         observers=[alone])
        composed, rec = TimelineProbe(), FlightRecorder()
        eng = Engine(testgpu)
        eng.memory.alloc("b", 64)
        eng.launch(_memory_kernel, 3, params={"buf": "b"},
                   observers=[composed, rec])
        assert len(composed.issues) == res.stats.issued_ops
        assert composed.issues == alone.issues
        assert composed.wakes == alone.wakes and alone.wakes
        assert rec.issues == res.stats.issued_ops

    def test_issue_view_tracks_last_issue_per_cu_and_wavefront(self, engine):
        tracker, issues = _Tracker(), _Issues()
        res = engine.launch(_compute_kernel, 3, observers=[tracker, issues])
        view = tracker.view
        assert view.issues() == res.stats.issued_ops == len(issues.issues)
        last = {}
        for cycle, wf, _ in issues.issues:
            last[wf] = cycle
        assert view.wf_last_issue() == last
        for cid, (cycle, wf, op) in view.cu_last_issue().items():
            assert op == "Compute" and last[wf] == cycle
            assert wf % engine.device.n_cus == cid


class TestSessions:
    def test_session_observers_join_every_launch(self, testgpu):
        made = []

        def factory():
            made.append(_Ends())
            return made[-1]

        with FactorySession(factory):
            Engine(testgpu).launch(_compute_kernel, 1)
            Engine(testgpu).launch(_compute_kernel, 2)
        Engine(testgpu).launch(_compute_kernel, 1)
        assert [m.calls[0] for m in made] == [("begin", 1), ("begin", 2)]

    def test_sessions_nest_and_leave_by_identity(self):
        a, b = FactorySession(_Ends), FactorySession(_Ends)
        a.__enter__()
        b.__enter__()
        assert attached() == (a, b)
        a.__exit__(None, None, None)  # out of order: b stays attached
        assert attached() == (b,)
        b.__exit__(None, None, None)
        assert attached() == ()

    def test_not_reentrant(self):
        session = FactorySession(_Ends)
        with session:
            with pytest.raises(RuntimeError, match="re-entrant"):
                session.__enter__()
        assert attached() == ()

    def test_exit_without_enter_raises(self):
        with pytest.raises(RuntimeError, match="without being entered"):
            FactorySession(_Ends).__exit__(None, None, None)

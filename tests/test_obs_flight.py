"""Flight recorder, post-mortem bundles, and enriched queue-full errors.

Bit-identity of flight-recorded runs is pinned per queue variant in
``tests/test_simt_determinism.py``; this file covers the recorder's own
contracts: the bounded ring, the JSON-able snapshot, session
attachment and composition, the post-mortem round trip, the structured
context every queue variant now attaches to a capacity abort, and how
parked wavefronts are recorded.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.bfs import run_persistent_bfs
from repro.core import (
    SchedulerControl,
    ShardedQueue,
    WavefrontQueueState,
    make_queue,
    persistent_kernel,
)
from repro.graphs import dataset
from repro.graphs.generators import roadmap_graph
from repro.harness.postmortem import postmortem_main
from repro.obs.blame import OTHER, _PHASE_CLASS
from repro.obs.flight import (
    FILL_BUCKETS,
    FLIGHT_SCHEMA,
    POSTMORTEM_SCHEMA,
    FlightRecorder,
    FlightSession,
    build_postmortem,
    load_postmortem,
    render_postmortem,
    write_postmortem,
)
from repro.obs.session import ProfileSession
from repro.obs.timeline import TimelineProbe
from repro.obs.watchdog import LivenessWatchdog
from repro.simt import Engine, QueueFullError, TESTGPU, WedgeError, attached
from repro.simt.engine import OP_KIND_NAMES
from repro.simt.probe import Probe
from repro.verify import StarveCUController
from repro.verify import workloads as vworkloads

import test_park_pin as park_pin


def _small_bfs(*observers):
    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    return run_persistent_bfs(
        g, spec.source, "RF/AN", TESTGPU, 4, verify=False, observers=observers
    )


class TestRing:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(ring=32)
        _small_bfs(rec)
        # a full BFS emits far more than 32 events; only 32 remain
        assert rec.events.maxlen == 32
        assert len(rec.events) == 32
        assert rec.issues > 32

    def test_ring_keeps_the_newest_events(self):
        rec = FlightRecorder(ring=16)
        run = _small_bfs(rec)
        cycles = [ev[0] for ev in rec.events]
        # ring events are recent: all within the launch, newest last
        assert max(cycles) <= run.cycles
        assert cycles[-1] == max(cycles)

    def test_ring_holds_no_per_op_events(self):
        rec = FlightRecorder(ring=4096)
        _small_bfs(rec)
        kinds = {ev[1] for ev in rec.events}
        assert "issue" not in kinds and "wake" not in kinds
        assert {"phase", "atomic", "exit"} <= kinds

    def test_progress_signature_advances(self):
        rec = FlightRecorder()
        before = rec.progress_signature()
        _small_bfs(rec)
        after = rec.progress_signature()
        assert after != before
        assert rec.deliveries > 0 and rec.exits > 0


class _OldIssueRecorder(FlightRecorder):
    """The recorder as it was when it took a call per issued op: per-CU
    and per-wavefront last issue and the issue count come from
    ``on_issue``, and every snapshot carries them under ``"old"`` next
    to the values the recorder now reads from the engine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.old_issues = 0
        self.old_cus = {}
        self.old_wf_last = {}

    def launch_begin(self, device, n_wavefronts):
        super().launch_begin(device, n_wavefronts)
        self.old_cus = {}
        self.old_wf_last = {}

    def on_issue(self, cycle, cu, wf, kind, end, trans):
        self.old_issues += 1
        self.old_cus[cu] = (cycle, wf, OP_KIND_NAMES.get(kind, "?"))
        self.old_wf_last[wf] = cycle

    def on_wake(self, cycle, wf):
        pass

    def old_stall_classes(self):
        hist = {}
        for wf in range(self.n_wavefronts):
            if wf in self.exited:
                continue
            marked = self.wf_phases.get(wf)
            if marked is not None:
                cls = _PHASE_CLASS.get(marked[3], OTHER)
            elif wf not in self.old_wf_last:
                cls = "cu_occupancy"
            else:
                cls = OTHER
            hist[cls] = hist.get(cls, 0) + 1
        return hist

    def snapshot(self):
        snap = super().snapshot()
        snap["wf_last_issue"] = self.wf_last_issue
        snap["old"] = {
            "cus": {
                str(cid): {"cycle": c, "wf": wf, "op": op}
                for cid, (c, wf, op) in sorted(self.old_cus.items())
            },
            "wf_last_issue": dict(self.old_wf_last),
            "issues": self.old_issues,
            "stall_classes": self.old_stall_classes(),
        }
        return snap


def _assert_issue_parity(snap):
    old = snap["old"]
    assert snap["cus"] == old["cus"]
    assert snap["wf_last_issue"] == old["wf_last_issue"]
    assert snap["progress"]["issues"] == old["issues"] > 0
    assert snap["stall_classes"] == old["stall_classes"]


class TestIssueStateParity:
    """Per-CU/per-wavefront last issue and the issue count, now read
    from the engine at snapshot time, match per-op recording."""

    @pytest.mark.parametrize("variant", ["RF/AN", "BASE", "SHARDED"])
    def test_at_launch_end(self, variant):
        g = roadmap_graph(10, 10, seed=4)
        rec = _OldIssueRecorder()
        kw = {}
        if variant == "SHARDED":
            kw["queue_factory"] = lambda cap: ShardedQueue(
                cap, n_shards=2, steal=True, spin_threshold=1
            )
        run_persistent_bfs(
            g, 0, variant, TESTGPU, 4, verify=False, observers=[rec], **kw
        )
        snap = rec.snapshot()
        _assert_issue_parity(snap)
        assert snap["progress"]["issues"] == rec.issues

    def test_in_a_mid_launch_watchdog_snapshot(self):
        # starve CU 1 forever: its wavefronts never issue, so the
        # snapshot classifies them cu_occupancy from the issue state.
        worker, seeds, _ = vworkloads.build("countdown", 6)
        eng = Engine(TESTGPU)
        sched = SchedulerControl()
        q = make_queue("RF/AN", capacity=64)
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, seeds)
        sched.seed(eng.memory, len(seeds))
        ctrl = StarveCUController(
            cid=1, period=1 << 30, duty=(1 << 30) - 1, max_holds=1 << 40,
        )
        rec = _OldIssueRecorder()
        wd = LivenessWatchdog(rec, window=20_000)
        with pytest.raises(WedgeError) as exc_info:
            eng.launch(
                persistent_kernel(q, worker, sched), 4,
                params={"max_work_cycles": 500_000},
                observers=[rec, ctrl, wd], max_cycles=10_000_000,
            )
        for snap in (wd.snapshots[0], exc_info.value.snapshot):
            assert snap["finished"] is False
            assert snap["stall_classes"].get("cu_occupancy", 0) > 0
            _assert_issue_parity(snap)


class TestSnapshot:
    def test_snapshot_round_trips_through_json(self):
        rec = FlightRecorder(ring=64)
        run = _small_bfs(rec)
        snap = rec.snapshot()
        again = json.loads(json.dumps(snap))
        assert again["schema"] == snap["schema"]
        assert again["cycle"] == run.cycles
        assert again["finished"] is True
        assert again["live_wavefronts"] == 0
        assert again["ring_capacity"] == 64
        assert len(again["ring"]) == 64
        for q in again["queues"].values():
            assert q["fill"] >= 0  # RF/AN front may pass rear; clamped
            assert len(q["fill_hist"]) == FILL_BUCKETS
        assert again["progress"]["deliveries"] == rec.deliveries

    def test_stall_classes_of_unissued_wavefronts(self):
        rec = FlightRecorder()
        rec.launch_begin(TESTGPU, 4)
        # nothing ever issued: all 4 live wavefronts are ready-but-held
        assert rec.stall_classes() == {"cu_occupancy": 4}
        assert rec.top_stalls() == [("cu_occupancy", 4)]


class TestFlightSession:
    def test_restores_hooks_on_exception_and_writes_bundle(self, tmp_path):
        import repro.simt.engine as engine_mod

        with pytest.raises(RuntimeError, match="boom"):
            with FlightSession(
                watchdog=True, postmortem_dir=str(tmp_path),
                config={"experiments": ["tab1"]},
            ) as session:
                _small_bfs()  # populates session.last
                raise RuntimeError("boom")
        assert engine_mod.attached() == ()
        assert session.postmortem_path is not None
        bundle = load_postmortem(session.postmortem_path)
        assert bundle["error"]["type"] == "RuntimeError"
        assert bundle["flight"]["finished"] is True
        assert bundle["config_hash"]

    def test_no_bundle_without_postmortem_dir(self, tmp_path):
        with pytest.raises(RuntimeError):
            with FlightSession() as session:
                raise RuntimeError("no dir configured")
        assert session.postmortem_path is None

    def test_not_reentrant(self):
        session = FlightSession()
        with session:
            with pytest.raises(RuntimeError, match="re-entrant"):
                session.__enter__()

    def test_explicit_watchdog_leaves_no_stale_watchdog(self):
        # a launch that brings its own watchdog must not leave the
        # session's behind: a watchdog still bound to an earlier
        # launch's recorder sees no progress on the next launch and
        # raises a false WedgeError after three windows.
        g = roadmap_graph(8, 8, seed=2)
        window = 1_000
        with FlightSession(
            watchdog=True, watchdog_opts={"window": window}
        ) as session:
            own = FlightRecorder()
            run_persistent_bfs(
                g, 0, "RF/AN", TESTGPU, 4, verify=False,
                observers=[own, LivenessWatchdog(own, window=10**9)],
            )
            run = run_persistent_bfs(
                g, 0, "RF/AN", TESTGPU, 4, verify=False,
                observers=[FlightRecorder()],
            )
        assert run.cycles > 3 * window  # long enough to have aborted
        assert session.watchdog_events == []
        assert session.last.cycles == run.cycles


@pytest.mark.parametrize("outer", ["flight", "profile"])
def test_nested_sessions_each_see_every_launch(outer):
    g = roadmap_graph(8, 8, seed=2)

    def launches():
        return [
            run_persistent_bfs(g, 0, v, TESTGPU, 4, verify=False)
            for v in ("RF/AN", "BASE")
        ]

    bare = launches()
    recorded = []
    flight = FlightSession(watchdog=True, on_launch_end=recorded.append)
    prof = ProfileSession(keep_timelines=False)
    first, second = (flight, prof) if outer == "flight" else (prof, flight)
    with first, second:
        runs = launches()
    assert attached() == ()
    for a, b in zip(bare, runs):
        assert a.cycles == b.cycles
        assert a.stats.snapshot() == b.stats.snapshot()
    cycles = [r.cycles for r in runs]
    assert [rec.cycles for rec in recorded] == cycles
    assert flight.last is recorded[-1]
    assert flight.watchdog_events == []
    assert [e["metrics"]["cycles"] for e in prof.launches] == cycles


class TestPostmortemBundle:
    def test_queue_full_round_trip(self, tmp_path):
        rec = FlightRecorder()
        _small_bfs(rec)
        err = QueueFullError(
            "queue full: queue 'wq' fill 64/64",
            queue="wq", capacity=64, fill=64,
        )
        bundle = build_postmortem(
            recorder=rec, error=err, config={"experiments": ["fig1"]}
        )
        path = write_postmortem(bundle, str(tmp_path))
        again = load_postmortem(path)
        assert again["schema"] == POSTMORTEM_SCHEMA
        assert again["error"]["queue_full"] == {
            "queue": "wq", "capacity": 64, "fill": 64, "shard": None,
        }
        text = render_postmortem(again)
        assert "queue 'wq' fill 64/64" in text
        assert "ring events" in text

    def test_wedge_error_carries_classification(self, tmp_path):
        rec = FlightRecorder()
        rec.launch_begin(TESTGPU, 4)
        err = WedgeError(
            "launch wedged", classification="cu_occupancy",
            snapshot=rec.snapshot(),
        )
        bundle = build_postmortem(recorder=rec, error=err)
        assert bundle["error"]["classification"] == "cu_occupancy"
        assert bundle["wedge_snapshot"]["schema"] == rec.snapshot()["schema"]
        assert "cu_occupancy" in render_postmortem(bundle)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "postmortem-x.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_postmortem(str(path))

    def test_schema_1_bundles_still_load_and_render(self, tmp_path, capsys):
        rec = FlightRecorder(ring=8)
        _small_bfs(rec)
        err = QueueFullError("queue full: queue 'wq' fill 64/64",
                             queue="wq", capacity=64, fill=64)
        bundle = build_postmortem(recorder=rec, error=err)
        # the schema-1 layout: issue/wake ring events, progress.wakes
        bundle["schema"] = bundle["flight"]["schema"] = 1
        bundle["flight"]["ring"][-2:] = [
            [90, "issue", 0, 1, "MemRead"], [95, "wake", 1],
        ]
        bundle["flight"]["progress"]["wakes"] = 12
        path = write_postmortem(bundle, str(tmp_path))
        again = load_postmortem(path)
        assert again["schema"] == 1
        text = render_postmortem(again)
        assert "postmortem (schema 1)" in text
        assert "95 wake 1" in text
        assert postmortem_main(["show", path]) == 0
        assert "QueueFullError" in capsys.readouterr().out
        assert postmortem_main(["report", str(tmp_path)]) == 0
        assert "fill=64/64" in capsys.readouterr().out

    def test_cli_rejects_unknown_schema_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "postmortem-x.json"
        path.write_text(json.dumps({"schema": 999}))
        assert postmortem_main(["show", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("postmortem: unsupported postmortem schema 999")

    def test_current_schema_is_2(self):
        assert FLIGHT_SCHEMA == POSTMORTEM_SCHEMA == 2
        rec = FlightRecorder()
        _small_bfs(rec)
        snap = rec.snapshot()
        assert snap["schema"] == 2
        assert "wakes" not in snap["progress"]

    def test_write_never_clobbers(self, tmp_path):
        bundle = build_postmortem()
        a = write_postmortem(bundle, str(tmp_path))
        b = write_postmortem(bundle, str(tmp_path))
        assert a != b


class TestEnrichedQueueFull:
    @pytest.mark.parametrize("variant", ["BASE", "AN", "RF/AN"])
    def test_overflow_reports_queue_capacity_and_fill(self, variant):
        eng = Engine(TESTGPU)
        q = make_queue(variant, capacity=4)
        q.allocate(eng.memory)
        wf = TESTGPU.wavefront_size

        def kernel(ctx):
            st = WavefrontQueueState(wf)
            counts = np.full(wf, 2, dtype=np.int64)  # 2*wf tokens > 4
            toks = np.ones((wf, 2), dtype=np.int64)
            yield from q.publish(ctx, st, counts, toks)

        with pytest.raises(QueueFullError, match="queue full") as exc_info:
            eng.launch(kernel, 1)
        err = exc_info.value
        assert err.capacity == 4
        # an oversized burst can abort while the ring is still empty
        assert err.fill >= 0
        assert err.queue  # the owning buffer prefix
        assert err.queue in str(err)
        assert "/4" in str(err)
        info = err.info()
        assert info["capacity"] == 4 and info["queue"] == err.queue


class _PhaseCounter(Probe):
    """Counts phase marks and queue instants (a non-flight probe)."""

    def __init__(self) -> None:
        self.counts = Counter()

    def wf_phase(self, wf, phase, detail="") -> None:
        self.counts[phase] += 1

    def queue_instant(self, prefix, name, cycle, count) -> None:
        self.counts[name] += 1


def _ring_counts(rec: FlightRecorder) -> Counter:
    counts = Counter()
    for ev in rec.events:
        if ev[1] == "phase":
            counts[ev[3]] += 1
        elif ev[1] == "instant":
            counts[ev[3]] += 1
    return counts


class TestParkedWavefronts:
    """A parked wavefront (``repro.simt.ops.Park``) is marked once per
    park in the recorder instead of once per replayed idle cycle."""

    LAUNCH = ("RF/AN", "Fiji", 56)
    RING = 10**7

    def test_one_dna_spin_mark_per_park(self, monkeypatch):
        import repro.core.scheduler as scheduler_mod
        from repro.simt import Park

        stepped = _PhaseCounter()
        park_pin.launch(*self.LAUNCH, observers=[stepped])
        parks = []

        def counted_park(*args):
            parks.append(Park(*args))
            return parks[-1]

        monkeypatch.setattr(scheduler_mod, "Park", counted_park)
        with FlightSession(ring=self.RING) as fs:
            park_pin.launch(*self.LAUNCH)
        got = _ring_counts(fs.last)
        # completions alternate: done-flag poll, data poll, ...
        spins = sum((p.done + 1) // 2 for p in parks)
        polls = sum(p.done // 2 for p in parks)
        assert parks and spins + polls > 10 * len(parks)
        assert all(p.hooks is None for p in parks)
        want = stepped.counts
        assert got["dna_spin"] == want["dna_spin"] - spins + len(parks)
        assert got["empty_poll"] == want["empty_poll"] - polls
        assert got["termination"] == want["termination"] - polls - len(parks)

    @pytest.mark.parametrize("case,mark", [
        ("SHARDED4-rr-t1-Fijix56", "steal"),
        ("SHARDED2-TESTGPUx4", "steal"),
        ("GROW512-Fijix56", "dna_spin"),
    ])
    def test_composed_queues_mark_each_park_once(self, monkeypatch, case,
                                                 mark):
        # a SHARDED thief's park is marked `steal`, a GROW map-watcher's
        # `dna_spin`; the replayed cycles leave no marks in the ring
        import repro.core.scheduler as scheduler_mod
        from repro.simt import Park

        import test_park_pin_composed as composed

        stepped = _PhaseCounter()
        composed.launch(case, observers=[stepped])
        parks = []

        def counted_park(*args):
            parks.append(Park(*args))
            return parks[-1]

        monkeypatch.setattr(scheduler_mod, "Park", counted_park)
        with FlightSession(ring=self.RING) as fs:
            composed.launch(case)
        got = _ring_counts(fs.last)
        assert parks and all(p.hooks is None for p in parks)
        # the marks a replayed completion skips: those made between it
        # and the next read of its park
        skipped = Counter()
        for p in parks:
            n = len(p.reads)
            for j in range(p.start, p.start + p.done):
                buf, nxt = p.reads[j % n].buf, p.reads[(j + 1) % n].buf
                if buf.endswith(".data"):
                    skipped["empty_poll"] += 1
                if nxt.endswith(".data"):
                    skipped["dna_spin"] += 1
                elif nxt == "sched.ctrl":
                    skipped["termination"] += 1
                elif nxt.endswith(".ctrl"):
                    skipped["steal"] += 1
        assert sum(skipped.values()) > 10 * len(parks)
        want = stepped.counts
        for name in ("dna_spin", "empty_poll", "steal", "termination"):
            # each park's one mark replaces the termination mark before it
            one = (name == mark) - (name == "termination")
            assert got[name] == want[name] - skipped[name] + one * len(parks)

    def test_recorder_with_a_timeline_sees_every_cycle(self):
        alone = TimelineProbe()
        stepped = _PhaseCounter()
        park_pin.launch(*self.LAUNCH, observers=[alone, stepped])
        rec = FlightRecorder(ring=self.RING)
        paired = TimelineProbe()
        park_pin.launch(*self.LAUNCH, observers=[rec, paired])
        got = _ring_counts(rec)
        for name in ("dna_spin", "termination", "empty_poll"):
            assert got[name] == stepped.counts[name] > 0
        for attr in ("issues", "wakes", "exits", "atomics", "counters",
                     "instants", "parallelism"):
            assert getattr(paired, attr) == getattr(alone, attr), attr

    def test_watchdog_classifies_a_wedge_as_dna_spin(self):
        pinned = json.loads(park_pin.PIN.read_text())["wedge"]["watchdog"]
        fs = park_pin.watched_wedge()
        assert [[c, a] for c, a, _ in fs.watchdog_events] == pinned
        assert {cls for _, _, cls in fs.watchdog_events} == {"dna_spin"}

"""Tests for the observability layer (repro.obs).

Covers the recording probe, metric reduction, Perfetto export, and
process-wide session attachment.  The perturbation guarantee itself
(profiled == unprofiled, bit for bit) is pinned in
``tests/test_simt_determinism.py``.
"""

import json

import numpy as np
import pytest

from repro.bfs.persistent import run_persistent_bfs
from repro.graphs import roadmap_graph
from repro.obs import (
    ProfileSession,
    TimelineProbe,
    compute_metrics,
    summarize,
    to_perfetto,
    write_trace,
)
from repro.simt import TESTGPU


@pytest.fixture(scope="module")
def bfs_probe():
    """One profiled RF/AN BFS on the test GPU, shared across tests."""
    g = roadmap_graph(12, 12, seed=3)
    probe = TimelineProbe()
    run = run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 4, verify=True, observers=[probe])
    return probe, run


class TestTimelineProbe:
    def test_launch_envelope(self, bfs_probe):
        probe, run = bfs_probe
        assert probe.device is TESTGPU
        assert probe.cycles == run.cycles
        assert probe.stats is run.stats
        assert probe.n_wavefronts == 4 * TESTGPU.max_wavefronts_per_cu or probe.n_wavefronts > 0

    def test_issue_stream_is_time_ordered_and_complete(self, bfs_probe):
        probe, run = bfs_probe
        cycles = [i[0] for i in probe.issues]
        assert cycles == sorted(cycles)
        assert len(probe.issues) == run.stats.issued_ops
        assert all(end >= c for c, _, _, _, end, _ in probe.issues)

    def test_exits_one_per_wavefront(self, bfs_probe):
        probe, _ = bfs_probe
        assert len(probe.exits) == probe.n_wavefronts
        assert len({wf for _, wf in probe.exits}) == probe.n_wavefronts

    def test_atomics_recorded_with_failures_and_addresses(self, bfs_probe):
        probe, run = bfs_probe
        assert probe.atomics
        total_failures = sum(a[5] for a in probe.atomics)
        assert total_failures == run.stats.cas_failures
        # scalar control-word atomics carry their concrete address
        ctrl = [a for a in probe.atomics if a[1].endswith(".ctrl")]
        assert ctrl and all(a[6] >= 0 for a in ctrl)

    def test_queue_registration_and_waits(self, bfs_probe):
        probe, _ = bfs_probe
        assert "wq" in probe.queues
        capacity, variant = probe.queues["wq"]
        assert variant == "RF/AN" and capacity > 0
        waits = probe.waits["wq"]
        assert waits and all(w >= 0 for w in waits)
        # every granted token came off a watched slot plus the host seed
        granted = probe.stats.custom.get("queue.dequeued_tokens", 0)
        assert len(waits) == granted

    def test_proxy_amortization_recorded(self, bfs_probe):
        probe, _ = bfs_probe
        acq = probe.proxy[("wq", "acquire")]
        assert acq and all(n >= 1 for n in acq)
        assert sum(acq) == probe.stats.custom.get("queue.dequeue_requests", 0)

    def test_parallelism_series_is_consistent(self, bfs_probe):
        probe, _ = bfs_probe
        vals = [v for _, v in probe.parallelism]
        assert vals and min(vals) >= 0
        assert max(vals) <= probe.n_wavefronts * TESTGPU.wavefront_size
        assert vals[-1] == 0  # all tokens drained at termination

    def test_truncation_cap(self):
        g = roadmap_graph(8, 8, seed=1)
        probe = TimelineProbe(max_events=100)
        run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 2, verify=False, observers=[probe])
        assert probe.truncated
        assert len(probe.issues) == 100
        # queue streams keep recording past the cap
        assert probe.waits["wq"]

    def test_invalid_max_events(self):
        with pytest.raises(ValueError):
            TimelineProbe(max_events=0)


class TestMetrics:
    def test_summarize(self):
        assert summarize([]) is None
        s = summarize([1, 2, 3, 4])
        assert s["count"] == 4
        assert s["min"] == 1 and s["max"] == 4 and s["mean"] == 2.5

    def test_shape_and_json_round_trip(self, bfs_probe):
        probe, _ = bfs_probe
        m = compute_metrics(probe, bins=24)
        assert m["bins"] == 24
        assert len(m["engine"]["occupancy"]) == 24
        assert m["bins"] * m["bin_cycles"] >= m["cycles"]
        json.loads(json.dumps(m))  # plain data, no numpy scalars

    def test_occupancy_bounded_and_consistent(self, bfs_probe):
        probe, run = bfs_probe
        m = compute_metrics(probe, bins=24)
        occ = m["engine"]["occupancy"]
        assert all(0.0 <= v <= 1.0 for v in occ)
        # binned issue counts cover every recorded issue exactly once
        assert sum(m["engine"]["issues_per_bin"]) == len(probe.issues)
        assert sum(m["engine"]["op_mix"].values()) == run.stats.issued_ops

    def test_queue_metrics(self, bfs_probe):
        probe, _ = bfs_probe
        m = compute_metrics(probe, bins=24)
        q = m["queues"]["wq"]
        assert q["variant"] == "RF/AN"
        assert q["dna_wait"]["count"] == len(probe.waits["wq"])
        assert 0 < q["fill_frac"] <= 1.0
        assert q["max_raw_index"] <= q["capacity"]
        assert q["proxy"]["acquire"]["mean"] >= 1.0

    def test_atomics_metrics(self, bfs_probe):
        probe, _ = bfs_probe
        m = compute_metrics(probe, bins=24)
        a = m["atomics"]
        assert sum(b["batches"] for b in a["by_buf"].values()) == len(probe.atomics)
        assert all(0.0 <= v <= 1.0 for v in a["busy_frac"])
        assert a["hot_addrs"]  # control words are hot by construction

    def test_single_bin_degenerate_case(self, bfs_probe):
        probe, _ = bfs_probe
        m = compute_metrics(probe, bins=1)
        assert len(m["engine"]["occupancy"]) == 1
        assert sum(m["engine"]["issues_per_bin"]) == len(probe.issues)


class TestPerfetto:
    def test_trace_structure(self, bfs_probe):
        probe, _ = bfs_probe
        doc = to_perfetto(probe)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C", "i"} <= phases
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        assert doc["otherData"]["sim_cycles"] == probe.cycles

    def test_all_timestamps_in_range(self, bfs_probe):
        probe, _ = bfs_probe
        for e in to_perfetto(probe)["traceEvents"]:
            if "ts" in e:
                assert 0 <= e["ts"] <= probe.cycles
            if "dur" in e:
                assert e["dur"] >= 1

    def test_counter_and_instant_tracks(self, bfs_probe):
        probe, _ = bfs_probe
        events = to_perfetto(probe)["traceEvents"]
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "wq.front" in counters and "wq.rear" in counters
        assert "wq.depth" in counters
        exits = [e for e in events if e["ph"] == "i" and e["name"] == "exit"]
        assert len(exits) == len(probe.exits)

    def test_write_trace_is_loadable(self, bfs_probe, tmp_path):
        probe, _ = bfs_probe
        path = tmp_path / "trace.json"
        write_trace(probe, path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_empty_probe_exports_metadata_only(self):
        # a probe that never saw a launch must still export cleanly
        doc = to_perfetto(TimelineProbe())
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert doc["otherData"]["sim_cycles"] == 0
        assert doc["otherData"]["truncated"] is False

    def test_truncated_timeline_is_flagged_and_exportable(self):
        g = roadmap_graph(8, 8, seed=1)
        probe = TimelineProbe(max_events=100)
        run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 2, verify=False,
                           observers=[probe])
        doc = to_perfetto(probe)
        assert doc["otherData"]["truncated"] is True
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) > 0

    def test_zero_duration_spans_clamp_to_one_microsecond(self, bfs_probe):
        # synthetic zero/negative-duration issue spans and an atomic
        # batch ending at its own start: every exported slice keeps
        # dur >= 1 so Perfetto renders it, and a wake at or before the
        # blocking issue produces no stall span at all.
        from repro.simt.engine import _K_COMPUTE, _K_READ

        probe, _ = bfs_probe
        synth = TimelineProbe()
        synth.device = probe.device
        synth.cycles = 100
        synth.n_wavefronts = 1
        synth.issues.append((5, 0, 0, _K_COMPUTE, 5, 0))   # zero-dur op
        synth.issues.append((7, 0, 0, _K_READ, 7, 1))      # blocking, 0-dur
        synth.wakes.append((7, 0))                         # wake <= issue
        synth.atomics.append((9, "buf.ctrl", "add", 1, 9, 0, 3))
        doc = to_perfetto(synth)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices and all(e["dur"] >= 1 for e in slices)
        assert not [e for e in slices if e["name"].startswith("stall:")]

    def test_flow_arrows_only_from_blame_probes(self, bfs_probe):
        # a plain TimelineProbe trace carries no blame flows...
        probe, _ = bfs_probe
        events = to_perfetto(probe)["traceEvents"]
        assert not [e for e in events if e.get("cat") == "blame"]
        # ...a BlameProbe recording of the same workload does, with
        # matched s/f pairs pointing at distinct wavefront tracks.
        from repro.obs import BlameProbe

        g = roadmap_graph(12, 12, seed=3)
        bprobe = BlameProbe()
        run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 4, verify=False,
                           observers=[bprobe])
        flows = [
            e for e in to_perfetto(bprobe)["traceEvents"]
            if e.get("cat") == "blame"
        ]
        assert flows
        by_id = {}
        for e in flows:
            by_id.setdefault(e["id"], []).append(e)
        for pair in by_id.values():
            assert sorted(e["ph"] for e in pair) == ["f", "s"]
            s = next(e for e in pair if e["ph"] == "s")
            f = next(e for e in pair if e["ph"] == "f")
            assert s["ts"] <= f["ts"]
            assert {e["name"] for e in pair} <= {"token_store", "done_flag"}


class TestProfileSession:
    def test_collects_every_launch(self):
        g = roadmap_graph(8, 8, seed=2)
        with ProfileSession(bins=8) as session:
            run_persistent_bfs(g, 0, "BASE", TESTGPU, 2, verify=False)
            run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 2, verify=False)
        assert len(session.launches) == 2
        variants = [
            next(iter(e["metrics"]["queues"].values()))["variant"]
            for e in session.launches
        ]
        assert variants == ["BASE", "RF/AN"]
        assert session.total_cycles() == sum(
            e["metrics"]["cycles"] for e in session.launches
        )
        assert session.last is session.launches[-1]

    def test_keep_timelines_flag(self):
        g = roadmap_graph(8, 8, seed=2)
        with ProfileSession(keep_timelines=False) as session:
            run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 2, verify=False)
        assert "timeline" not in session.launches[0]

    def test_not_reentrant(self):
        session = ProfileSession()
        with session:
            with pytest.raises(RuntimeError):
                session.__enter__()

    def test_explicit_probe_composes_with_session(self):
        g = roadmap_graph(8, 8, seed=2)
        mine = TimelineProbe()
        with ProfileSession() as session:
            run = run_persistent_bfs(
                g, 0, "RF/AN", TESTGPU, 2, verify=False, observers=[mine]
            )
        # both the explicit probe and the session see the launch
        assert mine.cycles == run.cycles
        assert len(session.launches) == 1
        assert session.launches[0]["metrics"]["cycles"] == run.cycles

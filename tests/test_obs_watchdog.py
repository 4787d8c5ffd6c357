"""Liveness watchdog: wedge detection without false positives.

The watchdog's contract has two halves, and both need pinning:

* **no false positives** — workloads that are slow but progressing
  (long BFS launches, countdown chains polled at an aggressively small
  window) must never escalate past a reset;
* **real wedges trip** — a planted starve-CU adversary from
  ``repro.verify`` (one CU never allowed to issue while its wavefronts
  hold the only remaining work) must escalate warn → snapshot → abort
  with a :class:`WedgeError` classified via the blame taxonomy, and the
  resulting post-mortem must render with that class.
"""

import pytest

from repro.bfs import run_persistent_bfs
from repro.core import SchedulerControl, make_queue, persistent_kernel
from repro.graphs import dataset
from repro.obs.blame import STALL_CLASSES
from repro.obs.flight import (
    FlightRecorder,
    build_postmortem,
    render_postmortem,
)
from repro.obs.watchdog import LivenessWatchdog
from repro.simt import Engine, TESTGPU, WedgeError
from repro.verify import StarveCUController
from repro.verify import workloads as vworkloads


def _watched_bfs(window):
    rec = FlightRecorder()
    wd = LivenessWatchdog(rec, window=window)
    spec = dataset("Synthetic")
    g = spec.build(spec.default_scale * 0.25)
    run = run_persistent_bfs(
        g, spec.source, "RF/AN", TESTGPU, 4, verify=False,
        observers=[rec, wd],
    )
    return run, wd


class TestNoFalsePositives:
    def test_progressing_bfs_never_escalates(self):
        run, wd = _watched_bfs(window=50_000)
        assert run.cycles > 50_000  # the watchdog did get polled
        assert wd.events == []
        assert wd.trips == 0

    def test_aggressive_window_may_warn_but_never_aborts(self):
        # a window far below the legitimate delivery gaps of the
        # workload may count isolated trips, but progress resets the
        # strike counter before the abort threshold.
        run, wd = _watched_bfs(window=2_000)
        assert all(action != "abort" for _, action, _ in wd.events)

    def test_slow_countdown_chain_never_escalates(self):
        # countdown: one task respawns its successor — long serial
        # chains with sparse deliveries, the classic slow-but-alive run.
        worker, seeds, _ = vworkloads.build("countdown", 6)
        eng = Engine(TESTGPU)
        sched = SchedulerControl()
        q = make_queue("RF/AN", capacity=256)
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, seeds)
        sched.seed(eng.memory, len(seeds))
        rec = FlightRecorder()
        wd = LivenessWatchdog(rec, window=25_000)
        kern = persistent_kernel(q, worker, sched)
        eng.launch(
            kern, 4, params={"max_work_cycles": 500_000},
            observers=[rec, wd], max_cycles=10_000_000,
        )
        assert wd.events == []

    def test_validates_arguments(self):
        rec = FlightRecorder()
        with pytest.raises(ValueError, match="window"):
            LivenessWatchdog(rec, window=0)
        with pytest.raises(ValueError, match="escalations"):
            LivenessWatchdog(rec, escalations=0)


class TestPlantedWedge:
    def _wedge(self):
        """Starve CU 1 forever while its wavefronts hold live work."""
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
        rec = FlightRecorder()
        wd = LivenessWatchdog(rec, window=20_000)
        kern = persistent_kernel(q, worker, sched)
        with pytest.raises(WedgeError) as exc_info:
            eng.launch(
                kern, 4, params={"max_work_cycles": 500_000},
                observers=[rec, ctrl, wd],
                max_cycles=10_000_000,
            )
        return exc_info.value, rec, wd

    def test_starved_cu_trips_the_watchdog(self):
        err, rec, wd = self._wedge()
        # full escalation ladder: warn, snapshot, abort — in order
        assert [action for _, action, _ in wd.events] == [
            "warn", "snapshot", "abort",
        ]
        assert wd.trips == 3
        assert wd.warns == 1
        assert len(wd.snapshots) == 1

    def test_wedge_is_classified_as_cu_occupancy(self):
        # wf1/wf3 live on the starved CU and never issue: the taxonomy
        # calls ready-but-held wavefronts cu_occupancy.
        err, rec, wd = self._wedge()
        assert err.classification == "cu_occupancy"
        assert err.classification in STALL_CLASSES
        assert "no progress" in str(err)
        assert err.snapshot is not None
        assert err.snapshot["stall_classes"].get("cu_occupancy", 0) > 0

    def test_wedge_postmortem_renders_with_stall_class(self, tmp_path):
        err, rec, wd = self._wedge()
        bundle = build_postmortem(recorder=rec, error=err)
        text = render_postmortem(bundle)
        assert "WedgeError" in text
        assert "watchdog classification: cu_occupancy" in text
        assert "ring events" in text

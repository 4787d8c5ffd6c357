"""The invariant oracle: spec-replay checks for the queue family.

Two layers:

* callback-level unit tests drive the oracle directly with synthetic
  event streams, pinning both the violations it must catch and the
  cross-wavefront reporting skew it must *tolerate* (reservations may
  be reported out of order — see the soundness note in
  ``repro.verify.oracle``);
* scenario-level tests run real launches under the oracle: every
  shipping variant verifies clean (with and without adversarial
  schedules), and every planted bug from ``repro.verify.faults`` is
  caught with the invariant its plant advertises.
"""

import inspect

import numpy as np
import pytest

from repro.core.constants import DNA
from repro.verify import faults
from repro.verify.faults import PLANTS
from repro.verify.oracle import InvariantOracle, VerificationError
from repro.verify.runner import _selftest_scenarios
from repro.verify.scenario import ALL_VARIANTS, Scenario, run_scenario


class _StubQueue:
    """Just enough queue surface for a detached oracle."""

    def __init__(self, retry_free=True, circular=False, capacity=16):
        self.prefix = "wq"
        self.capacity = capacity
        self.circular = circular
        self.retry_free = retry_free
        self.variant = "RF/AN" if retry_free else "BASE"
        self.buf_ctrl = "wq_ctrl"
        self.buf_data = "wq_data"


def _oracle(**kw):
    return InvariantOracle(_StubQueue(**kw))


def _expect(invariant, fn):
    with pytest.raises(VerificationError) as exc:
        fn()
    assert exc.value.invariant == invariant


class TestReservationAccounting:
    def test_out_of_order_reservation_reports_are_tolerated(self):
        # the wavefront that reserved [8, 16) may report *before* the
        # one that reserved [0, 8): interval accounting must accept it.
        o = _oracle()
        o.queue_reserve("wq", "publish", 8, 8)
        o.queue_reserve("wq", "publish", 0, 8)
        o.queue_store("wq", np.arange(16), np.arange(100, 116))
        o.queue_reserve("wq", "acquire", 4, 12)
        o.queue_watch("wq", np.arange(4, 16), cycle=0)
        o.queue_reserve("wq", "acquire", 0, 4)
        o.queue_watch("wq", np.arange(0, 4), cycle=0)
        o.queue_deliver("wq", np.arange(16), np.arange(100, 116))
        o.finish(None)  # tiles [0, 16) on both sides, nothing lost

    def test_overlapping_publish_reservations_fail(self):
        o = _oracle()
        o.queue_reserve("wq", "publish", 0, 8)
        _expect(
            "enq-reservation-overlap",
            lambda: o.queue_reserve("wq", "publish", 4, 8),
        )

    def test_overlapping_acquire_reservations_fail(self):
        o = _oracle()
        o.queue_reserve("wq", "acquire", 0, 4)
        _expect(
            "deq-reservation-overlap",
            lambda: o.queue_reserve("wq", "acquire", 3, 2),
        )

    def test_empty_reservation_fails(self):
        o = _oracle()
        _expect("reserve-empty", lambda: o.queue_reserve("wq", "publish", 0, 0))

    def test_reservation_gap_caught_at_quiescence(self):
        # [4, 8) reserved but [0, 4) never was: a lost range.
        o = _oracle()
        o.queue_reserve("wq", "publish", 4, 4)
        _expect("enq-reservation-gap", lambda: o.finish(None))

    def test_other_queue_prefixes_are_ignored(self):
        o = _oracle()
        o.queue_reserve("other", "publish", 0, 0)  # would be reserve-empty
        assert o.events == 0


class TestDequeueOverrun:
    def test_overrun_without_retry_free_fails(self):
        o = _oracle(retry_free=False)
        _expect("deq-overrun", lambda: o.queue_reserve("wq", "acquire", 0, 4))

    def test_sampled_rear_justifies_the_reservation(self):
        # the claiming wavefront sampled Rear=4 earlier in its own
        # program order, so reserving [0, 4) is legitimate even though
        # no publish reservation has been *reported* yet.
        o = _oracle(retry_free=False)
        o.queue_counter("wq", "rear", 0, 4)
        o.queue_reserve("wq", "acquire", 0, 4)

    def test_retry_free_front_may_overrun_rear(self):
        o = _oracle(retry_free=True)
        o.queue_reserve("wq", "acquire", 0, 4)  # hungry lanes park ahead

    def test_front_exceeds_rear_in_consistent_snapshot(self):
        o = _oracle(retry_free=False)
        o.queue_counter("wq", "front", 0, 5)
        _expect(
            "front-exceeds-rear", lambda: o.queue_counter("wq", "rear", 0, 3)
        )

    def test_negative_counter_fails(self):
        o = _oracle()
        _expect(
            "counter-negative", lambda: o.queue_counter("wq", "front", 0, -1)
        )


class TestWatchSet:
    def test_watch_must_match_the_proxy_reservation(self):
        # proxy reserved 4 slots but only parked 3 lanes.
        o = _oracle()
        o.queue_reserve("wq", "acquire", 0, 4)
        _expect(
            "watch-reservation-mismatch",
            lambda: o.queue_watch("wq", [0, 1, 2], cycle=0),
        )

    def test_same_slot_watched_twice_fails(self):
        o = _oracle()
        o.queue_reserve("wq", "acquire", 0, 1)
        o.queue_watch("wq", [0], cycle=0)
        _expect("slot-watched-twice", lambda: o.queue_watch("wq", [0], cycle=1))

    def test_watch_without_reservation_fails(self):
        o = _oracle()
        _expect(
            "watch-unreserved-slot", lambda: o.queue_watch("wq", [9], cycle=0)
        )


class TestStoreAndDeliver:
    def _reserved(self, **kw):
        o = _oracle(**kw)
        o.queue_reserve("wq", "publish", 0, 8)
        o.queue_reserve("wq", "acquire", 0, 8)
        return o

    def test_store_twice_fails(self):
        o = self._reserved()
        o.queue_store("wq", [3], [30])
        _expect("slot-stored-twice", lambda: o.queue_store("wq", [3], [31]))

    def test_store_without_reservation_fails(self):
        o = self._reserved()
        _expect(
            "store-unreserved-slot", lambda: o.queue_store("wq", [12], [1])
        )

    def test_storing_the_sentinel_fails(self):
        o = self._reserved()
        _expect("store-sentinel", lambda: o.queue_store("wq", [0], [DNA]))

    def test_store_beyond_monotonic_capacity_fails(self):
        o = _oracle(capacity=4)
        o.queue_reserve("wq", "publish", 0, 8)
        _expect(
            "store-beyond-capacity", lambda: o.queue_store("wq", [5], [1])
        )

    def test_wrap_overwrite_of_undelivered_slot_fails(self):
        o = _oracle(circular=True, capacity=4)
        o.queue_reserve("wq", "publish", 0, 8)
        o.queue_store("wq", [0, 1, 2, 3], [10, 11, 12, 13])
        # raw slot 4 reuses physical slot 0, whose occupant (raw 0)
        # was never delivered: a wrap-around overwrite.
        _expect("wrap-overwrite", lambda: o.queue_store("wq", [4], [14]))

    def test_wrap_after_delivery_is_legal(self):
        o = _oracle(circular=True, capacity=4)
        o.queue_reserve("wq", "publish", 0, 8)
        o.queue_store("wq", [0, 1, 2, 3], [10, 11, 12, 13])
        o.queue_reserve("wq", "acquire", 0, 1)
        o.queue_deliver("wq", [0], [10])
        o.queue_store("wq", [4], [14])

    def test_deliver_unwritten_slot_fails(self):
        o = self._reserved()
        _expect(
            "deliver-unwritten-slot", lambda: o.queue_deliver("wq", [2], [99])
        )

    def test_delivered_token_must_equal_stored_token(self):
        o = self._reserved()
        o.queue_store("wq", [2], [20])
        _expect("token-corrupted", lambda: o.queue_deliver("wq", [2], [21]))

    def test_deliver_twice_fails(self):
        o = self._reserved()
        o.queue_store("wq", [2], [20])
        o.queue_deliver("wq", [2], [20])
        _expect(
            "slot-delivered-twice", lambda: o.queue_deliver("wq", [2], [20])
        )

    def test_deliver_without_reservation_fails(self):
        o = _oracle()
        o.queue_reserve("wq", "publish", 0, 4)
        o.queue_store("wq", [1], [11])
        _expect(
            "deliver-unreserved-slot", lambda: o.queue_deliver("wq", [1], [11])
        )


class TestQuiescence:
    def test_stored_but_undelivered_token_is_lost(self):
        o = _oracle()
        o.queue_reserve("wq", "publish", 0, 1)
        o.queue_store("wq", [0], [7])
        _expect("token-lost", lambda: o.finish(None))

    def test_reservation_without_store_is_unfilled(self):
        o = _oracle()
        o.queue_reserve("wq", "publish", 0, 2)
        o.queue_store("wq", [0], [7])
        o.queue_reserve("wq", "acquire", 0, 2)
        o.queue_deliver("wq", [0], [7])
        _expect("reservation-unfilled", lambda: o.finish(None))

    def test_host_seed_round_trip_is_clean(self):
        o = _oracle()
        o.note_seed([5, 6])
        o.queue_reserve("wq", "acquire", 0, 2)
        o.queue_deliver("wq", [0, 1], [5, 6])
        o.finish(None)

    def test_register_capacity_mismatch_fails(self):
        o = _oracle(capacity=16)
        _expect(
            "register-mismatch",
            lambda: o.queue_register("wq", 8, "RF/AN"),
        )


# ----------------------------------------------------------------------
# scenario level: real launches under the oracle
# ----------------------------------------------------------------------
class TestCleanScenarios:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_native_order_verifies_clean(self, variant):
        out = run_scenario(Scenario(variant=variant, scale=8))
        assert out.ok, f"{out.invariant}: {out.detail}"
        assert out.events > 0
        assert out.tasks_completed == 8 + 7 + 6 + 3  # sum(v + 1)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_adversarial_schedule_verifies_clean(self, variant):
        out = run_scenario(Scenario(
            variant=variant, scale=8,
            schedule={"kind": "random", "seed": 3,
                      "hold_prob": 0.15, "burst": 48},
        ))
        assert out.ok, f"{out.invariant}: {out.detail}"

    def test_circular_wraparound_verifies_clean(self):
        out = run_scenario(Scenario(
            variant="RF/AN", scale=24, circular=True, capacity=60,
            schedule={"kind": "random", "seed": 0,
                      "hold_prob": 0.15, "burst": 48},
        ))
        assert out.ok, f"{out.invariant}: {out.detail}"

    def test_expected_queue_full_counts_as_pass(self):
        out = run_scenario(Scenario(
            variant="RF/AN", scale=20, capacity=30, expect_full=True,
        ))
        assert out.ok
        assert "aborted as expected" in out.detail

    def test_missed_queue_full_is_a_finding(self):
        # plenty of capacity, but the scenario *claims* it must fill:
        # completing cleanly is then the failure.
        out = run_scenario(Scenario(
            variant="RF/AN", scale=4, capacity=500, expect_full=True,
        ))
        assert not out.ok
        assert out.invariant == "missed-queue-full"


class TestPlantedBugs:
    @pytest.mark.parametrize(
        "plant",
        [p for p, spec in sorted(PLANTS.items()) if not spec["needs_schedule"]],
    )
    def test_deterministic_plants_are_caught(self, plant):
        # the runner knows which workload/geometry exposes each plant
        # (e.g. the steal plants need fanout bursts on a 2-shard queue)
        spec = PLANTS[plant]
        out = run_scenario(_selftest_scenarios(plant, deep=False)[0])
        assert not out.ok, f"oracle is blind to planted bug {plant}"
        assert out.invariant in spec["invariants"], out.detail

    def test_plants_override_a_step_not_an_entry_point(self):
        # each plant swaps one protocol step and runs the shipping
        # acquire/publish around it, so the bug sits in shipping code.
        classes = [
            cls for _, cls in inspect.getmembers(faults, inspect.isclass)
            if cls.__module__ == faults.__name__
        ]
        assert {spec["cls"] for spec in PLANTS.values()} <= set(classes)
        for cls in classes:
            for name in ("acquire", "publish"):
                assert name not in vars(cls), f"{cls.__name__}.{name}"

    def test_publication_race_needs_schedule_exploration(self):
        # the valid-before-data plant is invisible in native order ...
        sc = Scenario(plant="valid-before-data", variant="BASE", scale=12,
                      max_work_cycles=3_000)
        assert run_scenario(sc).ok
        # ... and caught once a burst schedule stretches the window
        # between the flag write and the data write (seed pinned from
        # the selftest sweep).
        sc.schedule = {"kind": "random", "seed": 4,
                       "hold_prob": 0.15, "burst": 48}
        out = run_scenario(sc)
        assert not out.ok
        assert out.invariant in PLANTS["valid-before-data"]["invariants"]

    def test_outcome_scenario_round_trips(self):
        sc = Scenario(plant="over-reserve", variant="RF/AN", scale=12,
                      max_work_cycles=3_000)
        out = run_scenario(sc)
        assert not out.ok
        assert Scenario.from_dict(out.scenario) == sc


class TestParkedLaunches:
    """Uncontrolled road-map launches park, and the engine replays their
    idle cycles (steal probes included) instead of resuming the kernel.
    Controlled verify runs never replay, so these run the oracles on
    uncontrolled launches: the replayed hooks must give the same event
    stream, and the delivered multiset must be the one a stepped (FIFO
    controlled) launch delivers."""

    @staticmethod
    def _launch(case, oracle_cls, monkeypatch, observers=()):
        import repro.core.scheduler as scheduler_mod
        from repro.bfs.common import alloc_graph_buffers, bfs_queue_capacity
        from repro.bfs.persistent import BFSWorker
        from repro.core import SchedulerControl, persistent_kernel
        from repro.simt import Engine, Park

        from test_park_pin_composed import CASES, DEVICES, _graph

        make, device, n_wf, graph = CASES[case]
        dev = DEVICES[device]
        graph = _graph(graph)
        eng = Engine(dev)
        alloc_graph_buffers(eng.memory, graph, 0)
        q = make(bfs_queue_capacity(graph, dev, n_wf))
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [0])
        sched.seed(eng.memory, 1)
        oracle = oracle_cls(q)
        oracle.note_seed([0])
        parks = []

        def counted_park(*args):
            parks.append(Park(*args))
            return parks[-1]

        monkeypatch.setattr(scheduler_mod, "Park", counted_park)
        res = eng.launch(
            persistent_kernel(q, BFSWorker(), sched), n_wf,
            observers=[oracle, *observers],
        )
        assert sched.is_done(eng.memory)
        oracle.finish(eng.memory)
        return res, oracle, sum(p.done for p in parks)

    @pytest.mark.parametrize("case,oracle", [
        ("SHARDED4-rr-t1-Fijix56", "multi"),
        ("SHARDED4-rr-steals-TESTGPUx8", "multi"),
        ("GROW512-Fijix56", "single"),
    ])
    def test_oracle_passes_on_replayed_cycles(self, monkeypatch, case, oracle):
        from repro.verify.oracle import MultiQueueOracle
        from repro.verify.schedule import FifoController

        cls = MultiQueueOracle if oracle == "multi" else InvariantOracle
        res, got, replayed = self._launch(case, cls, monkeypatch)
        assert replayed > 0
        fifo, want, stepped = self._launch(
            case, cls, monkeypatch, [FifoController()]
        )
        assert stepped == 0
        assert got.events == want.events > 0
        assert got.delivered_token_counts() == want.delivered_token_counts()
        assert got.n_lane_delivered == (
            res.stats.custom["scheduler.tasks_completed"]
        )
        assert (res.cycles, res.stats.snapshot()) == (
            fifo.cycles, fifo.stats.snapshot()
        )
        if "steals" in case:
            assert res.stats.custom["queue.steal_hits"] > 0

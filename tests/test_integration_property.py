"""Property-based integration tests: random workloads, every variant.

Hypothesis generates random graphs and scheduler configurations; every
simulated run must agree exactly with its oracle.  These are the tests
that catch interleaving bugs no hand-written case would find (they are
bounded tightly so the whole module stays under a minute).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import simt
from repro.bfs import run_persistent_bfs
from repro.core import QUEUE_VARIANTS, SchedulerControl, make_queue, persistent_kernel
from repro.graphs import CSRGraph

from test_core_scheduler import CountdownWorker

VARIANTS = sorted(QUEUE_VARIANTS)


def graphs_strategy(max_n=40, max_m=120):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_m,
            ),
        )
    )


class TestRandomBFS:
    @given(
        args=graphs_strategy(),
        variant=st.sampled_from(VARIANTS),
        n_wf=st.integers(1, 8),
        subtasks=st.integers(1, 6),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bfs_always_matches_oracle(self, args, variant, n_wf, subtasks):
        n, edges = args
        g = CSRGraph.from_edges(n, edges, name="hyp")
        run_persistent_bfs(
            g, 0, variant, simt.TESTGPU, n_wf,
            subtasks_per_cycle=subtasks, verify=True,
        )


class TestAdaptiveOverflowProperties:
    """Property sweeps over the overflow paths of GROW and SPILL.

    Capacities here are chosen to *force* the adaptive machinery —
    segment recycling, host-ring spills — on every example, and each run
    passes through the full invariant oracle (conservation, no duplicate
    delivery, reservation accounting, spill/grow bookkeeping).
    """

    @given(
        scale=st.integers(6, 24),
        seg_cap=st.sampled_from((4, 8)),
        n_wf=st.integers(1, 6),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_grow_conserves_through_forced_recycling(
        self, scale, seg_cap, n_wf
    ):
        from repro.verify.scenario import Scenario, run_scenario

        # countdown/scale stores ~3*scale tokens through a 3-segment
        # pool: recycling is mandatory for every scale above seg_cap.
        out = run_scenario(Scenario(
            variant="GROW", workload="countdown", scale=scale,
            n_wavefronts=n_wf, capacity=3 * seg_cap,
            seg_cap=seg_cap, pool_segments=3, max_work_cycles=10_000,
        ))
        assert out.ok, f"[{out.invariant}] {out.detail}"
        assert out.delivered_counts

    @given(
        scale=st.sampled_from((31, 63, 127, 255)),
        slack=st.integers(8, 24),
        high=st.integers(4, 12),
        low_frac=st.floats(0.2, 1.0),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_spill_conserves_through_forced_backpressure(
        self, scale, slack, high, low_frac
    ):
        from repro.verify.scenario import Scenario, run_scenario

        # 2 wavefronts = 16 resident lanes on TESTGPU; the ring gets
        # `slack` usable slots beyond them (§4.2), small enough that
        # fanout bursts overflow into the host ring on larger scales.
        lanes = 2 * simt.TESTGPU.wavefront_size
        low = max(1, int(high * low_frac))
        out = run_scenario(Scenario(
            variant="SPILL", workload="fanout", scale=scale,
            n_wavefronts=2, capacity=lanes + slack,
            spill_capacity=2048, high_water=high, low_water=low,
            max_work_cycles=10_000,
        ))
        assert out.ok, f"[{out.invariant}] {out.detail}"
        assert out.delivered_counts

    @given(
        scale=st.integers(10, 24),
        n_wf=st.integers(1, 6),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_grow_memory_stays_bounded(self, scale, n_wf):
        """Bounded steady-state memory: with a 3-segment pool, resident
        segments never exceed the pool and the free-list never holds
        more than 2 idle segments while the run is in flight."""
        from repro.core import GrowQueue, SchedulerControl, persistent_kernel
        from repro.obs.timeline import TimelineProbe
        from repro.verify.workloads import build
        from test_simt_engine import FactorySession

        worker, seeds, expected = build("countdown", scale)
        probe = TimelineProbe()
        with FactorySession(lambda: probe):
            eng = simt.Engine(simt.TESTGPU)
            q = GrowQueue(24, seg_cap=8, pool_segments=3)
            sched = SchedulerControl()
            q.allocate(eng.memory)
            sched.allocate(eng.memory)
            q.seed(eng.memory, seeds)
            sched.seed(eng.memory, len(seeds))
            res = eng.launch(
                persistent_kernel(q, worker, sched),
                n_wf, params={"max_work_cycles": 100_000},
            )
        assert res.stats.custom["scheduler.tasks_completed"] == expected
        links = probe.segment_links.get("wq", [])
        releases = probe.segment_releases.get("wq", [])
        # same-cycle link+release: count the link first (sort key -d)
        events = sorted(
            [(c, 1) for c, _, _ in links]
            + [(c, -1) for c, _, _ in releases],
            key=lambda e: (e[0], -e[1]),
        )

        def backlog_at(cycle):
            # rear - front from the latest control-word samples at cycle
            depth = {}
            for name in ("rear", "front"):
                pts = probe.counters.get(("wq", name), [])
                depth[name] = max(
                    (v for c, v in pts if c <= cycle), default=0
                )
            return depth["rear"] - depth["front"]

        live = 1  # host-mapped segment 0 is live from seed
        for cycle, d in events:
            live += d
            assert 0 <= live <= 3, "resident segments left the pool bound"
            if live == 0:
                # the free-list only goes fully idle when the queue is
                # drained: while any token is undelivered at most
                # pool-1 = 2 segments sit idle (bounded steady-state
                # memory, not a slow leak of recycled segments).
                assert backlog_at(cycle) <= 0, (
                    "free-list exceeded 2 idle segments while tokens "
                    "were in flight"
                )


class TestRandomCountdown:
    @given(
        seeds=st.lists(st.integers(0, 20), min_size=1, max_size=12),
        variant=st.sampled_from(VARIANTS),
        n_wf=st.integers(1, 8),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_exact_task_accounting(self, seeds, variant, n_wf):
        eng = simt.Engine(simt.TESTGPU)
        q = make_queue(variant, capacity=4096)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, seeds)
        sched.seed(eng.memory, len(seeds))
        kern = persistent_kernel(q, CountdownWorker(), sched)
        res = eng.launch(kern, n_wf, params={"max_work_cycles": 100_000})
        expected = sum(v + 1 for v in seeds)
        assert res.stats.custom["scheduler.tasks_completed"] == expected
        assert sched.pending(eng.memory) == 0

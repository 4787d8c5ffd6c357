"""Tests for the run-level metrics registry (``repro.obs.registry``)."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSession,
)
from repro.simt import Compute, Engine, TESTGPU
from repro.simt.stats import SimStats


class TestPrimitives:
    def test_counter_increments_and_rejects_negative(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_buckets_and_summary(self):
        h = Histogram(buckets=(1, 10, 100))
        for v in (0, 1, 5, 50, 5000):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 5056
        assert h.min == 0
        assert h.max == 5000
        assert h.mean == pytest.approx(5056 / 5)

    def test_histogram_merge_requires_equal_buckets(self):
        a = Histogram(buckets=(1, 2))
        b = Histogram(buckets=(1, 3))
        with pytest.raises(ValueError):
            a._merge(b._data())


class TestRegistry:
    def test_labelled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("sim.cycles", device="a").inc(10)
        reg.counter("sim.cycles", device="b").inc(32)
        assert reg.value("sim.cycles", device="a") == 10
        assert reg.value("sim.cycles", device="b") == 32
        assert reg.total("sim.cycles") == 42

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c", device="d").inc(7)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(12)
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.snapshot() == reg.snapshot()

    def test_merge_adds_counters_across_processes(self):
        # simulates the parent merging two workers' snapshots
        parent = MetricsRegistry()
        for _ in range(2):
            worker = MetricsRegistry()
            worker.counter("sim.launches").inc(3)
            worker.histogram("lat").observe(100)
            parent.merge(worker.snapshot())
        assert parent.total("sim.launches") == 6
        (hist,) = [m for n, _, m in parent.series() if n == "lat"]
        assert hist.count == 2

    def test_merge_rejects_unknown_schema(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.merge({"schema": 999, "metrics": []})

    def test_ingest_simstats_namespaces(self):
        stats = SimStats()
        stats.issued_ops = 11
        stats.sim_cycles = 400
        stats.custom["queue.enqueued_tokens"] = 5
        reg = MetricsRegistry()
        reg.ingest_simstats(stats, device="testgpu")
        assert reg.value("sim.issued_ops", device="testgpu") == 11
        assert reg.value("queue.enqueued_tokens", device="testgpu") == 5
        assert reg.value("sim.launches", device="testgpu") == 1

    def test_scalars_is_flat_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a", device="x").inc(1)
        reg.counter("a", device="y").inc(1)
        assert reg.scalars() == {"a": 2, "b": 2}


def _tiny_kernel(ctx):
    yield Compute(3)


class TestMetricsSession:
    def test_session_collects_launches_and_restores_sink(self):
        import repro.simt.engine as engine_mod

        assert engine_mod.attached() == ()
        with MetricsSession() as session:
            Engine(TESTGPU).launch(_tiny_kernel, 2)
            Engine(TESTGPU).launch(_tiny_kernel, 2)
        assert engine_mod.attached() == ()
        reg = session.registry
        assert reg.total("sim.launches") == 2
        assert reg.value("sim.launches", device="TestGPU") == 2
        assert reg.total("sim.cycles") > 0

    def test_session_not_reentrant(self):
        with MetricsSession() as session:
            with pytest.raises(RuntimeError):
                session.__enter__()

    def test_exit_without_enter_raises(self):
        with pytest.raises(RuntimeError):
            MetricsSession().__exit__(None, None, None)

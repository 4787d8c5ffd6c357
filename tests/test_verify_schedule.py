"""Schedule controllers: legality, reproducibility, bit-invisibility.

The controller hook rides the engine's issue-selection point, so the
burden of proof is twofold: an engine-order controller must be
*bit-identical* to no controller at all (the hook costs nothing when it
changes nothing), and the adversarial controllers must stay inside the
space of legal executions — same tasks completed, same verified-clean
oracle history, merely a different interleaving.
"""

import numpy as np
import pytest

import repro.simt.engine as engine_mod
from repro.core import SchedulerControl, make_queue, persistent_kernel
from repro.core.scheduler import K_TASKS_DONE
from repro.simt import TESTGPU, Engine
from repro.verify import workloads
from test_simt_engine import FactorySession
from repro.verify.schedule import (
    DelayWavefrontController,
    FifoController,
    RandomController,
    ScheduleController,
    StarveCUController,
    build_controller,
)


def _run(controller=None, scale=12, n_wf=6):
    """One RF/AN countdown launch; returns (result, memory snapshot)."""
    worker, seeds, expected = workloads.build("countdown", scale)
    q = make_queue("RF/AN", capacity=workloads.max_enqueues("countdown", scale))
    sched = SchedulerControl()
    eng = Engine(TESTGPU)
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))
    kern = persistent_kernel(q, worker, sched)
    res = eng.launch(
        kern, n_wf, params={"max_work_cycles": 20_000},
        observers=[] if controller is None else [controller],
    )
    snap = {name: eng.memory[name].copy() for name in (q.buf_ctrl, q.buf_data)}
    return res, snap, expected


class TestBitIdentity:
    def test_fifo_controller_is_bit_identical_to_uncontrolled(self):
        plain, mem_plain, _ = _run(controller=None)
        piped, mem_piped, _ = _run(controller=FifoController())
        assert plain.cycles == piped.cycles
        assert plain.stats.snapshot() == piped.stats.snapshot()
        for name in mem_plain:
            assert np.array_equal(mem_plain[name], mem_piped[name])

    def test_controller_factory_hook_is_bit_identical_and_scoped(self):
        plain, mem_plain, _ = _run()
        assert engine_mod.attached() == ()
        with FactorySession(FifoController):
            hooked, mem_hooked, _ = _run()
        assert engine_mod.attached() == ()
        assert plain.cycles == hooked.cycles
        assert plain.stats.snapshot() == hooked.stats.snapshot()
        for name in mem_plain:
            assert np.array_equal(mem_plain[name], mem_hooked[name])

    def test_base_controller_defaults_to_engine_order(self):
        plain, _, _ = _run()
        based, _, _ = _run(controller=ScheduleController())
        assert plain.cycles == based.cycles
        assert plain.stats.snapshot() == based.stats.snapshot()


class TestLegality:
    @pytest.mark.parametrize("ctrl", [
        RandomController(seed=7, hold_prob=0.15, burst=48),
        DelayWavefrontController(target=0, patience=96),
        StarveCUController(cid=0, period=256, duty=128),
    ], ids=["random", "delay", "starve"])
    def test_perturbed_runs_complete_the_same_work(self, ctrl):
        res, _, expected = _run(controller=ctrl)
        assert int(res.stats.custom[K_TASKS_DONE]) == expected

    def test_random_controller_actually_perturbs(self):
        plain, _, _ = _run()
        shaken, _, _ = _run(
            controller=RandomController(seed=7, hold_prob=0.15, burst=48)
        )
        assert shaken.cycles > plain.cycles  # holds cost simulated time


class TestReproducibility:
    def test_same_seed_same_execution(self):
        a, mem_a, _ = _run(controller=RandomController(seed=11, hold_prob=0.2))
        b, mem_b, _ = _run(controller=RandomController(seed=11, hold_prob=0.2))
        assert a.cycles == b.cycles
        assert a.stats.snapshot() == b.stats.snapshot()
        for name in mem_a:
            assert np.array_equal(mem_a[name], mem_b[name])

    def test_one_instance_replays_across_launches(self):
        # launch_begin must reset the PRNG: the same object driving two
        # launches explores the same schedule twice.
        ctrl = RandomController(seed=11, hold_prob=0.2)
        a, _, _ = _run(controller=ctrl)
        b, _, _ = _run(controller=ctrl)
        assert a.cycles == b.cycles
        assert a.stats.snapshot() == b.stats.snapshot()


class TestBuildController:
    def test_none_and_kind_none_mean_uncontrolled(self):
        assert build_controller(None) is None
        assert build_controller({"kind": "none"}) is None

    @pytest.mark.parametrize("spec, cls", [
        ({"kind": "fifo"}, FifoController),
        ({"kind": "random", "seed": 3}, RandomController),
        ({"kind": "delay", "target": 2}, DelayWavefrontController),
        ({"kind": "starve", "cid": 1}, StarveCUController),
    ])
    def test_kinds_map_to_classes(self, spec, cls):
        assert isinstance(build_controller(spec), cls)

    @pytest.mark.parametrize("ctrl", [
        FifoController(),
        RandomController(seed=9, hold_prob=0.3, burst=24, max_holds=100),
        DelayWavefrontController(target=5, patience=32, max_holds=50),
        StarveCUController(cid=1, period=128, duty=64, max_holds=200),
    ], ids=["fifo", "random", "delay", "starve"])
    def test_describe_round_trips(self, ctrl):
        rebuilt = build_controller(ctrl.describe())
        assert rebuilt.describe() == ctrl.describe()

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            build_controller({"kind": "chaos"})

    def test_starve_rejects_degenerate_duty_cycle(self):
        with pytest.raises(ValueError, match="duty"):
            StarveCUController(cid=0, period=100, duty=100)
        with pytest.raises(ValueError, match="duty"):
            StarveCUController(cid=0, period=100, duty=0)

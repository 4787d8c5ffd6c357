"""Parity pin for the queue family and the persistent kernel.

Every queue variant runs small countdown and fanout launches, circular
and non-circular where the variant supports both.  For each launch the
pin holds the simulated cycles, ``SimStats.snapshot()``, the insertion
order of ``custom`` and a sha256 over every ``queue_*``, ``sched_*`` and
``wf_phase`` probe callback with its arguments and probe clock.  Small
capacities also pin every queue-full abort's message and ``info``.  A
refactor of the queue protocol or the scheduler loop must leave all of
them bit-identical.

Regenerate the pinned JSON only for an intended behaviour change::

    PYTHONPATH=src python tests/test_queue_parity.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    GrowQueue,
    SchedulerControl,
    ShardedQueue,
    SpillQueue,
    make_queue,
    persistent_kernel,
)
from repro.ext.queue_naive_cas import NaiveCasQueue
from repro.simt import TESTGPU, Engine, KernelAbort, QueueFullError
from repro.simt.probe import Probe
from repro.verify import workloads

PIN = Path(__file__).with_name("queue_parity_pin.json")
N_WAVEFRONTS = 6
LANES = N_WAVEFRONTS * TESTGPU.wavefront_size

#: (workload, scale): a dependent chain and a bursty binary tree.
INPUTS = (("countdown", 24), ("fanout", 80))

#: eager stealing, so the two-shard fanout launches transfer batches
SHARDED_KW = {"steal_quantum": 4, "spin_threshold": 1}

#: config name -> (queue factory taking (capacity, circular), circular
#: settings it supports).
CONFIGS = {
    "BASE": (lambda c, circ: make_queue("BASE", c, circular=circ), (False, True)),
    "AN": (lambda c, circ: make_queue("AN", c, circular=circ), (False, True)),
    "RF/AN": (lambda c, circ: make_queue("RF/AN", c, circular=circ), (False, True)),
    "NAIVE": (lambda c, circ: NaiveCasQueue(c, circular=circ), (False, True)),
    "SHARDED1": (
        lambda c, circ: ShardedQueue(c, circular=circ, n_shards=1),
        (False, True),
    ),
    "SHARDED2-steal": (
        lambda c, circ: ShardedQueue(
            c, circular=circ, n_shards=2, steal=True, **SHARDED_KW
        ),
        (False, True),
    ),
    "SHARDED2-nosteal": (
        lambda c, circ: ShardedQueue(c, circular=circ, n_shards=2, steal=False),
        (False, True),
    ),
    "GROW": (
        lambda c, circ: GrowQueue(c, seg_cap=8, pool_segments=6),
        (False,),
    ),
    "SPILL": (
        lambda c, circ: SpillQueue(
            c, spill_capacity=1024, high_water=10, low_water=6
        ),
        (True,),
    ),
}

CASES = [
    (config, workload, scale, circular)
    for config, (_, circulars) in CONFIGS.items()
    for workload, scale in INPUTS
    for circular in circulars
]


def case_id(config: str, workload: str, scale: int, circular: bool) -> str:
    return f"{config}-{workload}{scale}-{'circ' if circular else 'mono'}"


def _plain(x):
    """Arguments as plain, stably printable Python values."""
    if isinstance(x, np.ndarray):
        return [int(v) for v in x.ravel()]
    if isinstance(x, (np.integer, bool)):
        return int(x)
    return x


class HashProbe(Probe):
    """Folds every queue, scheduler and phase callback into one sha256."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()
        self.n = 0

    def _rec(self, name: str, *args) -> None:
        self.n += 1
        self.h.update(
            repr((name, int(self.now), [_plain(a) for a in args])).encode()
        )


def _recorder(name: str):
    def record(self, *args) -> None:
        self._rec(name, *args)

    record.__name__ = name
    return record


for _name in vars(Probe):
    if _name.startswith(("queue_", "sched_")) or _name == "wf_phase":
        setattr(HashProbe, _name, _recorder(_name))


def _capacity(config: str, workload: str, scale: int, circular: bool) -> int:
    total = workloads.max_enqueues(workload, scale)
    if config == "SPILL":
        # a small ring at two wavefronts, so bursts spill and reinject
        return 24
    if circular:
        # small enough that the ring wraps several times
        return LANES + 16
    if config.startswith("SHARDED2"):
        return total + 64
    return total


def run_case(config: str, workload: str, scale: int, circular: bool, probe=None):
    factory, _ = CONFIGS[config]
    queue = factory(_capacity(config, workload, scale, circular), circular)
    worker, seeds, _ = workloads.build(workload, scale)
    eng = Engine(TESTGPU)
    sched = SchedulerControl()
    queue.allocate(eng.memory)
    sched.allocate(eng.memory)
    queue.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))
    res = eng.launch(
        persistent_kernel(queue, worker, sched),
        2 if config == "SPILL" else N_WAVEFRONTS,
        params={"max_work_cycles": 200_000},
        observers=[] if probe is None else [probe],
    )
    return res


def observe(config: str, workload: str, scale: int, circular: bool) -> dict:
    """The pinned record of one case (a probed and an unprobed launch)."""
    probe = HashProbe()
    probed = run_case(config, workload, scale, circular, probe)
    plain = run_case(config, workload, scale, circular)
    assert plain.cycles == probed.cycles
    assert plain.stats.snapshot() == probed.stats.snapshot()
    assert list(plain.stats.custom) == list(probed.stats.custom)
    return {
        "cycles": int(plain.cycles),
        "stats": json.loads(json.dumps(plain.stats.snapshot())),
        "custom_order": list(plain.stats.custom),
        "probe_events": probe.n,
        "probe_sha256": probe.h.hexdigest(),
    }


#: queue-full launches: (case id, queue factory, workload, scale,
#: wavefronts).  The abort message and its ``info`` are what
#: post-mortems and the capacity advisor read.
ABORT_CASES = [
    ("BASE-mono", lambda: make_queue("BASE", 20), "fanout", 80, 6),
    ("BASE-circ", lambda: make_queue("BASE", 8, circular=True), "fanout", 80, 6),
    ("AN-mono", lambda: make_queue("AN", 20), "fanout", 80, 6),
    ("AN-circ", lambda: make_queue("AN", 12, circular=True), "fanout", 80, 6),
    ("RF/AN-mono", lambda: make_queue("RF/AN", 20), "fanout", 80, 6),
    ("RF/AN-circ", lambda: make_queue("RF/AN", 12, circular=True), "fanout", 80, 6),
    ("NAIVE-mono", lambda: NaiveCasQueue(20), "fanout", 80, 6),
    (
        "SHARDED2-steal-mono",
        lambda: ShardedQueue(20, n_shards=2, **SHARDED_KW),
        "fanout", 80, 6,
    ),
    (
        "SHARDED2-steal-circ",
        lambda: ShardedQueue(12, circular=True, n_shards=2, **SHARDED_KW),
        "fanout", 80, 6,
    ),
    ("GROW-pool", lambda: GrowQueue(8, seg_cap=4, pool_segments=2), "fanout", 80, 6),
    (
        "GROW-map",
        lambda: GrowQueue(16, seg_cap=4, pool_segments=4, max_segments=4),
        "countdown", 24, 6,
    ),
    (
        "SPILL-ring",
        lambda: SpillQueue(24, spill_capacity=8, high_water=10, low_water=6),
        "fanout", 80, 2,
    ),
]


def observe_abort(case: str) -> dict:
    """The pinned record of one queue-full launch."""
    _, factory, workload, scale, n_wf = next(
        c for c in ABORT_CASES if c[0] == case
    )
    queue = factory()
    worker, seeds, _ = workloads.build(workload, scale)
    eng = Engine(TESTGPU)
    sched = SchedulerControl()
    queue.allocate(eng.memory)
    sched.allocate(eng.memory)
    queue.seed(eng.memory, seeds)
    sched.seed(eng.memory, len(seeds))
    probe = HashProbe()
    with pytest.raises(KernelAbort) as exc:
        eng.launch(
            persistent_kernel(queue, worker, sched),
            n_wf,
            params={"max_work_cycles": 200_000},
            observers=[probe],
        )
    err = exc.value
    return {
        "error": type(err).__name__,
        "message": str(err),
        "info": err.info() if isinstance(err, QueueFullError) else None,
        "probe_events": probe.n,
        "probe_sha256": probe.h.hexdigest(),
    }


def _pinned() -> dict:
    return json.loads(PIN.read_text())


@pytest.mark.parametrize(
    "config,workload,scale,circular",
    CASES,
    ids=[case_id(*c) for c in CASES],
)
def test_queue_parity(config, workload, scale, circular):
    want = _pinned()[case_id(config, workload, scale, circular)]
    got = observe(config, workload, scale, circular)
    assert got["cycles"] == want["cycles"]
    assert got["stats"] == want["stats"]
    assert got["custom_order"] == want["custom_order"]
    assert got["probe_events"] == want["probe_events"]
    assert got["probe_sha256"] == want["probe_sha256"]


@pytest.mark.parametrize("case", [c[0] for c in ABORT_CASES])
def test_queue_full_parity(case):
    assert observe_abort(case) == _pinned()["abort:" + case]


def test_pin_covers_every_case():
    assert sorted(_pinned()) == sorted(
        [case_id(*c) for c in CASES] + ["abort:" + c[0] for c in ABORT_CASES]
    )


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: test_queue_parity.py --regen")
    pin = {case_id(*c): observe(*c) for c in CASES}
    pin.update({"abort:" + c[0]: observe_abort(c[0]) for c in ABORT_CASES})
    PIN.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pin)} cases to {PIN}")

"""Pins for the starved regime of the composed queues: SHARDED and GROW.

A starved SHARDED wavefront repeats one idle read sequence per work
cycle: the done flag, its home shard's ``dna``-slot poll and, past
``spin_threshold``, one cached control read of a victim shard.  A
starved GROW wavefront whose lanes watch slots in segments nobody has
linked yet polls the done flag and the segment map.  These launches pin,
per case, the simulated cycles, ``SimStats.snapshot()``, the insertion
order of ``custom``, the launch's ``EXEC_COUNTS`` deltas and a sha256
over every ``queue_*``, ``sched_*`` and ``wf_phase`` callback a plain
(non-flight) probe records.  The same launches must also come out
identical under the scalar execution path, a FIFO schedule controller
and ``EXEC_TIMING``, and ``max_work_cycles`` must trip at the pinned
wavefront with the pinned message and probe stream, for three
consecutive caps (so a parked SHARDED wavefront trips at different
points of its victim period).

Regenerate the pinned JSON only for an intended behaviour change::

    PYTHONPATH=src python tests/test_park_pin_composed.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bfs.common import alloc_graph_buffers, bfs_queue_capacity, read_costs
from repro.bfs.persistent import BFSWorker
from repro.core import GrowQueue, SchedulerControl, ShardedQueue, persistent_kernel
from repro.graphs.generators import roadmap_graph, social_graph
from repro.simt import FIJI, TESTGPU, Engine
from repro.simt import engine as engine_mod
from repro.simt.engine import EXEC_COUNTS, exec_mode
from repro.verify.schedule import FifoController

from test_queue_parity import HashProbe

PIN = Path(__file__).with_name("park_pin_composed.json")

DEVICES = {"TESTGPU": TESTGPU, "Fiji": FIJI}
#: the inputs (source vertex 0): road maps, and a small power-law graph
#: whose frontier is wide enough for steals to find surplus.
GRAPHS = {
    "road16": lambda: roadmap_graph(16, 16, seed=2),
    "road14": lambda: roadmap_graph(14, 14, seed=2),
    "social": lambda: social_graph(300, 6, seed=1),
}


def _sharded(n_shards: int, **kw):
    def make(cap: int) -> ShardedQueue:
        return ShardedQueue(cap, n_shards=n_shards, steal=True, **kw)
    return make


def _grow(cap: int) -> GrowQueue:
    # 512-slot segments: a Fiji launch reserves thousands of slots past
    # Rear, so most idle lanes watch segments that are not linked yet.
    return GrowQueue(cap, seg_cap=512)


#: case id -> (queue factory, device, wavefronts, graph)
CASES = {
    "SHARDED4-rr-t1-Fijix56": (
        _sharded(4, steal_quantum=32, spin_threshold=1), "Fiji", 56,
        "road16"),
    "SHARDED4-rr-t4-Fijix56": (
        _sharded(4, spin_threshold=4), "Fiji", 56, "road16"),
    "SHARDED4-rr-t1-TESTGPUx8": (
        _sharded(4, spin_threshold=1), "TESTGPU", 8, "road14"),
    "SHARDED4-rr-steals-TESTGPUx8": (
        _sharded(4, steal_quantum=2, spin_threshold=1), "TESTGPU", 8,
        "social"),
    "SHARDED2-TESTGPUx4": (_sharded(2), "TESTGPU", 4, "road14"),
    "SHARDED4-random-Fijix56": (
        _sharded(4, spin_threshold=1, victim="random", victim_seed=3),
        "Fiji", 56, "road16"),
    "GROW512-Fijix56": (_grow, "Fiji", 56, "road16"),
}

_GRAPHS: dict = {}


def _graph(name: str):
    g = _GRAPHS.get(name)
    if g is None:
        g = _GRAPHS[name] = GRAPHS[name]()
    return g


def launch(case: str, *, observers=(), params=None, engine_mode=None) -> dict:
    """One BFS launch; returns its result, costs and EXEC_COUNTS deltas."""
    make, device, n_wf, graph = CASES[case]
    dev = DEVICES[device]
    graph = _graph(graph)
    eng = Engine(dev, exec_mode=engine_mode)
    alloc_graph_buffers(eng.memory, graph, 0)
    q = make(bfs_queue_capacity(graph, dev, n_wf))
    sched = SchedulerControl()
    q.allocate(eng.memory)
    sched.allocate(eng.memory)
    q.seed(eng.memory, [0])
    sched.seed(eng.memory, 1)
    x0 = dict(EXEC_COUNTS)
    res = eng.launch(
        persistent_kernel(q, BFSWorker(), sched), n_wf,
        params=params, observers=observers,
    )
    costs = read_costs(eng.memory, graph.n_vertices)
    return {
        "cycles": int(res.cycles),
        "stats": json.loads(json.dumps(res.stats.snapshot())),
        "custom_order": list(res.stats.custom),
        "exec_counts": {k: EXEC_COUNTS[k] - x0[k] for k in EXEC_COUNTS},
        "costs_sha256": hashlib.sha256(costs.tobytes()).hexdigest(),
    }


def _sim(rec: dict) -> dict:
    """The simulated part of a launch record."""
    keys = ("cycles", "stats", "custom_order", "costs_sha256")
    return {k: rec[k] for k in keys}


def trip(case: str, cap: int) -> list:
    """The ``max_work_cycles=cap`` trip: its message, and the count and
    sha256 of the probe events recorded up to it."""
    msgs = []
    probe = HashProbe()
    for observers in ((), (probe,)):
        try:
            launch(case, params={"max_work_cycles": cap}, observers=observers)
            msgs.append("")
        except RuntimeError as exc:
            msgs.append(str(exc))
    assert msgs[0] == msgs[1]
    return [msgs[0], probe.n, probe.h.hexdigest()]


def observe(case: str) -> dict:
    """The pinned record of one launch (a plain and a probed run)."""
    probe = HashProbe()
    probed = launch(case, observers=[probe])
    plain = launch(case)
    assert probed == plain
    # a per-wavefront cap at half the busiest share trips mid-launch
    n_wf = CASES[case][2]
    cap = plain["stats"]["custom"]["scheduler.work_cycles"] // (2 * n_wf)
    return {
        **plain,
        "probe_events": probe.n,
        "probe_sha256": probe.h.hexdigest(),
        "max_work_cycles": cap,
        "trips": [trip(case, cap + d) for d in range(3)],
    }


def _load() -> dict:
    return json.loads(PIN.read_text())


@pytest.fixture(scope="module")
def pinned():
    return _load()


@pytest.mark.parametrize("case", list(CASES))
def test_launch_matches_pin(pinned, case):
    assert observe(case) == pinned[case]


@pytest.mark.parametrize("case", list(CASES))
def test_observers_and_paths_leave_launch_unchanged(pinned, monkeypatch, case):
    want = _sim(pinned[case])
    assert _sim(launch(case, engine_mode="scalar")) == want
    with exec_mode("scalar"):
        assert _sim(launch(case)) == want
    assert _sim(launch(case, observers=[FifoController()])) == want
    monkeypatch.setattr(engine_mod, "EXEC_TIMING", True)
    assert _sim(launch(case)) == want


def regen() -> None:
    data = {case: observe(case) for case in CASES}
    PIN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN}")


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        regen()
    else:
        print(__doc__)
